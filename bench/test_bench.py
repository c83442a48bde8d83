"""Fast self-tests of the benchmark's own logic; no csvgd command is run."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_partition_the_window():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.t += 1.0

    def inner():
        clock.t += 2.0
        tr.timed("leaf", leaf)
        tr.timed("inner", leaf)        # same name nested: counted once

    def outer():
        clock.t += 0.5
        tr.timed("inner", inner)
        tr.timed("leaf", leaf)

    clock.t = 10.0
    tr.timed("setup", leaf)
    window_start = clock.t
    tr.timed("outer", outer)
    clock.t += 0.25                    # uncovered tail
    agg = tr.aggregate(window_start, clock.t)
    assert "setup" not in agg
    assert agg["outer"] == {"calls": 1, "total_s": 5.5, "self_s": 0.5, "errors": 0}
    assert agg["inner"]["calls"] == 1 and agg["inner"]["total_s"] == 4.0
    assert agg["inner"]["self_s"] == 3.0        # 2.0 own + 1.0 nested span's own
    assert agg["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "errors": 0}
    covered = sum(s["self_s"] for s in agg.values())
    assert covered + 0.25 == clock.t - window_start


def test_raised_spans_are_counted_as_errors():
    tr = spans.Tracer(FakeClock())

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tr.timed("engine.run_csvgd", boom)
    assert tr.aggregate(0.0, 1.0)["engine.run_csvgd"]["errors"] == 1


def test_install_wraps_lookup_sites_and_reports_missing(monkeypatch):
    mod = types.ModuleType("fake_layer")
    alias = types.ModuleType("fake_alias")
    alias.work = lambda x: x + 1
    mod.helpers = alias
    mod.count_me = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    targets = (spans.Target("layer.work", "fake_layer:helpers.work"),
               spans.Target("layer.gone", "fake_layer:helpers.removed"),
               spans.Target("layer.later", "fake_layer:not_yet", required=False),
               spans.Target("layer.count", "fake_layer:count_me", kind="count"),
               spans.Target("layer.module", "no_such_module:f"))
    tr = spans.Tracer()
    missing, undo = spans.install(tr, targets)
    assert missing == ["fake_layer:helpers.removed", "no_such_module:f"]
    assert alias.work(1) == 2
    mod.count_me()
    mod.count_me()
    assert [s[0] for s in tr.spans] == ["layer.work"]
    assert tr.counters["layer.count"] == 2
    undo()
    alias.work(1)
    assert len(tr.spans) == 1


def test_layer_metrics_cover_every_declared_unit():
    trace = {"setup": {}, "run": {"engine.svgd_step": {"calls": 3, "total_s": 1.0,
                                                       "self_s": 1.0, "errors": 0}},
             "counters": {}}
    values = spans.layer_metrics(trace, run_s=2.0, artifact_bytes=7)
    assert set(values) | {"tracing.overhead_s"} == set(spans.LAYER_UNITS)
    assert values["engine.iterations"] == 3
    assert values["tracing.uncovered_s"] == 1.0


def test_probe_skips_cells_over_the_memory_cap():
    skipped = [c[0] for c in probe.cells() if c[-1]]
    assert skipped == ["engine.stein_gradient.b1.N1000-D1020",
                       "engine.stein_gradient.b2.N1000-D1020",
                       "condense.distance_matrix.N1000-D1020"]
    assert "engine.stein_gradient.b2.N200-D1020.s" in probe.metric_names()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**spans.LAYER_UNITS, **probe.metric_names()}


def test_configs_are_seeded_and_load_as_run_configs():
    sys.path.insert(0, str(ROOT / "src"))
    from csvgd.experiments import RunConfig
    for w in WORKLOADS.values():
        assert w.config(3) == w.config(3) != w.config(4)
        cfg = RunConfig.from_dict(json.loads(json.dumps(w.config(3))))
        assert cfg.experiment == w.command and cfg.tol == 0.0


def test_quartiles_match_statistics_quantiles():
    assert run.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hyper_desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_scales_times_by_the_calibration_kernel():
    rec = {"problems": [], "trace": False, "setup_s": 0.2, "run_s": 2.0,
           "iterations": 100, "rss_mb": 50.0,
           "calibration_s": 2 * run.CALIBRATION_REF_S}
    scaled, wall = run.end_to_end([rec]), run.end_to_end([rec], scaled=False)
    assert scaled["setup_s"] == [0.1] and wall["setup_s"] == [0.2]
    assert scaled["run_s"] == [1.0] and wall["run_s"] == [2.0]
    assert scaled["iters_per_s"] == [100.0] and wall["iters_per_s"] == [50.0]
    assert scaled["peak_rss_mb"] == wall["peak_rss_mb"] == [50.0]
