"""Benchmark of the csvgd command line: end-to-end time and memory of staged
condensed-SVGD runs, and per-layer spans from a separate traced pass.

    python3 bench/run.py --workload hyper_desk --seed 0 --seconds 60 --trace 0

One closed-loop caller: the benchmark starts one ``csvgd`` command at a time,
each in a fresh single-threaded process (``OPENBLAS_NUM_THREADS=1`` and the
OMP/MKL equivalents), with a config generated from ``--seed``, and starts
the next when it has ended, until ``--seconds`` are spent.  Every command of
a run gets the same inputs, so each must write byte-identical
``metrics.csv`` and ``summary.json``; their quality values must also lie in
the workload's tolerances.

``--trace 0`` reports the end-to-end metrics, each the median over the
commands of the run, with times scaled to a reference machine speed (see
``CALIBRATION_REF_S``).  ``--trace 1`` runs the layer probe, then alternates
traced and untraced commands and reports the per-layer metrics of the
traced ones.  The last line of standard output is the result as JSON; the
line before it is ``{"provenance": {...}, "wall": {...}}``: git SHA, a hash
of ``src/``, seed, problem sizes, BLAS threads, ``nproc``, numpy and Python
versions, and the unscaled medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "iters_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# Seconds the worker's calibration kernel takes on the reference machine (the
# 2-core Xeon the baseline was taken on).  Timings are scaled by
# CALIBRATION_REF_S / (the kernel's time in the command's own process).
CALIBRATION_REF_S = 0.030
HARD_LIMIT_S = 170          # no command starts or runs past this point
IDENTICAL_FILES = ("metrics.csv", "summary.json")


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _run_python(args, timeout):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          env={**os.environ, **BLAS_ENV},
                          capture_output=True, text=True, timeout=timeout)


def _final_dim(out: Path):
    """Particle dimension in the last stage checkpoint, if the command wrote one."""
    ckpts = sorted((out / "checkpoints").glob("stage_*.json"),
                   key=lambda p: (p.stem == "stage_polish", p.stem))
    if not ckpts:
        return None
    return len(json.loads(ckpts[-1].read_text())["ensemble"]["particles"][0])


def invoke(workload, config_path: Path, work: Path, index: int, trace: bool,
           deadline: float) -> dict:
    """Run one command in a fresh process; times, checks and output digests."""
    out = work / f"cmd{index}"
    job = work / f"job{index}.json"
    result_path = work / f"result{index}.json"
    job.write_text(json.dumps({"src": str(ROOT / "src"), "trace": trace,
                               "argv": workload.argv(config_path, out),
                               "result": str(result_path)}))
    rec = {"trace": trace, "problems": []}
    t0 = time.monotonic()
    try:
        proc = _run_python([BENCH / "worker.py", job], timeout=max(deadline - t0, 1))
    except subprocess.TimeoutExpired:
        rec["problems"].append("command timed out")
        rec["elapsed"] = time.monotonic() - t0
        return rec
    rec["elapsed"] = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.exists():
        rec["problems"].append(f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return rec
    res = json.loads(result_path.read_text())
    if res["rc"] != 0:
        rec["problems"].append(f"csvgd returned {res['rc']}: "
                               f"{(res['error'] or proc.stderr).strip()[-2000:]}")
        return rec
    rec.update(setup_s=res["setup_end"] - t0, run_s=res["end"] - res["setup_end"],
               rss_mb=res["rss_mb"], calibration_s=res["calibration_s"],
               numpy=res["numpy"], missing=res["missing"],
               setup_marker=res["setup_marker"])
    try:
        rec["quality"], problems = workload.check(out)
        rec["digest"] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                         for f in IDENTICAL_FILES}
    except (OSError, ValueError, KeyError) as exc:
        rec["problems"].append(f"unreadable output: {exc!r}")
        return rec
    rec["problems"] += problems
    if problems:
        return rec
    rec["iterations"] = rec["quality"]["iterations"]
    rec["final_dim"] = _final_dim(out) or workload.initial_dim
    if trace:
        artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        rec["layers"] = spans.layer_metrics(res["trace"], rec["run_s"], artifact_bytes)
        rec["layers_raw"] = res["trace"]
    shutil.rmtree(out, ignore_errors=True)
    return rec


def run_probe(seed: int, deadline: float) -> dict:
    try:
        proc = _run_python([BENCH / "probe.py", seed],
                           timeout=max(deadline - time.monotonic(), 1))
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        error = proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        error = "probe timed out"
    return {"values": dict.fromkeys(probe.metric_names(), 0.0), "skipped": [],
            "errors": {"probe": error}}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest():
    """SHA-256 over the paths and bytes of the csvgd sources, so a run on an
    uncommitted tree is told apart from one at ``git_sha``."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload, seed: int, records: list) -> dict:
    ok = [r for r in records if not r["problems"]]
    cfg = workload.config(seed)
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "seed": seed,
        "n_particles": cfg["n_particles"],
        "initial_dim": workload.initial_dim,
        "final_dim": ok[0]["final_dim"] if ok else None,
        "n_train": cfg.get("n_train"),
        "n_test": cfg.get("n_test"),
        "blas_threads": dict(BLAS_ENV),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "numpy": ok[0]["numpy"] if ok else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _done(records: list, trace: bool, deadline: float, hard: float) -> bool:
    """Stop when the next command would end past the deadline, once the run has
    two commands (one of each kind when tracing), or when nothing can work."""
    now = time.monotonic()
    if now >= hard or records[-1]["problems"] == ["command timed out"]:
        return True
    if len(records) >= 3 and all(r["problems"] for r in records):
        return True
    enough = len(records) >= 2 and (not trace or len({r["trace"] for r in records}) == 2)
    next_kind = trace and len(records) % 2 == 0
    like_next = [r["elapsed"] for r in records if r["trace"] == next_kind] or \
        [r["elapsed"] for r in records]
    return enough and now + statistics.median(like_next) > deadline


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run commands for ``seconds``: the records, the probe and the elapsed time."""
    start = time.monotonic()
    deadline = start + seconds
    hard = start + HARD_LIMIT_S
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config(seed), indent=1))
        layer_probe = run_probe(seed, hard) if trace else None
        records = []
        while True:
            traced = trace and len(records) % 2 == 0   # traced, untraced, traced, ...
            records.append(invoke(workload, config_path, work, len(records), traced,
                                  hard))
            if _done(records, trace, deadline, hard):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass    # another run still uses it
    _check_identical(records)
    return {"records": records, "probe": layer_probe,
            "elapsed": time.monotonic() - start}


def _check_identical(records) -> None:
    """Every command of a run has the same inputs, traced or not: its outputs
    must match the first good command's byte for byte."""
    ref = next((r["digest"] for r in records if not r["problems"]), None)
    if ref is None:
        return
    for r in records:
        if "digest" in r and r["digest"] != ref:
            r["problems"].append("outputs differ from the first command's: "
                                 + ", ".join(f for f in IDENTICAL_FILES
                                             if r["digest"][f] != ref[f]))


def end_to_end(records, scaled: bool = True) -> dict:
    """Samples of each end-to-end metric over the good untraced commands; with
    ``scaled`` the times are at the reference machine speed, else wall times."""
    ok = [r for r in records if not r["problems"] and not r["trace"]]
    scale = [CALIBRATION_REF_S / r["calibration_s"] if scaled else 1.0 for r in ok]
    return {
        "setup_s": [r["setup_s"] * f for r, f in zip(ok, scale)],
        "run_s": [r["run_s"] * f for r, f in zip(ok, scale)],
        "iters_per_s": [r["iterations"] / (r["run_s"] * f) for r, f in zip(ok, scale)],
        "peak_rss_mb": [r["rss_mb"] for r in ok],
    }


def per_layer(run: dict) -> dict:
    """Median of each per-layer metric over the good traced commands."""
    records = run["records"]
    traced = [r for r in records if not r["problems"] and r["trace"]]
    plain = end_to_end(records, scaled=False)["run_s"]
    if not traced or not plain:
        return {}
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["tracing.overhead_s"] = values["tracing.run_s"] - statistics.median(plain)
    values.update(run["probe"]["values"])
    return values


def flagged_spans(workload, records) -> list[str]:
    """Spans that must fire on this workload but recorded no call."""
    traced = [r for r in records if not r["problems"] and r["trace"]]
    if not traced:
        return []
    raw = traced[0]["layers_raw"]
    seen = {n for table in (raw["run"], raw["setup"]) for n, s in table.items()
            if s["calls"]}
    return [n for n in workload.must_fire if n not in seen]


def report(workload, seed, seconds, trace, run) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines printed before it."""
    records = run["records"]
    failed = sum(1 for r in records if r["problems"])
    lines = [f"workload {workload.name}  seed {seed}  trace {int(trace)}: "
             f"{len(records)} commands in {run['elapsed']:.1f} s "
             f"(budget {seconds} s)"]
    samples = end_to_end(records)
    wall = {name: statistics.median(vals)
            for name, vals in end_to_end(records, scaled=False).items() if vals}
    calibration = [r["calibration_s"] for r in records if not r["problems"]]
    if calibration:
        wall["calibration_s"] = statistics.median(calibration)
    metrics = {}
    if trace:
        layers = per_layer(run)
        units = {**spans.LAYER_UNITS, **probe.metric_names()}
        for name, unit in units.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
                lines.append(f"  {name:48s} {layers[name]:14.6g} {unit}")
        n_traced = sum(1 for r in records if r["trace"] and not r["problems"])
        lines.append(f"  (medians over {n_traced} traced commands; probe skipped: "
                     f"{', '.join(run['probe']['skipped']) or 'none'}; "
                     f"probe errors: {run['probe']['errors'] or 'none'})")
        flagged = flagged_spans(workload, records)
        lines.append(f"  spans with no calls that must fire: {flagged or 'none'}")
    else:
        for name, unit in END_TO_END_UNITS.items():
            vals = samples[name]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            metrics[name] = {"value": med, "unit": unit}
            lines.append(f"  {name:12s} median {med:11.5g} {unit:4s} q1 {q1:.5g} "
                         f"q3 {q3:.5g} max {max(vals):.5g} n={len(vals)}")
        lines.append("  unscaled medians: " + ", ".join(
            f"{name} {value:.5g}" for name, value in wall.items()))
    lines.append(f"  failed_frac  {failed / len(records):.3g} "
                 f"({failed}/{len(records)} commands)")
    for i, r in enumerate(records):
        if r["problems"]:
            lines.append(f"  command {i} failed: {'; '.join(r['problems'])}")
    ok = [r for r in records if not r["problems"]]
    if ok:
        lines.append(f"  quality (diagnostic, not gated): {ok[0]['quality']}")
        missing = sorted({m for r in ok for m in r.get("missing", [])})
        lines.append(f"  missing span targets: {missing or 'none'}")
        if not all(r["setup_marker"] for r in ok):
            lines.append("  setup marker missing: setup_s ends at csvgd.cli.main")
    # The result's keys are fixed, so provenance and the unscaled times are the
    # line just before it.
    lines.append(json.dumps({"provenance": provenance(workload, seed, records),
                             "wall": wall}))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "csvgd" / "__init__.py").is_file():
        print(f"no csvgd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    result, lines = report(workload, args.seed, args.seconds, bool(args.trace), run)
    print("\n".join(lines))
    if not result["metrics"]:
        print("no command succeeded; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
