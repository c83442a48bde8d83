import csv
import dataclasses
import json
import tracemalloc
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csvgd import experiments, network
from csvgd.cli import main
from csvgd.engine import Ensemble, init_net_ensemble
from csvgd.errors import CondenseError
from csvgd.experiments import (RunConfig, cmd_condense_inspect, cmd_hyperelastic,
                               cmd_mvn, cmd_sweep, default_config, load_config,
                               mvn_ensemble_error, save_config)
from csvgd.likelihoods import RegressionTarget
from csvgd.mechanics import generate_data, icnn_template, strain_features

from _oracles import (dump_graphs_per_particle, inspect_weight_rows, load_dataset,
                      stack_stress)
from conftest import condensed_icnn_ensemble


def small_mvn_config(tmp_path, **kw):
    base = dict(experiment="mvn", seed=3, out_dir=str(tmp_path / "run"),
                n_particles=16, max_iters=120, metrics_every=20,
                bandwidth_rule="fixed")
    base.update(kw)
    return RunConfig(**base)


def small_hyper_config(tmp_path, **kw):
    cfg = default_config("hyperelastic")
    cfg.out_dir = str(tmp_path / "hyp")
    cfg.n_particles = 4
    cfg.max_iters = 40
    cfg.num_stages = 2
    cfg.metrics_every = 20
    cfg.n_test = 51
    cfg.seed = 9
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFmt:
    @pytest.mark.parametrize("value,text", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
        (-0.0, "-0.0"), (5e-324, "5e-324"), (np.float64("nan"), "nan"),
        (np.float64("-inf"), "-inf"), (np.float32(0.5), "0.5"), (0.1, "0.1"),
        (np.int64(-3), "-3"), (True, "1"), (None, ""), ("x", "x")])
    def test_strings(self, value, text):
        assert experiments._fmt(value) == text


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        cfg = default_config("hyperelastic")
        cfg.lambda_grid = (0.1, 1.0)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"no_such_field": 1}))
        with pytest.raises(ValueError, match="no_such_field"):
            load_config(path)

    def test_default_presets(self):
        assert default_config("mvn").experiment == "mvn"
        assert default_config("hyperelastic").adagrad
        with pytest.raises(ValueError):
            default_config("nope")

    @pytest.mark.parametrize("field", ["noise", "noise_floor"])
    @pytest.mark.parametrize("value", [-1.0, -5e-324, float("nan")])
    def test_negative_or_nan_noise_rejected_by_name(self, field, value):
        # noise -1 drew the data and the W1 reference at level -1 while the
        # likelihood used max(-1, 0.05); a NaN noise ended mid-run in
        # NonFiniteGradientError
        with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("widths", (3, 30.7, 1), "widths must be integers >= 1"),
        ("widths", (3, 0, 1), "widths must be integers >= 1"),
        ("sweep_betas", (2.5,), "sweep_betas must be the integers 1 or 2"),
        ("sweep_betas", (3,), "sweep_betas must be the integers 1 or 2")],
        ids=["fractional-width", "zero-width", "fractional-beta", "beta-3"])
    def test_integer_tuple_entries_rejected_by_name(self, field, value, message):
        # widths (3, 30.7, 1) trained a 3-30-1 net; sweep_betas (2.5,) ran the
        # beta=2 kernel under a row labelled 2.5
        with pytest.raises(ValueError, match=f"^{message}"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("widths", [(4, 30, 1), (3, 30, 30, 2), (3,)])
    def test_hyperelastic_widths_run_from_invariants_to_a_potential(self, widths):
        with pytest.raises(ValueError, match=r"^widths must start at 3 \(the strain "
                                             r"invariants\) and end at 1"):
            RunConfig(experiment="hyperelastic", widths=widths)
        assert RunConfig(experiment="mvn", widths=widths).widths == widths

    @pytest.mark.parametrize("field, value", [
        ("prior_lambda", float("nan")), ("gamma", float("nan")),
        ("sweep_lambdas", (0.1, float("nan")))])
    def test_nan_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must not be NaN"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["noise", "noise_floor"])
    def test_zero_noise_accepted(self, field):
        assert getattr(RunConfig(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("experiment", ["mvn", "hyperelastic", "sweep"])
    def test_field_assigned_after_construction_rejected_before_any_file(
            self, tmp_path, experiment):
        # the construction check alone let cmd_hyperelastic draw its data at
        # noise -1
        cfg = default_config(experiment)
        cfg.out_dir = str(tmp_path / "out")
        cfg.noise = -1.0
        command = {"mvn": cmd_mvn, "hyperelastic": cmd_hyperelastic,
                   "sweep": cmd_sweep}[experiment]
        with pytest.raises(ValueError, match="^noise must be >= 0"):
            command(cfg)
        assert list(tmp_path.iterdir()) == []


class TestMvnCommand:
    def test_smoke_artifacts_and_exit_code(self, tmp_path, capsys):
        cfg = small_mvn_config(tmp_path)
        assert cmd_mvn(cfg) == 0
        out = Path(cfg.out_dir)
        for name in ("config.json", "metrics.csv", "sparsity.csv",
                     "particles_final.csv", "summary.json", "README.txt"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["bhattacharyya"])
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == list(("iteration", "stage", "lambda", "mse", "w1_sum",
                                "bhattacharyya", "active_params",
                                "median_pairwise_distance"))
        assert all(r[5] for r in rows[1:])   # bhattacharyya column populated

    def test_lambda_grid_contrast(self, tmp_path):
        cfg = small_mvn_config(tmp_path, lambda_grid=(0.1, 1.0), max_iters=800,
                               n_particles=32, gamma=1.0)
        assert cmd_mvn(cfg) == 0
        out = Path(cfg.out_dir)
        rows = read_csv(out / "lambda_compare.csv")
        assert [r[0] for r in rows[1:]] == ["0.1", "1.0"]
        by_lam = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
        assert by_lam[1.0][1] < by_lam[0.1][1]        # theta3 sparsity shrinks
        assert (out / "lam_0.1" / "summary.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_mvn_config(tmp_path)
        cmd_mvn(cfg)
        metrics = Path(cfg.out_dir, "metrics.csv").read_bytes()
        cmd_mvn(cfg)
        assert Path(cfg.out_dir, "metrics.csv").read_bytes() == metrics

    def test_single_particle_equals_gradient_ascent(self, tmp_path):
        from csvgd.experiments import MVN_MEAN, MVN_PRECISION
        from csvgd.priors import PriorSpec, prior_score

        cfg = small_mvn_config(tmp_path, n_particles=1, max_iters=150,
                               prior_lambda=0.2, step_size=0.01)
        cfg.tol = 0.0
        assert cmd_mvn(cfg) == 0
        final = read_csv(Path(cfg.out_dir) / "particles_final.csv")[1]
        got = np.array([float(v) for v in final])

        spec = PriorSpec(cfg.alpha, 0.2)
        theta = np.random.default_rng(cfg.seed).normal(0.0, 1.0, size=3)
        for _ in range(150):
            score = (-MVN_PRECISION @ (theta - MVN_MEAN)
                     + prior_score(spec, theta, cfg.prior_dead_zone))
            theta = theta + 0.01 * score
        assert got.tolist() == theta.tolist()


class TestHyperelasticCommand:
    def test_smoke_artifacts(self, tmp_path):
        cfg = small_hyper_config(tmp_path)
        assert cmd_hyperelastic(cfg) == 0
        out = Path(cfg.out_dir)
        assert (out / "metrics.csv").exists()
        assert (out / "w1_per_point.csv").exists()
        train = load_dataset(out / "data_train.csv", n_inputs=6)
        assert len(train) == cfg.n_train
        assert train.input_names[0] == "E11"
        assert (out / "checkpoints" / "stage_00.json").exists()
        assert (out / "checkpoints" / "stage_01.json").exists()
        # graph dumps are derived on demand from a stage checkpoint
        assert not (out / "graphs").exists()
        inspect = tmp_path / "inspect"
        assert cmd_condense_inspect(out / "checkpoints" / "stage_01.json", inspect) == 0
        graphs = list((inspect / "graphs").glob("particle_*.txt"))
        assert len(graphs) == cfg.n_particles
        rows = read_csv(out / "w1_per_point.csv")
        assert rows[0] == ["delta", "f11", "w1", "w1_ma11"]
        assert len(rows) - 1 == cfg.n_test
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["w1_sum"])
        assert summary["active_params"] > 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_hyper_config(tmp_path)
        cmd_hyperelastic(cfg)
        out = Path(cfg.out_dir)
        before = {p.name: p.read_bytes()
                  for p in (out / "metrics.csv", out / "w1_per_point.csv")}
        cmd_hyperelastic(cfg)
        for p in (out / "metrics.csv", out / "w1_per_point.csv"):
            assert p.read_bytes() == before[p.name]

    def test_w1_is_only_logged(self, tmp_path, monkeypatch):
        # doubling every W1 value moves the w1 outputs and nothing else
        base = small_hyper_config(tmp_path)
        cmd_hyperelastic(base)
        doubled = small_hyper_config(tmp_path)
        doubled.out_dir = str(tmp_path / "hyp_w1x2")
        real = experiments.pushforward_w1

        def twice(model_samples, reference):
            per_point, total = real(model_samples, reference)
            return 2.0 * per_point, 2.0 * total

        monkeypatch.setattr(experiments, "pushforward_w1", twice)
        cmd_hyperelastic(doubled)
        a, b = Path(base.out_dir), Path(doubled.out_dir)
        names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
        assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
        trajectory = [n for n in names
                      if n.startswith(("checkpoints/", "graphs/", "data_"))]
        # a checkpoint per stage and two data files
        assert len(trajectory) == base.num_stages + 2
        for name in trajectory:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        rows_a, rows_b = read_csv(a / "metrics.csv"), read_csv(b / "metrics.csv")
        w1 = rows_a[0].index("w1_sum")
        assert len(rows_a) == len(rows_b) > 2
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            assert ra[:w1] + ra[w1 + 1:] == rb[:w1] + rb[w1 + 1:]
            assert float(rb[w1]) == 2.0 * float(ra[w1])
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sb.pop("w1_sum") == 2.0 * sa.pop("w1_sum")
        assert sa == sb

    def test_condense_toggle_keeps_more_parameters(self, tmp_path):
        cfg_on = small_hyper_config(tmp_path, max_iters=100, num_stages=3)
        cfg_off = small_hyper_config(tmp_path, max_iters=100, num_stages=3,
                                     condense=False)
        cfg_off.out_dir = str(tmp_path / "hyp_off")
        cmd_hyperelastic(cfg_on)
        cmd_hyperelastic(cfg_off)
        on = json.loads(Path(cfg_on.out_dir, "summary.json").read_text())
        off = json.loads(Path(cfg_off.out_dir, "summary.json").read_text())
        assert off["active_params"] >= on["active_params"]

    def test_single_particle_median_reads_nan_on_every_row(self, tmp_path):
        # no particle pairs: the final row must agree with the iteration rows
        cfg = small_hyper_config(tmp_path, n_particles=1)
        assert cmd_hyperelastic(cfg) == 0
        rows = read_csv(Path(cfg.out_dir) / "metrics.csv")
        col = rows[0].index("median_pairwise_distance")
        assert len(rows) > 2
        assert [r[col] for r in rows[1:]] == ["nan"] * (len(rows) - 1)


class TestSweepCommand:
    def test_grid_row_count_and_layout(self, tmp_path):
        cfg = RunConfig(experiment="sweep", seed=5, out_dir=str(tmp_path / "sw"),
                        n_particles=12, max_iters=60, bandwidth_rule="fixed",
                        sweep_lambdas=(0.1, 1.0), sweep_gammas=(0.5, 2.0))
        assert cmd_sweep(cfg) == 0
        rows = read_csv(Path(cfg.out_dir) / "cells.csv")
        assert rows[0] == ["alpha", "beta", "lambda", "gamma",
                           "bhattacharyya", "sparsity_theta3"]
        assert len(rows) - 1 == 4

    def test_single_cell_equals_mvn_run(self, tmp_path):
        common = dict(seed=21, n_particles=12, max_iters=80, gamma=0.8,
                      prior_lambda=0.3, bandwidth_rule="fixed")
        mvn_cfg = small_mvn_config(tmp_path, **common)
        cmd_mvn(mvn_cfg)
        sweep_cfg = RunConfig(experiment="sweep", out_dir=str(tmp_path / "sw1"),
                              sweep_lambdas=(0.3,), sweep_gammas=(0.8,), **common)
        cmd_sweep(sweep_cfg)
        mvn_summary = json.loads(Path(mvn_cfg.out_dir, "summary.json").read_text())
        row = read_csv(Path(sweep_cfg.out_dir) / "cells.csv")[1]
        assert float(row[4]) == pytest.approx(mvn_summary["bhattacharyya"], rel=1e-12)
        assert float(row[5]) == pytest.approx(mvn_summary["sparsity_theta3"], rel=1e-12)

    def test_resume_skips_done_cells(self, tmp_path):
        cfg = RunConfig(experiment="sweep", seed=5, out_dir=str(tmp_path / "sw"),
                        n_particles=12, max_iters=60, bandwidth_rule="fixed",
                        sweep_lambdas=(0.1, 1.0), sweep_gammas=(0.5,))
        cmd_sweep(cfg)
        path = Path(cfg.out_dir) / "cells.csv"
        first = path.read_bytes()
        # drop one row; the rerun recomputes only that cell and restores the file
        rows = read_csv(path)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:-1])
        cmd_sweep(cfg)
        assert path.read_bytes() == first

    def test_truncated_row_is_recomputed(self, tmp_path):
        cfg = RunConfig(experiment="sweep", seed=5, out_dir=str(tmp_path / "sw"),
                        n_particles=12, max_iters=60, bandwidth_rule="fixed",
                        sweep_lambdas=(0.1, 1.0), sweep_gammas=(0.5,))
        cmd_sweep(cfg)
        path = Path(cfg.out_dir) / "cells.csv"
        first = path.read_bytes()
        # the last cell's row keeps its key but loses its two values
        rows = read_csv(path)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:-1] + [rows[-1][:4]])
        cmd_sweep(cfg)
        assert path.read_bytes() == first

    def test_interrupted_cell_write_then_resume_matches_uninterrupted(
            self, tmp_path, monkeypatch):
        def sweep_cfg(name):
            return RunConfig(experiment="sweep", seed=5, out_dir=str(tmp_path / name),
                             n_particles=12, max_iters=60, bandwidth_rule="fixed",
                             sweep_lambdas=(0.1, 1.0), sweep_gammas=(0.5,))

        whole = sweep_cfg("whole")
        cmd_sweep(whole)
        expected = (Path(whole.out_dir) / "cells.csv").read_bytes()

        cut = sweep_cfg("cut")
        real_writer = csv.writer

        class HalfRowThenFail:
            """Writes the second cell's row up to the middle of its
            bhattacharyya value, then fails like a killed process."""

            def __init__(self, fh):
                self.fh = fh
                self.inner = real_writer(fh)

            def writerow(self, row):
                if list(row[:3]) == ["1.0", "2", "1.0"]:
                    bh = row[4]
                    self.fh.write(",".join(row[:4]) + "," + bh[:len(bh) // 2])
                    raise KeyboardInterrupt
                return self.inner.writerow(row)

        with monkeypatch.context() as m:
            m.setattr(csv, "writer", HalfRowThenFail)
            with pytest.raises(KeyboardInterrupt):
                cmd_sweep(cut)
        cmd_sweep(cut)
        path = Path(cut.out_dir) / "cells.csv"
        assert path.read_bytes() == expected
        assert sorted(p.name for p in path.parent.iterdir()) == [
            "README.txt", "cells.csv", "config.json"]


class TestCondenseInspect:
    def _checkpoint(self, tmp_path, stages=2):
        cfg = small_hyper_config(tmp_path, num_stages=stages)
        cmd_hyperelastic(cfg)
        return Path(cfg.out_dir) / "checkpoints" / f"stage_{stages-1:02d}.json"

    def test_artifacts(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        out = tmp_path / "inspect"
        assert cmd_condense_inspect(ckpt, out) == 0
        D = np.array([[float(v) for v in row]
                      for row in read_csv(out / "distance_matrix.csv")[1:]])
        assert np.all(np.diag(D) == 0.0)
        assert np.allclose(D, D.T)
        assert (out / "weights_layer0.csv").exists()
        assert list((out / "graphs").glob("particle_*.txt"))

    def test_fresh_ensemble_equidistant_then_contracts(self, tmp_path):
        from csvgd.condense import distance_matrix
        from csvgd.engine import init_net_ensemble
        from csvgd.mechanics import icnn_template
        ens = init_net_ensemble(icnn_template((3, 30, 30, 1)), 10, seed=0)
        D0 = distance_matrix(ens.particles)
        off = D0[np.triu_indices(10, 1)]
        assert off.std() / off.mean() < 0.05      # effectively equidistant
        ckpt = self._checkpoint(tmp_path)
        from csvgd.engine import load_checkpoint
        ens_after = load_checkpoint(ckpt).ensemble
        D1 = distance_matrix(ens_after.particles)
        off1 = D1[np.triu_indices(len(D1), 1)]
        assert off1.min() < off.min()             # some particles grew closer

    def test_missing_checkpoint_fails(self, tmp_path):
        from csvgd.errors import CheckpointError
        with pytest.raises(CheckpointError):
            cmd_condense_inspect(tmp_path / "none.json", tmp_path / "out")

    def test_files_equal_per_particle_loops(self, tmp_path):
        """weights_layer{k}.csv equals the rows of four nested loops, and each
        graph dump the one-network-per-particle dump."""
        from csvgd.engine import load_checkpoint
        ckpt = self._checkpoint(tmp_path)
        out = tmp_path / "inspect"
        cmd_condense_inspect(ckpt, out)
        ens = load_checkpoint(ckpt).ensemble
        for k in range(ens.template.n_links):
            want = tmp_path / f"loop_layer{k}.csv"
            experiments._write_csv(want, ("layer", "row", "col", "particle", "value"),
                                   inspect_weight_rows(ens.template, ens.particles, k))
            assert (out / f"weights_layer{k}.csv").read_bytes() == want.read_bytes()
        names = [f"particle_{a:02d}.txt" for a in range(ens.n_particles)]
        dump_graphs_per_particle(ens.template, ens.particles,
                                 [tmp_path / name for name in names])
        for name in names:
            assert (out / "graphs" / name).read_bytes() == (tmp_path / name).read_bytes()


class TestStageGraphDumps:
    def test_dumps_equal_per_particle_dumps_of_checkpoints(self, tmp_path):
        """condense-inspect on every stage checkpoint of a run writes graph
        dumps equal, byte for byte, to the one-network-per-particle dumps of
        the particles in that checkpoint; the run itself writes none."""
        from csvgd.engine import load_checkpoint
        cfg = small_hyper_config(tmp_path, n_particles=3, num_stages=2,
                                 schedule="adaptive", polish_iters=10)
        cmd_hyperelastic(cfg)
        out = Path(cfg.out_dir)
        assert not (out / "graphs").exists()
        compared = []
        for ckpt in sorted((out / "checkpoints").glob("stage_*.json")):
            inspect = tmp_path / "inspect" / ckpt.stem
            assert cmd_condense_inspect(ckpt, inspect) == 0
            ens = load_checkpoint(ckpt).ensemble
            names = [f"particle_{a:02d}.txt" for a in range(ens.n_particles)]
            oracle = tmp_path / "oracle" / ckpt.stem
            oracle.mkdir(parents=True)
            dump_graphs_per_particle(ens.template, ens.particles,
                                     [oracle / name for name in names])
            assert sorted(names) == sorted(p.name for p in (inspect / "graphs").iterdir())
            for name in names:
                assert ((inspect / "graphs" / name).read_bytes()
                        == (oracle / name).read_bytes())
            compared.append(ckpt.stem)
        assert compared == ["stage_00", "stage_01", "stage_polish"]


@lru_cache(maxsize=None)
def _test_path_case(condensed):
    """Test-path data and a 12-particle ensemble for the particle-block check."""
    if condensed:
        template, P = condensed_icnn_ensemble(12)
    else:
        ens = init_net_ensemble(icnn_template((3, 8, 8, 1)), 12, seed=2)
        template, P = ens.template, ens.particles
    return generate_data(n_train=6, n_test=21, seed=4), template, P


class TestW1Reference:
    @pytest.mark.parametrize("noise, replicas", [(0.1, 100), (0.0, 7), (0.3, 1)])
    def test_equals_the_out_of_place_formula_bit_for_bit(self, noise, replicas):
        data = generate_data(n_train=6, n_test=21, seed=4)
        eta = np.random.default_rng(9).standard_normal((replicas,) + data.test.outputs.shape)
        want = np.sort(np.transpose(data.test.outputs[None] * (1.0 + noise * eta),
                                    (1, 2, 0)), axis=-1)
        got = experiments._w1_reference(data, noise, replicas, 9)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_peak_is_two_reference_sizes(self):
        # the out-of-place replicas held three 4.8 MB arrays (13.75 MiB) for
        # a 4.58 MiB result: the draws and the sorted copy are all it needs
        data = generate_data(seed=0)
        experiments._w1_reference(data, 0.1, 100, 2)
        tracemalloc.start()
        try:
            ref = experiments._w1_reference(data, 0.1, 100, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ref.shape == (1001, 6, 100)
        assert peak < 2 * ref.nbytes + 2**20


def _per_particle_cloud(template, P, features):
    """The sorted test-path cloud from one prediction per particle."""
    return np.sort(np.stack([stack_stress(template, p[None], features)[0]
                             for p in P], axis=-1), axis=-1)


def _traced_peak(f):
    """tracemalloc's peak over a second call of ``f``, after a first has
    filled the caches."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTestPathSamples:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), per_block=st.integers(1, 12), condensed=st.booleans())
    @example(n=12, per_block=12, condensed=False)     # 1 block
    @example(n=12, per_block=6, condensed=True)       # 2 blocks
    @example(n=11, per_block=3, condensed=False)      # 4, short last
    def test_blocks_equal_per_particle_predictions(self, n, per_block, condensed):
        data, template, P = _test_path_case(condensed)
        ens = Ensemble(P[:n], template, np.random.default_rng(0))
        budget = per_block * len(data.test) * max(template.layer_widths)
        features = strain_features(data.test.inputs)
        with mock.patch.object(experiments, "TEST_PATH_ELEMENTS", budget):
            got = experiments._test_path_samples(ens, features)
        assert got.shape == (len(data.test), 6, n)
        np.testing.assert_array_equal(got, _per_particle_cloud(template, P[:n], features))

    def test_one_reference_pass_serves_every_block(self, monkeypatch):
        # a reference-row pass per block was a fixed cost that the small
        # blocks of the test path paid again and again
        data, template, P = _test_path_case(False)
        calls, forward_pass = [], network.forward_pass

        def counted(net, X, params):
            calls.append((len(X), len(params)))
            return forward_pass(net, X, params)

        monkeypatch.setattr(network, "forward_pass", counted)
        monkeypatch.setattr(experiments, "TEST_PATH_ELEMENTS",
                            3 * len(data.test) * max(template.layer_widths))
        experiments._test_path_samples(Ensemble(P[:7], template, np.random.default_rng(0)),
                                       strain_features(data.test.inputs))
        assert calls == [(1, 7), (21, 3), (21, 3), (21, 1)]

    def test_a_condensed_narrow_template_takes_several_particles_a_block(self):
        # on the 1001-point path the budget gives a 3-30-30-1 net one particle
        # a block, and a condensed net of width 12 or less two or more
        data = generate_data(n_train=6, seed=4)
        template, P = condensed_icnn_ensemble(12)
        P = P[:11]
        blocks = network.particle_blocks(template, len(P), len(data.test),
                                         experiments.TEST_PATH_ELEMENTS)
        sizes = [len(range(len(P))[b]) for b in blocks]
        assert len(data.test) == 1001 and sizes[0] >= 2 and sizes[-1] < sizes[0]
        features = strain_features(data.test.inputs)
        got = experiments._test_path_samples(Ensemble(P, template, np.random.default_rng(0)),
                                             features)
        np.testing.assert_array_equal(got, _per_particle_cloud(template, P, features))

    def test_a_logged_prediction_stays_within_the_score_working_set(self):
        # N=10 at 3-30-30-1: in blocks of the score's budget (2 particles, 480
        # KB per-link arrays) the prediction over the 1001-point path peaked
        # at 3.30 MiB traced, 1.93 x the score over the 80 training rows, and
        # the first logged iteration grew the run's heap by about 1.6 MB
        data = generate_data(seed=0)
        template = icnn_template((3, 30, 30, 1))
        ens = init_net_ensemble(template, 10, seed=1)
        target = RegressionTarget(data.train, 1.0)
        features = strain_features(data.test.inputs)
        assert (len(data.train), len(data.test)) == (80, 1001)
        score = _traced_peak(lambda: target.score_and_mse_batch(template, ens.particles))
        path = _traced_peak(lambda: experiments._test_path_samples(ens, features))
        assert path <= 1.25 * score


class TestCli:
    def test_mvn_subcommand(self, tmp_path, capsys):
        rc = main(["mvn", "--out", str(tmp_path / "r"), "--iters", "50",
                   "--particles", "8", "--seed", "1",
                   "--bandwidth-rule", "fixed"])
        assert rc == 0
        assert (tmp_path / "r" / "metrics.csv").exists()
        assert "bhattacharyya" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = small_mvn_config(tmp_path, max_iters=50, n_particles=8)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        out2 = tmp_path / "override"
        rc = main(["mvn", "--config", str(path), "--out", str(out2)])
        assert rc == 0
        snap = json.loads((out2 / "config.json").read_text())
        assert snap["out_dir"] == str(out2)
        assert snap["max_iters"] == 50

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": True}))
        rc = main(["mvn", "--config", str(path)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ([], "c.json is not a config file"),
        ({"n_particles": "ten"}, "n_particles"),
        ({"widths": 5}, "widths")], ids=["array", "text-count", "scalar-widths"])
    def test_config_of_the_wrong_shape_names_the_fault(self, tmp_path, capsys, doc,
                                                       named):
        # each used to end in a TypeError traceback
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = main(["mvn", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("csvgd mvn: ") and named in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc", [
        {"experiment": "hyperelastic", "widths": [4, 30, 1]},
        {"experiment": "hyperelastic", "widths": [3, 30, 30, 2]},
        {"widths": [3]}], ids=["four-inputs", "two-outputs", "one-layer"])
    def test_hyperelastic_widths_named_before_any_file(self, tmp_path, capsys, doc):
        # [4, 30, 1] wrote config.json, README.txt and both data CSVs, then
        # ended in "input shape (80, 3) is not rows (batch, 4) of the input
        # layer"; [3, 30, 30, 2] in "the unit upstream needs a scalar-output net"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "r"
        rc = main(["hyperelastic", "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("csvgd hyperelastic: widths must start at 3")
        assert str(doc["widths"]) in err
        assert not out.exists()

    def test_condense_inspect_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["condense-inspect", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("text", ["[1, 2]", '{"format": "csvgd-checkpoint-v1"}'])
    def test_condense_inspect_names_a_file_that_is_not_a_checkpoint(
            self, tmp_path, capsys, text):
        path = tmp_path / "stage_00.json"
        path.write_text(text)
        rc = main(["condense-inspect", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("csvgd condense-inspect: ")
        assert str(path) in err

    @pytest.mark.parametrize("every", [0, -1])
    def test_metrics_every_below_one_exits_1(self, tmp_path, capsys, every):
        cfg = small_hyper_config(tmp_path)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        doc = json.loads(path.read_text())
        doc["metrics_every"] = every
        path.write_text(json.dumps(doc))
        rc = main(["hyperelastic", "--config", str(path)])
        assert rc == 1
        assert "metrics_every" in capsys.readouterr().err
        assert not (tmp_path / "hyp").exists()

    def test_a_layer_dead_in_every_particle_exits_1_by_name(self, tmp_path, capsys):
        # a strong prior kills hidden layer 1 in every particle during stage 0;
        # its softplus cannot be composed through, so the run ends there
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"widths": [3, 4, 4, 1], "prior_lambda": 1000,
                                    "schedule": "adaptive", "num_stages": 3,
                                    "max_iters": 100}))
        with pytest.raises(CondenseError, match="^hidden layer 1 died in every particle") as err:
            cmd_hyperelastic(dataclasses.replace(load_config(path),
                                                 out_dir=str(tmp_path / "lib")))
        out = tmp_path / "cli"
        rc = main(["hyperelastic", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"csvgd hyperelastic: {err.value}\n"
        for run in (tmp_path / "lib", out):
            assert (run / "config.json").exists()
            assert not (run / "summary.json").exists()
            assert not list(run.glob("checkpoints/*"))

    @pytest.mark.parametrize("field, flags", [
        ("n_particles", ["--particles", "0"]),
        ("n_particles", ["--particles", "-3"]),
        ("max_iters", ["--iters", "-1"]),
        ("num_stages", ["--stages", "-1"])])
    def test_impossible_flag_values_name_their_field(self, tmp_path, capsys, field, flags):
        # --particles 0 used to fail in the score with numpy's "need at least
        # one array to concatenate"; --iters -1 ran stages of no iterations
        rc = main(["hyperelastic", "--out", str(tmp_path / "hyp")] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("csvgd hyperelastic: ") and field in err

    @pytest.mark.parametrize("field, value", [("w1_ref_samples", 0),
                                              ("polish_iters", -1)])
    def test_impossible_config_values_name_their_field(self, tmp_path, capsys,
                                                       field, value):
        # w1_ref_samples 0 used to fail after one iteration with
        # "incompatible pushforward shapes"; polish_iters -1 skipped the polish
        cfg = small_hyper_config(tmp_path, schedule="adaptive")
        path = tmp_path / "c.json"
        save_config(cfg, path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        rc = main(["hyperelastic", "--config", str(path)])
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "hyp" / "metrics.csv").exists()

    def test_nan_lambda_flag_exits_1(self, tmp_path, capsys):
        # it used to run with no prior and exit 0: lam > 0 is false for NaN
        out = tmp_path / "run"
        rc = main(["mvn", "--out", str(out), "--lambda", "nan"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("csvgd mvn: ") and "prior_lambda" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, field", [
        ("hyperelastic", ["--iters", "-1"], "max_iters"),
        ("hyperelastic", ["--noise", "-1"], "noise"),
        ("mvn", ["--iters", "-1"], "max_iters"),
        ("mvn", ["--gamma", "-1"], "gamma")])
    def test_rejected_config_writes_nothing(self, tmp_path, capsys, command, flags,
                                            field):
        # README.txt and config.json used to be written before the engine
        # config was built, leaving the directory of a run that never started
        out = tmp_path / "run"
        rc = main([command, "--out", str(out)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"csvgd {command}: ") and field in err
        assert not out.exists()

    def test_rejected_sweep_cell_writes_nothing(self, tmp_path, capsys):
        # a bad gamma used to fail at its own cell, after the cells before it
        # had been computed and written
        cfg = RunConfig(experiment="sweep", seed=5, out_dir=str(tmp_path / "sw"),
                        n_particles=8, max_iters=20, bandwidth_rule="fixed",
                        sweep_lambdas=(0.1, 1.0), sweep_gammas=(0.5, -1.0))
        path = tmp_path / "c.json"
        save_config(cfg, path)
        rc = main(["sweep", "--config", str(path)])
        assert rc == 1
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_command_recorded_in_readme(self, tmp_path):
        out = tmp_path / "rr"
        main(["mvn", "--out", str(out), "--iters", "30", "--particles", "8",
              "--bandwidth-rule", "fixed"])
        assert "csvgd mvn" in (out / "README.txt").read_text()
