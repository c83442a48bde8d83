"""Experiment orchestration and artifact persistence.

Each command owns one output directory and emits deterministic artifacts:
a config snapshot, metrics.csv with one row per logged iteration, stage
checkpoints, and a summary.json.  Graph dumps are derived from a checkpoint
on demand by ``cmd_condense_inspect``.  Re-running with the same seed
overwrites byte-identical files (no timestamps anywhere).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import condense as gc
from . import network
from .engine import (Ensemble, SvgdConfig, active_param_count,
                     init_net_ensemble, init_vector_ensemble, load_checkpoint,
                     median_distance, run_csvgd)
from .files import write_csv_atomically, write_text_atomically
from .kernels import KernelSpec
from .likelihoods import MvnTarget, RegressionTarget
from .mechanics import (HyperelasticData, TruthParams, generate_data, icnn_template,
                        potential_stress, save_dataset, strain_features)
from .metrics import (GaussianSummary, PushforwardReference, bhattacharyya,
                      moving_average, pushforward_w1, sparsity_l1)
from .priors import PriorSpec

__all__ = [
    "RunConfig",
    "default_config",
    "load_config",
    "save_config",
    "cmd_mvn",
    "cmd_hyperelastic",
    "cmd_sweep",
    "cmd_condense_inspect",
    "hyperelastic_setup",
    "hyperelastic_noise_var",
    "mvn_ensemble_error",
    "MVN_MEAN",
    "MVN_PRECISION",
]

# the 3-D illustration target: a weakly identified third coordinate
MVN_MEAN = np.array([1.0, 2.0, 3.0])
MVN_PRECISION = np.array([[2.0, 1.0, 0.0],
                          [1.0, 2.0, 0.0],
                          [0.0, 0.0, 0.0025]])

# Values per per-link array of a test-path block of `mechanics.potential_stress`.  Over
# the 1001 path points a `network.PASS_ELEMENTS` block of a 3-30-30-1 net holds
# 2 particles, whose 480 KB arrays made the N=10 prediction peak at 3.30 MiB
# traced, above the 1.71 MiB of the score over 80 training rows; the first
# logged iteration then grew the heap by about 1.6 MB that the run never
# reused.  Half the budget gives one particle a block at widths 17-30 (1.91
# MiB) and 2-8 at the narrow widths of later stages.  One particle a block at
# every width saves the same memory but is slower on condensed nets, where
# per-call overhead dominates: an N=64 prediction took 32.9 against 28.3 ms
# at 3-8-8-1 and 22.2 against 15.8 ms at 3-4-4-1 (one BLAS thread).
TEST_PATH_ELEMENTS = network.PASS_ELEMENTS // 2

METRICS_COLUMNS = ("iteration", "stage", "lambda", "mse", "w1_sum",
                   "bhattacharyya", "active_params", "median_pairwise_distance")


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# annotation of a RunConfig field -> (test of a value, what the test asks for)
_FIELD_KINDS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_integer, "an integer"),
    "int | None": (lambda v: v is None or _is_integer(v), "an integer or null"),
    "float": (_is_number, "a number"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
              "a list of numbers"),
}


@dataclass
class RunConfig:
    """Complete experiment description; serializes losslessly to JSON."""

    experiment: str = "mvn"
    seed: int = 0
    out_dir: str = "runs/mvn"
    n_particles: int = 128
    # prior and kernel
    alpha: float = 1.0
    prior_lambda: float = 0.1
    beta: int = 2
    gamma: float = 1.0
    bandwidth_rule: str = "median"
    # engine
    step_size: float = 1e-2
    max_iters: int = 1500
    num_stages: int = 1
    schedule: str = "fixed"
    lambda_growth: float = 2.0
    mse_band: float = 0.1
    adagrad: bool = False
    tol: float = 1e-4
    axis_mask_threshold: float = 1e-2
    prior_dead_zone: float = 1e-3
    prune_epsilon: float = 1e-3
    condense: bool = True
    polish_iters: int | None = None
    metrics_every: int = 25
    # mvn
    init_scale: float = 1.0
    lambda_grid: tuple = ()
    # hyperelastic
    widths: tuple = (3, 30, 30, 1)
    n_train: int = 80
    n_test: int = 1001
    train_delta: float = 0.2
    test_range: float = 0.4
    noise: float = 0.1
    noise_floor: float = 0.05
    w1_ref_samples: int = 100
    # sweep
    sweep_lambdas: tuple = ()
    sweep_gammas: tuple = ()
    sweep_alphas: tuple = ()
    sweep_betas: tuple = ()

    _TUPLE_FIELDS = ("lambda_grid", "widths", "sweep_lambdas", "sweep_gammas",
                     "sweep_alphas", "sweep_betas")

    def __post_init__(self):
        self.validate()
        for name in self._TUPLE_FIELDS:
            setattr(self, name, tuple(getattr(self, name)))

    def validate(self) -> None:
        """Check the fields; ValueError naming the first bad one.  Runs on
        construction, and again in every command before it writes a file,
        since fields may be assigned after construction."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, what = _FIELD_KINDS[f.type]
            if not kind(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        for name in ("n_particles", "metrics_every", "w1_ref_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("noise", "noise_floor"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not all(_is_integer(w) and w >= 1 for w in self.widths):
            raise ValueError(f"widths must be integers >= 1, got {self.widths!r}")
        if self.experiment == "hyperelastic" and (
                len(self.widths) < 2 or self.widths[0] != 3 or self.widths[-1] != 1):
            raise ValueError(f"widths must start at 3 (the strain invariants) and end "
                             f"at 1 (the potential) in a hyperelastic run, got "
                             f"{list(self.widths)!r}")
        if not all(_is_integer(b) and b in (1, 2) for b in self.sweep_betas):
            raise ValueError(f"sweep_betas must be the integers 1 or 2, "
                             f"got {self.sweep_betas!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if f.type == "tuple" else (value,)
            if f.type in ("float", "tuple") and any(v != v for v in values):
                raise ValueError(f"{f.name} must not be NaN, got {value!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for name in self._TUPLE_FIELDS:
            d[name] = list(d[name])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def default_config(experiment: str) -> RunConfig:
    """Desk-scale defaults per experiment."""
    if experiment == "mvn":
        return RunConfig(experiment="mvn", out_dir="runs/mvn")
    if experiment == "hyperelastic":
        return RunConfig(
            experiment="hyperelastic", out_dir="runs/hyperelastic",
            n_particles=10, alpha=0.5, prior_lambda=0.05, beta=2,
            bandwidth_rule="median", step_size=2e-2, adagrad=True,
            max_iters=500, num_stages=8, metrics_every=50)
    if experiment == "sweep":
        return RunConfig(
            experiment="sweep", out_dir="runs/sweep", bandwidth_rule="fixed",
            n_particles=64, max_iters=800,
            sweep_lambdas=(0.01, 0.1, 1.0), sweep_gammas=(0.1, 1.0, 10.0))
    raise ValueError(f"unknown experiment {experiment!r}")


def save_config(cfg: RunConfig, path) -> None:
    write_text_atomically(path, json.dumps(cfg.to_dict(), indent=1))


def load_config(path) -> RunConfig:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a config file: its JSON is not an object")
    return RunConfig.from_dict(doc)


def _engine_config(cfg: RunConfig, lam: float | None = None,
                   gamma: float | None = None, bandwidth_rule: str | None = None
                   ) -> SvgdConfig:
    lam = cfg.prior_lambda if lam is None else lam
    prior = PriorSpec(cfg.alpha, lam) if lam > 0 else None
    kernel = KernelSpec(cfg.beta, cfg.gamma if gamma is None else gamma,
                        cfg.bandwidth_rule if bandwidth_rule is None else bandwidth_rule)
    return SvgdConfig(
        step_size=cfg.step_size, max_iters=cfg.max_iters, kernel=kernel,
        prior=prior, tol=cfg.tol, axis_mask_threshold=cfg.axis_mask_threshold,
        prior_dead_zone=cfg.prior_dead_zone, adagrad=cfg.adagrad,
        schedule=cfg.schedule, lambda_growth=cfg.lambda_growth,
        mse_band=cfg.mse_band, num_stages=cfg.num_stages,
        prune_epsilon=cfg.prune_epsilon, condense_enabled=cfg.condense,
        polish_iters=cfg.polish_iters)


# ---------------------------------------------------------------------------
# small artifact helpers

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, rows) -> None:
    write_csv_atomically(path, itertools.chain(
        [header], ([_fmt(v) for v in row] for row in rows)))


def _write_json(path, doc) -> None:
    write_text_atomically(path, json.dumps(doc, indent=1))


def _run_stub(out_dir, cfg: RunConfig, command_line: str | None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.json")
    lines = [f"{cfg.experiment} run (seed {cfg.seed})"]
    if command_line:
        lines.append(f"command: {command_line}")
    lines.append("config snapshot: config.json")
    write_text_atomically(out / "README.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# MVN experiment

def _mvn_moments(dims=None) -> GaussianSummary:
    cov = np.linalg.inv(MVN_PRECISION)
    if dims is None:
        return GaussianSummary(MVN_MEAN, cov)
    dims = list(dims)
    return GaussianSummary(MVN_MEAN[dims], cov[np.ix_(dims, dims)])


def mvn_ensemble_error(particles, dims=None) -> float:
    """Bhattacharyya distance of the particle cloud to the target moments.

    NaN for a single particle (no sample covariance).
    """
    P = np.asarray(particles, dtype=float)
    if len(P) < 2:
        return float("nan")
    if dims is not None:
        P = P[:, list(dims)]
    return bhattacharyya(GaussianSummary.from_samples(P), _mvn_moments(dims))


def _run_mvn_once(cfg: RunConfig, lam: float, econf: SvgdConfig,
                  out_dir: Path | None):
    target = MvnTarget(MVN_MEAN, MVN_PRECISION)
    ensemble = init_vector_ensemble(MVN_MEAN.size, cfg.n_particles, cfg.seed,
                                    cfg.init_scale)
    rows, sparsity_rows = [], []

    def on_iteration(ens, info):
        if (ens.iteration - 1) % cfg.metrics_every:
            return
        bh = mvn_ensemble_error(ens.particles)
        rows.append((ens.iteration, ens.stage, info["lam"], info["mse"], None, bh,
                     active_param_count(ens, econf.prune_epsilon),
                     info["median_distance"]))
        sparsity_rows.append((ens.iteration, ens.stage, info["lam"],
                              sparsity_l1(ens.particles, [2])))

    def on_stage(s, ens, rep):
        if out_dir is not None:
            name = "polish" if s < 0 else f"{s:02d}"
            _write_csv(out_dir / f"particles_stage_{name}.csv",
                       [f"theta{i+1}" for i in range(ens.particles.shape[1])],
                       ens.particles)

    ensemble, report = run_csvgd(ensemble, target, econf,
                                 on_iteration=on_iteration, on_stage=on_stage)
    summary = {
        "lambda": lam,
        "bhattacharyya": mvn_ensemble_error(ensemble.particles),
        "bhattacharyya_theta12": mvn_ensemble_error(ensemble.particles, dims=(0, 1)),
        "sparsity_theta3": sparsity_l1(ensemble.particles, [2]),
        "mean": ensemble.particles.mean(axis=0).tolist(),
        "iterations": report.total_iterations,
    }
    if out_dir is not None:
        _write_csv(out_dir / "metrics.csv", METRICS_COLUMNS, rows)
        _write_csv(out_dir / "sparsity.csv",
                   ("iteration", "stage", "lambda", "sparsity_theta3"),
                   sparsity_rows)
        _write_csv(out_dir / "particles_final.csv",
                   [f"theta{i+1}" for i in range(ensemble.particles.shape[1])],
                   ensemble.particles)
        _write_json(out_dir / "summary.json", summary)
    return ensemble, report, summary


def cmd_mvn(cfg: RunConfig, command_line: str | None = None) -> int:
    """Stein flow on the 3-D MVN illustration target; optional lambda grid."""
    cfg.validate()
    out = Path(cfg.out_dir)
    lambdas = cfg.lambda_grid or (cfg.prior_lambda,)
    econfs = [_engine_config(cfg, lam=lam) for lam in lambdas]
    _run_stub(out, cfg, command_line)
    summaries = []
    for lam, econf in zip(lambdas, econfs):
        sub = out if len(lambdas) == 1 else out / f"lam_{lam:g}"
        sub.mkdir(parents=True, exist_ok=True)
        _, _, summary = _run_mvn_once(cfg, lam, econf, sub)
        summaries.append(summary)
        print(f"mvn lambda={lam:g}: bhattacharyya={summary['bhattacharyya']:.6g} "
              f"sparsity_theta3={summary['sparsity_theta3']:.6g}")
    if len(summaries) > 1:
        _write_csv(out / "lambda_compare.csv",
                   ("lambda", "bhattacharyya", "sparsity_theta3"),
                   [(s["lambda"], s["bhattacharyya"], s["sparsity_theta3"])
                    for s in summaries])
    return 0


# ---------------------------------------------------------------------------
# hyperelastic experiment

def _w1_reference(data: HyperelasticData, noise: float, n_replicas: int,
                  seed: int) -> np.ndarray:
    """Noisy replicas of the truth pushforward on the test path, (points, 6, r),
    sorted along the replica axis as a ``PushforwardReference`` holds them.

    The replicas S * (1 + noise * eta) are formed in the draws' own array,
    by the same products and sum with the same bits, so the function holds
    two reference-sized arrays at most: the draws and the sorted copy.  The
    draws (4.8 MB for 100 replicas of 1001 points) are freed on return, and
    that free of an mmapped chunk is what raises glibc's dynamic mmap
    threshold above the 512 KiB pass and W1 arrays of the run, so they come
    from the heap and are reused from call to call (ROADMAP, setup
    transients).
    """
    rng = np.random.default_rng(seed)
    S = data.test.outputs                       # (points, 6), noiseless
    eta = rng.standard_normal((n_replicas,) + S.shape)
    eta *= noise
    eta += 1.0
    eta *= S
    return np.sort(np.transpose(eta, (1, 2, 0)), axis=-1)


def _test_path_samples(ensemble: Ensemble, features) -> np.ndarray:
    """Stress pushforward on the test path, (points, 6, n_particles), from the
    path's ``strain_features``, sorted along the particle axis as
    ``pushforward_w1`` takes it.  Each block of ``mechanics.potential_stress``
    is written into the one cloud, which is sorted in place.

    The blocks keep each per-link array within ``TEST_PATH_ELEMENTS``, half
    the score's budget, so that a logged prediction over the path's many
    rows stays within the score's working set (see the constant)."""
    P = ensemble.particles
    cloud = np.empty((len(features[0]), 6, len(P)))
    for block, pred, _ in potential_stress(ensemble.template, P, features,
                                           TEST_PATH_ELEMENTS):
        cloud[..., block] = np.moveaxis(pred, 0, -1)
    cloud.sort(axis=-1)
    return cloud


def hyperelastic_noise_var(cfg: RunConfig, train_outputs) -> float:
    """Likelihood variance tied to the data scale and size.

    (max(noise, floor) * RMS(outputs))^2 * n_components, so the misfit enters
    the log posterior as a per-component mean; with the raw component sum the
    sparsifying penalty would have to scale with the dataset size.
    """
    outputs = np.asarray(train_outputs)
    rms = float(np.sqrt(np.mean(outputs ** 2)))
    return (max(cfg.noise, cfg.noise_floor) * rms) ** 2 * outputs.size


def hyperelastic_setup(cfg: RunConfig):
    """Data, target, initial ensemble, W1 reference (a
    ``PushforwardReference``, checked once here), test-path features, and
    engine config.

    Sub-seeds are derived from cfg.seed: data uses seed, initialization
    seed+1, reference noise replicas seed+2.
    """
    data = generate_data(TruthParams(), n_train=cfg.n_train, delta=cfg.train_delta,
                         noise_level=cfg.noise, seed=cfg.seed, n_test=cfg.n_test,
                         test_range=cfg.test_range)
    target = RegressionTarget(data.train, hyperelastic_noise_var(cfg, data.train.outputs))
    template = icnn_template(cfg.widths)
    ensemble = init_net_ensemble(template, cfg.n_particles, cfg.seed + 1)
    ref = PushforwardReference(_w1_reference(data, cfg.noise, cfg.w1_ref_samples,
                                             cfg.seed + 2))
    features = strain_features(data.test.inputs)
    return data, target, ensemble, ref, features, _engine_config(cfg)


def cmd_hyperelastic(cfg: RunConfig, command_line: str | None = None) -> int:
    """Train the convex-potential ensemble on generated stress-strain data."""
    cfg.validate()
    out = Path(cfg.out_dir)
    data, target, ensemble, ref, features, econf = hyperelastic_setup(cfg)
    _run_stub(out, cfg, command_line)
    save_dataset(data.train, out / "data_train.csv")
    save_dataset(data.test, out / "data_test.csv")
    rows = []

    def on_iteration(ens, info):
        if (ens.iteration - 1) % cfg.metrics_every:
            return
        _, w1 = pushforward_w1(_test_path_samples(ens, features), ref)
        rows.append((ens.iteration, ens.stage, info["lam"], info["mse"], w1, None,
                     active_param_count(ens, econf.prune_epsilon),
                     info["median_distance"]))

    ensemble, report = run_csvgd(ensemble, target, econf,
                                 checkpoint_dir=out / "checkpoints",
                                 on_iteration=on_iteration)

    per_point, w1_total = pushforward_w1(_test_path_samples(ensemble, features), ref)
    _write_csv(out / "w1_per_point.csv",
               ("delta", "f11", "w1", "w1_ma11"),
               zip(data.test_delta, data.test_f11, per_point,
                   moving_average(per_point, 11)))
    rows.append((ensemble.iteration, ensemble.stage,
                 report.stages[-1].lam if report.stages else cfg.prior_lambda,
                 report.stages[-1].final_mse if report.stages else None,
                 w1_total, None, report.final_active_params, median_distance(ensemble)))
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, rows)
    summary = {
        "w1_sum": w1_total,
        "active_params": report.final_active_params,
        "lambda_trajectory": report.lambda_trajectory,
        "total_iterations": report.total_iterations,
        "stages": [{"stage": r.stage, "lambda": r.lam, "iterations": r.iterations,
                    "mse": r.final_mse, "active_params": r.active_params}
                   for r in report.stages],
    }
    _write_json(out / "summary.json", summary)
    print(f"hyperelastic: w1_sum={w1_total:.6g} "
          f"active_params={report.final_active_params} "
          f"iterations={report.total_iterations}")
    return 0


# ---------------------------------------------------------------------------
# lambda x gamma survey

def cmd_sweep(cfg: RunConfig, command_line: str | None = None) -> int:
    """Cartesian grid over (alpha, beta, lambda, gamma); one CSV row per cell.

    Resumable: existing rows in cells.csv that hold every column are reused,
    and a cell whose row is missing or cut short is computed.  The file is
    rewritten whole, in grid order, after every computed cell and at the end,
    each time through a temporary file, so an interrupted write never leaves
    a partial row behind.  Every cell's engine config is built first, so a rejected
    cell writes nothing.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    cells = []
    for alpha, beta, lam, gamma in itertools.product(
            cfg.sweep_alphas or (cfg.alpha,), cfg.sweep_betas or (cfg.beta,),
            cfg.sweep_lambdas or (cfg.prior_lambda,), cfg.sweep_gammas or (cfg.gamma,)):
        cell_cfg = dataclasses.replace(cfg, alpha=alpha, beta=beta)
        cells.append((tuple(_fmt(v) for v in (alpha, beta, lam, gamma)), cell_cfg, lam,
                      _engine_config(cell_cfg, lam=lam, gamma=gamma,
                                     bandwidth_rule="fixed")))
    _run_stub(out, cfg, command_line)
    path = out / "cells.csv"
    header = ("alpha", "beta", "lambda", "gamma", "bhattacharyya", "sparsity_theta3")
    done = {}
    if path.exists():
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                if len(row) == len(header):
                    done[tuple(row[:4])] = row
    rows = []
    for key, cell_cfg, lam, econf in cells:
        if key in done:
            rows.append(done[key])
            continue
        _, _, s = _run_mvn_once(cell_cfg, lam, econf, None)
        rows.append(key + (_fmt(s["bhattacharyya"]), _fmt(s["sparsity_theta3"])))
        _write_csv(path, header, rows)
    _write_csv(path, header, rows)
    print(f"sweep: {len(rows)} cells -> {path}")
    return 0


# ---------------------------------------------------------------------------
# checkpoint inspection

def cmd_condense_inspect(checkpoint_path, out_dir) -> int:
    """Emit the ensemble distance matrix, per-layer weight samples, and one
    graph dump per particle (dead nodes deactivated) from any stage checkpoint."""
    state = load_checkpoint(checkpoint_path)
    ens = state.ensemble
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    D = gc.distance_matrix(ens.particles)
    _write_csv(out / "distance_matrix.csv",
               [f"p{a}" for a in range(len(D))], D)
    if ens.template is not None:
        for k, w in enumerate(ens.template.layout.unflatten(ens.particles)):
            # rows in (particle, row, col) order
            a, i, j = (x.ravel().tolist() for x in np.indices(w.shape))
            _write_csv(out / f"weights_layer{k}.csv",
                       ("layer", "row", "col", "particle", "value"),
                       zip(itertools.repeat(k), i, j, a, w.ravel().tolist()))
        gdir = out / "graphs"
        gdir.mkdir(exist_ok=True)
        gc.dump_graph(gc.prune(gc.NetGraph.from_net(ens.template, ens.particles), 0.0),
                      [gdir / f"particle_{a:02d}.txt" for a in range(ens.n_particles)])
    print(f"condense-inspect: {len(D)} particles -> {out}")
    return 0
