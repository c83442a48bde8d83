"""Stein variational gradient descent driver with staged graph condensation.

One iteration moves every particle along

    g_a = (1/N) sum_b [ kappa(t_b, t_a) (score_lik(t_b) + score_prior(t_b))
                        + grad_{t_b} kappa(t_b, t_a) ]

with the repulsion term masked per coordinate when both particles sit inside
the axis band.  Stages alternate the inner descent loop with graph
condensation and an optional adaptive penalty schedule; everything is
deterministic under a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from . import condense as gc
from .errors import CheckpointError, NonFiniteGradientError, ShapeError
from .files import json_pieces, write_text_atomically
from .kernels import (KernelSpec, median_bandwidth, median_pair_distance,
                      pairwise_square_sums, stein_direction)
from .network import LayeredNet, net_from_dict, net_to_dict
from .priors import PriorSpec, prior_score

__all__ = [
    "Ensemble",
    "SvgdConfig",
    "StageReport",
    "RunReport",
    "init_vector_ensemble",
    "init_net_ensemble",
    "stein_gradient",
    "svgd_step",
    "run_stage",
    "run_csvgd",
    "condense_ensemble",
    "active_param_count",
    "median_distance",
    "save_checkpoint",
    "load_checkpoint",
    "resume_csvgd",
]

CHECKPOINT_FORMAT_TAG = "csvgd-checkpoint-v1"


@dataclass
class Ensemble:
    """Particle stack sharing one layout, plus iteration bookkeeping.

    ``particles`` is the (N, D) stack, one flat row per particle; this is the
    engine's one check of it.  ``template`` is the common network graph (None
    for raw-vector targets such as the MVN demo, where no condensation
    applies).  The engine is the single logical writer during a run.
    """

    particles: np.ndarray
    template: LayeredNet | None
    rng: np.random.Generator
    iteration: int = 0
    stage: int = 0

    def __post_init__(self):
        P = np.asarray(self.particles, dtype=float)
        if P.ndim != 2:
            raise ShapeError(f"particles shape {P.shape} is not a particle stack (N, D)")
        if self.template is not None and P.shape[1] != self.template.layout.size:
            raise ShapeError(f"particle dim {P.shape[1]} does not match template "
                             f"layout size {self.template.layout.size}")
        self.particles = P

    @property
    def n_particles(self) -> int:
        return len(self.particles)


@dataclass
class SvgdConfig:
    """Engine hyperparameters; see the staged loop for schedule semantics."""

    step_size: float
    max_iters: int
    kernel: KernelSpec
    prior: PriorSpec | None = None
    tol: float = 1e-4
    tol_window: int = 50
    grad_norm_tol: float = 1e-8
    axis_mask_threshold: float = 1e-2
    prior_dead_zone: float = 1e-3
    adagrad: bool = False
    adagrad_offset: float = 1e-8
    schedule: str = "fixed"            # "fixed" | "adaptive"
    lambda_growth: float = 2.0
    mse_band: float = 0.1
    num_stages: int = 1
    prune_epsilon: float = 1e-3
    condense_enabled: bool = True
    polish_iters: int | None = None    # None -> max_iters (adaptive schedule only)

    def __post_init__(self):
        # the negated comparisons also reject NaN
        if not self.step_size > 0:
            raise ShapeError(f"step_size must be > 0, got {self.step_size!r}")
        if not (self.axis_mask_threshold >= 0 and self.prior_dead_zone >= 0):
            raise ShapeError("thresholds must be >= 0, got "
                             f"{self.axis_mask_threshold!r} and {self.prior_dead_zone!r}")
        if not self.prune_epsilon >= 0:
            raise ShapeError(f"prune_epsilon must be >= 0, got {self.prune_epsilon!r}")
        if self.schedule not in ("fixed", "adaptive"):
            raise ShapeError(f"unknown schedule {self.schedule!r}")
        for name in ("max_iters", "num_stages", "polish_iters"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ShapeError(f"{name} must be >= 0, got {value!r}")


@dataclass
class StageReport:
    stage: int
    lam: float
    iterations: int
    final_mse: float
    active_params: int
    converged: bool
    mse_trace: list[float] = field(default_factory=list)
    median_distance_trace: list[float] = field(default_factory=list)


@dataclass
class RunReport:
    stages: list[StageReport]
    lambda_trajectory: list[float]
    total_iterations: int
    final_active_params: int


def init_vector_ensemble(dim: int, n_particles: int, seed: int,
                         scale: float = 1.0) -> Ensemble:
    """Raw-vector particles drawn i.i.d. N(0, scale^2)."""
    rng = np.random.default_rng(seed)
    return Ensemble(rng.normal(0.0, scale, size=(n_particles, dim)), None, rng)


def init_net_ensemble(template: LayeredNet, n_particles: int, seed: int) -> Ensemble:
    """Network particles with per-matrix uniform fan-in/out initialization.

    Each matrix draws from U[-r, r] with r = sqrt(6/(fan_in + fan_out));
    nonnegativity-constrained matrices draw from [0, r].
    """
    rng = np.random.default_rng(seed)
    particles = np.empty((n_particles, template.layout.size))
    for a in range(n_particles):
        parts = []
        for w, nonneg in zip(template.weights, template.nonneg_mask):
            rows, cols = w.shape
            r = np.sqrt(6.0 / (rows + cols))
            lo = 0.0 if nonneg else -r
            parts.append(rng.uniform(lo, r, size=w.size))
        particles[a] = np.concatenate(parts)
    return Ensemble(particles, template, rng)


def _distance_pass(ensemble: Ensemble, out: np.ndarray | None = None
                   ) -> tuple[float, np.ndarray]:
    """The median pairwise particle distance (NaN without pairs) and the
    pairwise squared distances (the beta=2 kernel's, written into ``out``
    when given), from one pass over the particle rows."""
    pairs, all_sq = pairwise_square_sums(ensemble.particles, out=out)
    return median_pair_distance(pairs), all_sq


def median_distance(ensemble: Ensemble) -> float:
    """Median pairwise particle distance (for nets, of the graph metric
    ``condense.distance_matrix``); NaN without pairs."""
    return _distance_pass(ensemble)[0]


def _resolve_gamma(config: SvgdConfig, ensemble: Ensemble, median: float) -> float:
    if config.kernel.bandwidth_rule == "median":
        return median_bandwidth(median, ensemble.n_particles)
    return config.kernel.gamma


def stein_gradient(ensemble: Ensemble, scores, config: SvgdConfig,
                   gamma: float | None = None,
                   prior: PriorSpec | None = None,
                   sq_dists: np.ndarray | None = None) -> np.ndarray:
    """Per-particle update directions, shape (n_particles, dim).

    ``scores`` are the likelihood scores, one row per particle; the prior
    score (with its dead zone) is added here, and the kernel repulsion is
    zeroed per coordinate whenever both particles lie inside the axis band.
    ``sq_dists`` are the pairwise squared particle distances, which
    ``run_stage`` takes from the pass that gives it the median; the
    pass runs here when the median is needed (no ``gamma``) or the beta=2
    kernel is (no ``sq_dists``).  beta=2 overwrites ``sq_dists`` with its
    kernel matrix.
    """
    P = ensemble.particles
    S = np.asarray(scores, dtype=float)
    if S.shape != P.shape:
        raise ShapeError(f"scores shape {S.shape} does not match particles {P.shape}")
    if prior is None:
        prior = config.prior
    if prior is not None:
        S = S + prior_score(prior, P, config.prior_dead_zone)
    if gamma is None or (sq_dists is None and config.kernel.beta == 2):
        median, sq_dists = _distance_pass(ensemble)
        if gamma is None:
            gamma = _resolve_gamma(config, ensemble, median)
    near = np.abs(P) < config.axis_mask_threshold
    return stein_direction(config.kernel, P, S, gamma, near, sq_dists)


def svgd_step(ensemble: Ensemble, gradients, config: SvgdConfig,
              opt_state: np.ndarray | None = None) -> Ensemble:
    """Apply t_a <- t_a + eps g_a, project nonneg coordinates, bump the counter.

    With ``config.adagrad`` the step is scaled per coordinate by the
    accumulated squared gradient held in ``opt_state`` (mutated in place).
    Aborts on non-finite gradients, naming the offending entry.
    """
    g = np.asarray(gradients, dtype=float)
    if g.shape != ensemble.particles.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match particles")
    if not np.isfinite(g).all():
        a, j = np.argwhere(~np.isfinite(g))[0]
        raise NonFiniteGradientError(
            f"non-finite gradient at iteration {ensemble.iteration}: "
            f"particle {a}, coordinate {j}")
    # the step and the new particles, each operation in place in one new array
    P = np.multiply(config.step_size, g)
    if config.adagrad:
        if opt_state is None:
            raise ShapeError("adagrad enabled but no opt_state provided")
        opt_state += g * g
        denom = np.add(opt_state, config.adagrad_offset)
        np.sqrt(denom, out=denom)
        P /= denom
    P += ensemble.particles
    if ensemble.template is not None:
        np.maximum(P, 0.0, out=P, where=ensemble.template.nonneg_flat_mask())
    return Ensemble(P, ensemble.template, ensemble.rng,
                    ensemble.iteration + 1, ensemble.stage)


def _particle_scores(ensemble: Ensemble, target):
    S, mses = target.score_and_mse_batch(ensemble.template, ensemble.particles)
    return S, float(np.mean(mses))


def active_param_count(ensemble: Ensemble, threshold: float) -> int:
    """Number of coordinates exceeding the threshold in any particle."""
    return int((np.abs(ensemble.particles).max(axis=0) > threshold).sum())


def run_stage(ensemble: Ensemble, target, config: SvgdConfig,
              lam: float | None = None, opt_state: np.ndarray | None = None,
              max_iters: int | None = None, on_iteration=None
              ) -> tuple[Ensemble, StageReport]:
    """Iterate svgd_step until the MSE window stalls, the mean gradient norm
    vanishes, or the iteration budget runs out."""
    prior = config.prior
    if prior is not None and lam is not None and lam != prior.lam:
        prior = replace(prior, lam=lam)
    budget = config.max_iters if max_iters is None else max_iters
    mse_trace: list[float] = []
    med_trace: list[float] = []
    converged = False
    mse = None
    sq_dists = None  # the stage's N x N buffer: each pass, then its kernel
    for _ in range(budget):
        scores, mse = _particle_scores(ensemble, target)
        med, sq_dists = _distance_pass(ensemble, out=sq_dists)
        gamma = _resolve_gamma(config, ensemble, med)
        g = stein_gradient(ensemble, scores, config, gamma=gamma, prior=prior,
                           sq_dists=sq_dists)
        ensemble = svgd_step(ensemble, g, config, opt_state)
        mse_trace.append(mse)
        med_trace.append(med)
        if on_iteration is not None:
            on_iteration(ensemble, {"mse": mse, "median_distance": med,
                                    "lam": prior.lam if prior else 0.0})
        w = config.tol_window
        if len(mse_trace) > w:
            ref = mse_trace[-1 - w]
            if abs(mse_trace[-1] - ref) < config.tol * max(abs(ref), 1e-300):
                converged = True
                break
        if np.mean(np.linalg.norm(g, axis=1)) < config.grad_norm_tol:
            converged = True
            break
    if mse is None:  # zero-iteration stage: still report the current fit
        _, mse = _particle_scores(ensemble, target)
    report = StageReport(
        stage=ensemble.stage,
        lam=prior.lam if prior is not None else 0.0,
        iterations=len(mse_trace),
        final_mse=mse,
        active_params=active_param_count(ensemble, config.prune_epsilon),
        converged=converged,
        mse_trace=mse_trace,
        median_distance_trace=med_trace,
    )
    return ensemble, report


def condense_ensemble(ensemble: Ensemble, epsilon: float) -> tuple[Ensemble, np.ndarray]:
    """Run graph condensation and rebuild the ensemble on the common template.

    Also returns, per particle, the old flat index feeding each new flat
    coordinate (-1 for padding), one (N, D_new) array, so optimizer state can
    be carried across the relayout.  Condensation keeps the layer count, so
    this map exists for every input; a hidden layer that dies in every
    particle raises ``CondenseError`` instead (``condense.condense_graphs``).
    """
    if ensemble.template is None:
        raise ShapeError("condensation requires a network template")
    template = ensemble.template
    graph, widths = gc.condense_graphs(
        gc.NetGraph.from_net(template, ensemble.particles), epsilon)
    new_template = LayeredNet(widths, tuple(np.zeros(w.shape[1:]) for w in graph.weights),
                              graph.nonneg_mask)
    new_ens = Ensemble(new_template.layout.flatten(graph.weights), new_template,
                       ensemble.rng, ensemble.iteration, ensemble.stage)
    return new_ens, _flat_index_map(graph, template.layer_widths)


def _flat_index_map(graph: gc.NetGraph, old_widths: tuple[int, ...]) -> np.ndarray:
    """Per particle, the old flat position of every new flat position; -1
    where padded."""
    maps, off = [], 0
    for k in range(graph.n_layers - 1):
        rows = graph.provenance[k + 1][..., :, None]
        cols = graph.provenance[k][..., None, :]
        m = np.where((rows < 0) | (cols < 0), -1, off + rows * old_widths[k] + cols)
        maps.append(m.reshape(m.shape[:-2] + (-1,)))
        off += old_widths[k + 1] * old_widths[k]
    return np.concatenate(maps, axis=-1)


def _remap_opt_state(opt_state, index_map) -> np.ndarray | None:
    """The AdaGrad accumulator carried into the condensed layout through
    ``condense_ensemble``'s per-coordinate map, which every condensation
    returns: each new coordinate takes its old coordinate's sum, padding
    starts at zero."""
    if opt_state is None:
        return None
    old = np.take_along_axis(opt_state, np.maximum(index_map, 0), axis=1)
    return np.where(index_map >= 0, old, 0.0)


@dataclass
class _RunState:
    ensemble: Ensemble
    config: SvgdConfig
    lam: float
    lam0: float
    best_mse: float
    next_stage: int
    lambda_trajectory: list[float]
    stages: list[StageReport]
    opt_state: np.ndarray | None
    polished: bool = False
    degraded: bool = False


def run_csvgd(ensemble: Ensemble, target, config: SvgdConfig,
              checkpoint_dir=None, on_iteration=None, on_stage=None
              ) -> tuple[Ensemble, RunReport]:
    """Staged loop: descend, condense, adapt the penalty, finally polish.

    Under the adaptive schedule the penalty grows by ``lambda_growth`` after
    every stage whose final MSE stays within ``mse_band`` of the best seen;
    the first stage that degrades beyond the band (or exhausting the stage
    budget) stops the growth, reverts the penalty to its initial value, and
    runs a polishing stage on the frozen condensed graph.  The fixed schedule
    simply runs its stages, condensing between them.
    """
    lam0 = config.prior.lam if config.prior is not None else 0.0
    opt = np.zeros_like(ensemble.particles) if config.adagrad else None
    state = _RunState(ensemble, config, lam0, lam0, float("inf"), 0,
                      [lam0] if config.prior is not None else [], [], opt)
    return _run_from_state(state, target, checkpoint_dir, on_iteration, on_stage)


def _run_from_state(state: _RunState, target, checkpoint_dir=None,
                    on_iteration=None, on_stage=None) -> tuple[Ensemble, RunReport]:
    config = state.config
    ensemble = state.ensemble
    for s in range(state.next_stage, config.num_stages):
        if state.degraded:
            break
        ensemble, report = run_stage(ensemble, target, config, lam=state.lam,
                                     opt_state=state.opt_state,
                                     on_iteration=on_iteration)
        state.stages.append(report)
        if ensemble.template is not None and config.condense_enabled:
            ensemble, index_map = condense_ensemble(ensemble, config.prune_epsilon)
            state.opt_state = _remap_opt_state(state.opt_state, index_map)
        ensemble.stage += 1
        state.ensemble = ensemble
        state.next_stage = s + 1
        if config.schedule == "adaptive" and config.prior is not None:
            if report.final_mse <= (1.0 + config.mse_band) * state.best_mse:
                state.best_mse = min(state.best_mse, report.final_mse)
                if s < config.num_stages - 1:
                    state.lam *= config.lambda_growth
                    state.lambda_trajectory.append(state.lam)
            else:
                state.degraded = True
        if checkpoint_dir is not None:
            save_checkpoint(Path(checkpoint_dir) / f"stage_{s:02d}.json", state)
        if on_stage is not None:
            on_stage(s, ensemble, report)
        if state.degraded:
            break
    if config.schedule == "adaptive" and config.prior is not None and not state.polished:
        state.lam = state.lam0
        state.lambda_trajectory.append(state.lam0)
        state.polished = True
        polish = config.max_iters if config.polish_iters is None else config.polish_iters
        if polish > 0:
            ensemble, report = run_stage(ensemble, target, config, lam=state.lam0,
                                         opt_state=state.opt_state,
                                         max_iters=polish, on_iteration=on_iteration)
            ensemble.stage += 1
            state.ensemble = ensemble
            state.stages.append(report)
            if checkpoint_dir is not None:
                save_checkpoint(Path(checkpoint_dir) / "stage_polish.json", state)
            if on_stage is not None:
                on_stage(-1, ensemble, report)
    report = RunReport(
        stages=state.stages,
        lambda_trajectory=state.lambda_trajectory,
        total_iterations=sum(r.iterations for r in state.stages),
        final_active_params=active_param_count(ensemble, config.prune_epsilon),
    )
    return ensemble, report


# ---------------------------------------------------------------------------
# checkpointing

def _config_to_dict(config: SvgdConfig) -> dict:
    d = asdict(config)
    d["kernel"] = asdict(config.kernel)
    d["prior"] = asdict(config.prior) if config.prior is not None else None
    return d


def _config_from_dict(d: dict) -> SvgdConfig:
    d = dict(d)
    d["kernel"] = KernelSpec(**d["kernel"])
    d["prior"] = PriorSpec(**d["prior"]) if d["prior"] is not None else None
    return SvgdConfig(**d)


def _checkpoint_doc(state: _RunState) -> dict:
    """The v1 checkpoint document, with the particle stack and the AdaGrad
    state left as arrays for ``json_pieces`` to write row by row."""
    ens = state.ensemble
    return {
        "format": CHECKPOINT_FORMAT_TAG,
        "config": _config_to_dict(state.config),
        "lam": state.lam,
        "lam0": state.lam0,
        "best_mse": state.best_mse,
        "next_stage": state.next_stage,
        "polished": state.polished,
        "degraded": state.degraded,
        "lambda_trajectory": state.lambda_trajectory,
        "stages": [asdict(r) for r in state.stages],
        "opt_state": state.opt_state,
        "ensemble": {
            "particles": ens.particles,
            "template": None if ens.template is None else net_to_dict(ens.template),
            "iteration": ens.iteration,
            "stage": ens.stage,
            "rng_state": ens.rng.bit_generator.state,
        },
    }


def save_checkpoint(path, state: _RunState) -> None:
    """Write ``state`` as a v1 checkpoint: the bytes of ``json.dumps`` of the
    document, streamed one particle row at a time."""
    write_text_atomically(path, json_pieces(_checkpoint_doc(state)))


def load_checkpoint(path) -> _RunState:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path} is not a checkpoint: its JSON is not an object")
    if doc.get("format") != CHECKPOINT_FORMAT_TAG:
        raise CheckpointError(f"unknown checkpoint format {doc.get('format')!r}")
    try:
        e = doc["ensemble"]
        rng = np.random.default_rng()
        rng.bit_generator.state = e["rng_state"]
        ensemble = Ensemble(np.asarray(e["particles"], dtype=float),
                            None if e["template"] is None else net_from_dict(e["template"]),
                            rng,
                            e["iteration"], e["stage"])
        config = _config_from_dict(doc["config"])
        opt = doc["opt_state"]
        if opt is not None:
            opt = np.asarray(opt, dtype=float)
            if opt.shape != ensemble.particles.shape:
                raise CheckpointError(
                    f"malformed checkpoint {path}: opt_state has shape {opt.shape}, "
                    f"the particles {ensemble.particles.shape}")
        elif config.adagrad:
            raise CheckpointError(f"malformed checkpoint {path}: adagrad is on "
                                  f"but opt_state is null")
        return _RunState(
            ensemble=ensemble,
            config=config,
            lam=doc["lam"],
            lam0=doc["lam0"],
            best_mse=doc["best_mse"],
            next_stage=doc["next_stage"],
            lambda_trajectory=list(doc["lambda_trajectory"]),
            stages=[StageReport(**r) for r in doc["stages"]],
            opt_state=opt,
            polished=doc.get("polished", False),
            degraded=doc.get("degraded", False),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc!r}") from exc


def resume_csvgd(checkpoint_path, target, on_iteration=None, on_stage=None
                 ) -> tuple[Ensemble, RunReport]:
    """Continue a staged run from a stage-boundary checkpoint, writing its own
    stage checkpoints next to it so that it can in turn be resumed."""
    state = load_checkpoint(checkpoint_path)
    return _run_from_state(state, target, Path(checkpoint_path).parent,
                           on_iteration, on_stage)
