"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest -s tests/test_acceptance.py  to see the lines as they
complete.  The hyperelastic criteria 7-10 live in ``_criteria.py`` and share
its cache of staged runs; ``criteria_seeds.py`` runs them over many seeds.
The full suite takes a few minutes on one core.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from csvgd import network as nw
from csvgd.engine import (SvgdConfig, active_param_count, condense_ensemble,
                          init_net_ensemble, init_vector_ensemble, run_csvgd)
from csvgd.experiments import (MVN_MEAN, MVN_PRECISION, RunConfig,
                               cmd_hyperelastic, cmd_mvn, default_config,
                               mvn_ensemble_error)
from csvgd.kernels import KernelSpec
from csvgd.likelihoods import MvnTarget
from csvgd.mechanics import (TruthParams, icnn_template, potential_stress, strain_features,
                             sym_to_voigt, truth_stress, voigt_to_sym)
from csvgd.metrics import sparsity_l1
from csvgd.priors import PriorSpec, prior_score

from _criteria import criterion_07, criterion_08, criterion_09, criterion_10
from _oracles import (fd_gradient, fd_strain_gradient, log_prior_density, nets_of,
                      pass_grad_params, pass_output, softplus_formula,
                      trapezoid_integral)
from conftest import random_net


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_01_mvn_posterior_recovery():
    """N_r=128, alpha=1, beta=2, lambda=0.1, median-adaptive bandwidth."""
    t0 = time.time()
    target = MvnTarget(MVN_MEAN, MVN_PRECISION)
    cfg = SvgdConfig(step_size=1e-2, max_iters=6000,
                     kernel=KernelSpec(2, 1.0, "median"),
                     prior=PriorSpec(1.0, 0.1), num_stages=1,
                     condense_enabled=False)
    ens = init_vector_ensemble(3, 128, seed=0)
    ens, _ = run_csvgd(ens, target, cfg)
    elapsed = time.time() - t0
    mean12 = ens.particles[:, :2].mean(axis=0)
    mean_err = np.abs(mean12 - MVN_MEAN[:2]).max()
    bh12 = mvn_ensemble_error(ens.particles, dims=(0, 1))
    ok = mean_err < 0.15 and bh12 < 0.1 and elapsed < 120.0
    report(1, ok, f"mean err {mean_err:.3f} < 0.15, marginal bhattacharyya "
                  f"{bh12:.4f} < 0.1, {elapsed:.0f}s < 120s")


def test_criterion_02_sparsification_tradeoff():
    """lambda=1.0 vs 0.1 at fixed gamma: sparser theta3, larger distribution error."""
    target = MvnTarget(MVN_MEAN, MVN_PRECISION)
    results = {}
    for lam in (0.1, 1.0):
        cfg = SvgdConfig(step_size=1e-2, max_iters=4000,
                         kernel=KernelSpec(2, 1.0, "fixed"),
                         prior=PriorSpec(1.0, lam), num_stages=1,
                         condense_enabled=False)
        ens = init_vector_ensemble(3, 64, seed=7)
        ens, _ = run_csvgd(ens, target, cfg)
        results[lam] = (sparsity_l1(ens.particles, [2]),
                        mvn_ensemble_error(ens.particles))
    sparser = results[1.0][0] < results[0.1][0]
    less_accurate = results[1.0][1] > results[0.1][1]
    report(2, sparser and less_accurate,
           f"L1(theta3) {results[1.0][0]:.3f} < {results[0.1][0]:.3f}, "
           f"bhattacharyya {results[1.0][1]:.3f} > {results[0.1][1]:.3f}")


def test_criterion_03_gradient_correctness():
    """Parameter and input gradients of random 3-8-8-1 nets vs central FD."""
    rng = np.random.default_rng(42)
    worst = 0.0
    n_checked = 0
    for _ in range(6):
        net = random_net(rng, (3, 8, 8, 1))
        x = rng.normal(size=3)
        theta = net.layout.flatten(net.weights)
        g = pass_grad_params(nw.forward_pass(net, x[None], theta[None]), np.array([[1.0]]))[0]
        fd = fd_gradient(
            lambda t: float(pass_output(nw.forward_pass(net, x[None], t[None]))[0, 0, 0]), theta)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, rel.max())
        n_checked += theta.size
        gi = nw.forward_pass(net, x[None], theta[None]).grad_input()[0, 0, 0]
        fdi = fd_gradient(
            lambda xv: float(pass_output(nw.forward_pass(net, xv[None], theta[None]))[0, 0, 0]), x)
        rel_i = np.abs(gi - fdi) / np.maximum(np.abs(fdi), 1e-8)
        worst = max(worst, rel_i.max())
        n_checked += x.size
    report(3, n_checked >= 500 and worst < 1e-5,
           f"{n_checked} coordinates, worst rel err {worst:.2e} < 1e-5")


def test_criterion_04_prior_normalization_and_gaussian_limit():
    spec = PriorSpec(2.0, 1.0)

    def density(x):
        return np.exp([log_prior_density(spec, np.array([v])) for v in x])

    integral = trapezoid_integral(density, -10.0, 10.0)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=200)
    score_gap = np.abs(prior_score(spec, theta) + theta).max()
    ok = abs(integral - 1.0) < 1e-6 and score_gap < 1e-12
    report(4, ok, f"quadrature |{integral:.9f} - 1| < 1e-6, "
                  f"score vs -theta gap {score_gap:.2e} < 1e-12")


def test_criterion_05_condensation_correctness():
    rng = np.random.default_rng(5)
    template = icnn_template((3, 12, 12, 1))
    ens = init_net_ensemble(template, 6, seed=13)
    ens.particles[rng.random(ens.particles.shape) < 0.4] *= 1e-5
    X = rng.uniform(-1.0, 1.0, size=(100, 3))
    before = pass_output(nw.forward_pass(ens.template, X, ens.particles))

    exact, _ = condense_ensemble(ens, 0.0)
    preserved = max(np.max(np.abs(b - a)) for b, a in
                    zip(before, pass_output(nw.forward_pass(exact.template, X, exact.particles))))

    once, _ = condense_ensemble(ens, 1e-3)
    twice, _ = condense_ensemble(once, 1e-3)
    idempotent = (once.particles.tolist() == twice.particles.tolist()
                  and once.template.layer_widths == twice.template.layer_widths)
    monotone = active_param_count(once, 1e-3) <= active_param_count(ens, 1e-3)

    # computed fan-in bound on the pruning perturbation
    from csvgd import condense as gc
    within_bound = True
    after = pass_output(nw.forward_pass(once.template, X, once.particles))
    pruned = gc.prune(gc.NetGraph.from_net(ens.template, ens.particles), 1e-3)
    for i, (net, b, a) in enumerate(zip(nets_of(ens), before, after)):
        h, dh = X, np.zeros(X.shape[1])
        for k in range(net.n_links):
            level = np.abs(h).max(axis=0)
            dz = (np.abs(net.weights[k] - pruned.weights[k][i]) @ level
                  + np.abs(pruned.weights[k][i]) @ dh)
            z = h @ net.weights[k].T
            h = z if k == net.n_links - 1 else softplus_formula(z)
            dh = dz
        if np.max(np.abs(b - a)) > dh.max() + 1e-9:
            within_bound = False
    ok = preserved <= 1e-12 and idempotent and monotone and within_bound
    report(5, ok, f"eps=0 output shift {preserved:.1e} <= 1e-12, idempotent "
                  f"{idempotent}, monotone {monotone}, bound respected {within_bound}")


def test_criterion_06_zero_stress_reference_and_truth_consistency():
    from _oracles import (reference_normalized, strain_energy, stress_cycle_integral,
                          truth_potential)

    rng = np.random.default_rng(6)
    at_reference = strain_features(np.zeros((1, 6)))
    worst_s0 = 0.0
    for _ in range(100):
        widths = (3, int(rng.integers(3, 12)), 1)
        net = random_net(rng, widths, nonneg=(False, True))
        S0 = potential_stress(net, net.layout.flatten(net.weights)[None],
                              at_reference)[0][0, 0]
        worst_s0 = max(worst_s0, np.linalg.norm(voigt_to_sym(S0)))

    params = TruthParams()
    energy = strain_energy(reference_normalized(lambda inv: truth_potential(params, inv)))
    worst_fd = 0.0
    for _ in range(100):
        E = 0.05 * rng.normal(size=(3, 3))
        E = 0.5 * (E + E.T)
        S = voigt_to_sym(truth_stress(sym_to_voigt(E)[None], params)[0])
        fd = fd_strain_gradient(energy, E)
        rel = np.abs(S - fd) / np.maximum(np.abs(fd), 1e-8)
        worst_fd = max(worst_fd, rel.max())

    A = 0.04 * np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.1], [0.0, 0.1, 0.2]])
    B = 0.04 * np.array([[0.2, -0.1, 0.4], [-0.1, 0.8, 0.0], [0.4, 0.0, -0.3]])
    net = random_net(rng, (3, 6, 1), nonneg=(False, True))
    theta = net.layout.flatten(net.weights)

    def net_stress(E):
        return potential_stress(net, theta[None], strain_features(E))[0][0]

    cycle = max(abs(stress_cycle_integral(stress, A, B))
                for stress in (lambda E: truth_stress(E, params), net_stress))

    ok = worst_s0 < 1e-8 and worst_fd < 1e-6 and cycle < 1e-6
    report(6, ok, f"max |S(0)| {worst_s0:.1e} < 1e-8 over 100 nets, truth-stress "
                  f"FD rel err {worst_fd:.1e} < 1e-6 over 100 strains, "
                  f"worst cycle integral {cycle:.1e} < 1e-6")


def test_criterion_07_desk_scale_hyperelastic_run():
    """N_r=10, 1020 parameters, alpha=0.5, lambda=0.05, noise 0.1."""
    assert icnn_template((3, 30, 30, 1)).layout.size == 1020
    verdict = criterion_07()
    report(7, verdict.passed, verdict.detail)


def test_criterion_08_alpha_ordering():
    verdict = criterion_08()
    report(8, verdict.passed, verdict.detail)


def test_criterion_09_noise_monotonicity():
    verdict = criterion_09()
    report(9, verdict.passed, verdict.detail)


def test_criterion_10_adaptive_penalty_dominance():
    verdict = criterion_10()
    report(10, verdict.passed, verdict.detail)


def test_criterion_11_determinism(tmp_path):
    cfg = RunConfig(experiment="mvn", seed=17, out_dir=str(tmp_path / "mvn"),
                    n_particles=24, max_iters=200, metrics_every=25,
                    bandwidth_rule="median")
    cmd_mvn(cfg)
    first_mvn = Path(cfg.out_dir, "metrics.csv").read_bytes()
    cmd_mvn(cfg)
    mvn_same = Path(cfg.out_dir, "metrics.csv").read_bytes() == first_mvn

    hyp = default_config("hyperelastic")
    hyp.out_dir = str(tmp_path / "hyp")
    hyp.n_particles = 4
    hyp.max_iters = 50
    hyp.num_stages = 2
    hyp.n_test = 101
    hyp.seed = 23
    cmd_hyperelastic(hyp)
    first_hyp = Path(hyp.out_dir, "metrics.csv").read_bytes()
    cmd_hyperelastic(hyp)
    hyp_same = Path(hyp.out_dir, "metrics.csv").read_bytes() == first_hyp
    report(11, mvn_same and hyp_same,
           f"byte-identical metrics.csv on re-run (mvn {mvn_same}, "
           f"hyperelastic {hyp_same})")
