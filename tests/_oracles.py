"""Independent oracles the tests check the library against.

Everything here is deliberately naive (finite differences, dense-grid
quadrature, straight-line gradient ascent) and shares no code with the
implementations under test, except the per-particle score reference at the
end, which says why.
"""

import numpy as np


def fd_gradient(f, theta, rel_h=1e-6):
    """Central finite differences with h = rel_h * max(1, |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        h = rel_h * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        g[i] = (f(tp) - f(tm)) / (2.0 * h)
    return g


def fd_strain_gradient(f, E, h=1e-6):
    """d f / dE for symmetric E, perturbing (i,j) and (j,i) together.

    A symmetric perturbation changes both components, so the off-diagonal
    directional derivative is S_ij + S_ji = 2 S_ij; halve it to recover S_ij.
    """
    E = np.asarray(E, dtype=float)
    g = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            Ep = E.copy()
            Em = E.copy()
            Ep[i, j] += h
            Em[i, j] -= h
            if i != j:
                Ep[j, i] += h
                Em[j, i] -= h
            d = (f(Ep) - f(Em)) / (2.0 * h)
            g[i, j] = d if i == j else d / 2.0
    return g


def trapezoid_integral(f, lo, hi, n=200_001):
    xs = np.linspace(lo, hi, n)
    return np.trapezoid(f(xs), xs)


def w1_dense_grid(a, b, n_grid=100_000):
    """Wasserstein-1 via midpoint sampling of |CDF_a - CDF_b| on a dense grid."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    lo = min(a[0], b[0])
    hi = max(a[-1], b[-1])
    edges = np.linspace(lo, hi, n_grid + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    fa = np.searchsorted(a, mid, side="right") / a.size
    fb = np.searchsorted(b, mid, side="right") / b.size
    return float(np.sum(np.abs(fa - fb)) * (hi - lo) / n_grid)


def stress_cycle_integral(stress_batch_fn, A, B, n_steps=10_000):
    """Loop integral of S : dE/dt around E(t) = cos(t) A + sin(t) B.

    stress_batch_fn maps Voigt strain rows to Voigt stress rows; the full
    tensor contraction doubles the shear components.
    """
    pairs = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
    weights = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    ts = np.linspace(0.0, 2.0 * np.pi, n_steps, endpoint=False)
    Av = np.array([A[i, j] for i, j in pairs])
    Bv = np.array([B[i, j] for i, j in pairs])
    E = np.cos(ts)[:, None] * Av + np.sin(ts)[:, None] * Bv
    Edot = -np.sin(ts)[:, None] * Av + np.cos(ts)[:, None] * Bv
    S = stress_batch_fn(E)
    power = (S * Edot * weights).sum(axis=1)
    return float(power.sum() * (2.0 * np.pi / n_steps))


def gradient_ascent(score, theta0, step, n_iters):
    """Plain ascent trajectory; the single-particle Stein flow must match it."""
    theta = np.array(theta0, dtype=float)
    path = [theta.copy()]
    for _ in range(n_iters):
        theta = theta + step * score(theta)
        path.append(theta.copy())
    return path


def per_particle_score_and_mse(target, template, particles):
    """The per-particle regression score the batched path replaced.

    Unlike the rest of this module it reuses library pieces: one network per
    particle, rebuilt from its row and evaluated by the single-network passes.
    It is the reference for the particle-stacked evaluation.
    """
    from csvgd import mechanics as mech
    from csvgd import network as nw

    X, Y = target.dataset.inputs, target.dataset.outputs
    scores, mses = [], []
    for theta in np.atleast_2d(particles):
        net = template.with_values(theta)
        if isinstance(target.model, mech.StressRegressionModel):
            inv = mech.invariants_batch(X)
            dI = mech.invariant_derivatives_batch(X)
            ref = np.array([[3.0, 3.0, 1.0]])
            g = nw.grad_input_batch(net, inv)[:, 0, :]
            g_ref = nw.grad_input_batch(net, ref)[0, 0]
            n = 2.0 * g_ref[0] + 4.0 * g_ref[1] + 2.0 * g_ref[2]
            g[:, 2] -= 0.5 * n / np.sqrt(inv[:, 2])
            r = Y - np.einsum("ni,nik->nk", g, dI)
            u = np.einsum("nk,nik->ni", r, dI)
            s = nw.grad_params_dirderiv_batch(net, inv, u, np.ones((len(X), 1)))
            w_ref = float(np.sum(u[:, 2] / (2.0 * np.sqrt(inv[:, 2]))))
            s = s - w_ref * nw.grad_params_dirderiv_batch(
                net, ref[0], np.array([2.0, 4.0, 2.0]), np.array([1.0]))
        else:
            r = Y - nw.forward_batch(net, X)
            s = nw.grad_params_batch(net, X, r)
        scores.append(s / target.noise_var)
        mses.append(float(np.mean(r * r)))
    return np.stack(scores), np.array(mses)


def broadcast_power_sum(P, beta):
    """sum_i |a_i - b_i|^beta over all row pairs via one (N, N, D) broadcast,
    the formula the blocked pairwise passes replaced."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return (np.abs(P[:, None, :] - P[None, :, :]) ** beta).sum(axis=-1)


def broadcast_distance_matrix(P):
    return np.sqrt(np.maximum(broadcast_power_sum(P, 2), 0.0))


def broadcast_kernel_matrix(P, beta, gamma):
    return np.exp(-broadcast_power_sum(P, beta) / (gamma * beta))


def broadcast_stein_direction(P, S, beta, gamma, threshold):
    """The (N, N, D) Stein direction: drive plus the masked repulsion summed
    over an explicit tensor of pairwise differences."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n = len(P)
    diff = P[:, None, :] - P[None, :, :]
    K = np.exp(-(np.abs(diff) ** beta).sum(axis=-1) / (gamma * beta))
    drive = K @ S / n
    if beta == 2:
        rep = diff * K[:, :, None]
    else:
        rep = np.sign(diff) * K[:, :, None]
    if threshold > 0:
        near = np.abs(P) < threshold
        rep = np.where(near[:, None, :] & near[None, :, :], 0.0, rep)
    return drive + rep.sum(axis=1) / (n * gamma)
