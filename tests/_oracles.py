"""Independent oracles the tests check the library against.

Everything here is deliberately naive (finite differences, dense-grid
quadrature, straight-line gradient ascent) and shares no code with the
implementations under test.  The exceptions are the references for rewritten
code paths (the merged-CDF W1, the one-product W1 gap sum, the per-particle and two-call scores, the
network passes before their lean rewrite, the per-node prune, the row-by-row
graph dump, the one-graph-at-a-time condensation and dumps, the einsum pinned
stress, the gathered prior score, the out-of-place step): each keeps the
replaced code as it was and says which library pieces it reuses.  So do the
references that left the library because only tests called them (the
log-densities the scores differentiate, the readers of the files a run
writes, per-network views of a particle stack, W1 of unsorted samples).
"""

import csv

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


def fd_strain_gradient(f, E, h=1e-3):
    """d f / dE for symmetric E by five-point central differences (error
    O(h^4)), perturbing (i,j) and (j,i) together.

    A symmetric perturbation changes both components, so the off-diagonal
    directional derivative is S_ij + S_ji = 2 S_ij; halve it to recover S_ij.
    The pinned stresses have components near zero, where the rounding noise
    of a two-point difference at h = 1e-6 (up to 1e-8: the truth model's
    Gent term multiplies the rounding of log(1 - (I1-3)/J_m) by
    t1 J_m / 2 = 94) reads as a relative error above 1e-6; five points at
    h = 1e-3 keep it near 1e-10.
    """
    E = np.asarray(E, dtype=float)
    g = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            step = np.zeros((3, 3))
            step[i, j] = step[j, i] = h
            d = (8.0 * (f(E + step) - f(E - step))
                 - (f(E + 2.0 * step) - f(E - 2.0 * step))) / (12.0 * h)
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


def w1_merged_cdf_batch(A, B):
    """Row-wise empirical W1 as the integral of |CDF_a - CDF_b|: both
    samples merged by one stable argsort per row, the two CDFs as cumsums of
    counts.  The CDF gap is kept in integer units of 1/(n m) and the integral
    divided by n m once, so a subnormal step does not round to 0."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = A.shape[-1], B.shape[-1]
    v = np.concatenate([A, B], axis=-1)
    order = np.argsort(v, axis=-1, kind="stable")
    v_sorted = np.take_along_axis(v, order, axis=-1)
    from_a = order < n
    ca = np.cumsum(from_a, axis=-1) * m
    cb = np.cumsum(~from_a, axis=-1) * n
    dv = np.diff(v_sorted, axis=-1)
    return np.sum(np.abs(ca[..., :-1] - cb[..., :-1]) * dv, axis=-1) / (n * m)


def w1_sorted_one_product(A, B):
    """`metrics.wasserstein1_sorted` as it was before the point blocks: both sorted
    clouds gathered onto the quantile grid whole, (..., cells) copies each, and
    one matrix product of their gaps with the cell widths.  Reuses
    `metrics._quantile_grid`."""
    from csvgd.metrics import _quantile_grid
    n, m = A.shape[-1], B.shape[-1]
    g = _quantile_grid(n, m)
    gaps = np.abs(A[..., g[:-1] // m] - B[..., g[:-1] // n])
    return gaps @ np.diff(g).astype(float) / (n * m)


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
    """The per-particle stress regression score the batched path replaced.

    Unlike the rest of this module it reuses library pieces: each particle is
    evaluated on its own, as a one-row stack of the network passes.  The
    reference row's directional gradient comes from the independent
    `FormulaPass`.  It is the reference for the particle-stacked
    evaluation.
    """
    from csvgd import mechanics as mech
    from csvgd import network as nw

    X, Y = target.dataset.inputs, target.dataset.outputs
    scores, mses = [], []
    inv = mech.invariants_batch(X)
    dI = mech.invariant_derivatives_batch(X)
    ref = np.array([[3.0, 3.0, 1.0]])
    for theta in np.atleast_2d(particles):
        P = theta[None]
        rows = nw.forward_pass(template, inv, P)
        g = rows.grad_input()[0, :, 0, :]
        g_ref = nw.forward_pass(template, ref, P).grad_input()[0, 0, 0]
        n = 2.0 * g_ref[0] + 4.0 * g_ref[1] + 2.0 * g_ref[2]
        g[:, 2] -= 0.5 * n / np.sqrt(inv[:, 2])
        r = Y - np.einsum("ni,nik->nk", g, dI)
        u = np.einsum("nk,nik->ni", r, dI)
        s = rows.grad_params_dirderiv(u)[0]
        w_ref = float(np.sum(u[:, 2] / (2.0 * np.sqrt(inv[:, 2]))))
        s = s - w_ref * FormulaPass(template, ref, P).grad_params_dirderiv(
            np.array([[2.0, 4.0, 2.0]]), np.array([[1.0]]))[0]
        scores.append(s / target.noise_var)
        mses.append(float(np.mean(r * r)))
    return np.stack(scores), np.array(mses)


def pinned_stress_einsum(g, g_ref, inv, dI):
    """`mechanics._pinned_stress` as one einsum, as it was before it became a
    sequential broadcast multiply-add."""
    slope = 2.0 * g_ref[..., 0] + 4.0 * g_ref[..., 1] + 2.0 * g_ref[..., 2]
    g = np.array(g, dtype=float)
    g[..., 2] -= 0.5 * slope[..., None] / np.sqrt(inv[:, 2])
    return np.einsum("...ni,nik->...nk", g, dI)


def prior_score_gathered(alpha, lam, theta, dead_zone=0.0):
    """`priors.prior_score` as it was: the live coordinates gathered, scored
    and placed back.  Reuses `priors.prior_constants`."""
    from csvgd.priors import prior_constants

    theta = np.asarray(theta, dtype=float)
    _, c2 = prior_constants(alpha)
    scale = lam ** alpha * c2 * alpha
    a = np.abs(theta)
    live = a > dead_zone
    out = np.zeros_like(theta)
    np.place(out, live, -scale * a[live] ** (alpha - 1.0) * np.sign(theta[live]))
    return out


def svgd_step_out_of_place(particles, g, step_size, mask=None, opt_state=None,
                           adagrad_offset=1e-8):
    """`engine.svgd_step`'s arithmetic as it was, one new array per operation:
    the new particles, and the AdaGrad accumulator (updated in place, as
    before) when ``opt_state`` is given; ``mask`` marks the projected
    coordinates."""
    if opt_state is not None:
        opt_state += g * g
        step = step_size * g / np.sqrt(opt_state + adagrad_offset)
    else:
        step = step_size * g
    P = particles + step
    if mask is not None and mask.any():
        P[:, mask] = np.maximum(P[:, mask], 0.0)
    return P


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


# ---------------------------------------------------------------------------
# The two-call stress regression score that the one-pass
# `mechanics.potential_stress` replaced: `predict` made one forward pass over
# the data rows and one over the (3, 3, 1) reference row, then `param_score`
# made both passes again.  It keeps its own copies of the activation functions
# and network passes, written the way they were, so the one-pass score can be
# held to it bit for bit; it reuses only the flat parameter layout and
# `mechanics.strain_features`.

def softplus_formula(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid_formula(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_deriv_formula(x):
    s = sigmoid_formula(x)
    return s * (1.0 - s)


_SOFTPLUS = (softplus_formula, sigmoid_formula, sigmoid_deriv_formula)
_IDENTITY = (lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))


def _formulas(net, k):
    """Value, first and second derivative of link k of the chain: softplus
    hidden links, an identity output link."""
    return _IDENTITY if k == net.n_links - 1 else _SOFTPLUS


def _two_call_forward(net, W, X):
    H, Z = [X], []
    for k in range(net.n_links):
        z = H[-1] @ W[k].swapaxes(-1, -2)
        Z.append(z)
        H.append(_formulas(net, k)[0](z))
    return Z, H


def _flat(gW):
    return np.concatenate([g.reshape(g.shape[:-2] + (-1,)) for g in gW], axis=-1)


def _two_call_grad_input(net, W, X):
    Z, _ = _two_call_forward(net, W, X)
    out = net.layer_widths[-1]
    J = np.broadcast_to(np.eye(out), Z[-1].shape + (out,))
    for k in range(net.n_links - 1, -1, -1):
        J = J @ W[k][..., None, :, :]
        if k > 0:
            J = J * sigmoid_formula(Z[k - 1])[..., None, :]
    return J


def _two_call_grad_params_dirderiv(net, W, X, Udir, Up):
    Z, H = _two_call_forward(net, W, X)
    T, TZ = [Udir], []
    for k in range(net.n_links):
        tz = T[-1] @ W[k].swapaxes(-1, -2)
        TZ.append(tz)
        T.append(_formulas(net, k)[1](Z[k]) * tz)
    gW = [None] * net.n_links
    bar_h, bar_t = np.zeros_like(H[-1]), Up
    for k in range(net.n_links - 1, -1, -1):
        d1 = _formulas(net, k)[1](Z[k])
        d2 = _formulas(net, k)[2](Z[k])
        bar_z = d1 * bar_h + d2 * TZ[k] * bar_t
        bar_tz = d1 * bar_t
        gW[k] = bar_z.swapaxes(-1, -2) @ H[k] + bar_tz.swapaxes(-1, -2) @ T[k]
        bar_h, bar_t = bar_z @ W[k], bar_tz @ W[k]
    return _flat(gW)


def two_call_score_and_mse(target, template, particles):
    """`score_and_mse_batch` as `predict`, then `param_score` computed it."""
    from csvgd import mechanics as mech

    P = np.atleast_2d(np.asarray(particles, dtype=float))
    W = template.layout.unflatten(P)
    inv, dI = mech.strain_features(target.dataset.inputs)[:2]
    ref = np.array([[3.0, 3.0, 1.0]])
    # predict: two forward passes
    g_ref = _two_call_grad_input(template, W, ref)[..., 0, :][..., 0, :]
    slope = 2.0 * g_ref[..., 0] + 4.0 * g_ref[..., 1] + 2.0 * g_ref[..., 2]
    g = np.array(_two_call_grad_input(template, W, inv)[..., 0, :])
    g[..., 2] -= 0.5 * slope[..., None] / np.sqrt(inv[:, 2])
    R = target.dataset.outputs - np.einsum("...ni,nik->...nk", g, dI)
    # param_score: the same two forward passes again
    u = np.einsum("...nk,nik->...ni", R, dI)
    s = _two_call_grad_params_dirderiv(template, W, inv, u, np.ones((len(inv), 1)))
    w_ref = np.sum(u[..., 2] / (2.0 * np.sqrt(inv[:, 2])), axis=-1)
    s_ref = _two_call_grad_params_dirderiv(
        template, W, ref, np.array([[2.0, 4.0, 2.0]]), np.array([[1.0]]))
    s = s - w_ref[..., None] * s_ref
    return s / target.noise_var, np.mean((R * R).reshape(len(R), -1), axis=1)


# ---------------------------------------------------------------------------
# The network passes as they were before they skipped exactly known work: the
# forward pass kept each activation's value and first two derivatives (the
# sigmoid numerator picked by `np.where`), the input Jacobian started from
# eye(out) @ W, and the reverse-over-forward pass started at the output link
# from zero adjoints after a full tangent pass.  The lean `network.ForwardPass`
# is held to it bit for bit; it reuses the library's input checks and flat
# parameter layout.

def softplus_terms_where(z):
    """softplus, sigmoid and sigmoid * (1 - sigmoid) from one exp(-|z|)."""
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return np.maximum(z, 0.0) + np.log1p(e), s, s * (1.0 - s)


class FormulaPass:
    """`network.forward_pass(net, X, params)` and the passes that read it."""

    def __init__(self, net, X, params):
        from csvgd import network as nw

        self.net, self._check_rows = net, nw._check_rows
        X = nw._check_input(net, X)
        self.W = nw.stack_weights(net, params)
        self.H, self.D1, self.D2 = [X], [], []
        for k in range(net.n_links):
            z = self.H[-1] @ self.W[k].swapaxes(-1, -2)
            h, d1, d2 = (softplus_terms_where(z) if k < net.n_links - 1
                         else (z, np.ones_like(z), np.zeros_like(z)))
            self.H.append(h)
            self.D1.append(d1)
            self.D2.append(d2)

    def output(self):
        return self.H[-1]

    def grad_input(self):
        out = self.net.layer_widths[-1]
        J = np.broadcast_to(np.eye(out), self.H[-1].shape + (out,))
        for k in range(self.net.n_links - 1, -1, -1):
            J = J @ self.W[k][..., None, :, :]
            if k > 0:
                J = J * self.D1[k - 1][..., None, :]
        return J

    def grad_params(self, upstream):
        n_links = self.net.n_links
        U = self._check_rows("upstream", upstream,
                             (len(self.H[0]), self.net.layer_widths[-1]))
        gW = [None] * n_links
        bar = np.broadcast_to(U, self.H[-1].shape)
        for k in range(n_links - 1, -1, -1):
            gW[k] = bar.swapaxes(-1, -2) @ self.H[k]
            if k > 0:
                bar = (bar @ self.W[k]) * self.D1[k - 1]
        return self.net.layout.flatten(gW)

    def _tangents(self, u):
        T = [self._check_rows("direction", u, self.H[0].shape)]
        TZ = []
        for k in range(self.net.n_links):
            tz = T[-1] @ self.W[k].swapaxes(-1, -2)
            TZ.append(tz)
            T.append(self.D1[k] * tz)
        return T, TZ

    def dirderiv(self, u):
        T, _ = self._tangents(u)
        return T[-1]

    def grad_params_dirderiv(self, u, upstream):
        n_links = self.net.n_links
        Up = self._check_rows("upstream", upstream,
                              (len(self.H[0]), self.net.layer_widths[-1]))
        T, TZ = self._tangents(u)
        gW = [None] * n_links
        bar_h = np.zeros_like(self.H[-1])
        bar_t = Up
        for k in range(n_links - 1, -1, -1):
            d1 = self.D1[k]
            bar_z = d1 * bar_h + self.D2[k] * TZ[k] * bar_t
            bar_tz = d1 * bar_t
            gW[k] = bar_z.swapaxes(-1, -2) @ self.H[k] + bar_tz.swapaxes(-1, -2) @ T[k]
            if k > 0:
                bar_h = bar_z @ self.W[k]
                bar_t = bar_tz @ self.W[k]
        return self.net.layout.flatten(gW)


def prune_per_node(graph, epsilon):
    """`condense.prune` node by node: each active hidden node is checked for a
    nonzero incoming and outgoing edge, and dies at once if it lacks one."""
    g = graph.copy()
    for w in g.weights:
        w[np.abs(w) < epsilon] = 0.0
    changed = True
    while changed:
        changed = False
        for layer in range(1, g.n_layers - 1):
            w_in, w_out = g.weights[layer - 1], g.weights[layer]
            for j in np.flatnonzero(g.active[layer]):
                if not (np.any(w_in[j, :] != 0.0) and np.any(w_out[:, j] != 0.0)):
                    g.active[layer][j] = False
                    w_in[j, :] = 0.0
                    w_out[:, j] = 0.0
                    changed = True
    return g


def dump_graph_csv(graph, paths):
    """`condense.dump_graph` written row by row through `csv.writer`, one file
    per particle of a stacked graph."""
    import csv

    from csvgd.condense import importance

    for a, path in enumerate(paths):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["nodes"])
            w.writerow(["layer", "index", "importance", "active"])
            for layer in range(graph.n_layers):
                if 0 < layer < graph.n_layers - 1:
                    imp = importance(graph, layer)[a]
                else:
                    imp = np.zeros(graph.widths[layer])
                for j in range(graph.widths[layer]):
                    w.writerow([layer, j, repr(float(imp[j])),
                                int(graph.active[layer][a, j])])
            w.writerow(["edges"])
            w.writerow(["from_layer", "from_index", "to_index", "weight"])
            for k, mat in enumerate(graph.weights):
                mat = mat[a]
                for i, j in zip(*np.nonzero(mat)):
                    w.writerow([k, int(j), int(i), repr(float(mat[i, j]))])


# ---------------------------------------------------------------------------
# Condensation one graph at a time, as it ran before graphs took a particle
# axis.  Each function takes one `condense.NetGraph` without a particle axis
# (the dataclass and its `copy` are the only library pieces reused);
# `condense_graphs_per_graph` takes a list of them.

def prune_per_graph(graph, epsilon):
    """`condense.prune` on one graph, a whole layer's dead nodes at a time."""
    from csvgd.errors import DomainError

    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    g = graph.copy()
    for w in g.weights:
        w[np.abs(w) < epsilon] = 0.0
    changed = True
    while changed:
        changed = False
        for layer in range(1, g.n_layers - 1):
            w_in, w_out = g.weights[layer - 1], g.weights[layer]
            alive = (w_in != 0.0).any(axis=1) & (w_out != 0.0).any(axis=0)
            dead = g.active[layer] & ~alive
            if dead.any():
                g.active[layer][dead] = False
                w_in[dead, :] = 0.0
                w_out[:, dead] = 0.0
                changed = True
    return g


def importance_per_graph(graph, layer):
    """`condense.importance` of one graph's hidden layer: each column summed
    over its sorted values."""
    w = graph.weights[layer]
    v = w if graph.nonneg_mask[layer] else np.abs(w)
    return np.where(graph.active[layer], np.sort(v, axis=0).sum(axis=0), 0.0)


def sort_nodes_per_graph(graph):
    """`condense.sort_nodes` on one graph through Python's `sorted`."""
    g = graph.copy()
    for layer in range(1, g.n_layers - 1):
        s = importance_per_graph(g, layer)
        order = sorted(range(g.widths[layer]),
                       key=lambda j: (not g.active[layer][j], -s[j], j))
        perm = np.asarray(order, dtype=int)
        if np.array_equal(perm, np.arange(perm.size)):
            continue
        g.weights[layer - 1] = g.weights[layer - 1][perm, :]
        g.weights[layer] = g.weights[layer][:, perm]
        g.active[layer] = g.active[layer][perm]
        g.provenance[layer] = g.provenance[layer][perm]
    return g


def common_template_per_graph(graphs):
    """`condense.common_template` over a list of graphs."""
    first = graphs[0]
    widths = [first.widths[0]]
    for layer in range(1, first.n_layers - 1):
        widths.append(max(int(g.active[layer].sum()) for g in graphs))
    widths.append(first.widths[-1])
    return tuple(widths)


def reconcile_per_graph(graph, template_widths):
    """`condense.reconcile` of one graph through `np.ix_` blocks."""
    from csvgd.condense import NetGraph
    from csvgd.errors import ShapeError

    idx = []
    for layer in range(graph.n_layers):
        if layer == 0 or layer == graph.n_layers - 1:
            idx.append(np.arange(graph.widths[layer]))
            continue
        act = np.flatnonzero(graph.active[layer])
        if act.size > template_widths[layer]:
            raise ShapeError(f"layer {layer}: {act.size} active nodes overflow "
                             f"template width {template_widths[layer]}")
        idx.append(act)
    weights, active, prov = [], [], []
    for layer in range(graph.n_layers):
        w_t = template_widths[layer]
        n_act = idx[layer].size
        a = np.zeros(w_t, dtype=bool)
        a[:n_act] = True
        p = np.full(w_t, -1, dtype=int)
        p[:n_act] = graph.provenance[layer][idx[layer]]
        active.append(a)
        prov.append(p)
        if layer > 0:
            w = np.zeros((w_t, template_widths[layer - 1]))
            w[:n_act, :idx[layer - 1].size] = \
                graph.weights[layer - 1][np.ix_(idx[layer], idx[layer - 1])]
            weights.append(w)
    return NetGraph(tuple(template_widths), weights, active, prov, graph.nonneg_mask)


def condense_graphs_per_graph(graphs, epsilon):
    """`condense.condense_graphs` over a list of graphs: one pass."""
    from csvgd.errors import CondenseError

    graphs = [sort_nodes_per_graph(prune_per_graph(g, epsilon)) for g in graphs]
    widths = common_template_per_graph(graphs)
    dead = [layer for layer in range(1, len(widths) - 1) if widths[layer] == 0]
    if dead:
        raise CondenseError(f"hidden layer {dead[0]} died in every particle; "
                            f"a softplus layer cannot be composed through")
    return [reconcile_per_graph(g, widths) for g in graphs], widths


def flat_index_map_per_graph(graph, old_widths):
    """`engine._flat_index_map` of one graph: the old flat position of every
    new flat position, -1 where padded."""
    old_offsets, off = [], 0
    for k in range(len(old_widths) - 1):
        old_offsets.append(off)
        off += old_widths[k + 1] * old_widths[k]
    maps = []
    for k, w in enumerate(graph.weights):
        rows = graph.provenance[k + 1]
        cols = graph.provenance[k]
        pi, pj = np.meshgrid(rows, cols, indexing="ij")
        m = old_offsets[k] + pi * old_widths[k] + pj
        m[(pi < 0) | (pj < 0)] = -1
        maps.append(m.ravel())
    return np.concatenate(maps)


def remap_opt_state_per_particle(opt_state, index_maps):
    """`engine._remap_opt_state` from one index map per particle."""
    if opt_state is None:
        return None
    out = np.zeros((opt_state.shape[0], index_maps[0].size))
    for a, m in enumerate(index_maps):
        valid = m >= 0
        out[a, valid] = opt_state[a, m[valid]]
    return out


def graph_of_net(net):
    """`condense.NetGraph.from_net` of one network."""
    from csvgd.condense import NetGraph

    return NetGraph(widths=net.layer_widths,
                    weights=[np.array(w) for w in net.weights],
                    active=[np.ones(w, dtype=bool) for w in net.layer_widths],
                    provenance=[np.arange(w) for w in net.layer_widths],
                    nonneg_mask=net.nonneg_mask)


def condense_ensemble_per_particle(template, particles, epsilon):
    """`engine.condense_ensemble` through one network and one graph per
    particle: (new flat rows, template widths, index maps)."""
    graphs = [graph_of_net(template.with_values(p)) for p in particles]
    graphs, widths = condense_graphs_per_graph(graphs, epsilon)
    rows = np.stack([np.concatenate([w.ravel() for w in g.weights]) for g in graphs])
    return rows, widths, [flat_index_map_per_graph(g, template.layer_widths)
                          for g in graphs]


def dump_graph_per_graph(graph, path):
    """`condense.dump_graph` of one graph, its lines formatted one by one."""
    lines = ["nodes", "layer,index,importance,active"]
    for layer in range(graph.n_layers):
        if 0 < layer < graph.n_layers - 1:
            imp = importance_per_graph(graph, layer)
        else:
            imp = np.zeros(graph.widths[layer])
        active = graph.active[layer].tolist()
        lines += [f"{layer},{j},{v!r},{int(a)}"
                  for j, (v, a) in enumerate(zip(imp.tolist(), active))]
    lines += ["edges", "from_layer,from_index,to_index,weight"]
    for k, mat in enumerate(graph.weights):
        rows, cols = np.nonzero(mat)
        values = mat[rows, cols].tolist()
        lines += [f"{k},{j},{i},{v!r}"
                  for i, j, v in zip(rows.tolist(), cols.tolist(), values)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def dump_graphs_per_particle(template, particles, paths):
    """The stage graph dumps, one network, one pruned graph and one file per
    particle."""
    for p, path in zip(particles, paths):
        dump_graph_per_graph(prune_per_graph(graph_of_net(template.with_values(p)), 0.0),
                             path)


def inspect_weight_rows(template, particles, k):
    """The rows of `condense-inspect`'s weights_layer{k}.csv from four nested
    loops: (layer, row, col, particle, value)."""
    rows = []
    for a, p in enumerate(particles):
        w = template.with_values(p).weights[k]
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                rows.append((k, i, j, a, w[i, j]))
    return rows

# ---------------------------------------------------------------------------
# Scalar hyperelastic forms on one 3x3 strain tensor or one invariant triple.
# The library computes stress only from batched invariant gradients; these
# values are what the finite-difference stress checks differentiate.

def invariants_3x3(E):
    """Principal invariants (I1, I2, I3) of C = 2E + I from its trace and
    determinant."""
    C = 2.0 * np.asarray(E, dtype=float) + np.eye(3)
    i1 = float(np.trace(C))
    return np.array([i1, 0.5 * (i1 * i1 - np.trace(C @ C)), np.linalg.det(C)])


def truth_potential(params, inv):
    """The Gent-type strain-energy density at one invariant triple:
    -(t1/2) J_m log(1 - (I1-3)/J_m) - t2 log(I2/J) + t3 ((J^2-1)/2 - log J),
    J = sqrt(I3)."""
    i1, i2, i3 = inv
    j = np.sqrt(i3)
    return float(-0.5 * params.t1 * params.j_m * np.log(1.0 - (i1 - 3.0) / params.j_m)
                 - params.t2 * np.log(i2 / j)
                 + params.t3 * (0.5 * (j * j - 1.0) - np.log(j)))


def net_potential(net):
    """A scalar-output network as a potential of one invariant triple."""
    from csvgd import network as nw

    P = net.layout.flatten(net.weights)[None]
    return lambda inv: float(
        pass_output(nw.forward_pass(net, np.reshape(inv, (1, -1)), P))[0, 0, 0])


def reference_normalized(potential, h=1e-3):
    """Phi_hat(I) = Phi(I) - Phi(3,3,1) - n (sqrt(I3) - 1) for a potential of
    one invariant triple, where n = (2, 4, 2) . grad Phi(3,3,1) is the
    derivative along (2, 4, 2) by a five-point central difference (error
    O(h^4))."""
    ref, step = np.array([3.0, 3.0, 1.0]), np.array([2.0, 4.0, 2.0])
    v0 = potential(ref)
    n = (8.0 * (potential(ref + h * step) - potential(ref - h * step))
         - (potential(ref + 2 * h * step) - potential(ref - 2 * h * step))) / (12.0 * h)
    return lambda inv: potential(inv) - v0 - n * (np.sqrt(inv[2]) - 1.0)


def strain_energy(potential):
    """A potential of invariants as a function of the 3x3 strain tensor."""
    return lambda E: potential(invariants_3x3(E))


# ---------------------------------------------------------------------------
# The network output and its parameter gradient, which left
# `network.ForwardPass` with the one regression model that read them: the
# stress of a potential reads only the input Jacobian and the
# reverse-over-forward gradient.  They read a library `ForwardPass` as its
# methods did, forming the output link's input on demand by the forward pass's
# own operations, so they keep those methods' bits; they reuse the pass's
# arrays and flat gradient rows and `network`'s private helpers.

def _last_input(rows):
    """The output link's input: X for a one-link net, otherwise the last
    hidden link's value, formed as the forward pass forms a value."""
    from csvgd import network as nw

    k = rows.net.n_links - 2
    if k < 0:
        return rows.H[0]
    z = nw._matmul(rows.H[k], rows.W[k].swapaxes(-1, -2))
    return nw._softplus_terms(z)[0]


def pass_output(rows):
    """Network outputs (N, batch, out) of a `network.ForwardPass`."""
    from csvgd import network as nw

    return nw._matmul(_last_input(rows), rows.W[-1].swapaxes(-1, -2))  # identity link


def pass_grad_params(rows, upstream):
    """Flat gradient rows (N, D) of sum_b upstream[b] . net(X[b]) of a
    `network.ForwardPass` with respect to all parameters; ``upstream`` may
    carry the particle axis."""
    from csvgd import network as nw

    n_links = rows.net.n_links
    U = nw._check_rows("upstream", upstream, (len(rows.H[0]), rows.net.layer_widths[-1]))
    bar = np.broadcast_to(U, rows._out_shape)  # identity output link
    H = rows.H[:n_links - 1] + [_last_input(rows)]
    flat, gW = rows._gradient_rows()
    for k in range(n_links - 1, -1, -1):
        nw._matmul(bar.swapaxes(-1, -2), H[k], out=gW[k])
        if k > 0:
            bar = nw._matmul(bar, rows.W[k])
            bar *= rows.D1[k - 1]
    return flat


# ---------------------------------------------------------------------------
# References that only tests call, kept out of the library: the log-densities
# whose gradients the library's scores are, readers of the files it writes,
# and per-network views of a particle stack.

def mvn_log_likelihood(target, particles):
    """-(1/2) (theta - mu)' P (theta - mu) per particle row of an MvnTarget."""
    D = np.atleast_2d(np.asarray(particles, dtype=float)) - target.mean
    return -0.5 * np.einsum("ni,ij,nj->n", D, target.precision, D)


def regression_log_likelihood(target, template, particles):
    """-(1/(2 sigma^2)) sum_i |S_i - S(E_i; theta)|^2 per particle row of a
    RegressionTarget; the stresses come from `stack_stress`."""
    from csvgd import mechanics as mech

    P = np.atleast_2d(np.asarray(particles, dtype=float))
    R = target.dataset.outputs - stack_stress(template, P,
                                              mech.strain_features(target.dataset.inputs))
    return -np.sum((R * R).reshape(len(R), -1), axis=1) / (2.0 * target.noise_var)


def stack_stress(template, particles, features):
    """Voigt stress rows (N, n, 6) of a particle stack of potential networks
    at the strain rows of ``features``: the stress rows of every particle
    block of `mechanics.potential_stress` at the score's budget, joined."""
    from csvgd import mechanics as mech
    from csvgd import network as nw

    return np.concatenate([pred for _, pred, _ in mech.potential_stress(
        template, particles, features, nw.PASS_ELEMENTS)])


def log_prior_density(spec, theta):
    """Log of the fully normalized prior density at theta (sum over
    coordinates); reuses `priors.prior_constants`."""
    from csvgd.priors import prior_constants

    theta = np.asarray(theta, dtype=float)
    c1, c2 = prior_constants(spec.alpha)
    return float(theta.size * np.log(spec.lam * c1)
                 - spec.lam ** spec.alpha * c2 * np.sum(np.abs(theta) ** spec.alpha))


def load_dataset(path, n_inputs):
    """The `mechanics.Dataset` that `save_dataset` wrote to ``path``."""
    from csvgd.mechanics import Dataset

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    vals = np.array([[float(v) for v in row] for row in body])
    return Dataset(vals[:, :n_inputs], vals[:, n_inputs:],
                   tuple(header[:n_inputs]), tuple(header[n_inputs:]))


def load_graph_dump(path):
    """Parse a `condense.dump_graph` file back into (node rows, edge rows).
    A file that does not open with its ``nodes`` section is rejected, so a
    changed format fails the tests that read dumps instead of parsing empty."""
    from csvgd.errors import ShapeError

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["nodes"]]:
        raise ShapeError(f"{path} is not a graph dump: it does not open with "
                         f"a 'nodes' section")
    nodes, edges, section, skip = [], [], None, False
    for row in rows:
        if row in (["nodes"], ["edges"]):
            section, skip = row[0], True
            continue
        if skip:
            skip = False
            continue
        if section == "nodes":
            nodes.append((int(row[0]), int(row[1]), float(row[2]), bool(int(row[3]))))
        else:
            edges.append((int(row[0]), int(row[1]), int(row[2]), float(row[3])))
    return nodes, edges


def nets_of(ensemble):
    """One network per particle of a network ensemble, on its template."""
    return [ensemble.template.with_values(p) for p in ensemble.particles]


def net_stack_of_graph(graph):
    """The template network and flat particle rows (N, D) of a stacked
    `condense.NetGraph`."""
    from csvgd.network import LayeredNet

    template = LayeredNet(graph.widths, tuple(np.zeros(w.shape[1:]) for w in graph.weights),
                          graph.nonneg_mask)
    return template, np.concatenate([w.reshape(len(w), -1) for w in graph.weights], axis=1)


def wasserstein1_batch(A, B):
    """Row-wise empirical W1 along the last axis of unsorted samples: each
    sorted along it, then `metrics.wasserstein1_sorted`."""
    from csvgd.metrics import wasserstein1_sorted

    return wasserstein1_sorted(np.sort(A, axis=-1), np.sort(B, axis=-1))
