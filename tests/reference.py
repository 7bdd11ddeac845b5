"""Test references: independent restatements of quantities the library
computes, and helpers that only the tests use.  Not collected by pytest."""

from pathlib import Path

import numpy as np

from roagrow.dynamics import LinearModel
from roagrow.experiment import read_metrics
from roagrow.grid import GridDomain
from roagrow.oracle import RoaMask
from roagrow.roa_estimator import C_BAR, DegenerateLevelError, gap_ring


def roa_loss(net, x_in, x_out, f_pi, prev, prev_f, cfg) -> float:
    """The four-term estimation loss, term by term:

    classifier terms: sum_in (V - c_bar) - sum_out (V - c_bar)
    decrease term:    lambda_roa * sum_in (V(f_pi(x)) - V(x))
    monotonicity:     lambda_monot * sum_in (V(x) - V_prev(f_prev(x)))^2

    ``net`` and ``prev.net`` need only a batched ``value``; ``cfg`` gives the
    two weights.
    """
    x_in = np.asarray(x_in, dtype=float).reshape(-1, 2)
    x_out = np.asarray(x_out, dtype=float).reshape(-1, 2)
    v_in, v_out = net.value(x_in), net.value(x_out)
    classifier = np.sum(v_in - C_BAR) - np.sum(v_out - C_BAR)
    decrease = cfg.lambda_roa * np.sum(net.value(f_pi(x_in)) - v_in)
    monotonicity = cfg.lambda_monot * np.sum(
        (v_in - prev.net.value(prev_f(x_in))) ** 2)
    return float(classifier + decrease + monotonicity)


def _plain_weights(net) -> list:
    return [np.vstack([g1.T @ g1 + net.eps * np.eye(len(g1)), g2])
            for g1, g2 in net.layers]


def _plain_acts(net, x) -> list:
    acts = [np.atleast_2d(np.asarray(x, dtype=float))]
    for w in _plain_weights(net):
        acts.append(np.tanh(acts[-1] @ w.T))
    return acts


def reference_forward(net, x) -> np.ndarray:
    """V per row of ``x``, from fresh arrays, one whole-batch pass."""
    h = _plain_acts(net, x)[-1]
    return np.einsum("ij,ij->i", h, h)


def reference_backward(net, x, out_weights, extra_weights=None) -> tuple:
    """The reverse pass for S = sum_i out_weights[i] V(x[i]) (and for the
    extra column over the first m rows) from fresh arrays, in the operation
    order of the library's buffered pass, so its bits must match.

    Returns ``(d_input, d_params, d_params_extra)``: the per-row gradient of
    S w.r.t. the input, the gradient of S laid out like the net's ``params``,
    and that of the extra column's sum (None without one)."""
    ws, acts = _plain_weights(net), _plain_acts(net, x)
    m = 0 if extra_weights is None else len(extra_weights)
    delta = 2.0 * np.asarray(out_weights, dtype=float)[:, None] * acts[-1]
    delta_x = 2.0 * np.asarray(extra_weights, dtype=float)[:, None] * acts[-1][:m] if m else None
    dws, dws_x = [None] * len(ws), [None] * len(ws)
    for ell in range(len(ws) - 1, -1, -1):
        slope = 1.0 - np.square(acts[ell + 1])
        if m:
            dz_x = delta_x * slope[:m]
            dws_x[ell] = np.dot(dz_x.T, acts[ell][:m])
            delta_x = dz_x @ ws[ell]
        dz = slope * delta
        dws[ell] = dz.T @ acts[ell]
        delta = dz @ ws[ell]

    def flat(d_weights):
        parts = []
        for (g1, _), dw in zip(net.layers, d_weights):
            d_in = len(g1)
            parts += [(g1 @ (dw[:d_in] + dw[:d_in].T)).ravel(), dw[d_in:].ravel()]
        return np.concatenate(parts)

    return delta, flat(dws), flat(dws_x) if m else None


def linearize(step_fn, s0, u0: float, h: float = 1e-5) -> LinearModel:
    """Central finite-difference Jacobians of a discrete map at (s0, u0):
    the oracle for the analytic :func:`roagrow.dynamics.step_jacobians`
    that the LQR design uses.  ``step_fn(state, u)`` returns the next
    state."""
    s0 = np.asarray(s0, dtype=float)
    d = s0.shape[0]
    a = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        a[:, i] = (np.asarray(step_fn(s0 + e, u0)) - np.asarray(step_fn(s0 - e, u0))) / (2 * h)
    b = ((np.asarray(step_fn(s0, u0 + h)) - np.asarray(step_fn(s0, u0 - h))) / (2 * h))
    return LinearModel(a, b.reshape(d, 1))


def full_grid_level(v, v_next, grid: GridDomain) -> float:
    """The level rule on V at every cell image (``v_next``): the least V over
    the cells that fail strict decrease or lie on the boundary, the
    nearest-to-origin cell excepted, or the largest V if there is none."""
    if float(v.max() - v.min()) < 1e-12:
        raise DegenerateLevelError("V is constant on the grid")
    violating = (v_next - v >= 0) | grid.boundary_mask()
    violating[grid.origin_index()] = False
    bad = v[violating]
    return float(bad.min()) if bad.size else float(v.max())


def cell_area(grid: GridDomain) -> float:
    return grid.cell_width_theta * grid.cell_width_omega


def cell_index(grid: GridDomain, points) -> np.ndarray:
    """Flat cell index of each point (clipped to the domain edges)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    i = np.floor((points[:, 0] - grid.theta_min) / grid.cell_width_theta)
    j = np.floor((points[:, 1] - grid.omega_min) / grid.cell_width_omega)
    i = np.clip(i.astype(int), 0, grid.n_theta - 1)
    j = np.clip(j.astype(int), 0, grid.n_omega - 1)
    return j * grid.n_theta + i


def sym_diff_measure(a: RoaMask, b: RoaMask) -> float:
    """Fraction of cells on which the two masks disagree."""
    if (a.n_theta, a.n_omega) != (b.n_theta, b.n_omega):
        raise ValueError("masks live on different grids")
    return float(np.logical_xor(a.values, b.values).sum()) / a.values.size


def gap_growth_check(c: float, alphas, grid: GridDomain) -> dict:
    """Desk-scale check of the sublevel-growth prediction for V = ||x||^2.

    The sublevel set of ||x||^2 at level c is a disk of radius sqrt(c), whose
    gradient-norm lower bound on the level set is G = 2 sqrt(c) and whose
    perimeter is 2 pi sqrt(c), so the predicted gap measure for a factor
    alpha is c (alpha - 1) * perimeter / G = pi c (alpha - 1).  Returns
    {alpha: (grid_measure, predicted, relative_error)}.
    """
    centers = grid.centers()
    v = centers[:, 0] ** 2 + centers[:, 1] ** 2
    half_t = 0.5 * (grid.theta_max - grid.theta_min)
    half_w = 0.5 * (grid.omega_max - grid.omega_min)
    out = {}
    for alpha in alphas:
        if not 1.0 <= alpha <= 1.1:
            raise ValueError("alpha must lie in [1, 1.1]; the prediction is "
                             "a first-order expansion around the level set")
        if np.sqrt(alpha * c) >= min(half_t, half_w):
            raise ValueError("level set touches the grid boundary")
        counted = float(gap_ring(v, c, alpha).sum()) * cell_area(grid)
        predicted = np.pi * c * (alpha - 1.0)
        rel = abs(counted - predicted) / predicted if predicted > 0 else 0.0
        out[alpha] = (counted, predicted, rel)
    return out


def reference_out_of_box(states: np.ndarray, box) -> np.ndarray:
    """Rows of ``states``, shape ``(n, 2)`` or ``(2,)``, outside the box of
    half-widths ``(theta_hi, omega_hi)``: the plain rule ``-theta_hi <= theta
    <= theta_hi and -omega_hi <= omega <= omega_hi``, negated, so that a row
    with a NaN counts as out."""
    theta_hi, omega_hi = box
    th, om = states[..., 0], states[..., 1]
    return ~((-theta_hi <= th) & (th <= theta_hi)
             & (-omega_hi <= om) & (om <= omega_hi))


# half-widths of boxes for the box tests: an infinite and a zero half-width
# among them
EDGE_BOXES = {"symmetric": (1.5, 6.25),
              "infinite_theta": (np.inf, 6.25),
              "zero_theta": (0.0, 6.25)}


def _edge_values(hi, ulps):
    # each edge, and 1 to ``ulps`` ulps nearer zero and farther from it
    vals = [0.0, -0.0, 0.3, -0.3]
    for e in (-hi, hi):
        inward = outward = e
        vals.append(e)
        for _ in range(ulps):
            inward = np.nextafter(inward, 0.0)
            outward = np.nextafter(outward, np.copysign(np.inf, outward))
            vals += [inward, outward]
    return vals


def edge_states(box, ulps=1):
    """Every pair of a theta and an omega taken from: each edge of the box of
    half-widths ``box``, 1 to ``ulps`` ulps inside and outside it, ±0, ±0.3,
    ±inf and NaN.  An ``(n, 2)`` array."""
    special = [np.inf, -np.inf, np.nan]
    th = _edge_values(box[0], ulps) + special
    om = _edge_values(box[1], ulps) + special
    return np.array(np.meshgrid(th, om)).reshape(2, -1).T


def rollout_batch(f, x0s: np.ndarray, steps: int, box):
    """Advance a batch of states ``steps`` times, freezing diverged rows.

    Returns ``(finals, diverged)`` where ``finals[i]`` is the last in-box
    state of sample ``i`` and ``diverged`` marks rows that left the box.
    """
    x = np.array(x0s, dtype=float)
    diverged = np.zeros(len(x), dtype=bool)
    for _ in range(steps):
        alive = ~diverged
        if not alive.any():
            break
        xn = np.asarray(f(x[alive]), dtype=float)
        out = reference_out_of_box(xn, box)
        idx = np.flatnonzero(alive)
        diverged[idx[out]] = True
        x[idx[~out]] = xn[~out]
    return x, diverged


def reference_sat(z, psi) -> np.ndarray:
    """The saturation's piecewise formula, as it reads for every slope:
    ``b + m_b (z - b)`` below b, z on [b, a], ``a + m_a (z - a)`` above a."""
    z = np.asarray(z, dtype=float)
    out = np.where(z < psi.b, psi.b + psi.m_b * (z - psi.b), z)
    np.putmask(out, z > psi.a, psi.a + psi.m_a * (z - psi.a))
    return out


def reference_step(x, pol, params) -> np.ndarray:
    """One closed-loop Euler step as the formulas read: u = sat(-K x) with
    the nested-``np.where`` saturation, then x + dt * (omega, (g/l) sin(theta)
    + u/I - friction * omega / I).  The result is C-ordered."""
    x = np.asarray(x, dtype=float)
    psi = pol.psi
    z = -(x[..., 0] * pol.k[0] + x[..., 1] * pol.k[1])
    above = psi.a + psi.m_a * (z - psi.a)
    below = psi.b + psi.m_b * (z - psi.b)
    u = np.where(z > psi.a, above, np.where(z < psi.b, below, z))
    theta, omega = x[..., 0], x[..., 1]
    domega = ((params.g / params.length) * np.sin(theta) + u / params.inertia
              - params.friction * omega / params.inertia)
    return np.stack([theta + params.dt * omega, omega + params.dt * domega],
                    axis=-1)


def jacobian_product_norms(jacs) -> np.ndarray:
    """Entry k holds || dx_T / dx_k ||: the largest singular value of the
    product of the step Jacobians ``jacs[k:]`` (``(T, n, 2, 2)``), averaged
    over the batch; entry T is 1."""
    n_steps = len(jacs)
    norms = np.empty(n_steps + 1)
    norms[n_steps] = 1.0
    prod = np.broadcast_to(np.eye(2), jacs.shape[1:]).copy()
    for k in range(n_steps - 1, -1, -1):
        prod = np.einsum("nij,njk->nik", prod, jacs[k])
        norms[k] = float(np.mean(np.linalg.svd(prod, compute_uv=False)[:, 0]))
    return norms


def rows_of(run_dir, *kinds) -> list:
    """The rows of ``run_dir``'s metrics.csv whose kind is one of ``kinds``,
    in file order."""
    return [r for r in read_metrics(Path(run_dir) / "metrics.csv")
            if r["kind"] in kinds]
