"""Test references: independent restatements of quantities the library
computes, and helpers that only the tests use.  Not collected by pytest."""

from pathlib import Path

import numpy as np

from roagrow.experiment import read_metrics
from roagrow.grid import GridDomain
from roagrow.oracle import RoaMask
from roagrow.roa_estimator import C_BAR, gap_ring


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


def flatten_grads(d_params: list) -> np.ndarray:
    """One vector from per-layer (dG1, dG2) pairs, in ``flat_params`` order."""
    return np.concatenate([np.concatenate([dg1.ravel(), dg2.ravel()])
                           for dg1, dg2 in d_params])


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
