"""Policy update through differentiable rollouts.

The training objective weighs the Lyapunov value of each trajectory's final
state, with unstable endpoints (outside the estimated level set) amplified by
``lambda_u``.  Its gradient with respect to the saturation parameters is the
exact reverse accumulation through the rolled-out closed loop; the indicator
weights and the Lyapunov net are read from the frozen estimate and receive no
gradient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .config import RedesignConfig
from .dynamics import closed_loop, out_of_box, step_euler, step_jacobians
from .grid import GridDomain
from .policy import (SatPolicy, crop_update, policy_input, project_psi, sat,
                     sat_derivs)
from .roa_estimator import LevelSetEstimate, draw_mixture, gap_ring

__all__ = [
    "PolicyUpdateRecord",
    "sample_policy_batch",
    "bptt",
    "update_policy",
]

log = logging.getLogger(__name__)

WEAK_SIGNAL_TOL = 1e-6


@dataclass
class PolicyUpdateRecord:
    loss: float
    grad_norm_final: float             # || dL/dx_T ||
    grad_norm_psi: float               # || dL/dpsi ||
    gap_empty: bool


def sample_policy_batch(v_grid: np.ndarray, c: float, cfg: RedesignConfig,
                        batch_size: int, grid: GridDomain,
                        rng: np.random.Generator):
    """``batch_size`` states from a mixture of the gap ring (factor
    ``cfg.gamma_p``, weight ``cfg.beta_p``) and the interior of S_c, from the
    values ``v_grid`` of V at the cell centres."""
    gap_cells = np.flatnonzero(gap_ring(v_grid, c, cfg.gamma_p))
    in_cells = np.flatnonzero(v_grid < c)
    gap_empty = gap_cells.size == 0
    if gap_empty:
        log.warning("policy sampling gap is empty; using interior cells only")
        gap_cells = in_cells
    if in_cells.size == 0:
        log.warning("estimate interior is empty on the grid")
        in_cells = gap_cells
    if gap_cells.size == 0:            # both empty: degenerate estimate
        gap_cells = in_cells = np.arange(grid.n_cells)
    return (draw_mixture(gap_cells, in_cells, cfg.beta_p, batch_size, grid, rng),
            gap_empty)


def _rollout_tape(clm, x0s: np.ndarray, steps: int, box):
    """Forward pass storing what the reverse pass needs: each step's Jacobian
    and du/dpsi.  df/du does not depend on the state and is not taped.

    Each step forms the saturation input z = -K x once; one ``sat_derivs``
    call gives the slope and du/dpsi, and the next state, which has the bits
    of ``clm(x)``, comes from z too.  Rows that leave ``box`` (by
    :func:`~roagrow.dynamics.out_of_box` on ``|x|``) freeze at their last
    in-box state; their remaining step Jacobians become the identity and
    their du/dpsi vanishes, so the reverse products truncate there.
    """
    n = len(x0s)
    x = np.array(x0s, dtype=float)
    alive = np.ones(n, dtype=bool)
    jacs = np.empty((steps, n, 2, 2))
    psi_push = np.empty((steps, n, 4))  # du/dpsi, which dL/du pushes onto psi
    eye = np.eye(2)
    pol, psi = clm.policy, clm.policy.psi
    for k in range(steps):
        dfdx, dfdu = step_jacobians(x, clm.params)
        z = policy_input(x, pol)
        slope, du_dpsi = sat_derivs(z, psi, out=psi_push[k])
        du_dx = slope[:, None] * (-pol.k)[None, :]
        jac = np.multiply(dfdu[None, :, None], du_dx[:, None, :], out=jacs[k])
        jac += dfdx
        xn = step_euler(x, sat(z, psi), clm.params)
        out = out_of_box(np.abs(xn).T, box)
        frozen = ~alive | out
        if frozen.any():
            jac[frozen] = eye
            du_dpsi[frozen] = 0.0
            xn[frozen] = x[frozen]
            alive &= ~out
        x = xn
    return x, ~alive, jacs, psi_push


def bptt(clm, est: LevelSetEstimate, x0s, steps: int, lambda_u: float, box):
    """One pass over a rollout batch: ``(loss, grad, g_final)``.

    ``loss`` = sum over the batch of [1 if V(x_T) < c else lambda_u] * V(x_T),
    x_T the rollout endpoint under ``clm``; the indicator weights are
    constants of the frozen estimate, and a rollout that leaves ``box``, the
    half-widths of :meth:`~roagrow.grid.GridDomain.safety_box`, is flagged as
    diverged and contributes lambda_u * V at its last in-box state.
    ``grad`` is its exact reverse-accumulated gradient over trainable psi,
    (dL/dx_T)(dx_T/dx_k) (d+ x_k/dpsi) summed over k, zero outside the
    trainable mask.  ``g_final`` is dL/dx_T per sample.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float)).reshape(-1, 2)
    finals, diverged, jacs, psi_push = _rollout_tape(clm, x0s, steps, box)
    dfdu = step_jacobians(np.zeros(2), clm.params)[1]     # (2,), state-free
    v_final, dv_final = est.net.grad_x(finals)
    weights = np.where(v_final < est.c, 1.0, lambda_u)
    weights[diverged] = lambda_u
    loss = float(np.sum(weights * v_final))
    g_final = weights[:, None] * dv_final                 # dL/dx_T per sample
    grad = np.zeros(4)
    g = g_final.copy()
    for k in range(steps - 1, -1, -1):
        grad += (g @ dfdu) @ psi_push[k]                  # dL/du at step k
        g = np.einsum("ni,nij->nj", g, jacs[k])
    grad *= clm.policy.psi.mask()
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(
            f"non-finite policy gradient: grad={grad}, "
            f"|dL/dx_T|={np.linalg.norm(g_final):.4g}, "
            f"diverged={int(diverged.sum())}/{len(diverged)}")
    return loss, grad, g_final


def _diagnostics(grad, g_final):
    """``(|dL/dx_T|, |dL/dpsi|)`` from the results of one :func:`bptt`.

    Warns when the final-state factor is negligible: rollouts that end too
    close to the equilibrium, where the Lyapunov gradient vanishes, give the
    policy no information."""
    grad_norm_final = float(np.linalg.norm(g_final))
    if grad_norm_final < WEAK_SIGNAL_TOL:
        log.warning("vanishing learning signal: |dL/dx_T| = %.3g", grad_norm_final)
    return grad_norm_final, float(np.linalg.norm(grad))


def update_policy(pol: SatPolicy, est: LevelSetEstimate, v_grid: np.ndarray,
                  cfg: RedesignConfig, phase: int, rng: np.random.Generator):
    """Phase ``phase``'s policy update: sample a batch, descend, crop.

    ``v_grid`` holds the estimate's V at the centres of ``cfg.grid()``.
    Returns ``(new_policy, record)``.  The ``cfg.batch_size(phase)`` states
    are drawn once and descended for ``cfg.policy_sgd_steps`` :func:`bptt`
    steps through ``closed_loop(pol, cfg.pendulum_params())``; psi then moves
    at most ``cfg.crop_radius`` per entry, so the induced RoA cannot jump.
    """
    grid = cfg.grid()
    box = grid.safety_box(cfg.safety_box_factor)
    params = cfg.pendulum_params()
    x0s, gap_empty = sample_policy_batch(v_grid, est.c, cfg, cfg.batch_size(phase),
                                         grid, rng)
    start_psi = pol.psi
    for _ in range(cfg.policy_sgd_steps):
        _, grad, _ = bptt(closed_loop(pol, params), est, x0s,
                          cfg.rollout_steps_p, cfg.lambda_u, box)
        vec = project_psi(pol.psi.as_array() - cfg.policy_lr * grad)
        pol = replace(pol, psi=pol.psi.with_array(vec))
    pol = replace(pol, psi=crop_update(start_psi, pol.psi.as_array(),
                                       cfg.crop_radius))
    loss, grad, g_final = bptt(closed_loop(pol, params), est, x0s,
                               cfg.rollout_steps_p, cfg.lambda_u, box)
    return pol, PolicyUpdateRecord(loss, *_diagnostics(grad, g_final), gap_empty)
