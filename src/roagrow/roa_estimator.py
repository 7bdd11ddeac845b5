"""Growing inner estimate of the region of attraction (sublevel-set form).

One call of :func:`estimate_roa` runs the full growth loop for the current
policy: sample initial states from a gap ring around the running estimate,
label them by a short rollout in the oracle's loop, ``dynamics.roll_forward``,
take SGD steps on the four-term training loss, then line-search the level so
the decrease condition holds on the whole estimated set.  The line search
evaluates V at the cells' images in V order and stops at the first block
that holds a violation, so it rarely needs more than one block of images.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import RedesignConfig
from .dynamics import roll_forward
from .grid import GridDomain
from .lyapunov import VALUE_BLOCK, PDLyapunovNet, Workspace

__all__ = [
    "LevelSetEstimate",
    "LabeledBatch",
    "GrowthRecord",
    "DegenerateLevelError",
    "gap_ring",
    "draw_mixture",
    "sample_mixture",
    "label_batch",
    "line_search_level",
    "estimate_roa",
]

log = logging.getLogger(__name__)

# Level the classifier terms pull V values toward; the line-searched level
# converges to it as training stabilizes.
C_BAR = 1.0


class DegenerateLevelError(RuntimeError):
    """Line search has nothing to work with (V constant on the grid)."""


@dataclass
class LevelSetEstimate:
    """Pair (V, c): the sublevel set S_c(V) is the current RoA estimate."""

    net: PDLyapunovNet
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("level value must be positive")


@dataclass
class LabeledBatch:
    x_in: np.ndarray                   # rollout ended inside S_c
    x_out: np.ndarray                  # the rest of the batch


@dataclass
class GrowthRecord:
    iteration: int
    level: float
    est_fraction: float                # cells with V < line-searched c
    cbar_fraction: float               # cells with V < c_bar (drift monitor)
    loss: float
    gap_empty: bool


def gap_ring(v: np.ndarray, c: float, gamma: float) -> np.ndarray:
    """Cells of the ring S_{gamma c} \\ S_c, from the grid values ``v``."""
    return (v >= c) & (v < gamma * c)


def draw_mixture(gap_cells: np.ndarray, other_cells: np.ndarray, beta: float,
                 n: int, grid: GridDomain, rng: np.random.Generator):
    """The mixture draw of both samplers; an empty ``gap_cells`` sends every
    draw to ``other_cells``."""
    take_gap = rng.random(n) < beta
    if gap_cells.size == 0:
        take_gap[:] = False
    idx = np.empty(n, dtype=int)
    n_gap = int(take_gap.sum())
    if n_gap:
        idx[take_gap] = gap_cells[rng.integers(0, gap_cells.size, size=n_gap)]
    idx[~take_gap] = other_cells[rng.integers(0, other_cells.size, size=n - n_gap)]
    return grid.jitter_within(idx, rng)


def sample_mixture(v_grid: np.ndarray, c: float, gamma: float, beta: float,
                   n: int, grid: GridDomain, rng: np.random.Generator):
    """Draw n states: with probability beta a uniform cell of the gap ring
    S_{gamma c} \\ S_c, otherwise a uniform cell of the domain, then jitter
    uniformly within the chosen cell.  ``v_grid`` holds V at the cell centres.

    Returns ``(states, gap_empty)``; when the ring contains no grid cell the
    mixture degenerates to domain sampling and the flag is set.
    """
    gap_cells = np.flatnonzero(gap_ring(v_grid, c, gamma))
    gap_empty = bool(gap_cells.size == 0)
    if gap_empty:
        log.warning("gap ring is empty on the grid; sampling the whole domain")
    return (draw_mixture(gap_cells, np.arange(grid.n_cells), beta, n, grid, rng),
            gap_empty)


def label_batch(x0s: np.ndarray, f_pi, est: LevelSetEstimate,
                rollout_steps: int, box) -> LabeledBatch:
    """Split the batch by whether the rollout's final state lands in S_c.

    Rows roll forward in :func:`~roagrow.dynamics.roll_forward` with a
    radius-0 ball, so a row retires, labeled out, only by leaving ``box``,
    the half-widths of :meth:`~roagrow.grid.GridDomain.safety_box`.
    V runs on the whole batch in order, since its low bits depend on the
    batch size.
    """
    if rollout_steps < 1:
        raise ValueError("rollout_steps must be >= 1")
    _, running, x = roll_forward(f_pi, x0s.T, rollout_steps, 0.0, 0, box)
    finals = np.array(x0s, dtype=float)
    finals[running] = x.T
    inside = np.zeros(len(x0s), dtype=bool)
    inside[running] = est.net.value(finals)[running] < est.c
    return LabeledBatch(x_in=x0s[inside], x_out=x0s[~inside])


def _loss_batch(x_in, x_out, xin_next, cfg: RedesignConfig):
    """The rows and weights of one growth iteration's SGD steps, fixed while
    its batch is: ``[x_in; x_out; xin_next]`` and the classifier and decrease
    weights of each row divided by the batch size."""
    n_in, n_out = len(x_in), len(x_out)
    weights = np.concatenate([np.full(n_in, 1.0 - cfg.lambda_roa),
                              np.full(n_out, -1.0),
                              np.full(n_in, cfg.lambda_roa)])
    return (np.concatenate([x_in, x_out, xin_next]),
            weights / max(1, n_in + n_out))


def _roa_loss_grad(work: Workspace, x, weights, prev_vals, cfg: RedesignConfig):
    """The four-term training objective and its gradient w.r.t. the free
    blocks of ``work``'s net, from one forward and one reverse pass over the
    rows ``x`` that :func:`_loss_batch` stacks as [x_in; x_out; xin_next]:

    classifier terms: sum_in (V - c_bar) - sum_out (V - c_bar)
    decrease term:    lambda_roa * sum_in (V(f_pi(x)) - V(x))
    monotonicity:     lambda_monot * sum_in (V(x) - prev_vals)^2

    ``xin_next`` holds f_pi(x_in) and ``prev_vals`` the frozen target
    V_prev(f_pi(x_in)), one value per row of ``x_in``; no gradient reaches
    them.  The returned gradient is normalized by the batch size, as are
    ``weights``, so the step size stays comparable across the growing sample
    schedule; the loss itself is the plain sum, in float64.

    Only the classifier and decrease terms are capped at ``cfg.roa_grad_clip``:
    they are linear in V and unbounded below, so the cap is what keeps
    training in the useful regime.  The monotonicity term is a squared error,
    bounded below, and is added after the cap: capped with the linear
    terms it would be scaled to about 1e-10 per step and have no effect.
    Its gradient comes from a second weight column of the same reverse pass.

    The gradient is ``work``'s own array, which the next pass overwrites.
    """
    n_in = len(prev_vals)
    n_out = len(x) - 2 * n_in
    v = work.forward(x).astype(float, copy=False)
    v_in, v_out, v_next = v[:n_in], v[n_in:n_in + n_out], v[n_in + n_out:]
    gap = v_in - prev_vals
    loss = float((v_in - C_BAR).sum() - (v_out - C_BAR).sum()
                 + cfg.lambda_roa * (v_next - v_in).sum()
                 + cfg.lambda_monot * (gap ** 2).sum())
    w_monot = None
    if cfg.lambda_monot and n_in:
        w_monot = 2.0 * cfg.lambda_monot * gap / max(1, n_in + n_out)
    work.backward(weights, w_monot)
    return loss, work.clip(cfg.roa_grad_clip)


def line_search_level(net: PDLyapunovNet, v: np.ndarray, images: np.ndarray,
                      grid: GridDomain) -> float:
    """Largest grid V-value c such that S_c stays off the domain boundary and
    every cell of S_c except the nearest-to-origin one strictly decreases.

    ``v`` holds V at the cell centres and ``images`` the centres' images
    under the closed loop.  The level is capped by the first violating cell;
    sublevel sets are strict, so that cell itself stays outside.  The lowest
    boundary cell bounds it, so V at the images is needed only for the
    cells below that cell: they are evaluated in V order, in blocks of
    ``VALUE_BLOCK`` rows, up to the first block that holds a violation.  The
    result is the float the rule gives on V at every image, bit for bit:
    OpenBLAS may change V's low bits only in batches of 18 rows or fewer, and
    a grid that one block covers is evaluated whole, in cell order.  When
    even the lowest cell but the origin's violates, that cell's value is the
    level, which leaves an estimate with empty interior.
    """
    if float(v.max() - v.min()) < 1e-12:
        raise DegenerateLevelError("V is constant on the grid")
    origin = grid.origin_index()
    edge = grid.boundary_mask()
    edge[origin] = False
    level = float(v[edge].min())
    below = v < level
    below[origin] = False
    # the cells below the cap in V order, then the rest, which pad a block
    order = np.argsort(np.where(below, v, np.inf), kind="stable")
    rows = min(VALUE_BLOCK, len(v))
    for start in range(0, int(below.sum()), rows):
        cells = np.sort(order[min(start, len(v) - rows):][:rows])
        violating = cells[(net.value(images[cells]) - v[cells] >= 0) & below[cells]]
        if violating.size:
            return float(v[violating].min())
    return level


def estimate_roa(prev_est: LevelSetEstimate, prev_v: np.ndarray, f_pi,
                 cfg: RedesignConfig, batch_size: int, grid: GridDomain,
                 rng: np.random.Generator):
    """Run the growth loop and return ``(estimate, v_grid, records)``.

    Training starts from a copy of the previous phase's net; ``prev_est``
    stays frozen and only feeds the monotonicity target, V_prev(f_pi(x_in)),
    and ``prev_v`` holds the previous net's V at the cell centres.  Each of the
    ``cfg.growth_iters`` iterations samples ``batch_size`` states (the
    phase's ``cfg.batch_size(phase)``), takes an equal share of
    ``cfg.roa_sgd_steps``, at least one step, evaluates the net on the grid
    once, at the centres, and line-searches the level on a prefix of the
    centres' images under ``f_pi``; the values at the centres also serve the
    next iteration's sampling.  The steps run in one float32
    :class:`~roagrow.lyapunov.Workspace`, sized by each iteration's batch and
    released before each grid pass.  The returned
    estimate is the iterate whose line-searched sublevel set covers the most
    grid cells, so a degraded late iteration cannot erase a good inner
    estimate found earlier in the phase; ``v_grid`` holds its V at the cell
    centres.
    """
    box = grid.safety_box(cfg.safety_box_factor)
    net = prev_est.net.copy()
    work = Workspace(net, np.float32)
    c, v = prev_est.c, prev_v
    steps_per_iter = max(1, cfg.roa_sgd_steps // cfg.growth_iters)
    centers = grid.centers()
    next_centers = f_pi(centers)
    records = []
    best = None
    best_frac = -1.0
    for m in range(1, cfg.growth_iters + 1):
        x0s, gap_empty = sample_mixture(v, c, cfg.gamma_r, cfg.beta_r,
                                        batch_size, grid, rng)
        labeled = label_batch(x0s, f_pi, LevelSetEstimate(net, c),
                              cfg.rollout_steps_r, box)
        x_in, x_out = labeled.x_in, labeled.x_out
        xin_next = f_pi(x_in)
        prev_vals = prev_est.net.value(xin_next)
        x, weights = _loss_batch(x_in, x_out, xin_next, cfg)
        loss = 0.0
        for _ in range(steps_per_iter):
            loss, grad = _roa_loss_grad(work, x, weights, prev_vals, cfg)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite RoA loss at growth iteration {m}: "
                    f"|in|={len(x_in)} |out|={len(x_out)} c={c:.4g}")
            net.sgd_step(grad, cfg.roa_lr)
        work.release()
        v = net.value(centers)
        c = line_search_level(net, v, next_centers, grid)
        frac = float((v < c).sum()) / grid.n_cells
        cbar_frac = float((v < C_BAR).sum()) / grid.n_cells
        records.append(GrowthRecord(m, c, frac, cbar_frac, loss, gap_empty))
        if frac >= best_frac:
            best = (LevelSetEstimate(net.copy(), c), v)
            best_frac = frac
    return *best, records
