"""Inverted pendulum model, Euler discretization, rollouts, and LQR design.

States are plain numpy arrays: a single state is shape ``(2,)`` holding
``(theta, omega)`` and a batch is shape ``(n, 2)``.  Every operation here is a
pure function of its inputs, safe to call concurrently.  :func:`roll_forward`
is the one loop that rolls batches forward, for the oracle and the labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import policy_eval

__all__ = [
    "PendulumParams",
    "LinearModel",
    "ClosedLoopMap",
    "RiccatiConvergenceError",
    "pendulum_deriv",
    "step_euler",
    "step_jacobians",
    "closed_loop",
    "roll_forward",
    "out_of_box",
    "dare_lqr",
]


@dataclass(frozen=True)
class PendulumParams:
    """Physical constants plus the forward-Euler step size."""

    g: float = 0.81
    length: float = 0.5
    inertia: float = 0.25
    friction: float = 0.0
    dt: float = 0.01

    def __post_init__(self):
        for name in ("g", "length", "inertia", "friction", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("length", "inertia", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.friction >= 0:
            raise ValueError("friction must be non-negative")


@dataclass(frozen=True)
class LinearModel:
    """Discrete-time linearization x' = A x + B u."""

    a: np.ndarray                      # (d, d)
    b: np.ndarray                      # (d, p)

    def __post_init__(self):
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("A must be square")
        if self.b.ndim != 2 or self.b.shape[0] != self.a.shape[0]:
            raise ValueError("B row count must match A")


class RiccatiConvergenceError(RuntimeError):
    """Fixed-point Riccati iteration failed to converge."""


def pendulum_deriv(state, u, p: PendulumParams):
    """Continuous-time derivatives (dtheta, domega).

    dtheta = omega
    domega = (g/l) sin(theta) + u/I - friction * omega / I

    ``state`` may be a single ``(2,)`` state or a batch ``(n, 2)``; ``u`` is a
    scalar or ``(n,)`` array of input forces.  Without friction the last term
    is skipped: it would subtract ±0, which can change only the sign of an
    exact-zero domega.
    """
    state = np.asarray(state, dtype=float)
    omega = state[..., 1]
    # the operations of (g/l) sin(theta) + u/I - friction * omega / I, in order
    domega = np.sin(state[..., 0])
    domega *= p.g / p.length
    domega += np.asarray(u) / p.inertia
    if p.friction:
        domega -= p.friction * omega / p.inertia
    return omega, domega


def step_euler(state, u, p: PendulumParams):
    """One forward-Euler step x + dt * xdot, same shape as ``state``.

    The output keeps the input's memory layout, so an ``(m, 2)`` batch with
    contiguous columns gives one back.
    """
    state = np.asarray(state, dtype=float)
    dtheta, domega = pendulum_deriv(state, u, p)
    out = np.empty_like(state)
    np.add(state[..., 0], p.dt * dtheta, out=out[..., 0])
    np.add(state[..., 1], p.dt * domega, out=out[..., 1])
    return out


def step_jacobians(state, p: PendulumParams):
    """Analytic Jacobians of the Euler step: (df/dx with u held, df/du).
    At the origin they are the LQR design model.

    df/dx = [[1, dt], [dt*(g/l)*cos(theta), 1 - dt*friction/I]]
    df/du = [0, dt/I]

    For a batch ``(n, 2)`` the state Jacobian is ``(n, 2, 2)``; df/du does not
    depend on the state and is always ``(2,)``.
    """
    state = np.asarray(state, dtype=float)
    theta = state[..., 0]
    a = np.zeros(theta.shape + (2, 2), dtype=float)
    a[..., 0, 0] = 1.0
    a[..., 0, 1] = p.dt
    a[..., 1, 0] = p.dt * (p.g / p.length) * np.cos(theta)
    a[..., 1, 1] = 1.0 - p.dt * p.friction / p.inertia
    b = np.array([0.0, p.dt / p.inertia])
    return a, b


class ClosedLoopMap:
    """Discrete map f_pi(x) = step_euler(x, policy(x)); the trajectory-gradient
    code reads its ``policy`` and ``params`` to differentiate each step."""

    def __init__(self, policy, params: PendulumParams):
        self.policy = policy
        self.params = params

    def __call__(self, state):
        return step_euler(state, policy_eval(state, self.policy), self.params)

    @property
    def odd(self) -> bool:
        """f(-x) == -f(x) bitwise, up to the sign of an exact zero, when the
        saturation is point-symmetric: given an odd ``np.sin``, every operation
        commutes with negation, the zero-slope clamp to [-a, a] too, since
        ``max`` and ``min`` return one of their operands.  A subclass that
        changes the map overrides it."""
        psi = self.policy.psi
        return psi.a == -psi.b and psi.m_a == psi.m_b


def closed_loop(policy, params: PendulumParams) -> ClosedLoopMap:
    """Compose a policy with the Euler pendulum into an autonomous map."""
    return ClosedLoopMap(policy, params)


def out_of_box(states: np.ndarray, box) -> np.ndarray:
    """Rows of ``states`` outside the rectangle ``((tlo, thi), (wlo, whi))``;
    the in-box test is negated, so a row with a NaN counts as out."""
    (tlo, thi), (wlo, whi) = box
    th, om = states[..., 0], states[..., 1]
    return ~((tlo <= th) & (th <= thi) & (wlo <= om) & (om <= whi))


# The tail of a rollout: once at most TAIL_ROWS rows run, a step's
# bookkeeping costs about as much as the map, so the rows are stepped
# TAIL_BLOCK steps at a time and the rule runs once per block.  While more rows
# run, each step retires its rows at once: fewer map calls on rows already
# settled, and no block of states held.
TAIL_ROWS = 256
TAIL_BLOCK = 32


def roll_forward(f, x0, k_max: int, ball_radius: float, confirm_steps: int, box):
    """Roll the states ``x0``, shape ``(2, m)``, forward under ``f``, retiring
    each row on the step it converges or fails.

    A row converges when it gets within ``ball_radius`` of the origin within
    ``k_max`` steps and stays within ``2 * ball_radius`` for the next
    ``confirm_steps`` steps, and fails on leaving ``box``.  The ball test is
    strict, so with ``ball_radius = 0`` a row retires only by leaving the box.
    ``f`` must be row-wise; each call passes it rows in ascending order as an
    ``(m, 2)`` view, so it must not assume C order.  The view's columns are
    contiguous in the blocks below, and in every step when ``f`` returns its
    input's layout (:class:`ClosedLoopMap` does, the fast case).

    While more than ``TAIL_ROWS`` rows run, every call gets exactly the rows
    still running.  From then on the rows are stepped in blocks of up to
    ``TAIL_BLOCK`` steps, each within the budget ``k_max`` or past it, and
    the rule is applied to the whole block: a row retires on the step the
    per-step rule would retire it, but ``f`` goes on seeing it to the end of
    the block, for at most ``TAIL_BLOCK - 1`` steps, and its results there
    are discarded.  Since ``f`` is row-wise, no verdict or state depends on
    the body that rolled it.

    ``np.hypot`` runs only on rows inside the square ``max(|theta|, |omega|)
    < 2 * ball_radius``: a faithfully rounded hypot of any other row is at
    least ``2 * ball_radius`` too, so inf stands in for it.  A NaN row fails.
    A box symmetric about the origin (decided once from its four scalars) is
    tested as ``|theta| <= thi and |omega| <= whi`` on the ``|x|`` the ball
    test holds, which fails a NaN row too; any other box by :func:`out_of_box`.

    Returns ``(converged, running, x)``: the flags of every row, the rows
    still running after ``k_max + confirm_steps`` steps, in ascending order,
    and their states, shape ``(2, len(running))``.
    """
    # only the rows still running are kept, in ascending order: the state
    # (one contiguous row per coordinate), the step it entered the ball on
    # (-1 for a row starting inside, ``never`` before) and the row's index
    x = np.ascontiguousarray(x0)
    never = np.iinfo(np.int64).max
    entered = np.where(np.hypot(x[0], x[1]) < ball_radius, -1, never)
    idx = np.arange(x.shape[1])
    converged = np.zeros(len(idx), dtype=bool)
    wait = max(confirm_steps, 1)       # entered on step j: confirmed on j + wait
    k, end = 0, k_max + confirm_steps
    (tlo, thi), (wlo, whi) = box
    symmetric = tlo == -thi and wlo == -whi

    def outside(x, ax):
        if not symmetric:
            return out_of_box(np.swapaxes(x, -1, -2), box)
        # the in-box test negated, so that a NaN row fails
        inb = ax[..., 0, :] <= thi
        inb &= ax[..., 1, :] <= whi
        return np.logical_not(inb, out=inb)

    while k < end and len(idx) > TAIL_ROWS:
        x = f(x.T).T
        # the box test and the hypot prefilter share |x|; hypot runs only
        # inside the square, outside it inf stands in
        near = np.abs(x)
        failed = outside(x, near)
        near = near < 2 * ball_radius
        near = np.logical_and(near[0], near[1], out=near[0])
        nrm = np.hypot(x[0], x[1], out=np.full(len(idx), np.inf), where=near)
        # confirmation first: rows that entered on an earlier step must stay
        # within twice the ball radius until they are confirmed
        confirming = entered < k
        failed |= confirming & (nrm >= 2 * ball_radius)
        conv = entered <= k - wait
        conv &= ~failed
        if k < k_max:
            entered[~confirming & (nrm < ball_radius)] = k
        else:
            # past the budget only confirmation may continue
            failed |= ~confirming
        retire = np.logical_or(failed, conv, out=failed)
        if retire.any():
            converged[idx[conv]] = True
            keep = ~retire
            x, entered, idx = x.compress(keep, axis=1), entered[keep], idx[keep]
        k += 1

    # the tail, a block at a time: block[j] holds the states after step k + j
    buf = np.empty((TAIL_BLOCK, 2, min(len(idx), TAIL_ROWS)))
    while k < end and len(idx):
        m = len(idx)
        block = buf[:min(TAIL_BLOCK, (k_max if k < k_max else end) - k), :, :m]
        for j in range(len(block)):
            block[j] = f((block[j - 1] if j else x).T).T
        near = np.abs(block)
        failed = outside(block, near)
        near = near < 2 * ball_radius
        near = np.logical_and(near[:, 0], near[:, 1], out=near[:, 0])
        nrm = np.hypot(block[:, 0], block[:, 1], out=np.full(near.shape, np.inf),
                       where=near)
        step = np.arange(k, k + len(block))[:, None]
        cols = np.arange(m)
        if k < k_max:
            # a row not yet in the ball enters on its first step inside it
            inside = nrm < ball_radius
            first = inside.argmax(axis=0)
            entered = np.where((entered == never) & inside[first, cols],
                               k + first, entered)
        # the per-step rule on every step of the block at once
        confirming = entered < step
        failed |= confirming & (nrm >= 2 * ball_radius)
        conv = entered <= step - wait
        conv &= ~failed
        if k >= k_max:
            # past the budget only confirmation may continue
            failed |= ~confirming
        retire = np.logical_or(failed, conv, out=failed)
        # each row retires on its first retiring step
        at = retire.argmax(axis=0)
        converged[idx[conv[at, cols]]] = True
        keep = ~retire[at, cols]
        x, entered, idx = block[-1].compress(keep, axis=1), entered[keep], idx[keep]
        k += len(block)

    return converged, idx, x


def riccati_step(p_mat: np.ndarray, m: LinearModel, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One application of the discrete Riccati recursion."""
    a, b = m.a, m.b
    s = r + b.T @ p_mat @ b
    return a.T @ p_mat @ a - a.T @ p_mat @ b @ np.linalg.solve(s, b.T @ p_mat @ a) + q


def dare_lqr(m: LinearModel, q: np.ndarray, r: np.ndarray,
             tol: float = 1e-10, max_iter: int = 10_000):
    """Discrete-time LQR gain by fixed-point iteration of the Riccati recursion.

    Iterates P <- A'PA - A'PB (R + B'PB)^-1 B'PA + Q until the max-norm change
    drops below ``tol``.  Returns ``(K, P)`` for the feedback law u = -K x.
    Raises :class:`RiccatiConvergenceError` after ``max_iter`` iterations.
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    p_mat = q.copy()
    for it in range(max_iter):
        p_next = riccati_step(p_mat, m, q, r)
        if not np.all(np.isfinite(p_next)) or np.max(np.abs(p_next)) > 1e150:
            raise RiccatiConvergenceError(
                f"Riccati iteration diverged at iteration {it}; "
                "(A, B) is likely not stabilizable")
        if np.max(np.abs(p_next - p_mat)) < tol:
            p_mat = p_next
            break
        p_mat = p_next
    else:
        raise RiccatiConvergenceError(
            f"Riccati iteration did not converge within {max_iter} iterations")
    k = np.linalg.solve(r + m.b.T @ p_mat @ m.b, m.b.T @ p_mat @ m.a)
    return k, p_mat
