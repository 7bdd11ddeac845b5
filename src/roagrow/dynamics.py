"""Inverted pendulum model, Euler discretization, rollouts, and LQR design.

States are plain numpy arrays: a single state is shape ``(2,)`` holding
``(theta, omega)`` and a batch is shape ``(n, 2)``.  Every operation here is a
pure function of its inputs, so all of them are safe to call concurrently and
to vectorize over batches.
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
    "rollout_batch",
    "out_of_box",
    "linearize",
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
        if self.length <= 0 or self.inertia <= 0 or self.dt <= 0:
            raise ValueError("length, inertia and dt must be positive")
        if self.friction < 0:
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
    scalar or ``(n,)`` array of input forces.
    """
    state = np.asarray(state, dtype=float)
    omega = state[..., 1]
    # the operations of (g/l) sin(theta) + u/I - friction * omega / I, in order
    domega = np.sin(state[..., 0])
    domega *= p.g / p.length
    domega += np.asarray(u) / p.inertia
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


def closed_loop(policy, params: PendulumParams) -> ClosedLoopMap:
    """Compose a policy with the Euler pendulum into an autonomous map."""
    return ClosedLoopMap(policy, params)


def out_of_box(states: np.ndarray, box) -> np.ndarray:
    """Rows of ``states`` outside the rectangle ``((tlo, thi), (wlo, whi))``;
    the in-box test is negated, so a row with a NaN counts as out."""
    (tlo, thi), (wlo, whi) = box
    th, om = states[..., 0], states[..., 1]
    return ~((tlo <= th) & (th <= thi) & (wlo <= om) & (om <= whi))


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
        out = out_of_box(xn, box)
        idx = np.flatnonzero(alive)
        diverged[idx[out]] = True
        x[idx[~out]] = xn[~out]
    return x, diverged


def linearize(step_fn, s0, u0: float, h: float = 1e-5) -> LinearModel:
    """Central finite-difference Jacobians of a discrete map at (s0, u0).

    ``step_fn(state, u)`` must return the next state.  Used for the LQR design
    point; the analytic Jacobians in :func:`step_jacobians` serve as the
    independent cross-check in the test suite.
    """
    s0 = np.asarray(s0, dtype=float)
    d = s0.shape[0]
    a = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        a[:, i] = (np.asarray(step_fn(s0 + e, u0)) - np.asarray(step_fn(s0 - e, u0))) / (2 * h)
    b = ((np.asarray(step_fn(s0, u0 + h)) - np.asarray(step_fn(s0, u0 - h))) / (2 * h))
    return LinearModel(a, b.reshape(d, 1))


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
