"""Saturated LQR controller u = sat(-K x) with trainable shaping parameters.

The saturation is piecewise linear: identity on [b, a], slope ``m_a`` above
``a`` and slope ``m_b`` below ``b``.  Policy values are immutable; every
update produces a new object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SatParams",
    "SatPolicy",
    "sat",
    "sat_slope",
    "policy_eval",
    "policy_grad_psi",
    "project_psi",
    "crop_update",
]

@dataclass(frozen=True)
class SatParams:
    """Loose-saturation shape: thresholds (a, b) and outer slopes (m_a, m_b)."""

    a: float = 0.2
    b: float = -0.2
    m_a: float = 0.0
    m_b: float = 0.0
    # Which of (a, b, m_a, m_b) the policy updater may change.
    trainable: tuple = (True, True, False, False)

    def __post_init__(self):
        if self.b > self.a:
            raise ValueError("saturation requires b <= a")
        if self.m_a < 0 or self.m_b < 0:
            raise ValueError("outer slopes must be non-negative")
        if len(self.trainable) != 4:
            raise ValueError("trainable mask must cover (a, b, m_a, m_b)")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.m_a, self.m_b])

    def with_array(self, values: np.ndarray) -> "SatParams":
        return replace(self, a=float(values[0]), b=float(values[1]),
                       m_a=float(values[2]), m_b=float(values[3]))

    def mask(self) -> np.ndarray:
        return np.array(self.trainable, dtype=float)


@dataclass(frozen=True)
class SatPolicy:
    """LQR gain plus saturation shape; the full trainable controller."""

    k: np.ndarray                      # (2,), feedback law u = sat(-k @ x)
    psi: SatParams
    crop_radius: float = 0.1

    def __post_init__(self):
        if not np.all(np.isfinite(self.k)):
            raise ValueError("gain must be finite")
        if self.crop_radius <= 0:
            raise ValueError("crop_radius must be positive")


def sat(z, psi: SatParams):
    """Loose saturation, identity on [b, a], linear continuation outside."""
    z = np.asarray(z, dtype=float)
    out = np.where(z < psi.b, psi.b + psi.m_b * (z - psi.b), z)
    np.putmask(out, z > psi.a, psi.a + psi.m_a * (z - psi.a))
    return out


def sat_slope(z, psi: SatParams):
    """d sat / dz.  At the kinks the identity branch is used."""
    z = np.asarray(z, dtype=float)
    return np.where(z > psi.a, psi.m_a, np.where(z < psi.b, psi.m_b, 1.0))


def policy_eval(state, pol: SatPolicy):
    """Control signal sat(-K x); scalar for a single state, (n,) for a batch."""
    state = np.asarray(state, dtype=float)
    z = state[..., 0] * pol.k[0]
    z += state[..., 1] * pol.k[1]
    return sat(-z, pol.psi)


def policy_grad_psi(state, pol: SatPolicy) -> np.ndarray:
    """Exact piecewise derivative of the control w.r.t. (a, b, m_a, m_b).

    Zero on the closed identity band (kinks take the identity branch);
    for z > a: du/da = 1 - m_a, du/dm_a = z - a; mirrored for z < b.
    The trainable mask is *not* applied here; callers mask as needed.
    Shape is ``(..., 4)`` in (a, b, m_a, m_b) order.
    """
    state = np.asarray(state, dtype=float)
    z = -(state[..., 0] * pol.k[0] + state[..., 1] * pol.k[1])
    psi = pol.psi
    grad = np.zeros(z.shape + (4,), dtype=float)
    hi = z > psi.a
    lo = z < psi.b
    grad[..., 0] = np.where(hi, 1.0 - psi.m_a, 0.0)
    grad[..., 2] = np.where(hi, z - psi.a, 0.0)
    grad[..., 1] = np.where(lo, 1.0 - psi.m_b, 0.0)
    grad[..., 3] = np.where(lo, z - psi.b, 0.0)
    return grad


def project_psi(values: np.ndarray) -> np.ndarray:
    """Make raw (a, b, m_a, m_b) a valid shape: outer slopes clipped to >= 0,
    then b projected down to a if it lies above it."""
    out = np.array(values, dtype=float)
    out[2] = max(out[2], 0.0)
    out[3] = max(out[3], 0.0)
    if out[1] > out[0]:
        out[1] = out[0]
    return out


def crop_update(old_psi: SatParams, proposed,
                crop_radius: float) -> SatParams:
    """Clamp every trainable entry to within crop_radius of its old value.

    Bounding the per-phase policy change keeps the induced RoA moving
    continuously.  After clamping, :func:`project_psi` makes the shape valid
    again.  ``proposed`` is a raw (a, b, m_a, m_b) array, which admits
    unordered proposals straight out of a gradient step.
    """
    if crop_radius <= 0:
        raise ValueError("crop_radius must be positive")
    old = old_psi.as_array()
    new = np.asarray(proposed, dtype=float)
    if new.shape != (4,):
        raise ValueError("proposed parameters must be (a, b, m_a, m_b)")
    mask = np.array(old_psi.trainable, dtype=bool)
    out = old.copy()
    out[mask] = np.clip(new[mask], old[mask] - crop_radius, old[mask] + crop_radius)
    return old_psi.with_array(project_psi(out))
