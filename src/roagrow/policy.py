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
    "sat_derivs",
    "policy_input",
    "policy_eval",
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
        if not self.b <= self.a:
            raise ValueError("b must not exceed a")
        for name in ("m_a", "m_b"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if len(self.trainable) != 4:
            raise ValueError("trainable must cover (a, b, m_a, m_b)")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.m_a, self.m_b])

    def with_array(self, values: np.ndarray) -> "SatParams":
        return replace(self, a=float(values[0]), b=float(values[1]),
                       m_a=float(values[2]), m_b=float(values[3]))

    def mask(self) -> np.ndarray:
        return np.array(self.trainable, dtype=float)


@dataclass(frozen=True)
class SatPolicy:
    """The controller u = sat_psi(-K x) as the pair (K, psi)."""

    k: np.ndarray                      # (2,), feedback law u = sat(-k @ x)
    psi: SatParams

    def __post_init__(self):
        if not np.all(np.isfinite(self.k)):
            raise ValueError("k must be finite")


def sat(z, psi: SatParams):
    """Loose saturation, identity on [b, a], linear continuation outside.

    With both slopes 0 it is the clamp ``min(max(z, b), a)``: on every finite
    z ``b + 0 * (z - b)`` is exactly b, so the bits are the formula's (up to
    the sign of a zero threshold), and NaN stays NaN.  Only ±inf differ: they
    clamp to b and a, where ``0 * inf`` would give NaN.
    """
    z = np.asarray(z, dtype=float)
    if psi.m_a == 0 and psi.m_b == 0:
        return np.minimum(np.maximum(z, psi.b), psi.a)
    out = np.where(z < psi.b, psi.b + psi.m_b * (z - psi.b), z)
    np.putmask(out, z > psi.a, psi.a + psi.m_a * (z - psi.a))
    return out


def sat_derivs(z, psi: SatParams, out: np.ndarray | None = None):
    """``(d sat/dz, d sat/d(a, b, m_a, m_b))``, both from one pair of branch
    masks; the kinks take the identity branch.

    The slope is exactly ``m_a`` above ``a``, ``m_b`` below ``b`` and 1.0 on
    the closed identity band.  The ψ-gradient is zero on the band; for
    z > a: d/da = 1 - m_a, d/dm_a = z - a; mirrored for z < b.  Its shape is
    ``(..., 4)`` in (a, b, m_a, m_b) order, written into ``out`` when it is
    given.  The trainable mask is *not* applied here; callers mask as needed.
    """
    z = np.asarray(z, dtype=float)
    hi = z > psi.a
    lo = z < psi.b
    grad = np.empty(z.shape + (4,), dtype=float) if out is None else out
    grad[..., 0] = np.where(hi, 1.0 - psi.m_a, 0.0)
    grad[..., 2] = np.where(hi, z - psi.a, 0.0)
    grad[..., 1] = np.where(lo, 1.0 - psi.m_b, 0.0)
    grad[..., 3] = np.where(lo, z - psi.b, 0.0)
    return np.where(hi, psi.m_a, np.where(lo, psi.m_b, 1.0)), grad


def policy_input(state, pol: SatPolicy):
    """The saturation's input z = -K x; scalar for a single state, (n,) for
    a batch."""
    state = np.asarray(state, dtype=float)
    z = state[..., 0] * pol.k[0]
    z += state[..., 1] * pol.k[1]
    return -z


def policy_eval(state, pol: SatPolicy):
    """Control signal sat(-K x); scalar for a single state, (n,) for a batch."""
    return sat(policy_input(state, pol), pol.psi)


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
    if not crop_radius > 0:
        raise ValueError("crop_radius must be positive")
    old = old_psi.as_array()
    new = np.asarray(proposed, dtype=float)
    if new.shape != (4,):
        raise ValueError("proposed parameters must be (a, b, m_a, m_b)")
    mask = np.array(old_psi.trainable, dtype=bool)
    out = old.copy()
    out[mask] = np.clip(new[mask], old[mask] - crop_radius, old[mask] + crop_radius)
    return old_psi.with_array(project_psi(out))
