"""Uniform cell grid over the rectangular state-space domain.

Cells are indexed row-major with theta varying fastest: the flat index of
cell (i, j) is ``j * n_theta + i`` where ``i`` counts theta cells and ``j``
counts omega cells.  All set computations in the project (RoA masks, level
sets, gap rings) are carried out on the cell centers.

Cell ``i`` of ``n`` on an axis from ``lo`` to ``hi`` is centred at ``(lo + hi)
/ 2 + (i - (n - 1) / 2) * width``: on a domain centred at the origin, the
centre of cell ``n_cells - 1 - c`` is bitwise the negation of cell ``c``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridDomain"]


@dataclass(frozen=True)
class GridDomain:
    theta_min: float = -np.pi / 2
    theta_max: float = np.pi / 2
    omega_min: float = -2 * np.pi
    omega_max: float = 2 * np.pi
    n_theta: int = 100
    n_omega: int = 100

    def __post_init__(self):
        for name in ("theta_min", "theta_max", "omega_min", "omega_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for lo, hi in (("theta_min", "theta_max"), ("omega_min", "omega_max")):
            if not getattr(self, lo) < getattr(self, hi):
                raise ValueError(f"{lo} must be below {hi}")
        for name in ("n_theta", "n_omega"):
            if not getattr(self, name) >= 2:
                raise ValueError(f"{name} must be >= 2")

    @property
    def n_cells(self) -> int:
        return self.n_theta * self.n_omega

    @property
    def cell_width_theta(self) -> float:
        return (self.theta_max - self.theta_min) / self.n_theta

    @property
    def cell_width_omega(self) -> float:
        return (self.omega_max - self.omega_min) / self.n_omega

    def centers(self) -> np.ndarray:
        """All cell centers, shape (n_cells, 2), theta fastest."""
        th = (0.5 * (self.theta_min + self.theta_max)
              + (np.arange(self.n_theta) - (self.n_theta - 1) / 2) * self.cell_width_theta)
        om = (0.5 * (self.omega_min + self.omega_max)
              + (np.arange(self.n_omega) - (self.n_omega - 1) / 2) * self.cell_width_omega)
        tt, oo = np.meshgrid(th, om)           # rows of constant omega
        return np.stack([tt.ravel(), oo.ravel()], axis=1)

    def boundary_mask(self) -> np.ndarray:
        """Cells in the outermost ring of the rectangle."""
        i = np.arange(self.n_cells) % self.n_theta
        j = np.arange(self.n_cells) // self.n_theta
        return (i == 0) | (i == self.n_theta - 1) | (j == 0) | (j == self.n_omega - 1)

    def origin_index(self) -> int:
        """Index of the cell whose center is nearest the origin; of cells that
        tie (four on a centred even grid), ``argmin`` returns the lowest."""
        c = self.centers()
        return int(np.argmin(c[:, 0] ** 2 + c[:, 1] ** 2))

    def jitter_within(self, cell_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniform points inside the given cells."""
        base = self.centers()[cell_idx]
        off = rng.uniform(-0.5, 0.5, size=(len(cell_idx), 2))
        off[:, 0] *= self.cell_width_theta
        off[:, 1] *= self.cell_width_omega
        return base + off

    def safety_box(self, factor: float = 10.0):
        """Half-widths ``(theta_hi, omega_hi)`` of the box ``|theta| <=
        theta_hi, |omega| <= omega_hi``: the domain's hull about the origin,
        scaled by ``factor``.  Rollouts leaving it are treated as diverged;
        only :func:`~roagrow.dynamics.out_of_box` reads it.  On a domain
        centred at the origin it is the domain scaled about its centre."""
        return (max(-self.theta_min, self.theta_max) * factor,
                max(-self.omega_min, self.omega_max) * factor)
