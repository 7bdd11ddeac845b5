"""Ground truth: brute-force RoA classification and mask serialization.

Every grid cell is integrated forward under the closed-loop map; a cell
counts as attracted when its trajectory enters a small ball around the origin
within the step budget and then stays inside twice that radius for a
confirmation window.  The cells roll forward in
:func:`~roagrow.dynamics.roll_forward`, the loop that also labels the
estimator's samples; the work is embarrassingly parallel over cells, so the
cells may be split over forked processes.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .dynamics import ClosedLoopMap, roll_forward
from .grid import GridDomain

__all__ = [
    "RoaMask",
    "true_roa",
    "save_mask_pgm",
    "load_mask_pgm",
    "save_mask_csv",
]


@dataclass
class RoaMask:
    """Boolean per grid cell, true = classified as converging."""

    values: np.ndarray                 # (n_cells,), bool
    n_theta: int
    n_omega: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=bool)
        if self.values.shape != (self.n_theta * self.n_omega,):
            raise ValueError("mask length must equal n_theta * n_omega")

    @property
    def fraction(self) -> float:
        return float(self.values.sum()) / self.values.size

    def boundary_cells(self) -> np.ndarray:
        """True cells with at least one false 4-neighbor (or on the rim)."""
        m = self.values.reshape(self.n_omega, self.n_theta)
        inner = np.zeros_like(m)
        inner[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
                             & m[1:-1, :-2] & m[1:-1, 2:])
        return (m & ~inner).ravel()


def true_roa(f, grid: GridDomain, k_max: int = 8000, ball_radius: float = 0.1,
             confirm_steps: int = 100, box=None, processes: int = 2) -> RoaMask:
    """Classify every cell center by long forward integration under ``f``.

    A cell is attracted when its trajectory gets within ``ball_radius`` of the
    origin within ``k_max`` steps and stays within ``2 * ball_radius`` for the
    following ``confirm_steps`` steps.  Trajectories leaving ``box`` (by
    default ``grid.safety_box()``) are classified as not attracted.  ``f``
    must meet the contract of :func:`~roagrow.dynamics.roll_forward`, the
    loop the cells roll in: it is row-wise, and once a part has
    ``TAIL_ROWS`` or fewer cells running it may see a settled cell for up to
    ``TAIL_BLOCK - 1`` more steps.

    The cells are dealt into ``p = min(processes, usable CPUs, n_cells)``
    interleaved parts: part ``i`` holds cells ``i, i + p, i + 2p, ...``.  Part
    0 runs in the calling process and every other part in a forked child
    (POSIX ``fork``), so ``f`` needs no pickling but its side effects in a
    child are lost.  Each cell's steps are the same in any part, so the mask
    does not depend on ``p``.  An error in any part is raised here once every
    child is reaped.  Pass ``processes=1`` where other work runs beside the
    oracle.

    When ``f`` is a :class:`~roagrow.dynamics.ClosedLoopMap` whose ``odd`` is
    true and the grid is centred at the origin, only cells ``0 ...
    ceil(n_cells / 2) - 1`` are rolled, split as above, and cell
    ``n_cells - 1 - c`` takes cell ``c``'s verdict.  This is exact: its centre
    is bitwise the negation of cell ``c``'s, the odd map keeps every state so
    up to the sign of a zero, and the ball and box tests read only ``|x|``.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if processes < 1:
        raise ValueError("processes must be >= 1")
    if box is None:
        box = grid.safety_box()

    n = grid.n_cells
    mirror = (isinstance(f, ClosedLoopMap) and f.odd
              and grid.theta_min == -grid.theta_max and grid.omega_min == -grid.omega_max)
    converged = np.empty(n, dtype=bool)
    rolled = converged[:(n + 1) // 2] if mirror else converged
    x0 = grid.centers()[:len(rolled)].T
    p = min(processes, _usable_cpus(), len(rolled))
    rule = (k_max, ball_radius, confirm_steps, box)
    # the children start first, so they run while this process does part 0;
    # every child is joined whatever failed, and the first error is raised
    joins, error = [], None
    try:
        for i in range(1, p):
            joins.append(_start_in_child(roll_forward, f, x0[:, i::p], *rule))
        rolled[::p] = roll_forward(f, x0[:, ::p], *rule)[0]
    except BaseException as exc:
        error = exc
    for i, join in enumerate(joins, start=1):
        try:
            rolled[i::p] = join()[0]
        except BaseException as exc:
            error = error or exc
    if error is not None:
        raise error
    # cell n - 1 - c takes cell c's verdict; both slices are empty unmirrored
    converged[len(rolled):] = converged[:n - len(rolled)][::-1]
    return RoaMask(converged, grid.n_theta, grid.n_omega)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_in_child(fn, *args):
    """Call ``fn(*args)`` in a forked child and return a function that waits
    for it: that function returns the child's result or raises its exception
    (one that does not pickle as a RuntimeError naming it), and always reaps
    the child.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                blob = pickle.dumps((True, fn(*args)))
            except BaseException as exc:
                try:
                    blob = pickle.dumps((False, exc))
                    pickle.loads(blob)
                except Exception:
                    blob = pickle.dumps((False, RuntimeError(
                        f"the oracle child raised an exception that does not "
                        f"pickle: {exc!r}")))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(blob)
            code = 0
        finally:
            # no flush of the parent's buffers, no finally blocks of its frames
            os._exit(code)
    os.close(write_fd)

    def join():
        # read to EOF before waiting: a result larger than the pipe buffer
        # would block the child's write, and so its exit
        try:
            with os.fdopen(read_fd, "rb") as fh:
                blob = fh.read()
        finally:
            _, status = os.waitpid(pid, 0)
        if not blob:
            raise RuntimeError(f"the oracle child exited without a result "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(blob)
        if not ok:
            raise value
        return value

    return join


# -- mask serialization ------------------------------------------------------

def save_mask_pgm(mask: RoaMask, path):
    """Binary portable graymap, one byte per cell (255 = attracted).

    Bytes follow the mask's own layout: row-major with theta fastest, the
    first row at omega_min.
    """
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mask.n_theta} {mask.n_omega}\n255\n".encode("ascii"))
        fh.write((mask.values.astype(np.uint8) * 255).tobytes())


def load_mask_pgm(path) -> RoaMask:
    """Read a mask written by :func:`save_mask_pgm`; a truncated or malformed
    file raises a ValueError that names the defect."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ValueError("not a binary PGM file")
    if len(parts) < 4:
        raise ValueError("PGM header is truncated: expected size and maxval lines")
    dims = parts[1].split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims) or parts[2] != b"255":
        raise ValueError(f"malformed PGM header {parts[1]!r}, {parts[2]!r}: "
                         "expected '<width> <height>' and '255'")
    n_theta, n_omega = (int(d) for d in dims)
    if len(parts[3]) != n_theta * n_omega:
        defect = "truncated" if len(parts[3]) < n_theta * n_omega else "too long"
        raise ValueError(f"PGM payload is {defect}: expected {n_theta * n_omega} "
                         f"bytes for {n_theta} x {n_omega}, got {len(parts[3])}")
    data = np.frombuffer(parts[3], dtype=np.uint8)
    return RoaMask(data > 0, n_theta, n_omega)


def save_mask_csv(mask: RoaMask, path):
    """One line per omega row (omega_min first), 0/1 for each theta cell."""
    img = mask.values.reshape(mask.n_omega, mask.n_theta)
    with open(path, "w", encoding="ascii") as fh:
        for row in img:
            fh.write(",".join("1" if v else "0" for v in row) + "\n")
