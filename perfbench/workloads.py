"""The benchmark's workloads: inputs from a seed, one timed operation, and
the checks every operation's outputs must pass.

Each workload builds its inputs from the workload seed only; roagrow sees a
``RedesignConfig`` (and, for the sweep, saturation shapes) and nothing else.
See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import roagrow.oracle as oracle
from roagrow import (LinearModel, RedesignConfig, SatParams, closed_loop,
                     dare_lqr, load_net)
from roagrow.dynamics import step_jacobians
import roagrow.experiment as experiment
from roagrow.experiment import read_metrics

# Step counts are cut about tenfold from the defaults so that one operation
# takes seconds, not minutes; batch sizes, net widths and the 100 x 100 grid
# keep their default values, so every call has the shape a full run gives it.
RUN_SCALE = dict(pretrain_steps=1000, growth_iters=5, roa_sgd_steps=1000,
                 oracle_kmax=1000)
RUN_EARLY = dict(RUN_SCALE, phases=3)
RUN_LATE = dict(RUN_SCALE, phases=2, batch_init=200, batch_increment=0)

# The sweep draws its shapes from the range a default run visits.
SWEEP_SHAPES = 4
THRESHOLD_RANGE = (0.2, 2.2)
SLOPE_RANGE = (0.0, 0.5)
INITIAL_SHAPE = (0.2, -0.2, 0.0, 0.0)


class CheckFailed(AssertionError):
    """An operation's outputs are wrong."""


@dataclass
class OpResult:
    wall_s: float
    digest: str                     # sha256 of metrics.csv, or of all masks
    quality: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    cfg: RedesignConfig
    shapes: list = field(default_factory=list)   # oracle-sweep only

    def run(self, scratch: Path) -> OpResult:
        if self.shapes:
            return sweep_op(self.cfg, self.shapes)
        return run_op(self.cfg, scratch)


def sweep_shapes(seed: int, n: int = SWEEP_SHAPES) -> list:
    """The initial shape plus n - 1 seeded shapes.

    Each coordinate (a, |b|, m_a, m_b) takes the n - 1 points of a lattice
    over its range, shifted by its own seeded offset.  Shape i pairs the i-th
    smallest thresholds with the i-th largest slopes, so the sweep runs from
    narrow, steep shapes (the slopes variant's path) to wide, flat ones (the
    thresholds variant's path).  The oracle's cost falls steeply as
    thresholds and slopes grow; with this fixed pairing the sweep's work
    (cell-steps) differs by about 2% between seeds.
    """
    rng = np.random.default_rng(seed)
    k = n - 1
    rank = np.arange(k)

    def lattice(lo, hi, order):
        return lo + (hi - lo) * (order + rng.random()) / k

    a = lattice(*THRESHOLD_RANGE, rank)
    b = -lattice(*THRESHOLD_RANGE, rank)
    m_a = lattice(*SLOPE_RANGE, rank[::-1])
    m_b = lattice(*SLOPE_RANGE, rank[::-1])
    return [INITIAL_SHAPE] + [(float(a[i]), float(b[i]), float(m_a[i]), float(m_b[i]))
                              for i in range(k)]


def build(name: str, seed: int) -> Workload:
    if name == "run-early":
        return Workload(name, seed, RedesignConfig(seed=seed, **RUN_EARLY))
    if name == "run-late":
        return Workload(name, seed, RedesignConfig(seed=seed, **RUN_LATE))
    if name == "oracle-sweep":
        return Workload(name, seed, RedesignConfig(seed=seed), sweep_shapes(seed))
    raise ValueError(f"unknown workload {name!r}")


def tiny(wl: Workload) -> Workload:
    """The same workload on a 10 x 10 grid with a handful of steps."""
    cfg = replace(wl.cfg, grid_cells=10, pretrain_steps=50, pretrain_batch=32,
                  roa_sgd_steps=20, growth_iters=2, policy_sgd_steps=3,
                  oracle_kmax=200, phases=min(wl.cfg.phases, 1))
    return replace(wl, cfg=cfg, shapes=wl.shapes[:2])


# -- operations --------------------------------------------------------------


def run_op(cfg: RedesignConfig, scratch: Path) -> OpResult:
    """One ``run_redesign`` call in a fresh directory, checked and hashed."""
    with tempfile.TemporaryDirectory(dir=scratch, prefix="run-") as tmp:
        out = Path(tmp)
        t0 = time.perf_counter()
        result = experiment.run_redesign(cfg, out)
        wall = time.perf_counter() - t0
        if result is None:
            raise CheckFailed("run_redesign returned nothing")
        rows = check_run_dir(cfg, out)
        digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    policy_rows = [r for r in rows if r["kind"] == "policy"]
    last = policy_rows[-1] if policy_rows else rows[0]
    quality = {
        "est_fraction": last["est_fraction"],
        "oracle_fraction": last["oracle_fraction"],
        "unsound_fraction": max((r["unsound_fraction"] for r in policy_rows),
                                default=0.0),
    }
    detail = {"artifact_bytes": size,
              "growth_rows": sum(1 for r in rows if r["kind"] == "growth")}
    return OpResult(wall, digest, quality, detail)


def check_run_dir(cfg: RedesignConfig, out: Path) -> list:
    """Output checks of one run; returns the parsed metrics rows."""
    try:
        rows = read_metrics(out / "metrics.csv")
    except (OSError, ValueError, IndexError) as exc:
        raise CheckFailed(f"metrics.csv does not parse: {exc}") from exc
    want = 1 + cfg.phases * (cfg.growth_iters + 1)
    if len(rows) != want:
        raise CheckFailed(f"metrics.csv has {len(rows)} rows, expected {want}")
    if [r["kind"] for r in rows].count("init") != 1:
        raise CheckFailed("metrics.csv needs exactly one init row")
    for i, row in enumerate(rows):
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CheckFailed(f"metrics.csv row {i}: {key} = {value}")
    centers = cfg.grid().centers()
    for phase in range(cfg.phases + 1):
        path = out / "checkpoints" / f"net_phase_{phase:02d}.ckpt"
        try:
            net = load_net(path)
        except (OSError, ValueError, IndexError) as exc:
            raise CheckFailed(f"{path.name} does not load: {exc}") from exc
        if net.value(np.zeros((1, 2)))[0] != 0.0:
            raise CheckFailed(f"{path.name}: V(0) != 0")
        if not np.all(net.value(centers) > 0.0):
            raise CheckFailed(f"{path.name}: V <= 0 at a grid centre")
    return rows


def lqr_gain(cfg: RedesignConfig) -> np.ndarray:
    """LQR gain of the linearised pendulum from the analytic step Jacobians."""
    params = cfg.pendulum_params()
    a, b = step_jacobians(np.zeros(2), params)
    k, _ = dare_lqr(LinearModel(a, b.reshape(2, 1)), cfg.lqr_q * np.eye(2),
                    np.array([[cfg.lqr_r]]))
    return k.reshape(2)


def sweep_op(cfg: RedesignConfig, shapes: list) -> OpResult:
    """``true_roa`` for each saturation shape; masks checked and hashed."""
    grid = cfg.grid()
    box = grid.safety_box(cfg.safety_box_factor)
    params = cfg.pendulum_params()
    t0 = time.perf_counter()
    base = cfg.initial_policy(lqr_gain(cfg))
    masks = []
    for a, b, m_a, m_b in shapes:
        psi = SatParams(a=a, b=b, m_a=m_a, m_b=m_b, trainable=base.psi.trainable)
        f = closed_loop(replace(base, psi=psi), params)
        masks.append(oracle.true_roa(f, grid, cfg.oracle_kmax, cfg.oracle_ball_radius,
                                     cfg.oracle_confirm_steps, box))
    wall = time.perf_counter() - t0
    digests = []
    for shape, mask in zip(shapes, masks):
        values = np.asarray(mask.values)
        if values.shape != (grid.n_cells,):
            raise CheckFailed(f"mask for {shape} has shape {values.shape}")
        if not 0.0 <= mask.fraction <= 1.0:
            raise CheckFailed(f"mask fraction {mask.fraction} outside [0, 1]")
        digests.append(hashlib.sha256(np.packbits(values).tobytes()).hexdigest())
    fractions = [m.fraction for m in masks]
    return OpResult(wall, hashlib.sha256("".join(digests).encode()).hexdigest(),
                    {"oracle_fraction": float(np.mean(fractions))},
                    {"mask_sha256": digests, "fractions": fractions})
