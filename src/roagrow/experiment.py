"""Full redesign runs: pretrain, alternate estimation and policy updates.

Everything a run writes lives under one output directory:

    config_used.cfg          exact configuration of the run
    metrics.csv              one row per growth iteration / policy update
    checkpoints/             Lyapunov net after pretraining and every phase
    masks/                   oracle RoA masks (PGM + CSV)
    heatmaps/                level-set overlays per phase (PPM) and V (PGM)
    timings.txt              wall-clock notes, excluded from determinism

A (config, seed) pair determines every byte of the outputs except
timings.txt.

The oracle only validates a policy; nothing the run computes next depends on
its mask until the next phase's estimate is in.  So every policy's oracle but
the final one runs in one forked child (POSIX ``fork``) while the next phase
estimates, and its masks and metrics row are written when the parent
collects it: the files and their bytes are those of a run that waits.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RedesignConfig, dump_config
from .dynamics import closed_loop, dare_lqr, linearize, step_euler
from .grid import GridDomain
from .lyapunov import (PDLyapunovNet, pretrain_quadratic,
                       quadratic_target, save_net)
from .oracle import save_mask_csv, save_mask_pgm, true_roa
from .roa_estimator import (LevelSetEstimate, estimate_roa, gap_ring,
                            line_search_level)
from .policy_updater import update_policy

__all__ = ["MetricsLog", "run_redesign", "emit_heatmap",
           "MaskOverlay", "write_report", "METRICS_COLUMNS"]

log = logging.getLogger(__name__)

METRICS_VERSION = 1
METRICS_COLUMNS = [
    "phase", "iter", "kind", "level_c", "est_fraction", "cbar_fraction",
    "oracle_fraction", "loss", "sat_a", "sat_b", "sat_ma", "sat_mb",
    "grad_norm_final", "grad_norm_psi", "unsound_fraction", "flags",
]

# Fixed overlay color code: estimate in blue, sampling ring in pink, the
# brute-force RoA boundary in green.
COLOR_BACKGROUND = (255, 255, 255)
COLOR_GAP = (255, 158, 196)
COLOR_ESTIMATE = (64, 106, 226)
COLOR_ORACLE_BOUNDARY = (0, 160, 70)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class MetricsLog:
    """Append-only CSV writer; :func:`read_metrics` reads the rows back."""

    def __init__(self, path):
        self.path = Path(path)
        with open(self.path, "w", encoding="ascii") as fh:
            fh.write(f"# roagrow-metrics v{METRICS_VERSION}\n")
            fh.write(",".join(METRICS_COLUMNS) + "\n")

    def add(self, **values):
        unknown = set(values) - set(METRICS_COLUMNS)
        if unknown:
            raise ValueError(f"unknown metrics columns: {sorted(unknown)}")
        row = {col: values.get(col) for col in METRICS_COLUMNS}
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(",".join(_fmt(row[col]) for col in METRICS_COLUMNS) + "\n")


def read_metrics(path):
    """Parse a metrics CSV back into a list of row dicts, numbers as floats
    and ``kind`` and ``flags`` as strings.  A missing header row raises a
    ValueError, and so does a row whose field count differs from the
    header's or that holds a non-number, naming its line."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith("# roagrow-metrics"):
        raise ValueError("not a roagrow metrics file")
    if len(lines) < 2 or not lines[1]:
        raise ValueError(f"{path}: the header row is missing")
    header = lines[1].split(",")
    for line_no, ln in enumerate(lines[2:], start=3):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {line_no} has {len(parts)} fields, "
                             f"the header {len(header)}")
        row = dict(zip(header, parts))
        for key in header:
            if key in ("kind", "flags"):
                continue
            try:
                row[key] = float(row[key]) if row[key] else None
            except ValueError:
                raise ValueError(f"{path}: line {line_no}, column {key}: "
                                 f"{row[key]!r} is not a number") from None
        rows.append(row)
    return rows


@dataclass
class MaskOverlay:
    """Cell masks for the nested-set picture, one flag set per cell."""

    oracle_boundary: np.ndarray
    estimate: np.ndarray
    gap: np.ndarray


def emit_heatmap(domain_field, path, n_theta: int, n_omega: int):
    """Render per-cell data as a portable pixmap/graymap.

    A float array becomes a min-max normalized grayscale PGM; a
    :class:`MaskOverlay` becomes a PPM with the fixed color code.  Rows run
    from omega_max down, theta increases along each row.
    """
    path = Path(path)
    if isinstance(domain_field, MaskOverlay):
        img = np.empty((n_omega * n_theta, 3), dtype=np.uint8)
        img[:] = COLOR_BACKGROUND
        img[domain_field.gap] = COLOR_GAP
        img[domain_field.estimate] = COLOR_ESTIMATE
        img[domain_field.oracle_boundary] = COLOR_ORACLE_BOUNDARY
        img = img.reshape(n_omega, n_theta, 3)[::-1]
        with open(path, "wb") as fh:
            fh.write(f"P6\n{n_theta} {n_omega}\n255\n".encode("ascii"))
            fh.write(img.tobytes())
    else:
        field_vals = np.asarray(domain_field, dtype=float)
        lo, hi = float(field_vals.min()), float(field_vals.max())
        scale = (hi - lo) if hi > lo else 1.0
        gray = np.round(255 * (field_vals - lo) / scale).astype(np.uint8)
        gray = gray.reshape(n_omega, n_theta)[::-1]
        with open(path, "wb") as fh:
            fh.write(f"P5\n{n_theta} {n_omega}\n255\n".encode("ascii"))
            fh.write(gray.tobytes())


def _design_lqr(cfg: RedesignConfig, params):
    model = linearize(lambda s, u: step_euler(s, u, params),
                      np.zeros(2), 0.0)
    q = cfg.lqr_q * np.eye(2)
    r = np.array([[cfg.lqr_r]])
    k, p_mat = dare_lqr(model, q, r)
    return k.reshape(2), p_mat


def pretrain_target_values(cfg: RedesignConfig, grid: GridDomain, p_mat):
    """Per-cell pretraining targets: either the isotropic quadratic or the
    LQR cost-to-go shape rescaled to the same overall magnitude."""
    pts = grid.centers()
    iso = quadratic_target(pts, cfg.pretrain_coeff)
    if cfg.pretrain_target == "isotropic":
        return iso
    v_p = np.einsum("ni,ij,nj->n", pts, p_mat, pts)
    return iso.mean() / v_p.mean() * v_p


def pretrain_net(cfg: RedesignConfig, grid: GridDomain, rng) -> tuple:
    """Initialize and pretrain the Lyapunov net per the configuration."""
    k_gain, p_mat = _design_lqr(cfg, cfg.pendulum_params())
    net = PDLyapunovNet.initialize(rng, cfg.net_widths(), cfg.pd_eps)
    stats = pretrain_quadratic(net, grid.centers(),
                               pretrain_target_values(cfg, grid, p_mat), rng,
                               lr=cfg.pretrain_lr, steps=cfg.pretrain_steps,
                               batch=cfg.pretrain_batch)
    return net, stats, k_gain, p_mat


def _start_in_child(fn, *args):
    """Call ``fn(*args)`` in a forked child and return a function that waits
    for it: that function returns the child's result or raises its exception
    (one that does not pickle as a RuntimeError naming it), and always reaps
    the child.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
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


def run_redesign(cfg: RedesignConfig, out_dir=None) -> Path:
    """Execute the full loop, write all artifacts and return their directory.

    Partial artifacts survive a failing phase: the metrics CSV is flushed row
    by row, checkpoints are written as soon as they exist, and the oracle of
    the latest policy is collected and written before the error propagates.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(exist_ok=True)
    (out / "masks").mkdir(exist_ok=True)
    (out / "heatmaps").mkdir(exist_ok=True)
    (out / "config_used.cfg").write_text(dump_config(cfg), encoding="utf-8")

    timings = open(out / "timings.txt", "w", encoding="ascii")
    t_run = time.perf_counter()

    def note_seconds(label: str, seconds: float):
        timings.write(f"{label} {seconds:.3f}s\n")
        timings.flush()

    def note_time(label: str, t0: float):
        note_seconds(label, time.perf_counter() - t0)

    rng = np.random.default_rng(cfg.seed)
    params = cfg.pendulum_params()
    grid = cfg.grid()
    box = grid.safety_box(cfg.safety_box_factor)
    metrics = MetricsLog(out / "metrics.csv")
    pending = None          # (join, name, row) of the oracle running in a child

    def timed_oracle(f):
        t0 = time.perf_counter()
        mask = true_roa(f, grid, cfg.oracle_kmax, cfg.oracle_ball_radius,
                        cfg.oracle_confirm_steps, box)
        return mask, time.perf_counter() - t0

    def record(name: str, row: dict, mask):
        """Write a policy's masks and its metrics row, which waited for them."""
        save_mask_pgm(mask, out / "masks" / f"{name}.pgm")
        save_mask_csv(mask, out / "masks" / f"{name}.csv")
        metrics.add(**row, oracle_fraction=mask.fraction)
        if row["kind"] == "policy":
            log.info("phase %d: c=%.4f est=%.4f oracle=%.4f psi=(%.3f, %.3f, %.3f, %.3f)",
                     row["phase"], row["level_c"], row["est_fraction"], mask.fraction,
                     row["sat_a"], row["sat_b"], row["sat_ma"], row["sat_mb"])

    def check_policy(f, name: str, row: dict, last: bool):
        """Validate a new policy: in this process when it is the last, so
        there is nothing to overlap, else in a child collected later."""
        nonlocal pending
        if last:
            mask, seconds = timed_oracle(f)
            note_seconds(name, seconds)
            record(name, row, mask)
        else:
            pending = (_start_in_child(timed_oracle, f), name, row)

    def collect():
        nonlocal pending
        join, name, row = pending
        pending = None
        t0 = time.perf_counter()
        mask, seconds = join()
        note_seconds(name, seconds)
        note_time(f"{name}_wait", t0)
        record(name, row, mask)
        return mask

    try:
        t0 = time.perf_counter()
        net, pre, k_gain, _ = pretrain_net(cfg, grid, rng)
        policy = cfg.initial_policy(k_gain)
        f_builder = lambda pol: closed_loop(pol, params)
        f_cur = f_builder(policy)
        note_time("pretrain", t0)
        log.info("pretraining MSE %.4g -> %.4g", pre["initial_mse"], pre["final_mse"])
        save_net(net, out / "checkpoints" / "net_phase_00.ckpt")
        centers = grid.centers()
        v_grid = net.value(centers)
        emit_heatmap(v_grid, out / "heatmaps" / "pretrain_v.pgm",
                     grid.n_theta, grid.n_omega)
        est = LevelSetEstimate(net, line_search_level(
            v_grid, net.value(f_cur(centers)), grid))

        check_policy(f_cur, "oracle_baseline", dict(
            phase=0, iter=0, kind="init", level_c=est.c,
            est_fraction=float((v_grid < est.c).sum()) / grid.n_cells,
            sat_a=policy.psi.a, sat_b=policy.psi.b,
            sat_ma=policy.psi.m_a, sat_mb=policy.psi.m_b, flags=""),
            last=cfg.phases == 0)

        prev_est, prev_f = est, f_cur
        level_history = []
        for phase in range(1, cfg.phases + 1):
            t0 = time.perf_counter()
            est, v_grid, growth = estimate_roa(prev_est, v_grid, prev_f, f_cur, cfg,
                                               cfg.batch_size(phase), grid, rng)
            note_time(f"estimate_phase_{phase:02d}", t0)
            mask = collect()
            for rec in growth:
                metrics.add(phase=phase, iter=rec.iteration, kind="growth",
                            level_c=rec.level, est_fraction=rec.est_fraction,
                            cbar_fraction=rec.cbar_fraction, loss=rec.loss,
                            flags="gap_empty" if rec.gap_empty else "")
            level_history.append(est.c)
            save_net(est.net, out / "checkpoints" / f"net_phase_{phase:02d}.ckpt")

            # soundness of the fresh estimate against the matching oracle mask
            est_mask = v_grid < est.c
            est_fraction = float(est_mask.sum()) / grid.n_cells
            unsound = float((est_mask & ~mask.values).sum()) / grid.n_cells
            emit_heatmap(MaskOverlay(oracle_boundary=mask.boundary_cells(),
                                     estimate=est_mask,
                                     gap=gap_ring(v_grid, est.c, cfg.gamma_r)),
                         out / "heatmaps" / f"phase_{phase:02d}_roa.ppm",
                         grid.n_theta, grid.n_omega)

            t0 = time.perf_counter()
            policy, rec = update_policy(policy, est, v_grid, f_builder, cfg,
                                        cfg.batch_size(phase), grid, rng)
            f_cur = f_builder(policy)
            note_time(f"policy_phase_{phase:02d}", t0)

            check_policy(f_cur, f"oracle_phase_{phase:02d}", dict(
                phase=phase, iter=0, kind="policy", level_c=est.c,
                est_fraction=est_fraction, loss=rec.loss,
                sat_a=policy.psi.a, sat_b=policy.psi.b,
                sat_ma=policy.psi.m_a, sat_mb=policy.psi.m_b,
                grad_norm_final=rec.grad_norm_final,
                grad_norm_psi=rec.grad_norm_psi,
                unsound_fraction=unsound,
                flags="gap_empty" if rec.gap_empty else ""),
                last=phase == cfg.phases)
            prev_est, prev_f = est, f_cur

        if cfg.phases > 1 and (abs(level_history[-1] - 1.0)
                               >= abs(level_history[0] - 1.0)):
            log.warning("level values did not move toward 1: first %.4f last %.4f",
                        level_history[0], level_history[-1])
        write_report(out)
        note_time("total", t_run)
    except BaseException:
        # a failing phase still leaves the pending policy's masks and row
        if pending is not None:
            try:
                collect()
            except Exception as exc:
                log.error("the pending oracle failed as well: %r", exc)
        raise
    finally:
        timings.close()
    return out


def write_report(out_dir):
    """Re-derive the figure source tables from an existing metrics CSV."""
    out = Path(out_dir)
    rows = read_metrics(out / "metrics.csv")
    growth = [r for r in rows if r["kind"] == "growth"]
    policy = [r for r in rows if r["kind"] == "policy"]
    init = [r for r in rows if r["kind"] == "init"]

    with open(out / "fractions.csv", "w", encoding="ascii") as fh:
        fh.write("global_iter,phase,iter,est_fraction,oracle_fraction\n")
        latest_oracle = init[0]["oracle_fraction"] if init else None
        by_phase = {}
        for r in policy:
            by_phase[int(r["phase"])] = r["oracle_fraction"]
        for g_idx, r in enumerate(growth, start=1):
            phase = int(r["phase"])
            if phase - 1 in by_phase:
                latest_oracle = by_phase[phase - 1]
            fh.write(f"{g_idx},{phase},{int(r['iter'])},"
                     f"{_fmt(r['est_fraction'])},{_fmt(latest_oracle)}\n")

    with open(out / "levels.csv", "w", encoding="ascii") as fh:
        fh.write("global_iter,phase,iter,level_c\n")
        for g_idx, r in enumerate(growth, start=1):
            fh.write(f"{g_idx},{int(r['phase'])},{int(r['iter'])},{_fmt(r['level_c'])}\n")

    with open(out / "policy_params.csv", "w", encoding="ascii") as fh:
        fh.write("phase,sat_a,sat_b,sat_ma,sat_mb\n")
        for r in init + policy:
            fh.write(f"{int(r['phase'])},{_fmt(r['sat_a'])},{_fmt(r['sat_b'])},"
                     f"{_fmt(r['sat_ma'])},{_fmt(r['sat_mb'])}\n")
