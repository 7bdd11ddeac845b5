"""Acceptance suite: every criterion prints one PASS line when it holds.

The expensive end-to-end runs are session fixtures shared across criteria:
  run_thresholds   7 policy phases, trainable thresholds, fixed seed
  run_no_monot     same seed with the monotonicity term disabled
  run_slopes       7 policy phases, trainable slopes
"""

import numpy as np
from dataclasses import replace

from roagrow.config import RedesignConfig
from roagrow.dynamics import (LinearModel, closed_loop, dare_lqr, linearize,
                              step_euler)
from roagrow.experiment import run_redesign
from roagrow.grid import GridDomain
from roagrow.lyapunov import load_net
from roagrow.policy_updater import bptt
from roagrow.roa_estimator import LevelSetEstimate, sample_mixture

from conftest import ACCEPT_PHASES as PHASES
from reference import cell_index, flatten_grads, gap_growth_check, rows_of


def _ok(name: str, detail: str = ""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


class TestCriterion1PositiveDefiniteness:
    def test_every_checkpoint_positive_definite(self, run_thresholds):
        cfg, out = run_thresholds
        grid = cfg.grid()
        centers = grid.centers()
        ckpts = sorted((out / "checkpoints").glob("net_phase_*.ckpt"))
        assert len(ckpts) == PHASES + 1
        for path in ckpts:
            net = load_net(path)
            assert net.value(np.zeros((1, 2)))[0] == 0.0
            v = net.value(centers)
            assert np.all(v > 0.0)
        _ok("criterion 1: positive definiteness",
            f"{len(ckpts)} checkpoints, V(0)=0 exactly, min grid V > 0")


class TestCriterion2GradientOracles:
    def test_grad_x_oracle(self, pretrained):
        net = pretrained[0]
        rng = np.random.default_rng(21)
        h = 1e-5
        x = rng.uniform(-1.0, 1.0, (25, 2))
        g = net.grad_x(x)
        fd = np.stack([(net.value(x + e) - net.value(x - e)) / (2 * h)
                       for e in h * np.eye(2)], axis=1)
        rel = np.abs(g - fd).max(axis=1) / np.maximum(1.0, np.abs(fd).max(axis=1))
        assert np.all(rel < 1e-4)
        _ok("criterion 2a: grad_x matches finite differences")

    def test_grad_params_oracle(self, pretrained):
        net = pretrained[0].copy()
        rng = np.random.default_rng(22)
        x = rng.uniform(-1.0, 1.0, (4, 2))
        flat = flatten_grads(net.backward(x, np.ones(4)).d_params)
        theta = net.flat_params()
        h = 1e-5
        for _ in range(20):
            d = rng.normal(size=theta.shape)
            d /= np.linalg.norm(d)
            net.set_flat_params(theta + h * d)
            up = float(net.value(x).sum())
            net.set_flat_params(theta - h * d)
            dn = float(net.value(x).sum())
            net.set_flat_params(theta)
            fd = (up - dn) / (2 * h)
            assert abs(flat @ d - fd) / max(1.0, abs(fd)) < 1e-4
        _ok("criterion 2b: grad_params matches finite differences")

    def test_policy_grad_oracle(self):
        from roagrow.policy import SatParams, SatPolicy, policy_grad_psi

        rng = np.random.default_rng(23)
        h = 1e-6
        checked = 0
        while checked < 25:
            a, b = sorted(rng.uniform(-0.5, 0.5, 2))[::-1]
            psi = SatParams(a=a, b=b, m_a=rng.uniform(0, 1), m_b=rng.uniform(0, 1),
                            trainable=(True, True, True, True))
            pol = SatPolicy(k=rng.uniform(-2, 2, 2), psi=psi)
            x = rng.uniform(-1.5, 1.5, 2)
            z = float(-(pol.k @ x))
            if min(abs(z - a), abs(z - b)) < 1e-3:
                continue
            grad = policy_grad_psi(x, pol)
            vec = psi.as_array()
            fd = np.zeros(4)
            for i in range(4):
                hi, lo = vec.copy(), vec.copy()
                hi[i] += h
                lo[i] -= h
                fd[i] = (_sat_raw(z, hi) - _sat_raw(z, lo)) / (2 * h)
            assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5
            checked += 1
        _ok("criterion 2c: policy_grad_psi matches finite differences")

    def test_bptt_oracle(self, params, pretrained, grid):
        from roagrow.policy import SatParams, SatPolicy

        net = pretrained[0]
        est = LevelSetEstimate(net, 1.0)
        rng = np.random.default_rng(24)
        box = grid.safety_box()
        h = 1e-6
        checked = 0
        while checked < 20:
            psi = SatParams(a=rng.uniform(0.05, 0.4), b=rng.uniform(-0.4, -0.05),
                            m_a=rng.uniform(0, 0.8), m_b=rng.uniform(0, 0.8),
                            trainable=(True, True, True, True))
            pol = SatPolicy(k=rng.uniform(-2, 2, 2), psi=psi)
            x0 = rng.uniform(-0.8, 0.8, (1, 2))
            clm = closed_loop(pol, params)
            x = x0.copy()
            margin = np.inf
            for _ in range(10):
                z = -(x[:, 0] * pol.k[0] + x[:, 1] * pol.k[1])
                margin = min(margin, abs(z[0] - psi.a), abs(z[0] - psi.b))
                x = clm(x)
            if margin < 1e-3 or abs(net.value(x)[0] - est.c) < 1e-3:
                continue
            grad = bptt(clm, est, x0, 10, 10.0, box)[1]
            fd = np.zeros(4)
            vec = psi.as_array()
            for i in range(4):
                hi, lo = vec.copy(), vec.copy()
                hi[i] += h
                lo[i] -= h
                up = bptt(closed_loop(SatPolicy(k=pol.k, psi=_params_from(hi)),
                                      params), est, x0, 10, 10.0, box)[0]
                dn = bptt(closed_loop(SatPolicy(k=pol.k, psi=_params_from(lo)),
                                      params), est, x0, 10, 10.0, box)[0]
                fd[i] = (up - dn) / (2 * h)
            assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-4
            checked += 1
        _ok("criterion 2d: the BPTT gradient matches finite differences")


def _sat_raw(z, v):
    a, b, m_a, m_b = v
    if z > a:
        return a + m_a * (z - a)
    if z < b:
        return b + m_b * (z - b)
    return z


def _params_from(vec):
    from roagrow.policy import SatParams

    return SatParams(a=float(vec[0]), b=float(vec[1]), m_a=float(vec[2]),
                     m_b=float(vec[3]), trainable=(True, True, True, True))


class TestCriterion3Lemma1:
    def test_gradient_exactly_zero_at_origin(self, pretrained, small_net):
        for net in (pretrained[0], small_net):
            g = net.grad_x(np.zeros((1, 2)))
            assert np.all(g == 0.0)
        _ok("criterion 3: grad V(0) is exactly zero for the architecture")


class TestCriterion4LineSearchSoundness:
    def test_every_phase_estimate_decreases(self, run_thresholds):
        cfg, out = run_thresholds
        grid = cfg.grid()
        params = cfg.pendulum_params()
        centers = grid.centers()
        rows = rows_of(out, "policy")
        assert len(rows) == PHASES
        for row in rows:
            phase = int(row["phase"])
            net = load_net(out / "checkpoints" / f"net_phase_{phase:02d}.ckpt")
            c = row["level_c"]
            pol = _policy_at_phase(cfg, out, phase - 1)
            f_pi = closed_loop(pol, params)
            v = net.value(centers)
            dv = net.value(f_pi(centers)) - v
            inside = v < c
            inside[grid.origin_index()] = False
            assert np.all(dv[inside] < 0), f"phase {phase} violates the decrease"
        _ok("criterion 4: 100% strict decrease inside every phase estimate")


def _policy_at_phase(cfg, out, phase):
    """Reconstruct the policy that was current when phase+1 was estimated."""
    from roagrow.experiment import _design_lqr

    k, _ = _design_lqr(cfg, cfg.pendulum_params())
    pol = cfg.initial_policy(k)
    if phase == 0:
        return pol
    rows = [r for r in rows_of(out, "policy") if int(r["phase"]) == phase]
    row = rows[0]
    psi = pol.psi.with_array(np.array([row["sat_a"], row["sat_b"],
                                       row["sat_ma"], row["sat_mb"]]))
    return replace(pol, psi=psi)


class TestCriterion5Riccati:
    def test_scalar_golden_ratio(self):
        m = LinearModel(np.array([[1.0]]), np.array([[1.0]]))
        _, p = dare_lqr(m, np.array([[1.0]]), np.array([[1.0]]))
        assert abs(p[0, 0] - (1 + np.sqrt(5)) / 2) < 1e-8

    def test_pendulum_closed_loop_stable(self, cfg, params):
        model = linearize(lambda s, u: step_euler(s, u, params), np.zeros(2), 0.0)
        k, _ = dare_lqr(model, np.eye(2), np.array([[1.0]]))
        rho = max(abs(np.linalg.eigvals(model.a - model.b @ k)))
        assert rho < 1.0
        _ok("criterion 5: Riccati fixed point and stabilizing gain",
            f"rho = {rho:.4f}")


class TestCriterion6GapGrowth:
    def test_annulus_prediction(self):
        g100 = GridDomain(-1.1, 1.1, -1.1, 1.1, 100, 100)
        g200 = GridDomain(-1.1, 1.1, -1.1, 1.1, 200, 200)
        rel100 = gap_growth_check(1.0, [1.05], g100)[1.05][2]
        rel200 = gap_growth_check(1.0, [1.05], g200)[1.05][2]
        assert rel100 < 0.10
        assert rel200 < 0.7 * rel100
        _ok("criterion 6: sublevel growth-rate desk check",
            f"rel err {rel100:.3f} at 100^2, {rel200:.3f} at 200^2")


class TestCriterion7MixtureSampling:
    def test_empirical_fraction(self, grid):
        centers = grid.centers()
        v = centers[:, 0] ** 2 + centers[:, 1] ** 2
        rng = np.random.default_rng(77)
        beta = 0.6
        pts, empty = sample_mixture(v, 1.0, 4.0, beta, 10_000, grid, rng)
        assert not empty
        gap = (v >= 1.0) & (v < 4.0)
        measured = gap[cell_index(grid, pts)].mean()
        expected = beta + (1 - beta) * gap.mean()
        assert abs(measured - expected) < 0.02
        _ok("criterion 7: mixture sampling fractions",
            f"measured {measured:.4f} vs expected {expected:.4f}")


class TestCriterion8Determinism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = RedesignConfig(phases=2, seed=5, pretrain_steps=500, roa_sgd_steps=400,
                             policy_sgd_steps=10, oracle_kmax=500)
        outs = []
        for name in ("a", "b"):
            run_redesign(cfg, tmp_path / name)
            # timings.txt holds wall-clock notes, outside the contract
            outs.append({str(p.relative_to(tmp_path / name)): p.read_bytes()
                         for p in sorted((tmp_path / name).rglob("*"))
                         if p.is_file() and p.name != "timings.txt"})
        assert "metrics.csv" in outs[0] and "config_used.cfg" in outs[0]
        assert outs[0].keys() == outs[1].keys()
        for name, blob in outs[0].items():
            assert blob == outs[1][name], f"{name} differs between the runs"
        _ok("criterion 8: byte-identical artifacts for identical config+seed",
            f"{len(outs[0])} files")


class TestCriterion9Enlargement:
    def test_oracle_staircase(self, run_thresholds):
        _, out = run_thresholds
        stair = [r["oracle_fraction"] for r in rows_of(out, "init", "policy")]
        assert len(stair) == PHASES + 1
        assert stair[-1] >= 1.3 * stair[0]
        for before, after in zip(stair, stair[1:]):
            assert after >= before - 0.01
        _ok("criterion 9: RoA enlargement",
            f"{stair[0]:.4f} -> {stair[-1]:.4f} ({stair[-1]/stair[0]:.2f}x)")


class TestCriterion10MonotonicityAblation:
    def test_fewer_decreasing_steps_and_no_worse_final(self, run_thresholds,
                                                       run_no_monot):
        on = [r["est_fraction"] for r in rows_of(run_thresholds[1], "growth")]
        off = [r["est_fraction"] for r in rows_of(run_no_monot[1], "growth")]
        dec_on = sum(1 for a, b in zip(on, on[1:]) if b < a - 1e-9)
        dec_off = sum(1 for a, b in zip(off, off[1:]) if b < a - 1e-9)
        assert on[-1] >= off[-1], (
            f"final estimated fraction {on[-1]:.4f} (on) < {off[-1]:.4f} (off)")
        assert dec_on < dec_off, (
            f"decreasing steps: {dec_on} (on) vs {dec_off} (off); the "
            f"monotonicity term did not reduce the fluctuation count")
        _ok("criterion 10: monotonicity-term ablation",
            f"decreasing steps {dec_on} (on) < {dec_off} (off), "
            f"final est {on[-1]:.4f} >= {off[-1]:.4f}")


class TestCriterion11LevelConvergence:
    def test_levels_move_toward_cbar(self, run_thresholds):
        _, out = run_thresholds
        growth = rows_of(out, "growth")
        by_phase = {}
        for r in growth:
            by_phase[int(r["phase"])] = r["level_c"]
        c_first = by_phase[1]
        c_last = by_phase[PHASES]
        assert abs(c_last - 1.0) < abs(c_first - 1.0)
        _ok("criterion 11: level values converge toward 1",
            f"|c1-1| = {abs(c_first-1):.3f}, |c{PHASES}-1| = {abs(c_last-1):.3f}")


class TestCriterion12SlopeSymmetry:
    def test_learned_slopes_almost_equal(self, run_slopes):
        _, out = run_slopes
        rows = rows_of(out, "policy")
        final = rows[-1]
        assert final["sat_a"] == 0.2 and final["sat_b"] == -0.2
        assert abs(final["sat_ma"] - final["sat_mb"]) < 0.1
        assert final["sat_ma"] > 0.0
        _ok("criterion 12: slope symmetry",
            f"m_a = {final['sat_ma']:.3f}, m_b = {final['sat_mb']:.3f}")


class TestCriterion13InnerEstimateSoundness:
    def test_unsound_cells_below_two_percent(self, run_thresholds):
        _, out = run_thresholds
        rows = rows_of(out, "policy")
        worst = max(r["unsound_fraction"] for r in rows)
        assert worst < 0.02
        _ok("criterion 13: inner-estimate soundness",
            f"worst unsound fraction {worst:.4f}")


class TestRunInvariants:
    """Supplementary spec invariants checked on the shared acceptance run."""

    def test_log_completeness(self, run_thresholds):
        cfg, out = run_thresholds
        assert len(rows_of(out, "policy")) == PHASES
        assert len(rows_of(out, "growth")) == PHASES * cfg.growth_iters
        assert len(rows_of(out, "init")) == 1

    def test_soft_monotone_trend_with_default_lambda(self, run_thresholds):
        # non-decreasing up to 0.02 absolute slack in at least 80% of steps
        _, out = run_thresholds
        cb = [r["cbar_fraction"] for r in rows_of(out, "growth")]
        ok = sum(1 for a, b in zip(cb, cb[1:]) if b >= a - 0.02)
        assert ok >= 0.8 * (len(cb) - 1)

    def test_report_tables_written(self, run_thresholds):
        _, out = run_thresholds
        for name in ("fractions.csv", "levels.csv", "policy_params.csv"):
            assert (out / name).exists()
