import numpy as np
import pytest
from dataclasses import replace

import roagrow.policy_updater as policy_updater
from roagrow.dynamics import ClosedLoopMap, closed_loop
from roagrow.policy import SatParams, SatPolicy
from roagrow.policy_updater import (_diagnostics, _rollout_tape, bptt,
                                    sample_policy_batch, update_policy)
from roagrow.roa_estimator import LevelSetEstimate

from reference import cell_index, jacobian_product_norms

BIG_BOX = ((-1e9, 1e9), (-1e9, 1e9))


class QuadV:
    def __init__(self, scale=1.0):
        self.scale = scale

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.scale * (x[:, 0] ** 2 + x[:, 1] ** 2)

    def grad_x(self, x):
        return 2.0 * self.scale * np.atleast_2d(np.asarray(x, dtype=float))


def quad_grid(grid):
    """V = ||x||^2 at the cell centres."""
    centers = grid.centers()
    return centers[:, 0] ** 2 + centers[:, 1] ** 2


class ContractionMap(ClosedLoopMap):
    """x' = 0.5 x, control identically zero (K = 0); for closed-form checks.
    Its ``params`` is the scale, which :func:`scaled_jacobians` reads."""

    scale = 0.5

    def __init__(self):
        pol = SatPolicy(k=np.zeros(2), psi=SatParams(a=1.0, b=-1.0))
        super().__init__(pol, params=self.scale)

    def __call__(self, state):
        return self.scale * np.asarray(state, dtype=float)


def scaled_jacobians(state, scale):
    """The step Jacobians of x' = scale * x, whose control does not act."""
    state = np.asarray(state, dtype=float)
    a = np.broadcast_to(scale * np.eye(2), state.shape[:-1] + (2, 2)).copy()
    return a, np.zeros(2)


@pytest.fixture
def scaled_maps(monkeypatch):
    """Let the rollout tape differentiate :class:`ContractionMap` and its
    kin, whose ``params`` is a scale, not a pendulum."""
    monkeypatch.setattr(policy_updater, "step_jacobians", scaled_jacobians)


class TestHyper:
    def test_defaults(self, cfg):
        assert (cfg.gamma_p, cfg.beta_p, cfg.rollout_steps_p) == (4, 0.6, 10)
        assert (cfg.lambda_u, cfg.policy_lr, cfg.policy_sgd_steps) == (10, 0.01, 100)


class TestSamplePolicyBatch:
    def test_beta_zero_samples_interior(self, grid, cfg):
        v_cells = quad_grid(grid)
        pts, empty = sample_policy_batch(v_cells, 1.0, replace(cfg, beta_p=0.0),
                                         2000, grid, np.random.default_rng(0))
        assert not empty
        assert np.all(v_cells[cell_index(grid, pts)] < 1.0)

    def test_beta_one_samples_gap(self, grid, cfg):
        v_cells = quad_grid(grid)
        pts, empty = sample_policy_batch(v_cells, 1.0, replace(cfg, beta_p=1.0),
                                         2000, grid, np.random.default_rng(1))
        assert not empty
        idx = cell_index(grid, pts)
        assert np.all((v_cells[idx] >= 1.0) & (v_cells[idx] < 4.0))

    def test_mixture_fraction(self, grid, cfg):
        v_cells = quad_grid(grid)
        pts, _ = sample_policy_batch(v_cells, 1.0, cfg, 10_000, grid,
                                     np.random.default_rng(2))
        gap = (v_cells >= 1.0) & (v_cells < 4.0)
        measured = gap[cell_index(grid, pts)].mean()
        assert abs(measured - 0.6) < 0.02

    def test_empty_gap_flagged(self, grid, cfg):
        pts, empty = sample_policy_batch(quad_grid(grid), 1e6, cfg, 50, grid,
                                         np.random.default_rng(3))
        assert empty and len(pts) == 50


class TestPolicyLoss:
    def test_inside_weight_one(self, f_initial):
        est = LevelSetEstimate(QuadV(), 1.0)
        x = np.array([[np.sqrt(0.5), 0.0]])
        loss = bptt(f_initial, est, x, 0, 10.0, BIG_BOX)[0]
        assert loss == pytest.approx(0.5)

    def test_outside_weight_lambda(self, f_initial):
        est = LevelSetEstimate(QuadV(), 1.0)
        x = np.array([[np.sqrt(2.0), 0.0]])
        loss = bptt(f_initial, est, x, 0, 10.0, BIG_BOX)[0]
        assert loss == pytest.approx(20.0)

    def test_batch_sums(self, f_initial):
        est = LevelSetEstimate(QuadV(), 1.0)
        xs = np.array([[np.sqrt(0.5), 0.0], [np.sqrt(2.0), 0.0]])
        loss = bptt(f_initial, est, xs, 0, 10.0, BIG_BOX)[0]
        assert loss == pytest.approx(20.5)

    def test_divergent_rollout_uses_clipped_state(self, scaled_maps):
        # expansion map via custom subclass: reuse ContractionMap but scale up
        class Expand(ContractionMap):
            scale = 2.0

        est = LevelSetEstimate(QuadV(), 1e9)   # value never exceeds the level
        box = ((-1.0, 1.0), (-1.0, 1.0))
        x = np.array([[0.6, 0.0]])
        loss = bptt(Expand(), est, x, 10, 10.0, box)[0]
        # one step hits 1.2 and leaves the box; the clipped state is 0.6
        assert loss == pytest.approx(10.0 * 0.36)


class TestBpttGrad:
    def test_zero_steps_zero_gradient(self, f_initial):
        est = LevelSetEstimate(QuadV(), 1.0)
        g = bptt(f_initial, est, np.array([[0.4, 0.2]]), 0, 10.0, BIG_BOX)[1]
        assert np.all(g == 0.0)

    def test_origin_gives_vanishing_gradient(self, f_initial, pretrained):
        est = LevelSetEstimate(pretrained[0], 1.0)
        g = bptt(f_initial, est, np.zeros((1, 2)), 10, 10.0, BIG_BOX)[1]
        assert np.linalg.norm(g) < 1e-12

    def test_matches_finite_differences(self, params, pretrained, grid):
        from roagrow.dynamics import closed_loop

        net = pretrained[0]
        est = LevelSetEstimate(net, 1.0)
        rng = np.random.default_rng(8)
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
            # require the rollout to stay away from the saturation kinks and
            # the level boundary so the loss is differentiable there
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
                pol_hi = SatPolicy(k=pol.k, psi=_raw_params(hi, psi.trainable))
                pol_lo = SatPolicy(k=pol.k, psi=_raw_params(lo, psi.trainable))
                up = bptt(closed_loop(pol_hi, params), est, x0, 10, 10.0, box)[0]
                dn = bptt(closed_loop(pol_lo, params), est, x0, 10, 10.0, box)[0]
                fd[i] = (up - dn) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale < 1e-4
            checked += 1

    def test_est_parameters_receive_no_gradient(self, f_initial, pretrained):
        net = pretrained[0]
        est = LevelSetEstimate(net, 1.0)
        before = net.flat_params().copy()
        bptt(f_initial, est, np.array([[0.5, -0.4]]), 10, 10.0, BIG_BOX)
        assert np.array_equal(net.flat_params(), before)


def _raw_params(vec, trainable):
    a, b, m_a, m_b = vec
    return SatParams(a=float(a), b=float(b), m_a=float(m_a), m_b=float(m_b),
                     trainable=trainable)


class TestSignalDiagnostics:
    def test_contraction_jacobian_norms(self, scaled_maps):
        clm = ContractionMap()
        x0 = np.array([[0.8, 0.0]])
        norms = jacobian_product_norms(_rollout_tape(clm, x0, 6, BIG_BOX)[2])
        for k in range(7):
            assert norms[k] == pytest.approx(0.5 ** (6 - k))

    def test_grad_norm_psi_matches_bptt(self, f_initial, pretrained):
        est = LevelSetEstimate(pretrained[0], 1.0)
        x0 = np.random.default_rng(9).uniform(-0.5, 0.5, (6, 2))
        _, grad_norm_psi = _diagnostics(*bptt(f_initial, est, x0, 10, 10.0,
                                              BIG_BOX)[1:])
        g = bptt(f_initial, est, x0, 10, 10.0, BIG_BOX)[1]
        assert abs(grad_norm_psi - np.linalg.norm(g)) < 1e-12

    def test_origin_warns_weak_signal(self, f_initial, pretrained, caplog):
        import logging

        est = LevelSetEstimate(pretrained[0], 1.0)
        with caplog.at_level(logging.WARNING, logger="roagrow.policy_updater"):
            grad_norm_final, _ = _diagnostics(*bptt(f_initial, est, np.zeros((1, 2)),
                                                    10, 10.0, BIG_BOX)[1:])
        assert grad_norm_final < 1e-6
        assert any("vanishing" in r.message for r in caplog.records)


class TestUpdatePolicy:
    def test_zero_steps_returns_same_policy(self, initial_policy, pretrained,
                                            pretrained_level, grid, cfg, params):
        est = LevelSetEstimate(pretrained[0], 0.05)
        no_steps = replace(cfg, policy_sgd_steps=0)
        fb = lambda p: closed_loop(p, params)
        new, rec = update_policy(initial_policy, est, pretrained_level[0], fb,
                                 no_steps, no_steps.batch_size(1), grid,
                                 np.random.default_rng(0))
        assert new.psi == initial_policy.psi

    def test_crop_bound_enforced(self, initial_policy, pretrained,
                                 pretrained_level, grid, cfg, params):
        v0, c0 = pretrained_level
        est = LevelSetEstimate(pretrained[0], c0)
        short = replace(cfg, policy_sgd_steps=50)
        fb = lambda p: closed_loop(p, params)
        new, rec = update_policy(initial_policy, est, v0, fb, short,
                                 short.batch_size(1), grid, np.random.default_rng(1))
        delta = np.abs(new.psi.as_array() - initial_policy.psi.as_array())
        assert np.all(delta <= initial_policy.crop_radius + 1e-12)
        assert new.psi.b <= new.psi.a

    def test_thresholds_move_outward(self, initial_policy, pretrained,
                                     pretrained_level, grid, cfg, params):
        # the experiment-1 direction: the updater relaxes the suppression
        v0, c0 = pretrained_level
        est = LevelSetEstimate(pretrained[0], c0)
        fb = lambda p: closed_loop(p, params)
        new, rec = update_policy(initial_policy, est, v0, fb, cfg, cfg.batch_size(1),
                                 grid, np.random.default_rng(2))
        assert new.psi.a > initial_policy.psi.a
        assert new.psi.b < initial_policy.psi.b

    def test_one_bptt_pass_per_step_and_report(self, initial_policy, grid, cfg,
                                                params, monkeypatch):
        est = LevelSetEstimate(QuadV(), 1.0)
        short = replace(cfg, policy_sgd_steps=3)
        fb = lambda p: closed_loop(p, params)
        x0s, _ = sample_policy_batch(quad_grid(grid), est.c, short,
                                     short.batch_size(1), grid,
                                     np.random.default_rng(4))
        passes = []
        monkeypatch.setattr(policy_updater, "bptt",
                            lambda *a: passes.append(1) or bptt(*a))
        new, rec = update_policy(initial_policy, est, quad_grid(grid), fb, short,
                                 short.batch_size(1), grid, np.random.default_rng(4))
        assert len(passes) == short.policy_sgd_steps + 1
        # the report is the one a fresh pass gives for the final policy
        args = (fb(new), est, x0s, short.rollout_steps_p, short.lambda_u,
                grid.safety_box(short.safety_box_factor))
        loss, *tape = bptt(*args)
        assert rec.loss == loss
        assert (rec.grad_norm_final, rec.grad_norm_psi) == _diagnostics(*tape)
