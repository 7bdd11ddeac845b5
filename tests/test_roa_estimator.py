import numpy as np
import pytest
from dataclasses import replace

import roagrow.lyapunov as lyapunov
from roagrow.config import RedesignConfig
from roagrow.roa_estimator import (DegenerateLevelError, LevelSetEstimate,
                                   estimate_roa, label_batch, line_search_level,
                                   sample_mixture, _loss_batch, _roa_loss_grad)

from reference import cell_index, roa_loss


class QuadV:
    """Duck-typed stand-in for the Lyapunov net: V(x) = scale * ||x||^2."""

    def __init__(self, scale=1.0):
        self.scale = scale

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.scale * (x[:, 0] ** 2 + x[:, 1] ** 2)

    def copy(self):
        return QuadV(self.scale)


def quad_grid(grid):
    """V = ||x||^2 at the cell centres."""
    centers = grid.centers()
    return centers[:, 0] ** 2 + centers[:, 1] ** 2


contract = lambda x: 0.5 * np.asarray(x, dtype=float)
expand = lambda x: 2.0 * np.asarray(x, dtype=float)


class TestHyper:
    def test_defaults_follow_schedule(self, cfg):
        assert (cfg.gamma_r, cfg.beta_r, cfg.batch_size(1)) == (4, 0.6, 10)
        assert (cfg.growth_iters, cfg.rollout_steps_r) == (20, 10)
        assert (cfg.lambda_roa, cfg.lambda_monot) == (1000, 0.01)
        assert (cfg.roa_lr, cfg.roa_sgd_steps, cfg.roa_grad_clip) == (0.01, 10_000, 5e-4)
        assert cfg.batch_size(3) == 30


class TestSampleMixture:
    def test_beta_zero_is_domain_sampling(self, grid):
        v = quad_grid(grid)
        rng = np.random.default_rng(0)
        pts, empty = sample_mixture(v, 1.0, 4.0, 0.0, 10_000, grid, rng)
        assert not empty
        gap_cells = (v >= 1.0) & (v < 4.0)
        frac = gap_cells[cell_index(grid, pts)].mean()
        expect = gap_cells.mean()
        assert abs(frac - expect) < 0.02

    def test_beta_one_samples_only_the_gap(self, grid):
        v_cells = quad_grid(grid)
        rng = np.random.default_rng(1)
        pts, empty = sample_mixture(v_cells, 1.0, 4.0, 1.0, 2000, grid, rng)
        assert not empty
        idx = cell_index(grid, pts)
        assert np.all((v_cells[idx] >= 1.0) & (v_cells[idx] < 4.0))

    def test_mixture_fraction_matches_expectation(self, grid):
        v = quad_grid(grid)
        rng = np.random.default_rng(2)
        beta = 0.6
        pts, _ = sample_mixture(v, 1.0, 4.0, beta, 10_000, grid, rng)
        gap_cells = (v >= 1.0) & (v < 4.0)
        measured = gap_cells[cell_index(grid, pts)].mean()
        expect = beta + (1 - beta) * gap_cells.mean()
        assert abs(measured - expect) < 0.02

    def test_empty_gap_falls_back_to_domain(self, grid):
        # level so high that the ring has no cells
        rng = np.random.default_rng(3)
        pts, empty = sample_mixture(quad_grid(grid), 1e6, 4.0, 1.0, 100, grid, rng)
        assert empty
        assert len(pts) == 100


class TestLabelBatch:
    def test_origin_labels_in(self, f_initial, grid):
        est = LevelSetEstimate(QuadV(), 1.0)
        lab = label_batch(np.zeros((1, 2)), f_initial, est, 10, grid.safety_box())
        assert len(lab.x_in) == 1 and len(lab.x_out) == 0

    def test_divergent_labels_out(self, grid):
        est = LevelSetEstimate(QuadV(), 1e9)  # everything inside by value
        box = ((-1.0, 1.0), (-1.0, 1.0))
        lab = label_batch(np.array([[0.9, 0.9]]), expand, est, 10, box)
        assert len(lab.x_out) == 1

    def test_partition_is_exact(self, f_initial, grid):
        rng = np.random.default_rng(4)
        x0s = rng.uniform(-1, 1, (40, 2))
        est = LevelSetEstimate(QuadV(), 0.25)
        lab = label_batch(x0s, f_initial, est, 10, grid.safety_box())
        assert len(lab.x_in) + len(lab.x_out) == 40

    def test_labels_deterministic(self, f_initial, grid, pretrained,
                                  pretrained_level):
        est = LevelSetEstimate(pretrained[0], 0.05)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            pts, _ = sample_mixture(pretrained_level[0], est.c, 4.0, 0.6, 50,
                                    grid, rng)
            lab = label_batch(pts, f_initial, est, 10, grid.safety_box())
            outs.append((lab.x_in.copy(), lab.x_out.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_agrees_with_oracle_away_from_boundary(self, f_initial, grid,
                                                   pretrained, pretrained_level,
                                                   cfg):
        from roagrow.oracle import true_roa

        est = LevelSetEstimate(pretrained[0], pretrained_level[1])
        rng = np.random.default_rng(6)
        idx = rng.integers(0, grid.n_cells, 100)
        pts = grid.jitter_within(idx, rng)
        lab = label_batch(pts, f_initial, est, 10, grid.safety_box())
        mask = true_roa(f_initial, grid, cfg.oracle_kmax)
        labels = {tuple(x): True for x in lab.x_in}
        agree = 0
        for x in pts:
            predicted = labels.get(tuple(x), False)
            actual = mask.values[cell_index(grid, x.reshape(1, 2))[0]]
            # inner-estimate labels may only under-approximate
            agree += predicted == actual or (not predicted and actual)
        assert agree >= 90


class TestRoaLoss:
    def _cfg(self, **kw):
        return RedesignConfig(**{"lambda_roa": 0.0, "lambda_monot": 0.0, **kw})

    def test_single_in_state_at_cbar(self):
        net = QuadV()
        x = np.array([[1.0, 0.0]])           # V = 1 = c_bar
        prev = LevelSetEstimate(QuadV(), 1.0)
        loss = roa_loss(net, x, np.zeros((0, 2)), lambda z: z, prev, lambda z: z,
                        self._cfg())
        assert loss == pytest.approx(0.0)

    def test_classifier_terms(self):
        net = QuadV()
        x_in = np.array([[np.sqrt(0.5), 0.0]])   # V = 0.5
        x_out = np.array([[np.sqrt(2.0), 0.0]])  # V = 2
        prev = LevelSetEstimate(QuadV(), 1.0)
        loss = roa_loss(net, x_in, x_out, lambda z: z, prev, lambda z: z,
                        self._cfg())
        assert loss == pytest.approx((0.5 - 1) - (2 - 1))

    def test_monotonicity_term(self):
        net = QuadV()
        x_in = np.array([[np.sqrt(0.7), 0.0]])   # V = 0.7
        # previous composition evaluates to 0.5 at that state
        prev = LevelSetEstimate(QuadV(scale=0.5 / 0.7), 1.0)
        loss = roa_loss(net, x_in, np.zeros((0, 2)), lambda z: z, prev,
                        lambda z: z, self._cfg(lambda_monot=1.0))
        assert loss == pytest.approx((0.7 - 1) + (0.7 - 0.5) ** 2)

    def test_decrease_term_uses_current_policy(self):
        net = QuadV()
        x_in = np.array([[1.0, 0.0]])
        prev = LevelSetEstimate(QuadV(), 1.0)
        loss = roa_loss(net, x_in, np.zeros((0, 2)), contract, prev, lambda z: z,
                        self._cfg(lambda_roa=2.0))
        # Delta V = 0.25 - 1 under the contraction
        assert loss == pytest.approx((1 - 1) + 2.0 * (0.25 - 1.0))

    def test_gradient_matches_finite_differences(self, pretrained, f_initial, cfg):
        net = pretrained[0].copy()
        rng = np.random.default_rng(7)
        raw = replace(cfg, roa_grad_clip=1e9)  # raw gradient
        x_in = rng.uniform(-0.5, 0.5, (4, 2))
        x_out = rng.uniform(-1, 1, (5, 2))
        prev = LevelSetEstimate(pretrained[0], 0.05)
        xin_next = f_initial(x_in)
        prev_vals = prev.net.value(f_initial(x_in))
        loss, grad = _roa_loss_grad(
            net, *_loss_batch(x_in, x_out, xin_next, raw), prev_vals, raw)
        flat = grad * (len(x_in) + len(x_out))
        theta = net.params.copy()
        h = 1e-6

        def loss_at(vec):
            net.params[:] = vec
            out = roa_loss(net, x_in, x_out, f_initial, prev, f_initial, raw)
            net.params[:] = theta
            return out

        # the logged loss (the metrics.csv column) is the reference formula
        assert loss == pytest.approx(loss_at(theta), rel=1e-12, abs=1e-12)

        for _ in range(10):
            d = rng.normal(size=theta.shape)
            d /= np.linalg.norm(d)
            fd = (loss_at(theta + h * d) - loss_at(theta - h * d)) / (2 * h)
            assert abs(flat @ d - fd) / max(1.0, abs(fd)) < 1e-4

    def test_monotonicity_gradient_added_after_the_cap(self, small_net, f_initial,
                                                         cfg):
        net = small_net.copy()
        rng = np.random.default_rng(3)
        x_in = rng.uniform(-0.5, 0.5, (3, 2))
        x_out = rng.uniform(-1, 1, (4, 2))
        xin_next = f_initial(x_in)
        v_in = net.value(x_in)
        prev_vals = v_in + np.array([0.3, -0.2, 0.5])
        lam = cfg.lambda_monot
        assert lam > 0

        def flat_grad(**kw):
            c = replace(cfg, **kw)
            return _roa_loss_grad(
                net, *_loss_batch(x_in, x_out, xin_next, c), prev_vals, c)[1]

        # the linear part alone is well above the cap, so the cap does cut
        raw_linear = flat_grad(lambda_monot=0.0, roa_grad_clip=1e9)
        assert np.linalg.norm(raw_linear) > 10 * cfg.roa_grad_clip
        capped = flat_grad(lambda_monot=0.0)
        assert np.linalg.norm(capped) <= cfg.roa_grad_clip * (1 + 1e-12)

        n_batch = len(x_in) + len(x_out)
        expect = net.backward(x_in, 2.0 * lam * (v_in - prev_vals) / n_batch).d_params
        np.testing.assert_allclose(flat_grad() - capped, expect, rtol=1e-10)

    def test_cap_sums_block_by_block(self, small_net, f_initial, cfg):
        # the capped gradient's bytes, and with them every artifact's, depend on
        # the order in which the norm sums the squares
        net = small_net.copy()
        rng = np.random.default_rng(3)
        x_in = rng.uniform(-0.5, 0.5, (3, 2))
        x_out = rng.uniform(-1, 1, (4, 2))
        x, weights = _loss_batch(x_in, x_out, f_initial(x_in), cfg)
        prev_vals = net.value(x_in) + np.array([0.3, -0.2, 0.5])
        n_batch = len(x_in) + len(x_out)
        w_monot = 2.0 * cfg.lambda_monot * (net.forward(x).v[:3] - prev_vals) / n_batch
        tape = net.backward(x, weights, extra_weights=w_monot)
        raw = tape.d_params
        norm = np.sqrt(sum(float((g1 ** 2).sum() + (g2 ** 2).sum())
                           for g1, g2 in net.blocks(raw)))
        assert norm > cfg.roa_grad_clip
        # precondition: a flat dot product would scale differently
        assert cfg.roa_grad_clip / np.sqrt(raw @ raw) != cfg.roa_grad_clip / norm
        _, grad = _roa_loss_grad(net, x, weights, prev_vals, cfg)
        expect = raw * (cfg.roa_grad_clip / norm) + tape.d_params_extra
        assert np.array_equal(grad, expect)

    def test_one_forward_per_step(self, small_net, f_initial, cfg, monkeypatch):
        net = small_net.copy()
        rng = np.random.default_rng(5)
        x_in = rng.uniform(-0.5, 0.5, (3, 2))
        x_out = rng.uniform(-1, 1, (4, 2))
        xin_next = f_initial(x_in)
        prev_vals = net.value(x_in) + 0.1
        built = []
        build = lyapunov.build_weight
        monkeypatch.setattr(lyapunov, "build_weight",
                            lambda *blocks: built.append(blocks) or build(*blocks))
        _roa_loss_grad(net, *_loss_batch(x_in, x_out, xin_next, cfg), prev_vals, cfg)
        assert len(built) == len(net.layers)


class TestLineSearch:
    def test_contraction_limited_by_boundary(self, grid):
        v = quad_grid(grid)
        c = line_search_level(v, 0.25 * v, grid)
        boundary_min = v[grid.boundary_mask()].min()
        assert c == pytest.approx(boundary_min)

    def test_expansion_returns_minimal_level(self, grid):
        v = quad_grid(grid)
        c = line_search_level(v, 4.0 * v, grid)
        nonorigin = np.ones(grid.n_cells, dtype=bool)
        nonorigin[grid.origin_index()] = False
        assert c == pytest.approx(v[nonorigin].min())

    def test_monotone_nesting(self, grid):
        v = quad_grid(grid)
        c = line_search_level(v, 0.25 * v, grid)
        for c_smaller in (0.5 * c, 0.1 * c):
            assert np.all((v < c_smaller) <= (v < c))

    def test_degenerate_net_rejected(self, grid):
        with pytest.raises(DegenerateLevelError):
            line_search_level(np.full(grid.n_cells, 3.0),
                              np.full(grid.n_cells, 3.0), grid)

    def test_soundness_of_returned_level(self, pretrained, pretrained_level,
                                         f_initial, grid):
        v, c = pretrained_level
        dv = pretrained[0].value(f_initial(grid.centers())) - v
        inside = v < c
        inside[grid.origin_index()] = False
        assert np.all(dv[inside] < 0)
        assert not np.any(inside & grid.boundary_mask())


class TestEstimateRoa:
    def test_short_run_is_sound_and_logged(self, pretrained, pretrained_level,
                                           f_initial, grid, cfg):
        v0, c0 = pretrained_level
        prev = LevelSetEstimate(pretrained[0], c0)
        short = replace(cfg, growth_iters=5, roa_sgd_steps=500)
        est, v, records = estimate_roa(prev, v0, f_initial, f_initial, short,
                                       short.batch_size(1), grid,
                                       np.random.default_rng(1))
        assert len(records) == 5
        centers = grid.centers()
        assert np.array_equal(v, est.net.value(centers))
        dv = est.net.value(f_initial(centers)) - v
        inside = v < est.c
        inside[grid.origin_index()] = False
        assert np.all(dv[inside] < 0)

    def test_deterministic_under_seed(self, pretrained, pretrained_level,
                                      f_initial, grid, cfg):
        prev = LevelSetEstimate(pretrained[0], 0.05)
        short = replace(cfg, growth_iters=3, roa_sgd_steps=300)
        outs = []
        for _ in range(2):
            est, _, recs = estimate_roa(prev, pretrained_level[0], f_initial,
                                        f_initial, short, short.batch_size(1),
                                        grid, np.random.default_rng(3))
            outs.append((est.net.params, est.c,
                         [r.est_fraction for r in recs]))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]

    def test_two_grid_evaluations_per_iteration(self, pretrained, pretrained_level,
                                                f_initial, grid, cfg, monkeypatch):
        # one at the cell centres, one at their images under the policy
        rows = []
        value = lyapunov.PDLyapunovNet.value
        monkeypatch.setattr(lyapunov.PDLyapunovNet, "value",
                            lambda net, x: rows.append(len(x)) or value(net, x))
        prev = LevelSetEstimate(pretrained[0], pretrained_level[1])
        short = replace(cfg, growth_iters=3, roa_sgd_steps=30)
        estimate_roa(prev, pretrained_level[0], f_initial, f_initial, short,
                     short.batch_size(1), grid, np.random.default_rng(2))
        assert rows.count(grid.n_cells) == 2 * short.growth_iters
