import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

import roagrow.lyapunov as lyapunov
import roagrow.roa_estimator as roa_estimator
from roagrow.config import RedesignConfig
from roagrow.grid import GridDomain
from roagrow.lyapunov import VALUE_BLOCK, Workspace
from roagrow.roa_estimator import (DegenerateLevelError, LevelSetEstimate,
                                   estimate_roa, label_batch, line_search_level,
                                   sample_mixture, _loss_batch, _roa_loss_grad)

from reference import (cell_index, full_grid_level, reference_backward, roa_loss,
                       rollout_batch)


class QuadV:
    """Duck-typed stand-in for the Lyapunov net: V(x) = scale * ||x||^2."""

    def __init__(self, scale=1.0):
        self.scale = scale

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.scale * (x[:, 0] ** 2 + x[:, 1] ** 2)

    def copy(self):
        return QuadV(self.scale)


class TableV:
    """Duck-typed net for the line search: a state (k, *) has V = table[k],
    so ``images`` that hold cell indices give any V field at the images."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.rows = []                    # rows of each value call

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.rows.append(len(x))
        return self.table[x[:, 0].astype(int)]


def images_of(v_next):
    """Images whose V under ``TableV(v_next)`` is ``v_next``, cell by cell."""
    return np.stack([np.arange(len(v_next)), np.zeros(len(v_next))], axis=1)


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
        box = (1.0, 1.0)
        lab = label_batch(np.array([[0.9, 0.9]]), expand, est, 10, box)
        assert len(lab.x_out) == 1

    @pytest.mark.parametrize("size", [1, 10, 18, 19, 200])
    @pytest.mark.parametrize("factor", [1.0, 10.0])
    @pytest.mark.parametrize("nan_map", [False, True])
    def test_reference_rule_byte_for_byte(self, size, factor, nan_map, small_net,
                                          f_initial, grid):
        # the labels of rollout_batch's rule: in when V(finals) < c and the
        # rollout stayed in the box; V's bits depend on the batch size, so
        # both evaluate it on the whole batch.  The horizons end inside the
        # tail's blocks of steps and on their edges
        def f(x):
            y = f_initial(x)
            if nan_map:
                y[np.abs(y[:, 1]) > 4.0] = np.nan
            return y

        box = grid.safety_box(factor)
        x0s = np.random.default_rng(size).uniform([-1.5, -6.0], [1.5, 6.0],
                                                  (size, 2))
        for steps in (1, 10, 31, 32, 33, 100):
            finals, diverged = rollout_batch(f, x0s, steps, box)
            v = small_net.value(finals)
            c = float(np.median(v[~diverged])) if (~diverged).any() else 1.0
            inside = (v < c) & ~diverged
            lab = label_batch(x0s, f, LevelSetEstimate(small_net, c), steps, box)
            assert lab.x_in.tobytes() == x0s[inside].tobytes()
            assert lab.x_out.tobytes() == x0s[~inside].tobytes()

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
            Workspace(net), *_loss_batch(x_in, x_out, xin_next, raw), prev_vals, raw)
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
                Workspace(net), *_loss_batch(x_in, x_out, xin_next, c), prev_vals, c)[1]

        # the linear part alone is well above the cap, so the cap does cut
        raw_linear = flat_grad(lambda_monot=0.0, roa_grad_clip=1e9)
        assert np.linalg.norm(raw_linear) > 10 * cfg.roa_grad_clip
        capped = flat_grad(lambda_monot=0.0)
        assert np.linalg.norm(capped) <= cfg.roa_grad_clip * (1 + 1e-12)

        n_batch = len(x_in) + len(x_out)
        _, expect, _ = reference_backward(net, x_in, 2.0 * lam * (v_in - prev_vals) / n_batch)
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
        w_monot = 2.0 * cfg.lambda_monot * (Workspace(net).forward(x)[:3] - prev_vals) / n_batch
        work = Workspace(net)
        work.forward(x)
        work.backward(weights, w_monot)
        raw = work.grad
        norm = np.sqrt(sum(float((g1 ** 2).sum() + (g2 ** 2).sum())
                           for g1, g2 in net.blocks(raw)))
        assert norm > cfg.roa_grad_clip
        # precondition: a flat dot product would scale differently
        assert cfg.roa_grad_clip / np.sqrt(raw @ raw) != cfg.roa_grad_clip / norm
        _, grad = _roa_loss_grad(Workspace(net), x, weights, prev_vals, cfg)
        expect = raw * (cfg.roa_grad_clip / norm) + work.grad_extra
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
        work = Workspace(net)
        for steps in (1, 2):
            _roa_loss_grad(work, *_loss_batch(x_in, x_out, xin_next, cfg),
                           prev_vals, cfg)
            assert len(built) == steps * len(net.layers)

    @pytest.mark.parametrize("lambda_monot", [0.01, 0.0])
    def test_reused_workspace_gives_fresh_bits(self, small_net, f_initial, cfg,
                                               lambda_monot):
        # batches whose size and n_in change, n_in = 0 included, each for a
        # few steps, as the growth iterations give them
        c = replace(cfg, lambda_monot=lambda_monot)
        net = small_net.copy()
        rng = np.random.default_rng(11)
        work = Workspace(net)
        for n_in, n_out in [(3, 4), (0, 10), (12, 0), (1, 1), (0, 1), (25, 35),
                            (3, 4)]:
            x_in = rng.uniform(-0.5, 0.5, (n_in, 2))
            x_out = rng.uniform(-1, 1, (n_out, 2))
            x, weights = _loss_batch(x_in, x_out, f_initial(x_in), c)
            prev_vals = net.value(x_in) + rng.normal(scale=0.1, size=n_in)
            for _ in range(3):
                loss, grad = _roa_loss_grad(work, x, weights, prev_vals, c)
                grad = grad.copy()
                fresh_loss, fresh_grad = _roa_loss_grad(Workspace(net), x, weights,
                                                        prev_vals, c)
                assert loss == fresh_loss
                assert np.array_equal(grad, fresh_grad)
                net.sgd_step(grad, c.roa_lr)


class TestLineSearch:
    def test_contraction_limited_by_boundary(self, grid):
        v = quad_grid(grid)
        c = line_search_level(QuadV(), v, contract(grid.centers()), grid)
        boundary_min = v[grid.boundary_mask()].min()
        assert c == pytest.approx(boundary_min)

    def test_expansion_returns_minimal_level(self, grid):
        v = quad_grid(grid)
        c = line_search_level(QuadV(), v, expand(grid.centers()), grid)
        nonorigin = np.ones(grid.n_cells, dtype=bool)
        nonorigin[grid.origin_index()] = False
        assert c == pytest.approx(v[nonorigin].min())

    def test_monotone_nesting(self, grid):
        v = quad_grid(grid)
        c = line_search_level(QuadV(), v, contract(grid.centers()), grid)
        for c_smaller in (0.5 * c, 0.1 * c):
            assert np.all((v < c_smaller) <= (v < c))

    def test_degenerate_net_rejected(self, grid):
        with pytest.raises(DegenerateLevelError):
            line_search_level(QuadV(0.0), np.full(grid.n_cells, 3.0),
                              grid.centers(), grid)

    def test_soundness_of_returned_level(self, pretrained, pretrained_level,
                                         f_initial, grid):
        v, c = pretrained_level
        dv = pretrained[0].value(f_initial(grid.centers())) - v
        inside = v < c
        inside[grid.origin_index()] = False
        assert np.all(dv[inside] < 0)
        assert not np.any(inside & grid.boundary_mask())


def prefix_and_full(v, v_next, grid):
    """The prefix search's level and the full-grid rule's, and the rows the
    prefix search evaluated."""
    net = TableV(v_next)
    return (line_search_level(net, v, images_of(v_next), grid),
            full_grid_level(v, v_next, grid), net.rows)


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestPrefixLineSearch:
    """The prefix search returns, bit for bit, what the full-grid rule in
    ``reference.py`` returns on V at every image."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 12), st.integers(2, 12), st.data())
    def test_equals_the_full_grid_rule(self, n_theta, n_omega, data):
        grid = GridDomain(n_theta=n_theta, n_omega=n_omega)
        n = grid.n_cells
        field = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, 2.0]))
        v = np.array(data.draw(st.lists(field, min_size=n, max_size=n)))
        v_next = np.array(data.draw(st.lists(field, min_size=n, max_size=n)))
        if float(v.max() - v.min()) < 1e-12:
            v[0] += 1.0
        level, expect, rows = prefix_and_full(v, v_next, grid)
        assert same_float(level, expect)
        assert all(r == n for r in rows)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(20, 70), st.integers(20, 70), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 0.05))
    def test_equals_the_full_grid_rule_over_blocks(self, n_theta, n_omega, seed,
                                                   p_bad):
        # grids of up to 4,900 cells, so up to 5 blocks; a violation is an
        # image whose V is at least the cell's, equality included
        grid = GridDomain(n_theta=n_theta, n_omega=n_omega)
        rng = np.random.default_rng(seed)
        v = rng.uniform(0, 1, grid.n_cells)
        v_next = v * rng.uniform(0.5, 1.0, grid.n_cells)
        bad = rng.random(grid.n_cells) < p_bad
        v_next[bad] = v[bad] + rng.choice([0.0, 0.1], size=int(bad.sum()))
        level, expect, _ = prefix_and_full(v, v_next, grid)
        assert same_float(level, expect)

    def test_constant_v_still_degenerate(self):
        grid = GridDomain(n_theta=5, n_omega=5)
        v = np.full(grid.n_cells, 0.3)
        with pytest.raises(DegenerateLevelError):
            full_grid_level(v, v, grid)
        with pytest.raises(DegenerateLevelError):
            line_search_level(TableV(v), v, images_of(v), grid)

    def test_no_candidate_below_the_cap(self, grid):
        # the lowest boundary cell is the lowest cell but the origin's
        v = quad_grid(grid) + 10.0
        v[grid.boundary_mask()] = 1.0
        v[grid.origin_index()] = 0.5
        level, expect, rows = prefix_and_full(v, v + 1.0, grid)
        assert same_float(level, expect) and level == 1.0
        assert rows == []

    @pytest.mark.parametrize("rank", [VALUE_BLOCK + 5, 3 * VALUE_BLOCK - 1])
    def test_first_violation_beyond_the_first_block(self, grid, rank):
        # an elliptic V, level with the domain's shape: 78% of the cells lie
        # below the boundary cap
        centers = grid.centers()
        v = (centers[:, 0] / grid.theta_max) ** 2 + (centers[:, 1] / grid.omega_max) ** 2
        order = np.argsort(v, kind="stable")
        v_next = 0.5 * v
        v_next[order[rank]] = 2.0 * v[order[rank]] + 1.0
        level, expect, rows = prefix_and_full(v, v_next, grid)
        assert level < v[grid.boundary_mask()].min()
        assert same_float(level, expect) and level == v[order[rank]]
        assert rows == [VALUE_BLOCK] * (rank // VALUE_BLOCK + 1)

    def test_fewer_candidates_than_the_small_batch_limit(self, grid):
        # 5 cells below the cap: one block of VALUE_BLOCK rows is evaluated
        v = quad_grid(grid) + 10.0
        v[grid.boundary_mask()] = 5.0
        low = [4 * grid.n_theta + 4, 50 * grid.n_theta + 7, 9 * grid.n_theta + 60,
               30 * grid.n_theta + 30, 70 * grid.n_theta + 80]
        v[low] = [1.0, 2.0, 3.0, 3.0, 4.0]
        v_next = 0.5 * v
        v_next[low[3]] = 9.0
        level, expect, rows = prefix_and_full(v, v_next, grid)
        assert same_float(level, expect) and level == 3.0
        assert rows == [VALUE_BLOCK]

    @pytest.mark.parametrize("cells, low", [(2, -1.0), (3, -0.1)])
    def test_tiny_grids_with_the_origin_on_the_boundary(self, cells, low):
        # a 3 x 3 grid centred on the origin has it in its one inner cell
        grid = GridDomain(theta_min=low, theta_max=1.0, omega_min=low,
                          omega_max=1.0, n_theta=cells, n_omega=cells)
        origin = grid.origin_index()
        assert grid.boundary_mask()[origin]
        rng = np.random.default_rng(cells)
        for _ in range(50):
            v = rng.uniform(0, 1, grid.n_cells)
            v_next = v + rng.uniform(-0.5, 0.5, grid.n_cells)
            level, expect, rows = prefix_and_full(v, v_next, grid)
            assert same_float(level, expect)
            assert rows in ([], [grid.n_cells])

    def test_real_net_on_the_grid(self, pretrained, f_initial, grid):
        net = pretrained[0]
        v = net.value(grid.centers())
        images = f_initial(grid.centers())
        level = line_search_level(net, v, images, grid)
        assert same_float(level, full_grid_level(v, net.value(images), grid))


class TestEstimateRoa:
    def test_short_run_is_sound_and_logged(self, pretrained, pretrained_level,
                                           f_initial, grid, cfg):
        v0, c0 = pretrained_level
        prev = LevelSetEstimate(pretrained[0], c0)
        short = replace(cfg, growth_iters=5, roa_sgd_steps=500)
        est, v, records = estimate_roa(prev, v0, f_initial, short, 1,
                                       np.random.default_rng(1))
        assert len(records) == 5
        centers = grid.centers()
        assert np.array_equal(v, est.net.value(centers))
        dv = est.net.value(f_initial(centers)) - v
        inside = v < est.c
        inside[grid.origin_index()] = False
        assert np.all(dv[inside] < 0)

    def test_deterministic_under_seed(self, pretrained, pretrained_level,
                                      f_initial, cfg):
        prev = LevelSetEstimate(pretrained[0], 0.05)
        short = replace(cfg, growth_iters=3, roa_sgd_steps=300)
        outs = []
        for _ in range(2):
            est, _, recs = estimate_roa(prev, pretrained_level[0], f_initial,
                                        short, 1, np.random.default_rng(3))
            outs.append((est.net.params, est.c,
                         [r.est_fraction for r in recs]))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]

    def test_one_grid_evaluation_per_iteration(self, pretrained, pretrained_level,
                                               f_initial, grid, cfg, monkeypatch):
        # at the cell centres; the line search evaluates only a prefix of
        # their images
        rows = []
        value = lyapunov.PDLyapunovNet.value
        monkeypatch.setattr(lyapunov.PDLyapunovNet, "value",
                            lambda net, x: rows.append(len(x)) or value(net, x))
        prev = LevelSetEstimate(pretrained[0], pretrained_level[1])
        short = replace(cfg, growth_iters=3, roa_sgd_steps=30)
        estimate_roa(prev, pretrained_level[0], f_initial, short, 1,
                     np.random.default_rng(2))
        assert rows.count(grid.n_cells) == short.growth_iters
        assert sum(rows) < 2 * short.growth_iters * grid.n_cells

    def test_steps_in_float32_and_returns_a_float64_net(
            self, pretrained, pretrained_level, f_initial, grid, cfg, monkeypatch):
        dtypes = []
        backward = Workspace.backward
        monkeypatch.setattr(Workspace, "backward", lambda work, *a, **k: (
            dtypes.append((work.acts[-1].dtype, work.grad.dtype))
            or backward(work, *a, **k)))
        prev = LevelSetEstimate(pretrained[0], pretrained_level[1])
        short = replace(cfg, growth_iters=2, roa_sgd_steps=10)
        est, v, records = estimate_roa(prev, pretrained_level[0], f_initial, short,
                                       1, np.random.default_rng(4))
        assert dtypes == [(np.float32, np.float32)] * short.roa_sgd_steps
        assert est.net.params.dtype == v.dtype == np.float64
        assert all(isinstance(r.loss, float) for r in records)
        centers = grid.centers()
        value, grad = est.net.grad_x(centers[:9])
        assert est.net.value(centers).dtype == value.dtype == grad.dtype == np.float64

    def test_every_sample_labelled_out(self, pretrained, pretrained_level, cfg,
                                       monkeypatch):
        # a map that leaves the safety box in one step: no sample is labelled
        # in, so the in-rows, their images and the monotonicity targets are
        # empty batches
        def escape(x):
            return np.asarray(x, dtype=float) + 100.0

        label = roa_estimator.label_batch
        n_in = []

        def spy(*args):
            labeled = label(*args)
            n_in.append(len(labeled.x_in))
            return labeled

        monkeypatch.setattr(roa_estimator, "label_batch", spy)
        prev = LevelSetEstimate(pretrained[0], pretrained_level[1])
        short = replace(cfg, growth_iters=3, roa_sgd_steps=30)
        _, _, records = estimate_roa(prev, pretrained_level[0], escape,
                                     short, 1, np.random.default_rng(5))
        assert n_in == [0] * short.growth_iters
        assert [r.iteration for r in records] == [1, 2, 3]
        assert all(np.isfinite(r.loss) for r in records)
