import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roagrow.lyapunov as lyapunov
from roagrow.grid import GridDomain
from roagrow.lyapunov import (PDLyapunovNet, PretrainDivergence, Workspace,
                              build_weight, load_net, pretrain_quadratic,
                              quadratic_target, save_net)

from reference import reference_backward, reference_forward


def _pass(net, x, out_weights, extra_weights=None, d_input=False) -> Workspace:
    """A fresh workspace after one forward and one reverse pass over ``x``."""
    work = Workspace(net)
    work.forward(x)
    work.backward(out_weights, extra_weights, d_input=d_input)
    return work


class TestBuildWeight:
    def test_zero_g1_gives_eps_identity(self):
        w = build_weight(np.zeros((1, 2)), np.zeros((0, 2)), 0.01)
        assert np.allclose(w, 0.01 * np.eye(2))
        assert np.linalg.matrix_rank(w) == 2

    def test_top_block_eigenvalues_at_least_eps(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g1 = rng.normal(size=(3, 4))
            top = build_weight(g1, rng.normal(size=(2, 4)), 0.05)[:4, :]
            eigs = np.linalg.eigvalsh(top)
            assert eigs.min() >= 0.05 - 1e-12

    def test_trivial_nullspace(self):
        rng = np.random.default_rng(1)
        w = build_weight(rng.normal(size=(2, 2)), rng.normal(size=(62, 2)), 0.01)
        # least-squares residual of Wx = 0 for random x is x itself only at 0
        for x in rng.normal(size=(20, 2)):
            assert np.linalg.norm(w @ x) > 1e-8 * np.linalg.norm(x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_weight(np.zeros((2, 2)), np.zeros((3, 4)), 0.01)
        # a 2-4 net has 2*2 + 2*2 parameters
        with pytest.raises(ValueError, match="expected 8 parameters"):
            PDLyapunovNet(np.zeros(9), (2, 4), 0.01)
        with pytest.raises(ValueError, match="non-contracting"):
            PDLyapunovNet(np.zeros(8), (4, 2), 0.01)
        for eps in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive finite"):
                PDLyapunovNet(np.zeros(8), (2, 4), eps)
            with pytest.raises(ValueError, match="positive finite"):
                PDLyapunovNet.initialize(np.random.default_rng(0), (2, 4), eps)

    @pytest.mark.parametrize("widths, eps, defect", [
        ((4, 2), 0.01, r"non-contracting, got \(4, 2\)"),
        ((2, 64, 8, 64), 0.01, r"non-contracting, got \(2, 64, 8, 64\)"),
        ((2, 4), 0.0, "positive finite"),
        ((2, 4), np.nan, "positive finite"),
    ], ids=["contracting", "contracting-middle", "zero-eps", "nan-eps"])
    def test_initialize_checks_before_drawing(self, widths, eps, defect):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=defect):
            PDLyapunovNet.initialize(rng, widths, eps)
        assert rng.bit_generator.state == state

    def test_build_weight_into_a_buffer(self):
        rng = np.random.default_rng(2)
        g1, g2 = rng.normal(size=(2, 2)), rng.normal(size=(62, 2))
        out = np.full((64, 2), np.nan)
        assert build_weight(g1, g2, 0.01, out) is out
        expect = np.vstack([g1.T @ g1 + 0.01 * np.eye(2), g2])
        assert np.array_equal(out, expect)


class TestForward:
    def test_value_zero_at_origin(self, small_net):
        assert small_net.value(np.zeros((1, 2)))[0] == 0.0
        work = Workspace(small_net)
        work.forward(np.zeros((1, 2)))
        assert np.all(work.acts[-1] == 0.0)

    def test_positive_on_grid(self, small_net, grid):
        v = small_net.value(grid.centers())
        assert np.all(v > 0.0)

    def test_value_is_squared_feature_norm(self, small_net):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (5, 2))
        v = small_net.value(x)
        work = Workspace(small_net)
        work.forward(x)
        assert np.allclose(v, np.sum(work.acts[-1] ** 2, axis=1))

    def test_copy_is_independent(self, small_net):
        clone = small_net.copy()
        assert not np.shares_memory(clone.params, small_net.params)
        clone.layers[0][0][...] += 1.0
        assert not np.allclose(clone.layers[0][0], small_net.layers[0][0])
        # an SGD step writes into the vector that the layer views see
        g2 = clone.layers[-1][1].copy()
        clone.sgd_step(np.ones_like(clone.params), 0.5)
        assert np.array_equal(clone.layers[-1][1], g2 - 0.5)


# Under OpenBLAS, V of a row in a batch of 18 rows or fewer can differ in its
# low bits from V in a larger batch; 2B + 18 leaves such a tail unless the
# remainder joins the last block.
B = lyapunov.VALUE_BLOCK
VALUE_ROWS = [1, 18, 19, B - 1, B, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 18,
              10_000, 10_777]


class TestValueBlocks:
    """``value`` walks the rows in blocks and keeps no activations; V of every
    row must still equal a workspace's forward pass bit for bit."""

    @pytest.fixture(scope="class")
    def points(self):
        n = VALUE_ROWS[-1]
        rng = np.random.default_rng(13)
        return {"centres": GridDomain(n_theta=110, n_omega=110).centers()[:n],
                "random": rng.uniform([-2.0, -7.0], [2.0, 7.0], size=(n, 2))}

    @pytest.fixture(scope="class")
    def loaded_net(self, small_net, tmp_path_factory):
        path = tmp_path_factory.mktemp("value") / "net.ckpt"
        save_net(small_net, path)
        return load_net(path)

    @pytest.mark.parametrize("n", VALUE_ROWS)
    @pytest.mark.parametrize("where", ["centres", "random"])
    @pytest.mark.parametrize("which", ["fresh", "loaded"])
    def test_value_equals_forward_bit_for_bit(self, small_net, loaded_net,
                                              points, n, where, which):
        net = small_net if which == "fresh" else loaded_net
        x = points[where][:n]
        assert np.array_equal(net.value(x), Workspace(net).forward(x))

    @pytest.mark.parametrize("cells", [100, 200])
    def test_grid_value_peak_memory(self, small_net, cells):
        x = GridDomain(n_theta=cells, n_omega=cells).centers()
        tracemalloc.start()
        try:
            small_net.value(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestGradients:
    def test_grad_x_zero_at_origin(self, small_net):
        v, g = small_net.grad_x(np.zeros((1, 2)))
        assert np.all(g == 0.0) and np.all(v == 0.0)

    def test_grad_x_matches_finite_differences(self, small_net):
        rng = np.random.default_rng(3)
        h = 1e-5
        x = rng.uniform(-1.5, 1.5, (50, 2))
        v, g = small_net.grad_x(x)
        # V comes from the same forward pass, with value's bits
        assert np.array_equal(v, small_net.value(x))
        fd = np.stack([(small_net.value(x + e) - small_net.value(x - e)) / (2 * h)
                       for e in h * np.eye(2)], axis=1)
        rel = np.abs(g - fd).max(axis=1) / np.maximum(1.0, np.abs(fd).max(axis=1))
        assert np.all(rel < 1e-4)

    def test_grad_params_matches_finite_differences(self, small_net):
        rng = np.random.default_rng(4)
        net = small_net.copy()
        x = rng.uniform(-1, 1, (3, 2))
        flat_grad = _pass(net, x, np.ones(3)).grad
        theta = net.params.copy()
        h = 1e-5
        for _ in range(20):
            d = rng.normal(size=theta.shape)
            d /= np.linalg.norm(d)
            net.params[:] = theta + h * d
            up = float(net.value(x).sum())
            net.params[:] = theta - h * d
            dn = float(net.value(x).sum())
            net.params[:] = theta
            fd = (up - dn) / (2 * h)
            assert abs(flat_grad @ d - fd) / max(1.0, abs(fd)) < 1e-4

    def test_weighted_backward_scales_linearly(self, small_net):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (4, 2))
        g1, g2 = (_pass(small_net, x, s * np.ones(4)).grad for s in (1.0, 2.0))
        assert np.allclose(2.0 * g1, g2)
        d1, d2 = (_pass(small_net, x, s * np.ones(4), d_input=True).delta[0]
                  for s in (1.0, 2.0))
        assert np.allclose(2.0 * d1, d2)


# row counts on both sides of the 18-row limit, and one row
WORK_ROWS = [1, 2, 7, 18, 19, 40, 256]


class TestWorkspace:
    """The buffered pass gives the bits of the plain allocating formulas in
    ``reference.py``, whatever batch the workspace served before."""

    @pytest.mark.parametrize("n", WORK_ROWS)
    def test_pass_matches_the_plain_formulas(self, small_net, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.5, 1.5, (n, 2))
        w, extra = rng.normal(size=n), rng.normal(size=(n + 1) // 2)
        d_input, d_params, d_params_extra = reference_backward(small_net, x, w, extra)
        got = _pass(small_net, x, w, extra)
        assert np.array_equal(Workspace(small_net).forward(x),
                              reference_forward(small_net, x))
        assert np.array_equal(got.grad, d_params)
        assert np.array_equal(got.grad_extra, d_params_extra)
        assert np.array_equal(_pass(small_net, x, w, d_input=True).delta[0],
                              d_input)

    def test_reuse_is_invisible(self, small_net):
        net = small_net.copy()
        rng = np.random.default_rng(21)
        work = Workspace(net)
        # the row count and the extra column change, return and vanish, and
        # the row-sized arrays are released once (None)
        for shape in [(5, 2), (5, 2), (30, 0), (30, 30), (1, 1), (256, 0),
                      (256, 0), None, (256, 0), (19, 3), (5, 2)]:
            if shape is None:
                work.release()
                continue
            n, m = shape
            x = rng.uniform(-1, 1, (n, 2))
            w = rng.normal(size=n)
            extra = rng.normal(size=m) if m else None
            v = work.forward(x).copy()
            work.backward(w, extra)
            grad = work.clip(1e-3).copy()
            fresh = Workspace(net)
            assert np.array_equal(fresh.forward(x), v)
            fresh.backward(w, extra)
            assert np.array_equal(fresh.clip(1e-3), grad)
            net.sgd_step(grad, 0.5)

    def test_grad_x_skips_the_parameter_gradient(self, small_net, monkeypatch):
        calls = []
        blocks = Workspace._free_block_grads
        monkeypatch.setattr(Workspace, "_free_block_grads",
                            lambda *a: calls.append(1) or blocks(*a))
        x = np.random.default_rng(4).uniform(-1, 1, (6, 2))
        v, g = small_net.grad_x(x)
        assert calls == []
        assert np.array_equal(g, reference_backward(small_net, x, np.ones(6))[0])


class TestFloat32Workspace:
    """The training loops step in float32; the net's params stay float64."""

    def test_matches_float64_to_float32_tolerance(self, small_net):
        rng = np.random.default_rng(31)
        x = rng.uniform(-1.5, 1.5, (40, 2))
        w, extra = rng.normal(size=40) / 40, rng.normal(size=15) / 40
        works = []
        for dtype in (np.float64, np.float32):
            work = Workspace(small_net, dtype)
            work.forward(x)
            work.backward(w, extra)
            works.append(work)
        wide, narrow = works
        for name in ("v", "grad", "grad_extra"):
            got, want = getattr(narrow, name), getattr(wide, name)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-4,
                                       atol=1e-5 * np.abs(want).max())
        # a cap that binds, then the extra column added uncapped
        assert np.linalg.norm(wide.grad) > 1e-3
        want = wide.clip(1e-3)
        got = narrow.clip(1e-3)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-4,
                                   atol=1e-5 * np.abs(want).max())

    def test_each_forward_casts_the_current_params(self, small_net):
        net = small_net.copy()
        work = Workspace(net, np.float32)
        x = np.random.default_rng(33).uniform(-1, 1, (8, 2))
        work.forward(x)
        work.backward(np.ones(8))
        net.sgd_step(work.grad, 0.5)
        assert np.array_equal(work.forward(x), Workspace(net, np.float32).forward(x))
        assert np.array_equal(work.params, net.params.astype(np.float32))

    def test_step_below_float32_resolution_moves_float64_params(self, small_net):
        net = small_net.copy()
        work = Workspace(net, np.float32)
        rng = np.random.default_rng(32)
        work.forward(rng.uniform(-1, 1, (20, 2)))
        work.backward(rng.normal(size=20))
        grad = work.grad
        # the largest entry of the step is 1e-10, below half the float32
        # spacing of every parameter of magnitude 0.01 or more
        lr = 1e-10 / float(np.abs(grad).max())
        before = net.params.copy()
        net.sgd_step(grad, lr)
        assert net.params.dtype == np.float64
        assert all(np.shares_memory(g1, net.params) for g1, _ in net.layers)
        big = np.abs(before) >= 0.01
        moved = big & (grad != 0)
        assert moved.sum() > len(before) // 2
        # float32 params would keep their value; the float64 ones move
        as32 = before.astype(np.float32)
        assert np.array_equal((as32 - lr * grad)[moved], as32[moved])
        assert np.all(net.params[moved] != before[moved])

    def test_pretraining_steps_in_float32(self, small_net, monkeypatch):
        dtypes = []
        backward = Workspace.backward
        monkeypatch.setattr(Workspace, "backward", lambda work, *a, **k: (
            dtypes.append((work.acts[-1].dtype, work.grad.dtype))
            or backward(work, *a, **k)))
        points = GridDomain(n_theta=10, n_omega=10).centers()
        net = small_net.copy()
        pretrain_quadratic(net, points, quadratic_target(points),
                           np.random.default_rng(3), steps=5)
        assert dtypes == [(np.float32, np.float32)] * 5
        assert net.params.dtype == np.float64
        v, g = net.grad_x(points[:7])
        assert net.value(points).dtype == v.dtype == g.dtype == np.float64


class TestPretraining:
    def test_zero_steps_is_identity(self, grid):
        rng = np.random.default_rng(6)
        net = PDLyapunovNet.initialize(rng)
        before = net.params.copy()
        points = grid.centers()
        pretrain_quadratic(net, points, quadratic_target(points), rng, steps=0)
        assert np.array_equal(net.params, before)

    def test_mse_drops_tenfold(self, pretrained, grid):
        net, stats, _ = pretrained
        assert stats["final_mse"] < stats["initial_mse"] / 10.0

    def test_level_sets_track_target(self, pretrained, lqr, grid, cfg):
        from roagrow.experiment import pretrain_target_values

        net, p_mat = pretrained[0], lqr[1]
        v = net.value(grid.centers())
        target = pretrain_target_values(cfg, p_mat)
        corr = np.corrcoef(v, target)[0, 1]
        assert corr > 0.95

    def test_positive_definite_after_training(self, pretrained, grid):
        net = pretrained[0]
        assert net.value(np.zeros((1, 2)))[0] == 0.0
        assert np.all(net.value(grid.centers()) > 0.0)

    def test_divergence_detected(self, grid):
        rng = np.random.default_rng(7)
        net = PDLyapunovNet.initialize(rng)
        points = grid.centers()
        with pytest.raises(PretrainDivergence):
            pretrain_quadratic(net, points, quadratic_target(points), rng,
                               lr=50.0, steps=2000)

    def test_deterministic_given_seed(self, grid):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            net = PDLyapunovNet.initialize(rng)
            points = grid.centers()
            pretrain_quadratic(net, points, quadratic_target(points), rng,
                               steps=200)
            outs.append(net.params)
        assert np.array_equal(outs[0], outs[1])

    def test_one_forward_per_step(self, small_net, monkeypatch):
        points = GridDomain(n_theta=10, n_omega=10).centers()
        built = []
        build = lyapunov.build_weight
        monkeypatch.setattr(lyapunov, "build_weight",
                            lambda *blocks: built.append(blocks) or build(*blocks))
        counts = []
        for steps in (1, 2):
            built.clear()
            pretrain_quadratic(small_net.copy(), points, quadratic_target(points),
                               np.random.default_rng(3), steps=steps)
            counts.append(len(built))
        # the grid MSE before and after adds the same count to both runs
        assert counts[1] - counts[0] == len(small_net.layers)

    def test_last_check_is_the_final_mse(self, small_net, monkeypatch):
        # more points than the batch of 256, so only grid passes have len(points)
        points = GridDomain(n_theta=20, n_omega=20).centers()
        target = quadratic_target(points)
        net = small_net.copy()
        grid_passes = []
        value = lyapunov.PDLyapunovNet.value
        monkeypatch.setattr(lyapunov.PDLyapunovNet, "value",
                            lambda n, x: grid_passes.append(len(x) == len(points))
                            or value(n, x))
        stats = pretrain_quadratic(net, points, target, np.random.default_rng(3),
                                   steps=lyapunov.MSE_CHECK_STEPS)
        # the initial MSE and the one check, which is also the final MSE
        assert sum(grid_passes) == 2
        assert stats["final_mse"] == float(np.mean((net.value(points) - target) ** 2))

    def test_isotropic_target_formula(self):
        x = np.array([[1.0, 2.0], [0.5, 0.0]])
        assert np.allclose(quadratic_target(x, 0.1), [0.5, 0.025])


# the signed zeros and subnormals, drawn often beside arbitrary finite floats
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2e-308])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, small_net, tmp_path):
        path = tmp_path / "net.ckpt"
        save_net(small_net, path)
        loaded = load_net(path)
        # the payload is the parameter vector's bytes, after the blank line
        payload = path.read_bytes().partition(b"\n\n")[2]
        assert payload == small_net.params.astype("<f8").tobytes()
        assert np.array_equal(loaded.params, small_net.params)
        assert loaded.eps == small_net.eps
        x = np.array([[0.3, -0.8]])
        assert np.array_equal(loaded.value(x), small_net.value(x))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=3),
           st.one_of(st.floats(5e-324, 1e3), st.sampled_from([5e-324, 1e-310])),
           st.data())
    def test_round_trip_bit_exact_property(self, steps, eps, data):
        widths = np.cumsum([2] + steps)
        net = PDLyapunovNet.initialize(np.random.default_rng(0), widths, eps)
        n = len(net.params)
        values = data.draw(st.lists(
            st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False)),
            min_size=n, max_size=n))
        net.params[:] = values
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.ckpt"
            save_net(net, path)
            loaded = load_net(path)
        assert list(loaded.widths) == list(widths)
        assert np.float64(loaded.eps).tobytes() == np.float64(eps).tobytes()
        assert loaded.params.tobytes() == net.params.tobytes()

    @pytest.mark.parametrize("blob, defect", [
        (b"", "not a version-1"),
        (b"ROAGROW-LYAPNET 1\n\n", "truncated"),
        (b"ROAGROW-LYAPNET 1\neps 0.01\n\n", "truncated"),
        (b"ROAGROW-LYAPNET 1\neps x\nwidths 2 4\n\n", "malformed"),
        (b"ROAGROW-LYAPNET 1\nwidths 2 4\neps 0.01\n\n", "malformed"),
        (b"ROAGROW-LYAPNET 1\neps 0.01\nwidths 2\n\n", "malformed"),
        (b"ROAGROW-LYAPNET 1\neps 0.01\nwidths 4 2\n\n", "malformed"),
        (b"ROAGROW-LYAPNET 1\neps nan\nwidths 2 4\n\n", "malformed"),
        (b"ROAGROW-LYAPNET 1\neps inf\nwidths 2 4\n\n", "malformed"),
        (b"ROAGROW-LYAPNET 1\neps 0.01\nwidths 2 4\n\n" + bytes(8),
         r"payload is truncated: expected 64 bytes .* got 8"),
        # a 2-8-8-8 payload under a 2-8-8 header
        (b"ROAGROW-LYAPNET 1\neps 0.01\nwidths 2 8 8\n\n" + bytes(1152),
         r"payload is too long: expected 640 bytes .* got 1152"),
    ], ids=["empty", "no-eps", "no-widths", "bad-eps", "swapped", "one-width",
            "contracting", "nan-eps", "inf-eps", "short-payload", "long-payload"])
    def test_bad_header_names_the_defect(self, tmp_path, blob, defect):
        path = tmp_path / "net.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=defect):
            load_net(path)

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            load_net(path)
