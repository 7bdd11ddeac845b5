import importlib.util
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from roagrow.dynamics import (ClosedLoopMap, LinearModel, PendulumParams,
                              RiccatiConvergenceError, closed_loop, dare_lqr,
                              pendulum_deriv, riccati_step, step_euler,
                              step_jacobians)
from roagrow.experiment import _design_lqr
from roagrow.policy import SatParams, SatPolicy, policy_eval

from reference import (linearize, reference_out_of_box, reference_step,
                       rollout_batch)


@dataclass
class Trajectory:
    """A single-state rollout: ``states`` has one more entry than
    ``controls``; after leaving the box it is cut at the last in-box state."""

    states: np.ndarray                 # (L+1, 2)
    controls: np.ndarray               # (L,), empty when the map hides its control
    diverged: bool = False

    @property
    def length(self) -> int:
        return len(self.states) - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def rollout(f, x0, steps, box=None) -> Trajectory:
    """Iterate ``f`` from one state, step by step: the reference that
    ``rollout_batch`` is checked against.  Controls are recorded when ``f``
    is a ClosedLoopMap."""
    x = np.asarray(x0, dtype=float)
    has_control = isinstance(f, ClosedLoopMap)
    states, controls, diverged = [x], [], False
    for _ in range(steps):
        if has_control:
            u = float(policy_eval(x, f.policy))
            xn = step_euler(x, u, f.params)
        else:
            xn = np.asarray(f(x), dtype=float)
        if box is not None and bool(reference_out_of_box(xn, box)):
            diverged = True
            break
        states.append(xn)
        if has_control:
            controls.append(u)
        x = xn
    return Trajectory(np.array(states), np.array(controls), diverged)


def rk4_step(s, u, p):
    """Independent 4th-order integrator used as the discretization oracle."""
    def deriv(state):
        d1, d2 = pendulum_deriv(state, u, p)
        return np.array([d1, d2])

    k1 = deriv(s)
    k2 = deriv(s + 0.5 * p.dt * k1)
    k3 = deriv(s + 0.5 * p.dt * k2)
    k4 = deriv(s + p.dt * k3)
    return s + p.dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestPendulumDeriv:
    def test_equilibrium_at_origin(self, params):
        dth, dom = pendulum_deriv(np.zeros(2), 0.0, params)
        assert dth == 0.0 and dom == 0.0

    def test_pure_rotation(self, params):
        dth, dom = pendulum_deriv(np.array([0.0, 1.0]), 0.0, params)
        assert dth == 1.0 and dom == 0.0

    def test_horizontal_torque(self, params):
        # g/l at theta = pi/2 with the experiment constants
        dth, dom = pendulum_deriv(np.array([np.pi / 2, 0.0]), 0.0, params)
        assert dth == 0.0
        assert dom == pytest.approx(0.81 / 0.5, abs=1e-12)

    def test_batch_matches_scalar(self, params):
        rng = np.random.default_rng(0)
        states = rng.uniform(-1, 1, (10, 2))
        us = rng.uniform(-1, 1, 10)
        dth, dom = pendulum_deriv(states, us, params)
        for i in range(10):
            a, b = pendulum_deriv(states[i], us[i], params)
            assert dth[i] == a and dom[i] == b


class TestStepEuler:
    def test_fixed_point(self, params):
        assert np.all(step_euler(np.zeros(2), 0.0, params) == 0.0)

    def test_single_step(self, params):
        out = step_euler(np.array([0.0, 1.0]), 0.0, params)
        assert out[0] == pytest.approx(0.01) and out[1] == pytest.approx(1.0)

    def test_against_rk4_oracle(self, params):
        # forward Euler tracks RK4 within O(dt^2) per step over 100 steps
        s_e = np.array([0.1, 0.0])
        s_rk = s_e.copy()
        for _ in range(100):
            s_e = step_euler(s_e, 0.0, params)
            s_rk = rk4_step(s_rk, 0.0, params)
        assert np.linalg.norm(s_e - s_rk) < 100 * 10 * params.dt ** 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PendulumParams(dt=0.0)
        with pytest.raises(ValueError):
            PendulumParams(friction=-1.0)


class TestClosedLoop:
    def test_origin_preserved(self, f_initial):
        assert np.all(f_initial(np.zeros(2)) == 0.0)

    def test_matches_composition(self, f_initial, initial_policy, params):
        from roagrow.policy import policy_eval

        rng = np.random.default_rng(1)
        for x in rng.uniform(-1, 1, (10, 2)):
            expect = step_euler(x, policy_eval(x, initial_policy), params)
            assert np.allclose(f_initial(x), expect)

    def test_spectral_radius_below_one(self, f_initial):
        # finite-difference Jacobian of the closed loop at the origin
        h = 1e-6
        jac = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            jac[:, i] = (f_initial(e) - f_initial(-e)) / (2 * h)
        assert max(abs(np.linalg.eigvals(jac))) < 1.0


class TestMapExactness:
    """The closed-loop map gives the reference formulas' bytes, whatever the
    batch's memory layout."""

    @staticmethod
    def states(grid):
        # inside the box, near the origin, far outside the box, and the signed
        # zeros
        rng = np.random.default_rng(11)
        thi, whi = grid.safety_box()
        inside = rng.uniform([-thi, -whi], [thi, whi], (500, 2))
        near = rng.normal(0.0, 0.05, (200, 2))
        outside = rng.uniform(-1e3, 1e3, (200, 2)) * np.array([thi, whi])
        zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        return np.concatenate([inside, near, outside, zeros])

    @pytest.mark.parametrize("layout", ["C", "F", "single"])
    # with friction, constants whose divisions round, so that a reordered
    # formula shows in the bytes
    @pytest.mark.parametrize("physics", [{}, dict(friction=0.3, inertia=0.3,
                                                  length=0.7)],
                             ids=["frictionless", "friction"])
    @pytest.mark.parametrize("slopes", [(0.0, 0.0), (0.35, 0.2)],
                             ids=["thresholds", "slopes"])
    def test_matches_reference_bit_for_bit(self, lqr, params, grid, layout,
                                           physics, slopes):
        pol = SatPolicy(k=lqr[0], psi=SatParams(a=0.3, b=-0.25, m_a=slopes[0],
                                                m_b=slopes[1]))
        p = replace(params, **physics)
        f = closed_loop(pol, p)
        x = self.states(grid)
        if layout == "single":
            for row in x:
                got, want = f(row), reference_step(row, pol, p)
                assert got.shape == (2,) and got.tobytes() == want.tobytes()
            return
        if layout == "F":
            x = np.asfortranarray(x)
        got = f(x)
        assert got.shape == x.shape
        assert got.flags.f_contiguous == (layout == "F")
        assert got.tobytes() == reference_step(x, pol, p).tobytes()

    # the odd maps the oracle mirrors: symmetric thresholds, symmetric slopes,
    # and friction with constants whose divisions round
    ODD_MAPS = {"thresholds": (SatParams(a=0.3, b=-0.3), {}),
                "slopes": (SatParams(a=0.2, b=-0.2, m_a=0.5, m_b=0.5), {}),
                "friction": (SatParams(a=0.4, b=-0.4),
                             dict(friction=0.1, inertia=0.3, length=0.7))}

    @pytest.mark.parametrize("layout", ["contiguous_columns", "strided_columns"])
    @pytest.mark.parametrize("case", sorted(ODD_MAPS))
    def test_odd_map_is_bitwise_odd(self, lqr, params, case, layout):
        # f(-x) == -f(x) up to the sign of an exact zero (== ignores it) on
        # states from subnormal to 1e150 in magnitude, ±0 entries among them
        psi, physics = self.ODD_MAPS[case]
        f = closed_loop(SatPolicy(k=lqr[0], psi=psi), replace(params, **physics))
        assert f.odd
        rng = np.random.default_rng(23)
        mag = 10.0 ** rng.uniform(-320, 150, (2, 10**6))
        x = mag * rng.choice([-1.0, 1.0], mag.shape)
        x[:, rng.integers(0, x.shape[1], 1000)] = 0.0
        x[0, rng.integers(0, x.shape[1], 1000)] = -0.0
        x[1, rng.integers(0, x.shape[1], 1000)] = -0.0
        x = x.T if layout == "contiguous_columns" else np.ascontiguousarray(x.T)
        assert x[:, 0].flags.c_contiguous == (layout == "contiguous_columns")
        fx, fmx = f(x), f(-x)
        assert np.isfinite(fx).all()
        assert np.array_equal(fmx, -fx)

    @pytest.mark.parametrize("psi", [SatParams(a=0.3, b=-0.2),
                                     SatParams(m_a=0.5, m_b=0.25)],
                             ids=["thresholds", "slopes"])
    def test_asymmetric_saturation_is_not_odd(self, lqr, params, psi):
        f = closed_loop(SatPolicy(k=lqr[0], psi=psi), params)
        assert not f.odd
        x = np.array([[0.0, -5.0]])
        assert not np.array_equal(f(-x), -f(x))

    def test_scalar_input_single_state(self, params):
        x = np.array([0.4, -1.2])
        want = reference_step(x, SatPolicy(k=np.zeros(2), psi=SatParams()),
                              params)
        assert step_euler(x, 0.0, params).tobytes() == want.tobytes()


class TestRollout:
    def test_zero_steps(self, f_initial):
        traj = rollout(f_initial, np.array([0.3, 0.2]), 0)
        assert traj.length == 0
        assert np.allclose(traj.states[0], [0.3, 0.2])
        assert not traj.diverged

    def test_origin_stays(self, f_initial):
        traj = rollout(f_initial, np.zeros(2), 100)
        assert np.all(traj.states == 0.0)
        assert len(traj.controls) == 100

    def test_open_loop_is_not_asymptotically_stable(self, params):
        # frictionless pendulum released at 1.5 rad keeps swinging; the norm
        # never approaches zero and large swings persist to the end
        f = lambda x: step_euler(x, 0.0, params)
        traj = rollout(f, np.array([1.5, 0.0]), 10_000)
        assert not traj.diverged
        norms = np.hypot(traj.states[:, 0], traj.states[:, 1])
        assert norms.min() > 0.1
        assert norms[-500:].max() > 1.0

    def test_divergence_flagged(self, params):
        f = lambda x: 2.0 * np.asarray(x)
        box = (1.0, 1.0)
        traj = rollout(f, np.array([0.4, 0.0]), 50, box)
        assert traj.diverged
        assert abs(traj.states[-1][0]) <= 1.0

    def test_batch_rollout_matches_single(self, f_initial, grid):
        rng = np.random.default_rng(2)
        x0s = rng.uniform(-0.5, 0.5, (8, 2))
        finals, div = rollout_batch(f_initial, x0s, 25, grid.safety_box())
        assert not div.any()
        for i in range(8):
            traj = rollout(f_initial, x0s[i], 25)
            assert np.allclose(finals[i], traj.final)


class TestLinearize:
    def test_pendulum_at_origin(self, params):
        m = linearize(lambda s, u: step_euler(s, u, params), np.zeros(2), 0.0)
        expect_a = np.array([[1.0, 0.01], [0.0162, 1.0]])
        expect_b = np.array([[0.0], [0.04]])
        assert np.allclose(m.a, expect_a, atol=1e-8)
        assert np.allclose(m.b, expect_b, atol=1e-8)

    def test_matches_analytic_at_random_states(self, params):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s0 = rng.uniform(-1.5, 1.5, 2)
            u0 = rng.uniform(-1, 1)
            m = linearize(lambda s, u: step_euler(s, u, params), s0, u0)
            a_ref, b_ref = step_jacobians(s0, params)
            assert np.allclose(m.a, a_ref, atol=1e-6)
            assert np.allclose(m.b.ravel(), b_ref, atol=1e-6)

    def test_input_independent_dynamics(self):
        f = lambda s, u: 0.5 * np.asarray(s)
        m = linearize(f, np.array([0.2, 0.1]), 0.0)
        assert np.allclose(m.b, 0.0)


class TestDareLqr:
    def test_deadbeat_scalar(self):
        m = LinearModel(np.array([[0.0]]), np.array([[1.0]]))
        k, p = dare_lqr(m, np.array([[1.0]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert k[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_golden_ratio_scalar(self):
        m = LinearModel(np.array([[1.0]]), np.array([[1.0]]))
        k, p = dare_lqr(m, np.array([[1.0]]), np.array([[1.0]]))
        golden = (1 + np.sqrt(5)) / 2
        assert p[0, 0] == pytest.approx(golden, abs=1e-8)
        assert k[0, 0] == pytest.approx(golden / (1 + golden), abs=1e-8)

    def test_pendulum_gain_stabilizes(self, lqr, params):
        k, _ = lqr
        m = linearize(lambda s, u: step_euler(s, u, params), np.zeros(2), 0.0)
        closed = m.a - m.b @ k.reshape(1, 2)
        assert max(abs(np.linalg.eigvals(closed))) < 1.0

    def test_riccati_stationarity(self, lqr, params):
        _, p = lqr
        m = linearize(lambda s, u: step_euler(s, u, params), np.zeros(2), 0.0)
        residual = p - riccati_step(p, m, np.eye(2), np.array([[1.0]]))
        assert np.max(np.abs(residual)) < 1e-8

    def test_run_gain_is_the_benchmark_gain(self, cfg, monkeypatch):
        # the benchmark's oracle sweep designs its gain on its own; both use
        # the analytic step Jacobians, so they agree to the bit
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        assert np.array_equal(_design_lqr(cfg)[0], workloads.lqr_gain(cfg))

    def test_nonconvergence_raises(self):
        # uncontrollable unstable mode cannot converge
        m = LinearModel(np.array([[2.0]]), np.array([[0.0]]))
        with pytest.raises(RiccatiConvergenceError):
            dare_lqr(m, np.array([[1.0]]), np.array([[1.0]]))


def test_determinism_bit_identical(f_initial):
    x0 = np.array([0.7, -1.1])
    t1 = rollout(f_initial, x0, 500)
    t2 = rollout(f_initial, x0, 500)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.controls, t2.controls)


class TestFrictionGuard:
    """Without friction ``pendulum_deriv`` skips the friction term, which
    would subtract ±0; the map keeps the bytes of the reference step, which
    keeps the term."""

    @pytest.mark.parametrize("layout", ["contiguous_columns", "c_order"])
    @pytest.mark.parametrize("psi", [SatParams(a=0.3, b=-0.25),
                                     SatParams(a=0.3, b=-0.25, m_a=0.5, m_b=0.2)],
                             ids=["thresholds", "slopes"])
    def test_frictionless_map_matches_reference_step(self, lqr, params, psi,
                                                     layout):
        # 10**6 finite states from subnormal to 1e150 in magnitude, ±0
        # entries among them
        p = replace(params, friction=0.0)
        pol = SatPolicy(k=lqr[0], psi=psi)
        rng = np.random.default_rng(29)
        mag = 10.0 ** rng.uniform(-320, 150, (2, 10**6))
        x = mag * rng.choice([-1.0, 1.0], mag.shape)
        x[:, rng.integers(0, x.shape[1], 1000)] = 0.0
        x[0, rng.integers(0, x.shape[1], 1000)] = -0.0
        x[1, rng.integers(0, x.shape[1], 1000)] = -0.0
        x = x.T if layout == "contiguous_columns" else np.ascontiguousarray(x.T)
        got, want = closed_loop(pol, p)(x), reference_step(x, pol, p)
        assert np.isfinite(got).all()
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_friction_term_still_subtracted(self, lqr, params):
        pol = SatPolicy(k=lqr[0], psi=SatParams(a=0.3, b=-0.25))
        p = replace(params, friction=0.1)
        x = np.random.default_rng(5).uniform(-2.0, 2.0, (1000, 2))
        got = closed_loop(pol, p)(x)
        assert got.tobytes() == reference_step(x, pol, p).tobytes()
        frictionless = closed_loop(pol, replace(p, friction=0.0))(x)
        assert np.array_equal(got[:, 0], frictionless[:, 0])
        assert (got[:, 1] != frictionless[:, 1]).all()
        u = policy_eval(x, pol)
        _, dom = pendulum_deriv(x, u, p)
        _, dom0 = pendulum_deriv(x, u, replace(p, friction=0.0))
        assert np.array_equal(dom, dom0 - 0.1 * x[:, 1] / p.inertia)
