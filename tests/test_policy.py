import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roagrow.policy import (SatParams, SatPolicy, crop_update, policy_eval,
                            policy_input, sat, sat_derivs)


def make_policy(a=0.2, b=-0.2, m_a=0.0, m_b=0.0, k=(1.0, 0.5),
                trainable=(True, True, False, False)):
    return SatPolicy(k=np.array(k, dtype=float),
                     psi=SatParams(a=a, b=b, m_a=m_a, m_b=m_b, trainable=trainable))


class TestSat:
    def test_identity_region(self):
        psi = SatParams()
        assert sat(0.0, psi) == 0.0
        assert sat(0.15, psi) == 0.15
        assert sat(-0.2, psi) == -0.2

    def test_hard_saturation(self):
        psi = SatParams(a=0.2, b=-0.2, m_a=0.0, m_b=0.0)
        assert sat(0.5, psi) == pytest.approx(0.2)
        assert sat(-3.0, psi) == pytest.approx(-0.2)

    def test_loose_slope(self):
        psi = SatParams(a=0.2, b=-0.2, m_a=0.5, m_b=0.0)
        assert sat(0.5, psi) == pytest.approx(0.35)

    def test_continuity_at_kinks(self):
        psi = SatParams(a=0.3, b=-0.1, m_a=0.7, m_b=0.2)
        for z0 in (psi.a, psi.b):
            below = sat(z0 - 1e-12, psi)
            above = sat(z0 + 1e-12, psi)
            assert abs(above - below) < 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(-5, 5), st.floats(0, 5), st.floats(0, 3), st.floats(0, 3),
           st.floats(1e-12, 1e-3))
    def test_continuity_at_kinks_property(self, a, width, m_a, m_b, d):
        # a kink takes the identity branch, and next to it (one ulp or d
        # away, on either side) sat moves by at most its Lipschitz bound
        psi = SatParams(a=a, b=a - width, m_a=m_a, m_b=m_b)
        lip = max(1.0, m_a, m_b)
        for z0 in (psi.a, psi.b):
            assert sat(z0, psi) == z0
            for z in (z0 - d, z0 + d, np.nextafter(z0, -np.inf),
                      np.nextafter(z0, np.inf)):
                tol = lip * abs(z - z0) + 4 * np.spacing(abs(z0) + lip * d)
                assert abs(sat(z, psi) - z0) <= tol

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(0)
        psi = SatParams(a=0.2, b=-0.3, m_a=1.7, m_b=0.4)
        lip = max(1.0, psi.m_a, psi.m_b)
        z = rng.uniform(-3, 3, 200)
        w = rng.uniform(-3, 3, 200)
        gap = np.abs(sat(z, psi) - sat(w, psi))
        assert np.all(gap <= lip * np.abs(z - w) + 1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SatParams(a=-0.1, b=0.1)
        with pytest.raises(ValueError):
            SatParams(m_a=-0.5)


class TestPolicyEval:
    def test_zero_at_origin(self):
        pol = make_policy()
        assert policy_eval(np.zeros(2), pol) == 0.0

    def test_identity_region_is_linear_feedback(self):
        pol = make_policy(k=(0.3, 0.1))
        x = np.array([0.2, -0.1])
        z = -(0.3 * 0.2 + 0.1 * -0.1)
        assert policy_eval(x, pol) == pytest.approx(z)

    def test_hard_clamp_for_large_states(self):
        pol = make_policy()
        for x in (np.array([10.0, 10.0]), np.array([-10.0, -10.0])):
            u = policy_eval(x, pol)
            assert -0.2 <= u <= 0.2

    def test_batch_shape(self):
        pol = make_policy()
        us = policy_eval(np.random.default_rng(1).uniform(-1, 1, (7, 2)), pol)
        assert us.shape == (7,)


def grad_psi(state, pol):
    """The control's derivative w.r.t. (a, b, m_a, m_b), composed as the BPTT
    pass composes it."""
    return sat_derivs(policy_input(state, pol), pol.psi)[1]


class TestPolicyGradPsi:
    def test_zero_in_identity_region(self):
        pol = make_policy(k=(0.1, 0.1))
        g = grad_psi(np.array([0.1, 0.1]), pol)
        assert np.all(g == 0.0)

    def test_piecewise_formula_above(self):
        # z = 0.5 with a = 0.2, m_a = 0: du/da = 1, du/dm_a = 0.3
        pol = make_policy(k=(-1.0, 0.0), m_a=0.0)
        g = grad_psi(np.array([0.5, 0.0]), pol)
        assert g[0] == pytest.approx(1.0)
        assert g[2] == pytest.approx(0.3)
        assert g[1] == 0.0 and g[3] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        checked = 0
        while checked < 100:
            a, b = sorted(rng.uniform(-0.6, 0.6, 2))[::-1]
            psi = SatParams(a=a, b=b, m_a=rng.uniform(0, 1), m_b=rng.uniform(0, 1))
            pol = SatPolicy(k=rng.uniform(-2, 2, 2), psi=psi)
            x = rng.uniform(-1.5, 1.5, 2)
            z = -(pol.k @ x)
            if min(abs(z - a), abs(z - b)) < 1e-3:
                continue
            grad = grad_psi(x, pol)
            vec = psi.as_array()
            fd = np.zeros(4)
            for i in range(4):
                lo, hi = vec.copy(), vec.copy()
                lo[i] -= h
                hi[i] += h
                # bypass validation: evaluate the raw piecewise formula
                fd[i] = (_sat_raw(z, hi) - _sat_raw(z, lo)) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale < 1e-5
            checked += 1

    def test_written_into_out(self):
        psi = SatParams(a=0.2, b=-0.2, m_a=0.5, m_b=0.3)
        z = np.array([-1.0, 0.0, 1.0])
        out = np.full((3, 4), np.nan)
        grad = sat_derivs(z, psi, out=out)[1]
        assert grad is out
        assert np.array_equal(grad, sat_derivs(z, psi)[1])


def _sat_raw(z, v):
    a, b, m_a, m_b = v
    if z > a:
        return a + m_a * (z - a)
    if z < b:
        return b + m_b * (z - b)
    return z


class TestSatSlope:
    def test_branch_values(self):
        psi = SatParams(a=0.2, b=-0.2, m_a=0.5, m_b=0.3)
        assert sat_derivs(0.0, psi)[0] == 1.0
        assert sat_derivs(1.0, psi)[0] == 0.5
        assert sat_derivs(-1.0, psi)[0] == 0.3

    def test_kinks_use_identity_branch(self):
        psi = SatParams(a=0.2, b=-0.2, m_a=0.0, m_b=0.0)
        assert sat_derivs(0.2, psi)[0] == 1.0
        assert sat_derivs(-0.2, psi)[0] == 1.0


class TestCropUpdate:
    def test_identity(self):
        old = SatParams(a=0.2, b=-0.2)
        assert crop_update(old, old.as_array(), 0.1) == old

    def test_clamps_single_entry(self):
        old = SatParams(a=0.2, b=-0.2)
        prop = SatParams(a=0.9, b=-0.2)
        out = crop_update(old, prop.as_array(), 0.1)
        assert out.a == pytest.approx(0.3)
        assert out.b == pytest.approx(-0.2)

    def test_swap_clamped_and_ordered(self):
        # the raw proposal flips the thresholds entirely; clamping restores order
        old = SatParams(a=0.2, b=-0.2)
        out = crop_update(old, np.array([-0.5, 0.5, 0.0, 0.0]), 0.1)
        assert out.a == pytest.approx(0.1)
        assert out.b == pytest.approx(-0.1)
        assert out.b <= out.a

    def test_crop_bound_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = sorted(rng.uniform(-1, 1, 2))[::-1]
            old = SatParams(a=a, b=b, m_a=rng.uniform(0, 1), m_b=rng.uniform(0, 1),
                            trainable=(True, True, True, True))
            pa, pb = sorted(rng.uniform(-2, 2, 2))[::-1]
            prop = SatParams(a=pa, b=pb, m_a=rng.uniform(0, 2), m_b=rng.uniform(0, 2),
                             trainable=old.trainable)
            r = rng.uniform(0.01, 0.5)
            out = crop_update(old, prop.as_array(), r)
            delta = np.abs(out.as_array() - old.as_array())
            # b may additionally be projected down to a, which only shrinks it
            assert delta[0] <= r + 1e-12
            assert delta[2] <= r + 1e-12 and delta[3] <= r + 1e-12
            assert out.b <= out.a
            assert out.m_a >= 0 and out.m_b >= 0

    def test_untrainable_entries_keep_old_values(self):
        old = SatParams(a=0.2, b=-0.2, m_a=0.0, m_b=0.0,
                        trainable=(False, False, True, True))
        prop = SatParams(a=0.5, b=-0.5, m_a=0.05, m_b=0.07, trainable=old.trainable)
        out = crop_update(old, prop.as_array(), 0.1)
        assert out.a == 0.2 and out.b == -0.2
        assert out.m_a == pytest.approx(0.05)
        assert out.m_b == pytest.approx(0.07)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.lists(st.floats(0, 5), min_size=2, max_size=2),
           st.lists(st.floats(-10, 10), min_size=4, max_size=4),
           st.floats(1e-3, 2.0),
           st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_projection_property(self, thresholds, slopes, proposal, r, train):
        # a and b train together in every variant, so b <= a holds before
        # the step and the projection never has to move a frozen entry
        a, b = max(thresholds), min(thresholds)
        trainable = (train[0], train[0], train[1], train[2])
        old = SatParams(a=a, b=b, m_a=slopes[0], m_b=slopes[1],
                        trainable=trainable)
        out = crop_update(old, np.array(proposal), r)
        assert out.b <= out.a
        assert out.m_a >= 0 and out.m_b >= 0
        delta = np.abs(out.as_array() - old.as_array())
        mask = np.array(trainable)
        assert np.all(delta[mask] <= r + 1e-12)
        assert np.all(delta[~mask] == 0.0)
