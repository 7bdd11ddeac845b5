import os
import re
from dataclasses import replace

import numpy as np
import pytest

import roagrow.dynamics as dynamics
import roagrow.oracle as oracle
from roagrow.dynamics import ClosedLoopMap, closed_loop, out_of_box, roll_forward
from roagrow.grid import GridDomain
from roagrow.oracle import (RoaMask, load_mask_pgm, save_mask_csv,
                            save_mask_pgm, true_roa)

from reference import gap_growth_check, rollout_batch, sym_diff_measure


class TestGridDomain:
    def test_default_domain_and_resolution(self, grid):
        assert grid.n_cells == 10_000
        c = grid.centers()
        assert c.shape == (10_000, 2)
        assert c[:, 0].min() > -np.pi / 2 and c[:, 0].max() < np.pi / 2
        assert c[:, 1].min() > -2 * np.pi and c[:, 1].max() < 2 * np.pi

    def test_theta_varies_fastest(self, grid):
        c = grid.centers()
        assert c[1, 0] > c[0, 0]          # theta advances
        assert c[1, 1] == c[0, 1]         # omega fixed within a row

    def test_boundary_ring_count(self, grid):
        assert grid.boundary_mask().sum() == 4 * 100 - 4

    def test_origin_cell_is_nearest(self, grid):
        c = grid.centers()
        idx = grid.origin_index()
        d = np.hypot(c[:, 0], c[:, 1])
        assert d[idx] == d.min()

    def test_origin_cell_is_lowest_of_four_ties(self, grid):
        # the line search excludes this cell: the four cells around the
        # origin tie exactly, and argmin takes the lowest flat index
        c = grid.centers()
        d = c[:, 0] ** 2 + c[:, 1] ** 2
        assert np.flatnonzero(d == d.min()).tolist() == [4949, 4950, 5049, 5050]
        assert grid.origin_index() == 4949

    def test_centres_lie_inside_their_cells(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lo = rng.uniform(-1e3, 1e3, 2)
            hi = lo + 10.0 ** rng.uniform(-3, 3, 2)
            n = rng.integers(2, 300, 2)
            g = GridDomain(lo[0], hi[0], lo[1], hi[1], int(n[0]), int(n[1]))
            c, cell = g.centers(), np.arange(g.n_cells)
            for axis, i, w in ((0, cell % n[0], g.cell_width_theta),
                               (1, cell // n[0], g.cell_width_omega)):
                assert np.all(lo[axis] + i * w < c[:, axis])
                assert np.all(c[:, axis] < lo[axis] + (i + 1) * w)

    @pytest.mark.parametrize("counts", [(100, 100), (7, 9), (10, 7), (2, 3), (9, 9)])
    def test_centred_domain_has_point_symmetric_centres(self, counts):
        rng = np.random.default_rng(sum(counts))
        for th, om in [(np.pi / 2, 2 * np.pi), *rng.uniform(1e-3, 1e3, (20, 2))]:
            c = GridDomain(-th, th, -om, om, *counts).centers()
            assert c[::-1].tobytes() == (-c + 0.0).tobytes()

    def test_jitter_stays_in_cell(self, grid):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, grid.n_cells, 500)
        pts = grid.jitter_within(idx, rng)
        c = grid.centers()[idx]
        assert np.all(np.abs(pts[:, 0] - c[:, 0]) <= grid.cell_width_theta / 2)
        assert np.all(np.abs(pts[:, 1] - c[:, 1]) <= grid.cell_width_omega / 2)

    def test_safety_box_scales_extent(self, grid):
        (tlo, thi), (wlo, whi) = grid.safety_box(10.0)
        assert tlo == pytest.approx(-10 * np.pi / 2)
        assert whi == pytest.approx(10 * 2 * np.pi)


SMALL_GRID = GridDomain(n_theta=12, n_omega=12)


def _bounce(x):
    # cells with norm in (1, 2) jump by 20x, some out of the box; anything
    # beyond norm 2 drops near the origin, so only the box test fails them
    n = np.hypot(x[:, 0], x[:, 1])[:, None]
    return np.where(n > 2, x / 100, np.where(n > 1, 20 * x, 0.5 * x))


def _kick(x):
    # inside the ball a state with theta > 0 is pushed out 3x, beyond twice
    # the radius: those cells escape during confirmation, the others converge
    n = np.hypot(x[:, 0], x[:, 1])[:, None]
    kick = np.where(x[:, :1] > 0, 3.0, 1.0)
    return np.where(n < 0.1, kick * x, 0.5 * x)


def _land(p):
    # every state jumps to p and stays there: p decides entry into the ball
    p = np.array(p)
    return lambda x: np.broadcast_to(p, x.shape).copy()


def _creep(x):
    # a state off the theta axis, or beyond 0.3, restarts at (0.05, 0) in the
    # 0.1-ball; on the axis theta creeps by 0.015 inside the ball, by 0.05
    # beyond it: in the ball on steps 0 to 3, beyond twice it from step 6
    th = x[:, 0]
    restart = (x[:, 1] != 0) | (th < 0.04) | (th > 0.3)
    th = np.where(restart, 0.05, th + np.where(th < 0.1, 0.015, 0.05))
    return np.stack([th, np.zeros(len(x))], axis=1)


def _hop(p):
    # states alternate between the origin and p: p decides whether a cell
    # that entered the ball escapes twice its radius during confirmation
    p = np.array(p)
    return lambda x: np.where((x == 0.0).all(axis=1)[:, None], p, 0.0)


# A ball radius of 5/32 puts (3/32, 4/32) exactly on its rim and (6/32, 8/32)
# exactly on the rim of twice the ball.  Each point is also taken one ulp
# nearer the origin and one ulp farther (both coordinates), which moves its
# hypot across the rim: on an axis, off it, and at the corner of the hypot
# prefilter's square.
EDGE_RADIUS = 5 / 32


def _ulps(p):
    p = np.array(p)
    return {"below": np.nextafter(p, 0.0), "on": p,
            "above": np.nextafter(p, 2 * p)}


EDGE_CASES = {}
for _kind, _map, _r in (("ball", _land, EDGE_RADIUS),
                        ("twice", _hop, 2 * EDGE_RADIUS)):
    for _where, _p in (("theta_axis", (_r, 0.0)), ("omega_axis", (0.0, -_r)),
                       ("off_axis", (-0.6 * _r, 0.8 * _r))):
        for _side, _q in _ulps(_p).items():
            EDGE_CASES[f"{_kind}_{_where}_{_side}"] = _map(_q)
for _side, _q in _ulps((2 * EDGE_RADIUS, -2 * EDGE_RADIUS)).items():
    EDGE_CASES[f"square_corner_{_side}"] = _hop(_q)

# name -> (f, k_max, ball_radius, confirm_steps); f None is the initial
# closed-loop pendulum
ORACLE_CASES = {
    **{name: (f, 6, EDGE_RADIUS, 3) for name, f in EDGE_CASES.items()},
    "c_ordered_output": (lambda x: np.ascontiguousarray(0.9 * x), 30, 0.1, 5),
    "contraction": (lambda x: 0.9 * x, 30, 0.1, 5),
    "expansion_leaves_box": (lambda x: 1.3 * x, 40, 0.1, 5),
    "box_before_return": (_bounce, 12, 0.1, 3),
    "halve": (lambda x: 0.5 * x, 5, 0.1, 4),
    "escape_in_confirmation": (_kick, 20, 0.1, 10),
    # confirmed on step 5, before it escapes: only the first entry counts
    "confirmed_before_escape": (_creep, 20, 0.1, 5),
    "no_confirmation": (lambda x: 0.8 * x, 15, 0.1, 0),
    "starts_inside": (lambda x: 1.2 * x, 10, 0.6, 3),
    "initial_pendulum": (None, 300, 0.1, 20),
}


# (TAIL_ROWS, TAIL_BLOCK): TAIL_ROWS at 0 makes every step of roll_forward
# run the per-step body; at the cell count, the block body.  Blocks of 3 steps
# put many block edges inside the budgets and confirmation windows
BODIES = {"per_step": (0, 32), "blocks": (SMALL_GRID.n_cells, 32),
          "short_blocks": (SMALL_GRID.n_cells, 3)}


def use_body(monkeypatch, body):
    tail_rows, tail_block = BODIES[body]
    monkeypatch.setattr(dynamics, "TAIL_ROWS", tail_rows)
    monkeypatch.setattr(dynamics, "TAIL_BLOCK", tail_block)


def reference_roa(f, grid, k_max, ball_radius, confirm_steps, box):
    """The documented rule, transcribed one cell and one state at a time.

    A step that leaves the box, or reaches a NaN, fails the cell.  Entering
    the ball counts only while ``k + 1 <= k_max``; from then on (or from the
    start, for a cell that starts inside) the state must stay within
    ``2 * ball_radius`` for ``confirm_steps`` steps.
    """
    return reference_roll(f, grid.centers(), k_max, ball_radius, confirm_steps,
                          box)[0]


def reference_roll(f, x0s, k_max, ball_radius, confirm_steps, box):
    """The rule of :func:`reference_roa` for each row of ``x0s`` on its own,
    with the rows still running at the end and their states:
    ``roll_forward``'s ``(converged, running, x)``."""
    (tlo, thi), (wlo, whi) = box
    converged, running, finals = [], [], []
    for i, x in enumerate(x0s):
        confirmed = 0 if np.hypot(x[0], x[1]) < ball_radius else None
        verdict, stopped = False, False
        for k in range(k_max + confirm_steps):
            x = f(x[None, :])[0]
            if not (tlo <= x[0] <= thi and wlo <= x[1] <= whi):
                stopped = True
                break
            r = np.hypot(x[0], x[1])
            if confirmed is not None:
                if r >= 2 * ball_radius:
                    stopped = True
                    break
                confirmed += 1
                if confirmed >= confirm_steps:
                    verdict = stopped = True
                    break
            elif r < ball_radius and k + 1 <= k_max:
                confirmed = 0
            elif k + 1 > k_max:
                stopped = True
                break
        converged.append(verdict)
        if not stopped:
            running.append(i)
            finals.append(x)
    return (np.array(converged), np.array(running, dtype=np.int64),
            np.array(finals).reshape(-1, 2).T)


_REFERENCE = {}


def check_case(case, f_initial, **kw):
    """Assert that ``true_roa`` gives the per-cell rule's mask for an
    ``ORACLE_CASES`` entry; the rule's mask is computed once per case."""
    f, k_max, ball_radius, confirm_steps = ORACLE_CASES[case]
    f = f or f_initial
    if case not in _REFERENCE:
        _REFERENCE[case] = reference_roa(f, SMALL_GRID, k_max, ball_radius,
                                         confirm_steps, SMALL_GRID.safety_box())
    got = true_roa(f, SMALL_GRID, k_max=k_max, ball_radius=ball_radius,
                   confirm_steps=confirm_steps, **kw)
    assert np.array_equal(got.values, _REFERENCE[case])


class TestTrueRoa:
    def test_global_contraction_is_full(self, grid):
        mask = true_roa(lambda x: 0.5 * x, grid, k_max=200)
        assert mask.fraction == 1.0

    def test_expansion_is_empty_outside_ball(self, grid):
        mask = true_roa(lambda x: 2.0 * x, grid, k_max=200)
        assert mask.fraction < 0.01

    def test_open_loop_pendulum_fraction_tiny(self, params, grid):
        from roagrow.dynamics import step_euler

        mask = true_roa(lambda x: step_euler(x, 0.0, params), grid, k_max=2000)
        assert mask.fraction < 0.01

    def test_initial_lqr_policy_fraction(self, f_initial, grid):
        mask = true_roa(f_initial, grid, k_max=2000)
        assert 0.02 < mask.fraction < 1.0

    def test_monotone_in_k_max(self, f_initial, grid):
        small = true_roa(f_initial, grid, k_max=300)
        big = true_roa(f_initial, grid, k_max=600)
        assert not np.any(small.values & ~big.values)

    def test_fraction_converged_at_default_budget(self, f_initial, grid, cfg):
        base = true_roa(f_initial, grid, k_max=cfg.oracle_kmax)
        more = true_roa(f_initial, grid, k_max=cfg.oracle_kmax + 2000)
        assert abs(base.fraction - more.fraction) < 0.01

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_cell_rule(self, case, f_initial):
        check_case(case, f_initial)

    def test_edge_cases_hit_both_verdicts(self):
        # a state on the ball's rim does not enter it and one on twice the
        # rim escapes; one ulp nearer the origin does the opposite.  The
        # square's corner lies beyond twice the ball either way
        for name, f in EDGE_CASES.items():
            mask = true_roa(f, SMALL_GRID, 6, EDGE_RADIUS, 3)
            inside = name.endswith("_below") and not name.startswith("square")
            assert mask.fraction == (1.0 if inside else 0.0), name

    def test_map_gets_contiguous_columns(self, monkeypatch):
        # the block body copies each result into its buffer, so even a map
        # that returns C order gets contiguous columns there
        for body, order in (("per_step", "K"), ("blocks", "C")):
            use_body(monkeypatch, body)
            seen = []

            def spy(x):
                seen.append(x[:, 0].flags.c_contiguous and x[:, 1].flags.c_contiguous)
                return np.asarray(0.9 * x, order=order)

            true_roa(spy, SMALL_GRID, k_max=20, ball_radius=0.1, confirm_steps=3)
            assert len(seen) > 1 and all(seen), body

    def test_hypot_never_below_larger_magnitude(self):
        # the property the oracle's hypot prefilter rests on
        rng = np.random.default_rng(17)
        mag = 10.0 ** rng.uniform(-300, 300, (2, 10**6))
        a, b = mag * rng.choice([-1.0, 1.0], mag.shape)
        tiny = np.finfo(float).tiny
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0),
                          tiny, -tiny, 1e-300, 1.0, np.finfo(float).max])
        ea, eb = np.meshgrid(edges, edges)
        a, b = np.concatenate([a, ea.ravel()]), np.concatenate([b, eb.ravel()])
        with np.errstate(over="ignore"):      # hypot(max, max) is inf
            r = np.hypot(a, b)
        assert np.all(r >= np.maximum(np.abs(a), np.abs(b)))

    def test_budget_edge(self):
        # under x -> x / 2 every cell of the small grid enters the 0.1-ball on
        # some step from 3 to 7; entering on step k_max counts, a step later not
        halve = ORACLE_CASES["halve"][0]
        x = SMALL_GRID.centers()
        enters = np.zeros(len(x), dtype=int)
        for step in range(1, 10):
            x = halve(x)
            enters[(enters == 0) & (np.hypot(x[:, 0], x[:, 1]) < 0.1)] = step
        mask = true_roa(halve, SMALL_GRID, k_max=5, ball_radius=0.1, confirm_steps=4)
        assert (enters == 5).any() and (enters == 6).any()
        assert np.array_equal(mask.values, enters <= 5)

    def test_nan_states_are_not_attracted(self):
        # a NaN state is out of the box: the ball radius 0.6 puts 4 cells
        # inside the ball at the start, and none of them may confirm
        nan_map = lambda x: np.full_like(x, np.nan)
        mask = true_roa(nan_map, SMALL_GRID, k_max=5, ball_radius=0.6,
                        confirm_steps=3)
        assert (np.hypot(*SMALL_GRID.centers().T) < 0.6).sum() == 4
        assert not mask.values.any()
        x0s = SMALL_GRID.centers()[:6]
        finals, diverged = rollout_batch(nan_map, x0s, 3, SMALL_GRID.safety_box())
        assert diverged.all()
        assert np.array_equal(finals, x0s)


@pytest.fixture
def many_cpus(monkeypatch):
    """Let ``true_roa`` use as many parts as it is asked for."""
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 64)


class TestTailBlocks:
    @pytest.mark.parametrize("body", sorted(BODIES))
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_both_bodies_match_per_cell_rule(self, case, body, f_initial,
                                             monkeypatch):
        use_body(monkeypatch, body)
        check_case(case, f_initial)

    # (k_max, ball_radius, confirm_steps, box factor): the oracle's rule, and
    # the labels' rule, under which some rows are still running at the end
    @pytest.mark.parametrize("rule", [(1010, 0.1, 20, 10.0), (300, 0.0, 0, 2.0)],
                             ids=["oracle", "labels"])
    def test_bodies_agree_across_the_threshold(self, rule, f_initial, monkeypatch):
        # 400 rows start above TAIL_ROWS and fall below it mid-run, so the
        # default switches bodies; forced per-step gives the same bytes
        grid = GridDomain(n_theta=20, n_omega=20)
        k_max, ball_radius, confirm_steps, factor = rule
        rule = (k_max, ball_radius, confirm_steps, grid.safety_box(factor))
        rows = []

        def spy(x):
            rows.append(len(x))
            return f_initial(x)

        default = roll_forward(spy, grid.centers().T, *rule)
        tail_steps = sum(n <= dynamics.TAIL_ROWS for n in rows)
        assert rows[0] > dynamics.TAIL_ROWS and tail_steps > dynamics.TAIL_BLOCK
        monkeypatch.setattr(dynamics, "TAIL_ROWS", 0)
        per_step = roll_forward(f_initial, grid.centers().T, *rule)
        assert default[0].any() or len(default[1])
        for got, want in zip(default, per_step):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestSplitOracle:
    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_cell_rule(self, case, processes, f_initial, many_cpus):
        check_case(case, f_initial, processes=processes)

    def test_initial_policy_mask_same_bytes(self, f_initial, grid, cfg, many_cpus):
        masks = [true_roa(f_initial, grid, cfg.oracle_kmax, processes=p).values
                 for p in (1, 2, 3)]
        assert 0.0 < masks[0].mean() < 1.0
        assert masks[1].tobytes() == masks[0].tobytes()
        assert masks[2].tobytes() == masks[0].tobytes()

    def test_parts_capped_by_cpus_and_cells(self, monkeypatch):
        forks = []
        start = oracle._start_in_child
        monkeypatch.setattr(oracle, "_start_in_child",
                            lambda *args: forks.append(1) or start(*args))
        tiny = GridDomain(n_theta=2, n_omega=2)
        for cpus, processes, grid, children in ((1, 2, SMALL_GRID, 0),
                                                (8, 3, SMALL_GRID, 2),
                                                (8, 8, tiny, 3)):
            monkeypatch.setattr(oracle, "_usable_cpus", lambda: cpus)
            forks.clear()
            mask = true_roa(lambda x: 0.5 * x, grid, k_max=20, processes=processes)
            assert mask.fraction == 1.0
            assert len(forks) == children

    @pytest.mark.parametrize("part", [0, 1])
    def test_error_in_a_part_reaches_the_caller(self, part, many_cpus):
        # part 0 holds the even cells and runs here, part 1 the odd ones; the
        # conftest fails the test if the child is left unreaped
        poison = SMALL_GRID.centers()[part]

        def f(x):
            if (x == poison).all(axis=1).any():
                raise LookupError(f"poisoned cell in process {os.getpid()}")
            return 0.9 * x

        with pytest.raises(LookupError, match=r"poisoned cell in process") as err:
            true_roa(f, SMALL_GRID, k_max=20, ball_radius=0.1, confirm_steps=3,
                     processes=2)
        pid = int(re.search(r"process (\d+)", str(err.value)).group(1))
        assert (pid == os.getpid()) == (part == 0)

    def test_processes_below_one_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            true_roa(lambda x: 0.5 * x, SMALL_GRID, k_max=20, processes=0)


# odd closed-loop maps, a = -b and m_a = m_b: (a, m, pendulum overrides)
ODD_SHAPES = {"thresholds": (0.3, 0.0, {}), "slopes_0.25": (0.2, 0.25, {}),
              "slopes_0.5": (0.2, 0.5, {}), "friction": (0.2, 0.0, {"friction": 0.1})}
# even and odd cell counts; the counts of 9x9 are both odd, so its middle
# cell is its own mirror
MIRROR_GRIDS = {"7x9": (7, 9), "9x9": (9, 9), "10x7": (10, 7), "2x3": (2, 3)}
MIRROR_RULE = (300, 0.1, 20)        # k_max, ball_radius, confirm_steps


def shaped(policy, a, b, m_a=0.0, m_b=0.0):
    return replace(policy, psi=replace(policy.psi, a=a, b=b, m_a=m_a, m_b=m_b))


class CountingMap(ClosedLoopMap):
    """The closed-loop map, recording the row count of every call."""

    def __init__(self, policy, params):
        super().__init__(policy, params)
        self.rows = []

    def __call__(self, state):
        self.rows.append(len(state))
        return super().__call__(state)


_MIRROR_REFERENCE = {}


class TestMirroredOracle:
    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("grid_name", sorted(MIRROR_GRIDS))
    @pytest.mark.parametrize("shape", sorted(ODD_SHAPES))
    def test_matches_per_cell_rule(self, shape, grid_name, processes,
                                   initial_policy, params, many_cpus):
        a, m, physics = ODD_SHAPES[shape]
        f = closed_loop(shaped(initial_policy, a, -a, m, m), replace(params, **physics))
        n_theta, n_omega = MIRROR_GRIDS[grid_name]
        grid = GridDomain(n_theta=n_theta, n_omega=n_omega)
        assert f.odd
        key = (shape, grid_name)
        if key not in _MIRROR_REFERENCE:
            _MIRROR_REFERENCE[key] = reference_roa(f, grid, *MIRROR_RULE,
                                                   grid.safety_box())
        got = true_roa(f, grid, *MIRROR_RULE, processes=processes)
        assert np.array_equal(got.values, _MIRROR_REFERENCE[key])

    @pytest.mark.parametrize("k_max", [1000, 8000])
    def test_default_grid_same_bytes_as_full_roll(self, k_max, initial_policy,
                                                  params, grid):
        # a plain function is never mirrored, so it rolls every cell
        for a in (0.2, 0.3, 0.4, 0.5):
            f = closed_loop(shaped(initial_policy, a, -a), params)
            mirrored = true_roa(f, grid, k_max)
            full = true_roa(lambda x: f(x), grid, k_max)
            assert mirrored.values.tobytes() == full.values.tobytes(), a

    def test_mirror_needs_odd_map_centred_grid_and_symmetric_box(
            self, initial_policy, params):
        centred = GridDomain(n_theta=10, n_omega=7)
        box = ((-10.0, 10.0), (-30.0, 30.0))
        odd = shaped(initial_policy, 0.3, -0.3)
        # name -> (policy, grid, box, rows of the first map call)
        cases = {
            "odd": (odd, centred, box, 35),
            "odd_count": (odd, GridDomain(n_theta=9, n_omega=9), box, 41),
            "thresholds": (shaped(initial_policy, 0.3, -0.25), centred, box, 70),
            "slopes": (shaped(initial_policy, 0.3, -0.3, 0.5, 0.25), centred, box, 70),
            "theta_off_centre": (odd, GridDomain(-1.5, 1.6, n_theta=10, n_omega=7),
                                 box, 70),
            "omega_off_centre": (odd, GridDomain(omega_min=-6.0, omega_max=6.5,
                                                 n_theta=10, n_omega=7), box, 70),
            "theta_box": (odd, centred, ((-10.0, 10.5), (-30.0, 30.0)), 70),
            "omega_box": (odd, centred, ((-10.0, 10.0), (-29.0, 30.0)), 70),
        }
        for name, (policy, grid, box, rows) in cases.items():
            f = CountingMap(policy, params)
            true_roa(f, grid, 50, box=box, processes=1)
            assert f.rows[0] == rows, name


class TestMeasures:
    def test_sym_diff_self_is_zero(self, grid):
        rng = np.random.default_rng(1)
        m = RoaMask(rng.random(grid.n_cells) < 0.3, 100, 100)
        assert sym_diff_measure(m, m) == 0.0

    def test_sym_diff_complement_is_one(self, grid):
        m = RoaMask(np.ones(grid.n_cells, dtype=bool), 100, 100)
        n = RoaMask(np.zeros(grid.n_cells, dtype=bool), 100, 100)
        assert sym_diff_measure(m, n) == 1.0

    def test_grid_mismatch_rejected(self):
        a = RoaMask(np.zeros(100, dtype=bool), 10, 10)
        b = RoaMask(np.zeros(25, dtype=bool), 5, 5)
        with pytest.raises(ValueError):
            sym_diff_measure(a, b)

    def test_mask_measure_counts_cells(self):
        values = np.zeros(100, dtype=bool)
        values[:25] = True
        assert RoaMask(values, 10, 10).fraction == 0.25

    def test_nearby_policies_have_nearby_roas(self, cfg, lqr, params, grid):
        # continuity diagnostic: one crop-radius of threshold change moves the
        # RoA by a bounded amount (logged, loose gate)
        from dataclasses import replace
        from roagrow.dynamics import closed_loop

        pol = cfg.initial_policy(lqr[0])
        bumped = replace(pol, psi=replace(pol.psi, a=pol.psi.a + pol.crop_radius))
        m1 = true_roa(closed_loop(pol, params), grid, k_max=1500)
        m2 = true_roa(closed_loop(bumped, params), grid, k_max=1500)
        d = sym_diff_measure(m1, m2)
        print(f"sym-diff after one crop radius: {d:.4f}")
        assert 0.0 <= d <= 0.5


class TestGapGrowth:
    def test_annulus_matches_prediction(self):
        g100 = GridDomain(-1.1, 1.1, -1.1, 1.1, 100, 100)
        res = gap_growth_check(1.0, [1.05], g100)
        counted, predicted, rel = res[1.05]
        assert predicted == pytest.approx(np.pi * 0.05)
        assert rel < 0.10

    def test_error_roughly_halves_at_double_resolution(self):
        g100 = GridDomain(-1.1, 1.1, -1.1, 1.1, 100, 100)
        g200 = GridDomain(-1.1, 1.1, -1.1, 1.1, 200, 200)
        rel100 = gap_growth_check(1.0, [1.05], g100)[1.05][2]
        rel200 = gap_growth_check(1.0, [1.05], g200)[1.05][2]
        assert rel200 < 0.7 * rel100

    def test_alpha_one_gives_zero_gap(self):
        g = GridDomain(-1.1, 1.1, -1.1, 1.1, 100, 100)
        counted, predicted, _ = gap_growth_check(1.0, [1.0], g)[1.0]
        assert counted == 0.0 and predicted == 0.0

    def test_boundary_touching_rejected(self):
        g = GridDomain(-1.0, 1.0, -1.0, 1.0, 100, 100)
        with pytest.raises(ValueError):
            gap_growth_check(1.0, [1.05], g)


class TestMaskSerialization:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = RoaMask(rng.random(10_000) < 0.4, 100, 100)
        path = tmp_path / "m.pgm"
        save_mask_pgm(mask, path)
        loaded = load_mask_pgm(path)
        assert np.array_equal(loaded.values, mask.values)

    def test_pgm_bytes_deterministic(self, tmp_path):
        mask = RoaMask(np.arange(10_000) % 3 == 0, 100, 100)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_mask_pgm(mask, p1)
        save_mask_pgm(mask, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("blob, defect", [
        (b"P5\n10 10\n", "truncated"),
        (b"P5\n10\n255\n" + bytes(100), "malformed"),
        (b"P5\n10 x\n255\n" + bytes(100), "malformed"),
        (b"P5\n2 2\n1\n" + bytes(4), "malformed"),
        (b"P5\n10 10\n255\n" + bytes(7),
         r"payload is truncated: expected 100 bytes .* got 7"),
        # a saved 3 x 2 mask with 10 bytes appended
        (b"P5\n3 2\n255\n" + bytes(6) + bytes(10),
         r"payload is too long: expected 6 bytes for 3 x 2, got 16"),
    ], ids=["no-maxval", "one-dim", "bad-dim", "bad-maxval", "short-payload",
            "long-payload"])
    def test_bad_header_names_the_defect(self, tmp_path, blob, defect):
        path = tmp_path / "m.pgm"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=defect):
            load_mask_pgm(path)

    def test_csv_shape(self, tmp_path):
        mask = RoaMask(np.zeros(10_000, dtype=bool), 100, 100)
        path = tmp_path / "m.csv"
        save_mask_csv(mask, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 100
        assert all(len(ln.split(",")) == 100 for ln in lines)

    def test_boundary_cells_of_disk(self):
        g = GridDomain(-1, 1, -1, 1, 50, 50)
        c = g.centers()
        mask = RoaMask(np.hypot(c[:, 0], c[:, 1]) < 0.5, 50, 50)
        ring = mask.boundary_cells()
        assert 0 < ring.sum() < mask.values.sum()
        assert np.all(mask.values[ring])


# boxes for the box test of roll_forward: three symmetric about the origin
# (an infinite and a zero half-width among them), whose test reads |x|, and
# one asymmetric, which takes out_of_box
EDGE_BOXES = {"symmetric": ((-1.5, 1.5), (-6.25, 6.25)),
              "infinite_theta": ((-np.inf, np.inf), (-6.25, 6.25)),
              "zero_theta": ((-0.0, 0.0), (-6.25, 6.25)),
              "asymmetric": ((-1.5, 1.25), (-6.25, 6.5))}


def _edge_values(lo, hi, ulps):
    # each bound, and 1 to ``ulps`` ulps nearer zero and farther from it
    vals = [0.0, -0.0, 0.3, -0.3]
    for e in (lo, hi):
        inward = outward = e
        vals.append(e)
        for _ in range(ulps):
            inward = np.nextafter(inward, 0.0)
            outward = np.nextafter(outward, np.copysign(np.inf, outward))
            vals += [inward, outward]
    return vals


def edge_states(box, ulps=1):
    """Every pair of a theta and an omega taken from: each edge of ``box``,
    1 to ``ulps`` ulps inside and outside it, ±0, ±0.3, ±inf and NaN.  An
    ``(n, 2)`` array."""
    (tlo, thi), (wlo, whi) = box
    special = [np.inf, -np.inf, np.nan]
    th = _edge_values(tlo, thi, ulps) + special
    om = _edge_values(wlo, whi, ulps) + special
    return np.array(np.meshgrid(th, om)).reshape(2, -1).T


def _ulp_out(x):
    # rows in the unit disc halve; elsewhere a nonzero coordinate moves one
    # ulp away from zero per step, so a row k ulps inside an edge leaves on
    # step k + 1
    disc = np.hypot(x[:, 0], x[:, 1]) < 1.0
    return np.where(disc[:, None], 0.5 * x, np.nextafter(x, 2 * x))


class TestSymmetricBox:
    @pytest.mark.parametrize("body", ["per_step", "blocks"])
    @pytest.mark.parametrize("box", sorted(EDGE_BOXES))
    def test_box_test_matches_out_of_box(self, box, body, monkeypatch):
        # one identity step under a radius-0 ball: a row is still running
        # exactly when out_of_box calls its state in the box
        box = EDGE_BOXES[box]
        x = edge_states(box)
        monkeypatch.setattr(dynamics, "TAIL_ROWS", 0 if body == "per_step" else len(x))
        converged, running, final = roll_forward(lambda s: s.copy(), x.T, 1, 0.0, 0, box)
        inside = ~out_of_box(x, box)
        assert inside.any() and not inside.all()
        assert not converged.any()
        assert np.array_equal(running, np.flatnonzero(inside))
        assert final.tobytes() == np.ascontiguousarray(x[inside].T).tobytes()

    # (k_max, ball_radius, confirm_steps): the oracle's rule, under which rows
    # converge, and the labels', under which rows still run at the end
    @pytest.mark.parametrize("rule", [(12, 0.1, 3), (6, 0.0, 0)],
                             ids=["oracle", "labels"])
    @pytest.mark.parametrize("rows", ["more", "fewer"])
    @pytest.mark.parametrize("body", ["default", "per_step", "blocks"])
    @pytest.mark.parametrize("box", ["symmetric", "asymmetric"])
    def test_roll_from_the_edge_matches_per_row_rule(self, box, body, rows, rule,
                                                     monkeypatch):
        box = EDGE_BOXES[box]
        x = edge_states(box, ulps=8)
        if rows == "fewer":
            x = x[::8]
        assert (len(x) > dynamics.TAIL_ROWS) == (rows == "more")
        if body != "default":
            monkeypatch.setattr(dynamics, "TAIL_ROWS",
                                0 if body == "per_step" else len(x))
            monkeypatch.setattr(dynamics, "TAIL_BLOCK", 4)
        got = roll_forward(_ulp_out, x.T, *rule, box)
        want = reference_roll(_ulp_out, x, *rule, box)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2].tobytes() == want[2].tobytes()
        # the oracle's rule retires every row, some of them converged; under
        # the labels' none converges and some still run
        assert want[0].any() == (len(want[1]) == 0) == (rule[1] > 0)
        assert not want[0].all()

    @pytest.mark.parametrize("body", ["per_step", "blocks"])
    def test_out_of_box_runs_only_for_an_asymmetric_box(self, body, monkeypatch):
        x = edge_states(EDGE_BOXES["symmetric"], ulps=8)
        monkeypatch.setattr(dynamics, "TAIL_ROWS", 0 if body == "per_step" else len(x))
        calls, real = [], dynamics.out_of_box
        monkeypatch.setattr(dynamics, "out_of_box",
                            lambda *args: calls.append(1) or real(*args))
        for name, expect_calls in (("symmetric", False), ("asymmetric", True)):
            calls.clear()
            roll_forward(_ulp_out, x.T, 12, 0.1, 3, EDGE_BOXES[name])
            assert bool(calls) == expect_calls, name
