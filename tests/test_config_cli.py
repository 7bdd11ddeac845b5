import inspect
import logging
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from roagrow.cli import main
from roagrow.config import (_FIELD_KEYS, ConfigError, RedesignConfig,
                            dump_config, parse_config, parse_config_text)
from roagrow.dynamics import PendulumParams
from roagrow.experiment import (MaskOverlay, MetricsLog, emit_heatmap,
                                read_metrics, write_report)
from roagrow.grid import GridDomain
from roagrow.lyapunov import PDLyapunovNet, pretrain_quadratic, quadratic_target
from roagrow.oracle import true_roa
from roagrow.policy import SatParams, SatPolicy, crop_update
from roagrow.roa_estimator import LevelSetEstimate

from reference import full_grid_level, rows_of


def _keys_of(kind: str) -> list:
    return [f.name for f in fields(RedesignConfig) if f.type == kind]


# one violating value per rule a config key must meet, every other key at its
# default: the rules of the check table in RedesignConfig.__post_init__ and
# those of the value types it builds
VIOLATIONS = {
    "dt": 0.0, "length": 0.0, "inertia": -0.25, "friction": -0.1,
    "theta_min": 2.0, "omega_min": 7.0, "grid_cells": 1, "lqr_q": 0.0,
    "lqr_r": -1.0, "sat_b": 0.3, "sat_slope_a": -0.1, "sat_slope_b": -0.1,
    "crop_radius": 0.0, "variant": "both", "pd_eps": 0.0,
    "pretrain_target": "cubic", "hidden_width": 1, "pretrain_lr": 0.0,
    "pretrain_steps": -1, "pretrain_batch": 0, "gamma_r": 0.5, "gamma_p": 1.0,
    "beta_r": 1.5, "beta_p": -0.1, "growth_iters": 0, "rollout_steps_r": 0,
    "rollout_steps_p": -1, "lambda_roa": -1.0, "lambda_monot": -0.01,
    "lambda_u": 0.5, "roa_lr": 0.0, "policy_lr": -0.01, "roa_sgd_steps": 0,
    "roa_grad_clip": 0.0, "policy_sgd_steps": -1, "phases": -1,
    "batch_init": 0, "batch_increment": -1, "oracle_kmax": 0,
    "oracle_ball_radius": 0.0, "oracle_confirm_steps": -1,
    "safety_box_factor": 0.5, "seed": -1, "out_dir": "runs/a#1",
}


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == RedesignConfig()

    def test_plain_value_parses(self):
        cfg = parse_config_text("gamma_r = 4")
        assert cfg.gamma_r == 4.0

    def test_invariant_violation_rejected(self):
        with pytest.raises(ConfigError, match="gamma_r"):
            parse_config_text("gamma_r = 0.5")

    @pytest.mark.parametrize("key", VIOLATIONS)
    def test_each_invariant_names_its_key(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' must"):
            RedesignConfig(**{key: VIOLATIONS[key]})

    def test_violations_cover_the_check_table(self):
        # the keys the checks name, read from their ("key", "why") pairs, and
        # the keys of the value-type fields, through the field-to-key map;
        # no rule is stated in both places
        source = inspect.getsource(RedesignConfig.__post_init__)
        checked = re.findall(r'"(\w+)",\s*f?"must', source)
        built = {_FIELD_KEYS.get(f.name, f.name)
                 for kind in (PendulumParams, GridDomain, SatParams, SatPolicy)
                 for f in fields(kind)}
        assert len(checked) == len(set(checked))
        assert set(checked).isdisjoint(built)
        assert set(checked) <= set(VIOLATIONS)
        assert set(VIOLATIONS) - set(checked) <= built
        assert len(VIOLATIONS) == 44

    def test_defaults_follow_the_paper_schedule(self, cfg):
        # the batch schedule the README states; the estimator and policy
        # defaults are checked next to their updaters
        assert [cfg.batch_size(phase) for phase in (1, 2, 3, 20)] == [10, 20, 30, 200]

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 3.*no_such_key"):
            parse_config_text("\n# comment\nno_such_key = 1\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="grid_cells"):
            parse_config_text("grid_cells = 12.5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("""
        # full line comment
        seed = 3   # trailing comment

        phases = 2
        """)
        assert cfg.seed == 3 and cfg.phases == 2

    def test_round_trip(self):
        cfg = RedesignConfig(seed=9, phases=3, lambda_monot=0.0,
                             variant="slopes", out_dir="elsewhere")
        assert parse_config_text(dump_config(cfg)) == cfg

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.tuples(st.sampled_from(_keys_of("float")), st.floats()),
        st.tuples(st.sampled_from(_keys_of("int")), st.integers(-10, 10**12)),
        st.tuples(st.sampled_from(_keys_of("int")), st.floats() | st.booleans()),
        st.tuples(st.just("out_dir"), st.text())))
    def test_round_trip_property(self, override):
        # any config that constructs dumps to text that parses back equal
        try:
            cfg = RedesignConfig(**dict([override]))
        except ConfigError:
            assume(False)
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_non_finite_float_rejected(self):
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="gravity.*finite"):
                parse_config_text(f"gravity = {raw}\n")

    @pytest.mark.parametrize("key, value", [("phases", 2.0), ("grid_cells", 100.0),
                                            ("seed", True), ("seed", False)])
    def test_int_key_rejects_float_and_bool(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' expects int"):
            RedesignConfig(**{key: value})

    def test_numpy_int_accepted(self):
        cfg = RedesignConfig(seed=np.int64(3))
        assert parse_config_text(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("out_dir", ["", "runs/a#1", " x ", "a\nb", "a\r"])
    def test_out_dir_that_would_not_reparse_rejected(self, out_dir):
        with pytest.raises(ConfigError, match="out_dir"):
            RedesignConfig(out_dir=out_dir)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 5\n", encoding="utf-8")
        assert parse_config(path).seed == 5

    def test_variant_controls_trainable_mask(self):
        thresholds = RedesignConfig(variant="thresholds").initial_sat_params()
        slopes = RedesignConfig(variant="slopes").initial_sat_params()
        assert thresholds.trainable == (True, True, False, False)
        assert slopes.trainable == (False, False, True, True)


NAN = float("nan")
# one NaN per checked field of the value types a config builds; RedesignConfig
# rejects it first, so these checks guard direct construction
NAN_FIELDS = {
    **{f"PendulumParams.{k}": (lambda k=k: PendulumParams(**{k: NAN}))
       for k in ("length", "inertia", "dt", "friction")},
    **{f"GridDomain.{k}": (lambda k=k: GridDomain(**{k: NAN}))
       for k in ("theta_min", "theta_max", "omega_min", "omega_max",
                 "n_theta", "n_omega")},
    **{f"SatParams.{k}": (lambda k=k: SatParams(**{k: NAN}))
       for k in ("a", "b", "m_a", "m_b")},
    "crop_update.crop_radius": lambda: crop_update(SatParams(), np.zeros(4), NAN),
    "LevelSetEstimate.c": lambda: LevelSetEstimate(
        PDLyapunovNet.initialize(np.random.default_rng(0), (2, 2)), NAN),
}


@pytest.mark.parametrize("build", NAN_FIELDS.values(), ids=NAN_FIELDS.keys())
def test_value_types_reject_nan(build):
    with pytest.raises(ValueError):
        build()


INF = float("inf")
# (type, field, value) that only a finiteness check rejects
NON_FINITE_FIELDS = [
    *[(PendulumParams, "g", v) for v in (NAN, INF, -INF)],
    *[(PendulumParams, k, INF) for k in ("length", "inertia", "friction", "dt")],
    (GridDomain, "theta_min", -INF), (GridDomain, "theta_max", INF),
    (GridDomain, "omega_min", -INF), (GridDomain, "omega_max", INF),
]


@pytest.mark.parametrize("kind, field, value", NON_FINITE_FIELDS,
                         ids=[f"{k.__name__}.{f}={v}" for k, f, v in NON_FINITE_FIELDS])
def test_value_types_reject_non_finite_naming_the_field(kind, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        kind(**{field: value})


# (type, field, value) for every check of the value types a config builds
FIELD_CHECKS = [
    *[(PendulumParams, k, 0.0) for k in ("length", "inertia", "dt")],
    (PendulumParams, "friction", -0.1), (PendulumParams, "g", NAN),
    (GridDomain, "theta_min", 2.0), (GridDomain, "omega_min", 7.0),
    (GridDomain, "theta_max", INF), (GridDomain, "n_theta", 1),
    (GridDomain, "n_omega", 1), (SatParams, "b", 0.3), (SatParams, "m_a", -0.1),
    (SatParams, "m_b", -0.1), (SatParams, "trainable", (True,)),
    (SatPolicy, "k", np.array([NAN, 0.0])),
]


@pytest.mark.parametrize("kind, field, value", FIELD_CHECKS,
                         ids=[f"{k.__name__}.{f}" for k, f, _ in FIELD_CHECKS])
def test_value_type_messages_start_with_the_field(kind, field, value):
    # the config turns the leading field into its key
    args = dict(k=np.zeros(2), psi=SatParams()) if kind is SatPolicy else {}
    with pytest.raises(ValueError, match=rf"^{field} must"):
        kind(**{**args, field: value})


def _default(func, name):
    return inspect.signature(func).parameters[name].default


class TestLibraryDefaults:
    """Each library default that mirrors a config default equals it, so a
    default changed in one place fails here instead of drifting apart."""

    cfg = RedesignConfig()

    def test_value_types(self):
        assert PendulumParams() == self.cfg.pendulum_params()
        assert GridDomain() == self.cfg.grid()
        assert SatParams() == self.cfg.initial_sat_params()
        assert _default(GridDomain.safety_box, "factor") == self.cfg.safety_box_factor

    def test_oracle(self):
        assert ((_default(true_roa, "k_max"), _default(true_roa, "ball_radius"),
                 _default(true_roa, "confirm_steps"))
                == (self.cfg.oracle_kmax, self.cfg.oracle_ball_radius,
                    self.cfg.oracle_confirm_steps))

    def test_net_and_pretraining(self):
        assert _default(PDLyapunovNet.initialize, "widths") == self.cfg.net_widths()
        assert _default(PDLyapunovNet.initialize, "eps") == self.cfg.pd_eps
        assert ((_default(pretrain_quadratic, "lr"), _default(pretrain_quadratic, "steps"),
                 _default(pretrain_quadratic, "batch"))
                == (self.cfg.pretrain_lr, self.cfg.pretrain_steps,
                    self.cfg.pretrain_batch))
        assert _default(quadratic_target, "coeff") == self.cfg.pretrain_coeff


class TestMetricsLog:
    def test_rows_written_incrementally(self, tmp_path):
        path = tmp_path / "m.csv"
        log = MetricsLog(path)
        log.add(phase=1, iter=1, kind="growth", level_c=0.5, est_fraction=0.1)
        text = path.read_text()
        assert text.startswith("# roagrow-metrics v1\n")
        assert text.count("\n") == 3

    def test_unknown_column_rejected(self, tmp_path):
        log = MetricsLog(tmp_path / "m.csv")
        with pytest.raises(ValueError):
            log.add(kind="growth", nope=1)

    def test_read_back(self, tmp_path):
        path = tmp_path / "m.csv"
        log = MetricsLog(path)
        log.add(phase=2, iter=3, kind="growth", level_c=0.25, est_fraction=0.5)
        rows = read_metrics(path)
        assert rows[0]["phase"] == 2.0
        assert rows[0]["kind"] == "growth"
        assert rows[0]["oracle_fraction"] is None

    @pytest.mark.parametrize("extra, fields", [(",".join("1" * 4), 4),
                                               (",".join("1" * 17), 17)],
                             ids=["short-row", "long-row"])
    def test_malformed_row_names_its_line(self, tmp_path, extra, fields):
        path = tmp_path / "metrics.csv"
        MetricsLog(path).add(phase=0, iter=0, kind="init", level_c=0.1)
        with open(path, "a", encoding="ascii") as fh:
            fh.write(extra + "\n")
        with pytest.raises(ValueError,
                           match=rf"line 4 has {fields} fields, the header 16"):
            read_metrics(path)

    def test_missing_header_row_named(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("# roagrow-metrics v1\n", encoding="ascii")
        with pytest.raises(ValueError, match="the header row is missing"):
            read_metrics(path)

    def test_non_number_names_line_and_column(self, tmp_path):
        path = tmp_path / "metrics.csv"
        MetricsLog(path).add(phase=0, iter=0, kind="init", level_c=0.1)
        text = path.read_text(encoding="ascii").replace("0.1", "abc")
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError,
                           match=r"line 3, column level_c: 'abc' is not a number"):
            read_metrics(path)


class TestEmitHeatmap:
    def test_all_false_overlay_is_uniform(self, tmp_path):
        empty = np.zeros(100, dtype=bool)
        path = tmp_path / "o.ppm"
        emit_heatmap(MaskOverlay(empty, empty, empty), path, 10, 10)
        data = path.read_bytes()
        header, pixels = data.split(b"255\n", 1)
        assert header == b"P6\n10 10\n"
        assert pixels == pixels[:3] * 100

    def test_three_cell_overlay(self, tmp_path):
        estimate = np.zeros(100, dtype=bool)
        estimate[[5, 17, 42]] = True
        empty = np.zeros(100, dtype=bool)
        path = tmp_path / "o.ppm"
        emit_heatmap(MaskOverlay(empty, estimate, empty), path, 10, 10)
        pixels = path.read_bytes().split(b"255\n", 1)[1]
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(10, 10, 3)[::-1]
        colored = (img != 255).any(axis=2)
        assert colored.ravel().sum() == 3
        assert colored.ravel()[[5, 17, 42]].all()

    def test_byte_identical_output(self, tmp_path):
        rng = np.random.default_rng(0)
        field_vals = rng.random(100)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        emit_heatmap(field_vals, p1, 10, 10)
        emit_heatmap(field_vals, p2, 10, 10)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scalar_field_is_pgm(self, tmp_path):
        path = tmp_path / "v.pgm"
        emit_heatmap(np.linspace(0, 1, 100), path, 10, 10)
        assert path.read_bytes().startswith(b"P5\n10 10\n255\n")


class TestReport:
    def _fake_run_dir(self, tmp_path):
        log = MetricsLog(tmp_path / "metrics.csv")
        log.add(phase=0, iter=0, kind="init", level_c=0.1, est_fraction=0.01,
                oracle_fraction=0.5, sat_a=0.2, sat_b=-0.2, sat_ma=0.0, sat_mb=0.0)
        for m in (1, 2):
            log.add(phase=1, iter=m, kind="growth", level_c=0.2 * m,
                    est_fraction=0.02 * m, cbar_fraction=0.03 * m, loss=-1.0)
        log.add(phase=1, iter=0, kind="policy", level_c=0.4, est_fraction=0.04,
                oracle_fraction=0.6, loss=2.0, sat_a=0.3, sat_b=-0.3,
                sat_ma=0.0, sat_mb=0.0, unsound_fraction=0.0)
        return tmp_path

    def test_report_tables(self, tmp_path):
        out = self._fake_run_dir(tmp_path)
        write_report(out)
        fractions = (out / "fractions.csv").read_text().strip().split("\n")
        assert fractions[0] == "global_iter,phase,iter,est_fraction,oracle_fraction"
        assert len(fractions) == 3
        levels = (out / "levels.csv").read_text().strip().split("\n")
        assert len(levels) == 3
        params = (out / "policy_params.csv").read_text().strip().split("\n")
        assert len(params) == 3


class TestCli:
    def test_usage_error_exit_2(self, capsys):
        assert main(["bogus-command"]) == 2
        assert main([]) == 2

    def test_missing_config_exit_1(self):
        assert main(["oracle", "--config", "/nonexistent/x.cfg"]) == 1

    def test_bad_config_exit_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma_r = 0.5\n")
        assert main(["oracle", "--config", str(path)]) == 1

    def test_pretrain_subcommand(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("pretrain_steps = 50\nseed = 1\n")
        code = main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "pretraining MSE" in out
        assert (tmp_path / "o" / "net_pretrained.ckpt").exists()
        assert (tmp_path / "o" / "pretrain_v.pgm").exists()

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--out", "o"]],
                             ids=["seed", "out"])
    def test_oracle_rejects_seed_and_out(self, flag, capsys):
        # the oracle draws no random numbers and writes no file
        assert main(["oracle", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_oracle_subcommand_prints_fraction(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("oracle_kmax = 300\n")
        code = main(["oracle", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "true RoA fraction:" in out
        value = float(out.split("true RoA fraction:")[1].split()[0])
        assert 0.0 < value < 1.0

    def test_report_subcommand(self, tmp_path, capsys):
        log = MetricsLog(tmp_path / "metrics.csv")
        log.add(phase=0, iter=0, kind="init", level_c=0.1, est_fraction=0.0,
                oracle_fraction=0.5, sat_a=0.2, sat_b=-0.2, sat_ma=0.0, sat_mb=0.0)
        code = main(["report", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "policy_params.csv").exists()

    def test_report_on_malformed_row_exits_1(self, tmp_path, caplog):
        path = tmp_path / "metrics.csv"
        MetricsLog(path)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("0,0,init,0.1\n")
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "line 3 has 4 fields" in caplog.text

    @pytest.mark.parametrize("body, defect", [
        ("", "the header row is missing"),
        (",".join(["phase", "iter", "kind"]) + "\nx,0,init\n",
         "line 3, column phase: 'x' is not a number")],
        ids=["no-header", "non-number"])
    def test_report_on_unreadable_metrics_exits_1(self, tmp_path, caplog, body,
                                                  defect):
        (tmp_path / "metrics.csv").write_text("# roagrow-metrics v1\n" + body,
                                              encoding="ascii")
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert defect in caplog.text

    def test_seed_flag_overrides_config(self, tmp_path):
        from roagrow.cli import _build_parser, _load_config

        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\n")
        args = _build_parser().parse_args(
            ["run", "--config", str(path), "--seed", "9", "--no-monot"])
        cfg = _load_config(args)
        assert cfg.seed == 9
        assert cfg.lambda_monot == 0.0


TINY_RUN = ("pretrain_steps = 200\nroa_sgd_steps = 100\npolicy_sgd_steps = 5\n"
            "oracle_kmax = 300\nseed = 2\n")


class TestRunRedesign:
    def test_zero_phases_writes_pretraining_artifacts_only(self, tmp_path):
        from roagrow.config import parse_config_text
        from roagrow.experiment import run_redesign

        cfg = parse_config_text(TINY_RUN + "phases = 0\n")
        out = run_redesign(cfg, out_dir=tmp_path)
        assert out == tmp_path
        assert (tmp_path / "checkpoints" / "net_phase_00.ckpt").exists()
        assert (tmp_path / "heatmaps" / "pretrain_v.pgm").exists()
        assert rows_of(out, "policy") == []
        assert len(rows_of(out, "init")) == 1

    def test_one_phase_run_does_not_warn_about_levels(self, tmp_path, caplog):
        # one phase has a single level value, so there is no trend to judge
        from roagrow.experiment import run_redesign

        cfg = RedesignConfig(grid_cells=10, pretrain_steps=50, pretrain_batch=32,
                             roa_sgd_steps=20, growth_iters=2, policy_sgd_steps=3,
                             oracle_kmax=200, phases=1, seed=1)
        with caplog.at_level(logging.WARNING, logger="roagrow.experiment"):
            run_redesign(cfg, out_dir=tmp_path)
        assert not [r for r in caplog.records if "did not move toward 1" in r.getMessage()]

    def test_cli_run_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(TINY_RUN + "phases = 1\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "final oracle RoA fraction" in out
        root = tmp_path / "o"
        init, = rows_of(root, "init")
        final = rows_of(root, "policy")[-1]
        assert _printed_fractions(out) == _four_places(final, init)
        assert (root / "metrics.csv").exists()
        assert (root / "config_used.cfg").exists()
        assert (root / "masks" / "oracle_phase_01.pgm").exists()
        assert (root / "heatmaps" / "phase_01_roa.ppm").exists()
        assert (root / "fractions.csv").exists()

    def test_cli_run_zero_phases_prints_the_init_fraction(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(TINY_RUN + "phases = 0\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        init, = rows_of(tmp_path / "o", "init")
        assert _printed_fractions(capsys.readouterr().out) == _four_places(init, init)


def _printed_fractions(out: str) -> tuple:
    """The ``(final, initial)`` oracle fractions that ``roagrow run`` printed."""
    m = re.search(r"final oracle RoA fraction: (\S+) \(initial (\S+)\)", out)
    assert m, out
    return m.groups()


def _four_places(*rows) -> tuple:
    return tuple(f"{r['oracle_fraction']:.4f}" for r in rows)


# a run of a few seconds whose oracle forks: three phases, the last in process
TINY_FORKED = dict(grid_cells=10, pretrain_steps=50, pretrain_batch=32,
                   roa_sgd_steps=20, growth_iters=2, policy_sgd_steps=3,
                   oracle_kmax=200, phases=3, seed=1)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _artifacts(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timings.txt"}


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one of two values."""

    def __init__(self, a, b):
        super().__init__(a)


class TestPrefixLineSearchRun:
    def test_same_bytes_as_the_full_grid_rule(self, tmp_path, monkeypatch):
        import roagrow.experiment as experiment
        import roagrow.roa_estimator as roa_estimator

        # 1,600 cells: more than one block of images, so the prefix bites
        cfg = RedesignConfig(**dict(TINY_FORKED, grid_cells=40, phases=2))
        rows = []
        value = roa_estimator.PDLyapunovNet.value
        monkeypatch.setattr(roa_estimator.PDLyapunovNet, "value",
                            lambda net, x: rows.append(len(x)) or value(net, x))
        experiment.run_redesign(cfg, out_dir=tmp_path / "prefix")
        assert 1024 in rows
        monkeypatch.undo()

        def full_grid(net, v, images, grid):
            return full_grid_level(v, net.value(images), grid)

        for module in (experiment, roa_estimator):
            monkeypatch.setattr(module, "line_search_level", full_grid)
        experiment.run_redesign(cfg, out_dir=tmp_path / "full")
        _assert_no_child_left()
        prefix, full = _artifacts(tmp_path / "prefix"), _artifacts(tmp_path / "full")
        assert "masks/oracle_phase_02.pgm" in prefix
        assert prefix == full


class TestOracleInChild:
    def test_same_bytes_as_an_in_process_run(self, tmp_path, monkeypatch):
        import roagrow.experiment as experiment

        cfg = RedesignConfig(**TINY_FORKED)
        experiment.run_redesign(cfg, out_dir=tmp_path / "forked")
        _assert_no_child_left()

        def in_process(fn, *args):
            result = fn(*args)
            return lambda: result

        monkeypatch.setattr(experiment, "_start_in_child", in_process)
        experiment.run_redesign(cfg, out_dir=tmp_path / "waiting")
        forked, waiting = _artifacts(tmp_path / "forked"), _artifacts(tmp_path / "waiting")
        assert "masks/oracle_phase_02.pgm" in forked
        assert forked == waiting

    def test_failing_phase_leaves_the_pending_policy(self, tmp_path, monkeypatch):
        import roagrow.experiment as experiment

        cfg = RedesignConfig(**TINY_FORKED)
        full = tmp_path / "full"
        experiment.run_redesign(cfg, out_dir=full)

        real, calls = experiment.estimate_roa, []

        def fail_in_phase_2(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("phase 2 estimation failed")
            return real(*args)

        monkeypatch.setattr(experiment, "estimate_roa", fail_in_phase_2)
        cut = tmp_path / "cut"
        with pytest.raises(RuntimeError, match="phase 2 estimation failed"):
            experiment.run_redesign(cfg, out_dir=cut)
        _assert_no_child_left()

        rows = (cut / "metrics.csv").read_text().splitlines()
        assert rows == (full / "metrics.csv").read_text().splitlines()[:len(rows)]
        assert rows[-1].startswith("1,0,policy,")
        names = ["oracle_baseline", "oracle_phase_01"]
        masks = sorted(p.name for p in (cut / "masks").iterdir())
        assert masks == sorted(f"{n}.{ext}" for n in names for ext in ("csv", "pgm"))
        for name in masks:
            assert (cut / "masks" / name).read_bytes() == (full / "masks" / name).read_bytes()

    def test_failing_update_still_writes_the_growth_rows(self, tmp_path, monkeypatch):
        import roagrow.experiment as experiment

        cfg = RedesignConfig(**TINY_FORKED)
        full = tmp_path / "full"
        experiment.run_redesign(cfg, out_dir=full)

        real, calls = experiment.update_policy, []

        def fail_in_phase_2(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("phase 2 update failed")
            return real(*args)

        monkeypatch.setattr(experiment, "update_policy", fail_in_phase_2)
        cut = tmp_path / "cut"
        with pytest.raises(RuntimeError, match="phase 2 update failed"):
            experiment.run_redesign(cfg, out_dir=cut)
        _assert_no_child_left()

        # the phase-1 policy row, collected in the handler, then every growth
        # row of the phase-2 estimate
        rows = (cut / "metrics.csv").read_text().splitlines()
        assert rows == (full / "metrics.csv").read_text().splitlines()[:len(rows)]
        tail = rows[-cfg.growth_iters - 1:]
        assert tail[0].startswith("1,0,policy,")
        assert all(r.startswith("2,") and ",growth," in r for r in tail[1:])
        names = ["oracle_baseline", "oracle_phase_01"]
        masks = sorted(p.name for p in (cut / "masks").iterdir())
        assert masks == sorted(f"{n}.{ext}" for n in names for ext in ("csv", "pgm"))
        for name in masks:
            assert (cut / "masks" / name).read_bytes() == (full / "masks" / name).read_bytes()

    def test_only_the_final_oracle_splits(self, tmp_path, monkeypatch):
        import roagrow.experiment as experiment

        # (in a child, processes) per oracle call: the forked ones run beside
        # estimation and must not split, the final one has the cores to itself
        calls, in_child = [], [False]

        def in_process(fn, *args):
            in_child[0] = True
            try:
                result = fn(*args)
            finally:
                in_child[0] = False
            return lambda: result

        real = experiment.true_roa

        def spy(*args, **kwargs):
            calls.append((in_child[0], kwargs.get("processes")))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "_start_in_child", in_process)
        monkeypatch.setattr(experiment, "true_roa", spy)
        experiment.run_redesign(RedesignConfig(**TINY_FORKED), out_dir=tmp_path)
        assert calls == [(True, 1)] * TINY_FORKED["phases"] + [(False, None)]

    def test_child_error_surfaces_in_parent(self, tmp_path, monkeypatch):
        import roagrow.experiment as experiment

        def boom(*args, **kwargs):
            raise ValueError(f"boom in process {os.getpid()}")

        monkeypatch.setattr(experiment, "true_roa", boom)
        with pytest.raises(ValueError, match=r"boom in process \d+") as err:
            experiment.run_redesign(RedesignConfig(**TINY_FORKED), out_dir=tmp_path)
        assert str(os.getpid()) not in str(err.value)
        _assert_no_child_left()

    def test_exception_that_does_not_pickle_is_named(self):
        from roagrow.experiment import _start_in_child

        def raise_two_arg():
            raise TwoArgError("first", "second")

        join = _start_in_child(raise_two_arg)
        with pytest.raises(RuntimeError, match=r"does not pickle: TwoArgError\('first'\)"):
            join()
        _assert_no_child_left()

    def test_failed_fork_closes_both_pipe_ends(self, monkeypatch):
        import roagrow.oracle as oracle

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd")

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with pytest.raises(BlockingIOError, match="fork refused"):
                oracle.true_roa(lambda x: 0.5 * x, GridDomain(n_theta=4, n_omega=4),
                                k_max=5, processes=2)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_result_larger_than_a_pipe_buffer(self):
        from roagrow.experiment import _start_in_child

        blob = np.arange(1 << 17, dtype=np.int64)       # 1 MiB
        assert np.array_equal(_start_in_child(lambda: blob.copy())(), blob)
        _assert_no_child_left()

    def test_child_leaves_parent_buffers_alone(self, tmp_path):
        from roagrow.experiment import _start_in_child

        path = tmp_path / "notes.txt"
        with open(path, "w", encoding="ascii") as fh:
            fh.write("written once\n")                  # still in the buffer
            assert _start_in_child(lambda: 7)() == 7
        assert path.read_text() == "written once\n"

    def test_timings_note_child_seconds_and_wait(self, tmp_path, caplog):
        from roagrow.experiment import run_redesign

        with caplog.at_level(logging.INFO, logger="roagrow.experiment"):
            run_redesign(RedesignConfig(**dict(TINY_FORKED, phases=2)), out_dir=tmp_path)
        lines = (tmp_path / "timings.txt").read_text().splitlines()
        assert all(re.fullmatch(r"[a-z0-9_]+ \d+\.\d{3}s", ln) for ln in lines)
        assert [ln.split()[0] for ln in lines] == [
            "pretrain", "estimate_phase_01", "policy_phase_01", "oracle_baseline",
            "oracle_baseline_wait", "estimate_phase_02", "policy_phase_02",
            "oracle_phase_01", "oracle_phase_01_wait", "oracle_phase_02", "total"]
        phase_lines = [r.getMessage() for r in caplog.records
                       if r.getMessage().startswith("phase ")]
        assert [m.split(":")[0] for m in phase_lines] == ["phase 1", "phase 2"]
