"""Flat key=value run configuration with strict validation.

The file format is one ``key = value`` pair per line; ``#`` starts a comment
and blank lines are ignored.  Every key has a default, unknown keys are
rejected, and :func:`dump_config` produces text that parses back to an equal
config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import PendulumParams
from .grid import GridDomain
from .policy import SatParams, SatPolicy

__all__ = ["RedesignConfig", "ConfigError", "parse_config", "parse_config_text",
           "dump_config", "VARIANTS"]

VARIANTS = ("thresholds", "slopes")


class ConfigError(ValueError):
    """Bad configuration; the message names the offending key (and line)."""


# the value-type fields whose config key has another name
_FIELD_KEYS = {"g": "gravity", "n_theta": "grid_cells", "n_omega": "grid_cells",
               "a": "sat_a", "b": "sat_b", "m_a": "sat_slope_a", "m_b": "sat_slope_b"}


@dataclass(frozen=True)
class RedesignConfig:
    # pendulum
    gravity: float = 0.81
    length: float = 0.5
    inertia: float = 0.25
    friction: float = 0.0
    dt: float = 0.01
    # grid
    theta_min: float = -math.pi / 2
    theta_max: float = math.pi / 2
    omega_min: float = -2 * math.pi
    omega_max: float = 2 * math.pi
    grid_cells: int = 100
    # LQR design (Q = lqr_q * I, R = [lqr_r])
    lqr_q: float = 1.0
    lqr_r: float = 1.0
    # saturation shape and training variant
    sat_a: float = 0.2
    sat_b: float = -0.2
    sat_slope_a: float = 0.0
    sat_slope_b: float = 0.0
    crop_radius: float = 0.1
    variant: str = "thresholds"
    # Lyapunov net
    pd_eps: float = 0.01
    hidden_width: int = 64
    # 'lqr' pretrains toward the LQR cost-to-go shape, 'isotropic' toward
    # coeff * (theta^2 + omega^2)
    pretrain_target: str = "lqr"
    pretrain_coeff: float = 0.1
    pretrain_lr: float = 0.001
    pretrain_steps: int = 10_000
    pretrain_batch: int = 256
    # RoA estimation
    gamma_r: float = 4.0
    beta_r: float = 0.6
    growth_iters: int = 20
    rollout_steps_r: int = 10
    lambda_roa: float = 1000.0
    lambda_monot: float = 0.01
    roa_lr: float = 0.01
    roa_sgd_steps: int = 10_000
    roa_grad_clip: float = 0.0005
    # policy update
    gamma_p: float = 4.0
    beta_p: float = 0.6
    rollout_steps_p: int = 10
    lambda_u: float = 10.0
    policy_lr: float = 0.01
    policy_sgd_steps: int = 100
    # schedule
    phases: int = 20
    batch_init: int = 10
    batch_increment: int = 10
    # oracle
    # rollout budget for the brute-force classification; the default is
    # where the fraction stops moving for the slow default dynamics
    oracle_kmax: int = 8000
    oracle_ball_radius: float = 0.1
    oracle_confirm_steps: int = 100
    safety_box_factor: float = 10.0
    # run
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config key '{f.name}' must be finite")
            # a float or bool would dump as text that does not parse as an int
            if f.type == "int" and not (type(value) is int or isinstance(value, np.integer)):
                raise ConfigError(f"config key '{f.name}' expects int, got {value!r}")
        # the value types check their fields, each message starting with one
        try:
            self.pendulum_params(), self.grid(), self.initial_policy(np.zeros(2))
        except ValueError as exc:
            field, why = str(exc).split(" ", 1)
            raise ConfigError(f"config key '{_FIELD_KEYS.get(field, field)}' {why}") from exc
        checks = [
            (self.lqr_q > 0, "lqr_q", "must be positive"),
            (self.lqr_r > 0, "lqr_r", "must be positive"),
            (self.variant in VARIANTS, "variant", f"must be one of {VARIANTS}"),
            (self.pd_eps > 0, "pd_eps", "must be positive"),
            (self.pretrain_target in ("lqr", "isotropic"), "pretrain_target",
             "must be 'lqr' or 'isotropic'"),
            (self.hidden_width >= 2, "hidden_width", "must be >= 2"),
            (self.pretrain_lr > 0, "pretrain_lr", "must be positive"),
            (self.pretrain_steps >= 0, "pretrain_steps", "must be >= 0"),
            (self.pretrain_batch >= 1, "pretrain_batch", "must be >= 1"),
            (self.gamma_r > 1, "gamma_r", "must be > 1"),
            (self.gamma_p > 1, "gamma_p", "must be > 1"),
            (0 <= self.beta_r <= 1, "beta_r", "must lie in [0, 1]"),
            (0 <= self.beta_p <= 1, "beta_p", "must lie in [0, 1]"),
            (self.growth_iters >= 1, "growth_iters", "must be >= 1"),
            (self.rollout_steps_r >= 1, "rollout_steps_r", "must be >= 1"),
            (self.rollout_steps_p >= 0, "rollout_steps_p", "must be >= 0"),
            (self.lambda_roa >= 0, "lambda_roa", "must be non-negative"),
            (self.lambda_monot >= 0, "lambda_monot", "must be non-negative"),
            (self.lambda_u >= 1, "lambda_u", "must be >= 1"),
            (self.roa_lr > 0, "roa_lr", "must be positive"),
            (self.policy_lr > 0, "policy_lr", "must be positive"),
            (self.roa_sgd_steps >= 1, "roa_sgd_steps", "must be >= 1"),
            (self.roa_grad_clip > 0, "roa_grad_clip", "must be positive"),
            (self.policy_sgd_steps >= 0, "policy_sgd_steps", "must be >= 0"),
            (self.phases >= 0, "phases", "must be >= 0"),
            (self.batch_init >= 1, "batch_init", "must be >= 1"),
            (self.batch_increment >= 0, "batch_increment", "must be >= 0"),
            (self.oracle_kmax >= 1, "oracle_kmax", "must be >= 1"),
            (self.oracle_ball_radius > 0, "oracle_ball_radius", "must be positive"),
            (self.oracle_confirm_steps >= 0, "oracle_confirm_steps", "must be >= 0"),
            (self.safety_box_factor >= 1, "safety_box_factor", "must be >= 1"),
            (self.seed >= 0, "seed", "must be >= 0"),
            # the text format strips values and cuts them at '#' and line ends
            ("#" not in self.out_dir
             and self.out_dir.splitlines() == [self.out_dir] == [self.out_dir.strip()],
             "out_dir", "must be one non-empty line without '#' or outer whitespace"),
        ]
        for ok, key, why in checks:
            if not ok:
                raise ConfigError(f"config key '{key}' {why}")

    # -- derived builders ----------------------------------------------------

    def pendulum_params(self) -> PendulumParams:
        return PendulumParams(g=self.gravity, length=self.length,
                              inertia=self.inertia, friction=self.friction,
                              dt=self.dt)

    def grid(self) -> GridDomain:
        return GridDomain(self.theta_min, self.theta_max, self.omega_min,
                          self.omega_max, self.grid_cells, self.grid_cells)

    def initial_sat_params(self) -> SatParams:
        trainable = ((True, True, False, False) if self.variant == "thresholds"
                     else (False, False, True, True))
        return SatParams(a=self.sat_a, b=self.sat_b, m_a=self.sat_slope_a,
                         m_b=self.sat_slope_b, trainable=trainable)

    def initial_policy(self, k) -> SatPolicy:
        return SatPolicy(k=np.asarray(k, dtype=float).reshape(2),
                         psi=self.initial_sat_params(),
                         crop_radius=self.crop_radius)

    def batch_size(self, phase: int) -> int:
        """Sampled-state count for 1-indexed phase ``phase``."""
        return self.batch_init + self.batch_increment * (phase - 1)

    def net_widths(self) -> tuple:
        return (2, self.hidden_width, self.hidden_width, self.hidden_width)


_FIELD_TYPES = {f.name: f.type for f in fields(RedesignConfig)}


def _parse_value(key: str, raw: str, line_no: int):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {line_no}: key '{key}' expects {kind}, got {raw!r}") from None


def parse_config_text(text: str) -> RedesignConfig:
    overrides = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in overrides:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        overrides[key] = _parse_value(key, raw, line_no)
    return RedesignConfig(**overrides)


def parse_config(path) -> RedesignConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def dump_config(cfg: RedesignConfig) -> str:
    lines = ["# roagrow run configuration"]
    for f in fields(RedesignConfig):
        value = getattr(cfg, f.name)
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
