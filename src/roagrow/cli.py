"""Command-line front end.

Subcommands:
    pretrain   initialize and pretrain the Lyapunov net, save a checkpoint
    run        execute the full redesign loop
    oracle     print the brute-force RoA fraction of the configured policy
    report     regenerate the figure tables from an existing metrics CSV

Exit status: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RedesignConfig, VARIANTS, dump_config, parse_config
from .dynamics import closed_loop
from .experiment import (_design_lqr, emit_heatmap, pretrain_net, read_metrics,
                         run_redesign, write_report)
from .lyapunov import save_net
from .oracle import true_roa

log = logging.getLogger("roagrow")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roagrow",
        description="Iteratively enlarge an inverted pendulum's region of "
                    "attraction by alternating neural Lyapunov estimation "
                    "with saturated-LQR policy updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="key=value config file")
        p.add_argument("--seed", type=int, metavar="N", help="override the RNG seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")

    p_run = sub.add_parser("run", help="run the full redesign loop")
    common(p_run)
    p_run.add_argument("--variant", choices=VARIANTS,
                       help="which saturation parameters train")
    p_run.add_argument("--no-monot", action="store_true",
                       help="drop the monotonicity term (sets lambda_monot = 0)")
    p_run.add_argument("--phases", type=int, metavar="N",
                       help="override the number of policy phases")

    p_pre = sub.add_parser("pretrain", help="pretrain the Lyapunov net only")
    common(p_pre)

    # the oracle draws no random numbers and writes no file: no --seed, --out
    p_oracle = sub.add_parser("oracle", help="brute-force RoA of the initial policy")
    p_oracle.add_argument("--config", metavar="PATH", help="key=value config file")

    p_rep = sub.add_parser("report", help="re-derive figure tables from metrics.csv")
    p_rep.add_argument("--out", metavar="DIR", required=True,
                       help="run directory holding metrics.csv")
    return parser


def _load_config(args) -> RedesignConfig:
    cfg = parse_config(args.config) if args.config else RedesignConfig()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    if getattr(args, "variant", None) is not None:
        updates["variant"] = args.variant
    if getattr(args, "phases", None) is not None:
        updates["phases"] = args.phases
    if getattr(args, "no_monot", False):
        updates["lambda_monot"] = 0.0
    return replace(cfg, **updates) if updates else cfg


def _cmd_run(cfg: RedesignConfig) -> int:
    out = run_redesign(cfg)
    # the init row comes first; the last row that is not a growth row holds
    # the final policy's fraction
    rows = [r for r in read_metrics(out / "metrics.csv") if r["kind"] != "growth"]
    print(f"final oracle RoA fraction: {rows[-1]['oracle_fraction']:.4f} "
          f"(initial {rows[0]['oracle_fraction']:.4f})")
    print(f"artifacts in {out}")
    return 0


def _cmd_pretrain(cfg: RedesignConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid()
    net, stats, _ = pretrain_net(cfg, rng)
    save_net(net, out / "net_pretrained.ckpt")
    emit_heatmap(net.value(grid.centers()), out / "pretrain_v.pgm",
                 grid.n_theta, grid.n_omega)
    (out / "config_used.cfg").write_text(dump_config(cfg), encoding="utf-8")
    print(f"pretraining MSE: {stats['initial_mse']:.6g} -> {stats['final_mse']:.6g}")
    print(f"checkpoint: {out / 'net_pretrained.ckpt'}")
    return 0


def _cmd_oracle(cfg: RedesignConfig) -> int:
    params = cfg.pendulum_params()
    grid = cfg.grid()
    k_gain, _ = _design_lqr(cfg)
    policy = cfg.initial_policy(k_gain)
    mask = true_roa(closed_loop(policy, params), grid, cfg.oracle_kmax,
                    cfg.oracle_ball_radius, cfg.oracle_confirm_steps,
                    grid.safety_box(cfg.safety_box_factor))
    print(f"true RoA fraction: {mask.fraction:.4f}")
    return 0


def _cmd_report(args) -> int:
    write_report(args.out)
    print(f"report tables written to {args.out}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "report":
            return _cmd_report(args)
        cfg = _load_config(args)
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "pretrain":
            return _cmd_pretrain(cfg)
        if args.command == "oracle":
            return _cmd_oracle(cfg)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, OSError, RuntimeError, ValueError, FloatingPointError) as exc:
        log.error("%s", exc)
        return 1
    return 2


def entry():
    sys.exit(main())
