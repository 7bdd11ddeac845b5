#!/usr/bin/env python3
"""roagrow benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload run-early --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a roagrow checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Environment, per-operation records and digests go to
``perfbench/out/<workload>-seed<n>-trace<t>.json``, spans of a traced run to
``perfbench/out/spans-<workload>-seed<n>.jsonl``.  See README.md.
"""

import os

# BLAS must be pinned before numpy is first imported: the benchmark host has
# two cores, and an unpinned OpenBLAS pool swings timings by an order of
# magnitude when another process shares them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("run-early", "run-late", "oracle-sweep")
SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import roagrow; "
              "cfg = roagrow.RedesignConfig(); grid = cfg.grid(); "
              "grid.safety_box(cfg.safety_box_factor)")

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "oracle_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "oracle_fraction": ("fraction", "higher"),
}
# Printed with the end-to-end metrics but not gated: each is 0 on some
# workload or on every seed, which a bounded metric may not be.
REPORTED = {
    "pretrain_s": "s",
    "estimate_s": "s",
    "est_fraction": "fraction",
    "unsound_fraction": "fraction",
}

LAYER_UNITS = {
    "lyapunov.build_weight.calls": "count",
    "lyapunov.build_weight_per_sgd_step": "calls/step",
    "lyapunov.value_batch.calls": "count",
    "lyapunov.value_batch.rows": "count",
    "lyapunov.value_batch.self_s": "s",
    "lyapunov.backward.calls": "count",
    "lyapunov.backward.rows": "count",
    "lyapunov.backward.self_s": "s",
    "lyapunov.sgd_step.calls": "count",
    "lyapunov.forwards_per_sgd_step": "calls/step",
    "lyapunov.value_grid.calls": "count",
    "lyapunov.value_grid.self_s": "s",
    "lyapunov.pretrain_quadratic.s": "s",
    "experiment.pretrain_net.s": "s",
    "roa_estimator.estimate_roa.s": "s",
    "roa_estimator.grid_evals_per_iter": "calls/iter",
    "roa_estimator.sgd_us_per_step": "us",
    "roa_estimator.sample_mixture.calls": "count",
    "roa_estimator.sample_mixture.s": "s",
    "roa_estimator.label_batch.calls": "count",
    "roa_estimator.label_batch.s": "s",
    "roa_estimator.line_search_level.calls": "count",
    "roa_estimator.line_search_level.s": "s",
    "roa_estimator.label_in_ratio": "ratio",
    "roa_estimator.est_fraction": "fraction",
    "roa_estimator.unsound_fraction": "fraction",
    "policy_updater.update_policy.s": "s",
    "policy_updater.signal_diagnostics.s": "s",
    "policy_updater.bptt_passes": "passes/update",
    "dynamics.closed_loop.oracle.calls": "count",
    "dynamics.closed_loop.oracle.rows": "count",
    "dynamics.closed_loop.oracle.s": "s",
    "dynamics.closed_loop.roa_estimator.calls": "count",
    "dynamics.closed_loop.roa_estimator.rows": "count",
    "dynamics.closed_loop.roa_estimator.s": "s",
    "dynamics.closed_loop.policy_updater.calls": "count",
    "dynamics.closed_loop.policy_updater.rows": "count",
    "dynamics.closed_loop.policy_updater.s": "s",
    "dynamics.rows_per_call": "rows/call",
    "oracle.true_roa.calls": "count",
    "oracle.true_roa.s": "s",
    "oracle.true_roa.self_s": "s",
    "oracle.map_calls": "count",
    "oracle.cell_steps": "count",
    "oracle.cell_steps_per_s": "1/s",
    "grid.centers.calls": "count",
    "experiment.io.s": "s",
    "experiment.artifact_bytes": "B",
    "experiment.run_redesign.self_s": "s",
    "trace_overhead_ratio": "ratio",
}

CLOSED_LOOP_OWNERS = ("oracle", "roa_estimator", "policy_updater")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, res) -> dict:
    """Per-layer metrics of one traced operation (all but the overhead ratio)."""
    est, pol, orc = ("roa_estimator.estimate_roa", "policy_updater.update_policy",
                     "oracle.true_roa")
    m = {}
    for name in ("lyapunov.value_batch", "lyapunov.backward"):
        m[f"{name}.calls"] = tr.total(name, 0)
        m[f"{name}.rows"] = tr.total(name, 1)
        m[f"{name}.self_s"] = tr.total(name, 3)
    sgd_steps = tr.total("lyapunov.sgd_step", 0)
    m["lyapunov.build_weight.calls"] = tr.total("lyapunov.build_weight", 0)
    m["lyapunov.build_weight_per_sgd_step"] = _ratio(m["lyapunov.build_weight.calls"],
                                                     sgd_steps)
    m["lyapunov.sgd_step.calls"] = sgd_steps
    loop_forwards = sum(tr.total(n, 0, direct=d)
                        for n in ("lyapunov.value_batch", "lyapunov.backward")
                        for d in ("lyapunov.pretrain_quadratic", est))
    m["lyapunov.forwards_per_sgd_step"] = _ratio(loop_forwards, sgd_steps)
    m["lyapunov.value_grid.calls"] = tr.total("lyapunov.value_grid", 0)
    m["lyapunov.value_grid.self_s"] = tr.total("lyapunov.value_grid", 3)
    m["lyapunov.pretrain_quadratic.s"] = tr.total("lyapunov.pretrain_quadratic", 2)
    m["experiment.pretrain_net.s"] = tr.total("experiment.pretrain_net", 2)

    m[f"{est}.s"] = tr.total(est, 2)
    m["roa_estimator.grid_evals_per_iter"] = _ratio(
        tr.total("lyapunov.value_grid", 0, within=est), res.detail.get("growth_rows", 0))
    children = ("roa_estimator.sample_mixture", "roa_estimator.label_batch",
                "roa_estimator.line_search_level", "lyapunov.value_grid")
    sgd_s = m[f"{est}.s"] - sum(tr.total(n, 2, direct=est) for n in children)
    m["roa_estimator.sgd_us_per_step"] = 1e6 * _ratio(
        sgd_s, tr.total("lyapunov.sgd_step", 0, within=est))
    for name in children[:3]:
        m[f"{name}.calls"] = tr.total(name, 0)
        m[f"{name}.s"] = tr.total(name, 2)
    m["roa_estimator.label_in_ratio"] = _ratio(tr.total("roa_estimator.label_batch", 4),
                                               tr.total("roa_estimator.label_batch", 1))
    m["roa_estimator.est_fraction"] = res.quality.get("est_fraction", 0.0)
    m["roa_estimator.unsound_fraction"] = res.quality.get("unsound_fraction", 0.0)

    m[f"{pol}.s"] = tr.total(pol, 2)
    m["policy_updater.signal_diagnostics.s"] = tr.total("policy_updater.signal_diagnostics", 2)
    m["policy_updater.bptt_passes"] = _ratio(tr.total("lyapunov.grad_x", 0, within=pol),
                                             tr.total(pol, 0))

    fields = (("calls", 0), ("rows", 1), ("s", 2))
    for owner in CLOSED_LOOP_OWNERS:
        for field, _ in fields:
            m[f"dynamics.closed_loop.{owner}.{field}"] = 0
    total_calls = total_rows = 0
    for (name, path), entry in tr.agg.items():
        if name != "dynamics.closed_loop":
            continue
        total_calls += entry[0]
        total_rows += entry[1]
        layers = [p.split(".", 1)[0] for p in path.split("/")]
        owner = next((l for l in reversed(layers) if l in CLOSED_LOOP_OWNERS), None)
        if owner:
            for field, i in fields:
                m[f"dynamics.closed_loop.{owner}.{field}"] += entry[i]
    m["dynamics.rows_per_call"] = _ratio(total_rows, total_calls)

    m[f"{orc}.calls"] = tr.total(orc, 0)
    m[f"{orc}.s"] = tr.total(orc, 2)
    m[f"{orc}.self_s"] = tr.total(orc, 3)
    m["oracle.map_calls"] = m["dynamics.closed_loop.oracle.calls"]
    m["oracle.cell_steps"] = m["dynamics.closed_loop.oracle.rows"]
    m["oracle.cell_steps_per_s"] = _ratio(m["oracle.cell_steps"], m[f"{orc}.s"])

    m["grid.centers.calls"] = tr.total("grid.centers", 0)
    m["experiment.io.s"] = sum(tr.total(n, 2) for n in tr.names()
                               if n.startswith("experiment.io."))
    m["experiment.artifact_bytes"] = res.detail.get("artifact_bytes", 0)
    m["experiment.run_redesign.self_s"] = tr.total("experiment.run_redesign", 3)
    return m


# -- environment -------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ,
                                                 GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        rev = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        rev = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(repeats: int) -> list:
    """Wall time of a fresh interpreter that imports roagrow and builds the
    config, grid and safety box.

    No timeout: ``wait`` with a timeout polls in steps of up to 50 ms, which
    would quantise a 0.15 s measurement.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


# -- measurement -------------------------------------------------------------


def measure(wl, seconds: float, traced: bool, scratch: Path) -> dict:
    """Run operations of ``wl`` until ``seconds`` are used up.

    Untraced runs time every operation with the stage wrappers only.  Traced
    runs alternate an untraced and a traced operation, so both see the same
    host conditions.  Every operation is checked; an exception or a digest
    that differs from the set's first one fails that operation only.
    """
    from tracer import Tracer

    cells = wl.cfg.grid().n_cells
    tracers = {False: Tracer(cells, traced=False), True: Tracer(cells, traced=True)}
    ops, reference = [], None
    t_start = time.perf_counter()
    while True:
        deep = traced and len(ops) % 2 == 1
        tr = tracers[deep]
        tr.reset(f"{wl.name}:{wl.seed}:{len(ops)}")
        op = {"traced": deep, "ok": False}
        try:
            with tr:
                res = wl.run(scratch)
            op.update(wall_s=res.wall_s, digest=res.digest, quality=res.quality,
                      detail=res.detail, ok=True,
                      oracle_s=tr.total("oracle.true_roa", 2),
                      pretrain_s=tr.total("experiment.pretrain_net", 2),
                      estimate_s=tr.total("roa_estimator.estimate_roa", 2))
            reference = reference or res.digest
            if res.digest != reference:
                op.update(ok=False, error=f"digest {res.digest} != first {reference}")
            if deep:
                op["layers"] = layer_metrics(tr, res)
        except Exception:
            op["error"] = traceback.format_exc(limit=4)
        ops.append(op)
        elapsed = time.perf_counter() - t_start
        walls = [o["wall_s"] for o in ops if "wall_s" in o]
        per_op = statistics.median(walls) if walls else elapsed / len(ops)
        both_kinds = not traced or len(ops) >= 2
        if both_kinds and elapsed + per_op > seconds:
            break
    return {"ops": ops, "spans": tracers[True].spans}


def summarize(wl, runs: dict, setup: list, traced: bool) -> dict:
    ops = runs["ops"]
    good = [o for o in ops if o["ok"]] or [o for o in ops if "wall_s" in o]
    plain = [o for o in good if not o["traced"]]

    def med(key, pool):
        vals = [o[key] for o in pool if key in o]
        return (statistics.median(vals), len(vals)) if vals else (0.0, 0)

    def med_quality(key, pool):
        vals = [o["quality"][key] for o in pool if key in o.get("quality", {})]
        return (statistics.median(vals), len(vals)) if vals else (0.0, 0)

    metrics = {}
    if traced:
        deep = [o for o in good if o["traced"]]
        names = deep[0]["layers"] if deep else {}
        for name in names:
            vals = [o["layers"][name] for o in deep]
            metrics[name] = (statistics.median(vals), len(vals))
        traced_wall, plain_wall = med("wall_s", deep)[0], med("wall_s", plain)[0]
        metrics["trace_overhead_ratio"] = (_ratio(traced_wall, plain_wall),
                                           min(len(deep), len(plain)))
        units = LAYER_UNITS
    else:
        metrics["setup_s"] = (statistics.median(setup), len(setup))
        metrics["wall_s"] = med("wall_s", plain)
        metrics["oracle_s"] = med("oracle_s", plain)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0, 1)
        metrics["oracle_fraction"] = med_quality("oracle_fraction", plain)
        units = {k: u for k, (u, _) in END_TO_END.items()}
        extra = {"pretrain_s": med("pretrain_s", plain),
                 "estimate_s": med("estimate_s", plain),
                 "est_fraction": med_quality("est_fraction", plain),
                 "unsound_fraction": med_quality("unsound_fraction", plain)}
    failed = sum(1 for o in ops if not o["ok"])
    summary = {
        "workload": wl.name, "seed": wl.seed, "trace": int(traced),
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "attempted": len(ops), "failed": failed,
        "digests": sorted({o["digest"] for o in ops if "digest" in o}),
        "ops": ops,
    }
    if not traced:
        summary["reported"] = {k: {"value": v, "unit": REPORTED[k], "samples": n}
                               for k, (v, n) in extra.items()}
    return summary


def print_summary(s: dict, env: dict):
    print(f"== {s['workload']}  seed={s['seed']}  trace={s['trace']}  "
          f"operations={s['attempted']}")
    print("env " + json.dumps(env, sort_keys=True))
    rows = list(s["metrics"].items())
    if s["workload"] != "oracle-sweep":
        rows += [(f"{k} (not gated)", v) for k, v in s.get("reported", {}).items()]
    for name, m in rows:
        better = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:12s} "
              f"n={m['samples']:<3d} {better + ' is better' if better else ''}")
    print(f"  {'fail_ratio':44s} {s['failed']:>9d}/{s['attempted']:<6d} "
          f"{'failed/attempted':12s} lower is better")
    for op in s["ops"]:
        if "error" in op:
            print("  failed operation: " + op["error"].strip().replace("\n", "\n    "))
    label = "mask set sha256" if s["workload"] == "oracle-sweep" else "metrics.csv sha256"
    print(f"  {label}: {', '.join(s['digests']) or 'none'}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    wl = workloads.build(name, seed)
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    setup = [] if traced else measure_setup(SETUP_REPEATS)
    workloads.tiny(wl).run(OUT)          # warm-up: imports and first calls
    runs = measure(wl, seconds, traced, OUT)
    summary = summarize(wl, runs, setup, traced)
    summary["env"] = env
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1, default=str))
    if traced:
        with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for sid, sname, start, end, parent, run_id in runs["spans"]:
                fh.write(json.dumps({"id": sid, "name": sname, "start": start,
                                     "end": end, "parent": parent, "run": run_id}) + "\n")
    print_summary(summary, env)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "roagrow" / "__init__.py").is_file():
        print(f"perfbench: no roagrow package under {SRC}; run from a roagrow "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                 for n in names]
    prefix = len(names) > 1
    result = {
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for s in summaries for k, m in s["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
