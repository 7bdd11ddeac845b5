#!/usr/bin/env python3
"""Byte-identity digest of a run's artifacts.

    python3 tools/artifact_digest.py [run ...] [--seed 1]

Runs ``run_redesign`` for each named run, ``run-early``, ``run-late`` or
``run-early-slopes`` (``run-early`` with ``variant = slopes``), all three
when none is named, into a temporary directory, with the configs of
``perfbench/workloads.py`` and BLAS pinned to one thread.  Prints one block
per run: a ``# <run>`` line, ``relpath sha256`` for every artifact but
``timings.txt``, sorted, then ``combined <sha256>``: the sha256 of those
lines joined by newlines.  Two checkouts that print the same combined digest
for a run wrote the same bytes.
"""

import os

# one BLAS thread, as in the test suite and the benchmark, set before numpy
# loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from roagrow.experiment import run_redesign  # noqa: E402

RUNS = ("run-early", "run-late", "run-early-slopes")


def run_config(name: str, seed: int):
    if name == "run-early-slopes":
        return replace(workloads.build("run-early", seed).cfg, variant="slopes")
    return workloads.build(name, seed).cfg


def digest_lines(run_dir) -> list:
    """Sorted ``relpath sha256`` lines of every file under ``run_dir`` except
    ``timings.txt``."""
    run_dir = Path(run_dir)
    lines = []
    for path in run_dir.rglob("*"):
        rel = path.relative_to(run_dir).as_posix()
        if path.is_file() and rel != "timings.txt":
            lines.append(f"{rel} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return sorted(lines)


def combined_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="*", metavar="run",
                    help=f"one of {', '.join(RUNS)}; all three by default")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    unknown = [run for run in args.runs if run not in RUNS]
    if unknown:
        ap.error(f"unknown run {unknown[0]!r}; choose from {', '.join(RUNS)}")
    for run in args.runs or RUNS:
        with tempfile.TemporaryDirectory(prefix="roagrow-digest-") as tmp:
            run_redesign(run_config(run, args.seed), tmp)
            lines = digest_lines(tmp)
        print(f"# {run}")
        print("\n".join(lines))
        print(f"combined {combined_digest(lines)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
