"""Self-tests of the benchmark on tiny configurations (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest

import run
import workloads
from roagrow import experiment

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return workloads.tiny(workloads.build(name, seed=3))


@pytest.fixture(scope="module", params=run.WORKLOADS)
def measured(request, tmp_path_factory):
    """One untraced and one traced operation of a tiny workload."""
    wl = tiny(request.param)
    runs = run.measure(wl, 0.0, True, tmp_path_factory.mktemp("ops"))
    return wl, runs


def test_spec_names_and_units_match_the_code():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers == run.LAYER_UNITS
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    for name in list(e2e) + list(layers) + list(run.WORKLOADS):
        assert NAME.match(name) and len(name) <= 64, name


def test_every_named_metric_is_emitted(measured):
    wl, runs = measured
    plain = dict(runs, ops=[o for o in runs["ops"] if not o["traced"]])
    e2e = run.summarize(wl, plain, run.measure_setup(1), traced=False)
    assert set(e2e["metrics"]) == set(run.END_TO_END)
    layers = run.summarize(wl, runs, [], traced=True)
    assert set(layers["metrics"]) == set(run.LAYER_UNITS)
    for summary in (e2e, layers):
        assert summary["failed"] == 0, summary["ops"]
        for m in summary["metrics"].values():
            assert isinstance(m["value"], (int, float)) and m["samples"] >= 1
    assert e2e["metrics"]["wall_s"]["value"] > 0
    assert e2e["metrics"]["oracle_s"]["value"] > 0


def test_traced_and_untraced_digests_agree(measured):
    _, runs = measured
    untraced, traced = runs["ops"][:2]
    assert not untraced["traced"] and traced["traced"]
    assert untraced["ok"] and traced["ok"], runs["ops"]
    assert untraced["digest"] == traced["digest"]


def test_spans_nest_and_share_run_ids(measured):
    _, runs = measured
    spans = {s[0]: s for s in runs["spans"]}
    assert spans
    for sid, _, start, end, parent, run_id in spans.values():
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[2] <= start and end <= p[3] and p[5] == run_id


def test_self_times_add_up_to_the_operation(tmp_path):
    from tracer import Tracer

    cfg = tiny("run-early").cfg
    tr = Tracer(cfg.grid().n_cells, traced=True)
    with tr:
        experiment.run_redesign(cfg, tmp_path)
    root = tr.total("experiment.run_redesign", 2)
    self_sum = sum(entry[3] for entry in tr.agg.values())
    assert root > 0 and self_sum == pytest.approx(root, rel=1e-9)


@pytest.mark.parametrize("corrupt", ["drop_row", "nan", "garbage", "header"])
def test_checks_catch_a_corrupted_metrics_csv(tmp_path, corrupt):
    cfg = tiny("run-early").cfg
    experiment.run_redesign(cfg, tmp_path)
    workloads.check_run_dir(cfg, tmp_path)
    path = tmp_path / "metrics.csv"
    lines = path.read_text().splitlines()
    if corrupt == "drop_row":
        lines.pop()
    elif corrupt == "nan":
        lines[-1] = lines[-1].replace(lines[-1].split(",")[3], "nan", 1)
    elif corrupt == "garbage":
        lines[-1] = "x" + lines[-1]
    else:
        lines[0] = "# something else"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_run_dir(cfg, tmp_path)


def test_checks_catch_a_truncated_checkpoint(tmp_path):
    cfg = tiny("run-early").cfg
    experiment.run_redesign(cfg, tmp_path)
    ckpt = tmp_path / "checkpoints" / "net_phase_01.ckpt"
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(workloads.CheckFailed):
        workloads.check_run_dir(cfg, tmp_path)


def test_sweep_shapes_are_seeded_and_in_range():
    assert workloads.sweep_shapes(5) == workloads.sweep_shapes(5)
    assert workloads.sweep_shapes(5) != workloads.sweep_shapes(6)
    for seed in range(20):
        shapes = workloads.sweep_shapes(seed)
        assert shapes[0] == workloads.INITIAL_SHAPE
        for a, b, m_a, m_b in shapes:
            assert 0.2 <= a <= 2.2 and -2.2 <= b <= -0.2
            assert 0.0 <= m_a <= 0.5 and 0.0 <= m_b <= 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "run-early", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
