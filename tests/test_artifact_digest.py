"""The run-directory digest of ``tools/artifact_digest.py``."""

import hashlib
import importlib.util
from pathlib import Path

import roagrow.dynamics as dynamics
from roagrow.config import RedesignConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"
_spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_lines_sorted_and_timings_left_out(tmp_path):
    files = {"metrics.csv": b"m", "masks/oracle_baseline.pgm": b"o",
             "config_used.cfg": b"c", "checkpoints/net_phase_00.ckpt": b"n",
             "timings.txt": b"t"}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    lines = artifact_digest.digest_lines(tmp_path)
    assert lines == [f"checkpoints/net_phase_00.ckpt {sha(b'n')}",
                     f"config_used.cfg {sha(b'c')}",
                     f"masks/oracle_baseline.pgm {sha(b'o')}",
                     f"metrics.csv {sha(b'm')}"]
    combined = artifact_digest.combined_digest(lines)
    assert combined == sha("\n".join(lines).encode())

    (tmp_path / "timings.txt").write_bytes(b"pretrain 1.234s\n")
    assert artifact_digest.digest_lines(tmp_path) == lines
    (tmp_path / "metrics.csv").write_bytes(b"m2")
    assert artifact_digest.combined_digest(artifact_digest.digest_lines(tmp_path)) != combined


def test_one_block_per_named_run(monkeypatch, capsys):
    runs = []

    def fake_run(cfg, out_dir):
        runs.append(cfg.variant)
        (Path(out_dir) / "metrics.csv").write_bytes(b"m")
        (Path(out_dir) / "timings.txt").write_bytes(b"t")

    monkeypatch.setattr(artifact_digest, "run_redesign", fake_run)
    assert artifact_digest.main(["run-early", "run-early-slopes"]) == 0
    out = capsys.readouterr().out.splitlines()
    line = f"metrics.csv {sha(b'm')}"
    combined = f"combined {sha(line.encode())}"
    assert out == ["# run-early", line, combined,
                   "# run-early-slopes", line, combined]
    assert runs == ["thresholds", "slopes"]

    assert artifact_digest.main([]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln for ln in out if ln.startswith("# ")] == [
        f"# {run}" for run in artifact_digest.RUNS]


def test_tail_blocks_keep_every_artifact_byte(tmp_path, monkeypatch):
    # the oracle's 200-row parts and the labels run in blocks of steps by
    # default; TAIL_ROWS at 0 runs every step on its own
    cfg = RedesignConfig(grid_cells=20, pretrain_steps=50, pretrain_batch=32,
                         roa_sgd_steps=20, growth_iters=2, policy_sgd_steps=3,
                         oracle_kmax=1000, phases=1, seed=1)
    assert cfg.grid().n_cells / 2 <= dynamics.TAIL_ROWS
    artifact_digest.run_redesign(cfg, tmp_path / "blocks")
    monkeypatch.setattr(dynamics, "TAIL_ROWS", 0)
    artifact_digest.run_redesign(cfg, tmp_path / "per_step")
    lines = artifact_digest.digest_lines(tmp_path / "blocks")
    assert any(line.startswith("masks/") for line in lines)
    assert lines == artifact_digest.digest_lines(tmp_path / "per_step")
