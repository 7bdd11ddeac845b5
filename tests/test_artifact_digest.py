"""The run-directory digest of ``tools/artifact_digest.py``."""

import hashlib
import importlib.util
from pathlib import Path

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
