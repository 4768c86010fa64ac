"""tools/identity.py, the byte-identity check of the command line between two source trees."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_one_tree_against_itself_shows_no_difference(tmp_path):
    # every case the small config drives, run twice from the working tree;
    # a run that exits with another code than its case's would show up
    small = [case for case in identity.CASES if case.small]
    assert {case.exit_code for case in small} == {0, 2, 3, 4}
    assert identity.run_cases(ROOT, ROOT, small, tmp_path, pinned=False) == []
    assert (tmp_path / "inputs" / "small" / "dataset.jsonl").stat().st_size > 0


def test_comparer_sees_one_byte_and_not_the_timestamp(tmp_path):
    for name, timestamp, diagnoses in (("a", "2026-01-01T00:00:00+00:00", b'{"qhat": 0.5}\n'),
                                       ("b", "2026-01-02T09:30:00+00:00", b'{"qhat": 0.6}\n')):
        run = tmp_path / name
        (run / "diagnose").mkdir(parents=True)
        (run / "report.json").write_text(json.dumps({"metrics": {"fpr": 0.0}, "timestamp": timestamp}, indent=2))
        (run / "diagnose" / "diagnoses.jsonl").write_bytes(diagnoses)
        (run / "model.json").write_text("{}")
    assert identity.compare_dirs(tmp_path / "a", tmp_path / "b") == ["diagnose/diagnoses.jsonl differs"]
    (tmp_path / "b" / "model.json").unlink()
    assert identity.compare_dirs(tmp_path / "a", tmp_path / "b") == [
        "model.json only in the first", "diagnose/diagnoses.jsonl differs"]


def test_pinned_run_gives_the_unpinned_outcome(tmp_path):
    (tmp_path / "bad.json").write_text('{"train": {"epochs": 30,}}')
    argv = ["pipeline", "--config", "bad.json", "--out", "run"]
    unpinned = identity.cli(ROOT, argv, tmp_path)
    assert unpinned[0] == 2 and unpinned[2]
    assert identity.cli(ROOT, argv, tmp_path, pinned=True) == unpinned


def test_hung_command_is_reported_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(identity, "TIMEOUT_S", 0.001)
    assert identity.cli(ROOT, ["pipeline", "--out", "run"], tmp_path) == (None, b"", b"stopped after 0.001 s")
    assert not (tmp_path / "run").exists()
