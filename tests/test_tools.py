"""The byte audit's record diff, on two small synthetic records; no job is run."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def byte_audit(monkeypatch):
    """``tools/byte_audit.py`` as a module; the thread variables and ``sys.path``
    entries its import sets are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("byte_audit", ROOT / "tools" / "byte_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORD = {
    "chen-check/b1": [0, ["chen.json", "a1"], ["manifest.json", "m1"]],
    "condition21/b1": [0, ["condition21.json", "c1"], ["manifest.json", "m2"]],
    "explosion/x": [2],
    "solve/s": [0, ["manifest.json", "m3"], ["trajectory.csv", "t1"]],
}


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


class TestByteAuditDiff:
    def test_identical_records(self, byte_audit, tmp_path, capsys):
        a, b = _write(tmp_path, "a.json", RECORD), _write(tmp_path, "b.json", RECORD)
        assert byte_audit.main(["--diff", a, b]) == 0
        assert capsys.readouterr().out == "identical\n"

    def test_lists_each_job_that_differs(self, byte_audit, tmp_path, capsys):
        changed = json.loads(json.dumps(RECORD))
        changed["chen-check/b1"][1][1] = "a2"  # one sha256
        changed["condition21/b1"] = [3]  # exit code, and both files gone
        changed["solve/s"].append(["extra.txt", "e1"])  # a file only in B
        del changed["explosion/x"]
        changed["curve/c"] = [0]
        a, b = _write(tmp_path, "a.json", RECORD), _write(tmp_path, "b.json", changed)
        assert byte_audit.main(["--diff", a, b]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "chen-check/b1: chen.json",
            "condition21/b1: exit 0 -> 3, condition21.json, manifest.json",
            f"curve/c: only in {b}",
            f"explosion/x: only in {a}",
            "solve/s: extra.txt",
        ]

    def test_wrong_arguments_print_the_usage(self, byte_audit, capsys):
        assert byte_audit.main(["--diff", "only-one.json"]) == 2
        assert "byte_audit.py --diff A.json B.json" in capsys.readouterr().err
