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


@pytest.fixture
def bench_pairs(monkeypatch):
    """``tools/bench_pairs.py`` as a module; its ``run_one`` is never left able to start
    a benchmark."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "run_one", None)
    return module


# BENCH_32.json's counterexamples wall_s pairs, seeds 3321-3330, and its summary of them.
PARENT_WALLS = [0.410653, 0.401365, 0.407216, 0.404159, 0.411477,
                0.397995, 0.396485, 0.385275, 0.403615, 0.374332]
CHANGE_WALLS = [0.376914, 0.392032, 0.395449, 0.390655, 0.378555,
                0.374528, 0.389944, 0.396405, 0.374386, 0.360978]


def _result(wall, rss=54.0, failed=0, attempted=800):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _runs():
    runs = []
    for pair, (seed, p, c) in enumerate(zip(range(3321, 3331), PARENT_WALLS, CHANGE_WALLS), 1):
        sides = [("parent", p), ("change", c)]
        for side, wall in sides if pair % 2 else sides[::-1]:
            runs.append({"side": side, "workload": "counterexamples", "seed": seed,
                         "seconds": 20, "trace": 0, "returncode": 0,
                         "result": _result(wall, failed=int(side == "change" and seed == 3330))})
    return runs


class TestBenchPairs:
    def test_summary_reproduces_bench_32(self, bench_pairs):
        specs = bench_pairs.metric_specs()
        entry = bench_pairs.summarize(_runs(), specs)["counterexamples"]
        assert entry["seeds"] == list(range(3321, 3331))
        assert entry["failed"] == {"parent": 0, "change": 1}
        assert entry["attempted"] == {"parent": 8000, "change": 8000}
        assert set(entry["metrics"]) == {"wall_s", "peak_rss_mb"}
        wall = entry["metrics"]["wall_s"]
        assert wall["parent"] == PARENT_WALLS and wall["change"] == CHANGE_WALLS
        # BENCH_32 took its quartiles from the unrounded values: a last-digit tie here
        assert wall["parent_q1_median_q3"] == [0.396863, 0.40249, 0.406452]
        assert wall["change_q1_median_q3"] == pytest.approx([0.375124, 0.38425, 0.391687],
                                                            abs=1e-6)
        assert wall["median_change_pct"] == -4.53
        assert wall["change_better_pairs"] == "9/10"
        assert wall["median_gap_vs_parent_iqr"] == [0.01824, 0.009589]
        assert entry["metrics"]["peak_rss_mb"]["change_better_pairs"] == "0/10"

    def test_pairs_alternate_parent_first_on_odd_pairs(self, bench_pairs, tmp_path,
                                                       monkeypatch, capsys):
        calls = []

        def fake_run(checkout, workload, seed, seconds):
            calls.append((checkout.name, seed))
            return 0, _result(0.3 if checkout.name == "parent" else 0.2)

        monkeypatch.setattr(bench_pairs, "run_one", fake_run)
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                                 str(tmp_path / "change"), "--workload", "area-scan",
                                 "--seeds", "7-9", "--seconds", "1", "--out", str(out)]) == 0
        assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                         ("parent", 9), ("change", 9)]
        record = json.loads(out.read_text())
        assert [(r["side"], r["seed"]) for r in record["runs"]] == calls
        assert record["summary"]["area-scan"]["metrics"]["wall_s"]["change_better_pairs"] == "3/3"
        assert "area-scan" in capsys.readouterr().out

    def test_summarize_rebuilds_from_the_runs_alone(self, bench_pairs, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"description": "kept", "runs": _runs(),
                                    "summary": {"stale": {}}}))
        assert bench_pairs.main(["--summarize", str(path)]) == 0
        record = json.loads(path.read_text())
        assert record["description"] == "kept"
        assert record["summary"] == bench_pairs.summarize(_runs(), bench_pairs.metric_specs())

    def test_missing_arguments_are_refused(self, bench_pairs, capsys):
        with pytest.raises(SystemExit):
            bench_pairs.main(["--workload", "area-scan"])
        assert "give --summarize FILE" in capsys.readouterr().err
