#!/usr/bin/env python3
"""The benchmark's own checks.  Run from the repository root::

    python3 perfbench/selfcheck.py

1. The same workload seed gives the same job list; two different seeds give
   different job lists with the same job shapes.
2. ``run.py`` reports exactly the metric names ``BENCHMARK.json`` declares.
3. A corrupted golden makes ``failed`` > 0 and ``run.py`` exit nonzero.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, ``run.py`` exits nonzero without printing a result.

Takes about a minute; prints one line per check and exits nonzero if
any failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jobs as joblib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selfcheck"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_seeds() -> str:
    for workload in joblib.WORKLOADS:
        a, b = joblib.job_list(workload, 1), joblib.job_list(workload, 2)
        assert a == joblib.job_list(workload, 1), f"{workload}: seed 1 is not reproducible"
        assert [j.config for j in a] != [j.config for j in b], f"{workload}: seeds 1, 2 agree"
        assert [joblib.shape(j) for j in a] == [joblib.shape(j) for j in b], (
            f"{workload}: seeds 1 and 2 give different job shapes")
    return "seeds 1 and 2 give different job lists of the same shapes"


def check_metric_names() -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "area-scan", "--seed", "3", "--trace", str(trace))
        assert proc.returncode == 0, f"--trace {trace} exited {proc.returncode}: {proc.stdout}"
        result = json.loads(proc.stdout.splitlines()[-1])
        got = set(result["metrics"])
        want = {m["name"] for m in spec[group]}
        assert got == want, f"--trace {trace} metrics {got} != BENCHMARK.json {want}"
    return "metric names match BENCHMARK.json"


def check_corrupted_golden() -> str:
    goldens = json.loads((HERE / "goldens.json").read_text())
    job = joblib.job_list("area-scan", 3)[0]
    goldens[job.key]["ito.value"] *= 1.0 + 1e-9
    SCRATCH.mkdir(parents=True, exist_ok=True)
    corrupt = SCRATCH / "goldens-corrupt.json"
    corrupt.write_text(json.dumps(goldens))
    proc = _run(ROOT, "--workload", "area-scan", "--seed", "3", "--trace", "0",
                "--goldens", str(corrupt))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode != 0, "a corrupted golden still exited 0"
    assert result["failed"] > 0 and not result["correct"], f"no failure reported: {result}"
    return (f"corrupted golden: exit {proc.returncode}, "
            f"fail_ratio {result['failed']}/{result['attempted']}")


def check_bare_directory() -> str:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "area-scan", "--seed", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0, "the bare directory exited 0"
    assert not proc.stdout.strip(), f"the bare directory printed {proc.stdout!r}"
    return f"bare directory: exit {proc.returncode}, nothing on stdout"


def main() -> int:
    failures = 0
    for check in (check_seeds, check_metric_names, check_corrupted_golden,
                  check_bare_directory):
        try:
            print(f"ok   {check.__name__}: {check()}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
