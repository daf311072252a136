#!/usr/bin/env python3
"""Record the golden key scalars of every job any workload seed can draw.

Usage, from the repository root::

    python3 perfbench/record_goldens.py [--out perfbench/goldens.json]

Runs each job once through ``roughstep.cli.main`` and stores the scalars that
``checks.key_scalars`` reads.  Re-record only when a change is meant to alter
those numbers, and say so where the change is described.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import jobs as joblib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record(key: str, subcommand: str, config: dict) -> tuple[str, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from roughstep.cli import main as cli_main

    work = ROOT / ".perfbench_out" / f"goldens-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(config))
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    try:
        rc = cli_main([subcommand, "--config", str(cfg), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{key}: exit code {rc}")
        errors = checks.manifest_errors(out)
        if errors:
            raise RuntimeError(f"{key}: {errors}")
        return key, checks.key_scalars(subcommand, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "goldens.json")
    args = parser.parse_args(argv)
    todo = joblib.all_golden_jobs()
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(), mp_context=ctx) as pool:
        futures = [pool.submit(record, j.key, j.subcommand, j.config) for j in todo]
        goldens = dict(f.result() for f in futures)
    args.out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} jobs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
