#!/usr/bin/env python3
"""Alternate benchmark runs of two checkouts and summarize them pair by pair.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seeds A-B --seconds S --out FILE
    python3 tools/bench_pairs.py --summarize FILE

Pair k runs ``perfbench/run.py --workload W --seed A+k-1 --seconds S --trace 0``
once in each checkout, one run at a time, the parent first when k is odd and
the change first when k is even.  Each run's exit code and result object (the
last stdout line) go to the ``runs`` of FILE, after any runs already there, and
the ``summary`` is rebuilt from all of them.  ``--summarize`` runs nothing: it
rebuilds the ``summary`` of FILE from its ``runs`` alone.

Per workload the summary gives the seeds, the failed and attempted jobs of
each side, and per end-to-end metric of ``BENCHMARK.json``: both sides' values
in seed order, their quartiles (linear interpolation), the median change in
percent, the pairs in which the change was better, and the median gap in the
better direction against the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def metric_specs() -> list[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``: name, unit, better."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` as the seeds A to B inclusive, or ``"A"`` alone."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair`` (from 1) in running order: the parent first when odd."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    """One ``perfbench/run.py`` run in ``checkout``: its exit code and result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def quartiles(values: list[float]) -> list[float]:
    """q1, median, q3 with linear interpolation (numpy's default)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """The summary of ``runs``, per workload, from the runs alone."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {side: {r["seed"]: r for r in mine if r["side"] == side} for side in SIDES}
        seeds = sorted(by_seed["parent"].keys() & by_seed["change"].keys())
        results = {side: [by_seed[side][s]["result"] or {} for s in seeds] for side in SIDES}
        entry = {
            "seeds": seeds,
            "failed": {side: sum(r.get("failed", 0) for r in results[side]) for side in SIDES},
            "attempted": {side: sum(r.get("attempted", 0) for r in results[side])
                          for side in SIDES},
            "runs_without_result": {side: sum(not r for r in results[side]) for side in SIDES},
            "metrics": {},
        }
        for spec in specs:
            name, lower = spec["name"], spec["better"] == "lower"
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(results["parent"], results["change"])
                     if name in p.get("metrics", {}) and name in c.get("metrics", {})]
            if not pairs:
                continue
            parent, change = (list(side) for side in zip(*pairs))
            pq, cq = quartiles(parent), quartiles(change)
            gap = pq[1] - cq[1] if lower else cq[1] - pq[1]
            better = sum((c < p) if lower else (c > p) for p, c in pairs)
            entry["metrics"][name] = {
                "parent": [round(v, 6) for v in parent],
                "change": [round(v, 6) for v in change],
                "parent_q1_median_q3": [round(v, 6) for v in pq],
                "change_q1_median_q3": [round(v, 6) for v in cq],
                "median_change_pct": round(100.0 * (cq[1] - pq[1]) / pq[1], 2) if pq[1] else None,
                "change_better_pairs": f"{better}/{len(pairs)}",
                "median_gap_vs_parent_iqr": [round(gap, 6), round(pq[2] - pq[0], 6)],
            }
        summary[workload] = entry
    return summary


def report(summary: dict) -> str:
    """One line per workload and metric: medians, change, better pairs, gap against IQR."""
    lines = []
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            gap, iqr = m["median_gap_vs_parent_iqr"]
            lines.append(f"{workload:16s} {name:12s} {m['parent_q1_median_q3'][1]:>10.6g} -> "
                         f"{m['change_q1_median_q3'][1]:<10.6g} {m['median_change_pct']:>+7}% "
                         f"better {m['change_better_pairs']:>5s}  gap {gap:.4g} vs IQR {iqr:.4g}")
    return "\n".join(lines)


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summarize", type=Path, metavar="FILE",
                        help="rebuild FILE's summary from its runs; run nothing")
    parser.add_argument("--parent", type=Path, metavar="DIR")
    parser.add_argument("--change", type=Path, metavar="DIR")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds, metavar="A-B")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    needed = ("parent", "change", "workload", "seeds", "seconds", "out")
    if args.summarize is None and any(getattr(args, k) is None for k in needed):
        parser.error("give --summarize FILE, or all of " + ", ".join(f"--{k}" for k in needed))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    path = args.summarize or args.out
    record = json.loads(path.read_text()) if path.exists() else {}
    runs = record.setdefault("runs", [])
    if args.summarize is None:
        record["command"] = ("python3 perfbench/run.py --workload W --seed N "
                             f"--seconds {args.seconds:g} --trace 0")
        record["machine"] = machine()
        for pair, seed in enumerate(args.seeds, start=1):
            for side in order(pair):
                checkout = args.parent if side == "parent" else args.change
                rc, result = run_one(checkout, args.workload, seed, args.seconds)
                runs.append({"side": side, "workload": args.workload, "seed": seed,
                             "seconds": args.seconds, "trace": 0, "returncode": rc,
                             "result": result})
                print(f"pair {pair} seed {seed} {side}: exit {rc}", file=sys.stderr, flush=True)
                path.write_text(json.dumps(record, indent=1) + "\n")  # a cut run keeps its runs
    record["summary"] = summarize(runs, metric_specs())
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(report(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
