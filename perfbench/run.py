#!/usr/bin/env python3
"""roughstep benchmark: fixed CLI job mixes, timed end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload brownian-solve --seed 1 --seconds 20 --trace 0

One process per run, one client in a closed loop: the next job starts when
the previous one returned.  Set-up imports ``roughstep`` from ``src/``,
writes the job configs and runs one untimed warm-up job per job shape.
Then whole passes over the job list run until ``--seconds`` have elapsed
(at least one pass), and every job's outputs are checked.  Garbage is
collected, untimed, before each job.  A job that no earlier run of its
config was compared with (one pass, not a warm-up) is run once more after
the timed passes, untimed, so that every job gets the byte-identical rerun
check.  End-to-end times are paced: rescaled to a fixed host speed by a
probe timed alongside the jobs (see ``pace.py``).  The raw seconds are
printed on the ``# info`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass, whatever ``--seconds`` says, and reports the
per-layer metrics; its spans go to ``.perfbench_out/trace-<workload>-seed<seed>.json``, outside
every CLI ``--out`` directory.  The last stdout line is the result object;
the exit code is nonzero when any job failed its checks.  Metric units
are read from ``BENCHMARK.json``.
"""

import os

# Pin BLAS threading before numpy is imported; OpenBLAS otherwise starts
# one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import jobs as joblib  # noqa: E402
from pace import Pace  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SUBCOMMANDS = ("solve", "convergence", "condition21", "chen-check",
               "nonuniqueness", "explosion", "curve")


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload_seed": seed,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten jobs beyond it.

    Nearest rank on the sorted latencies of one pass, so the value is a
    measured job and the percentile depends only on the job list, not on
    how many passes fit in the run.  Below 20 jobs that percentile would sit
    under the median; the slowest job (percentile 100) is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Run:
    """One workload run: its job list, work directory and check results."""

    def __init__(self, workload: str, seed: int, goldens: dict):
        self.workload = workload
        self.seed = seed
        self.goldens = goldens
        self.work = OUT / f"run-{workload}-seed{seed}-pid{os.getpid()}"
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.compared: set[int] = set()  # jobs checked against an earlier run

    def setup(self) -> tuple[float, float]:
        """Import, write the configs and warm up; returns (start, end)."""
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        from roughstep.cli import main as cli_main

        self.cli_main = cli_main
        self.jobs = joblib.job_list(self.workload, self.seed)
        self.configs = []
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir(parents=True)
        for i, job in enumerate(self.jobs):
            path = cfg_dir / f"{i:03d}.json"
            path.write_text(json.dumps(job.config, indent=1, sort_keys=True))
            self.configs.append(path)
        self.warm_index = [self.jobs.index(job) for job in joblib.warmup_jobs(self.jobs)]
        warm_dir = self.work / "warmup"
        rcs = {i: self._call(i, warm_dir / f"{i:03d}") for i in self.warm_index}
        end = time.perf_counter()
        for i, rc in rcs.items():
            self._check(i, rc, warm_dir / f"{i:03d}", None, "warm-up")
        return start, end

    def _call(self, i: int, out: Path):
        job = self.jobs[i]
        try:
            return self.cli_main([job.subcommand, "--config", str(self.configs[i]),
                                  "--out", str(out)])
        except Exception as exc:  # a traceback is a failed job, not a crash
            return f"raised {exc!r}"

    def _check(self, i: int, rc, out: Path, reference: Path | None, label: str) -> None:
        job = self.jobs[i]
        if reference is not None and not reference.is_dir():
            errors = ["the earlier run of this config left no output"]
        else:
            errors = checks.check_job(job.subcommand, rc, out,
                                      self.goldens.get(job.key), reference)
        self.attempted += 1
        if reference is not None:
            self.compared.add(i)
        if errors:
            self.failed += 1
            self.errors += [f"{label} {job.key}: {e}" for e in errors]

    def run_pass(self, number: int, tracer: Tracer | None = None):
        """Time one pass, then check it; returns each job's (start, end)."""
        pass_dir = self.work / f"pass{number}"
        intervals, rcs = [], []
        for i in range(len(self.jobs)):
            out = pass_dir / f"{i:03d}"
            gc.collect()  # each job starts without its predecessor's garbage
            t0 = time.perf_counter()
            if tracer is None:
                rcs.append(self._call(i, out))
            else:
                tracer.job = i
                span = tracer.open("cli.main", "cli")
                rcs.append(self._call(i, out))
                tracer.close(span, failed=rcs[-1] != 0)
            intervals.append((t0, time.perf_counter()))
        for i, rc in enumerate(rcs):
            if number == 1:
                ref = self.work / "warmup" / f"{i:03d}" if i in self.warm_index else None
            else:
                ref = self.work / "pass1" / f"{i:03d}"
            self._check(i, rc, pass_dir / f"{i:03d}", ref, f"pass {number}")
        return intervals

    def rerun_unchecked(self) -> None:
        """Run each job that was not yet compared with an earlier run of its
        config once more, untimed, and check it against the first pass."""
        for i in range(len(self.jobs)):
            if i not in self.compared:
                out = self.work / "rerun" / f"{i:03d}"
                self._check(i, self._call(i, out), out,
                            self.work / "pass1" / f"{i:03d}", "rerun")


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    pace = Pace()
    pace.start()
    try:
        setup = run.setup()
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run.run_pass(len(passes) + 1))
            if len(passes) > 1:
                shutil.rmtree(run.work / f"pass{len(passes)}", ignore_errors=True)
    finally:
        pace.stop()
    paced = [[pace.paced(t0, t1) for t0, t1 in jobs] for jobs in passes]
    walls = [sum(lat) for lat in paced]
    tails = [tail(lat) for lat in paced]
    metrics = {
        "setup_s": pace.paced(*setup),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(x for lat in paced for x in lat),
        "job_tail_s": statistics.median(value for value, _ in tails),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    run.rerun_unchecked()
    info = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_setup_s": setup[1] - setup[0],
        "raw_pass_walls_s": [sum(t1 - t0 for t0, t1 in jobs) for jobs in passes],
        "probes": len(pace.durations),
        "probe_mean_s": pace.mean_probe_s(),
        "jobs_per_pass": len(run.jobs),
        "latency_samples": sum(map(len, paced)),
        "tail_percentile": tails[0][1],
        "fail_ratio": run.failed / run.attempted,
    }
    return metrics, info


def per_layer(run: Run) -> tuple[dict, dict, Tracer]:
    run.setup()
    plain = run.run_pass(1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(2, tracer)
    finally:
        tracer.uninstall()
    plain_wall = sum(t1 - t0 for t0, t1 in plain)
    traced_wall = sum(t1 - t0 for t0, t1 in traced)
    t = tracer.totals()

    def get(name: str, field: str):
        return t.get(name, {}).get(field, 0)

    def per(num: float, den: float) -> float:
        return 1e6 * num / den if den else 0.0

    euler_cells = get("schemes.euler_solve", "count")
    corr_cells = get("schemes.corrected_solve", "count")
    pairs = get("schemes.defect", "count")
    m = {
        "schemes.euler_solve.s": get("schemes.euler_solve", "s"),
        "schemes.corrected_solve.s": get("schemes.corrected_solve", "s"),
        "schemes.cells": euler_cells + corr_cells,
        "schemes.euler_solve.us_per_cell": per(get("schemes.euler_solve", "s"), euler_cells),
        "schemes.corrected_solve.us_per_cell":
            per(get("schemes.corrected_solve", "s"), corr_cells),
        "schemes.defect.self_s": get("schemes.defect", "self_s"),
        "schemes.defect.pairs": pairs,
        "schemes.defect.us_per_pair": per(get("schemes.defect", "self_s"), pairs),
        "core.control_fit.s": get("core.control_fit", "s"),
        "core.control_fit.points": get("core.control_fit", "count"),
        "core.control_fit.calls": get("core.control_fit", "calls"),
        "core.AreaProcess.init_s": get("core.AreaProcess.init", "s"),
        "core.AreaProcess.intervals": get("core.AreaProcess.init", "count"),
        "core.Trajectory.write_csv.s": get("core.Trajectory.write_csv", "s"),
        "core.Trajectory.write_csv.rows": get("core.Trajectory.write_csv", "count"),
        "cli.artifact_bytes": sum(f.stat().st_size for out in (run.work / "pass2").iterdir()
                                  for f in out.iterdir()),
        "drivers.process_envelope.s": get("drivers.process_envelope", "s"),
        "drivers.explosion_driver.self_s": get("drivers.explosion_driver", "self_s"),
        "drivers.example1_solution_pair.s": get("drivers.example1_solution_pair", "s"),
        "drivers.brownian_path.s": get("drivers.brownian_path", "s"),
        "drivers.ito_area.self_s": get("drivers.ito_area", "self_s"),
        "drivers.stratonovich_area.self_s": get("drivers.stratonovich_area", "self_s"),
        "drivers.ChainCurve.sample.s": get("drivers.ChainCurve.sample", "s"),
        "drivers.ChainCurve.band_stats.s": get("drivers.ChainCurve.band_stats", "s"),
        "drivers.ChainCurve.band_stats.pairs": get("drivers.ChainCurve.band_stats", "count"),
        "analysis.condition21_stat.s": get("analysis.condition21_stat", "s"),
        "analysis.condition21_stat.windows": get("analysis.condition21_stat", "count"),
        "analysis.convergence_study.self_s": get("analysis.convergence_study", "self_s"),
        "analysis.chen_residuals.self_s": get("analysis.chen_residuals", "self_s"),
        "analysis.chen_residuals.triples": get("analysis.chen_residuals", "count"),
        "analysis.nonuniqueness_demo.self_s": get("analysis.nonuniqueness_demo", "self_s"),
        "analysis.explosion_criterion.s": get("analysis.explosion_criterion", "s"),
        "analysis.holder_estimate.s": get("analysis.holder_estimate", "s"),
    }
    for sub in SUBCOMMANDS:
        lat = [t1 - t0 for job, (t0, t1) in zip(run.jobs, plain) if job.subcommand == sub]
        m[f"cli.{sub}.p50_s"] = statistics.median(lat) if lat else 0.0
    for layer in LAYERS:
        spans = [v for v in t.values() if v["layer"] == layer]
        m[f"{layer}.self_s"] = sum(v["self_s"] for v in spans)
    m["traced_wall_s"] = traced_wall
    m["trace_overhead_s"] = traced_wall - plain_wall
    info = {
        "untraced_wall_s": plain_wall,
        "unaccounted_s": traced_wall - sum(m[f"{layer}.self_s"] for layer in LAYERS),
        "spans": len(tracer.spans),
        "failed_spans": {layer: sum(v["failed"] for v in t.values() if v["layer"] == layer)
                         for layer in LAYERS},
        "fail_ratio": run.failed / run.attempted,
    }
    return m, info, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=HERE / "goldens.json",
                        help="golden record to check against (default: goldens.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roughstep" / "__init__.py").is_file():
        print(f"no roughstep sources under {SRC}", file=sys.stderr)
        return 2
    goldens = json.loads(args.goldens.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    run = Run(args.workload, args.seed, goldens)
    try:
        if args.trace:
            metrics, info, tracer = per_layer(run)
        else:
            metrics, info = end_to_end(run, args.seconds)
        env = environment(args.seed)
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"env": env, "workload": args.workload, "metrics": metrics,
                 **tracer.to_json()}))
            info["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"{'fail_ratio':40s} {info['fail_ratio']:>16.6g} 1 "
          f"({run.failed}/{run.attempted} jobs)")
    for line in run.errors:
        print(f"# FAILED {line}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
