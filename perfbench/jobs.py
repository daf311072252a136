"""Job lists of the three benchmark workloads, generated from a workload seed.

A job is one ``roughstep`` CLI call: a subcommand plus the JSON config it is
given.  The benchmark derives every Brownian and curve seed from its own
``--seed`` argument; the program only ever sees the generated configs.

Seeds are drawn from fixed pools so that each drawn job has a golden record
(``goldens.json``, written by ``record_goldens.py``).  A job's ``key`` names
its config independently of the workload seed and indexes that record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("brownian-solve", "area-scan", "counterexamples")

# Seed pools with golden records.  A workload seed selects a subset.
BROWNIAN_POOL = tuple(range(1001, 1025))
CURVE_POOL = tuple(range(2001, 2025))

# Seeds drawn per job list.  Small lists (~5 s a pass on a 2-vCPU Xeon)
# give several passes per run, whose median is steadier.
SOLVE_SEEDS = 1
AREA_SEEDS = 2
CURVE_SEEDS = 4

# Grid of the non-uniqueness job: half the shipped 65,536 (see NOTES.md).
NONUNIQUENESS_GRID = 32768

# Gate 09's 5x5 envelope gallery: (area exponent, growth - area exponent).
GALLERY_AREA_EXPS = (0.3, 0.6, 0.9, 1.2, 1.5)
GALLERY_DELTAS = (-0.4, -0.2, 0.0, 0.4, 0.8)


@dataclass(frozen=True)
class Job:
    key: str
    subcommand: str
    config: dict


def _brownian(seed: int, d: int, level: int, area: str) -> dict:
    return {"kind": "brownian", "d": d, "level": level, "seed": seed, "area": area}


def solve_jobs(b: int) -> list[Job]:
    """The three brownian-solve jobs on Brownian seed ``b``."""
    return [
        Job(f"solve/corrected-d1-L12/b{b}", "solve", {
            "driver": _brownian(b, 1, 12, "ito"),
            "field": {"kind": "scalar_linear"},
            "scheme": {"scheme": "corrected"},
            "y0": [1.0],
            "defect": {"gamma": 3.0, "p": 2.0, "pairs": "window", "max_span": 16},
        }),
        Job(f"convergence/corrected-d2-L14/b{b}", "convergence", {
            "driver": _brownian(b, 2, 14, "stratonovich"),
            "field": {"kind": "diagonal_linear", "n": 2},
            "scheme": {"scheme": "corrected"},
            "y0": [1.0, 1.0],
            "k_values": [2**j for j in range(4, 11)],
            "oracle": "fine",
        }),
        Job(f"convergence/euler-d1-L16/b{b}", "convergence", {
            "driver": _brownian(b, 1, 16, "none"),
            "field": {"kind": "scalar_linear"},
            "scheme": {"scheme": "euler"},
            "y0": [1.0],
            "k_values": [2**j for j in range(4, 15)],
            "oracle": "gbm_ito",
        }),
    ]


def area_jobs(b: int) -> list[Job]:
    """The two area-scan jobs on Brownian seed ``b``."""
    return [
        Job(f"condition21/d2-L12/b{b}", "condition21", {
            "driver": {"kind": "brownian", "d": 2, "level": 12, "seed": b},
            "alpha": 0.45,
            "beta": 0.55,
            "levels": list(range(4, 13)),
        }),
        Job(f"chen-check/d2-L14/b{b}", "chen-check", {
            "driver": _brownian(b, 2, 14, "ito"),
            "n_triples": 1000,
        }),
    ]


def curve_job(c: int) -> Job:
    return Job(f"curve/a0.7-depth6/c{c}", "curve", {"alpha": 0.7, "depth": 6, "seed": c})


def gallery_jobs() -> list[Job]:
    """Criterion-only explosion jobs over gate 09's envelope gallery."""
    jobs = []
    for a_exp in GALLERY_AREA_EXPS:
        for delta in GALLERY_DELTAS:
            g_exp = round(a_exp + delta, 10)
            jobs.append(Job(f"explosion/criterion-g{g_exp}-a{a_exp}", "explosion", {
                "envelope": {"growth_exp": g_exp, "area_exp": a_exp, "beta": 0.8},
                "p": 1.5,
                "gamma": 1.7,
                "include_driver": False,
            }))
    return jobs


def construction_jobs() -> list[Job]:
    """The non-uniqueness demo and the explosion driver build."""
    return [
        Job(f"nonuniqueness/grid{NONUNIQUENESS_GRID}", "nonuniqueness",
            {"exponents": {"grid": NONUNIQUENESS_GRID}}),
        Job("explosion/driver-1.2-0.4-0.8", "explosion", {
            "envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
            "p": 1.5,
        }),
    ]


def _interleave(small: list[Job], large: list[Job]) -> list[Job]:
    """Spread the millisecond jobs between the long ones, so that their
    median samples the whole pass rather than one moment of it."""
    out, step = [], -(-len(small) // (len(large) + 1))
    for k, job in enumerate(large):
        out += small[k * step:(k + 1) * step] + [job]
    return out + small[len(large) * step:]


def job_list(workload: str, seed: int) -> list[Job]:
    """One pass of ``workload``; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "brownian-solve":
        return [j for b in rng.sample(BROWNIAN_POOL, SOLVE_SEEDS) for j in solve_jobs(b)]
    if workload == "area-scan":
        return [j for b in rng.sample(BROWNIAN_POOL, AREA_SEEDS) for j in area_jobs(b)]
    if workload == "counterexamples":
        curves = [curve_job(c) for c in rng.sample(CURVE_POOL, CURVE_SEEDS)]
        return _interleave(gallery_jobs(), construction_jobs() + curves)
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def all_golden_jobs() -> list[Job]:
    """Every job any workload seed can draw."""
    jobs = [j for b in BROWNIAN_POOL for j in solve_jobs(b) + area_jobs(b)]
    return (jobs + gallery_jobs() + construction_jobs()
            + [curve_job(c) for c in CURVE_POOL])


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """First job of each shape, in list order, so that no code path first
    runs in a timed pass."""
    seen: dict[tuple, Job] = {}
    for job in jobs:
        seen.setdefault(shape(job), job)
    return list(seen.values())


def shape(job: Job) -> tuple:
    """The job with its driver and curve seeds masked out."""
    def mask(obj):
        if isinstance(obj, dict):
            return tuple(sorted(
                (k, "<seed>" if k == "seed" else mask(v)) for k, v in obj.items()
            ))
        if isinstance(obj, list):
            return tuple(mask(v) for v in obj)
        return obj
    return job.subcommand, mask(job.config)
