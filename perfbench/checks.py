"""Output checks behind ``failed`` and ``fail_ratio``.

A job passes when the CLI returned 0, ``manifest.json`` lists exactly the
files in the output directory with matching sha256 digests, its key scalars
match the golden record within the tolerance the tier-1 tests state for the
same quantity, and its artifacts are byte-identical to those of an earlier
run of the same config (the warm-up, or the first timed pass).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# (kind, tolerance) per scalar.  rel 1e-12: t_star, separation, condition-2.1
# value and control constant, as in the tier-1 goldens.  abs 1e-12: the
# Chen-residual gate.  rel 1e-9: slopes, fitted defect constants and the band
# ratio; tier-1 fixes no golden tolerance for slopes and defect constants,
# so they get the tightest one it states for a path statistic (the band
# constants), which still admits reordered floating-point sums.
TOLERANCES = {
    "fitted_constant": ("rel", 1e-9),
    "control_c": ("rel", 1e-12),
    "n_pairs": ("exact", 0),
    "slope": ("rel", 1e-9),
    "k_values": ("exact", 0),
    "ito.value": ("rel", 1e-12),
    "ito.argmax": ("exact", 0),
    "stratonovich.value": ("rel", 1e-12),
    "stratonovich.argmax": ("exact", 0),
    "max_residual": ("abs", 1e-12),
    "band_ratio": ("rel", 1e-9),
    "total_cells": ("exact", 0),
    "separation": ("rel", 1e-12),
    "fitted_m_b": ("rel", 1e-9),
    "verdict": ("exact", 0),
    "total": ("rel", 1e-12),
    "t_star": ("rel", 1e-12),
    "exploded": ("exact", 0),
}


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _argmax(stat: dict) -> list:
    a = stat["argmax"]
    return [a["k"], a["m"], a["h"]]


def key_scalars(subcommand: str, out: Path) -> dict:
    """The scalars of one job's artifacts that are compared with goldens."""
    if subcommand == "solve":
        d = _load(out, "defect.json")
        return {k: d[k] for k in ("fitted_constant", "control_c", "n_pairs")}
    if subcommand == "convergence":
        r = _load(out, "rate.json")
        return {"slope": r["slope"], "k_values": r["k_values"]}
    if subcommand == "condition21":
        c = _load(out, "condition21.json")
        return {
            "ito.value": c["ito"]["value"],
            "ito.argmax": _argmax(c["ito"]),
            "stratonovich.value": c["stratonovich"]["value"],
            "stratonovich.argmax": _argmax(c["stratonovich"]),
        }
    if subcommand == "chen-check":
        return {"max_residual": _load(out, "chen.json")["max_residual"]}
    if subcommand == "curve":
        c = _load(out, "curve.json")
        return {"band_ratio": c["band_ratio"], "total_cells": c["total_cells"]}
    if subcommand == "nonuniqueness":
        n = _load(out, "nonuniqueness.json")
        return {"separation": n["separation"], "fitted_m_b": n["fitted_m_b"]}
    if subcommand == "explosion":
        e = _load(out, "explosion.json")
        got = {"verdict": e["criterion"]["verdict"], "total": e["criterion"]["total"]}
        if "driver" in e:
            got["t_star"] = e["driver"]["t_star"]
            got["exploded"] = e["driver"]["exploded"]
        return got
    raise ValueError(f"no key scalars for subcommand {subcommand!r}")


def _close(kind: str, tol: float, got, want) -> bool:
    if kind == "exact":
        return got == want
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return False
    if kind == "abs":
        return abs(got - want) <= tol
    return abs(got - want) <= tol * abs(want)


def golden_errors(got: dict, want: dict | None) -> list[str]:
    if want is None:
        return ["no golden record"]
    errors = []
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            errors.append(f"{name}: present in only one of output and golden")
            continue
        kind, tol = TOLERANCES[name]
        if not _close(kind, tol, got[name], want[name]):
            errors.append(f"{name}: got {got[name]!r}, golden {want[name]!r} ({kind} {tol:g})")
    return errors


def manifest_errors(out: Path) -> list[str]:
    """Manifest lists exactly the artifacts present, with matching digests."""
    try:
        manifest = _load(out, "manifest.json")
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    hashes = manifest.get("artifacts", {})
    present = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    errors = []
    if sorted(hashes) != present:
        errors.append(f"manifest lists {sorted(hashes)}, directory has {present}")
    for name, digest in hashes.items():
        target = out / name
        if target.is_file() and hashlib.sha256(target.read_bytes()).hexdigest() != digest:
            errors.append(f"sha256 of {name} does not match the manifest")
    return errors


def same_bytes_errors(out: Path, reference: Path) -> list[str]:
    """Every file in ``out`` equals the same-named file in ``reference``."""
    names = sorted(p.name for p in out.iterdir())
    ref_names = sorted(p.name for p in reference.iterdir())
    if names != ref_names:
        return [f"files {names} differ from the earlier run's {ref_names}"]
    return [
        f"{name} differs from the earlier run of the same config"
        for name in names
        if (out / name).read_bytes() != (reference / name).read_bytes()
    ]


def check_job(subcommand: str, rc, out: Path, golden: dict | None,
              reference: Path | None) -> list[str]:
    """All failed checks of one job; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    errors = manifest_errors(out)
    if errors:
        return errors
    try:
        errors += golden_errors(key_scalars(subcommand, out), golden)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"artifact unreadable: {exc!r}")
    if reference is not None:
        errors += same_bytes_errors(out, reference)
    return errors
