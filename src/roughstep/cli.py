"""Command-line front end: configure, run, and persist experiment suites.

One JSON config per run, one output directory per run.  Each config block is
declared once, as a table ``{key: (convert, default)}`` read by :func:`_block`.
Every subcommand writes its artifacts plus ``manifest.json`` with the config
as read (defaults filled in, the effective seed) and a sha256 per artifact, so
a directory is self-describing and a rerun with the same config and seed is
byte-identical.

Exit codes, decided in :func:`main` alone: 0 success, 2 config error (a block
that is not an object, unknown or missing keys, a value of the wrong type,
inadmissible parameters, a field that does not fit its driver or initial
state, an ``--out`` that is not a directory, an artifact that cannot be
written), 3 numerical failure (non-finite states or results, an arithmetic
overflow, or an explosion the config did not declare).  A run is complete
only once ``manifest.json`` is written, last.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (
    chen_residuals,
    condition21_stat,
    convergence_study,
    explosion_criterion,
    gbm_terminal_ito,
    gbm_terminal_stratonovich,
    holder_estimate,
    nonuniqueness_demo,
)
from .core import GrowthEnvelope, NumericsError, VectorField
from .drivers import (
    BrownianConfig,
    ChainCurve,
    CounterexampleConfig,
    PolynomialPath,
    analytic_area,
    brownian_path,
    degenerate_area,
    explosion_driver,
    ito_area,
    stratonovich_area,
)
from .schemes import _explosion_threshold, corrected_solve, defect, euler_solve
from . import __version__


class ConfigError(ValueError):
    """Anything wrong with the run configuration (exit code 2)."""


_REQUIRED = object()  # the default of a key the block must give


def _read(block: dict, key: str, convert, default=None):
    """``convert(block.get(key, default))``; a value it refuses (null, text, a
    fraction where an integer is read) or a non-finite float is a config error."""
    value = block.get(key, default)
    try:
        out = convert(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} has an invalid value {value!r}: {exc}") from exc
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def _block(raw, where: str, spec: dict) -> dict:
    """The JSON object ``raw`` read against ``spec``, ``{key: (convert, default)}``.

    Unknown keys and missing ``_REQUIRED`` ones are refused; every other key
    is converted through :func:`_read`, its default filled in when absent.  A
    key whose default is ``None`` is optional and stays absent when not given.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(spec))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = sorted(k for k, (_, default) in spec.items()
                     if default is _REQUIRED and k not in raw)
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")
    return {key: _read(raw, key, convert, default) for key, (convert, default) in spec.items()
            if key in raw or default is not None}


def _kinded(raw, where: str, specs: dict) -> dict:
    """``raw`` read by :func:`_block` against the spec of its ``kind`` in ``specs``."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in specs:
        raise ConfigError(f"{where} needs a kind in {sorted(specs)}, got {raw!r}")
    return _block(raw, f"{kind} {where}", {"kind": (str, _REQUIRED), **specs[kind]})


def _choice(*options):
    """Converter refusing all but ``options`` (``1`` is not ``true``)."""
    def convert(value):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError(f"expected one of {options}")
        return value
    return convert


def _float(value) -> float:
    """A JSON number as a float; ``true``, text and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _int(value) -> int:
    """A JSON integer; an integral float such as ``2.0`` reads as ``2``, a fractional
    number, ``true``, text and null are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _fields(cls) -> dict:
    """Spec of a config dataclass: every field optional, converted to its default's type."""
    return {f.name: ({int: _int, float: _float}[type(f.default)], f.default)
            for f in dataclasses.fields(cls)}


def _array(value) -> list:
    """Nested list of finite floats, each entry read by :func:`_float`: ``np.asarray``
    alone would read ``true`` as 1.0 and numeric text as its number."""
    def floats(v):
        return [floats(x) for x in v] if isinstance(v, list) else _float(v)

    out = np.asarray(floats(value), dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError("entries must be finite")
    return out.tolist()


def _ints(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return [_int(v) for v in value]


def _pairs(value):
    """A pair policy name (or null for the window), else a list of index pairs."""
    if value is None or isinstance(value, str):
        return value
    if not isinstance(value, list):
        raise TypeError("expected a list of index pairs")
    return [_ints(pair) for pair in value]


_DRIVERS = {
    "brownian": {"d": (_int, 1), "level": (_int, 10), "seed": (_int, None),
                 "t_end": (_float, 1.0), "substeps": (_int, 16),
                 "area": (_choice("ito", "stratonovich", "none"), None)},
    "polynomial": {"coeffs": (_array, _REQUIRED), "t_end": (_float, 1.0),
                   "samples": (_int, 1025),
                   "area": (_choice("analytic", "degenerate", "none"), "analytic")},
    "chain": {"alpha": (_float, 0.7), "depth": (_int, 4), "samples": (_int, 2**14)},
}
_DRIVER = partial(_kinded, where="driver", specs=_DRIVERS)
_FIELD = partial(_kinded, where="field", specs={
    "scalar_linear": {},
    "diagonal_linear": {"n": (_int, _REQUIRED)},
    "constant": {"matrix": (_array, _REQUIRED)},
})
_SCHEME = partial(_block, where="scheme", spec={
    "scheme": (_choice("euler", "corrected"), "euler"),
    "explosion_threshold": (lambda v: _explosion_threshold(_float(v)), 1e6)})


def _seed(block: dict, override, who: str) -> int:
    """The effective seed, ``--seed`` over the config's, recorded in ``block``."""
    if override is not None:
        block["seed"] = override
    if "seed" not in block:
        raise ConfigError(f"{who} needs a seed")
    return block["seed"]


def _driver(block: dict, seed_override, need_area: bool):
    """Driver path and area process (``None`` without one) of a read driver block.

    A brownian block gains its effective seed and area kind.  Refused before
    anything is built when ``need_area`` and the driver has no area.
    """
    kind = block["kind"]
    if kind == "brownian":
        _seed(block, seed_override, "brownian driver")
        block.setdefault("area", "ito" if need_area else "none")
    if need_area and block.get("area", "none") == "none":
        raise ConfigError(f"this run needs an area process; the {kind} driver has none")
    if kind == "chain":
        return ChainCurve(block["alpha"], block["depth"]).sample(block["samples"]), None
    if kind == "polynomial":
        poly = PolynomialPath(np.asarray(block["coeffs"]))
        path = poly.sample(np.linspace(0.0, block["t_end"], block["samples"]))
        if block["area"] == "degenerate":
            return path, degenerate_area(path)
        return path, analytic_area(poly, path) if block["area"] == "analytic" else None
    bc = BrownianConfig(**{k: block[k] for k in ("d", "level", "seed", "t_end", "substeps")})
    path = brownian_path(bc)
    area = None if block["area"] == "none" else ito_area(path, bc)
    return path, stratonovich_area(area) if block["area"] == "stratonovich" else area


def _field(block: dict, d: int) -> VectorField:
    """The field whose constructor the block's kind names, its other keys the arguments;
    a diagonal_linear ``n`` other than the driver's ``d`` refused before any tensor."""
    if block["kind"] == "diagonal_linear" and block["n"] != d:
        raise ConfigError(f"field is driven by d={block['n']}, the driver has d={d}")
    return getattr(VectorField, block["kind"])(**{k: v for k, v in block.items() if k != "kind"})


# ---------------------------------------------------------------------------
# subcommands: the spec of the config and a handler of the config as read, returning
# artifacts, each a JSON payload or a writer of the target path

_HANDLERS: dict = {}  # subcommand name -> (config spec, handler)


def _subcommand(name: str, spec: dict):
    def register(handler):
        _HANDLERS[name] = (spec, handler)
        return handler
    return register


_SYSTEM = {  # a field driven from y0 by one scheme
    "driver": (_DRIVER, _REQUIRED),
    "field": (_FIELD, _REQUIRED),
    "scheme": (_SCHEME, {}),
    "y0": (_array, _REQUIRED),
}


@_subcommand("solve", {
    **_SYSTEM,
    "defect": (partial(_block, where="defect", spec={
        "gamma": (_float, _REQUIRED), "p": (_float, _REQUIRED),
        "pairs": (_pairs, "window"), "max_span": (_int, 64),
    }), None),
    "expect_explosion": (_choice(True, False), False),
})
def _cmd_solve(config: dict, seed_override) -> dict:
    scheme, threshold = config["scheme"]["scheme"], config["scheme"]["explosion_threshold"]
    path, area = _driver(config["driver"], seed_override, scheme == "corrected")
    field = _field(config["field"], path.d)
    if scheme == "corrected":
        traj = corrected_solve(field, path, area, config["y0"], explosion_threshold=threshold)
    else:
        traj = euler_solve(field, path, config["y0"], explosion_threshold=threshold)
    if traj.exploded and not config["expect_explosion"]:
        raise NumericsError("state crossed the explosion threshold at step "
                            f"{traj.exploded_at}")
    artifacts = {"trajectory.csv": traj.write_csv}
    if "defect" in config:
        report = defect(traj, field, path, area=area, **config["defect"])
        artifacts["defect.json"] = report.to_dict()
    return artifacts


_ORACLES = {"gbm_ito": gbm_terminal_ito, "gbm_stratonovich": gbm_terminal_stratonovich,
            "fine": None}
_GBM_FIELDS = ({"kind": "scalar_linear"}, {"kind": "diagonal_linear", "n": 1})  # f(y) = y


def _check_gbm_limit(oracle: str, scheme: str, driver: dict, need_area: bool) -> None:
    """Refuse a GBM oracle that is not the limit of the run: ``gbm_ito`` is the limit
    on a Brownian driver of Euler, or of the corrected scheme on an Ito area; on a
    Brownian driver ``gbm_stratonovich`` is the limit of the corrected scheme on a
    Stratonovich area only."""
    brownian = driver["kind"] == "brownian"
    area = driver.get("area", "ito" if need_area else "none")
    if oracle == "gbm_ito" and not brownian:
        raise ConfigError(f"oracle gbm_ito is the Ito limit on a Brownian driver, "
                          f"not on a {driver['kind']} driver")
    if oracle == "gbm_ito" and scheme == "corrected" and area != "ito":
        raise ConfigError(f"oracle gbm_ito is not the limit of the corrected scheme "
                          f"on a {area} area; use an ito area or gbm_stratonovich")
    if oracle == "gbm_stratonovich" and brownian and (scheme, area) != ("corrected",
                                                                       "stratonovich"):
        raise ConfigError("on a Brownian driver, oracle gbm_stratonovich is the limit of "
                          "the corrected scheme on a stratonovich area only, not of "
                          f"{scheme} on a {area} area")


@_subcommand("convergence", {
    **_SYSTEM,
    "k_values": (_ints, _REQUIRED),
    "oracle": (_choice(*_ORACLES), "fine"),
    "drop_coarsest": (_int, 2),
})
def _cmd_convergence(config: dict, seed_override) -> dict:
    oracle, scheme, driver = config["oracle"], config["scheme"], config["driver"]
    if oracle != "fine" and config["field"] not in _GBM_FIELDS:
        raise ConfigError(f"oracle {oracle} solves dY = Y dX, not the field {config['field']}")
    need_area = scheme["scheme"] == "corrected" or oracle == "fine"
    _check_gbm_limit(oracle, scheme["scheme"], driver, need_area)
    path, area = _driver(driver, seed_override, need_area)
    report = convergence_study(
        _field(config["field"], path.d), path, config["y0"],
        k_values=config["k_values"],
        area=area,
        reference=_ORACLES[config["oracle"]],
        drop_coarsest=config["drop_coarsest"],
        **scheme,
    )
    return {"rate.json": report.to_dict()}


@_subcommand("chen-check", {
    "driver": (_DRIVER, _REQUIRED),
    "n_triples": (_int, 1000),
    "triple_seed": (_int, 0),
})
def _cmd_chen_check(config: dict, seed_override) -> dict:
    _, area = _driver(config["driver"], seed_override, need_area=True)
    res = chen_residuals(area, n_triples=config["n_triples"], seed=config["triple_seed"])
    return {"chen.json": {
        "kind": area.kind,
        "n_triples": config["n_triples"],
        "triple_seed": config["triple_seed"],
        "max_residual": float(np.max(res)),
        "mean_residual": float(np.mean(res)),
    }}


@_subcommand("condition21", {
    "driver": (partial(_kinded, where="driver", specs={"brownian": {
        **_DRIVERS["brownian"], "area": (_choice("ito"), "ito")}}), _REQUIRED),
    "alpha": (_float, _REQUIRED),
    "beta": (_float, _REQUIRED),
    "levels": (_ints, list(range(4, 13))),
    "window_cap": (_int, 2**12),
})
def _cmd_condition21(config: dict, seed_override) -> dict:
    _, ito = _driver(config["driver"], seed_override, need_area=True)
    stats = [condition21_stat(area, config["alpha"], config["beta"],
                              levels=config["levels"], window_cap=config["window_cap"])
             for area in (ito, stratonovich_area(ito))]
    return {"condition21.json": {
        "ito": stats[0].to_dict(),
        "stratonovich": stats[1].to_dict(),
        "finest_level_ratio": stats[1].per_level[-1] / stats[0].per_level[-1],
    }}


@_subcommand("nonuniqueness", {
    "exponents": (partial(_block, where="exponents", spec=_fields(CounterexampleConfig)), {}),
})
def _cmd_nonuniqueness(config: dict, seed_override) -> dict:
    report = nonuniqueness_demo(CounterexampleConfig(**config["exponents"]))
    return {"nonuniqueness.json": report.to_dict(), "trajectory.csv": report.traj_b.write_csv}


@_subcommand("explosion", {
    "envelope": (partial(_block, where="envelope", spec={
        k: (_float, _REQUIRED) for k in ("growth_exp", "area_exp", "beta")}), _REQUIRED),
    "p": (_float, _REQUIRED),
    "gamma": (_float, None),
    "r_max": (_float, 2.0**20),
    "include_driver": (_choice(True, False), True),
})
def _cmd_explosion(config: dict, seed_override) -> dict:
    gamma = config.setdefault("gamma", 1.0 + config["envelope"]["beta"])
    env = GrowthEnvelope(**config["envelope"])
    payload = {"criterion": explosion_criterion(env, config["p"], gamma,
                                                config["r_max"]).to_dict()}
    if config["include_driver"]:
        drv = explosion_driver(env, config["p"])
        traj = drv.state_trajectory()
        payload["driver"] = {
            "t_star": drv.t_star,
            "exploded": traj.exploded,
            "explosion_time": None if not traj.exploded
            else float(traj.times[traj.exploded_at]),
            "max_state": float(np.max(traj.states)),
        }
    return {"explosion.json": payload}


@_subcommand("curve", {
    "alpha": (_float, _REQUIRED),
    "depth": (_int, _REQUIRED),
    "n_pairs": (_int, 10**4),
    "samples": (_int, 2**14),
    "seed": (_int, None),
})
def _cmd_curve(config: dict, seed_override) -> dict:
    seed = _seed(config, seed_override, "curve band sampling")
    curve = ChainCurve(config["alpha"], config["depth"])
    c_lower, c_upper = curve.band_stats(config["n_pairs"], np.random.default_rng(seed))
    exponent = holder_estimate(curve.sample(config["samples"]))
    return {"curve.json": {
        "alpha": curve.alpha,
        "depth": curve.depth,
        "levels": [[k, m] for k, m in curve.levels],
        "total_cells": curve.total_cells,
        "c_lower": c_lower,
        "c_upper": c_upper,
        "band_ratio": c_upper / c_lower,
        "holder_exponent": exponent,
        "n_pairs": config["n_pairs"],
    }}


# ---------------------------------------------------------------------------
# plumbing


def _json_bytes(obj) -> bytes:
    """Artifact JSON; a non-finite number is a numerical failure, never written."""
    try:
        return (json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n").encode()
    except ValueError as exc:
        raise NumericsError(f"non-finite number in the results: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    """``roughstep <subcommand> --config FILE --out DIR [--seed N]``, flags in any order."""
    parser = argparse.ArgumentParser(
        prog="roughstep",
        description="Run rough-driver experiment suites from a JSON config.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=list(_HANDLERS))
    parser.add_argument("--config", required=True, metavar="FILE", help="JSON config file")
    parser.add_argument("--out", required=True, metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="override the seed in the config")
    return parser


_PARSER = build_parser()  # after every @_subcommand, so ``choices`` names them all


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    out = Path(args.out)
    spec, handler = _HANDLERS[args.subcommand]
    try:
        config = _block(json.loads(Path(args.config).read_text()), "config", spec)
        artifacts = handler(config, args.seed)
        # serialized before the output directory exists, so a refusal leaves none
        encoded = {name: _json_bytes(a) for name, a in artifacts.items() if isinstance(a, dict)}
        out.mkdir(parents=True, exist_ok=True)
        hashes = {}
        for name, artifact in sorted(artifacts.items()):
            target = out / name
            if name in encoded:
                target.write_bytes(encoded[name])
            else:
                artifact(target)  # a writer is hashed from the file it wrote
                encoded[name] = target.read_bytes()
            hashes[name] = hashlib.sha256(encoded[name]).hexdigest()
        manifest = {
            "subcommand": args.subcommand,
            "version": __version__,
            "seed_override": args.seed,
            "config": config,
            "artifacts": hashes,
        }
        (out / "manifest.json").write_bytes(_json_bytes(manifest))
    except (ValueError, IndexError, OSError, MemoryError) as exc:  # or a config too big to build
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
