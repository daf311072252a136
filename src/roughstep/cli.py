"""Command-line front end: configure, run, and persist experiment suites.

One JSON config per run, one output directory per run.  Every subcommand
writes its artifacts plus ``manifest.json`` with the resolved configuration,
the effective seed, and a sha256 per artifact, so a directory is
self-describing and a rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 2 config error (unknown keys, missing or non-numeric
values, inadmissible parameters, a field that does not fit its driver or
initial state), 3 numerical failure (non-finite states or results, or an
explosion the config did not declare).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
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
from .core import NumericsError, VectorField
from .drivers import (
    BrownianConfig,
    CounterexampleConfig,
    PolynomialPath,
    analytic_area,
    brownian_path,
    build_chain_curve,
    degenerate_area,
    explosion_driver,
    ito_area,
    power_law_envelope,
    stratonovich_area,
)
from .schemes import (SchemeConfig, _check_fit, _defect_pairs, corrected_solve, defect,
                      euler_solve)
from . import __version__


class ConfigError(ValueError):
    """Anything wrong with the run configuration (exit code 2)."""


def _check_keys(block: dict, where: str, allowed: set, required: set) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = sorted(required - set(block))
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _read(block: dict, key: str, convert, default=None):
    """``convert(block.get(key, default))``; a value it refuses (null, text, an
    infinite int) or a non-finite float is a config error."""
    value = block.get(key, default)
    try:
        out = convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} has an invalid value {value!r}") from exc
    if isinstance(out, float) and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def _effective_seed(block: dict, override):
    if override is not None:
        return int(override)
    return None if block.get("seed") is None else _read(block, "seed", int)


# ---------------------------------------------------------------------------
# config-block builders


def _build_field(block: dict) -> VectorField:
    _check_keys(block, "field", {"kind", "matrix", "n"}, {"kind"})
    kind = block["kind"]
    if kind == "scalar_linear":
        return VectorField.scalar_linear()
    if kind == "diagonal_linear":
        if "n" not in block:
            raise ConfigError("diagonal_linear field needs n")
        return VectorField.diagonal_linear(_read(block, "n", int))
    if kind == "constant":
        if "matrix" not in block:
            raise ConfigError("constant field needs a matrix")
        matrix = _read(block, "matrix", lambda m: np.asarray(m, dtype=float))
        if matrix.ndim != 2 or not np.all(np.isfinite(matrix)):
            raise ConfigError("constant field needs an (n, d) matrix of finite numbers")
        return VectorField.constant(matrix)
    raise ConfigError(f"unknown field kind {kind!r}")


def _build_driver(block: dict, seed_override, need_area: bool):
    """Driver path plus (optionally) an area process from a config block."""
    try:
        return _driver_from_block(block, seed_override, need_area)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _driver_from_block(block: dict, seed_override, need_area: bool):
    _check_keys(
        block,
        "driver",
        {"kind", "d", "level", "seed", "t_end", "substeps", "area",
         "coeffs", "samples", "alpha", "depth"},
        {"kind"},
    )
    kind = block["kind"]
    if kind == "brownian":
        seed = _effective_seed(block, seed_override)
        if seed is None:
            raise ConfigError("brownian driver needs a seed")
        bc = BrownianConfig(
            d=_read(block, "d", int, 1),
            level=_read(block, "level", int, 10),
            seed=seed,
            t_end=_read(block, "t_end", float, 1.0),
            substeps=_read(block, "substeps", int, 16),
        )
        path = brownian_path(bc)
        area_kind = block.get("area", "ito" if need_area else "none")
        if area_kind == "none":
            if need_area:
                raise ConfigError("corrected scheme needs area: ito or stratonovich")
            return path, None, {"kind": kind, "seed": seed, "area": "none", **_bc_dict(bc)}
        if area_kind not in ("ito", "stratonovich"):
            raise ConfigError(f"unknown area kind {area_kind!r} for brownian")
        area = ito_area(path, bc)
        if area_kind == "stratonovich":
            area = stratonovich_area(area)
        return path, area, {"kind": kind, "seed": seed, "area": area_kind, **_bc_dict(bc)}
    if kind == "polynomial":
        if "coeffs" not in block:
            raise ConfigError("polynomial driver needs coeffs")
        poly = PolynomialPath(np.asarray(block["coeffs"], dtype=float))
        t_end = _read(block, "t_end", float, 1.0)
        samples = _read(block, "samples", int, 1025)
        path = poly.sample(np.linspace(0.0, t_end, samples))
        area_kind = block.get("area", "analytic")
        if area_kind == "analytic":
            area = analytic_area(poly, path)
        elif area_kind == "degenerate":
            area = degenerate_area(path)
        elif area_kind == "none":
            area = None
            if need_area:
                raise ConfigError("corrected scheme needs an area")
        else:
            raise ConfigError(f"unknown area kind {area_kind!r} for polynomial")
        return path, area, {
            "kind": kind, "t_end": t_end, "samples": samples, "area": area_kind,
            "coeffs": np.asarray(block["coeffs"], dtype=float).tolist(),
        }
    if kind == "chain":
        alpha = _read(block, "alpha", float, 0.7)
        depth = _read(block, "depth", int, 4)
        samples = _read(block, "samples", int, 2**14)
        curve = build_chain_curve(alpha, depth)
        path = curve.sample(samples)
        if need_area:
            raise ConfigError("the chain curve ships no area process")
        return path, None, {"kind": kind, "alpha": alpha, "depth": depth, "samples": samples}
    raise ConfigError(f"unknown driver kind {kind!r}")


def _initial_state(raw, field: VectorField, path) -> np.ndarray:
    """``y0`` as an array, refused unless it, the field and the driver fit."""
    try:
        return _check_fit(field, path, raw, None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _bc_dict(bc: BrownianConfig) -> dict:
    return {"d": bc.d, "level": bc.level, "t_end": bc.t_end, "substeps": bc.substeps}


def _build_scheme(block: dict | None) -> SchemeConfig:
    block = block or {}
    _check_keys(block, "scheme", {"scheme", "explosion_threshold"}, set())
    try:
        return SchemeConfig(
            scheme=block.get("scheme", "euler"),
            explosion_threshold=_read(block, "explosion_threshold", float, 1e6),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (artifact dict, resolved-config dict); an
# artifact is a JSON payload or a writer taking the target path


def _cmd_solve(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(
        config, "config",
        {"driver", "field", "scheme", "y0", "defect", "expect_explosion"},
        {"driver", "field", "y0"},
    )
    sch = _build_scheme(config.get("scheme"))
    path, area, resolved_driver = _build_driver(
        config["driver"], seed_override, need_area=sch.scheme == "corrected"
    )
    field = _build_field(config["field"])
    y0 = _initial_state(config["y0"], field, path)
    if sch.scheme == "corrected":
        traj = corrected_solve(field, path, area, y0, config=sch)
    else:
        traj = euler_solve(field, path, y0, config=sch)
    expect = bool(config.get("expect_explosion", False))
    if traj.exploded and not expect:
        raise NumericsError(
            f"state crossed the explosion threshold at step {traj.exploded_at}"
        )
    artifacts = {"trajectory.csv": lambda p: traj.write_csv(p)}
    resolved = {
        "driver": resolved_driver,
        "field": config["field"],
        "scheme": {"scheme": sch.scheme, "explosion_threshold": sch.explosion_threshold},
        "y0": y0.tolist(),
        "expect_explosion": expect,
    }
    dft = config.get("defect")
    if dft is not None:
        _check_keys(dft, "defect", {"gamma", "p", "pairs", "max_span"}, {"gamma", "p"})
        gamma, p = _read(dft, "gamma", float), _read(dft, "p", float)
        max_span = _read(dft, "max_span", int, 64)
        pairs = dft.get("pairs", "window")
        try:
            _defect_pairs(traj.times.size, gamma, p, traj.scheme == "corrected", area,
                          pairs, max_span)
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"defect: {exc}") from exc
        report = defect(traj, field, path, gamma, p, area=area, pairs=pairs, max_span=max_span)
        artifacts["defect.json"] = report.to_dict()
        resolved["defect"] = {"gamma": gamma, "p": p, "pairs": pairs, "max_span": max_span}
    return artifacts, resolved


_ORACLES = {
    "gbm_ito": gbm_terminal_ito,
    "gbm_stratonovich": gbm_terminal_stratonovich,
    "fine": None,
}


def _cmd_convergence(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(
        config, "config",
        {"driver", "field", "scheme", "y0", "k_values", "oracle", "drop_coarsest"},
        {"driver", "field", "y0", "k_values"},
    )
    sch = _build_scheme(config.get("scheme"))
    oracle_name = config.get("oracle", "fine")
    if oracle_name not in _ORACLES:
        raise ConfigError(f"unknown oracle {oracle_name!r}; have {sorted(_ORACLES)}")
    need_area = sch.scheme == "corrected" or oracle_name == "fine"
    path, area, resolved_driver = _build_driver(
        config["driver"], seed_override, need_area=need_area
    )
    field = _build_field(config["field"])
    y0 = _initial_state(config["y0"], field, path)
    k_values = _read(config, "k_values", lambda v: [int(k) for k in v])
    drop_coarsest = _read(config, "drop_coarsest", int, 2)
    try:
        report = convergence_study(
            field, path, y0,
            k_values=k_values,
            scheme=sch.scheme,
            area=area,
            reference=_ORACLES[oracle_name],
            drop_coarsest=drop_coarsest,
            explosion_threshold=sch.explosion_threshold,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {
        "driver": resolved_driver,
        "field": config["field"],
        "scheme": {"scheme": sch.scheme},
        "y0": y0.tolist(),
        "k_values": k_values,
        "oracle": oracle_name,
        "drop_coarsest": drop_coarsest,
    }
    return {"rate.json": report.to_dict()}, resolved


def _cmd_chen_check(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(config, "config", {"driver", "n_triples", "triple_seed"}, {"driver"})
    path, area, resolved_driver = _build_driver(config["driver"], seed_override, need_area=True)
    n_triples = _read(config, "n_triples", int, 1000)
    triple_seed = _read(config, "triple_seed", int, 0)
    try:
        res = chen_residuals(area, n_triples=n_triples, seed=triple_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "kind": area.kind,
        "n_triples": n_triples,
        "triple_seed": triple_seed,
        "max_residual": float(np.max(res)),
        "mean_residual": float(np.mean(res)),
    }
    resolved = {"driver": resolved_driver, "n_triples": n_triples, "triple_seed": triple_seed}
    return {"chen.json": payload}, resolved


def _cmd_condition21(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(
        config, "config",
        {"driver", "alpha", "beta", "levels", "window_cap"},
        {"driver", "alpha", "beta"},
    )
    driver = dict(config["driver"])
    if driver.get("kind") != "brownian":
        raise ConfigError("condition21 runs on the brownian driver")
    driver["area"] = "ito"
    path, ito, resolved_driver = _build_driver(driver, seed_override, need_area=True)
    strat = stratonovich_area(ito)
    alpha = _read(config, "alpha", float)
    beta = _read(config, "beta", float)
    levels = _read(config, "levels", lambda v: [int(j) for j in v], range(4, 13))
    cap = _read(config, "window_cap", int, 2**12)
    try:
        stat_ito = condition21_stat(ito, alpha, beta, levels=levels, window_cap=cap)
        stat_strat = condition21_stat(strat, alpha, beta, levels=levels, window_cap=cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "ito": stat_ito.to_dict(),
        "stratonovich": stat_strat.to_dict(),
        "finest_level_ratio": stat_strat.per_level[-1] / stat_ito.per_level[-1],
    }
    resolved = {"driver": resolved_driver, "alpha": alpha, "beta": beta,
                "levels": levels, "window_cap": cap}
    return {"condition21.json": payload}, resolved


def _cmd_nonuniqueness(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(config, "config", {"exponents"}, set())
    block = config.get("exponents", {})
    allowed = {"gamma", "p", "beta_exp", "rho_exp", "t_max", "grid",
               "t_min_factor", "ramp"}
    _check_keys(block, "exponents", allowed, set())
    try:
        cfg = CounterexampleConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        report = nonuniqueness_demo(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {"exponents": {
        "gamma": cfg.gamma, "p": cfg.p, "beta_exp": cfg.beta_exp,
        "rho_exp": cfg.rho_exp, "t_max": cfg.t_max, "grid": cfg.grid,
        "t_min_factor": cfg.t_min_factor, "ramp": cfg.ramp,
    }}
    return {
        "nonuniqueness.json": report.to_dict(),
        "trajectory.csv": lambda p: report.traj_b.write_csv(p),
    }, resolved


def _cmd_explosion(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(
        config, "config",
        {"envelope", "p", "gamma", "r_max", "include_driver"},
        {"envelope", "p"},
    )
    env_block = config["envelope"]
    _check_keys(env_block, "envelope", {"growth_exp", "area_exp", "beta"},
                {"growth_exp", "area_exp", "beta"})
    exps = {k: _read(env_block, k, float) for k in ("growth_exp", "area_exp", "beta")}
    p = _read(config, "p", float)
    gamma = _read(config, "gamma", float, 1.0 + exps["beta"])
    r_max = _read(config, "r_max", float, 2.0**20)
    try:
        env = power_law_envelope(exps["growth_exp"], exps["area_exp"], exps["beta"])
        crit = explosion_criterion(env, p, gamma, r_max)
        payload = {"criterion": crit.to_dict()}
        if bool(config.get("include_driver", True)):
            drv = explosion_driver(env, p, gamma)
            traj = drv.state_trajectory()
            payload["driver"] = {
                "t_star": drv.t_star,
                "exploded": traj.exploded,
                "explosion_time": None if not traj.exploded
                else float(traj.times[traj.exploded_at]),
                "max_state": float(np.max(traj.states)),
            }
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = {
        "envelope": exps,
        "p": p, "gamma": gamma, "r_max": r_max,
        "include_driver": bool(config.get("include_driver", True)),
    }
    return {"explosion.json": payload}, resolved


def _cmd_curve(config: dict, out: Path, seed_override) -> tuple[dict, dict]:
    _check_keys(
        config, "config",
        {"alpha", "depth", "n_pairs", "samples", "seed"},
        {"alpha", "depth"},
    )
    seed = _effective_seed(config, seed_override)
    if seed is None:
        raise ConfigError("curve band sampling needs a seed")
    alpha, depth = _read(config, "alpha", float), _read(config, "depth", int)
    n_pairs = _read(config, "n_pairs", int, 10**4)
    samples = _read(config, "samples", int, 2**14)
    try:
        curve = build_chain_curve(alpha, depth)
        c_lower, c_upper = curve.band_stats(n_pairs, np.random.default_rng(seed))
        exponent = holder_estimate(curve.sample(samples))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "alpha": curve.alpha,
        "depth": curve.depth,
        "levels": [[k, m] for k, m in curve.levels],
        "total_cells": curve.total_cells,
        "c_lower": c_lower,
        "c_upper": c_upper,
        "band_ratio": c_upper / c_lower,
        "holder_exponent": exponent,
        "n_pairs": n_pairs,
    }
    resolved = {"alpha": curve.alpha, "depth": curve.depth, "n_pairs": n_pairs,
                "samples": samples, "seed": seed}
    return {"curve.json": payload}, resolved


_HANDLERS = {
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
    "chen-check": _cmd_chen_check,
    "condition21": _cmd_condition21,
    "nonuniqueness": _cmd_nonuniqueness,
    "explosion": _cmd_explosion,
    "curve": _cmd_curve,
}


# ---------------------------------------------------------------------------
# plumbing


def _json_text(obj) -> str:
    """Artifact JSON; a non-finite number is a numerical failure, never written."""
    try:
        return json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"non-finite number in the results: {exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughstep",
        description="Run rough-driver experiment suites from a JSON config.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the seed in the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        raw = Path(args.config).read_text()
        config = json.loads(raw)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        handler = _HANDLERS[args.subcommand]
        artifacts, resolved = handler(config, out, args.seed)
        # serialized before the output directory exists, so a refusal leaves none
        texts = {name: _json_text(a) for name, a in artifacts.items() if isinstance(a, dict)}
        _json_text(resolved)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    out.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, artifact in sorted(artifacts.items()):
        target = out / name
        if name in texts:
            target.write_text(texts[name])
        else:
            artifact(target)
        hashes[name] = _sha256(target)
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "seed_override": args.seed,
        "config": resolved,
        "artifacts": hashes,
    }
    (out / "manifest.json").write_text(_json_text(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
