"""End-to-end tests of the command-line entry point."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from roughstep import __version__, cli
from roughstep.cli import main
from roughstep.drivers import ChainCurve

SRC = Path(__file__).resolve().parents[1] / "src"


def _write_config(tmp_path, name, payload):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


SOLVE_CONFIG = {
    "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42, "area": "ito"},
    "field": {"kind": "scalar_linear"},
    "scheme": {"scheme": "corrected"},
    "y0": [1.0],
    "defect": {"gamma": 3.0, "p": 2.0, "pairs": "window", "max_span": 16},
}

C21_CONFIG = {
    "driver": {"kind": "brownian", "d": 2, "level": 6, "seed": 42},
    "alpha": 0.45, "beta": 0.55, "levels": [2, 6],
}


CHEN_CONFIG = {"driver": {"kind": "brownian", "d": 2, "level": 6, "seed": 42, "area": "ito"}}

CURVE_CONFIG = {"alpha": 0.7, "depth": 4, "seed": 1, "n_pairs": 50, "samples": 256}

EXPLOSION_CONFIG = {"envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
                    "p": 1.5, "gamma": 1.7}

CHAIN_SOLVE_CONFIG = {
    "driver": {"kind": "chain", "alpha": 0.7, "depth": 3, "samples": 257},
    "field": {"kind": "constant", "matrix": [[1.0, 0.0]]},
    "y0": [0.0],
}

# convergence runs whose GBM oracle is not their limit: before they were refused, each
# exited 0 with a slope within 0.003 of 0 (+0.0027, -0.0004, -0.0012, -0.0008)
_BROWNIAN_SEED_7 = {"kind": "brownian", "d": 1, "level": 12, "seed": 7}
_GBM_LIMIT_MISMATCHES = [
    {"driver": {"kind": "polynomial", "coeffs": [[0.0, 1.0]], "samples": 4097},
     "scheme": {"scheme": "euler"}, "oracle": "gbm_ito"},
    {"driver": {**_BROWNIAN_SEED_7, "area": "stratonovich"},
     "scheme": {"scheme": "corrected"}, "oracle": "gbm_ito"},
    {"driver": _BROWNIAN_SEED_7, "scheme": {"scheme": "euler"}, "oracle": "gbm_stratonovich"},
    {"driver": {**_BROWNIAN_SEED_7, "area": "ito"},
     "scheme": {"scheme": "corrected"}, "oracle": "gbm_stratonovich"},
]
_GBM_LIMIT_MISMATCHES = [{**c, "field": {"kind": "scalar_linear"}, "y0": [1.0],
                          "k_values": [16, 64, 256, 1024]} for c in _GBM_LIMIT_MISMATCHES]


class TestSolve:
    def test_writes_expected_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["defect.json", "manifest.json", "trajectory.csv"]
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,y_1"
        report = json.loads((out / "defect.json").read_text())
        assert report["pair_policy"] == "window"
        assert report["fitted_constant"] > 0

    def test_manifest_hashes_are_correct(self, tmp_path):
        # JSON artifacts are hashed from their encoded bytes, the CSV from the file
        for i, (subcommand, config, artifacts) in enumerate([
            ("solve", SOLVE_CONFIG, {"defect.json", "trajectory.csv"}),
            ("explosion", EXPLOSION_CONFIG, {"explosion.json"}),
            ("explosion", {**EXPLOSION_CONFIG, "include_driver": False}, {"explosion.json"}),
            ("curve", CURVE_CONFIG, {"curve.json"}),
            ("chen-check", CHEN_CONFIG, {"chen.json"}),
        ]):
            cfg = _write_config(tmp_path, f"config{i}.json", config)
            out = tmp_path / f"out{i}"
            assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["subcommand"] == subcommand
            assert manifest["seed_override"] is None
            assert set(manifest["artifacts"]) == artifacts
            assert {p.name for p in out.iterdir()} == artifacts | {"manifest.json"}
            for name, digest in manifest["artifacts"].items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_config_is_resolved_with_defaults(self, tmp_path):
        cfg = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        driver = manifest["config"]["driver"]
        assert driver["t_end"] == 1.0 and driver["substeps"] == 16
        assert manifest["config"]["expect_explosion"] is False

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", cfg, "--out", str(out1)])
        main(["solve", "--config", cfg, "--out", str(out2)])
        for child in out1.iterdir():
            assert child.read_bytes() == (out2 / child.name).read_bytes()

    def test_seed_override_recorded_and_effective(self, tmp_path):
        cfg = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
        base, other = tmp_path / "base", tmp_path / "other"
        main(["solve", "--config", cfg, "--out", str(base)])
        main(["solve", "--config", cfg, "--out", str(other), "--seed", "7"])
        manifest = json.loads((other / "manifest.json").read_text())
        assert manifest["seed_override"] == 7
        assert manifest["config"]["driver"]["seed"] == 7
        assert (base / "trajectory.csv").read_bytes() != (
            other / "trajectory.csv").read_bytes()

    def test_unexpected_explosion_is_a_numerical_failure(self, tmp_path, capsys):
        config = {
            "driver": {"kind": "polynomial", "coeffs": [[0.0, 5.0]],
                       "area": "none", "samples": 257},
            "field": {"kind": "scalar_linear"},
            "scheme": {"scheme": "euler", "explosion_threshold": 100.0},
            "y0": [1.0],
        }
        cfg = _write_config(tmp_path, "explode.json", config)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_expected_explosion_passes(self, tmp_path):
        config = {
            "driver": {"kind": "polynomial", "coeffs": [[0.0, 5.0]],
                       "area": "none", "samples": 257},
            "field": {"kind": "scalar_linear"},
            "scheme": {"scheme": "euler", "explosion_threshold": 100.0},
            "y0": [1.0],
            "expect_explosion": True,
        }
        cfg = _write_config(tmp_path, "explode.json", config)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert float(rows[-1].split(",")[1]) > 100.0

    def test_constant_driver_fits_zero_constant(self, tmp_path):
        # the control constant is 0 and so is every defect: each ratio is 0, not 0/0
        cfg = _write_config(tmp_path, "flat.json", {
            "driver": {"kind": "polynomial", "coeffs": [[1.0]], "area": "none", "samples": 65},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "defect": {"gamma": 1.5, "p": 2.0, "pairs": "adjacent"},
        })
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "defect.json").read_text())
        assert report["fitted_constant"] == 0.0 and report["control_c"] == 0.0

    def test_chain_driver(self, tmp_path):
        config = {
            "driver": {"kind": "chain", "alpha": 0.7, "depth": 3, "samples": 257},
            "field": {"kind": "constant", "matrix": [[1.0, 0.0]]},
            "y0": [0.0],
        }
        cfg = _write_config(tmp_path, "chain.json", config)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 257
        x1 = ChainCurve(0.7, 3).sample(257).values[:, 0]
        assert float(rows[-1].split(",")[1]) == pytest.approx(x1[-1] - x1[0], abs=1e-12)


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = dict(SOLVE_CONFIG)
        bad["bogus"] = 1
        cfg = _write_config(tmp_path, "bad.json", bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", "--config", missing, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_non_object_config(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_inadmissible_exponents(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "bad.json",
                            {"exponents": {"gamma": 1.3, "grid": 4096}})
        code = main(["nonuniqueness", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "exponent chain" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["solve", "convergence"])
    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_nonpositive_threshold_refused_before_the_driver(self, tmp_path, monkeypatch,
                                                              capsys, subcommand, threshold):
        def unbuilt(config):
            raise AssertionError("the driver was built before the scheme block was refused")

        monkeypatch.setattr(cli, "brownian_path", unbuilt)
        config = {"driver": {"kind": "brownian", "d": 2, "level": 18, "seed": 1},
                  "field": {"kind": "diagonal_linear", "n": 2},
                  "scheme": {"scheme": "euler", "explosion_threshold": threshold},
                  "y0": [1.0, 1.0]}
        if subcommand == "convergence":
            config["k_values"] = [4, 16]
        cfg = _write_config(tmp_path, "bad.json", config)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "explosion_threshold" in err
        assert "must be positive" in err

    @pytest.mark.parametrize("oracle", ["gbm_ito", "gbm_stratonovich"])
    @pytest.mark.parametrize("field", [{"kind": "constant", "matrix": [[0.0]]},
                                       {"kind": "diagonal_linear", "n": 2}])
    def test_gbm_oracle_refused_before_the_driver(self, tmp_path, monkeypatch, capsys,
                                                  oracle, field):
        """The closed-form oracles solve dY = Y dX alone."""
        def unbuilt(config):
            raise AssertionError("the driver was built before the oracle was refused")

        monkeypatch.setattr(cli, "brownian_path", unbuilt)
        cfg = _write_config(tmp_path, "bad.json", {
            "driver": {"kind": "brownian", "d": field.get("n", 1), "level": 8, "seed": 1},
            "field": field, "y0": [1.0] * field.get("n", 1),
            "k_values": [16, 64], "oracle": oracle})
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"oracle {oracle} solves dY = Y dX" in capsys.readouterr().err

    @pytest.mark.parametrize("config", _GBM_LIMIT_MISMATCHES, ids=[
        "gbm-ito-on-polynomial", "gbm-ito-on-corrected-stratonovich",
        "gbm-stratonovich-on-euler", "gbm-stratonovich-on-corrected-ito"])
    def test_gbm_oracle_that_is_not_the_limit_refused_before_the_driver(
            self, tmp_path, monkeypatch, capsys, config):
        """Against such an oracle the errors stall and the slope reads near 0."""
        def unbuilt(*args):
            raise AssertionError("the driver was built before the oracle was refused")

        monkeypatch.setattr(cli, "brownian_path", unbuilt)
        monkeypatch.setattr(cli, "PolynomialPath", unbuilt)
        cfg = _write_config(tmp_path, "bad.json", config)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"oracle {config['oracle']} is" in capsys.readouterr().err

    def test_gbm_oracle_on_one_diagonal_component(self, tmp_path):
        """diagonal_linear with n = 1 is the field f(y) = y of scalar_linear."""
        rates = []
        for field in ({"kind": "scalar_linear"}, {"kind": "diagonal_linear", "n": 1}):
            cfg = _write_config(tmp_path, "ok.json", {
                "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 1},
                "field": field, "y0": [1.0], "k_values": [16, 64, 256],
                "oracle": "gbm_ito"})
            out = tmp_path / field["kind"]
            assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
            rates.append((out / "rate.json").read_bytes())
        assert rates[0] == rates[1]

    def test_condition21_requires_brownian_driver(self, tmp_path):
        cfg = _write_config(tmp_path, "c21.json", {
            "driver": {"kind": "polynomial", "coeffs": [[0.0, 1.0]],
                       "area": "analytic", "samples": 257},
            "alpha": 0.45, "beta": 0.55,
        })
        assert main(["condition21", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("subcommand, config", [
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": 30}}),
        ("solve", {**SOLVE_CONFIG, "y0": [float("nan")]}),
        ("solve", {**SOLVE_CONFIG, "field": {"kind": "diagonal_linear", "n": 2},
                   "y0": [1.0, 1.0]}),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 2, "level": 8, "seed": 42},
            "field": {"kind": "constant", "matrix": [[1.0, 0.5]]},
            "y0": [1.0],
            "k_values": [16, 64],
            "oracle": "gbm_ito",
        }),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "k_values": [16, 48],
            "oracle": "gbm_ito",
        }),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": None}}),
        ("condition21", {"driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
                         "alpha": None, "beta": 0.55}),
        ("explosion", {"envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
                       "p": None, "include_driver": False}),
        ("solve", {**SOLVE_CONFIG, "field": {"kind": "constant", "matrix": [[None]]}}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "corrected", "gamma": 1.5}}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "corrected", "p": 2.0}}),
        ("condition21", {**C21_CONFIG, "levels": []}),
        ("condition21", {**C21_CONFIG, "levels": [9]}),
        ("condition21", {**C21_CONFIG, "levels": [-1]}),
        ("condition21", {**C21_CONFIG, "window_cap": 0}),
        ("condition21", {**C21_CONFIG, "alpha": 1.5}),
        ("solve", {**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"], "max_span": 0}}),
        ("solve", {**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"], "gamma": -3.0}}),
        ("solve", {**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"], "pairs": "bogus"}}),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": 6},
                   "defect": {**SOLVE_CONFIG["defect"], "pairs": [[0, 99]]}}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "euler"},
                   "driver": {"kind": "polynomial", "coeffs": [], "area": "none"}}),
        ("chen-check", {**CHEN_CONFIG, "n_triples": 0}),
        ("chen-check", {**CHEN_CONFIG, "n_triples": -3}),
        ("curve", {**CURVE_CONFIG, "samples": 0}),
        ("curve", {**CURVE_CONFIG, "samples": 1}),
        ("curve", {**CURVE_CONFIG, "n_pairs": 0}),
        ("curve", {**CURVE_CONFIG, "n_pairs": -5}),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": float("inf")}}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "corrected",
                                              "explosion_threshold": float("inf")}}),
        ("solve", {"driver": {"kind": "chain", "alpha": 0.7, "depth": 3, "samples": 257},
                   "field": {"kind": "constant", "matrix": [[1.0, 0.0]]},
                   "scheme": {"scheme": "corrected"}, "y0": [0.0]}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "euler"},
                   "driver": {"kind": "polynomial", "coeffs": {"a": 1}, "area": "none"}}),
        ("solve", {**SOLVE_CONFIG, "defect": 3}),
        ("explosion", {"envelope": None, "p": 1.5, "include_driver": False}),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "samples": 257}}),
        ("solve", {**CHAIN_SOLVE_CONFIG,
                   "driver": {**CHAIN_SOLVE_CONFIG["driver"], "seed": 42}}),
        ("solve", {**SOLVE_CONFIG, "field": {"kind": "scalar_linear", "n": 1}}),
        ("explosion", {"envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
                       "p": 1.5, "include_driver": "no"}),
        ("solve", {**SOLVE_CONFIG, "expect_explosion": "no"}),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "k_values": [0, 4],
            "oracle": "gbm_ito",
        }),
        ("solve", {**CHAIN_SOLVE_CONFIG,
                   "driver": {**CHAIN_SOLVE_CONFIG["driver"], "samples": 100000}}),
        ("curve", {**CURVE_CONFIG, "samples": 100000}),
        ("chen-check", {**CHEN_CONFIG, "n_triples": 2**20 + 1}),
        ("curve", {**CURVE_CONFIG, "n_pairs": 2**20 + 1}),
        ("nonuniqueness", {"exponents": {"beta_exp": 0.0}}),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "k_values": [16, 64, 256],
            "oracle": "gbm_ito",
            "drop_coarsest": -1,
        }),
        ("condition21", {**C21_CONFIG, "driver": {**C21_CONFIG["driver"], "area": "none"}}),
        ("condition21", {**C21_CONFIG,
                         "driver": {**C21_CONFIG["driver"], "area": "stratonovich"}}),
        ("solve", {**SOLVE_CONFIG, "field": {"kind": "diagonal_linear", "n": 1.5}}),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": True}}),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": "8"}}),
        ("solve", {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "t_end": True}}),
        ("solve", {**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"], "max_span": 16.5}}),
        ("solve", {**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"],
                                              "pairs": [[0, 4.5]]}}),
        ("solve", {**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"],
                                              "pairs": [[0, True]]}}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "corrected",
                                              "explosion_threshold": True}}),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "k_values": [4.5, 16],
            "oracle": "gbm_ito",
        }),
        ("condition21", {**C21_CONFIG, "levels": [True, 6]}),
        ("nonuniqueness", {"exponents": {"grid": 256.5}}),
        ("explosion", {**EXPLOSION_CONFIG, "p": True, "include_driver": False}),
        ("curve", {**CURVE_CONFIG, "seed": True}),
        ("solve", {**SOLVE_CONFIG, "y0": [True]}),
        ("solve", {**SOLVE_CONFIG, "field": {"kind": "constant", "matrix": [[True]]}}),
        ("solve", {**SOLVE_CONFIG, "field": {"kind": "constant", "matrix": [[1.0], [1.0]]},
                   "y0": [True, 0.5]}),
        ("solve", {**SOLVE_CONFIG, "driver": {"kind": "polynomial",
                                              "coeffs": [[0.0, True, 0.5]]}}),
        ("solve", {**SOLVE_CONFIG, "y0": ["1.0"]}),
        ("curve", {**CURVE_CONFIG, "depth": 1}),
        ("explosion", {"envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
                       "p": 1.0}),
        ("nonuniqueness", {"exponents": {"gamma": 1.05, "p": 5.0, "beta_exp": 1.0,
                                         "rho_exp": 3.0}}),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "constant", "matrix": [[1.0], [2.0]]},
            "y0": [1.0, 1.0],
            "k_values": [16, 64],
            "oracle": "gbm_ito",
        }),
        # requests beyond any address space, so that nothing is allocated whatever the
        # host's overcommit policy: an (n, n, n) tensor of 8e18 bytes, 8e17 bytes of samples
        ("solve", {"driver": {"kind": "brownian", "d": 2, "level": 4, "seed": 1},
                   "field": {"kind": "diagonal_linear", "n": 10**6}, "y0": [1.0, 1.0]}),
        ("solve", {**SOLVE_CONFIG, "scheme": {"scheme": "euler"},
                   "driver": {"kind": "polynomial", "coeffs": [[0.0, 1.0]], "area": "none",
                              "samples": 1e17}}),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "k_values": [256, 256],
            "oracle": "gbm_ito",
        }),
        ("convergence", {
            "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42},
            "field": {"kind": "constant", "matrix": [[0.0]]},
            "y0": [1.0],
            "k_values": [16, 64, 256],
            "oracle": "gbm_ito",
        }),
        *[("convergence", config) for config in _GBM_LIMIT_MISMATCHES],
    ], ids=["level-out-of-range", "nan-y0", "field-driver-mismatch", "oracle-needs-d1",
            "mesh-not-dividing-grid", "null-level", "null-alpha", "null-p", "null-matrix",
            "scheme-gamma", "scheme-p", "c21-no-levels", "c21-level-finer-than-driver",
            "c21-negative-level", "c21-window-cap-0", "c21-alpha-out-of-range",
            "defect-max-span-0", "defect-negative-gamma", "defect-unknown-pairs",
            "defect-pair-outside-trajectory", "polynomial-no-coeffs", "chen-no-triples",
            "chen-negative-triples", "curve-no-samples", "curve-one-sample",
            "curve-no-pairs", "curve-negative-pairs", "infinite-level",
            "infinite-threshold", "chain-corrected", "polynomial-coeffs-object",
            "defect-not-object", "null-envelope", "samples-on-brownian", "seed-on-chain",
            "n-on-scalar-linear", "include-driver-text", "expect-explosion-text",
            "conv-zero-mesh", "chain-too-many-samples", "curve-too-many-samples",
            "chen-too-many-triples", "curve-too-many-pairs", "zero-beta-exp",
            "conv-negative-drop", "c21-area-none", "c21-area-stratonovich",
            "fractional-n", "boolean-level", "text-level", "boolean-t-end",
            "fractional-max-span", "fractional-pair-index", "boolean-pair-index",
            "boolean-threshold", "fractional-mesh", "boolean-c21-level",
            "fractional-grid", "boolean-p", "boolean-curve-seed", "boolean-y0",
            "boolean-matrix", "boolean-in-mixed-y0", "boolean-coeffs", "text-y0", "curve-depth-1",
            "explosion-p-1", "nonuniqueness-tail-integral", "oracle-size-not-state",
            "huge-diagonal-n-not-driver-d", "polynomial-samples-beyond-memory",
            "conv-repeated-mesh", "gbm-oracle-on-constant-field", "gbm-ito-on-polynomial",
            "gbm-ito-on-corrected-stratonovich", "gbm-stratonovich-on-euler",
            "gbm-stratonovich-on-corrected-ito"])
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, subcommand, config):
        cfg = _write_config(tmp_path, "bad.json", config)
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({**SOLVE_CONFIG, "scheme": {"scheme": "euler", "explosion_threshold": 1e200}},
         "must be positive, at least 1e-150 and at most 1e150, got 1e+200"),
        ({**SOLVE_CONFIG, "scheme": {"scheme": "euler", "explosion_threshold": 1e-200}},
         "must be positive, at least 1e-150 and at most 1e150, got 1e-200"),
        ({**SOLVE_CONFIG, "scheme": {"scheme": "euler", "explosion_threshold": 0.5},
          "expect_explosion": True},
         "a defect needs two states, the trajectory has a single state (t=0, exploded_at=0)"),
        # json.dumps writes inf as Infinity, which json.loads reads back
        ({**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "t_end": float("inf")}},
         "t_end must be finite, got inf"),
        ({**SOLVE_CONFIG, "defect": {**SOLVE_CONFIG["defect"], "pairs": 5}},
         "pairs has an invalid value 5: expected a list of index pairs"),
    ], ids=["threshold-above-1e150", "threshold-below-1e-150", "defect-on-a-single-state",
            "infinite-t-end", "pairs-a-number"])
    def test_refusal_names_its_cause(self, tmp_path, capsys, config, message):
        cfg = _write_config(tmp_path, "bad.json", config)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not out.exists()

    def test_non_finite_result_exits_3_without_output(self, tmp_path, capsys):
        # increments near 1e-202 square to a control constant that underflows to 0,
        # while roundoff leaves nonzero window defects: their ratios are inf
        cfg = _write_config(tmp_path, "tiny.json", {
            "driver": {"kind": "polynomial", "coeffs": [[0.0, 1e-200, 1e-200]],
                       "area": "none", "samples": 65},
            "field": {"kind": "constant", "matrix": [[1.0]]},
            "y0": [0.0],
            "defect": {"gamma": 1.5, "p": 2.0, "pairs": "window"},
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure")
        assert not out.exists()

    def test_out_naming_a_file_exits_2_and_leaves_it(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert out.read_text() == "not a directory\n"

    def test_saturating_time_grid_exits_2_naming_it(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "fast.json", {
            "envelope": {"growth_exp": 2.3, "area_exp": 1.5, "beta": 0.8}, "p": 1.5})
        out = tmp_path / "out"
        assert main(["explosion", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "too fast" in err
        assert not out.exists()

    def test_homogenization_past_float64_exits_2_naming_it(self, tmp_path, capsys):
        # r_hom = 80 at p 1.01, where 1e4**(r_hom - e) overflows a float
        cfg = _write_config(tmp_path, "near1.json", {
            "envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8}, "p": 1.01})
        out = tmp_path / "out"
        assert main(["explosion", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: homogenization leaves float64 at p=1.01, beta=0.8")
        assert "r_hom=80" in err and not out.exists()

    @pytest.mark.parametrize("envelope, cause", [
        ({"growth_exp": 400, "area_exp": 400, "beta": 1.0}, "envelope exponents overflow"),
        ({"growth_exp": 2.0, "area_exp": 0.4, "beta": 0.8}, "envelope pairing"),
        ({"growth_exp": float("nan"), "area_exp": 0.4, "beta": 0.8}, "must be finite"),
    ], ids=["overflowing", "unpaired", "nan-growth"])
    def test_inadmissible_envelope_exits_2_naming_it(self, tmp_path, capsys, envelope,
                                                     cause):
        cfg = _write_config(tmp_path, "bad.json", {"envelope": envelope, "p": 1.5})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["explosion", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert not caught and "Warning" not in err
        assert err.startswith("config error") and cause in err
        assert not out.exists()

    def test_unwritable_artifact_exits_2_without_manifest(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "explosion.json",
                            {**EXPLOSION_CONFIG, "include_driver": False})
        out = tmp_path / "out"
        (out / "explosion.json").mkdir(parents=True)
        assert main(["explosion", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["explosion.json"]

    @pytest.mark.parametrize("oracle, crossing", [
        ("gbm_ito", "mesh k=16"), ("fine", "the fine-grid reference")])
    def test_crossing_convergence_solve_exits_3_without_output(self, tmp_path, capsys,
                                                               oracle, crossing):
        # the config declares no explosion, and a solve stopped at the threshold
        # has no terminal state at T
        cfg = _write_config(tmp_path, "crossing.json", {
            "driver": {"kind": "brownian", "d": 1, "level": 12, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "scheme": {"scheme": "euler", "explosion_threshold": 1.05},
            "y0": [1.0],
            "k_values": [16, 64, 256],
            "oracle": oracle,
        })
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {crossing} crossed the explosion threshold")
        assert not out.exists()

    def test_oracle_overflow_exits_3_without_output(self, tmp_path, capsys):
        # on seed 1 the increment over t_end = 1e6 is about 941, and exp(941) overflows
        cfg = _write_config(tmp_path, "huge.json", {
            "driver": {"kind": "brownian", "d": 1, "level": 6, "t_end": 1e6,
                       "area": "stratonovich"},
            "field": {"kind": "scalar_linear"},
            "scheme": {"scheme": "corrected"},
            "y0": [1.0],
            "k_values": [4, 16],
            "oracle": "gbm_stratonovich",
        })
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out), "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_subcommand_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x", "--out", "y"])

    def test_integral_floats_read_as_integers(self, tmp_path):
        # 2.0 where an integer is read is the integer 2: same run, same manifest
        as_float = {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": 8.0},
                    "field": {"kind": "diagonal_linear", "n": 1.0},
                    "defect": {**SOLVE_CONFIG["defect"], "max_span": 16.0}}
        as_int = {**SOLVE_CONFIG, "field": {"kind": "diagonal_linear", "n": 1}}
        outs = []
        for name, config in (("float", as_float), ("int", as_int)):
            outs.append(tmp_path / name)
            cfg = _write_config(tmp_path, f"{name}.json", config)
            assert main(["solve", "--config", cfg, "--out", str(outs[-1])]) == 0
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert manifest["config"]["driver"]["level"] == 8
        assert isinstance(manifest["config"]["driver"]["level"], int)
        for name in ("manifest.json", "trajectory.csv", "defect.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestParser:
    @pytest.mark.parametrize("subcommand", sorted(cli._HANDLERS))
    def test_every_subcommand_parses_its_flags(self, subcommand):
        for argv in ([subcommand, "--config", "c.json", "--out", "o", "--seed", "7"],
                     ["--seed", "7", "--out", "o", subcommand, "--config", "c.json"]):
            args = cli._PARSER.parse_args(argv)
            assert (args.subcommand, args.config, args.out, args.seed) == (
                subcommand, "c.json", "o", 7)

    def test_version_exits_0_and_prints_it(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_missing_out_exits_without_output(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, "curve.json", CURVE_CONFIG)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--config", cfg])
        assert exc.value.code != 0
        assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]

    def test_no_state_leaks_between_calls(self, tmp_path):
        cfg = _write_config(tmp_path, "curve.json", CURVE_CONFIG)
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        first, second = (json.loads((tmp_path / name / "manifest.json").read_text())
                         for name in ("a", "b"))
        assert (first["seed_override"], first["config"]["seed"]) == (7, 7)
        assert second["seed_override"] is None
        assert second["config"]["seed"] == CURVE_CONFIG["seed"]

    def test_fresh_process_matches_in_process_run(self, tmp_path):
        # a parser built before the subcommands registered would offer no choices
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        run = partial(subprocess.run, capture_output=True, text=True, env=env, timeout=120)
        version = run([sys.executable, "-m", "roughstep.cli", "--version"])
        assert version.returncode == 0 and version.stdout.strip() == __version__
        cfg = _write_config(tmp_path, "gallery.json",
                            {**EXPLOSION_CONFIG, "include_driver": False})
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        result = run([sys.executable, "-m", "roughstep.cli", "explosion",
                      "--config", cfg, "--out", str(fresh)])
        assert result.returncode == 0, result.stderr
        assert main(["explosion", "--config", cfg, "--out", str(here)]) == 0
        for name in ("manifest.json", "explosion.json"):
            assert (fresh / name).read_bytes() == (here / name).read_bytes()


class TestOtherSubcommands:
    def test_convergence(self, tmp_path):
        cfg = _write_config(tmp_path, "conv.json", {
            "driver": {"kind": "brownian", "d": 1, "level": 10, "seed": 42},
            "field": {"kind": "scalar_linear"},
            "y0": [1.0],
            "k_values": [16, 64, 256],
            "oracle": "gbm_ito",
        })
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "rate.json").read_text())
        assert report["scheme"] == "euler"
        assert len(report["errors"]) == 3

    def test_chen_check(self, tmp_path):
        cfg = _write_config(tmp_path, "chen.json", {
            "driver": {"kind": "brownian", "d": 2, "level": 8, "seed": 42,
                       "area": "stratonovich"},
            "n_triples": 200,
        })
        out = tmp_path / "out"
        assert main(["chen-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "chen.json").read_text())
        assert report["max_residual"] <= 1e-12

    def test_chen_check_degenerate_polynomial(self, tmp_path):
        cfg = _write_config(tmp_path, "chen.json", {
            "driver": {"kind": "polynomial", "coeffs": [[0.0, 1.0, 0.5], [1.0, -2.0, 3.0]],
                       "area": "degenerate", "samples": 129},
            "n_triples": 200,
        })
        out = tmp_path / "out"
        assert main(["chen-check", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "chen.json").read_text())
        assert report["kind"] == "degenerate"
        assert report["max_residual"] <= 1e-12

    def test_condition21(self, tmp_path):
        cfg = _write_config(tmp_path, "c21.json", {
            "driver": {"kind": "brownian", "d": 2, "level": 8, "seed": 42},
            "alpha": 0.45, "beta": 0.55, "levels": [4, 5, 6, 7, 8],
        })
        out = tmp_path / "out"
        assert main(["condition21", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "condition21.json").read_text())
        assert report["ito"]["value"] > 0
        assert report["stratonovich"]["value"] > report["ito"]["value"]

    def test_nonuniqueness(self, tmp_path):
        cfg = _write_config(tmp_path, "nu.json", {"exponents": {"grid": 8192}})
        out = tmp_path / "out"
        assert main(["nonuniqueness", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "nonuniqueness.json").read_text())
        assert report["ratio"] > 1.0
        assert (out / "trajectory.csv").exists()

    def test_explosion(self, tmp_path):
        cfg = _write_config(tmp_path, "expl.json", {
            "envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
            "p": 1.5, "gamma": 1.7,
        })
        out = tmp_path / "out"
        assert main(["explosion", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "explosion.json").read_text())
        assert report["criterion"]["verdict"] == "converges"

    def test_curve(self, tmp_path):
        cfg = _write_config(tmp_path, "curve.json", {
            "alpha": 0.7, "depth": 4, "n_pairs": 500, "seed": 7,
        })
        out = tmp_path / "out"
        assert main(["curve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "curve.json").read_text())
        assert report["c_lower"] > 0
        assert report["band_ratio"] < 50
        assert 0.5 < report["holder_exponent"] < 1.0

    def test_curve_requires_seed(self, tmp_path):
        cfg = _write_config(tmp_path, "curve.json",
                            {"alpha": 0.7, "depth": 4, "n_pairs": 500})
        assert main(["curve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# One small valid config per subcommand (one per driver kind for solve); every
# driver stays at level 8 or below and the explosion driver is not built.
FUZZ_BASES = {
    "solve": [
        {**SOLVE_CONFIG, "driver": {**SOLVE_CONFIG["driver"], "level": 6},
         "scheme": {"scheme": "corrected", "explosion_threshold": 1e6},
         "defect": {**SOLVE_CONFIG["defect"], "max_span": 8}, "expect_explosion": False},
        {"driver": {"kind": "polynomial", "coeffs": [[0.0, 1.0], [0.0, 0.5]], "t_end": 1.0,
                    "samples": 65, "area": "analytic"},
         "field": {"kind": "diagonal_linear", "n": 2}, "scheme": {"scheme": "euler"},
         "y0": [1.0, 1.0], "defect": {"gamma": 1.5, "p": 2.0, "pairs": [[0, 1], [0, 4]]}},
        {**CHAIN_SOLVE_CONFIG, "driver": {**CHAIN_SOLVE_CONFIG["driver"], "depth": 2,
                                          "samples": 65}},
    ],
    "convergence": [{
        "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42, "t_end": 1.0,
                   "substeps": 4},
        "field": {"kind": "scalar_linear"}, "scheme": {"scheme": "euler"}, "y0": [1.0],
        "k_values": [4, 16], "oracle": "gbm_ito", "drop_coarsest": 0,
    }],
    "chen-check": [{**CHEN_CONFIG, "n_triples": 50, "triple_seed": 1}],
    "condition21": [{**C21_CONFIG, "window_cap": 64}],
    "nonuniqueness": [{"exponents": {"gamma": 1.05, "p": 1.9, "beta_exp": 4.0, "rho_exp": 5.0,
                                     "t_max": 0.15, "grid": 256, "t_min_factor": 1e-3,
                                     "ramp": 0.15}}],
    "explosion": [{"envelope": {"growth_exp": 1.2, "area_exp": 0.4, "beta": 0.8},
                   "p": 1.5, "gamma": 1.7, "r_max": 1e4, "include_driver": False}],
    "curve": [{**CURVE_CONFIG, "depth": 2, "n_pairs": 20, "samples": 64}],
}

# Dropping these restores a valid but slow default: the 65,536-point grid (seconds).
SLOW_DROPS = {("exponents",), ("exponents", "grid")}

MUTATIONS = ("drop", "null", "wrong-type", "zero", "negative", "huge", "nested-list",
             "unknown-key")


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutated(config, path, mutation):
    config = json.loads(json.dumps(config))
    *outer, key = path
    block = config
    for k in outer:
        block = block[k]
    if mutation == "drop":
        del block[key]
    elif mutation == "unknown-key":
        block["bogus"] = 1
    else:
        block[key] = {"null": None, "zero": 0, "negative": -1, "huge": 1e300,
                      "nested-list": [[1, [2]]],
                      "wrong-type": 1 if isinstance(block[key], str) else "x"}[mutation]
    return config


@st.composite
def _mutations(draw, subcommand):
    base = draw(st.sampled_from(FUZZ_BASES[subcommand]))
    mutation = draw(st.sampled_from(MUTATIONS))
    paths = [p for p in _key_paths(base) if not (mutation == "drop" and p in SLOW_DROPS)]
    path = draw(st.sampled_from(paths))
    return _mutated(base, path, mutation), path, mutation


class TestConfigFuzz:
    @pytest.mark.parametrize("subcommand", sorted(FUZZ_BASES))
    def test_mutated_config_ends_in_an_exit_code(self, subcommand):
        @settings(max_examples=25, derandomize=True, deadline=None)
        @given(_mutations(subcommand))
        def check(case):
            config, path, mutation = case
            with tempfile.TemporaryDirectory() as tmp:
                cfg = Path(tmp) / "config.json"
                cfg.write_text(json.dumps(config))
                out = Path(tmp) / "out"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
                assert code in (0, 2, 3), (path, mutation)
                assert code == 0 or not out.exists(), (path, mutation)

        check()
