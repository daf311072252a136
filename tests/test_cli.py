"""End-to-end tests of the command-line entry point."""
from __future__ import annotations

import hashlib
import json

import pytest

from roughstep.cli import main


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
        cfg = _write_config(tmp_path, "solve.json", SOLVE_CONFIG)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "solve"
        assert manifest["seed_override"] is None
        assert set(manifest["artifacts"]) == {"defect.json", "trajectory.csv"}
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
    ], ids=["level-out-of-range", "nan-y0", "field-driver-mismatch", "oracle-needs-d1",
            "mesh-not-dividing-grid", "null-level", "null-alpha", "null-p", "null-matrix"])
    def test_bad_config_exits_2_without_traceback(self, tmp_path, capsys, subcommand, config):
        cfg = _write_config(tmp_path, "bad.json", config)
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert not out.exists()

    def test_unknown_subcommand_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x", "--out", "y"])


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
