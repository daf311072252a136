"""Whole-stack acceptance gates with fixed numeric thresholds.

Each gate prints a single verdict line carrying its measured numbers (shown
under ``pytest -rA``, or in the failure report when a gate misses) and then
asserts the same conditions.  Gates with a wall-clock budget build their own
drivers inside the timed window instead of leaning on session fixtures, so
the reported time is what a cold run would pay.

One gate is expected to fail: the convention-separation check asks for a
10x margin between the Stratonovich and Ito window statistics at the finest
level, but the drift term caps the Stratonovich side near 9.2 there while
extreme-value pressure holds the Ito side near 2.7, so the achievable margin
is about 3.4x.  The gate is kept as written rather than loosened; see its
docstring for the arithmetic.
"""
from __future__ import annotations

import functools
import json
import math
import time

import numpy as np

import oracles
from roughstep.analysis import (
    chen_residuals,
    condition21_stat,
    convergence_study,
    explosion_criterion,
    gbm_terminal_ito,
    gbm_terminal_stratonovich,
    nonuniqueness_demo,
)
from roughstep.cli import main
from roughstep.core import GrowthEnvelope, VectorField, control_fit
from roughstep.drivers import (
    BrownianConfig,
    PolynomialPath,
    analytic_area,
    brownian_path,
    degenerate_area,
    explosion_driver,
    ito_area,
    stratonovich_area,
)
from roughstep.schemes import (
    augmented_solve,
    corrected_solve,
    defect,
)

# Skew perturbation used to exercise the perturbed-area construction.
_SPIN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _verdict(tag: str, ok: bool, detail: str) -> str:
    line = f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_area_consistency():
    """Every area construction satisfies the composition identity.

    1000 random triples per construction with residual gate 1e-12, plus the
    closed-form polynomial area against a Richardson-extrapolated left
    Riemann sum at 1e-8.  Budget 5 s, timed from a cold build.
    """
    t0 = time.perf_counter()
    cfg = BrownianConfig(d=2, level=10, seed=42)
    path = brownian_path(cfg)
    ito = ito_area(path, cfg)
    poly = PolynomialPath([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    poly_path = poly.sample(np.linspace(0.0, 1.0, 513))
    constructions = {
        "ito": ito,
        "stratonovich": stratonovich_area(ito),
        "degenerate": degenerate_area(path),
        "perturbed": oracles.perturbed_area(ito, lambda s, t: (t - s) * _SPIN),
        "analytic": analytic_area(poly, poly_path),
    }
    worst = max(
        float(chen_residuals(area, n_triples=1000, seed=7).max())
        for area in constructions.values()
    )
    riemann_gap = float(
        np.max(
            np.abs(
                constructions["analytic"].pairs([102], [461])[0]
                - oracles.richardson_area(
                    poly.value, poly_path.times[102], poly_path.times[461], 2**14
                )
            )
        )
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and riemann_gap <= 1e-8 and elapsed < 5.0
    line = _verdict(
        "01 area-consistency",
        ok,
        f"worst triple residual {worst:.2e} <= 1e-12, "
        f"riemann gap {riemann_gap:.2e} <= 1e-8, {elapsed:.2f}s < 5s",
    )
    assert ok, line


def test_criterion_02_scheme_rates_on_geometric_growth():
    """Convergence rates of both steppers on the geometric testbed.

    Linear scalar field, unit horizon, seed 42, meshes 2^4 through 2^12
    against the closed-form terminal value.  Gates: plain stepper slope in
    [-0.65, -0.35], corrected stepper slope at most -0.8 under the Ito
    convention, and terminal error at most 1e-2 on the full grid under the
    Stratonovich convention.  Budget 30 s.
    """
    t0 = time.perf_counter()
    cfg = BrownianConfig(d=1, level=12, seed=42)
    path = brownian_path(cfg)
    ito = ito_area(path, cfg)
    field = VectorField.scalar_linear()
    y0 = np.array([1.0])
    ks = [2**j for j in range(4, 13)]
    euler = convergence_study(
        field, path, y0, ks, scheme="euler", reference=gbm_terminal_ito
    )
    corrected = convergence_study(
        field, path, y0, ks, scheme="corrected", area=ito, reference=gbm_terminal_ito
    )
    strat_traj = corrected_solve(field, path, stratonovich_area(ito), y0)
    strat_err = abs(
        float(strat_traj.states[-1, 0]) - float(gbm_terminal_stratonovich(path, y0)[0])
    )
    elapsed = time.perf_counter() - t0
    ok = (
        -0.65 <= euler.slope <= -0.35
        and corrected.slope <= -0.8
        and strat_err <= 1e-2
        and elapsed < 30.0
    )
    line = _verdict(
        "02 scheme-rates",
        ok,
        f"euler slope {euler.slope:.3f} in [-0.65, -0.35], "
        f"corrected slope {corrected.slope:.3f} <= -0.8, "
        f"strat terminal err {strat_err:.2e} <= 1e-2, {elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_criterion_03_euler_rate_floor(bm1, gbm_field):
    """The plain stepper meets its a priori low-regularity rate.

    For increment exponent 0.45 and window exponent 0.55 the error bound
    scales like K**(0.55 - 2 * 0.45), so the fitted slope on the geometric
    testbed has to sit at or below -0.35.
    """
    _, path, _ = bm1
    study = convergence_study(
        gbm_field,
        path,
        np.array([1.0]),
        [2**j for j in range(4, 13)],
        scheme="euler",
        reference=gbm_terminal_ito,
    )
    floor = 0.55 - 2 * 0.45
    ok = study.slope <= floor
    line = _verdict(
        "03 euler-rate-floor", ok, f"slope {study.slope:.3f} <= {floor:.2f}"
    )
    assert ok, line


@functools.lru_cache(maxsize=1)
def _cancellation_scan():
    """Windowed cancellation statistics on the planar level-12 driver.

    Cached so the two gates that read it share one timed build.
    """
    t0 = time.perf_counter()
    cfg = BrownianConfig(d=2, level=12, seed=42)
    path = brownian_path(cfg)
    ito = ito_area(path, cfg)
    stat_ito = condition21_stat(ito, alpha=0.45, beta=0.55, levels=range(4, 13))
    stat_strat = condition21_stat(
        stratonovich_area(ito), alpha=0.45, beta=0.55, levels=range(4, 13)
    )
    return stat_ito, stat_strat, time.perf_counter() - t0


def test_criterion_04_cancellation_stat_stability():
    """The Ito window statistic is finite and stable across levels.

    Per-level maxima over dyadic levels 4 through 12 may move by at most
    1.5x between consecutive levels.  Budget 60 s for the whole scan,
    including the Stratonovich half read by the next gate.
    """
    stat_ito, _, elapsed = _cancellation_scan()
    levels = np.array(stat_ito.per_level)
    consec = float(np.max(np.maximum(levels[1:] / levels[:-1], levels[:-1] / levels[1:])))
    ok = bool(np.isfinite(stat_ito.value)) and consec <= 1.5 and elapsed < 60.0
    line = _verdict(
        "04a cancellation-stability",
        ok,
        f"stat {stat_ito.value:.3f} finite, worst consecutive ratio "
        f"{consec:.3f} <= 1.5, {elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_criterion_04_convention_separation():
    """Stratonovich windows must dominate Ito windows 10x at level 12.

    This gate is not attainable at these exponents and is expected to fail.
    The Stratonovich statistic exceeds the Ito one by the drift, which
    contributes w * h / 2 per length-w window; normalized by w**0.55 *
    h**0.90 that is w**0.45 * h**0.10 / 2, at most 2**(12 * 0.45 - 1.2) / 2
    = 9.2 at level 12.  The Ito statistic is a maximum over roughly 2**24
    correlated centered windows and sits near 2.7, so the achievable margin
    is about 3.4x.  The gate stays as written instead of being loosened.
    """
    stat_ito, stat_strat, _ = _cancellation_scan()
    ito_top = stat_ito.per_level[-1]
    strat_top = stat_strat.per_level[-1]
    ratio = strat_top / ito_top
    ok = ratio >= 10.0
    line = _verdict(
        "04b convention-separation",
        ok,
        f"strat {strat_top:.3f} / ito {ito_top:.3f} = {ratio:.3f}, gate 10x; "
        f"drift caps the numerator near 9.2 at this level",
    )
    assert ok, line


def test_criterion_05_defect_constant_mesh_stability(bm1, gbm_field):
    """The fitted two-point defect constant survives mesh doubling.

    Corrected runs on 2^10 and 2^11 cells over the same driver, windowed
    pair policy with spans up to 64, exponents gamma 3 and p 2.  The fitted
    constants may differ by at most 20 percent, and adjacent-pair defects
    must vanish exactly because single steps reconstruct bitwise.
    """
    _, path, area = bm1
    y0 = np.array([1.0])
    fits = {}
    traj = None
    for k in (2**10, 2**11):
        stride = path.n_intervals // k
        part = np.arange(0, path.n_intervals + 1, stride)
        traj = corrected_solve(gbm_field, path, area, y0, partition=part)
        report = defect(
            traj, gbm_field, path, gamma=3.0, p=2.0, area=area,
            pairs="window", max_span=64,
        )
        fits[k] = report.fitted_constant
    ratio = fits[2**11] / fits[2**10]
    adjacent = defect(
        traj, gbm_field, path, gamma=3.0, p=2.0, area=area, pairs="adjacent"
    )
    zeros = bool(np.all(adjacent.magnitudes == 0.0))
    ok = 0.8 <= ratio <= 1.2 and zeros
    line = _verdict(
        "05 defect-mesh-stability",
        ok,
        f"fit ratio {ratio:.3f} in [0.8, 1.2], "
        f"adjacent defects all zero: {zeros}",
    )
    assert ok, line


def test_criterion_06_derivative_flow_matches_fd(poly_pair, smooth22):
    """The augmented Jacobian tracks central finite differences.

    Corrected stepping of a dense 2x2 field over the smooth polynomial
    driver with its closed-form area; gate 1e-4 relative error in the
    max-entry norm.
    """
    poly, path, area = poly_pair
    z0 = np.array([0.4, -0.3])
    aug = augmented_solve(smooth22, path, z0, scheme="corrected", area=area)
    jac = oracles.jacobian_view(aug, 2)[-1]
    fd = oracles.central_jacobian(
        lambda y: corrected_solve(smooth22, path, area, y).states[-1], z0
    )
    rel = float(np.max(np.abs(jac - fd)) / np.max(np.abs(fd)))
    ok = rel <= 1e-4
    line = _verdict("06 derivative-flow", ok, f"relative error {rel:.2e} <= 1e-4")
    assert ok, line


def test_criterion_07_distinct_solutions_same_driver():
    """Two admissible trajectories separate far beyond their defect scale.

    Both branches of the oscillatory counterexample carry finite fitted
    defect constants, yet their terminal gap must exceed ten times the
    shared defect scale at the documented exponents.
    """
    report = nonuniqueness_demo()
    fit_a = report.defect_a.fitted_constant
    fit_b = report.defect_b.fitted_constant
    finite = math.isfinite(fit_a) and math.isfinite(fit_b)
    ok = finite and report.separation > 10.0 * report.defect_scale
    line = _verdict(
        "07 nonuniqueness",
        ok,
        f"separation {report.separation:.3e} = {report.ratio:.1f}x defect scale "
        f"{report.defect_scale:.3e}, fits ({fit_a:.2e}, {fit_b:.2e}) finite, "
        f"gamma {report.config.gamma}, p {report.config.p}",
    )
    assert ok, line


def test_criterion_08_two_sided_holder_band(chain6):
    """Empirical two-sided scale band of the nested-chain curve.

    10^4 random pairs at exponent 0.7 and depth 6; both constants must be
    positive and finite with a band ratio of at most 50.
    """
    c_lower, c_upper = chain6.band_stats(10**4, np.random.default_rng(42))
    ratio = c_upper / c_lower
    ok = 0.0 < c_lower and math.isfinite(c_upper) and ratio <= 50.0
    line = _verdict(
        "08 holder-band",
        ok,
        f"c_lower {c_lower:.4f}, c_upper {c_upper:.4f}, ratio {ratio:.2f} <= 50",
    )
    assert ok, line


def test_criterion_09_explosion_gallery():
    """Blow-up driver, control fit, and envelope classification agree.

    The driven state must cross 1e6 strictly before the computed blow-up
    time, the driver path must admit a finite p-variation control fit, and
    the integral classifier must match the closed-form exponent verdict on
    a 5x5 grid of power-law envelopes.  Budget 60 s.
    """
    t0 = time.perf_counter()
    driver = explosion_driver(GrowthEnvelope(1.2, 0.4, 0.8), 1.5)
    _, path, t_star = driver
    traj = driver.state_trajectory()
    hit = traj.exploded_at
    t_hit = float(traj.times[hit]) if hit is not None else math.inf
    crossed = hit is not None and t_hit < t_star and np.max(np.abs(traj.states)) > 1e6
    fit = control_fit(path, 1.5)
    mismatches = []
    for a_exp in (0.3, 0.6, 0.9, 1.2, 1.5):
        for delta in (-0.4, -0.2, 0.0, 0.4, 0.8):
            g_exp = a_exp + delta
            got = explosion_criterion(
                GrowthEnvelope(g_exp, a_exp, 0.8), 1.5, 1.7
            ).verdict
            want = oracles.power_law_verdict(a_exp, g_exp, 0.8, 1.5)
            if got != want:
                mismatches.append((a_exp, g_exp, got, want))
    elapsed = time.perf_counter() - t0
    ok = (
        crossed
        and math.isfinite(fit.c)
        and fit.c > 0
        and not mismatches
        and elapsed < 60.0
    )
    line = _verdict(
        "09 explosion-gallery",
        ok,
        f"threshold at t {t_hit:.3f} < t* {t_star:.3f}, control c {fit.c:.3f}, "
        f"grid {25 - len(mismatches)}/25, {elapsed:.1f}s < 60s",
    )
    assert ok, line


def test_criterion_10_cli_reruns_byte_identical(tmp_path):
    """Identical config and seed reproduce every artifact byte for byte."""
    config = {
        "driver": {"kind": "brownian", "d": 1, "level": 8, "seed": 42, "area": "ito"},
        "field": {"kind": "scalar_linear"},
        "scheme": {"scheme": "corrected"},
        "y0": [1.0],
        "defect": {"gamma": 3.0, "p": 2.0, "pairs": "window", "max_span": 16},
    }
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same_names = names == sorted(p.name for p in outs[1].iterdir())
    same_bytes = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    ok = same_names and same_bytes
    line = _verdict(
        "10 determinism", ok, f"{len(names)} artifacts byte-identical across reruns"
    )
    assert ok, line
