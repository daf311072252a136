"""Tests for the estimators, verifiers, and report objects."""
from __future__ import annotations

import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import roughstep.core as core
from roughstep.core import AreaProcess, DriverPath, GrowthEnvelope, NumericsError, VectorField
from roughstep.drivers import (
    BrownianConfig,
    ChainCurve,
    CounterexampleConfig,
    brownian_path,
    ito_area,
    stratonovich_area,
)
from roughstep.analysis import (
    chen_residuals,
    condition21_stat,
    convergence_study,
    explosion_criterion,
    gbm_terminal_ito,
    gbm_terminal_stratonovich,
    holder_estimate,
    nonuniqueness_demo,
)


class TestClosedFormTerminals:
    def test_ito_terminal_matches_oracle(self, bm1):
        _, path, _ = bm1
        w = float(path.values[-1, 0])
        got = gbm_terminal_ito(path, 2.0)[0]
        assert got == pytest.approx(oracles.gbm_ito_terminal(w, 1.0, 2.0), rel=1e-15)

    def test_stratonovich_terminal_matches_oracle(self, bm1):
        _, path, _ = bm1
        w = float(path.values[-1, 0])
        got = gbm_terminal_stratonovich(path, 2.0)[0]
        assert got == pytest.approx(oracles.gbm_strat_terminal(w, 2.0), rel=1e-15)

    def test_stratonovich_terminal_is_the_plain_exponential_bitwise(self, bm1, bm2):
        # the two oracles share one body; rate.json records each by its own name
        _, path, _ = bm1
        dw = float(path.values[-1, 0] - path.values[0, 0])
        assert gbm_terminal_stratonovich(path, [2.0]).tolist() == [2.0 * math.exp(dw)]
        assert gbm_terminal_ito.__name__ == "gbm_terminal_ito"
        assert gbm_terminal_stratonovich.__name__ == "gbm_terminal_stratonovich"
        with pytest.raises(ValueError, match="one-dimensional"):
            gbm_terminal_stratonovich(bm2[1], 1.0)

    def test_scalar_only(self, bm2):
        _, path, _, _ = bm2
        with pytest.raises(ValueError):
            gbm_terminal_ito(path, 1.0)


class TestConvergenceStudy:
    def test_exact_runs_are_flagged_not_fitted(self, bm1):
        _, path, _ = bm1
        field = VectorField.constant(np.zeros((1, 1)))
        report = convergence_study(field, path, np.array([2.0]),
                                   k_values=[16, 64, 256],
                                   reference=np.array([2.0]))
        assert report.exact and math.isnan(report.slope)
        assert report.n_zero == 3 and report.k_values.size == 0

    def test_errors_shrink_under_refinement(self, bm1, gbm_field):
        _, path, area = bm1
        report = convergence_study(gbm_field, path, np.array([1.0]),
                                   k_values=[16, 64, 256, 1024],
                                   scheme="corrected", area=area,
                                   reference=gbm_terminal_ito)
        assert report.oracle == "gbm_terminal_ito"
        assert report.errors[-1] < report.errors[0]
        assert report.slope < -0.5
        assert report.n_dropped == 2

    def test_fine_grid_fallback_reference(self, bm1, gbm_field):
        _, path, area = bm1
        report = convergence_study(gbm_field, path, np.array([1.0]),
                                   k_values=[16, 64, 256], area=area)
        assert report.oracle == "corrected scheme on the full grid"
        assert np.all(report.errors > 0)

    def test_input_validation(self, bm1, gbm_field):
        _, path, area = bm1
        y0 = np.array([1.0])
        with pytest.raises(ValueError):
            convergence_study(gbm_field, path, y0, k_values=[16])
        with pytest.raises(ValueError):
            convergence_study(gbm_field, path, y0, k_values=[3, 6],
                              reference=gbm_terminal_ito)
        with pytest.raises(ValueError):
            convergence_study(gbm_field, path, y0, k_values=[16, 64],
                              scheme="heun", reference=gbm_terminal_ito)
        with pytest.raises(ValueError):
            convergence_study(gbm_field, path, y0, k_values=[16, 64],
                              scheme="corrected", reference=gbm_terminal_ito)
        with pytest.raises(ValueError):
            convergence_study(gbm_field, path, y0, k_values=[512, 1024], area=area)

    @pytest.mark.parametrize("k_values", [[0, 4], [-4, 4]])
    def test_mesh_below_one_rejected(self, bm1, gbm_field, k_values):
        _, path, _ = bm1
        with pytest.raises(ValueError, match="at least 1"):
            convergence_study(gbm_field, path, np.array([1.0]), k_values=k_values,
                              reference=gbm_terminal_ito)

    @pytest.mark.parametrize("k_values", [[256, 256], [64, 16, 64, 256]])
    def test_repeated_mesh_size_refused(self, bm1, gbm_field, k_values):
        """Two fit points at one mesh size would fit a slope through a repeat."""
        _, path, _ = bm1
        with pytest.raises(ValueError, match=r"mesh size \d+ is given more than once"):
            convergence_study(gbm_field, path, np.array([1.0]), k_values=k_values,
                              reference=gbm_terminal_ito)

    def test_fractional_mesh_sizes_refused(self, bm1, gbm_field):
        _, path, _ = bm1
        for ks in ([16.9, 32.2, 64.7], [16.0, 64.0]):
            with pytest.raises(TypeError):
                convergence_study(gbm_field, path, np.array([1.0]), k_values=ks,
                                  reference=gbm_terminal_ito)
        report = convergence_study(gbm_field, path, np.array([1.0]), reference=gbm_terminal_ito,
                                   k_values=np.array([16, 64, 256], dtype=np.int32))
        assert report.k_values.tolist() == [16, 64, 256]

    def test_boolean_mesh_sizes_refused(self, bm1, gbm_field):
        _, path, _ = bm1
        for ks in ([True, 4, 8], [np.True_, 4]):
            with pytest.raises(TypeError, match="mesh size must be an integer"):
                convergence_study(gbm_field, path, np.array([1.0]), k_values=ks,
                                  reference=gbm_terminal_ito)

    @pytest.mark.parametrize("drop", [True, 1.5, 2.0])
    def test_fractional_or_boolean_drop_coarsest_refused(self, bm1, gbm_field, drop):
        """``True`` would be reported as ``n_dropped=True``, and a float as a slice bound
        fails only when the fit has meshes to drop."""
        _, path, _ = bm1
        with pytest.raises(TypeError, match="drop_coarsest must be an integer"):
            convergence_study(gbm_field, path, np.array([1.0]), k_values=[16, 32, 64, 128, 256],
                              reference=gbm_terminal_ito, drop_coarsest=drop)

    def test_negative_drop_coarsest_rejected(self, bm1, gbm_field):
        _, path, _ = bm1
        with pytest.raises(ValueError, match="drop_coarsest"):
            convergence_study(gbm_field, path, np.array([1.0]), k_values=[16, 64, 256],
                              reference=gbm_terminal_ito, drop_coarsest=-1)

    @pytest.mark.parametrize("reference, message", [
        (gbm_terminal_ito, "mesh k=16 crossed the explosion threshold at index 1"),
        (None, "the fine-grid reference crossed the explosion threshold at index 23"),
    ], ids=["mesh", "fine-reference"])
    def test_a_crossing_solve_is_refused(self, bm1, gbm_field, reference, message):
        # a solve stopped at the threshold has no terminal state at T to fit
        _, path, area = bm1
        with pytest.raises(NumericsError) as info:
            convergence_study(gbm_field, path, np.array([1.0]), k_values=[16, 64, 256],
                              area=area, reference=reference, explosion_threshold=1.05)
        assert str(info.value) == message

    @pytest.mark.parametrize("reference", [gbm_terminal_ito, np.array([1.0])],
                             ids=["callable", "array"])
    def test_reference_of_another_size_is_refused(self, bm1, reference):
        # a terminal state of one component would broadcast against a state of two
        _, path, _ = bm1
        field = VectorField.constant([[1.0], [2.0]])
        with pytest.raises(ValueError, match="reference has 1 components, the field's state has 2"):
            convergence_study(field, path, np.array([1.0, 1.0]), k_values=[16, 64, 256],
                              reference=reference)

    def test_report_serializes(self, bm1, gbm_field):
        _, path, _ = bm1
        report = convergence_study(gbm_field, path, np.array([1.0]),
                                   k_values=[16, 64, 256],
                                   reference=gbm_terminal_ito)
        payload = report.to_dict()
        assert payload["scheme"] == "euler"
        assert len(payload["errors"]) == len(payload["k_values"])
        assert isinstance(payload["slope"], float)


@pytest.fixture(scope="module")
def areas10():
    cfg = BrownianConfig(d=2, level=10, seed=42)
    path = brownian_path(cfg)
    ito = ito_area(path, cfg)
    return ito, stratonovich_area(ito)


class TestCondition21:
    def test_zero_blocks_on_flat_path_give_zero(self):
        path = DriverPath(np.linspace(0, 1, 257), np.zeros((257, 2)))
        area = AreaProcess(path, np.zeros((256, 2, 2)), "degenerate")
        stat = condition21_stat(area, 0.45, 0.55, levels=[4, 8])
        assert stat.value == 0.0 and stat.per_level == [0.0, 0.0]
        assert stat.argmax == (0, 1, 2.0**-4)

    def test_quadratic_scaling(self, areas10):
        ito, _ = areas10
        base = condition21_stat(ito, 0.45, 0.55, levels=range(4, 11))
        scaled_path = DriverPath(ito.path.times, ito.path.values * 3.0)
        scaled = AreaProcess(scaled_path, ito.per_interval * 9.0, "ito")
        stat = condition21_stat(scaled, 0.45, 0.55, levels=range(4, 11))
        assert stat.value == pytest.approx(9.0 * base.value, rel=1e-12)

    def test_argmax_recompute_is_bitwise(self, areas10):
        ito, _ = areas10
        stat = condition21_stat(ito, 0.45, 0.55, levels=range(4, 11))
        again = oracles.condition21_recompute(ito, 0.45, 0.55, *stat.argmax)
        assert again == stat.value

    def test_recompute_refuses_a_width_off_the_dyadic_levels(self):
        cfg = BrownianConfig(d=2, level=8, seed=42)
        area = ito_area(brownian_path(cfg), cfg)
        at_level_2 = oracles.condition21_recompute(area, 0.45, 0.55, 0, 1, 0.25)
        nudged = oracles.condition21_recompute(area, 0.45, 0.55, 0, 1, 0.25 * (1 + 1e-13))
        assert nudged == at_level_2
        for h in (0.3, 0.26, 0.0, float("nan")):
            with pytest.raises(ValueError, match="dyadic"):
                oracles.condition21_recompute(area, 0.45, 0.55, 0, 1, h)

    def test_drift_free_blocks_cancel_better(self, areas10):
        """The h/2 diagonal drift accumulates linearly over a window, so the
        drifted convention's windowed sums must dominate the centered ones."""
        ito, strat = areas10
        kwargs = dict(alpha=0.45, beta=0.55, levels=range(4, 11))
        assert condition21_stat(ito, **kwargs).value < condition21_stat(
            strat, **kwargs).value

    def test_per_level_structure(self, areas10):
        ito, _ = areas10
        stat = condition21_stat(ito, 0.45, 0.55, levels=range(4, 11))
        assert len(stat.per_level) == 7
        assert stat.value == max(stat.per_level)
        payload = stat.to_dict()
        assert payload["argmax"]["m"] > payload["argmax"]["k"]

    def test_input_validation(self, areas10):
        ito, _ = areas10
        with pytest.raises(ValueError):
            condition21_stat(ito, 1.5, 0.55)
        with pytest.raises(ValueError):
            condition21_stat(ito, 0.45, 0.55, levels=[11])
        with pytest.raises(ValueError):
            condition21_stat(ito, 0.45, 0.55, levels=[])
        ragged = DriverPath(np.linspace(0, 1, 101), np.zeros((101, 2)))
        bad = AreaProcess(ragged, np.zeros((100, 2, 2)), "degenerate")
        with pytest.raises(ValueError):
            condition21_stat(bad, 0.45, 0.55, levels=[4])


def _all_windows_stat(area, alpha, beta, levels, window_cap):
    """Every window length at every level, unpruned: ``(value, argmax, per_level)``.

    Per length the first largest magnitude is taken, and a ratio replaces the
    running best only when strictly larger, so the shortest window, then the
    larger magnitude, then the smallest k win ties, and the coarsest level.
    """
    value, argmax, per_level = -math.inf, None, []
    for j in sorted(set(levels)):
        prefix, h = oracles.level_prefix(area, j)
        n = prefix.shape[0] - 1
        best, arg = 0.0, (0, 1)
        for w in range(1, min(n, window_cap) + 1):
            mags = np.max(np.abs(prefix[w:] - prefix[:-w]), axis=(1, 2))
            k = int(np.argmax(mags))
            ratio = float(mags[k]) / (w**beta * h ** (2 * alpha))
            if ratio > best:
                best, arg = ratio, (k, k + w)
        per_level.append(best)
        if best > value:
            value, argmax = best, (arg[0], arg[1], h)
    return value, argmax, per_level


def _refold_stat(area, alpha, beta, levels, window_cap=2**12):
    """The scan level by level: ``(value, argmax, per_level)``.

    Each level is folded again from the finest grid, and its weights are a
    comprehension of Python floats ``w**beta * h ** (2 * alpha)``; the search
    is the same ``_pair_max``, and a level replaces the best only when
    strictly larger, coarse to fine.
    """
    value, argmax, per_level = -math.inf, (0, 1, math.nan), []
    for j in sorted(set(levels)):
        prefix, h = oracles.level_prefix(area, j)
        n = prefix.shape[0] - 1
        table = np.array([w**beta * h ** (2 * alpha) for w in range(n + 1)])
        table[window_cap + 1 :] = math.inf
        pos = np.arange(n + 1)
        best, k, m = core._pair_max(
            prefix.reshape(n + 1, -1).T, 1.0, lambda k, m: table[pos[m] - pos[k]]
        )
        per_level.append(best)
        if best > value:
            value, argmax = best, (k, m, h)
    return value, argmax, per_level


def _flat_path_area(blocks):
    """An area on a constant path, so the finest level's prefix is the blocks' cumsum."""
    n = len(blocks)
    path = DriverPath(np.linspace(0.0, 1.0, n + 1), np.zeros((n + 1, 1)))
    return oracles.PerturbedArea(path, np.asarray(blocks, dtype=float).reshape(n, 1, 1),
                                 "perturbed")


@st.composite
def _random_areas(draw):
    """Areas on 2^0..2^7 intervals; rounding the draws to integers makes ties."""
    depth = draw(st.integers(0, 7))
    n, d = 2**depth, draw(st.integers(1, 2))
    x = draw(hnp.arrays(np.float64, (n + 1, d), elements=st.floats(-4.0, 4.0)))
    blocks = draw(hnp.arrays(np.float64, (n, d, d), elements=st.floats(-4.0, 4.0)))
    if draw(st.booleans()):
        x, blocks = np.round(x), np.round(blocks)
    return oracles.PerturbedArea(DriverPath(np.linspace(0.0, 1.0, n + 1), x), blocks, "perturbed")


@pytest.fixture(scope="module")
def areas12():
    cfg = BrownianConfig(d=2, level=12, seed=7)
    ito = ito_area(brownian_path(cfg), cfg)
    return ito, stratonovich_area(ito)


class TestCondition21Parity:
    """One fold chain and one weight table give the per-level re-fold's bits."""

    @pytest.mark.parametrize("levels", [range(4, 13), [12], [0, 3, 12]],
                             ids=["4-12", "12", "0-3-12"])
    @pytest.mark.parametrize("which", ["ito", "stratonovich"])
    def test_equals_the_per_level_refold(self, areas12, which, levels):
        area = areas12[which == "stratonovich"]
        stat = condition21_stat(area, 0.45, 0.55, levels=levels)
        value, argmax, per_level = _refold_stat(area, 0.45, 0.55, levels)
        assert stat.argmax == argmax
        assert np.array([stat.value, *stat.per_level]).tobytes() == np.array(
            [value, *per_level]).tobytes()


class TestCondition21Exact:
    """The block search must return the all-window-lengths scan bit for bit, argmax included."""

    @pytest.mark.parametrize("cap", [1, 63, 64, 65, 200, 1023, 1024, 4096])
    @pytest.mark.parametrize("which", ["ito", "stratonovich"])
    def test_matches_all_windows_scan(self, monkeypatch, areas10, which, cap):
        area = areas10[which == "stratonovich"]
        stat = condition21_stat(area, 0.45, 0.55, levels=range(2, 11), window_cap=cap)
        want = _all_windows_stat(area, 0.45, 0.55, range(2, 11), cap)
        assert (stat.value, stat.argmax, stat.per_level) == want
        assert oracles.condition21_recompute(area, 0.45, 0.55, *stat.argmax) == stat.value
        monkeypatch.setattr(core, "_fit_block", lambda n: 64)  # caps astride 64's edges
        stat = condition21_stat(area, 0.45, 0.55, levels=range(2, 11), window_cap=cap)
        assert (stat.value, stat.argmax, stat.per_level) == want

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    @pytest.mark.parametrize("blocks, argmax", [
        ([0, -1, 0, 0, 0.5, 0.5, 0.5, 0.5], (1, 2)),
        ([0.5, 0.5, 0.5, 0.5, 0, 0, -1, 0], (6, 7)),
    ], ids=["short-window-first", "long-window-first"])
    def test_tie_goes_to_the_shortest_window(self, monkeypatch, block, blocks, argmax):
        """With beta 1/2 a window of 4 summing to 2 ties a window of 1 summing to 1 exactly."""
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        area = _flat_path_area(blocks)
        stat = condition21_stat(area, 0.25, 0.5, levels=[3])
        h = 1.0 / 8
        assert stat.value == 1.0 / h**0.5
        assert stat.argmax == (*argmax, h)
        assert (stat.value, stat.argmax, stat.per_level) == _all_windows_stat(
            area, 0.25, 0.5, [3], 8)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    def test_sub_blocks_match_all_windows_scan(self, monkeypatch, areas10, block):
        """Caps on both sides of the edges of sub-blocks (``max(1, block // 4)``
        samples) and of blocks; every level's 2**j + 1 prefix samples leave a
        short last block."""
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        sub = max(1, block // 4)
        for cap in sorted({sub, sub + 1, block + sub - 1, block + sub + 1, 3 * block + 2}):
            stat = condition21_stat(areas10[1], 0.45, 0.55, levels=[5, 8], window_cap=cap)
            want = _all_windows_stat(areas10[1], 0.45, 0.55, [5, 8], cap)
            assert (stat.value, stat.argmax, stat.per_level) == want

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    def test_tie_across_sub_blocks_goes_to_the_smallest_k(self, monkeypatch, block):
        """Windows (3, 28) and (35, 60) sum to +25 and -25 over 25 blocks and tie
        at beta 1/2; every other window has a smaller ratio."""
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        blocks = np.zeros(64)
        blocks[3:28], blocks[35:60] = 1.0, -1.0
        area = _flat_path_area(blocks)
        stat = condition21_stat(area, 0.25, 0.5, levels=[6])
        assert stat.value == 25 / (5 * (1 / 64) ** 0.5)
        assert stat.argmax == (3, 28, 1 / 64)
        assert (stat.value, stat.argmax, stat.per_level) == _all_windows_stat(
            area, 0.25, 0.5, [6], 64)
        second = condition21_stat(_flat_path_area(np.where(blocks < 0, blocks, 0.0)),
                                  0.25, 0.5, levels=[6])
        assert (second.value, second.argmax) == (stat.value, (35, 60, 1 / 64))

    def test_visits_stay_pruned_at_level_12(self, areas12):
        """Pairs evaluated in full on one level-12 prefix (4,097 samples): 192
        after sub-block refinement, 116,736 with block pairs visited whole."""
        prefix, h = oracles.level_prefix(areas12[0], 12)
        pos = np.arange(prefix.shape[0])
        table = np.array([w**0.55 for w in range(pos.size)]) * h ** 0.9
        visited = 0

        def weight(k, m):
            nonlocal visited
            if np.ndim(k) == 2:  # a visit: (a, 1) rows against (b,) columns
                visited += np.broadcast(k, m).size
            return table[pos[m] - pos[k]]

        got = core._pair_max(prefix.reshape(pos.size, -1).T, 1.0, weight)
        assert got[0] == condition21_stat(areas12[0], 0.45, 0.55, levels=[12]).value
        assert 0 < visited <= 1000

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    def test_flat_area_reports_the_first_window_of_the_coarsest_level(self, monkeypatch, block):
        """Every ratio is 0, a tie everywhere: the first window of the coarsest level wins."""
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        stat = condition21_stat(_flat_path_area(np.zeros(32)), 0.45, 0.55, levels=[1, 3, 5])
        assert stat.value == 0.0 and stat.per_level == [0.0, 0.0, 0.0]
        assert stat.argmax == (0, 1, 0.5)

    @pytest.mark.parametrize("block", [1, 64])
    @pytest.mark.parametrize("blocks, beta, argmax", [
        ([5e-324], 0.5, (0, 1)),
        ([0.0, 5e-324, 0.0, 0.0], 0.01, (1, 2)),
    ], ids=["lone", "tied-across-gaps"])
    def test_subnormal_maxima(self, monkeypatch, block, blocks, beta, argmax):
        """``1 + 1e-12`` cannot lift a subnormal bound above the ratios it bounds.

        Only visiting bounds equal to the floor finds the lone maximum, and
        only visiting bounds equal to the running best finds the gap-1 window
        that ties (after rounding) the longer windows from 0, visited first.
        """
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        area = _flat_path_area(blocks)
        level = len(blocks).bit_length() - 1
        stat = condition21_stat(area, 0.5, beta, levels=[level])
        assert stat.argmax[:2] == argmax
        assert (stat.value, stat.argmax, stat.per_level) == _all_windows_stat(
            area, 0.5, beta, [level], 8)

    def test_subnormal_tie_in_a_later_chunk(self, monkeypatch):
        """Every window from k <= 4 to m >= 5 rounds to the same subnormal ratio.
        With one-sample blocks and one pair per chunk, window (0, 5) is visited
        first; the gap-1 window (4, 5) comes in a later chunk with a bound only
        equal to that best, and is kept because it could still win the tie."""
        monkeypatch.setattr(core, "_fit_block", lambda n: 1)
        monkeypatch.setattr(core, "_FIT_PAIRS", 1)
        area = _flat_path_area([0.0, 0.0, 0.0, 0.0, 1e-323, 0.0, 0.0, 0.0])
        stat = condition21_stat(area, 0.5, 0.01, levels=[3])
        assert stat.argmax[:2] == (4, 5)
        assert (stat.value, stat.argmax, stat.per_level) == _all_windows_stat(
            area, 0.5, 0.01, [3], 8)

    @settings(max_examples=150, deadline=None)
    @given(area=_random_areas(), alpha=st.floats(0.01, 0.99), beta=st.floats(0.01, 0.99),
           cap=st.integers(1, 300), block=st.integers(1, 70), chunk=st.integers(1, 40))
    def test_matches_all_windows_scan_on_random_areas(self, area, alpha, beta, cap, block, chunk):
        depth = area.n_intervals.bit_length() - 1
        levels = range(depth + 1)
        want = _all_windows_stat(area, alpha, beta, levels, cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_fit_block", lambda n: block)
            mp.setattr(core, "_FIT_PAIRS", chunk)
            stat = condition21_stat(area, alpha, beta, levels=levels, window_cap=cap)
        assert (stat.value, stat.argmax, stat.per_level) == want

    def test_window_cap_below_one_refused(self, areas10):
        with pytest.raises(ValueError):
            condition21_stat(areas10[0], 0.45, 0.55, levels=range(4, 11), window_cap=0)

    @pytest.mark.parametrize("kwargs", [
        dict(levels=[2.7, 3]), dict(levels=[True, 3]), dict(window_cap=True),
        dict(window_cap=64.0)], ids=["float-level", "bool-level", "bool-cap", "float-cap"])
    def test_fractional_or_boolean_sizes_refused(self, areas10, kwargs):
        with pytest.raises(TypeError, match="must be an integer"):
            condition21_stat(areas10[0], 0.45, 0.55, **{"levels": [3], **kwargs})


class TestRiemannRecovery:
    def test_polynomial_area_recovered_at_first_order(self, poly_pair):
        _, path, area = poly_pair
        errs = oracles.riemann_area_recovery(path, area, 0, 512, [16, 64, 256, 1024])
        assert np.all(np.diff(errs) < 0)
        assert errs[0] / errs[-1] == pytest.approx(64.0, rel=0.2)

    def test_empty_span_is_exact(self, poly_pair):
        _, path, area = poly_pair
        errs = oracles.riemann_area_recovery(path, area, 256, 256, [4, 16])
        assert np.array_equal(errs, np.zeros(2))

    def test_ito_block_matched_below_grid_resolution(self, bm1):
        """Sub-grid sums see the realized quadratic variation, which is what
        the centered convention stores; the trend down is noisy but real."""
        _, path, area = bm1
        errs = oracles.riemann_area_recovery(path, area, 1024, 3072,
                                             [8, 16, 32, 64, 128, 256, 512, 1024])
        assert errs[-1] < errs[0]
        assert int(np.sum(np.diff(errs) > 0)) <= 3
        assert errs[-1] < 0.05

    def test_drifted_block_matched_beyond_grid_resolution(self, bm1):
        """Past the grid scale the polyline is smooth and the sums converge
        at rate 1/N to the drifted block, half the squared increment."""
        _, path, ito = bm1
        strat = stratonovich_area(ito)
        errs = oracles.riemann_area_recovery(path, strat, 1024, 3072,
                                             [8192, 32768, 131072])
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-6)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=1e-6)

    def test_input_validation(self, poly_pair):
        _, path, area = poly_pair
        with pytest.raises(TypeError):
            oracles.riemann_area_recovery(path, area, 0.5, 512, [4])
        with pytest.raises(IndexError):
            oracles.riemann_area_recovery(path, area, 256, 128, [4])
        with pytest.raises(IndexError):
            oracles.riemann_area_recovery(path, area, 0, 513, [4])
        with pytest.raises(ValueError):
            oracles.riemann_area_recovery(path, area, 0, 512, [0])


class TestExplosionCriterion:
    ENV = dict(p=1.5, gamma=1.7, beta=0.8)

    def _report(self, growth_exp, area_exp):
        env = GrowthEnvelope(growth_exp, area_exp, self.ENV["beta"])
        return explosion_criterion(env, self.ENV["p"], self.ENV["gamma"])

    @pytest.mark.parametrize("growth_exp,area_exp",
                             [(1.0, 0.4), (0.5, 0.3), (0.5, 0.9), (1.2, 0.4)])
    def test_power_law_verdicts_match_oracle(self, growth_exp, area_exp):
        report = self._report(growth_exp, area_exp)
        want = oracles.power_law_verdict(area_exp, growth_exp,
                                         self.ENV["beta"], self.ENV["p"])
        assert report.verdict == want

    def test_boundary_exponent_sits_on_flat_trend(self):
        # q = -1 up to rounding (q + 1 == -2.2e-16 in floats): every octave
        # contributes the same mass, and -1 rounded reads as divergent
        report = self._report(0.65 / 0.7, 0.3)
        assert abs(report.tail_slope) < 1e-12
        assert report.verdict == "diverges-trend"

    def test_octave_partials_match_closed_form(self):
        report = self._report(1.0, 0.4)
        q = oracles.power_law_criterion_exponent(0.4, 1.0, self.ENV["beta"],
                                                 self.ENV["p"])
        j = 3
        want = (2.0 ** ((q + 1) * (j + 1)) - 2.0 ** ((q + 1) * j)) / (q + 1)
        assert report.partials[j] == pytest.approx(want, rel=1e-13)
        assert report.total == pytest.approx(np.sum(report.partials), rel=1e-15)
        assert report.octaves.size == 20

    @pytest.mark.parametrize("area_exp", [0.3, 0.6, 0.9, 1.2, 1.5])
    @pytest.mark.parametrize("delta", [-0.4, -0.2, 0.0, 0.4, 0.8])
    def test_gallery_matches_exact_rational_partials(self, area_exp, delta):
        env = GrowthEnvelope(area_exp + delta, area_exp, self.ENV["beta"])
        report = explosion_criterion(env, self.ENV["p"], self.ENV["gamma"])
        exact = [fractions.Fraction(str(x))
                 for x in (env.area_exp, env.growth_exp, env.beta, self.ENV["p"])]
        want = oracles.octave_partials(oracles.power_law_criterion_exponent(*exact), 20)
        np.testing.assert_allclose(report.partials, want, rtol=1e-13, atol=0.0)
        assert report.total == pytest.approx(math.fsum(want), rel=1e-13)
        assert report.tail_slope == env.criterion_exponent(self.ENV["p"]) + 1.0

    def test_flat_octaves_at_q_minus_one(self):
        """growth 0.5, area 0.9 puts q at -1 in floats too: every octave is ln 2."""
        report = self._report(0.5, 0.9)
        assert report.tail_slope == 0.0
        assert report.partials.tolist() == [math.log(2.0)] * 20
        assert report.verdict == "diverges-trend"

    def test_input_validation(self):
        env = GrowthEnvelope(1.2, 0.4, 0.8)
        with pytest.raises(ValueError):
            explosion_criterion(env, 0.5, 1.7)
        with pytest.raises(ValueError):
            explosion_criterion(env, 1.5, 1.4)
        with pytest.raises(ValueError):
            explosion_criterion(env, 1.5, 2.0)
        with pytest.raises(ValueError):
            explosion_criterion(env, 1.5, 1.7, r_max=100.0)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_r_max_refused(self, r_max):
        """Named as a bad argument, not an overflow in the octave count."""
        env = GrowthEnvelope(1.2, 0.4, 0.8)
        with pytest.raises(ValueError, match="r_max must be finite"):
            explosion_criterion(env, 1.5, 1.7, r_max=r_max)

    def test_report_serializes(self):
        payload = self._report(1.2, 0.4).to_dict()
        assert payload["verdict"] in ("diverges-trend", "converges")
        assert len(payload["partials"]) == len(payload["octaves"]) == 20


@pytest.fixture(scope="module")
def nonuniqueness_report():
    return nonuniqueness_demo()


class TestNonuniquenessDemo:
    def test_two_solutions_one_driver(self, nonuniqueness_report):
        report = nonuniqueness_report
        assert np.array_equal(report.traj_a.times, report.traj_b.times)
        assert np.array_equal(report.traj_a.states[:, 1], report.traj_b.states[:, 1])
        assert np.array_equal(report.traj_a.states[0], report.traj_b.states[0])

    def test_separation_dwarfs_defect_scale(self, nonuniqueness_report):
        report = nonuniqueness_report
        assert report.separation == pytest.approx(0.001958296852956953, rel=1e-12)
        assert report.ratio == report.separation / report.defect_scale
        assert report.ratio > 10.0

    def test_both_branches_carry_near_zero_defects(self, nonuniqueness_report):
        report = nonuniqueness_report
        # exact solutions evaluated on the grid: only roundoff survives in
        # the flat branch, and the grown branch's defect stays well under
        # the observed separation
        assert report.defect_a.fitted_constant <= 1e-12
        assert 0 < report.defect_b.fitted_constant
        assert report.defect_a.pair_policy == "adjacent"
        assert report.defect_b.control is report.defect_a.control

    def test_vacuous_configurations_are_rejected(self):
        with pytest.raises(ValueError, match="dips under"):
            nonuniqueness_demo(CounterexampleConfig(t_max=0.3, grid=4096))

    def test_report_serializes(self, nonuniqueness_report):
        report = nonuniqueness_report
        payload = report.to_dict()
        assert payload["separation"] == report.separation
        assert payload["gamma"] == 1.05 and payload["p"] == 1.9
        assert payload["fitted_m_b"] >= payload["fitted_m_a"]


class TestHolderEstimate:
    def test_linear_path_fits_unit_exponent(self):
        path = DriverPath(np.linspace(0, 1, 129),
                          np.linspace(0, 2, 129)[:, None])
        assert holder_estimate(path) == pytest.approx(1.0, abs=1e-9)

    def test_constant_path_reports_infinite_regularity(self):
        path = DriverPath(np.linspace(0, 1, 129), np.ones((129, 3)))
        assert holder_estimate(path) == math.inf

    def test_brownian_path_near_half(self, bm1):
        _, path, _ = bm1
        got = holder_estimate(path, n_resample=2**14)
        assert 0.45 <= got <= 0.65

    def test_chain_curve_near_its_design_exponent(self):
        path = ChainCurve(0.7, 3).sample(2**12)
        assert 0.6 <= holder_estimate(path) <= 0.85

    def test_needs_enough_samples(self):
        path = DriverPath(np.linspace(0, 1, 8), np.zeros((8, 1)))
        with pytest.raises(ValueError):
            holder_estimate(path)

    @pytest.mark.parametrize("n_resample", [1, 2])
    def test_fewer_than_three_resamples_refused(self, bm1, n_resample):
        """Under three resamples fewer than two lags fit: that is no evidence of regularity."""
        _, path, _ = bm1
        with pytest.raises(ValueError, match="n_resample >= 3"):
            holder_estimate(path, n_resample=n_resample)
        assert math.isfinite(holder_estimate(path, n_resample=3))

    @pytest.mark.parametrize("n_resample", [True, 4096.0, 100.5])
    def test_fractional_or_boolean_resample_count_refused(self, bm1, n_resample):
        _, path, _ = bm1
        with pytest.raises(TypeError, match="n_resample must be an integer"):
            holder_estimate(path, n_resample=n_resample)


class TestChenResiduals:
    @pytest.mark.parametrize("which", ["ito", "strat"])
    def test_brownian_areas_are_consistent(self, bm2, which):
        _, _, ito, strat = bm2
        area = ito if which == "ito" else strat
        res = chen_residuals(area, n_triples=200, seed=3)
        assert res.shape == (200,)
        assert np.max(res) <= 1e-12

    def test_analytic_area_is_consistent(self, poly_pair):
        _, _, area = poly_pair
        assert np.max(chen_residuals(area, n_triples=100)) <= 1e-13

    def test_single_interval_rejected(self):
        path = DriverPath(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
        area = AreaProcess(path, np.zeros((1, 1, 1)), "degenerate")
        with pytest.raises(ValueError):
            chen_residuals(area)

    @pytest.mark.parametrize("n_triples", [True, 200.0])
    def test_fractional_or_boolean_triple_count_refused(self, poly_pair, n_triples):
        with pytest.raises(TypeError, match="n_triples must be an integer"):
            chen_residuals(poly_pair[2], n_triples=n_triples)

    @pytest.mark.parametrize("which", ["ito", "strat"])
    def test_equals_the_per_triple_loop_bitwise(self, bm2, which):
        _, path, ito, strat = bm2
        area = ito if which == "ito" else strat
        rng = np.random.default_rng(11)
        x = path.values
        want = np.empty(300)
        for m in range(300):
            i, j, k = np.sort(rng.choice(area.n_intervals + 1, size=3, replace=False))
            a_ij, a_jk, a_ik = area.pairs([i, j, i], [j, k, k])
            combined = a_ij + a_jk + np.outer(x[j] - x[i], x[k] - x[j])
            want[m] = np.max(np.abs(a_ik - combined))
        assert np.array_equal(chen_residuals(area, n_triples=300, seed=11), want)

    @pytest.mark.parametrize("n, n_triples", [
        (2, 400), (3, 400), (5, 400), (2**14, 400), (5, 1), (2**14, 1)])
    def test_draws_the_triples_of_the_per_triple_choice_loop(self, monkeypatch, n, n_triples):
        """The stream contract: the triples, and the generator's state after them, are
        those of one ``rng.choice(n + 1, 3, replace=False)`` per triple, sorted.  On a
        few intervals Floyd's collision rule fires often."""
        rng = np.random.default_rng(n)
        path = DriverPath(np.linspace(0.0, 1.0, n + 1), rng.normal(size=(n + 1, 2)))
        area = oracles.PerturbedArea(path, rng.normal(size=(n, 2, 2)), "perturbed")
        seen, pairs = [], area.pairs
        monkeypatch.setattr(area, "pairs", lambda i, j: seen.append((i, j)) or pairs(i, j))
        drawn, looped = np.random.default_rng(7), np.random.default_rng(7)
        res = chen_residuals(area, n_triples, seed=drawn)  # default_rng passes it through
        i, j, k = np.sort([looped.choice(n + 1, size=3, replace=False)
                           for _ in range(n_triples)], axis=1).T
        assert [(a.tolist(), b.tolist()) for a, b in seen] == [
            (i.tolist(), j.tolist()), (j.tolist(), k.tolist()), (i.tolist(), k.tolist())]
        assert drawn.bit_generator.state == looped.bit_generator.state
        x = path.values
        want = []
        for a, b, c in zip(i, j, k):
            a_ab, a_bc, a_ac = area.pairs([a, b, a], [b, c, c])
            want.append(np.max(np.abs(a_ac - (a_ab + a_bc + np.outer(x[b] - x[a], x[c] - x[b])))))
        assert np.array_equal(res, want)

    @pytest.mark.parametrize("n_triples", [0, -3])
    def test_no_triples_rejected(self, poly_pair, n_triples):
        _, _, area = poly_pair
        with pytest.raises(ValueError, match="at least one triple"):
            chen_residuals(area, n_triples=n_triples)


def _bent_area():
    """A 2**3-interval area whose times are not uniform."""
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0])
    path = DriverPath(times, np.zeros((9, 2)))
    return AreaProcess(path, np.zeros((8, 2, 2)), kind="ito")


class TestRefusals:
    """Each input check of the estimators raises its own error type."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda: gbm_terminal_stratonovich(
            DriverPath([0.0, 1.0], np.zeros((2, 2))), [1.0]), ValueError, "one-dimensional"),
        (lambda: convergence_study(VectorField.scalar_linear(),
                                   DriverPath(np.linspace(0, 1, 65), np.zeros(65)),
                                   [1.0], [2, 4]), ValueError, "needs an area process"),
        (lambda: condition21_stat(_bent_area(), 0.45, 0.55, levels=[1, 2]), ValueError,
         "must be uniform"),
        (lambda: explosion_criterion(GrowthEnvelope(400.0, 400.0, 1.0), 1.5, 2.0), ValueError,
         "envelope exponents overflow float64"),
    ], ids=["stratonovich-oracle-d2", "fine-fallback-without-area", "non-uniform-area-grid",
            "criterion-overflowing-exponents"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
