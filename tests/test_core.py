"""Unit tests for the shared value types and their algebra."""
from __future__ import annotations

import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import roughstep.core as core
from roughstep.core import (
    AreaProcess,
    ControlModulus,
    DriverPath,
    GrowthEnvelope,
    NumericsError,
    Trajectory,
    VectorField,
    chen_combine,
    control_fit,
)
from roughstep.drivers import (
    CounterexampleConfig,
    example1_driver,
    example1_field,
)


class TestDriverPath:
    def test_linear_interpolation_is_exact_for_linear_data(self):
        times = np.linspace(0.0, 1.0, 9)
        values = np.column_stack([3.0 * times, 1.0 - times])
        path = DriverPath(times, values)
        probe = np.array([0.05, 0.4375, 0.99])
        want = np.column_stack([3.0 * probe, 1.0 - probe])
        assert np.allclose(path.eval(probe), want, rtol=0, atol=1e-15)

    def test_increments_telescope(self):
        rng = np.random.default_rng(3)
        path = DriverPath(np.linspace(0, 1, 17), rng.normal(size=(17, 2)))
        assert np.allclose(np.sum(path.increments, axis=0),
                           path.values[-1] - path.values[0])

    def test_subsample_keeps_endpoints(self):
        path = DriverPath(np.linspace(0, 1, 17), np.arange(34, dtype=float).reshape(17, 2))
        sub = oracles.subsample(path, 4)
        assert sub.n_intervals == 4
        assert np.array_equal(sub.values[[0, -1]], path.values[[0, -1]])

    def test_subsample_requires_divisible_stride(self):
        path = DriverPath(np.linspace(0, 1, 17), np.zeros((17, 1)))
        with pytest.raises(ValueError):
            oracles.subsample(path, 3)

    def test_times_and_values_must_agree(self):
        with pytest.raises(ValueError):
            DriverPath(np.linspace(0, 1, 5), np.zeros((4, 1)))


class TestControlFit:
    def test_linear_path_constant_is_unit(self):
        """For x(t) = t every ratio |t-s|^p / (t-s) is (t-s)^(p-1) <= 1."""
        path = DriverPath(np.linspace(0, 1, 65), np.linspace(0, 1, 65)[:, None])
        fit = control_fit(path, 2.0)
        assert fit.c == pytest.approx(1.0, abs=1e-12)

    def test_constant_path_fits_zero(self):
        """Every ratio is 0, so the maximum is reported at the first pair (0, 1)."""
        path = DriverPath(np.linspace(0, 1, 33), np.full((33, 2), 0.7))
        assert control_fit(path, 1.5).c == 0.0
        t = path.times
        assert core._pair_max(path.values.T, 1.5, lambda k, m: t[m] - t[k]) == (0.0, 0, 1)

    def test_pruned_scan_matches_brute_force(self):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0, 1, 40))
        times[0], times[-1] = 0.0, 1.0
        values = np.cumsum(rng.normal(size=(40, 2)), axis=0) * 0.1
        path = DriverPath(times, values)
        p = 1.7
        best = 0.0
        for i in range(40):
            for j in range(i + 1, 40):
                inc = np.max(np.abs(values[j] - values[i]))
                best = max(best, inc**p / (times[j] - times[i]))
        assert control_fit(path, p).c == pytest.approx(best, rel=1e-12)

    def test_bound_holds_on_grid(self, bm1):
        _, path, _ = bm1
        fit = control_fit(oracles.subsample(path, 16), 2.5)
        sub = oracles.subsample(path, 16)
        for lag in (1, 7, 64):
            inc = np.max(np.abs(sub.values[lag:] - sub.values[:-lag]), axis=1)
            gap = sub.times[lag:] - sub.times[:-lag]
            assert np.all(inc**2.5 <= fit.c * gap * (1 + 1e-12))

    def test_overflowing_constant_is_a_numerics_error_without_warning(self):
        """Increments near 1e200 square past float64: refused by name, not warned."""
        path = DriverPath(np.linspace(0, 1, 65), np.linspace(0, 1e200, 65)[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=r"control constant at p = 2\.0 is inf"):
                control_fit(path, 2.0)


def _all_lags_fit(path: DriverPath, p: float, first_lag: int = 1) -> float:
    """Max of ``max_i |dx_i|^p / dt`` over every pair from ``first_lag`` up, unpruned."""
    t, v = path.times, path.values
    c = 0.0
    for lag in range(first_lag, t.size):
        inc = np.max(np.abs(v[lag:] - v[:-lag]), axis=1)
        c = max(c, float(np.max(inc**p / (t[lag:] - t[:-lag]))))
    return c


def _all_pairs_argmax(path: DriverPath, p: float, max_gap: int | None = None
                      ) -> tuple[float, int, int]:
    """``(c, k, m)`` over every pair, unpruned, under ``core._pair_max``'s tie rule:
    the smallest gap, then the larger increment, then the smallest ``k``.  Only gaps
    up to ``max_gap`` count when it is given."""
    t, v = path.times, path.values
    best = (0.0, 0, 1)
    for lag in range(1, t.size if max_gap is None else min(t.size, max_gap + 1)):
        inc = np.max(np.abs(v[lag:] - v[:-lag]), axis=1) ** p
        ratio = inc / (t[lag:] - t[:-lag])
        r = float(ratio.max())
        if r > best[0]:
            hit = np.flatnonzero(ratio == r)
            k = int(hit[np.lexsort((hit, -inc[hit]))[0]])
            best = (r, k, k + lag)
    return best


def _fit_argmax(path: DriverPath, p: float) -> tuple[float, int, int]:
    return core._pair_max(path.values.T, p, lambda k, m: path.times[m] - path.times[k])


@st.composite
def _random_paths(draw):
    """Non-uniform grids of 2-300 points; cumulated draws give walks, runs and ties."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 2))
    gaps = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 10.0)))
    steps = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0)))
    return DriverPath(np.cumsum(gaps), np.cumsum(steps, axis=0))


@st.composite
def _geometric_paths(draw):
    """Time steps growing geometrically from the start and increments scaled as a
    power of them, so the ratios grow toward the fine start and the within-block
    bound prunes."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 2))
    gaps = draw(st.floats(0.8, 0.99)) ** np.arange(n)[::-1]
    steps = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0)))
    steps *= gaps[:, None] ** draw(st.floats(0.2, 1.0))
    return DriverPath(np.cumsum(gaps), np.cumsum(steps, axis=0))


def _inner_pass_spans(path: DriverPath, p: float) -> list[int]:
    """Samples covered by each one-gap pass at gap >= 2 of ``_pair_max`` on ``path``."""
    t, spans = path.times, []

    def weight(k, m):
        if isinstance(k, slice) and m.start - k.start >= 2:
            spans.append(m.stop - k.start)
        return t[m] - t[k]

    core._pair_max(path.values.T, p, weight)
    return spans


def _rises(n: int, rises: list[int], spike: int) -> DriverPath:
    """Unit time steps; a rise of 3 over samples k..k+2 for each k in ``rises`` and a
    jump of 2 at ``spike``.  At p = 2 a rise's ratio 9 / 2 beats the jump's 4, the
    largest at gap 1, and the rise's own steps (2.25)."""
    values = np.zeros(n)
    for k in rises:
        values[k + 1 :] += 1.5
        values[k + 2 :] += 1.5
    values[spike + 1 :] += 2.0
    return DriverPath(np.arange(float(n)), values)


class TestControlFitExact:
    """The block branch-and-bound must return the all-pairs constant bit for bit."""

    @pytest.mark.parametrize("n, block", [
        (2, 1), (17, 2), (65, 4), (4097, 32), (16385, 64), (65537, 64)])
    def test_block_size_grows_as_half_the_root_up_to_64(self, n, block):
        assert core._fit_block(n) == block

    def test_geometric_grid(self, monkeypatch):
        cfg = CounterexampleConfig(grid=2048)
        path, _ = example1_driver(cfg)
        fit = control_fit(path, cfg.p).c
        assert fit == _all_lags_fit(path, cfg.p)
        monkeypatch.setattr(core, "_fit_block", lambda n: 64)
        assert control_fit(path, cfg.p).c == fit

    def test_random_nonuniform_planar_path(self, monkeypatch):
        rng = np.random.default_rng(2024)
        dt = rng.exponential(size=1000)
        times = np.cumsum(dt)
        values = np.cumsum(rng.normal(size=(1000, 2)) * np.sqrt(dt)[:, None], axis=0)
        path = DriverPath(times, values)
        fit = control_fit(path, 2.5).c
        assert fit == _all_lags_fit(path, 2.5)
        # The maximum sits more than one block apart, so pruning decided it.
        assert fit == _all_lags_fit(path, 2.5, first_lag=64)
        monkeypatch.setattr(core, "_fit_block", lambda n: 64)
        assert control_fit(path, 2.5).c == fit

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
    @pytest.mark.parametrize("kind", ["ramp", "walk"])
    def test_block_edges_and_partial_blocks(self, monkeypatch, n, kind):
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.uniform(0.5, 1.5, size=n))
        if kind == "ramp":
            # |dx|^2 / dt grows with the gap: the maximum is the first and last sample.
            values = 2.0 * times
        else:
            values = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        path = DriverPath(times, values)
        want = _all_lags_fit(path, 2.0)
        assert control_fit(path, 2.0).c == want
        monkeypatch.setattr(core, "_fit_block", lambda n: 64)  # the edges named above
        assert control_fit(path, 2.0).c == want

    @pytest.mark.parametrize("i, j", [(63, 64), (127, 128), (0, 127), (60, 130)])
    def test_maximum_on_block_boundary(self, monkeypatch, i, j):
        """A unit rise from sample i to sample j puts the maximum on exactly (i, j)."""
        times = np.linspace(0.0, 1.0, 200)
        k = np.arange(200)
        path = DriverPath(times, np.clip((k - i) / (j - i), 0.0, 1.0))
        fit = control_fit(path, 2.0).c
        assert fit == _all_lags_fit(path, 2.0)
        assert fit == 1.0 / (times[j] - times[i])
        monkeypatch.setattr(core, "_fit_block", lambda n: 64)  # the boundaries named above
        assert control_fit(path, 2.0).c == fit

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_small_blocks(self, monkeypatch, block):
        """One-sample blocks make each bound tie its ratio; 2 and 5 leave short last blocks."""
        rng = np.random.default_rng(block)
        path = DriverPath(np.cumsum(rng.exponential(size=300)),
                          np.cumsum(rng.normal(size=(300, 2)), axis=0))
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        assert control_fit(path, 2.5).c == _all_lags_fit(path, 2.5)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    def test_sub_blocks_find_a_steep_rise(self, monkeypatch, block):
        """A rise over samples 37-127 holds the maximum, wider than every block.

        Sub-blocks have ``max(1, block // 4)`` samples from each block's start,
        and 151 samples leave a short last block for every size here (23
        samples at 64, so two of its four sub-blocks are missing).
        """
        rng = np.random.default_rng(block)
        k = np.arange(151)
        values = np.column_stack([np.clip(k - 37.0, 0.0, 90.0), np.zeros(151)])
        values += 0.1 * np.cumsum(rng.normal(size=(151, 2)), axis=0)
        path = DriverPath(np.cumsum(rng.uniform(0.5, 1.5, size=151)), values)
        want = _all_pairs_argmax(path, 1.5)
        assert want[2] - want[1] > 64
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        assert _fit_argmax(path, 1.5) == want
        assert control_fit(path, 1.5).c == want[0]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    def test_tie_across_sub_blocks_goes_to_the_smallest_k(self, monkeypatch, block):
        """Two rises of 70 over 70 unit steps tie exactly at ratio 70**1.5 / 70;
        (10, 80) and (220, 290) lie in different sub-blocks for every block size."""
        k = np.arange(301.0)
        rise = np.clip(k - 10, 0, 70) - np.clip(k - 80, 0, 140) / 2 + np.clip(k - 220, 0, 70)
        path = DriverPath(k, rise - np.clip(k - 290, 0, None) / 2)
        want = _all_pairs_argmax(path, 1.5)
        assert want == (70**1.5 / 70, 10, 80)
        second = DriverPath(k[150:], path.values[150:])  # the rise at 220, alone
        assert _all_pairs_argmax(second, 1.5) == (want[0], 70, 140)
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        assert _fit_argmax(path, 1.5) == want

    def test_ties_everywhere_visit_each_block_pair_once(self):
        """On a unit-slope line at p = 1 every ratio is 1, so every sub-block pair
        survives: a block pair is still one visit, not one per sub-block pair."""
        t, visits = np.arange(300.0), 0

        def weight(k, m):
            nonlocal visits
            visits += np.ndim(k) == 2  # a visit: (a, 1) rows against (b,) columns
            return t[m] - t[k]

        assert core._pair_max(t[None], 1.0, weight) == (1.0, 0, 1)
        nb = -(-300 // core._fit_block(300))
        assert 0 < visits <= nb * (nb - 1) // 2

    def test_inner_passes_cover_few_samples_on_the_geometric_grid(self):
        """On the non-uniqueness grid only the blocks near the fine end can hold a
        pair at gap >= 2 that reaches the adjacent maximum."""
        cfg = CounterexampleConfig(grid=8192)
        path, _ = example1_driver(cfg)
        spans = _inner_pass_spans(path, cfg.p)
        assert spans and max(spans) < 0.01 * path.times.size

    def test_inner_passes_cover_every_sample_on_a_brownian_walk(self):
        rng = np.random.default_rng(2024)
        path = DriverPath(np.arange(1000.0), np.cumsum(rng.normal(size=(1000, 2)), axis=0))
        assert _inner_pass_spans(path, 2.5)[0] == 1000

    def test_inner_passes_stop_after_gap_one_on_a_constant_path(self):
        assert _inner_pass_spans(DriverPath(np.arange(151.0), np.full((151, 2), 0.25)), 1.5) == []

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    @pytest.mark.parametrize("rises, spike", [([0], 120), ([150], 10), ([90], 10), ([30, 90], 10)],
                             ids=["first-block", "short-last-block", "far-from-gap-one-max",
                                  "tie-goes-to-the-smallest-k"])
    def test_within_block_maximum(self, monkeypatch, block, rises, spike):
        """153 samples leave a short last block at 5, 22 and 64; samples k..k+2 of
        each rise lie in one block at every block size from 3, the two rises of the
        tie in different blocks."""
        path = _rises(153, rises, spike)
        want = _all_pairs_argmax(path, 2.0)
        assert want == (4.5, rises[0], rises[0] + 2)
        assert _all_pairs_argmax(path, 2.0, max_gap=1)[1] == spike
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        assert _fit_argmax(path, 2.0) == want

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    def test_constant_path_reports_the_first_pair(self, monkeypatch, block):
        monkeypatch.setattr(core, "_fit_block", lambda n: block)
        path = DriverPath(np.arange(151.0), np.full((151, 2), 0.25))
        assert _fit_argmax(path, 1.5) == (0.0, 0, 1) == _all_pairs_argmax(path, 1.5)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 22, 64])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), p=st.sampled_from([1.0, 1.5, 2.5]))
    def test_infinite_weight_leaves_the_pair_out(self, block, data, p):
        """A weight of ``+inf`` past a random gap is a window cap: the search must
        give the all-pairs maximum over the gaps within it, value and argmax."""
        n, d = data.draw(st.integers(2, 300)), data.draw(st.integers(1, 3))
        gaps = data.draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 10.0)))
        steps = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0)))
        path = DriverPath(np.cumsum(gaps), np.cumsum(steps, axis=0))
        cap, t, pos = data.draw(st.integers(1, n - 1)), path.times, np.arange(n)

        def weight(k, m):
            return np.where(pos[m] - pos[k] <= cap, t[m] - t[k], math.inf)

        want = _all_pairs_argmax(path, p, max_gap=cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_fit_block", lambda n: block)
            mp.setattr(core, "_FIT_PAIRS", 1)
            assert core._pair_max(path.values.T, p, weight) == want

    @settings(max_examples=300, deadline=None)  # about 150 from each path strategy
    @given(path=st.one_of(_random_paths(), _geometric_paths()), p=st.floats(1.0, 3.0),
           block=st.integers(4, 70), chunk=st.integers(1, 40))
    def test_matches_all_lags_on_random_paths(self, path, p, block, chunk):
        want = _all_lags_fit(path, p)
        assert control_fit(path, p).c == want
        # Small blocks and chunks put every branch to work on short paths.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_fit_block", lambda n: block)
            mp.setattr(core, "_FIT_PAIRS", chunk)
            assert control_fit(path, p).c == want


class TestControlModulus:
    def test_linear_superadditivity_is_equality(self):
        om = ControlModulus(c=2.0, p=2.0)
        assert om.omega(0.0, 1.0) == om.omega(0.0, 0.3) + om.omega(0.3, 1.0)

    def test_rejects_reversed_arguments(self):
        with pytest.raises(ValueError):
            ControlModulus(c=1.0, p=2.0).omega(0.5, 0.2)

    @pytest.mark.parametrize("c,p", [(-1.0, 2.0), (math.inf, 2.0), (1.0, 0.0)])
    def test_parameter_validation(self, c, p):
        with pytest.raises(ValueError):
            ControlModulus(c=c, p=p)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_exponent_refused(self, p):
        """On a path whose increments are all below 1, ``|dx|^inf`` is 0 everywhere:
        a fit at p = inf would report ``c = 0`` as if the path were constant."""
        with pytest.raises(ValueError, match="variation exponent must be positive and finite"):
            ControlModulus(c=1.0, p=p)
        path = DriverPath(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 0.5, 9))
        with pytest.raises(ValueError, match="p must be positive and finite"):
            control_fit(path, p)


class TestChenCombine:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(5)
        a1, a2 = rng.normal(size=(2, 3, 3))
        d1, d2 = rng.normal(size=(2, 3))
        assert np.array_equal(chen_combine(a1, a2, d1, d2),
                              oracles.chen_reference(a1, a2, d1, d2))

    def test_associativity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 2, 2))
        d = rng.normal(size=(3, 2))
        left = chen_combine(chen_combine(a[0], a[1], d[0], d[1]), a[2], d[0] + d[1], d[2])
        right = chen_combine(a[0], chen_combine(a[1], a[2], d[1], d[2]), d[0], d[1] + d[2])
        assert np.allclose(left, right, rtol=0, atol=1e-14)


class TestAreaProcess:
    @pytest.fixture
    def toy(self):
        rng = np.random.default_rng(7)
        path = DriverPath(np.linspace(0, 1, 33), np.cumsum(rng.normal(size=(33, 2)), axis=0))
        blocks = rng.normal(size=(32, 2, 2))
        return path, oracles.PerturbedArea(path, blocks, "perturbed")

    def test_adjacent_pair_is_the_stored_block(self, toy):
        _, area = toy
        assert area.pairs([5], [6])[0] is not area.per_interval[5]
        assert np.array_equal(area.pairs([5], [6])[0], area.per_interval[5])

    def test_pair_equals_explicit_fold(self, toy):
        path, area = toy
        x = path.values
        acc = area.per_interval[3].copy()
        for k in range(4, 11):
            acc = chen_combine(acc, area.per_interval[k], x[k] - x[3], x[k + 1] - x[k])
        assert np.allclose(area.pairs([3], [11])[0], acc, rtol=0, atol=1e-12)

    def test_empty_pair_is_zero(self, toy):
        _, area = toy
        assert np.array_equal(area.pairs([9], [9])[0], np.zeros((2, 2)))

    def test_consistency_on_random_triples(self, toy):
        path, area = toy
        rng = np.random.default_rng(8)
        x = path.values
        for _ in range(50):
            i, j, k = np.sort(rng.choice(33, size=3, replace=False))
            combined = oracles.chen_reference(
                area.pairs([i], [j])[0], area.pairs([j], [k])[0], x[j] - x[i], x[k] - x[j]
            )
            assert np.allclose(area.pairs([i], [k])[0], combined, rtol=0, atol=1e-12)

    def test_pairs_match_pair_and_the_prefix_formula_bitwise(self, toy):
        path, area = toy
        x = path.values
        i = np.array([0, 3, 5, 9, 32, 0, 31, 12, 7])
        j = np.array([32, 11, 6, 9, 32, 1, 32, 30, 7])
        got = area.pairs(i, j)
        assert got.shape == (i.size, 2, 2)
        for m, (a, b) in enumerate(zip(i, j)):
            if a == b:
                want = np.zeros((2, 2))
            elif b == a + 1:
                want = area.per_interval[a]
            else:
                want = area._prefix[b] - area._prefix[a] - np.outer(x[a] - x[0], x[b] - x[a])
            assert np.array_equal(got[m], want)
            assert np.array_equal(got[m], area.pairs([a], [b])[0])

    def test_adjacent_pairs_are_fresh_copies(self, toy):
        _, area = toy
        got = area.pairs(np.arange(32), np.arange(1, 33))
        assert np.array_equal(got, area.per_interval)
        assert not np.shares_memory(got, area.per_interval)
        got[0] += 1.0
        assert not np.array_equal(got[0], area.per_interval[0])

    @pytest.mark.parametrize("i, j", [([-1], [3]), ([4], [3]), ([0, 2], [5, 33])])
    def test_pairs_out_of_range_raise(self, toy, i, j):
        _, area = toy
        with pytest.raises(IndexError, match="outside grid with 32 intervals"):
            area.pairs(i, j)
        with pytest.raises(IndexError):
            area.pairs([i[-1]], [j[-1]])

    @pytest.mark.parametrize("i, j", [([1.7], [3.2]), (np.array([0.0]), [3]), ([True], [3])])
    def test_pairs_refuse_float_and_boolean_indices(self, toy, i, j):
        _, area = toy
        with pytest.raises(TypeError, match="grid indices are integers"):
            area.pairs(i, j)
        with pytest.raises(TypeError):
            area.pairs([i[0]], [3])
        assert area.pairs([], []).shape == (0, 2, 2)

    def test_shape_and_kind_validation(self, toy):
        path, _ = toy
        with pytest.raises(ValueError):
            AreaProcess(path, np.zeros((32, 3, 3)), "ito")
        with pytest.raises(ValueError):
            AreaProcess(path, np.zeros((32, 2, 2)), "levy")
        with pytest.raises(ValueError, match="unknown area kind 'perturbed'"):
            AreaProcess(path, np.zeros((32, 2, 2)), "perturbed")

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(2, 64),
           x_exp=st.integers(-3, 3), a_exp=st.integers(-3, 3))
    def test_pairs_satisfy_chen_on_random_triples(self, data, d, n, x_exp, a_exp):
        """A(i, k) = A(i, j) + A(j, k) + dx(i, j) (x) dx(j, k) for i <= j <= k."""
        unit = st.floats(-1.0, 1.0)
        steps = data.draw(hnp.arrays(float, (n + 1, d), elements=unit)) * 10.0**x_exp
        blocks = data.draw(hnp.arrays(float, (n, d, d), elements=unit)) * 10.0**a_exp
        triples = np.sort(data.draw(hnp.arrays(np.intp, (16, 3), elements=st.integers(0, n))),
                          axis=1)
        path = DriverPath(np.linspace(0.0, 1.0, n + 1), np.cumsum(steps, axis=0))
        area = oracles.PerturbedArea(path, blocks, "perturbed")
        i, j, k = triples.T
        x = path.values
        combined = chen_combine(area.pairs(i, j), area.pairs(j, k), x[j] - x[i], x[k] - x[j])
        # roundoff of prefix sums over n blocks and n cross terms of the path's size
        size = np.max(np.abs(x - x[0]))
        tol = 1e-14 * n * (np.max(np.abs(blocks)) + size**2)
        assert np.max(np.abs(area.pairs(i, k) - combined)) <= tol

    @pytest.mark.parametrize("d, n", [(1, 200), (2, 4096), (3, 64)])
    def test_prefix_is_the_left_to_right_fold_bitwise(self, d, n):
        rng = np.random.default_rng(d * n)
        path = DriverPath(np.linspace(0, 1, n + 1), np.cumsum(rng.normal(size=(n + 1, d)), axis=0))
        area = oracles.PerturbedArea(path, rng.normal(size=(n, d, d)), "perturbed")
        x = path.values
        want = np.zeros((n + 1, d, d))
        for k in range(n):
            want[k + 1] = want[k] + area.per_interval[k] + np.outer(x[k] - x[0], x[k + 1] - x[k])
        assert np.array_equal(area._prefix, want)

    def test_prefix_is_built_on_the_first_query(self, toy):
        path, area = toy
        fresh = oracles.PerturbedArea(path, area.per_interval, area.kind)
        assert "_prefix" not in vars(fresh)
        assert np.array_equal(fresh.pairs([3], [11]), area.pairs([3], [11]))
        assert np.array_equal(vars(fresh)["_prefix"], area._prefix)

    def test_with_intervals_swaps_blocks_only(self, toy):
        path, area = toy
        other = AreaProcess(area.path, np.zeros((32, 2, 2)), "degenerate")
        assert other.kind == "degenerate"
        assert other.path is area.path
        assert np.array_equal(other.pairs([4], [5])[0], np.zeros((2, 2)))
        # over longer spans only the cross terms of the fold remain
        x = path.values
        acc = np.zeros((2, 2))
        for k in range(1, 32):
            acc = acc + np.outer(x[k] - x[0], x[k + 1] - x[k])
        assert np.allclose(other.pairs([0], [32])[0], acc, rtol=0, atol=1e-12)


def _builtin_field(name: str, request) -> VectorField:
    if name == "constant":
        return VectorField.constant(np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 1.0]]))
    if name == "scalar_linear":
        return VectorField.scalar_linear()
    if name == "diagonal_linear":
        return VectorField.diagonal_linear(3)
    if name == "example1_field":
        return example1_field(CounterexampleConfig(gamma=1.3, beta_exp=3.0, rho_exp=4.5))
    return request.getfixturevalue("spiral_driver").field


def _outer(y: np.ndarray) -> np.ndarray:
    """f[i, j] = y[i] y[j], a module-level callable, as a pickled field needs."""
    return y[..., :, None] * y[..., None, :]


def _random_states(n: int) -> np.ndarray:
    """States ``(3, 40, n)`` over several scales, zeros included; for n = 2 one
    sheet crosses example 1's collar ``|y1| / y2`` in (0.15, 0.3)."""
    rng = np.random.default_rng(5)
    states = rng.normal(size=(3, 40, n)) * 10.0 ** rng.integers(-3, 4, size=(3, 40, 1))
    states[0, :4] = 0.0
    if n == 2:
        y2 = rng.uniform(0.0, 2.0, 40)
        states[1] = np.column_stack([y2 * rng.uniform(-0.4, 0.4, 40), y2])
    return states


class TestVectorField:
    @pytest.mark.parametrize("name", ["constant", "scalar_linear", "diagonal_linear",
                                      "example1_field", "explosion"])
    def test_batch_is_the_stacked_single_states(self, request, name):
        field = _builtin_field(name, request)
        states = _random_states(field.n)
        methods = [field.eval] + [m for m, has in ((field.deriv1, field.has_deriv1),
                                                   (field.deriv2, field.has_deriv2)) if has]
        for method in methods:
            batch = method(states)
            single = np.array([method(y) for y in states.reshape(-1, field.n)])
            assert batch.shape == states.shape[:-1] + single.shape[1:]
            assert batch.tobytes() == single.tobytes()

    @pytest.mark.parametrize("parts", [
        {"func": np.zeros((2, 3))},
        {"func": np.zeros((2, 2)), "deriv1": np.zeros((2, 2))},
        {"func": np.zeros((2, 2)), "deriv2": np.zeros((2, 2, 2))},
        {"func": np.array([[0.0, np.inf], [0.0, 0.0]])},
        {"func": np.zeros((2, 2)), "deriv1": np.full((2, 2, 2), np.nan)},
        {"func": np.zeros((2, 2)), "deriv2": np.full((2, 2, 2, 2), -np.inf)},
        {"func": np.zeros((2, 2)), "deriv2": np.broadcast_to(np.nan, (2, 2, 2, 2))},
    ], ids=["func-shape", "deriv1-shape", "deriv2-shape", "func-inf", "deriv1-nan",
            "deriv2-inf", "deriv2-zero-stride-nan"])
    def test_constant_part_of_wrong_shape_or_not_finite_is_refused(self, parts):
        with pytest.raises(ValueError, match="constant"):
            VectorField(2, 2, **parts)

    def test_constant_derivative_is_frozen_and_broadcast_over_a_batch(self):
        d1 = np.arange(8.0).reshape(2, 2, 2)
        field = VectorField(2, 2, np.zeros((2, 2)), deriv1=d1)
        with pytest.raises(ValueError, match="read-only"):
            d1[0, 0, 0] = -1.0
        one = field.deriv1(np.zeros(2))
        assert one is d1 and not one.flags.writeable
        batch = field.deriv1(np.zeros((3, 4, 2)))
        assert batch.shape == (3, 4, 2, 2, 2) and not batch.flags.writeable
        assert np.array_equal(batch, np.broadcast_to(one, batch.shape))

    @pytest.mark.parametrize("build", [lambda: VectorField.diagonal_linear(64),
                                       lambda: VectorField.constant(np.ones((256, 2)))],
                             ids=["diagonal_linear-64", "constant-256x2"])
    def test_zero_second_derivative_is_not_allocated(self, build):
        # a dense zero D2 would take 128 and 256 MiB; the zero-stride one takes none
        tracemalloc.start()
        try:
            field = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        d2 = field.deriv2(np.ones(field.n))
        assert not d2.flags.writeable and not np.any(d2[0, 0])

    def test_scalar_linear_is_multiplication(self):
        field = VectorField.scalar_linear()
        assert field.eval(np.array([2.5]))[0, 0] == 2.5
        assert field.deriv1(np.array([2.5]))[0, 0, 0] == 1.0

    def test_diagonal_linear_shapes(self):
        field = VectorField.diagonal_linear(3)
        y = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(field.eval(y), np.diag(y))

    @pytest.mark.parametrize("n", [0, -1])
    def test_diagonal_linear_refuses_empty_dimension(self, n):
        with pytest.raises(ValueError, match="diagonal_linear"):
            VectorField.diagonal_linear(n)

    @pytest.mark.parametrize("n", [2.0, 2.5, True])
    def test_diagonal_linear_refuses_a_fractional_or_boolean_size(self, n):
        with pytest.raises(TypeError, match="^n must be an integer"):
            VectorField.diagonal_linear(n)

    def test_diagonal_linear_accepts_a_numpy_integer_size(self):
        field = VectorField.diagonal_linear(np.int64(2))
        assert (field.n, field.d) == (2, 2) and type(field.n) is int

    def test_builtin_linear_fields_carry_their_matrices(self):
        assert np.array_equal(VectorField.scalar_linear().matrices, np.ones((1, 1, 1)))
        assert np.array_equal(VectorField.diagonal_linear(3).matrices,
                              [np.diag(e) for e in np.eye(3)])
        assert VectorField.constant([[1.0]]).matrices is None
        field = VectorField.linear([[[0.3, 0.6], [-0.2, 0.1]], [[-0.1, 0.2], [0.7, 0.4]]])
        copy, y = pickle.loads(pickle.dumps(field)), np.array([[0.5, -2.0], [1.5, 3.0]])
        assert np.array_equal(copy.matrices, field.matrices)
        assert np.array_equal(copy.eval(y), field.eval(y))

    def test_a_field_pickles_when_its_parts_do(self):
        y = np.array([[0.5, -2.0], [1.5, 3.0]])
        for field in (VectorField.constant([[1.0, 2.0], [3.0, 4.0]]),
                      VectorField(2, 2, _outer, deriv1=np.zeros((2, 2, 2)))):
            copy = pickle.loads(pickle.dumps(field))
            assert np.array_equal(copy.eval(y), field.eval(y))

    def test_eval_rejects_wrong_output_shape(self):
        bad = VectorField(n=2, d=2, func=lambda y: np.zeros((3, 2)))
        for y in (np.zeros(2), np.zeros((4, 2))):
            with pytest.raises(ValueError, match="field returned shape"):
                bad.eval(y)

    @pytest.mark.parametrize("n, d, error", [
        (2.7, 1.2, TypeError), (2.0, 1, TypeError), (2, np.float64(1.0), TypeError),
        (0, 1, ValueError), (2, -1, ValueError)])
    def test_refuses_non_integral_or_empty_dimensions(self, n, d, error):
        with pytest.raises(error):
            VectorField(n, d, lambda y: np.zeros(y.shape[:-1] + (2, 1)))

    @pytest.mark.parametrize("n, d", [(True, True), (2, False), (np.True_, 1)])
    def test_refuses_boolean_dimensions(self, n, d):
        with pytest.raises(TypeError, match="must be an integer, not a bool"):
            VectorField(n, d, np.zeros((1, 1)))

    def test_accepts_numpy_integer_dimensions(self):
        field = VectorField(np.int64(2), np.uint8(1), np.zeros((2, 1)))
        assert (field.n, field.d) == (2, 1) and type(field.n) is int


class TestTrajectory:
    def test_csv_round_trip_is_exact(self, tmp_path):
        times = np.array([0.0, 0.1, 0.2])
        states = np.array([[1.0], [1.0 / 3.0], [math.pi]])
        traj = Trajectory(times, states, scheme="euler")
        target = tmp_path / "traj.csv"
        traj.write_csv(target)
        rows = target.read_text().strip().splitlines()
        assert rows[0] == "t,y_1"
        got = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
        assert np.array_equal(got[:, 0], times)
        assert np.array_equal(got[:, 1], states[:, 0])

    @pytest.mark.parametrize("shape", ["blocks", "special", "one-row"])
    def test_csv_bytes_equal_the_csv_writer(self, tmp_path, shape):
        """Header, repr floats and CRLF row ends, byte for byte as ``csv.writer`` writes them."""
        if shape == "blocks":
            rows = 2 * core._CSV_ROWS + 3
            times = np.linspace(0.0, 1.0, rows)
            states = np.random.default_rng(7).standard_normal((rows, 3)).cumsum(axis=0)
        elif shape == "special":
            times = np.array([0.0, 1e-7, 0.1 + 0.2, 1e16])
            states = np.array([[-0.0, 5e-324], [1e16, 1e-7], [0.1 + 0.2, -1.5e308],
                               [5e-324, -0.0]])
        else:
            times, states = np.array([0.0]), np.array([[1e6]])
        traj = Trajectory(times, states, scheme="euler",
                          exploded_at=0 if shape == "one-row" else None)
        traj.write_csv(tmp_path / "got.csv")
        oracles.trajectory_csv(tmp_path / "want.csv", times, states)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == times.size + 1

    def test_exploded_flag(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [9.0]]),
                          scheme="euler", exploded_at=1)
        assert traj.exploded and traj.n == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), scheme="euler")


class TestGrowthEnvelope:
    def test_consistent_pair_is_accepted(self):
        GrowthEnvelope(1.2, 0.4, 0.8)

    def test_violating_pair_is_refused(self):
        with pytest.raises(ValueError, match="pairing"):
            GrowthEnvelope(2.0, 0.4, 0.8)

    @pytest.mark.parametrize("growth_exp, area_exp, beta", [
        (0.8, 0.1, 0.7),
        (1.1, 0.3, 0.8), (1.4, 0.6, 0.8), (1.7, 0.9, 0.8), (0.9 + 0.8, 0.9, 0.8),
        (2.0, 1.2, 0.8), (2.3, 1.5, 0.8),
    ], ids=["0.7+0.1", "gallery-1.1-0.3", "gallery-1.4-0.6", "gallery-1.7-0.9",
            "gallery-0.9+0.8-0.9", "gallery-2.0-1.2", "gallery-2.3-1.5"])
    def test_pairing_at_rounding_is_accepted(self, growth_exp, area_exp, beta):
        # beta + area_exp - growth_exp is -1.1e-16 for 0.7 + 0.1 against 0.8, 2.2e-16
        # for 1.7 against 0.8 + 0.9 and 0 for the others: equality, rounded
        GrowthEnvelope(growth_exp, area_exp, beta)

    @pytest.mark.parametrize("excess", [1e-14, 1e-12, 1e-10, 7e-11])
    def test_pairing_past_roundoff_is_refused(self, excess):
        # the former check sampled 61 radii up to 1e6 with a relative slack of 1e-9,
        # so it let an excess up to about 7.2e-11 through
        with pytest.raises(ValueError, match="pairing"):
            GrowthEnvelope(1.2 + excess, 0.4, 0.8)

    @pytest.mark.parametrize("args, match", [
        ((math.nan, 0.4, 0.8), "must be finite"), ((1.2, math.inf, 0.8), "must be finite"),
        ((-math.inf, 0.4, 0.8), "must be finite"), ((1.2, 0.4, math.nan), "beta must lie"),
        ((1.2, 0.4, 0.0), "beta must lie"),
    ], ids=["nan-growth", "inf-area", "minus-inf-growth", "nan-beta", "zero-beta"])
    def test_inadmissible_exponents_are_refused(self, args, match):
        with pytest.raises(ValueError, match=match):
            GrowthEnvelope(*args)

    @pytest.mark.parametrize("args, p, diverges", [
        ((0.5, 0.9, 0.8), 1.5, True),  # q == -1.0 exactly
        ((0.65 / 0.7, 0.3, 0.8), 1.5, True),  # q + 1 == -2.2e-16: -1 rounded
        ((0.99, 0.0, 1.0), 1.5, True),  # q = -0.99
        ((1.0, 2e-14, 1.0), 1.5, False),  # q = -1 - 1e-14
        ((1.0, 0.02, 1.0), 1.5, False),  # q = -1.01
        ((1.2, 0.4, 0.8), 1.5, False),  # q = -1.3
    ])
    def test_divergence_is_q_at_least_minus_one(self, args, p, diverges):
        assert GrowthEnvelope(*args).diverges(p) is diverges

    @pytest.mark.parametrize("args, p, r", [
        ((400.0, 400.0, 1.0), 1.5, 2.0**20), ((-40.0, -40.0, 1.0), 1.5, 2.0**20),
        ((44.0, 44.0, 1.0), 1.5, 1e7), ((0.5, 0.9, 0.8), 1.5, 2.0**1001),
    ], ids=["400-400", "q-60", "44-44-y-max", "radius-past-2**1000"])
    def test_overflowing_powers_are_refused(self, args, p, r):
        with pytest.raises(ValueError, match="envelope exponents overflow float64"):
            GrowthEnvelope(*args).check_powers(p, r)

    def test_powers_in_range_pass(self):
        GrowthEnvelope(1.2, 0.4, 0.8).check_powers(1.5, 2.0**20)
        # q = -1: R^q and the octave masses stay in range far past 2**20
        GrowthEnvelope(0.5, 0.9, 0.8).check_powers(1.5, 2.0**1000)
        with pytest.raises(ValueError, match="overflow"):
            GrowthEnvelope(1.2, 0.4, 0.8).check_powers(1.5, 2.0**20, 51.0)


class TestRefusals:
    """Each input check of the value types raises its own error type."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda: DriverPath(np.zeros((2, 2)), np.zeros((2, 1))), ValueError,
         "times must be 1-dimensional"),
        (lambda: Trajectory([0.0, 1.0], [1.0, 2.0], scheme="euler"), ValueError,
         "states must be 2-dimensional"),
        (lambda: DriverPath([0.0], [[0.0]]), ValueError, "at least two samples"),
        (lambda: DriverPath([0.0, 1.0, 1.0], np.zeros((3, 1))), ValueError,
         "strictly increasing"),
        (lambda: control_fit(DriverPath([0.0, 1.0], [[0.0], [1.0]]), 0.0), ValueError,
         "p must be positive"),
        (lambda: chen_combine(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(2), np.zeros(3)),
         ValueError, "must share a shape"),
        (lambda: VectorField(1, 1, np.ones((1, 1))).deriv1([0.0]), NotImplementedError,
         "no first derivative"),
        (lambda: VectorField(1, 1, np.ones((1, 1))).deriv2([0.0]), NotImplementedError,
         "no second derivative"),
        (lambda: VectorField.constant([1.0, 2.0]), ValueError, r"\(n, d\) matrix"),
    ], ids=["driver-times-2d", "trajectory-states-1d", "one-sample-path",
            "repeated-time", "control-fit-p-0", "chen-shape-mismatch", "no-deriv1",
            "no-deriv2", "constant-field-not-2d"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()
