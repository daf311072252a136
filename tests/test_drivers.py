"""Tests for the driver constructions and their closed-form companions."""
from __future__ import annotations

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from roughstep import drivers
from roughstep.core import DriverPath, GrowthEnvelope
from roughstep.drivers import (
    BrownianConfig,
    ChainCurve,
    CounterexampleConfig,
    PolynomialPath,
    brownian_path,
    degenerate_area,
    example1_driver,
    example1_solution_pair,
    explosion_driver,
    ito_area,
    power_law_envelope,
    process_envelope,
    stratonovich_area,
)
from roughstep.drivers import (
    _BAND_BLOCK,
    _EXPLOSION_STATE,
    _K_MAX,
    _chain_capacity,
    _chain_table,
    _mollifier_weights,
    _spiral_path,
)


class TestBrownianPath:
    def test_grid_and_start(self, bm1):
        cfg, path, _ = bm1
        assert path.times.size == 2**cfg.level + 1
        assert np.array_equal(path.values[0], np.zeros(cfg.d))

    def test_same_seed_reproduces_bitwise(self):
        cfg = BrownianConfig(d=3, level=6, seed=123)
        assert np.array_equal(brownian_path(cfg).values, brownian_path(cfg).values)

    def test_path_stream_independent_of_bridge_resolution(self):
        a = brownian_path(BrownianConfig(d=2, level=5, seed=9, substeps=4))
        b = brownian_path(BrownianConfig(d=2, level=5, seed=9, substeps=64))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(d=0, level=4, seed=1), dict(d=1, level=0, seed=1),
         dict(d=1, level=25, seed=1), dict(d=1, level=4, seed=1, substeps=1),
         dict(d=1, level=4, seed=1, t_end=0.0)],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BrownianConfig(**kwargs)


class TestBrownianAreas:
    def test_diagonal_identity_is_exact(self, bm2):
        cfg, path, ito, _ = bm2
        h = np.diff(path.times)
        dw = path.increments
        want = 0.5 * (dw**2 - h[:, None])
        for j in range(cfg.d):
            assert np.array_equal(ito.per_interval[:, j, j], want[:, j])

    def test_scalar_case_has_no_bridge(self, bm1):
        cfg, path, ito = bm1
        h = np.diff(path.times)
        want = 0.5 * (path.increments[:, 0] ** 2 - h)
        assert np.array_equal(ito.per_interval[:, 0, 0], want)

    def test_conventions_share_offdiagonal_bitwise(self, bm2):
        _, _, ito, strat = bm2
        off = ~np.eye(2, dtype=bool)
        assert np.array_equal(ito.per_interval[:, off], strat.per_interval[:, off])

    def test_convention_shift_is_half_cell_width(self, bm2):
        _, path, ito, strat = bm2
        h = np.diff(path.times)
        for j in range(2):
            got = strat.per_interval[:, j, j] - ito.per_interval[:, j, j]
            assert np.allclose(got, 0.5 * h, rtol=0, atol=1e-18)

    def test_stratonovich_requires_ito_input(self, bm2):
        _, _, _, strat = bm2
        with pytest.raises(ValueError):
            stratonovich_area(strat)

    def test_bridge_depends_on_resolution_but_diagonal_does_not(self):
        lo = BrownianConfig(d=2, level=5, seed=9, substeps=4)
        hi = BrownianConfig(d=2, level=5, seed=9, substeps=64)
        area_lo = ito_area(brownian_path(lo), lo)
        area_hi = ito_area(brownian_path(hi), hi)
        assert np.array_equal(area_lo.per_interval[:, 0, 0], area_hi.per_interval[:, 0, 0])
        assert not np.array_equal(area_lo.per_interval[:, 0, 1], area_hi.per_interval[:, 0, 1])


class TestBridge:
    """``_bridge_offdiag`` is bitwise the mean/cumsum/einsum oracle on the same normals.

    d = 1 is left out: with substeps >= 16 numpy reduces the oracle's
    contiguous length-``substeps`` axis pairwise in ``mean`` and ``einsum``,
    so the bits differ there by up to 3e-17; ``ito_area`` never builds a
    bridge at d = 1.
    """

    @pytest.mark.parametrize("substeps", [2, 3, 16, 17])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equals_the_oracle_bitwise(self, d, substeps):
        for level, seed, t_end in itertools.product([1, 6, 11], [0, 42, 2024], [1.0, 2.5]):
            cfg = BrownianConfig(d=d, level=level, seed=seed, t_end=t_end, substeps=substeps)
            path = brownian_path(cfg)
            seeds = np.random.SeedSequence([seed, drivers._BRIDGE_STREAM])
            xi = np.random.default_rng(seeds).standard_normal((cfg.n_intervals, substeps, d))
            want = oracles.bridge_offdiag(path.increments, np.diff(path.times), xi)
            got = drivers._bridge_offdiag(path, cfg)
            assert got.flags.c_contiguous and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (level, seed, t_end)

    @pytest.mark.parametrize("d, substeps, level, chunks", [
        (2, 16, 13, 4), (2, 16, 14, 8), (5, 17, 12, 6)])
    def test_chunked_draws_equal_the_oracle_on_one_draw_bitwise(self, d, substeps, level, chunks):
        """Above one chunk.  For d = 5 with 17 substeps a chunk is 771 intervals,
        which does not divide 4096, so the last of the 6 chunks is partial."""
        step = max(1, drivers._BRIDGE_CHUNK // (substeps * d))
        assert -(-2**level // step) == chunks
        cfg = BrownianConfig(d=d, level=level, seed=2024, t_end=2.5, substeps=substeps)
        path = brownian_path(cfg)
        seeds = np.random.SeedSequence([cfg.seed, drivers._BRIDGE_STREAM])
        xi = np.random.default_rng(seeds).standard_normal((cfg.n_intervals, substeps, d))
        want = oracles.bridge_offdiag(path.increments, np.diff(path.times), xi)
        assert drivers._bridge_offdiag(path, cfg).tobytes() == want.tobytes()

    def test_every_chunk_size_gives_the_same_bits(self, monkeypatch):
        cfg = BrownianConfig(d=3, level=7, seed=5, substeps=5)
        path = brownian_path(cfg)
        want = drivers._bridge_offdiag(path, cfg).tobytes()
        for chunk in [1, 15, 16, 100, 2**20]:  # 1, 1, 1, 6 and all 128 intervals a chunk
            monkeypatch.setattr(drivers, "_BRIDGE_CHUNK", chunk)
            assert drivers._bridge_offdiag(path, cfg).tobytes() == want, chunk

    def test_streams_the_normals(self):
        """At level 14, d = 2 the one-call draw alone is 4 MiB of normals; the
        chunked bridge peaks below that (2.5 MiB measured)."""
        cfg = BrownianConfig(d=2, level=14, seed=3)
        path = brownian_path(cfg)
        drivers._bridge_offdiag(path, cfg)
        tracemalloc.start()
        try:
            drivers._bridge_offdiag(path, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestItoAreaRefusesAForeignPath:
    @pytest.mark.parametrize("built, given, sides", [
        (BrownianConfig(d=3, level=5, seed=1, t_end=2.0), BrownianConfig(d=2, level=6, seed=1),
         "(3, 32, 2.0) does not match its config's (2, 64, 1.0)"),
        (BrownianConfig(d=3, level=6, seed=1), BrownianConfig(d=2, level=6, seed=1),
         "(3, 64, 1.0) does not match its config's (2, 64, 1.0)"),
        (BrownianConfig(d=2, level=5, seed=1), BrownianConfig(d=2, level=6, seed=1),
         "(2, 32, 1.0) does not match its config's (2, 64, 1.0)"),
        (BrownianConfig(d=2, level=6, seed=1, t_end=2.0), BrownianConfig(d=2, level=6, seed=1),
         "(2, 64, 2.0) does not match its config's (2, 64, 1.0)"),
        (BrownianConfig(d=1, level=6, seed=1), BrownianConfig(d=1, level=6, seed=1, t_end=0.5),
         "(1, 64, 1.0) does not match its config's (1, 64, 0.5)"),
    ], ids=["all", "d", "intervals", "t_end", "t_end-d1"])
    def test_names_both_sides(self, built, given, sides):
        with pytest.raises(ValueError, match=re.escape(f"path (d, intervals, t_end) = {sides}")):
            ito_area(brownian_path(built), given)

    def test_a_different_seed_is_not_refused(self):
        path = brownian_path(BrownianConfig(d=2, level=4, seed=1))
        assert ito_area(path, BrownianConfig(d=2, level=4, seed=2)).n_intervals == 16


class TestDegenerateArea:
    @pytest.fixture
    def walk(self):
        rng = np.random.default_rng(21)
        return DriverPath(np.linspace(0, 1, 18),
                          np.cumsum(rng.normal(size=(18, 2)), axis=0) * 0.3)

    def test_per_interval_formula(self, walk):
        area = degenerate_area(walk)
        x = walk.values
        for k in range(walk.n_intervals):
            assert np.array_equal(area.per_interval[k], -np.outer(x[k], x[k + 1] - x[k]))
        assert area.kind == "degenerate"

    def test_closed_form_holds_over_every_span(self, walk):
        """The collapsed blocks fold to -x(s) (x(t) - x(s))^T for any pair,
        which is the algebraic statement of exact pairwise consistency."""
        area = degenerate_area(walk)
        x = walk.values
        for i in range(18):
            for k in range(i + 1, 18):
                want = -np.outer(x[i], x[k] - x[i])
                assert np.allclose(area.pair(i, k), want, rtol=0, atol=1e-13)

    def test_consistency_on_spiral_driver(self):
        path = _spiral_path(CounterexampleConfig(grid=2048), 0.0)
        area = degenerate_area(path)
        x = path.values
        rng = np.random.default_rng(4)
        for _ in range(100):
            i, j, k = np.sort(rng.choice(x.shape[0], size=3, replace=False))
            combined = oracles.chen_reference(
                area.pair(i, j), area.pair(j, k), x[j] - x[i], x[k] - x[j]
            )
            assert np.allclose(area.pair(i, k), combined, rtol=0, atol=1e-15)


class TestPolynomialArea:
    def test_monomial_pair_full_span(self, poly_pair):
        poly, path, area = poly_pair
        want = np.array([[0.5, 2.0 / 3.0], [1.0 / 3.0, 0.5]])
        assert np.allclose(area.pair(0, path.n_intervals), want, rtol=0, atol=1e-12)

    def test_fold_matches_direct_closed_form(self, poly_pair):
        poly, path, area = poly_pair
        t = path.times
        for i, k in [(0, 64), (17, 401), (100, 512)]:
            assert np.allclose(area.pair(i, k), poly.area(t[i], t[k]),
                               rtol=0, atol=1e-13)

    def test_area_on_arrays_is_the_scalar_area_per_interval(self, poly_pair):
        poly, path, _ = poly_pair
        s, t = path.times[[0, 17, 100]], path.times[[64, 401, 512]]
        blocks = poly.area(s, t)
        assert blocks.shape == (3, poly.d, poly.d)
        for m in range(3):
            assert blocks[m].tobytes() == poly.area(s[m], t[m]).tobytes()

    def test_richardson_sums_converge_to_closed_form(self, poly_pair):
        poly, _, _ = poly_pair
        got = oracles.richardson_area(poly.value, 0.2, 0.9, 4096)
        assert np.allclose(got, poly.area(0.2, 0.9), rtol=0, atol=1e-8)

    def test_symmetric_part_is_half_square_increment(self, poly_pair):
        """A(s,t) + A(s,t)^T = dx dx^T holds for any genuine area."""
        poly, path, area = poly_pair
        dx = path.increments
        blocks = area.per_interval
        want = np.einsum("kr,kj->krj", dx, dx)
        assert np.allclose(blocks + np.swapaxes(blocks, 1, 2), want,
                           rtol=0, atol=1e-15)

    def test_value_matches_polyval(self):
        poly = PolynomialPath(np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 0.0]]))
        t = np.array([0.0, 0.3, 1.7])
        want = np.column_stack([1.0 - 2.0 * t + 0.5 * t**2, 3.0 * t])
        assert np.allclose(poly.value(t), want, rtol=0, atol=1e-15)


class TestPerturbedArea:
    def test_blocks_shift_by_phi(self, poly_pair):
        _, path, area = poly_pair
        shift = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pert = oracles.perturbed_area(area, lambda s, t: (t - s) * shift)
        h = np.diff(path.times)
        want = area.per_interval + h[:, None, None] * shift
        assert np.array_equal(pert.per_interval, want)
        assert pert.kind == "perturbed"


class TestOscillatoryCounterexample:
    def test_default_config_is_admissible(self):
        cfg = CounterexampleConfig()
        assert cfg.growth_exponent == pytest.approx(3.2)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(gamma=1.3),           # gamma >= rho/beta
         dict(p=1.45),              # (rho+1)/beta >= p
         dict(gamma=0.9),           # chain fine but gamma <= 1
         dict(ramp=0.6),
         dict(grid=8),
         dict(t_min_factor=1.5)],
    )
    def test_config_rejections(self, kwargs):
        with pytest.raises(ValueError):
            CounterexampleConfig(**kwargs)

    def test_driver_grid_and_metadata(self, example1):
        cfg, path, _ = example1
        assert path.times[0] == 0.0 and path.times[-1] == cfg.t_max
        assert np.array_equal(path.values[0], np.zeros(2))
        assert np.all(path.values[1:, 1] > 0)

    def test_field_collar_regions(self, example1):
        cfg, _, field = example1
        tau, gamma = cfg.ramp, cfg.gamma
        y2 = 0.37
        grown_val = y2**gamma
        # dead zone: zero through |y1| = tau * y2
        assert field.eval(np.array([0.0, y2]))[0, 0] == 0.0
        assert field.eval(np.array([tau * y2, y2]))[0, 0] == 0.0
        assert field.eval(np.array([-0.5 * tau * y2, y2]))[0, 0] == 0.0
        # saturated zone: the bare power law from 2 * tau * y2 outwards
        assert field.eval(np.array([2.0 * tau * y2, y2]))[0, 0] == grown_val
        assert field.eval(np.array([-9.0 * tau * y2, y2]))[0, 0] == grown_val
        # smoothstep midpoint: u = 1/2 gives weight 1/2
        mid = field.eval(np.array([1.5 * tau * y2, y2]))[0, 0]
        assert mid == pytest.approx(0.5 * grown_val, rel=1e-12)
        # second component copies the second driver coordinate
        assert field.eval(np.array([1.0, y2]))[1, 1] == 1.0
        assert not field.has_deriv1

    def test_field_on_the_grown_branch_is_the_scalar_formula(self, example1, example1_pair):
        """One batched call equals the per-state float formula bit for bit, whose
        ``y2**gamma`` numpy's ``power`` misses by an ulp on some of these states."""
        cfg, _, field = example1
        _, grown = example1_pair
        tau = cfg.ramp
        want = np.zeros((grown.states.shape[0], 2, 2))
        want[:, 1, 1] = 1.0
        for m, (y1, y2) in enumerate(grown.states.tolist()):
            if y2 > 0:
                u = (abs(y1) - tau * y2) / (tau * y2)
                if u > 0:
                    u = min(u, 1.0)
                    want[m, 0, 0] = (u * u * (3 - 2 * u)) * y2**cfg.gamma
        assert field.eval(grown.states).tobytes() == want.tobytes()

    def test_flat_branch_and_shared_component(self, example1, example1_pair):
        _, path, _ = example1
        flat, grown = example1_pair
        assert np.array_equal(flat.states[:, 0], np.zeros(path.times.size))
        assert np.array_equal(flat.states[:, 1], path.values[:, 1])
        assert np.array_equal(grown.states[:, 1], path.values[:, 1])
        assert np.all(grown.states[1:, 0] > 0)

    def test_grown_branch_matches_quadrature_oracle(self, example1, example1_pair):
        cfg, path, _ = example1
        _, grown = example1_pair
        i = int(np.searchsorted(path.times, 0.1))
        want = oracles.spiral_increment(cfg.gamma, cfg.beta_exp, cfg.rho_exp,
                                        path.times[i], path.times[-1])
        got = grown.states[-1, 0] - grown.states[i, 0]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(grid=8192),
        dict(gamma=1.3, beta_exp=3.0, rho_exp=4.5, grid=8192),
        dict(gamma=1.01, beta_exp=5.0, rho_exp=5.2, t_max=0.5, grid=8192),
        dict(gamma=1.5, beta_exp=2.0, rho_exp=3.5, t_max=1.0, p=2.5, grid=8192),
        dict(gamma=1.2, beta_exp=6.0, rho_exp=7.5, t_max=0.9, t_min_factor=0.5, grid=8192),
        dict(grid=32768),
    ])
    def test_grown_branch_bitwise_equal_to_256_harmonics(self, kwargs):
        cfg = CounterexampleConfig(**kwargs)
        path, _ = example1_driver(cfg)
        _, grown = example1_solution_pair(cfg, path)
        want = oracles.spiral_grown_component(cfg.gamma, cfg.beta_exp, cfg.rho_exp, path.times)
        assert grown.states[:, 0].tobytes() == want.tobytes()

    def test_grown_branch_leading_power(self, example1, example1_pair):
        cfg, path, _ = example1
        _, grown = example1_pair
        c0 = oracles.spiral_level_constant(cfg.gamma, cfg.beta_exp, cfg.rho_exp)
        for j in (200, 1000):
            t = path.times[j]
            assert grown.states[j, 0] == pytest.approx(
                c0 * t**cfg.growth_exponent, rel=1e-10)

    def test_terminal_separation_golden(self, example1_pair):
        flat, grown = example1_pair
        sep = abs(grown.states[-1, 0] - flat.states[-1, 0])
        assert sep == pytest.approx(0.001958296852956953, rel=1e-12)


class TestSpiralDemo:
    def test_driver_matches_formula(self):
        cfg = CounterexampleConfig(grid=512)
        path = _spiral_path(cfg, 0.0)
        t = path.times[1:]
        amp, phase = t**cfg.beta_exp, t ** (-cfg.rho_exp)
        assert np.array_equal(path.values[1:, 0], amp * np.cos(phase))
        assert np.array_equal(path.values[1:, 1], amp * np.sin(phase))
        assert np.array_equal(path.values[0], np.zeros(2))


# (3, 7), (3, 9) and every capacity chain from k = 4: all that _select_levels picks
_REACHABLE_LEVELS = [(3, 7), (3, 9)] + [(k, _chain_capacity(k)) for k in range(4, _K_MAX + 1)]


class TestChainCurve:
    def test_level_selection_golden(self, chain6):
        assert chain6.levels == [(3, 9), (3, 9), (5, 25), (6, 35), (7, 49), (6, 35)]
        assert chain6.total_cells == 121550625

    @pytest.mark.parametrize("k", range(3, _K_MAX + 1))
    def test_chain_at_capacity_builds_in_every_orientation(self, k):
        """The selection may pick m = _chain_capacity(k); every orientation must exist."""
        m = _chain_capacity(k)
        assert m % 2 == 1 and k * k - 2 < m <= k * k
        squares, _ = _chain_table(k, m)
        assert squares.shape == (16, m, 2)

    def test_tables_golden(self):
        """The eleven pairs level selection can pick, every orientation."""
        digest = hashlib.sha256()
        for k, m in _REACHABLE_LEVELS:
            for table in _chain_table(k, m):
                digest.update(table.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "636cab42625cfbfd0b932ac80511fccd2274ad375ac7e2c967a1ad483706d40f")

    def test_tables_are_cached_read_only(self):
        first, again = _chain_table(5, 25), _chain_table(5, 25)
        assert all(a is b and not a.flags.writeable for a, b in zip(first, again))

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_selection_picks_only_the_reachable_levels(self, depth):
        """The argument in _select_levels' docstring, on a grid of 4000 alphas."""
        picked = set()
        for alpha in np.linspace(0.5, 1.0, 4002)[1:-1].tolist():
            try:
                picked.update(drivers._select_levels(alpha, depth))
            except ValueError:  # alpha too close to 1/2 for this depth
                pass
        assert picked <= set(_REACHABLE_LEVELS)

    @pytest.mark.parametrize("k, m", [(5, 31), (6, 25), (6, 45), (12, 133)])
    def test_corner_chain_refuses_a_length_the_zigzag_cannot_make(self, k, m):
        with pytest.raises(ValueError, match=f"cannot reach m={m} at k={k}"):
            drivers._corner_chain(k, m)

    def test_band_stats_refuse_depth_one(self):
        with pytest.raises(ValueError, match="depth"):
            ChainCurve(0.7, 1).band_stats(10, np.random.default_rng(0))

    def test_traverses_left_to_right(self, chain6):
        start, end = chain6.eval(0.0), chain6.eval(1.0)
        assert start[0] < 1e-5 and end[0] > 1 - 1e-5
        assert start[1] == pytest.approx(0.5, abs=1e-5)
        assert end[1] == pytest.approx(0.5, abs=1e-5)

    def test_values_stay_in_unit_square(self, chain6):
        u = chain6.eval(np.linspace(0, 1, 1024))
        assert np.all(u >= 0) and np.all(u <= 1)

    def test_adjacent_samples_obey_upper_band(self, chain6):
        path = chain6.sample(4096)
        gap = path.times[1] - path.times[0]
        du = np.max(np.abs(np.diff(path.values, axis=0)))
        assert du <= 3.0 * gap**chain6.alpha

    def test_band_constants_golden(self, chain6):
        lo, hi = chain6.band_stats(10_000, np.random.default_rng(42))
        assert lo == pytest.approx(0.360157790927006, rel=1e-9)
        assert hi == pytest.approx(1.3076923076923053, rel=1e-9)

    def test_digit_round_trip(self, chain6):
        """Indices on either side of every mixed-radix digit carry land where the walk does."""
        places = np.cumprod(chain6.m_seq[::-1])[:-1]
        index = np.concatenate([places - 1, places, [87654321, chain6.total_cells - 1]])
        want = np.array([self._walk(chain6, int(i)) for i in index])
        assert np.array_equal(chain6.eval_index(index), want)
        for outside in (-1, chain6.total_cells):
            with pytest.raises(IndexError):
                chain6.eval_index(outside)

    @staticmethod
    def _walk(curve, index):
        """Center of the cell at ``index`` by one descent per level: the scalar reference."""
        digits = []
        for m in reversed(curve.m_seq):
            digits.append(index % m)
            index //= m
        x0, y0, size = 0.0, 0.0, 1.0
        state = 1  # entry L, exit R
        for level, digit in enumerate(reversed(digits)):
            squares, succ = _chain_table(*curve.levels[level])
            c, r = squares[state, digit]
            size /= curve.n_seq[level]
            x0 += c * size
            y0 += r * size
            state = succ[state, digit]
        return np.array([x0 + 0.5 * size, y0 + 0.5 * size])

    def test_eval_index_equals_the_per_index_walk(self, chain6):
        rng = np.random.default_rng(5)
        idx = np.concatenate([rng.integers(0, chain6.total_cells, 2000),
                              [0, chain6.total_cells - 1]])
        want = np.array([self._walk(chain6, int(i)) for i in idx])
        assert np.array_equal(chain6.eval_index(idx), want)
        assert np.array_equal(chain6.eval_index(int(idx[0])), want[0])

    @staticmethod
    def _assert_band_stats_equal_the_loop(curve, n_pairs, make_rng):
        """Draws, constants and the generator state left behind are the per-pair loop's."""
        loop = make_rng()
        want = oracles.chain_pair_draws(loop, n_pairs, curve.depth, curve.delta,
                                        curve.total_cells)
        assert np.array_equal(curve._draw_pairs(n_pairs, make_rng()), want)
        r, start, gap_cells = want
        u = curve.eval_index(np.stack([start, start + gap_cells]))
        mag = np.max(np.abs(u[1] - u[0]), axis=1)
        rng = make_rng()
        assert curve.band_stats(n_pairs, rng) == (float(np.min(mag / curve.eps[r])),
                                                  float(np.max(mag / curve.eps[r - 1])))
        np.testing.assert_equal(rng.bit_generator.state, loop.bit_generator.state)

    @pytest.mark.parametrize("seed", [0, 42, *range(2001, 2025)])
    def test_band_stats_equals_the_per_pair_loop(self, chain6, seed):
        """2000 pairs meet about 20 Lemire rejections, each flipping the word phase."""
        self._assert_band_stats_equal_the_loop(chain6, 2000, lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("alpha,depth,n_pairs", [
        (0.7, 2, 500),  # the level draw takes no bits
        (0.65, 7, 300),  # 2.8e12 cells: the start draw takes a full word
        (0.9, 3, 2000), (0.7, 4, 2000), (0.8, 5, 2000),
    ])
    def test_band_stats_equals_the_loop_on_other_curves(self, alpha, depth, n_pairs):
        curve = ChainCurve(alpha, depth)
        self._assert_band_stats_equal_the_loop(curve, n_pairs, lambda: np.random.default_rng(7))

    def test_band_stats_equals_the_loop_from_a_held_half_word(self, chain6):
        """A generator holding a spare 32-bit half starts in the odd phase, so its first
        rejection falls there; the pairs also span two evaluation blocks."""
        def make_rng():
            rng = np.random.default_rng(2024)
            rng.integers(0, 7)
            return rng

        assert make_rng().bit_generator.state["has_uint32"] == 1
        self._assert_band_stats_equal_the_loop(chain6, _BAND_BLOCK + 1000, make_rng)

    def test_band_stats_draw_the_gap_with_math_exp(self, chain6):
        """A pair whose exponent floors to a different gap under ``np.exp``.

        Near log(N / total_cells) the two exps of an exponent can straddle N.
        The search walks the 53-bit uniforms decoding close to such a point at
        level r = 3; the generator is then set to emit that uniform's word
        after an integer word drawing r = 3 and a start that is not rejected.
        """
        r, total = 3, chain6.total_cells
        log_lo = math.log(chain6.delta[r])
        log_span = math.log(chain6.delta[r - 1]) - log_lo
        for n in range(int(chain6.delta[r] * total) + 1, int(chain6.delta[r - 1] * total)):
            k0 = round((math.log(n / total) - log_lo) / log_span * 2**53)
            ks = np.arange(k0 - 16, k0 + 17, dtype=np.uint64)
            x = log_lo + log_span * (ks * 2.0**-53)
            by_math = np.array([int(math.exp(v) * total) for v in x.tolist()])
            split = np.flatnonzero(by_math != (np.exp(x) * total).astype(np.int64))
            if split.size:
                break
        uniform_word = int(ks[split[0]]) << 11
        int_word = 0x12345678 << 32 | 2**31  # low half: r - 1 = 2 of 5 levels

        def make_rng():
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = oracles.pcg64_state_emitting(int_word, uniform_word)
            return rng

        assert make_rng().bit_generator.random_raw(2).tolist() == [int_word, uniform_word]
        want = oracles.chain_pair_draws(make_rng(), 1, chain6.depth, chain6.delta, total)
        assert want[0, 0] == r and want[2, 0] == by_math[split[0]]
        self._assert_band_stats_equal_the_loop(chain6, 1, make_rng)

    def test_band_stats_equals_the_loop_on_mt19937(self, chain6):
        self._assert_band_stats_equal_the_loop(
            chain6, 500, lambda: np.random.Generator(np.random.MT19937(42)))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_non_finite_times_refused(self, chain6, t):
        with pytest.raises(ValueError):
            chain6.eval(t)

    @pytest.mark.parametrize("alpha,depth", [(0.4, 4), (1.0, 4), (0.7, 0), (0.7, 9)])
    def test_parameter_validation(self, alpha, depth):
        with pytest.raises(ValueError):
            ChainCurve(alpha, depth)

    def test_near_half_exponent_is_infeasible(self):
        with pytest.raises(ValueError):
            ChainCurve(0.51, 6)

    def test_sampled_path_metadata(self):
        path = ChainCurve(0.7, 3).sample(257)
        assert isinstance(path, DriverPath)


class TestExplosionDriver:
    def test_blow_up_time_golden(self, spiral_driver):
        assert spiral_driver.t_star == pytest.approx(15.733546296345121, rel=1e-12)

    def test_processed_exponents(self, spiral_driver):
        proc = spiral_driver.processed
        assert proc.rho1 == pytest.approx(0.875)
        assert proc.rho2 == pytest.approx(0.625)
        assert proc.r_hom == 2

    def test_power_laws_survive_processing(self, spiral_driver):
        """Homogenization and mollification keep D(y) = c y^1.2, A(y) = c y^0.4."""
        proc = spiral_driver.processed
        y = np.array([3.0, 47.0, 1234.5])
        assert np.allclose(proc.dstar(y) / proc.dstar(1.0), y**1.2, rtol=1e-12)
        assert np.allclose(proc.astar(y) / proc.astar(1.0), y**0.4, rtol=1e-12)

    def test_state_interpolation_hits_grid_nodes(self, spiral_driver):
        got = spiral_driver.state_of_t(spiral_driver.t_grid)
        assert np.allclose(got, spiral_driver.y_grid, rtol=1e-13)

    def test_threshold_crossing(self, spiral_driver):
        traj = spiral_driver.state_trajectory()
        assert traj.exploded
        assert traj.states[traj.exploded_at, 0] > _EXPLOSION_STATE
        assert np.all(traj.states[: traj.exploded_at, 0] <= _EXPLOSION_STATE)

    def test_unpacks_as_triple(self, spiral_driver):
        field, path, t_star = spiral_driver
        assert field is spiral_driver.field
        assert path is spiral_driver.path
        assert t_star == spiral_driver.t_star

    def test_driver_freezes_at_origin(self, spiral_driver):
        path = spiral_driver.path
        assert np.array_equal(path.values[-2:], np.zeros((2, 2)))
        assert path.times[-1] == pytest.approx(1.05 * spiral_driver.t_star, rel=1e-12)

    def test_polyline_integral_reproduces_state_growth(self, spiral_driver):
        """Integrate f(y(t)) dx along the shipped polyline and compare with
        the state increment; the residual is pure quadrature error."""
        t_star = spiral_driver.t_star
        t1, t2 = 0.5 * t_star, 0.9 * t_star
        tt = spiral_driver.path.times
        inner = tt[(tt > t1) & (tt < t2)]
        knots = np.concatenate([[t1], inner, [t2]])
        mids = 0.5 * (knots[:-1] + knots[1:])
        dx = spiral_driver.path.eval(knots[1:]) - spiral_driver.path.eval(knots[:-1])
        rows = np.array([spiral_driver.field.eval(spiral_driver.state_of_t([m]))[0]
                         for m in mids])
        integral = float(np.sum(rows * dx))
        dy = float(spiral_driver.state_of_t(t2) - spiral_driver.state_of_t(t1))
        assert abs(integral - dy) <= 1e-6 * abs(dy)

    def test_variation_exponent_needs_room_below_beta(self):
        with pytest.raises(ValueError):
            explosion_driver(power_law_envelope(0.7, 0.4, 0.4), 1.5)

    def test_divergent_time_integral_is_refused(self):
        with pytest.raises(ValueError, match="diverges"):
            explosion_driver(power_law_envelope(0.6, 0.3, 0.8), 1.5)

    @pytest.mark.parametrize("area_exp, delta", [
        (0.3, 0.8), (0.6, 0.4), (0.6, 0.8), (0.9, -0.2), (0.9, 0.0), (0.9, 0.4), (0.9, 0.8),
        (1.2, -0.4), (1.2, -0.2), (1.2, 0.0), (1.2, 0.4), (1.2, 0.8),
        (1.5, -0.4), (1.5, -0.2), (1.5, 0.0), (1.5, 0.4),
    ])
    def test_closed_form_matches_the_simpson_quadrature(self, area_exp, delta):
        """Time grid, blow-up time and phase against cell-wise Simpson sums of the
        densities, on the 16 envelopes of gate 09's gallery that build (the other
        nine diverge or, at 2.3/1.5, stall the time grid)."""
        drv = explosion_driver(power_law_envelope(area_exp + delta, area_exp, 0.8), 1.5)
        proc, y = drv.processed, drv.y_grid

        def time_density(u):
            return proc.astar(u) ** -proc.rho2 * proc.dstar(u) ** -proc.rho1

        t_grid = oracles.cumulative_simpson(time_density, y)
        tail_exp = proc.rho2 * proc.a_law[1] + proc.rho1 * proc.d_law[1]
        t_star = t_grid[-1] + time_density(y[-1]) * y[-1] / (tail_exp - 1.0)
        phase = oracles.cumulative_simpson(
            lambda u: (proc.astar(u) / proc.dstar(u)) ** (1.0 / proc.beta), y)
        np.testing.assert_allclose(drv.t_grid, t_grid, rtol=1e-12, atol=0)
        assert drv.t_star == pytest.approx(t_star, rel=1e-12)
        # the phase as the path ships it: the angle of each node against the oracle's
        nodes = drv.path.values[:-2, 0] + 1j * drv.path.values[:-2, 1]
        assert np.all(np.abs(np.angle(nodes * np.exp(-1j * phase))) <= 1e-12 * phase)

    def test_phase_exponent_minus_one_takes_the_log(self):
        # (A / D)^(1/beta) = c y^((0.5 - 1.5) / 1.0) = c / y: the phase is c log y
        drv = explosion_driver(power_law_envelope(1.5, 0.5, 1.0), 1.5)
        assert drv.t_star == pytest.approx(14.758377771691354, rel=1e-12)
        # a growth exponent 1e-9 off takes the expm1 form; 5.4e-9 apart measured
        near = explosion_driver(power_law_envelope(1.5 - 1e-9, 0.5, 1.0), 1.5)
        np.testing.assert_allclose(drv.path.values, near.path.values, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("growth_exp, area_exp, y_stall", [
        (2.3, 1.5, "4.437e+06"), (2.6, 2.2, "7.416e+04")])
    def test_saturating_time_grid_is_refused(self, growth_exp, area_exp, y_stall):
        # the time increments of these fast blow-ups fall below float resolution
        with pytest.raises(ValueError, match="too fast") as info:
            explosion_driver(power_law_envelope(growth_exp, area_exp, 0.8), 1.5)
        assert str(info.value).endswith(f"y = {y_stall}")


def _two_term_envelope():
    return GrowthEnvelope(
        growth=lambda r: np.asarray(r) ** 2.4 + np.asarray(r) ** 1.2,
        area_growth=lambda r: np.asarray(r) ** 1.6 + np.asarray(r) ** 0.4,
        beta=0.8,
    )


class TestProcessEnvelope:
    """The closed-form power laws of homogenization and mollification."""

    def test_non_power_law_envelope_is_refused(self):
        for build in (process_envelope, explosion_driver):
            with pytest.raises(ValueError, match="power_law_envelope"):
                build(_two_term_envelope(), 1.5)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_p_at_most_one_is_refused(self, p):
        # rho2 = (p - 1) / beta is 0 at p = 1 and negative below
        with pytest.raises(ValueError, match="1 < p"):
            process_envelope(power_law_envelope(1.2, 0.4, 0.8), p)


class TestEnvelopeFold:
    """The closed form against the oracle's row-wise ``np.min`` scan of the u-grid."""

    @pytest.mark.parametrize("growth_exp, area_exp", [
        (1.2, 0.4), (0.9, 0.9), (1.1, 0.3), (2.3, 1.5),
        # the r_hom tie: every u-grid value of u^2 (y/u)^2 agrees in exact arithmetic
        (2.0, 1.2),
        (2.4, 1.6), (2.6, 2.2),
    ], ids=["benchmark", "gallery-0.9-0.9", "gallery-1.1-0.3", "gallery-2.3-1.5",
            "r-hom-tie", "2.4-1.6", "2.6-2.2"])
    def test_closed_form_matches_the_min_scan(self, growth_exp, area_exp):
        env = power_law_envelope(growth_exp, area_exp, 0.8)
        proc = process_envelope(env, 1.5)
        y = np.geomspace(1.0, 2.0 * drivers._Y_MAX, 129)
        nodes, weights = _mollifier_weights()
        u_grid = np.geomspace(1.0, drivers._U_MAX, 512)
        dstar, astar = oracles.envelope_tables(env.growth, env.area_growth, y,
                                               nodes, weights, u_grid, proc.r_hom)
        np.testing.assert_allclose(proc.dstar(y), dstar, rtol=2e-15, atol=0)
        np.testing.assert_allclose(proc.astar(y), astar, rtol=2e-15, atol=0)

    def test_peak_memory_stays_blocked(self):
        # the closed form holds only the 65 mollifier nodes and the 61 pairing radii
        # (3.6 KiB peak measured)
        env = power_law_envelope(1.2, 0.4, 0.8)
        process_envelope(env, 1.5)
        tracemalloc.start()
        try:
            process_envelope(env, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
