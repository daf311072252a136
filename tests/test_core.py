"""Unit tests for the shared value types and their algebra."""
from __future__ import annotations

import math

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
    Partition,
    Trajectory,
    VectorField,
    chen_combine,
    control_fit,
)
from roughstep.drivers import CounterexampleConfig, example1_driver


class TestPartition:
    def test_uniform_endpoints_and_count(self):
        part = Partition.uniform(0.0, 2.0, 8)
        assert part.times.size == 9
        assert part.times[0] == 0.0 and part.times[-1] == 2.0

    @pytest.mark.parametrize("times", [[0.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_rejects_degenerate_grids(self, times):
        with pytest.raises(ValueError):
            Partition(np.asarray(times))


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
        sub = path.subsample(4)
        assert sub.n_intervals == 4
        assert np.array_equal(sub.values[[0, -1]], path.values[[0, -1]])

    def test_subsample_requires_divisible_stride(self):
        path = DriverPath(np.linspace(0, 1, 17), np.zeros((17, 1)))
        with pytest.raises(ValueError):
            path.subsample(3)

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
        path = DriverPath(np.linspace(0, 1, 33), np.full((33, 2), 0.7))
        assert control_fit(path, 1.5).c == 0.0

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
        fit = control_fit(path.subsample(16), 2.5)
        sub = path.subsample(16)
        for lag in (1, 7, 64):
            inc = np.max(np.abs(sub.values[lag:] - sub.values[:-lag]), axis=1)
            gap = sub.times[lag:] - sub.times[:-lag]
            assert np.all(inc**2.5 <= fit.c * gap * (1 + 1e-12))


def _all_lags_fit(path: DriverPath, p: float, first_lag: int = 1) -> float:
    """Max of ``max_i |dx_i|^p / dt`` over every pair from ``first_lag`` up, unpruned."""
    t, v = path.times, path.values
    c = 0.0
    for lag in range(first_lag, t.size):
        inc = np.max(np.abs(v[lag:] - v[:-lag]), axis=1)
        c = max(c, float(np.max(inc**p / (t[lag:] - t[:-lag]))))
    return c


@st.composite
def _random_paths(draw):
    """Non-uniform grids of 2-300 points; cumulated draws give walks, runs and ties."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 2))
    gaps = draw(hnp.arrays(np.float64, n, elements=st.floats(1e-3, 10.0)))
    steps = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-10.0, 10.0)))
    return DriverPath(np.cumsum(gaps), np.cumsum(steps, axis=0))


class TestControlFitExact:
    """The block branch-and-bound must return the all-pairs constant bit for bit."""

    def test_geometric_grid(self):
        cfg = CounterexampleConfig(grid=2048)
        path, _ = example1_driver(cfg)
        fit = control_fit(path, cfg.p).c
        assert fit == _all_lags_fit(path, cfg.p)

    def test_random_nonuniform_planar_path(self):
        rng = np.random.default_rng(2024)
        dt = rng.exponential(size=1000)
        times = np.cumsum(dt)
        values = np.cumsum(rng.normal(size=(1000, 2)) * np.sqrt(dt)[:, None], axis=0)
        path = DriverPath(times, values)
        fit = control_fit(path, 2.5).c
        assert fit == _all_lags_fit(path, 2.5)
        # The maximum sits more than one block apart, so pruning decided it.
        assert fit == _all_lags_fit(path, 2.5, first_lag=64)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
    @pytest.mark.parametrize("kind", ["ramp", "walk"])
    def test_block_edges_and_partial_blocks(self, n, kind):
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.uniform(0.5, 1.5, size=n))
        if kind == "ramp":
            # |dx|^2 / dt grows with the gap: the maximum is the first and last sample.
            values = 2.0 * times
        else:
            values = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        path = DriverPath(times, values)
        assert control_fit(path, 2.0).c == _all_lags_fit(path, 2.0)

    @pytest.mark.parametrize("i, j", [(63, 64), (127, 128), (0, 127), (60, 130)])
    def test_maximum_on_block_boundary(self, i, j):
        """A unit rise from sample i to sample j puts the maximum on exactly (i, j)."""
        times = np.linspace(0.0, 1.0, 200)
        k = np.arange(200)
        path = DriverPath(times, np.clip((k - i) / (j - i), 0.0, 1.0))
        fit = control_fit(path, 2.0).c
        assert fit == _all_lags_fit(path, 2.0)
        assert fit == 1.0 / (times[j] - times[i])

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_small_blocks(self, monkeypatch, block):
        """One-sample blocks make each bound tie its ratio; 2 and 5 leave short last blocks."""
        rng = np.random.default_rng(block)
        path = DriverPath(np.cumsum(rng.exponential(size=300)),
                          np.cumsum(rng.normal(size=(300, 2)), axis=0))
        monkeypatch.setattr(core, "_FIT_BLOCK", block)
        assert control_fit(path, 2.5).c == _all_lags_fit(path, 2.5)

    @settings(max_examples=150, deadline=None)
    @given(path=_random_paths(), p=st.floats(1.0, 3.0),
           block=st.integers(4, 70), chunk=st.integers(1, 40))
    def test_matches_all_lags_on_random_paths(self, path, p, block, chunk):
        want = _all_lags_fit(path, p)
        assert control_fit(path, p).c == want
        # Small blocks and chunks put every branch to work on short paths.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_FIT_BLOCK", block)
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
        return path, AreaProcess(path, blocks, "perturbed")

    def test_adjacent_pair_is_the_stored_block(self, toy):
        _, area = toy
        assert area.pair(5, 6) is not area.per_interval[5]
        assert np.array_equal(area.pair(5, 6), area.per_interval[5])

    def test_pair_equals_explicit_fold(self, toy):
        path, area = toy
        x = path.values
        acc = area.per_interval[3].copy()
        for k in range(4, 11):
            acc = chen_combine(acc, area.per_interval[k], x[k] - x[3], x[k + 1] - x[k])
        assert np.allclose(area.pair(3, 11), acc, rtol=0, atol=1e-12)

    def test_empty_pair_is_zero(self, toy):
        _, area = toy
        assert np.array_equal(area.pair(9, 9), np.zeros((2, 2)))

    def test_consistency_on_random_triples(self, toy):
        path, area = toy
        rng = np.random.default_rng(8)
        x = path.values
        for _ in range(50):
            i, j, k = np.sort(rng.choice(33, size=3, replace=False))
            combined = oracles.chen_reference(
                area.pair(i, j), area.pair(j, k), x[j] - x[i], x[k] - x[j]
            )
            assert np.allclose(area.pair(i, k), combined, rtol=0, atol=1e-12)

    def test_shape_and_kind_validation(self, toy):
        path, _ = toy
        with pytest.raises(ValueError):
            AreaProcess(path, np.zeros((32, 3, 3)), "ito")
        with pytest.raises(ValueError):
            AreaProcess(path, np.zeros((32, 2, 2)), "levy")

    def test_with_intervals_swaps_blocks_only(self, toy):
        path, area = toy
        other = area.with_intervals(np.zeros((32, 2, 2)), "degenerate")
        assert other.kind == "degenerate"
        assert other.path is area.path
        assert np.array_equal(other.pair(4, 5), np.zeros((2, 2)))
        # over longer spans only the cross terms of the fold remain
        x = path.values
        acc = np.zeros((2, 2))
        for k in range(1, 32):
            acc = acc + np.outer(x[k] - x[0], x[k + 1] - x[k])
        assert np.allclose(other.pair(0, 32), acc, rtol=0, atol=1e-12)


class TestVectorField:
    def test_correction_tensor_contracts_first_derivative(self, smooth22):
        y = np.array([0.3, -0.8])
        f = smooth22.eval(y)
        d1 = smooth22.deriv1(y)
        want = np.zeros((2, 2, 2))
        for i in range(2):
            for r in range(2):
                for j in range(2):
                    want[i, r, j] = sum(f[h, r] * d1[h, i, j] for h in range(2))
        assert np.allclose(smooth22.correction_tensor(y), want, rtol=0, atol=1e-15)

    def test_scalar_linear_is_multiplication(self):
        field = VectorField.scalar_linear()
        assert field.eval(np.array([2.5]))[0, 0] == 2.5
        assert field.deriv1(np.array([2.5]))[0, 0, 0] == 1.0

    def test_diagonal_linear_shapes(self):
        field = VectorField.diagonal_linear(3)
        y = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(field.eval(y), np.diag(y))

    def test_constant_field_has_zero_correction(self):
        field = VectorField.constant(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.array_equal(field.correction_tensor(np.zeros(2)), np.zeros((2, 2, 2)))

    def test_eval_rejects_wrong_output_shape(self):
        bad = VectorField(n=2, d=2, func=lambda y: np.zeros((3, 2)))
        with pytest.raises(ValueError):
            bad.eval(np.zeros(2))


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

    def test_exploded_flag(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [9.0]]),
                          scheme="euler", exploded_at=1)
        assert traj.exploded and traj.n == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), scheme="euler")


class TestGrowthEnvelope:
    def test_consistent_pair_validates(self):
        env = GrowthEnvelope(growth=lambda r: np.asarray(r) ** 1.2,
                             area_growth=lambda r: np.asarray(r) ** 0.4,
                             beta=0.8)
        env.validate()

    def test_violating_pair_is_refused(self):
        env = GrowthEnvelope(growth=lambda r: np.asarray(r) ** 2.0,
                             area_growth=lambda r: np.asarray(r) ** 0.4,
                             beta=0.8)
        with pytest.raises(ValueError):
            env.validate()
