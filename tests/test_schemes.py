"""Tests for the step schemes, augmented flows, and defect reports."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from roughstep.core import (
    AreaProcess,
    DriverPath,
    NumericsError,
    Partition,
    VectorField,
)
from roughstep.drivers import PolynomialPath, analytic_area
from roughstep.schemes import (
    SchemeConfig,
    augmented_solve,
    corrected_solve,
    defect,
    euler_solve,
    extended_solve,
    jacobian_view,
    window_pairs,
)


def _linear_field(matrix: np.ndarray) -> VectorField:
    """f(y) = M y against a one-dimensional driver."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]

    def func(y):
        return (m @ y)[:, None]

    def deriv1(y):
        out = np.zeros((n, n, 1))
        for h in range(n):
            out[h, :, 0] = m[:, h]
        return out

    return VectorField(n, 1, func, deriv1=deriv1, smoothness=np.inf)


class TestSchemeConfig:
    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="milstein")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SchemeConfig(explosion_threshold=0.0)


class TestEulerSolve:
    def test_zero_field_keeps_state(self, bm1):
        _, path, _ = bm1
        field = VectorField.constant(np.zeros((2, 1)))
        traj = euler_solve(field, path.subsample(256), np.array([1.5, -2.0]))
        assert np.array_equal(traj.states, np.tile([1.5, -2.0], (17, 1)))

    def test_matches_manual_loop_bitwise(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = path.subsample(64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        y = np.array([1.0])
        for k in range(sub.n_intervals):
            y = y + gbm_field.eval(y) @ (sub.values[k + 1] - sub.values[k])
            assert np.array_equal(traj.states[k + 1], y)

    def test_constant_field_telescopes(self, poly_pair):
        _, path, _ = poly_pair
        c = np.array([[2.0, -1.0], [0.5, 3.0]])
        traj = euler_solve(VectorField.constant(c), path, np.zeros(2))
        want = c @ (path.values[-1] - path.values[0])
        assert np.allclose(traj.states[-1], want, rtol=0, atol=1e-13)

    def test_partition_restricts_steps(self, bm1, gbm_field, uniform_partition):
        _, path, _ = bm1
        part = uniform_partition(16)
        traj = euler_solve(gbm_field, path, np.array([1.0]), partition=part)
        assert traj.times.size == 17
        stride = path.n_intervals // 16
        y = np.array([1.0])
        for k in range(16):
            dx = path.values[(k + 1) * stride] - path.values[k * stride]
            y = y + gbm_field.eval(y) @ dx
        assert np.array_equal(traj.states[-1], y)

    def test_partition_must_lie_on_grid(self, bm1, gbm_field):
        _, path, _ = bm1
        part = Partition(np.array([0.0, 0.3333, 1.0]))
        with pytest.raises(ValueError):
            euler_solve(gbm_field, path, np.array([1.0]), partition=part)

    def test_initial_state_dimension_checked(self, bm1, gbm_field):
        _, path, _ = bm1
        with pytest.raises(ValueError):
            euler_solve(gbm_field, path, np.array([1.0, 2.0]))

    def test_explosion_threshold_truncates(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 33))
        cfg = SchemeConfig(explosion_threshold=2.0)
        traj = euler_solve(gbm_field, path, np.array([1.0]), config=cfg)
        assert traj.exploded
        assert traj.times.size == traj.exploded_at + 1
        assert np.linalg.norm(traj.states[-1]) > 2.0
        assert np.all(np.abs(traj.states[:-1]) <= 2.0)

    def test_initial_state_beyond_threshold(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        cfg = SchemeConfig(explosion_threshold=0.5)
        traj = euler_solve(gbm_field, path, np.array([1.0]), config=cfg)
        assert traj.exploded_at == 0 and traj.states.shape == (1, 1)

    def test_non_finite_state_raises(self):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        bad = VectorField(1, 1, lambda y: np.array([[np.inf]]))
        with pytest.raises(NumericsError):
            euler_solve(bad, path, np.array([1.0]))

    @pytest.mark.parametrize("y0", [[np.nan], [np.inf], [-np.inf]], ids=["nan", "inf", "-inf"])
    def test_non_finite_initial_state_refused_before_stepping(self, gbm_field, y0):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        area = analytic_area(PolynomialPath(np.array([[0.0, 1.0]])), path)
        with pytest.raises(ValueError, match="y0 must be finite"):
            euler_solve(gbm_field, path, y0)
        with pytest.raises(ValueError, match="y0 must be finite"):
            corrected_solve(gbm_field, path, area, y0)


class TestCorrectedSolve:
    def test_single_step_is_milstein(self, gbm_field):
        h, dw = 0.25, 0.3
        path = DriverPath(np.array([0.0, h]), np.array([[0.0], [dw]]))
        area = AreaProcess(path, np.array([[[0.5 * (dw**2 - h)]]]), "ito")
        traj = corrected_solve(gbm_field, path, area, np.array([1.0]))
        assert traj.states[1, 0] == pytest.approx(
            oracles.milstein_step(1.0, dw, h), rel=1e-15)

    def test_constant_field_equals_euler_bitwise(self, poly_pair):
        _, path, area = poly_pair
        field = VectorField.constant(np.array([[1.0, 2.0], [0.0, -1.0]]))
        plain = euler_solve(field, path, np.array([1.0, 2.0]))
        fancy = corrected_solve(field, path, area, np.array([1.0, 2.0]))
        assert np.array_equal(plain.states, fancy.states)

    def test_tracks_exponential_solution(self, bm1, gbm_field, uniform_partition):
        _, path, area = bm1
        part = uniform_partition(256)
        traj = corrected_solve(gbm_field, path, area, np.array([1.0]), partition=part)
        w_end = path.values[-1, 0]
        assert traj.states[-1, 0] == pytest.approx(
            oracles.gbm_ito_terminal(w_end, 1.0, 1.0), abs=0.02)

    def test_requires_first_derivative(self, bm1):
        _, path, area = bm1
        bare = VectorField(1, 1, lambda y: y[:, None])
        with pytest.raises(NotImplementedError):
            corrected_solve(bare, path, area, np.array([1.0]))

    def test_rejects_foreign_grid(self, bm1, gbm_field):
        _, path, area = bm1
        other = DriverPath(np.linspace(0, 2, path.times.size), path.values)
        with pytest.raises(ValueError):
            corrected_solve(gbm_field, other, area, np.array([1.0]))


class TestAugmentedSolve:
    def test_zero_field_keeps_identity_sensitivity(self, bm1):
        _, path, _ = bm1
        field = VectorField.constant(np.zeros((2, 1)))
        traj = augmented_solve(field, path.subsample(256), np.array([0.5, 0.5]))
        jac = jacobian_view(traj, 2)
        assert np.array_equal(jac, np.tile(np.eye(2), (17, 1, 1)))

    def test_linear_field_jacobian_is_transition_product(self, bm1):
        _, path, _ = bm1
        sub = path.subsample(64)
        m = np.array([[0.2, -0.7], [0.4, 0.1]])
        traj = augmented_solve(_linear_field(m), sub, np.array([1.0, -1.0]))
        jac = jacobian_view(traj, 2)[-1]
        prod = np.eye(2)
        for k in range(sub.n_intervals):
            dx = float(sub.values[k + 1, 0] - sub.values[k, 0])
            prod = (np.eye(2) + dx * m) @ prod
        assert np.allclose(jac, prod, rtol=0, atol=1e-13)

    def test_euler_sensitivity_matches_finite_differences(self, bm2, smooth22):
        _, path, _, _ = bm2
        sub = path.subsample(64)
        y0 = np.array([0.4, -0.2])
        traj = augmented_solve(smooth22, sub, y0)
        fd = oracles.central_jacobian(
            lambda z: euler_solve(smooth22, sub, z).states[-1], y0)
        assert np.allclose(jacobian_view(traj, 2)[-1], fd, rtol=0, atol=1e-6)

    def test_corrected_sensitivity_matches_finite_differences(
            self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(128)
        y0 = np.array([0.4, -0.2])
        traj = augmented_solve(smooth22, path, y0, scheme="corrected",
                               area=ito, partition=part)
        fd = oracles.central_jacobian(
            lambda z: corrected_solve(smooth22, path, ito, z,
                                      partition=part).states[-1], y0)
        assert np.allclose(jacobian_view(traj, 2)[-1], fd, rtol=0, atol=1e-6)

    def test_custom_initial_sensitivity_composes(self, bm1):
        _, path, _ = bm1
        sub = path.subsample(128)
        m = np.array([[0.3, 0.0], [-0.5, 0.2]])
        z0 = np.array([[2.0, 1.0], [0.0, 1.0]])
        base = augmented_solve(_linear_field(m), sub, np.ones(2))
        seeded = augmented_solve(_linear_field(m), sub, np.ones(2), z0=z0)
        want = jacobian_view(base, 2)[-1] @ z0
        assert np.allclose(jacobian_view(seeded, 2)[-1], want, rtol=0, atol=1e-12)

    def test_corrected_needs_area_and_second_derivative(self, bm2):
        _, path, ito, _ = bm2
        no_d2 = VectorField(2, 2, lambda y: np.zeros((2, 2)),
                            deriv1=lambda y: np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            augmented_solve(no_d2, path, np.zeros(2), scheme="corrected")
        with pytest.raises(NotImplementedError):
            augmented_solve(no_d2, path, np.zeros(2), scheme="corrected", area=ito)

    def test_jacobian_view_checks_width(self, bm1, gbm_field):
        _, path, _ = bm1
        traj = euler_solve(gbm_field, path.subsample(512), np.array([1.0]))
        with pytest.raises(ValueError):
            jacobian_view(traj, 1)


class TestExtendedSolve:
    def test_driver_copy_reproduces_path(self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(64)
        sol = extended_solve(smooth22, path, ito, np.array([0.4, -0.2]), partition=part)
        stride = path.n_intervals // 64
        assert np.allclose(sol.x_states, path.values[::stride], rtol=0, atol=1e-12)

    def test_state_block_matches_plain_corrected_solve(
            self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(64)
        sol = extended_solve(smooth22, path, ito, np.array([0.4, -0.2]), partition=part)
        plain = corrected_solve(smooth22, path, ito, np.array([0.4, -0.2]), partition=part)
        assert np.allclose(sol.y_states, plain.states, rtol=0, atol=1e-12)

    def test_tables_on_linear_driver_are_half_squares(self):
        """With f = 1 and x = t every table increment is (t-s)^2 / 2."""
        poly = PolynomialPath(np.array([[0.0, 1.0]]))
        path = poly.sample(np.linspace(0.0, 1.0, 129))
        area = analytic_area(poly, path)
        field = VectorField.constant(np.array([[1.0]]))
        sol = extended_solve(field, path, area, np.array([0.0]))
        t = path.times
        for k, l in [(0, 128), (5, 17), (64, 100)]:
            want = 0.5 * (t[l] - t[k]) ** 2
            tables = sol.pair_tables(k, l)
            for key in ("xf", "yx", "yf"):
                assert tables[key][0, 0] == pytest.approx(want, abs=1e-10)

    def test_zero_field_zeroes_fast_tables(self, poly_pair):
        _, path, area = poly_pair
        field = VectorField.constant(np.zeros((1, 2)))
        sol = extended_solve(field, path, area, np.array([3.0]))
        tables = sol.pair_tables(0, path.n_intervals)
        assert np.array_equal(tables["xf"], np.zeros((2, 1)))
        assert np.array_equal(tables["yf"], np.zeros((1, 1)))
        # y never moves, so its calibrated cross table vanishes too
        assert np.allclose(tables["yx"], np.zeros((1, 2)), rtol=0, atol=1e-15)

    def test_chain_identity_residuals_are_roundoff(
            self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(128)
        sol = extended_solve(smooth22, path, ito, np.array([0.4, -0.2]), partition=part)
        rng = np.random.default_rng(17)
        for _ in range(25):
            k, m, l = np.sort(rng.choice(129, size=3, replace=False))
            for value in sol.chain_residuals(k, m, l).values():
                assert value <= 1e-8

    def test_pair_indices_validated(self, poly_pair):
        _, path, area = poly_pair
        field = VectorField.constant(np.array([[1.0, 0.0]]))
        sol = extended_solve(field, path, area, np.array([0.0]))
        with pytest.raises(IndexError):
            sol.pair_tables(10, 5)

    def test_requires_first_derivative(self, poly_pair):
        _, path, area = poly_pair
        bare = VectorField(1, 2, lambda y: np.ones((1, 2)))
        with pytest.raises(NotImplementedError):
            extended_solve(bare, path, area, np.array([0.0]))


class TestWindowPairs:
    def test_small_case_enumerated(self):
        got = window_pairs(5, 2)
        want = np.array([[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [2, 4], [3, 4]])
        assert np.array_equal(got, want)

    def test_degenerate_input_gives_empty(self):
        assert window_pairs(1, 8).shape == (0, 2)

    def test_span_cap_respected(self):
        got = window_pairs(200, 16)
        assert np.max(got[:, 1] - got[:, 0]) == 16


class TestDefect:
    def test_adjacent_euler_defect_is_exactly_zero(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = path.subsample(16)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        report = defect(traj, gbm_field, sub, gamma=1.5, p=2.5, pairs="adjacent")
        assert np.array_equal(report.magnitudes, np.zeros(sub.n_intervals))
        assert report.pair_policy == "adjacent"

    def test_adjacent_corrected_defect_is_exactly_zero(self, bm2, smooth22,
                                                       uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(64)
        traj = corrected_solve(smooth22, path, ito, np.array([0.4, -0.2]),
                               partition=part)
        report = defect(traj, smooth22, path, gamma=1.5, p=2.5, area=ito,
                        pairs="adjacent")
        assert np.array_equal(report.magnitudes, np.zeros(64))

    def test_window_report_fields(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = path.subsample(64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        report = defect(traj, gbm_field, sub, gamma=1.5, p=2.5, max_span=8)
        assert report.pair_policy == "window"
        assert report.pairs.shape[0] == report.magnitudes.size == report.ratios.size
        omega = report.control.omega(sub.times[report.pairs[:, 0]],
                                     sub.times[report.pairs[:, 1]])
        assert np.allclose(report.ratios, report.magnitudes / omega**0.6,
                           rtol=1e-12, atol=0)
        assert report.fitted_constant == np.max(report.ratios)

    def test_explicit_pairs_and_reused_control(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = path.subsample(64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        own = defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                     pairs=np.array([[0, 3], [10, 40]]))
        assert own.pair_policy == "custom"
        modulus = own.control
        again = defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                       pairs=np.array([[0, 3], [10, 40]]), control=modulus)
        assert again.control is modulus
        assert np.array_equal(own.magnitudes, again.magnitudes)

    def test_corrected_scheme_requires_area(self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(32)
        traj = corrected_solve(smooth22, path, ito, np.zeros(2), partition=part)
        with pytest.raises(ValueError):
            defect(traj, smooth22, path, gamma=1.5, p=2.5)

    def test_steep_exponents_require_area(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = path.subsample(32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=2.5, p=2.0)

    @pytest.mark.parametrize("gamma,p", [(0.0, 2.0), (1.0, -1.0)])
    def test_exponent_validation(self, bm1, gbm_field, gamma, p):
        _, path, _ = bm1
        sub = path.subsample(32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=gamma, p=p)

    def test_malformed_pair_inputs(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = path.subsample(32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5, pairs=np.arange(6))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                   pairs=np.zeros((0, 2), dtype=int))
        with pytest.raises(IndexError):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                   pairs=np.array([[0, 999]]))
