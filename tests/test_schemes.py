"""Tests for the step schemes, augmented flows, and defect reports."""
from __future__ import annotations

import pickle
import re
import tracemalloc
import warnings
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from roughstep.analysis import convergence_study, gbm_terminal_ito
from roughstep.core import (
    AreaProcess,
    ControlModulus,
    DriverPath,
    NumericsError,
    Trajectory,
    VectorField,
    control_fit,
)
from roughstep.drivers import (
    BrownianConfig,
    PolynomialPath,
    analytic_area,
    brownian_path,
    ito_area,
)
from roughstep import schemes
from roughstep.schemes import (
    _advance,
    _built_cells,
    _coefficients,
    _contract,
    _kernel_rows,
    _linear_cells,
    _linear_step,
    _operators,
    _solve,
    augmented_solve,
    corrected_solve,
    defect,
    euler_solve,
    window_pairs,
)


def _linear_field(matrix: np.ndarray) -> VectorField:
    """f(y) = M y against a one-dimensional driver."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]

    def func(y):
        return (m * y[..., None, :]).sum(-1)[..., None]

    def deriv1(y):  # D1[h, i, 0] = M[i, h]
        return np.broadcast_to(m.T[:, :, None], y.shape[:-1] + (n, n, 1))

    return VectorField(n, 1, func, deriv1=deriv1)


def _linear_field_d(mats: np.ndarray) -> VectorField:
    """f(y)[:, j] = M_j y against a driver of dimension ``len(mats)``."""
    m = np.asarray(mats, dtype=float)
    d, n, _ = m.shape
    d1 = np.transpose(m, (2, 1, 0))
    return VectorField(n, d, lambda y: (m * y[..., None, None, :]).sum(-1).swapaxes(-1, -2),
                       deriv1=lambda y: np.broadcast_to(d1, y.shape[:-1] + d1.shape))


def _tanh_field(mats: np.ndarray, layout: str = "C") -> VectorField:
    """f(y)[:, j] = M_j tanh(y), returned C-ordered, transposed or as a strided view.

    Each row of a batch is the elementwise product and last-axis sum it takes on
    one state, so a batch maps bitwise row for row."""
    m = np.asarray(mats, dtype=float)
    d, n, _ = m.shape
    shapes = {
        "C": lambda f: np.ascontiguousarray(f),
        "transposed": lambda f: f,
        "view": lambda f: np.repeat(f, 2, axis=-1)[..., ::2],
    }

    def func(y):
        return shapes[layout]((m * np.tanh(y)[..., None, None, :]).sum(-1).swapaxes(-1, -2))

    def deriv1(y):
        return np.transpose(m, (2, 1, 0)) / np.cosh(y)[..., :, None, None] ** 2

    return VectorField(n, d, func, deriv1=deriv1)


def _per_state_tanh_field(mats: np.ndarray) -> VectorField:
    """The field of :func:`_tanh_field` written for one state, as a matmul, and looped
    over a batch one state at a time by ``np.vectorize``: a function written for one
    state meets the batch contract that way."""
    m = np.asarray(mats, dtype=float)
    d, n, _ = m.shape
    d1 = np.transpose(m, (2, 1, 0))
    return VectorField(
        n, d, np.vectorize(lambda y: (m @ np.tanh(y)).T, signature="(n)->(n,d)"),
        deriv1=np.vectorize(lambda y: d1 / np.cosh(y)[:, None, None] ** 2,
                            signature="(n)->(n,n,d)"))


@lru_cache(maxsize=None)
def _walk_driver(d: int):
    """A 1,024-cell Brownian driver and its Ito area: 16x finer than a 64-cell mesh."""
    cfg = BrownianConfig(d=d, level=10, seed=60 + d)
    path = brownian_path(cfg)
    return path, ito_area(path, cfg)


def _walk_failure(members, solve) -> str:
    """What a walk of ``members``, ``(name, partition)`` pairs, raises, from each member
    solved alone: of the members failing in the earliest round, the first listed."""
    failures = []
    for name, part in members:
        try:
            traj = solve(part)
        except NumericsError as err:  # non-finite after cell k, in round k
            failures.append((int(re.search(r"after step (\d+)", str(err)).group(1)), str(err)))
        else:
            if traj.exploded:
                failures.append((traj.exploded_at - 1, f"{name} crossed the explosion "
                                                       f"threshold at index {traj.exploded_at}"))
    return min(failures, key=lambda f: f[0])[1]


@lru_cache(maxsize=None)
def _brownian_with_area(d: int):
    cfg = BrownianConfig(d=d, level=5, seed=40 + d)
    path = brownian_path(cfg)
    return path, ito_area(path, cfg)


def _reference_operator(d1: np.ndarray, block: np.ndarray) -> np.ndarray:
    """One cell's operator ``T[i, h, k] = delta_ih dx_k + sum_j D1[h, i, j] A[k, j]`` from
    ``D1`` in the field's layout and the block ``[dx | A]``: the rows ``[delta | D1]``,
    ``D1`` as ``[i, h, j]``, as an ``(n n, 1 + d)`` matrix times the block transposed."""
    n = d1.shape[0]
    rows = np.concatenate([np.eye(n)[:, :, None], d1.swapaxes(0, 1)], axis=-1)
    return (rows.reshape(n * n, -1) @ block.T).reshape(n, n, -1)


def _reference_magnitudes(traj, field, path, area, pairs) -> np.ndarray:
    """The defect of each pair, one pair at a time: the left-point step over the pair
    with C-ordered coefficients, ``y + f @ [dx]`` for Euler and ``y + T : f`` with the
    pair's operator (:func:`_reference_operator`) when corrected, against the state
    at its right end."""
    idx = np.searchsorted(path.times, traj.times)
    x, y = path.values, traj.states
    corrected = traj.scheme == "corrected"
    mags = np.empty(len(pairs))
    for m, (k, l) in enumerate(pairs):
        f = np.ascontiguousarray(field.eval(y[k]))
        block = (x[idx[l]] - x[idx[k]])[:, None]
        if corrected:
            block = np.hstack([block, area.pairs([idx[k]], [idx[l]])[0]])
            t = _reference_operator(field.deriv1(y[k]), block)
            y_l = y[k] + np.einsum("ihk,hk->i", t, f)
        else:
            y_l = y[k] + (f @ block)[:, 0]
        mags[m] = np.max(np.abs(y[l] - y_l))
    return mags


class TestStepKernel:
    """The corrected step is ``y + T : f`` with the cell operator ``T`` built from ``D1``
    and the driver block; the correction tensor ``G`` is never formed.

    With ``y = 0`` and ``dx = 0`` the step returns its correction term alone, exactly.
    """

    @pytest.mark.parametrize("layout", ["C", "transposed", "view"])
    @pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 3)])
    def test_correction_matches_the_tensor_oracle(self, layout, d, n):
        rng = np.random.default_rng(100 * d + n)
        field = _tanh_field(rng.uniform(-1.5, 1.5, (d, n, n)), layout)
        y = rng.uniform(-1.0, 1.0, (32, n))
        a = rng.normal(size=(32, d, d))
        m = np.concatenate([np.zeros((32, d, 1)), a], axis=-1)
        f_all, rows = _coefficients(field, y, True)
        got = _advance(np.zeros((32, n)), f_all, _operators(rows, m), True)
        f = np.stack([field.eval(v) for v in y])
        d1 = np.stack([field.deriv1(v) for v in y])
        want = np.einsum("...irj,...rj->...i", oracles.correction_tensor(f, d1), a)
        scale = np.einsum("...hr,...hij,...rj->...i", np.abs(f), np.abs(d1), np.abs(a))
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
        single = []
        for v, mk in zip(y, m):
            fv, rv = _coefficients(field, v, True)
            single.append(_advance(np.zeros(n), fv, _operators(rv, mk), True))
        assert np.array_equal(np.array(single), got)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)])
    def test_contraction_is_einsum_bitwise(self, n, d, rows):
        # the C entry point gives np.einsum's bits, and a stacked batch its rows' bits
        rng = np.random.default_rng(1000 * rows + 10 * n + d)
        d1, fa = rng.normal(size=(rows, n, n, d)), rng.normal(size=(rows, n, d))
        got = _contract("...ihj,...hj->...i", d1, fa)
        assert np.array_equal(got, np.einsum("...ihj,...hj->...i", d1, fa))
        single = [_contract("...ihj,...hj->...i", a, b) for a, b in zip(d1, fa)]
        assert np.array_equal(np.array(single), got)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3, 8, 17, 33)
                                      for d in (1, 2, 3, 8, 17, 33)])
    def test_euler_step_of_one_state_is_its_stacked_row_bitwise(self, n, d, rows):
        # one state steps as y + f.dot(dx): bitwise its row of a stacked f @ [dx] and
        # (f @ [dx])[..., 0] on that state, also on the C-ordered values of a field returning
        # them transposed, taken per state as a walk takes them.  Every golden Euler job
        # has d = 1, so no byte audit sees these bits at d >= 2
        rng = np.random.default_rng(3000 * rows + 40 * n + d)
        y, dx = rng.normal(size=(rows, n)), rng.normal(size=(rows, d))
        field = _tanh_field(rng.uniform(-1.5, 1.5, (d, n, n)), "transposed")
        for f, per_state in [(rng.normal(size=(rows, n, d)), None),
                             (_coefficients(field, y, False)[0],
                              [_coefficients(field, v, False)[0] for v in y])]:
            stacked = _advance(y, f, dx[..., None], False)
            single = np.array([_advance(v, fv, x[:, None], False)
                               for v, fv, x in zip(y, f if per_state is None else per_state, dx)])
            assert np.array_equal(single, stacked)
            assert np.array_equal(single, [v + (fv @ x[:, None])[..., 0]
                                           for v, fv, x in zip(y, f, dx)])

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)])
    def test_operator_build_is_its_single_cell_builds_bitwise(self, n, d, rows, monkeypatch):
        # per-state rows, one shared block of rows, a lockstep stack of members and the
        # walk's chunked build each give every cell the operator it gets alone
        rng = np.random.default_rng(2000 * rows + 10 * n + d)
        d1, m = rng.normal(size=(rows, n, n, d)), rng.normal(size=(rows, d, 1 + d))
        per_state, shared = _kernel_rows(d1), _kernel_rows(d1[0])
        assert np.array_equal(per_state[0], shared) and shared.shape == (n, n, 1 + d)
        assert np.array_equal(_operators(per_state, m)[0], _reference_operator(d1[0], m[0]))
        for got, kernel in [(_operators(per_state, m), per_state), (_operators(shared, m),
                                                                    [shared] * rows)]:
            assert np.array_equal(np.array([_operators(r, c) for r, c in zip(kernel, m)]), got)
        stacked = _operators(shared, m.reshape(1, rows, d, 1 + d)[:, ::-1])[0, ::-1]
        assert np.array_equal(stacked, _operators(shared, m))
        monkeypatch.setattr(schemes, "_OPERATOR_CHUNK", 3 * n * n * d)  # chunks of 3 cells
        chunked = np.array(list(_built_cells(partial(_operators, shared), n * n * d, m)))
        assert np.array_equal(chunked, _operators(shared, m))

    def test_tensor_oracle_contracts_first_derivative(self, smooth22):
        y = np.array([0.3, -0.8])
        f = smooth22.eval(y)
        d1 = smooth22.deriv1(y)
        want = np.zeros((2, 2, 2))
        for i in range(2):
            for r in range(2):
                for j in range(2):
                    want[i, r, j] = sum(f[h, r] * d1[h, i, j] for h in range(2))
        assert np.allclose(oracles.correction_tensor(f, d1), want, rtol=0, atol=1e-15)

    def test_constant_field_has_zero_correction(self):
        field = VectorField.constant(np.array([[1.0, 2.0], [0.0, 1.0]]))
        m = np.concatenate([np.zeros((2, 1)), np.array([[0.3, -1.2], [0.7, 0.4]])], axis=-1)
        f, rows = _coefficients(field, np.zeros(2), True)
        assert np.array_equal(_advance(np.zeros(2), f, _operators(rows, m), True), np.zeros(2))


class TestSchemeConfig:
    def test_rejects_unknown_tag(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        with pytest.raises(ValueError):
            augmented_solve(gbm_field, path, np.array([1.0]), scheme="milstein")

    def test_rejects_bad_threshold(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        with pytest.raises(ValueError):
            euler_solve(gbm_field, path, np.array([1.0]), explosion_threshold=0.0)


    @pytest.mark.parametrize("threshold", [1e200, np.inf, np.nan])
    def test_rejects_a_threshold_whose_square_overflows(self, threshold):
        # above 1.3e154 a state under the threshold can have y . y = inf
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="at most 1e150"):
            euler_solve(VectorField.constant([[0.0]]), path, [1e160],
                        explosion_threshold=threshold)

    def test_threshold_at_the_bound_judges_states_by_their_norm(self):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        zero = VectorField.constant([[0.0]])
        assert euler_solve(zero, path, [1e149], explosion_threshold=1e150).exploded_at is None
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert euler_solve(zero, path, [1e160], explosion_threshold=1e150).exploded_at == 0

    def test_rejects_a_threshold_whose_square_underflows(self):
        # below about 1e-154 the square of a state just above the threshold is
        # subnormal, and below about 1e-162 it is 0
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        with pytest.raises(ValueError, match="at least 1e-150 and at most 1e150, got 1e-200"):
            euler_solve(VectorField.constant([[0.0]]), path, [1e-190],
                        explosion_threshold=1e-200)

    def test_threshold_at_the_lower_bound_judges_states_by_their_norm(self):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        zero = VectorField.constant([[0.0]])
        assert euler_solve(zero, path, [1e-151], explosion_threshold=1e-150).exploded_at is None
        assert euler_solve(zero, path, [1e-149], explosion_threshold=1e-150).exploded_at == 0


class TestEulerSolve:
    def test_zero_field_keeps_state(self, bm1):
        _, path, _ = bm1
        field = VectorField.constant(np.zeros((2, 1)))
        traj = euler_solve(field, oracles.subsample(path, 256), np.array([1.5, -2.0]))
        assert np.array_equal(traj.states, np.tile([1.5, -2.0], (17, 1)))

    def test_matches_manual_loop_bitwise(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 64)
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
        part = uniform_partition(path, 16)
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
        for part in ([0, 2048, path.n_intervals + 1], [-1, 2048, path.n_intervals]):
            with pytest.raises(ValueError, match="must lie in"):
                euler_solve(gbm_field, path, np.array([1.0]), partition=np.array(part))

    @pytest.mark.parametrize("part, error, match", [
        (np.linspace(0.0, 1.0, 17), TypeError, "integer grid indices, not float64 times"),
        (np.array([0]), ValueError, "at least two"),
        (np.array([[0, 16]]), ValueError, "at least two"),
        (np.array([0, 16, 16]), ValueError, "strictly increasing"),
        (np.array([0, 32, 16]), ValueError, "strictly increasing"),
        (np.array([0, 32, 16], dtype=np.uint64), ValueError, "strictly increasing"),
    ], ids=["float-times", "single", "two-dimensional", "repeated", "decreasing",
            "decreasing-unsigned"])
    def test_malformed_partition_refused(self, bm1, gbm_field, part, error, match):
        """Float times are refused even when they are grid times: none is searched for."""
        _, path, _ = bm1
        with pytest.raises(error, match=match):
            euler_solve(gbm_field, path, np.array([1.0]), partition=part)

    def test_initial_state_dimension_checked(self, bm1, gbm_field):
        _, path, _ = bm1
        with pytest.raises(ValueError):
            euler_solve(gbm_field, path, np.array([1.0, 2.0]))

    def test_field_driver_dimension_checked(self, bm1, smooth22):
        _, path, _ = bm1
        with pytest.raises(ValueError, match="driven by d=2, the path has d=1"):
            euler_solve(smooth22, path, np.zeros(2))

    def test_explosion_threshold_truncates(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 33))
        traj = euler_solve(gbm_field, path, np.array([1.0]), explosion_threshold=2.0)
        assert traj.exploded
        assert traj.times.size == traj.exploded_at + 1
        assert np.linalg.norm(traj.states[-1]) > 2.0
        assert np.all(np.abs(traj.states[:-1]) <= 2.0)

    def test_initial_state_beyond_threshold(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        traj = euler_solve(gbm_field, path, np.array([1.0]), explosion_threshold=0.5)
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
        part = uniform_partition(path, 256)
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
        traj = augmented_solve(field, oracles.subsample(path, 256), np.array([0.5, 0.5]))
        jac = oracles.jacobian_view(traj, 2)
        assert np.array_equal(jac, np.tile(np.eye(2), (17, 1, 1)))

    def test_linear_field_jacobian_is_transition_product(self, bm1):
        _, path, _ = bm1
        sub = oracles.subsample(path, 64)
        m = np.array([[0.2, -0.7], [0.4, 0.1]])
        traj = augmented_solve(_linear_field(m), sub, np.array([1.0, -1.0]))
        jac = oracles.jacobian_view(traj, 2)[-1]
        prod = np.eye(2)
        for k in range(sub.n_intervals):
            dx = float(sub.values[k + 1, 0] - sub.values[k, 0])
            prod = (np.eye(2) + dx * m) @ prod
        assert np.allclose(jac, prod, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("seed", range(8))
    def test_sensitivity_is_the_discrete_propagator_of_a_linear_field(self, scheme, seed):
        # f[:, j] = M_j y with non-commuting M_j: D1[h, i, j] = M_j[i, h] is not symmetric
        # under h <-> i, and the discrete flow is linear, so its Jacobian is the matrix
        # whose columns are the solves from the unit vectors
        mats = np.array([[[0.3, 0.6], [-0.2, 0.1]], [[-0.1, 0.2], [0.7, 0.4]]])
        field = VectorField(2, 2, _linear_field_d(mats).eval,
                            deriv1=np.transpose(mats, (2, 1, 0)), deriv2=np.zeros((2, 2, 2, 2)))
        cfg = BrownianConfig(d=2, level=10, seed=seed)
        path = brownian_path(cfg)
        area = ito_area(path, cfg)
        y0 = np.array([0.4, -0.2])
        aug = augmented_solve(field, path, y0, scheme=scheme, area=area)
        solve = {"euler": lambda e: euler_solve(field, path, e),
                 "corrected": lambda e: corrected_solve(field, path, area, e)}[scheme]
        propagator = np.column_stack([solve(e).states[-1] for e in np.eye(2)])
        gap = np.max(np.abs(oracles.jacobian_view(aug, 2)[-1] - propagator))
        assert gap <= 1e-13 * np.max(np.abs(propagator))

    def test_euler_sensitivity_matches_finite_differences(self, bm2, smooth22):
        _, path, _, _ = bm2
        sub = oracles.subsample(path, 64)
        y0 = np.array([0.4, -0.2])
        traj = augmented_solve(smooth22, sub, y0)
        fd = oracles.central_jacobian(
            lambda z: euler_solve(smooth22, sub, z).states[-1], y0)
        assert np.allclose(oracles.jacobian_view(traj, 2)[-1], fd, rtol=0, atol=1e-6)

    def test_corrected_sensitivity_matches_finite_differences(
            self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(path, 128)
        y0 = np.array([0.4, -0.2])
        traj = augmented_solve(smooth22, path, y0, scheme="corrected",
                               area=ito, partition=part)
        fd = oracles.central_jacobian(
            lambda z: corrected_solve(smooth22, path, ito, z,
                                      partition=part).states[-1], y0)
        assert np.allclose(oracles.jacobian_view(traj, 2)[-1], fd, rtol=0, atol=1e-6)

    def test_custom_initial_sensitivity_composes(self, bm1):
        _, path, _ = bm1
        sub = oracles.subsample(path, 128)
        m = np.array([[0.3, 0.0], [-0.5, 0.2]])
        z0 = np.array([[2.0, 1.0], [0.0, 1.0]])
        base = augmented_solve(_linear_field(m), sub, np.ones(2))
        seeded = augmented_solve(_linear_field(m), sub, np.ones(2), z0=z0)
        want = oracles.jacobian_view(base, 2)[-1] @ z0
        assert np.allclose(oracles.jacobian_view(seeded, 2)[-1], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_initial_sensitivity_refused(self, bm1, bad):
        """A non-finite ``z0`` is an input error, refused before stepping: not an
        explosion at index 0 nor a ``NumericsError`` after step 0."""
        _, path, _ = bm1
        with pytest.raises(ValueError, match="z0 must be finite"):
            augmented_solve(_linear_field(np.eye(1)), oracles.subsample(path, 16), np.ones(1),
                            z0=[[bad]])

    def test_corrected_needs_area_and_second_derivative(self, bm2):
        _, path, ito, _ = bm2
        no_d2 = VectorField(2, 2, lambda y: np.zeros((2, 2)),
                            deriv1=lambda y: np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            augmented_solve(no_d2, path, np.zeros(2), scheme="corrected")
        with pytest.raises(NotImplementedError):
            augmented_solve(no_d2, path, np.zeros(2), scheme="corrected", area=ito)

    @pytest.mark.parametrize("scheme, field", [
        ("euler", "smooth22"), ("corrected", "smooth22"), ("euler", "linear"),
        ("corrected", "linear")], ids=["euler", "corrected", "euler-linear", "corrected-linear"])
    def test_state_block_equals_plain_solve_bitwise(
            self, bm2, smooth22, uniform_partition, scheme, field):
        _, path, ito, _ = bm2
        smooth22 = smooth22 if field == "smooth22" else VectorField.linear(_NONCOMMUTING)
        part = uniform_partition(path, 64)
        y0 = np.array([0.4, -0.2])
        aug = augmented_solve(smooth22, path, y0, scheme=scheme, area=ito, partition=part)
        if scheme == "euler":
            plain = euler_solve(smooth22, path, y0, partition=part)
        else:
            plain = corrected_solve(smooth22, path, ito, y0, partition=part)
        assert np.array_equal(aug.states[:, :2], plain.states)
        assert aug.scheme == plain.scheme == scheme

    def test_jacobian_view_checks_width(self, bm1, gbm_field):
        _, path, _ = bm1
        traj = euler_solve(gbm_field, oracles.subsample(path, 512), np.array([1.0]))
        with pytest.raises(ValueError):
            oracles.jacobian_view(traj, 1)


class TestLockstepWalk:
    """A convergence study steps its meshes, and a corrected study its fine-grid
    reference too, in one walk; each member is bitwise its own solve."""

    @staticmethod
    def _solver(field, path, area, y0, scheme, threshold=1e6):
        if scheme == "euler":
            return lambda part: euler_solve(field, path, y0, part, threshold)
        return lambda part: corrected_solve(field, path, area, y0, part, threshold)

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_batched_tanh_rows_are_single_states(self, n, d):
        field = _tanh_field(np.random.default_rng(n + d).uniform(-1.5, 1.5, (d, n, n)))
        y = np.random.default_rng(7).uniform(-1.0, 1.0, (8, n))
        assert np.array_equal(field.eval(y), np.stack([field.eval(v) for v in y]))
        assert np.array_equal(field.deriv1(y), np.stack([field.deriv1(v) for v in y]))

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("batched", [False, True], ids=["rowwise", "batched"])
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_study_equals_sequential_solves(self, n, d, batched, scheme):
        rng = np.random.default_rng(10 * n + d)
        mats = rng.uniform(-1.5, 1.5, (d, n, n))
        field = _tanh_field(mats) if batched else _per_state_tanh_field(mats)
        path, area = _walk_driver(d)
        y0 = rng.uniform(-1.0, 1.0, n)
        ks = [4, 8, 16, 32, 64]
        report = convergence_study(field, path, y0, ks, scheme, area)
        fine = corrected_solve(field, path, area, y0).final
        errors, slope = oracles.sequential_rate(
            lambda part: self._solver(field, path, area, y0, scheme)(part).final,
            ks, path.n_intervals, fine)
        assert np.array_equal(report.errors, errors) and report.slope == slope

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    def test_each_member_is_its_own_solve(self, scheme):
        path, area = _walk_driver(2)
        field = _tanh_field(np.random.default_rng(5).uniform(-1.5, 1.5, (2, 2, 2)))
        y0 = np.array([0.3, -0.6])
        parts = [np.arange(0, 1025, 1024 // k) for k in (64, 4, 256, 4)] + [None]
        walked = _solve(field, path, area if scheme == "corrected" else None, y0, parts, 1e6)
        for part, traj in zip(parts, walked):
            alone = self._solver(field, path, area, y0, scheme)(part)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.states, alone.states)
            assert traj.scheme == alone.scheme and not traj.exploded

    def test_duplicate_meshes_refused(self):
        """The study refuses a repeated mesh size by name before it walks; the walk
        itself steps a repeated partition as its own solve (the test above)."""
        path, area = _walk_driver(2)
        field = _tanh_field(np.random.default_rng(3).uniform(-1.5, 1.5, (2, 2, 2)))
        with pytest.raises(ValueError, match="mesh size 4 is given more than once"):
            convergence_study(field, path, np.array([0.5, 0.1]), [16, 4, 16, 64, 4],
                              "corrected", area)

    @pytest.mark.parametrize("scheme, threshold", [
        ("euler", 1.01), ("euler", 1.12), ("euler", 1.25), ("euler", 1.3),
        ("corrected", 1.01), ("corrected", 1.09), ("corrected", 1.25), ("corrected", 1.55),
    ])
    def test_a_crossing_is_named_with_its_own_solve_index(self, bm1, gbm_field, scheme,
                                                          threshold):
        _, path, area = bm1
        ks = [16, 64, 256]
        members = [(f"mesh k={k}", np.arange(0, path.n_intervals + 1, path.n_intervals // k))
                   for k in ks]
        if scheme == "corrected":
            members.insert(0, ("the fine-grid reference", None))
        y0 = np.array([1.0])
        want = _walk_failure(members, self._solver(gbm_field, path, area, y0, scheme, threshold))
        with pytest.raises(NumericsError) as info:
            convergence_study(gbm_field, path, y0, ks, scheme, area,
                              reference=gbm_terminal_ito if scheme == "euler" else None,
                              explosion_threshold=threshold)
        assert str(info.value) == want

    def test_the_fine_member_crossing_alone_is_named(self, bm1, gbm_field):
        # no mesh crosses 1.55; the fine member crosses after every mesh has finished
        _, path, area = bm1
        fine = corrected_solve(gbm_field, path, area, np.array([1.0]), explosion_threshold=1.55)
        with pytest.raises(NumericsError) as info:
            convergence_study(gbm_field, path, np.array([1.0]), [16, 64, 256], "corrected",
                              area, explosion_threshold=1.55)
        assert fine.exploded_at > 256
        assert str(info.value) == ("the fine-grid reference crossed the explosion threshold "
                                   f"at index {fine.exploded_at}")

    def test_a_larger_mesh_crossing_in_an_earlier_round_is_named_first(self, bm1, gbm_field):
        _, path, _ = bm1
        coarse = euler_solve(gbm_field, path, np.array([1.0]), np.arange(0, 4097, 256), 1.12)
        assert coarse.exploded_at > 1  # mesh k=16 crosses, but only in a later round
        with pytest.raises(NumericsError) as info:
            convergence_study(gbm_field, path, np.array([1.0]), [16, 64, 256],
                              reference=gbm_terminal_ito, explosion_threshold=1.12)
        assert str(info.value) == "mesh k=64 crossed the explosion threshold at index 1"

    @pytest.mark.parametrize("batched", [False, True], ids=["rowwise", "batched"])
    def test_no_state_past_a_crossing_is_evaluated(self, bm1, batched):
        _, path, area = bm1

        def func(y):
            assert np.all(np.abs(y) <= 1.12), "a state past the threshold was stepped"
            return y[..., None].copy()

        if not batched:  # a function of one state, looped over a batch
            func = np.vectorize(func, signature="(n)->(n,d)")
        field = VectorField(1, 1, func, deriv1=lambda y: np.ones(y.shape[:-1] + (1, 1, 1)))
        with pytest.raises(NumericsError, match="crossed the explosion threshold"):
            convergence_study(field, path, np.array([1.0]), [16, 64, 256], "corrected", area,
                              explosion_threshold=1.12)

    @pytest.mark.parametrize("cap", [1.05, 1.2, 1.4])
    def test_a_non_finite_member_raises_its_own_message(self, bm1, cap):
        _, path, _ = bm1
        field = VectorField(1, 1, lambda y: np.where(y > cap, np.nan, y)[..., None])
        ks = [16, 64, 256]
        members = [(f"mesh k={k}", np.arange(0, path.n_intervals + 1, path.n_intervals // k))
                   for k in ks]
        want = _walk_failure(members, self._solver(field, path, None, np.array([1.0]), "euler"))
        with pytest.raises(NumericsError) as info:
            convergence_study(field, path, np.array([1.0]), ks, reference=gbm_terminal_ito)
        assert str(info.value) == want and want.startswith("non-finite state after step")


class TestStopRule:
    """The edges of the one stop rule: the initial state is index 0, a state is judged
    by its values, and in one round the first member in ``parts`` order decides."""

    @staticmethod
    def _ramp():
        """x(t) = t on 64 cells."""
        return PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0.0, 1.0, 65))

    def test_an_initial_crossing_ends_every_member_at_index_0(self, bm1, gbm_field):
        _, path, area = bm1
        coarse, fine = (np.arange(0, path.n_intervals + 1, path.n_intervals // k)
                        for k in (16, 256))
        walked = _solve(gbm_field, path, area, np.array([1.0]), [coarse, None, fine], 0.5)
        for traj in walked:
            assert traj.exploded_at == 0 and traj.states.tolist() == [[1.0]]
            assert traj.times.tolist() == [0.0] and traj.scheme == "corrected"

    @pytest.mark.parametrize("scheme, reference, first", [
        ("corrected", None, "the fine-grid reference"),
        ("euler", gbm_terminal_ito, "mesh k=16"),
    ])
    def test_an_initial_crossing_names_the_first_member(self, bm1, gbm_field, scheme,
                                                        reference, first):
        _, path, area = bm1
        with pytest.raises(NumericsError) as info:
            convergence_study(gbm_field, path, np.array([1.0]), [64, 16, 256], scheme, area,
                              reference=reference, explosion_threshold=0.5)
        assert str(info.value) == f"{first} crossed the explosion threshold at index 0"

    @staticmethod
    def _jump_field():
        """y, then 1e302 once y passes 1.05: one Euler step of 1/64 or 1/32 lands near
        1e300, finite with an infinite square."""
        return VectorField(1, 1, lambda y: np.where(y > 1.05, 1e302, y)[..., None])

    def test_a_finite_state_with_an_infinite_square_crosses_in_the_tail(self):
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            traj = euler_solve(self._jump_field(), self._ramp(), [1.0], explosion_threshold=1e6)
        y = traj.states[-1]
        with np.errstate(over="ignore"):
            assert traj.exploded_at == 5 and np.all(np.isfinite(y)) and np.isinf(y @ y)

    def test_a_finite_state_with_an_infinite_square_crosses_in_a_round(self):
        coarse = np.arange(0, 65, 2)
        with np.errstate(over="ignore"):  # the round's vecdot overflows
            fine, crossed = _solve(self._jump_field(), self._ramp(), None, [1.0],
                                   [None, coarse], 1e6)
            y = crossed.states[-1]
            assert np.all(np.isfinite(y)) and np.isinf(y @ y)
        assert crossed.exploded_at == 3 and crossed.times.size == 4
        # the full grid ends in the same round, under the threshold
        assert fine.exploded_at is None and fine.times.size == 4
        assert np.all(np.abs(fine.states) <= 1.05)

    @pytest.mark.parametrize("coarse", [None, np.arange(0, 65, 2)], ids=["tail", "round"])
    def test_a_crossing_whose_square_overflows_warns_once(self, coarse):
        """The first step lands at 1e200 / 64, whose square overflows: the loop that
        detects the crossing squares it, and the classifier reuses that square."""
        field, path = VectorField.constant([[1e200]]), self._ramp()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            walked = (_solve(field, path, None, [0.0], [None, coarse], 1e150) if coarse is not None
                      else [euler_solve(field, path, [0.0], explosion_threshold=1e150)])
        assert [str(w.message) for w in caught] == [
            f"overflow encountered in {'dot' if coarse is None else 'vecdot'}"]
        assert all(w.category is RuntimeWarning for w in caught)
        assert [traj.exploded_at for traj in walked] == [1] * len(walked)

    @pytest.mark.parametrize("meshes", [[], [16, 256]])
    def test_a_corrected_crossing_in_the_tail_keeps_its_states_only(self, bm1, gbm_field,
                                                                    meshes):
        # no mesh crosses 1.55; the fine member crosses after every mesh has finished
        _, path, area = bm1
        parts = [np.arange(0, path.n_intervals + 1, path.n_intervals // k) for k in meshes]
        fine = _solve(gbm_field, path, area, [1.0], parts + [None], 1.55)[-1]
        assert fine.exploded_at > 256 and fine.states.shape == (fine.exploded_at + 1, 1)
        owner = fine.states if fine.states.base is None else fine.states.base
        assert owner.nbytes == fine.states.nbytes  # no buffer for the uncrossed cells
        y, want = np.array([1.0]), [[1.0]]
        for k in range(fine.exploded_at):  # the step y + T : f with np.einsum, cell by cell
            t = _reference_operator(gbm_field.deriv1(y), np.hstack(
                [(path.values[k + 1] - path.values[k])[:, None], area.pairs([k], [k + 1])[0]]))
            y = y + np.einsum("ihk,hk->i", t, gbm_field.eval(y))
            want.append(y)
        assert np.array_equal(fine.states, np.array(want))

    @staticmethod
    def _nan_band_field():
        """y, but NaN for y in (1 + 1/64, (1 + 1/64)**2 + 1e-3): the 64-cell Euler walk
        from 1 goes non-finite at index 3, where the 16-cell one crosses 1.15."""
        lo, hi = 1 + 1 / 64, (1 + 1 / 64) ** 2 + 1e-3
        return VectorField(1, 1, lambda y: np.where((y > lo) & (y < hi), np.nan, y)[..., None])

    def test_a_crossing_and_a_non_finite_state_in_one_round(self):
        field, path = self._nan_band_field(), self._ramp()
        with pytest.raises(NumericsError) as info:
            convergence_study(field, path, np.array([1.0]), [16, 64], "euler",
                              reference=np.array([1.0]), explosion_threshold=1.15)
        assert str(info.value) == "mesh k=16 crossed the explosion threshold at index 3"
        parts = [np.arange(0, 65), np.arange(0, 65, 4)]
        with pytest.raises(NumericsError) as info:
            _solve(field, path, None, [1.0], parts, 1.15)
        assert str(info.value) == "non-finite state after step 2 (t=0.046875, scheme=euler)"
        # the crossing member visited first ends the walk, the non-finite one beside it
        coarse, fine = _solve(field, path, None, [1.0], parts[::-1], 1.15)
        assert coarse.exploded_at == 3 and fine.exploded_at is None
        assert fine.times.size == 4 and np.isnan(fine.states[-1, 0])


class TestBoundEvaluation:
    """A walk calls the field through the evaluator bound at its construction, not through
    ``eval``: the output checks and conversions stay with it in every loop of the walk."""

    @staticmethod
    def _late_wrong_shape_field():
        """y until a state passes 1.05, then a ``(2, 1)`` block per state: the 64-cell
        Euler walk from 1 and the 32-cell one pass it within four cells."""
        def func(y):
            return y[..., None] if np.all(y <= 1.05) else np.zeros(y.shape[:-1] + (2, 1))

        return VectorField(1, 1, func, deriv1=np.ones((1, 1, 1)))

    def test_a_wrong_shape_is_refused_in_every_loop_of_a_walk(self):
        field, path = self._late_wrong_shape_field(), TestStopRule._ramp()
        area = analytic_area(PolynomialPath(np.array([[0.0, 1.0]])), path)
        single = re.escape("field returned shape (2, 1), expected (1, 1)")
        with pytest.raises(ValueError, match=single):  # the single-state tail
            euler_solve(field, path, [1.0])
        with pytest.raises(ValueError, match=single):  # a constant-D1 corrected tail
            corrected_solve(field, path, area, [1.0])
        # a lockstep round of the full grid and a 32-cell mesh
        with pytest.raises(ValueError, match=re.escape(
                "field returned shape (2, 2, 1), expected (2, 1, 1)")):
            _solve(field, path, None, [1.0], [None, np.arange(0, 65, 2)], 1e6)

    @pytest.mark.parametrize("kind", ["list", "int"])
    def test_list_and_integer_values_step_as_their_float_twin(self, kind):
        convert = {"list": lambda f: f.tolist(), "int": lambda f: f.astype(np.int64)}[kind]

        def field(cast):  # integral values, so the integer twin holds them exactly
            return VectorField(1, 1, lambda y: cast(np.rint(8.0 * y)[..., None]),
                               deriv1=np.full((1, 1, 1), 8.0))

        twin, other = field(lambda f: f), field(convert)
        path, area = _walk_driver(1)
        coarse = np.arange(0, path.n_intervals + 1, 16)
        for walk in [lambda f: [euler_solve(f, path, [0.5])],
                     lambda f: [corrected_solve(f, path, area, [0.5])],
                     lambda f: _solve(f, path, None, [0.5], [None, coarse], 1e6),
                     lambda f: _solve(f, path, area, [0.5], [coarse, None], 1e6)]:
            for want, got in zip(walk(twin), walk(other)):
                assert want.exploded_at == got.exploded_at
                assert np.array_equal(want.states, got.states)


def _as_callables(field: VectorField) -> VectorField:
    """``field`` with each constant part replaced by a callable returning the same
    value for one state, broadcast over a batch of states."""
    def call(value):
        if value is None or callable(value):
            return value
        return lambda y: value if y.ndim <= 1 else np.broadcast_to(value, y.shape[:-1]
                                                                     + value.shape)

    parts = (field._func, field._deriv1, field._deriv2)
    return VectorField(field.n, field.d, *(call(v) for v in parts))


_TWIN_MATS = np.array([[[1.0, -0.5], [0.25, 2.0]], [[0.0, 0.75], [-1.5, 0.5]]])


class TestConstantDerivatives:
    """A field part given as a constant array, which the schemes take into the step
    kernel's layout once per walk, steps bitwise as the same part given as a callable."""

    @pytest.mark.parametrize("name", ["scalar_linear", "diagonal_linear", "constant",
                                      "general_linear"])
    def test_constant_and_callable_twins_agree_bitwise(self, name):
        # the built-in linear fields' D1 is symmetric in its first two axes, the
        # general linear field's (f[:, j] = M_j y) is not
        field = {
            "scalar_linear": VectorField.scalar_linear,
            "diagonal_linear": lambda: VectorField.diagonal_linear(2),
            "constant": lambda: VectorField.constant(_TWIN_MATS[0]),
            "general_linear": lambda: VectorField(
                2, 2, _linear_field_d(_TWIN_MATS).eval, deriv1=np.transpose(_TWIN_MATS, (2, 1, 0)),
                deriv2=np.zeros((2, 2, 2, 2))),
        }[name]()
        twin = _as_callables(field)
        assert isinstance(field._deriv1, np.ndarray) and callable(twin._deriv1)
        path, area = _walk_driver(field.d)
        y0 = np.linspace(1.0, 0.5, field.n)

        def outputs(f):
            euler = euler_solve(f, path, y0)
            corrected = corrected_solve(f, path, area, y0)
            study = convergence_study(f, path, y0, [4, 16, 64], scheme="corrected", area=area)
            out = [euler.states, corrected.states, study.errors]
            out += [augmented_solve(f, path, y0, scheme=s, area=area).states
                    for s in ("euler", "corrected")]
            for traj in (euler, corrected):
                out.append(defect(traj, f, path, 3.0, 2.0, area=area, max_span=8).magnitudes)
                adjacent = defect(traj, f, path, 3.0, 2.0, area=area, pairs="adjacent")
                assert not adjacent.magnitudes.any()
            return out

        for got, want in zip(outputs(field), outputs(twin), strict=True):
            assert np.array_equal(got, want)

    def test_a_wide_constant_field_builds_its_operators_in_bounded_chunks(self, bm1):
        # n = 48, d = 1 at L12: the 4,096 operators at once would take 72 MiB
        _, path, area = bm1
        field = VectorField.constant(np.linspace(-1.0, 1.0, 48)[:, None])
        tracemalloc.start()
        try:
            traj = corrected_solve(field, path, area, np.zeros(48))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (path.times.size, 48)
        assert peak < 8 * 2**20


_NONCOMMUTING = np.array([[[0.3, 0.6], [-0.2, 0.1]], [[-0.1, 0.2], [0.7, 0.4]]])
_LINEAR_MATS = {"pair": _NONCOMMUTING,
                "random": np.random.default_rng(8).normal(scale=0.3, size=(3, 8, 8))}


class TestLinearField:
    """A linear field carries its matrices: a walk, the defect report and the sensitivity
    flow step it as ``y + S y``, ``S`` built from the driver block alone.  The non-commuting
    pair and a random n = 8, d = 3 field, whose ``D1`` is not symmetric in ``h <-> i``."""

    @staticmethod
    def _run(mats, scheme, level=12):
        d, n, _ = mats.shape
        cfg = BrownianConfig(d=d, level=level, seed=70 + n)
        path = brownian_path(cfg)
        area = ito_area(path, cfg) if scheme == "corrected" else None
        return path, area, np.linspace(1.0, -0.5, n)

    @pytest.mark.parametrize("name", ["pair", "random"])
    def test_parts_are_its_matrices_and_a_batch_is_its_rows(self, name):
        mats = _LINEAR_MATS[name]
        field = VectorField.linear(mats.tolist())
        d, n, _ = mats.shape
        assert (field.n, field.d) == (n, d) and not field.matrices.flags.writeable
        assert np.array_equal(field.matrices, mats)
        states = np.random.default_rng(n).normal(size=(5, 4, n))
        assert np.array_equal(field.deriv1(states[0, 0]), np.transpose(mats, (2, 1, 0)))
        assert not np.any(field.deriv2(states))
        batch = field.eval(states)
        single = np.array([field.eval(y) for y in states.reshape(-1, n)])
        assert np.ascontiguousarray(batch).reshape(-1, n, d).tobytes() == single.tobytes()
        want = np.einsum("jih,...h->...ij", mats, states)
        assert np.allclose(batch, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape, match", [
        ((2, 2), "needs \\(d, n, n\\) matrices"), ((1, 2, 3), "needs \\(d, n, n\\) matrices"),
        ((0, 2, 2), "n, d >= 1"), ((1, 0, 0), "n, d >= 1")])
    def test_malformed_matrices_refused(self, shape, match):
        with pytest.raises(ValueError, match=match):
            VectorField.linear(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_matrices_refused(self, bad):
        with pytest.raises(ValueError, match="linear field matrices must be finite"):
            VectorField.linear([[[1.0, bad], [0.0, 1.0]]])

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("name", ["pair", "random"])
    def test_solves_agree_with_the_callable_field(self, name, scheme):
        # measured: at most rel 6.6e-15 over Brownian seeds 0-19 at L12, both fields
        mats = _LINEAR_MATS[name]
        path, area, y0 = self._run(mats, scheme)
        twin = _linear_field_d(mats)
        assert twin.matrices is None
        got, want = (_solve(f, path, area, y0, [None], 1e6)[0].states
                     for f in (VectorField.linear(mats), twin))
        assert got.shape == want.shape == (path.times.size, y0.size)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("name", ["pair", "random"])
    def test_adjacent_defects_are_exactly_zero(self, name, scheme):
        mats = _LINEAR_MATS[name]
        path, area, y0 = self._run(mats, scheme, level=10)
        field = VectorField.linear(mats)
        part = np.r_[0:256:3, 256:1025]  # cells of 3 and of 1 grid cells
        traj = _solve(field, path, area, y0, [part], 1e6)[0]
        gamma = 2.0 if area is None else 3.0
        assert not defect(traj, field, path, gamma, 2.0, area, "adjacent").magnitudes.any()
        window = defect(traj, field, path, gamma, 2.0, area, max_span=8).magnitudes
        twin = defect(traj, _linear_field_d(mats), path, gamma, 2.0, area, max_span=8)
        assert window.any() and np.allclose(window, twin.magnitudes, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("name", ["pair", "random"])
    def test_each_study_member_is_its_own_solve(self, name, scheme):
        mats = _LINEAR_MATS[name]
        path, area, y0 = self._run(mats, scheme, level=10)
        field = VectorField.linear(mats)
        parts = [np.arange(0, 1025, 1024 // k) for k in (64, 4, 256, 16)] + [None]
        for part, traj in zip(parts, _solve(field, path, area, y0, parts, 1e6)):
            alone = _solve(field, path, area, y0, [part], 1e6)[0]
            assert np.array_equal(traj.states, alone.states)
        # a corrected study walks its fine-grid reference as a member too
        fine = _solve(field, path, area, y0, [None], 1e6)[0].final
        study = convergence_study(field, path, y0, [4, 16, 64], scheme, area,
                                  reference=None if scheme == "corrected" else fine)
        finals = [_solve(field, path, area, y0, [np.arange(0, 1025, 1024 // k)], 1e6)[0].final
                  for k in (4, 16, 64)]
        assert np.array_equal(study.errors, [np.linalg.norm(f - fine) for f in finals])

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("corrected", [False, True], ids=["euler", "corrected"])
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 2), (8, 3), (33, 1)])
    def test_step_matrices_are_their_single_cell_builds_bitwise(self, n, d, corrected, rows,
                                                                monkeypatch):
        # a batch, a lockstep stack of members and the walk's chunked build each give every
        # cell the matrix it gets alone, and a stacked step is bitwise its rows
        rng = np.random.default_rng(4000 * rows + 10 * n + d)
        mats = rng.normal(size=(d, n, n))
        build, width = _linear_cells(VectorField.linear(mats), corrected)
        m = rng.normal(size=(rows, d, 1 + d if corrected else 1))
        got = build(m)
        assert np.array_equal(got, np.array([build(c) for c in m]))
        want = np.einsum("ck,kih->cih", m[..., 0], mats)
        if corrected:
            want += np.einsum("ckj,jig,kgh->cih", m[..., 1:], mats, mats)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        stacked = build(m.reshape((1, rows) + m.shape[1:])[:, ::-1])[0, ::-1]
        assert np.array_equal(stacked, got)
        monkeypatch.setattr(schemes, "_OPERATOR_CHUNK", 3 * width)  # chunks of 3 cells
        assert np.array_equal(np.array(list(_built_cells(build, width, m))), got)
        y = rng.normal(size=(rows, n))
        single = np.array([_linear_step(v, s) for v, s in zip(y, got)])
        assert np.array_equal(_linear_step(y, got), single)
        assert np.array_equal(single, [v + s.dot(v) for v, s in zip(y, got)])

    @pytest.mark.parametrize("corrected", [False, True], ids=["euler", "corrected"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_diagonal_step_matrices_are_exact(self, n, corrected):
        # only the entries and columns the matrices hold enter, so diagonal_linear's S is
        # diag(dx + diag(A)) to the bit, the generic step's own coefficient
        build, _ = _linear_cells(VectorField.diagonal_linear(n), corrected)
        m = np.random.default_rng(n).normal(size=(7, n, 1 + n if corrected else 1))
        diag = m[..., 0] + (np.diagonal(m[..., 1:], axis1=1, axis2=2) if corrected else 0)
        want = np.zeros((7, n, n))
        want[:, np.arange(n), np.arange(n)] = diag
        assert build(m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    def test_a_large_diagonal_walk_holds_d_n2_floats(self, scheme):
        # d = n = 48: the pairwise products M_j M_k would take d^2 n^2 floats (42 MB); a
        # walk holds the matrices and one batch of the d n^2 sums B_j
        n = 48
        field = VectorField.diagonal_linear(n)
        cfg = BrownianConfig(d=n, level=3, seed=4)
        path = brownian_path(cfg)
        area = ito_area(path, cfg) if scheme == "corrected" else None
        tracemalloc.start()
        try:
            traj = _solve(field, path, area, np.ones(n), [None], 1e6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        twin = _solve(_as_callables(field), path, area, np.ones(n), [None], 1e6)[0]
        assert traj.states.tobytes() == twin.states.tobytes()

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("name", ["pair", "random"])
    def test_sensitivity_columns_are_the_solves_from_unit_vectors_bitwise(self, name, scheme):
        # D2 = 0: each direction steps as a state through the cell's S, so the discrete
        # flow's Jacobian is exactly the matrix of the solves from the unit vectors
        mats = _LINEAR_MATS[name]
        path, area, y0 = self._run(mats, scheme, level=10)
        field = VectorField.linear(mats)
        aug = augmented_solve(field, path, y0, scheme, area)
        columns = [_solve(field, path, area, e, [None], 1e6)[0].final for e in np.eye(y0.size)]
        assert np.array_equal(oracles.jacobian_view(aug, y0.size)[-1], np.column_stack(columns))

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("threshold", [2.0, 5.0])
    def test_a_crossing_stops_where_the_callable_twin_does(self, scheme, threshold):
        path, area = _walk_driver(2)
        area = area if scheme == "corrected" else None
        coarse, mats = np.arange(0, path.n_intervals + 1, 16), 4 * _NONCOMMUTING
        runs = [[traj for parts in ([None], [coarse], [coarse, None])
                 for traj in _solve(f, path, area, [1.0, 0.0], parts, threshold)]
                for f in (VectorField.linear(mats), _linear_field_d(mats))]
        assert runs[0][1].exploded
        for got, want in zip(*runs, strict=True):
            assert got.exploded_at == want.exploded_at
            assert got.states.shape == want.states.shape


def _diagonal_field(n: int, d: int, seed: int) -> VectorField:
    """A linear field of diagonal ``M_j`` with random entries, about a third of them zero,
    and the last component's zero in every ``M_j`` when ``n > 1`` (so ``s`` is 0 there)."""
    rng = np.random.default_rng(seed)
    diag = rng.normal(scale=0.5, size=(d, n))
    diag[rng.random((d, n)) < 0.3] = 0.0
    if n > 1:
        diag[:, -1] = 0.0
    return VectorField.linear(diag[:, :, None] * np.eye(n))


_SIGNED_Y0 = {"mixed": [0.0, -0.0, -0.7, 1.3, 0.4, -2.0, -0.0, 0.9],
              "zeros": [-0.0, 0.0] * 4, "negative": [-1.1, -0.3, -2.5, -0.6] * 2}


def _walks(monkeypatch, walk):
    """``walk()`` through the scalar walk, then through the matrix walk (``_SCALAR_N`` 0):
    its trajectories, or the text of the ``NumericsError`` it raised."""
    def run():
        try:
            return walk()
        except NumericsError as err:
            return str(err)

    scalar = run()
    with monkeypatch.context() as patch:
        patch.setattr(schemes, "_SCALAR_N", 0)
        return scalar, run()


def _assert_same_walks(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.scheme, a.exploded_at) == (b.scheme, b.exploded_at)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.shape == b.states.shape and a.states.tobytes() == b.states.tobytes()


def _owns_its_states(traj) -> bool:
    owner = traj.states if traj.states.base is None else traj.states.base
    return owner.nbytes == traj.states.nbytes


class TestScalarWalk:
    """A diagonal linear field of ``n <= _SCALAR_N`` walks as scalar recurrences, bitwise
    the matrix walk ``y + S y`` (forced here by setting ``_SCALAR_N`` to 0): signed zeros,
    lockstep members, block edges and the stop rule included."""

    @staticmethod
    def _driver(d, scheme, level=8):
        cfg = BrownianConfig(d=d, level=level, seed=90 + d)
        path = brownian_path(cfg)
        return path, ito_area(path, cfg) if scheme == "corrected" else None

    @pytest.mark.parametrize("chunk", [None, 2**7], ids=["one_block", "small_blocks"])
    @pytest.mark.parametrize("y0", sorted(_SIGNED_Y0))
    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_is_the_matrix_walk_bitwise(self, monkeypatch, n, d, scheme, y0, chunk):
        if chunk is not None:  # blocks of 2**7 // width cells, one at least
            monkeypatch.setattr(schemes, "_OPERATOR_CHUNK", chunk)
        field, (path, area) = _diagonal_field(n, d, 10 * n + d), self._driver(d, scheme)
        assert field.diagonal and field.n <= schemes._SCALAR_N
        y = np.array(_SIGNED_Y0[y0][:n])
        coarse, mid = (np.arange(0, path.n_intervals + 1, k) for k in (64, 4))
        for parts in ([None], [coarse], [coarse, None, mid], [None, coarse], [mid, mid]):
            _assert_same_walks(*_walks(monkeypatch, lambda: _solve(
                field, path, area, y, parts, 1e6)))
        single = _walks(monkeypatch, lambda: [euler_solve(field, path, y)] if area is None
                        else [corrected_solve(field, path, area, y)])
        _assert_same_walks(*single)
        study = _walks(monkeypatch, lambda: convergence_study(  # Euler: a terminal state
            field, path, y, [4, 8, 16], scheme, area, None if area else np.zeros(n)))
        assert study[0].errors.tobytes() == study[1].errors.tobytes()
        report = defect(single[0][0], field, path, 1.5, 2.5, area, pairs="adjacent")
        assert not report.magnitudes.any()  # adjacent defects are exactly 0

    def test_a_signed_zero_keeps_the_single_state_rule_at_n_1(self, monkeypatch):
        # one state at n = 1 steps by the product alone, so -0.0 + s * -0.0 stays -0.0; a
        # stacked step sums from +0.0, so a lockstep member's first step gives +0.0
        path = TestStopRule._ramp()  # dx > 0, so s * -0.0 is -0.0
        field, coarse = VectorField.scalar_linear(), np.arange(0, path.n_intervals + 1, 16)
        alone = euler_solve(field, path, [-0.0])
        fine, _ = _solve(field, path, None, [-0.0], [None, coarse], 1e6)
        assert np.signbit(alone.states).all() and not np.signbit(fine.states[1:]).any()
        _assert_same_walks(*_walks(monkeypatch, lambda: [euler_solve(field, path, [-0.0])]))

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("threshold", [0.5, 1.3, 2.0, 5.0])
    def test_stops_where_the_matrix_walk_does(self, monkeypatch, scheme, threshold):
        field = VectorField.linear(4 * _diagonal_field(2, 2, 3).matrices)
        path, area = _walk_driver(2)
        area = area if scheme == "corrected" else None
        coarse, mid = (np.arange(0, path.n_intervals + 1, k) for k in (16, 4))
        for parts in ([None], [coarse], [coarse, None], [None, coarse], [mid, coarse, None]):
            got, want = _walks(monkeypatch, lambda: _solve(
                field, path, area, [1.0, -0.5], parts, threshold))
            _assert_same_walks(got, want)
            assert all(_owns_its_states(traj) for traj in got)  # no buffer past a stop
        if threshold == 0.5:  # y0 is above it: every member ends at index 0
            assert [traj.exploded_at for traj in got] == [0, 0, 0]

    @pytest.mark.parametrize("parts", [[None], [None, np.arange(0, 9, 2)]],
                             ids=["alone", "lockstep"])
    def test_a_non_finite_state_raises_as_the_matrix_walk_does(self, monkeypatch, parts):
        # 1e10 * dx overflows, so S is inf: y0 = 1 goes to inf and y0 = 0 to NaN
        path = PolynomialPath(np.array([[0.0, 1e300]])).sample(np.linspace(0.0, 1.0, 9))
        field = VectorField.linear(np.full((1, 2, 1), 1e10) * np.eye(2))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = _walks(monkeypatch, lambda: _solve(field, path, None, [1.0, 0.0],
                                                           parts, 1e6))
        assert got == want == "non-finite state after step 0 (t=0.125, scheme=euler)"

    @pytest.mark.parametrize("parts", [[None], [None, np.arange(0, 65, 2)]],
                             ids=["alone", "lockstep"])
    def test_a_crossing_whose_square_overflows_warns_once(self, monkeypatch, parts):
        # x(t) = 1e6 t on 64 cells: the first step takes 1e150 to 1.6e154, whose square
        # overflows; later states of the block overflow to inf and warn nothing
        path = PolynomialPath(np.array([[0.0, 1e6]])).sample(np.linspace(0.0, 1.0, 65))
        field = VectorField.scalar_linear()
        caught = []
        for forced in (False, True):
            with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                if forced:
                    patch.setattr(schemes, "_SCALAR_N", 0)
                walked = _solve(field, path, None, [1e150], parts, 1e150)
            caught.append([str(w.message) for w in seen])
            assert [traj.exploded_at for traj in walked] == [1] * len(parts)
            assert all(np.isfinite(traj.states).all() for traj in walked)
        assert [len(c) for c in caught] == [1, 1]
        assert all(c[0].startswith("overflow encountered in ") for c in caught)

    def test_a_dense_or_large_field_keeps_the_matrix_walk(self, monkeypatch):
        calls = []
        monkeypatch.setattr(schemes, "_run_scalar", lambda *a: calls.append(a) or [None])
        path, area = _walk_driver(2)
        for field in (VectorField.linear(_NONCOMMUTING), VectorField.diagonal_linear(2)):
            _solve(field, path, area, [1.0, 0.0], [None], 1e6)
        big = VectorField.diagonal_linear(schemes._SCALAR_N + 1)
        path = brownian_path(BrownianConfig(d=big.n, level=3, seed=1))
        _solve(big, path, None, np.ones(big.n), [None], 1e6)
        assert len(calls) == 1 and not VectorField.linear(_NONCOMMUTING).diagonal

    def test_support_is_read_once_and_the_field_pickles(self):
        field = VectorField.diagonal_linear(3)
        held, cols = field.support  # M_j = e_j e_j^T: entry (j, j), column j of M_j
        assert not (held.flags.writeable or cols.flags.writeable)
        assert held.tolist() == [0, 4, 8] and cols.tolist() == [0, 4, 8]
        for corrected in (False, True):
            first, second = _linear_cells(field, corrected)[0], _linear_cells(field, corrected)[0]
            assert first.args[0] is second.args[0] is held
            assert first.args[2] is second.args[2] is cols
        twin = pickle.loads(pickle.dumps(field))
        assert twin.diagonal and [k.tolist() for k in twin.support] == [
            k.tolist() for k in field.support]
        path, area = _walk_driver(3)
        assert np.array_equal(corrected_solve(twin, path, area, np.ones(3)).states,
                              corrected_solve(field, path, area, np.ones(3)).states)


class TestDefectBlocks:
    """Every defect block is sized by ``_batch`` of its largest temporary's entries per pair."""

    def test_a_constant_corrected_window_defect_peak_is_bounded(self, bm2):
        # n = 16, d = 2: blocks of 16,384 pairs held 77 MiB of operators at once
        _, path, area, _ = bm2
        field = VectorField.constant(np.random.default_rng(16).normal(size=(16, 2)))
        traj = corrected_solve(field, path, area, np.zeros(16))
        tracemalloc.start()
        try:
            report = defect(traj, field, path, 3.0, 2.5, area, max_span=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.magnitudes.size == 65_416
        assert peak < 8 * 2**20  # 5.4 MiB measured

    @pytest.mark.parametrize("scheme", ["euler", "corrected"])
    @pytest.mark.parametrize("kind", ["constant", "callable", "linear", "diagonal"])
    def test_block_size_leaves_the_magnitudes_bitwise(self, monkeypatch, bm2, smooth22, kind,
                                                      scheme):
        _, path, area, _ = bm2
        field = {"constant": lambda: VectorField.constant(_TWIN_MATS[0]),
                 "callable": lambda: smooth22,
                 "linear": lambda: VectorField.linear(_NONCOMMUTING),
                 "diagonal": lambda: VectorField.diagonal_linear(2)}[kind]()
        area = area if scheme == "corrected" else None
        traj = (corrected_solve(field, path, area, [0.4, -0.2], np.arange(0, 4097, 8))
                if area is not None else euler_solve(field, path, [0.4, -0.2],
                                                     np.arange(0, 4097, 8)))

        def magnitudes():
            return defect(traj, field, path, 3.0 if area else 1.5, 2.5, area,
                          max_span=16).magnitudes.tobytes()

        want = magnitudes()
        monkeypatch.setattr(schemes, "_OPERATOR_CHUNK", 2**6)  # a few pairs a block
        assert magnitudes() == want


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

    @pytest.mark.parametrize("n_points, max_span", [
        (5, 2.5), (5, True), (5.0, 2), (True, 2)])
    def test_fractional_or_boolean_sizes_refused(self, n_points, max_span):
        """``window_pairs(5, 2.5)`` would give float pairs spanning 3."""
        with pytest.raises(TypeError, match="(n_points|max_span) must be an integer"):
            window_pairs(n_points, max_span)

    @pytest.mark.parametrize("n_points, max_span", [
        (0, 4), (2, 1), (7, 3), (10, 9), (10, 10), (6, 50), (300, 16), (65, 64)])
    def test_matches_brute_force_enumeration(self, n_points, max_span):
        want = [(k, l) for k in range(n_points) for l in range(k + 1, n_points)
                if l - k <= max_span]
        got = window_pairs(n_points, max_span)
        assert got.shape == (len(want), 2)
        assert [tuple(row) for row in got.tolist()] == want


class TestDefect:
    def test_adjacent_euler_defect_is_exactly_zero(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 16)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        report = defect(traj, gbm_field, sub, gamma=1.5, p=2.5, pairs="adjacent")
        assert np.array_equal(report.magnitudes, np.zeros(sub.n_intervals))
        assert report.pair_policy == "adjacent"

    def test_adjacent_corrected_defect_is_exactly_zero(self, bm2, smooth22,
                                                       uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(path, 64)
        traj = corrected_solve(smooth22, path, ito, np.array([0.4, -0.2]),
                               partition=part)
        report = defect(traj, smooth22, path, gamma=1.5, p=2.5, area=ito,
                        pairs="adjacent")
        assert np.array_equal(report.magnitudes, np.zeros(64))

    def test_single_state_trajectory_refused_naming_it(self, gbm_field):
        path = PolynomialPath(np.array([[0.0, 1.0]])).sample(np.linspace(0, 1, 9))
        traj = euler_solve(gbm_field, path, np.array([1.0]), explosion_threshold=0.5)
        with pytest.raises(ValueError, match=r"the trajectory has a single state \(t=0,"):
            defect(traj, gbm_field, path, gamma=1.5, p=2.0)

    def test_constant_driver_fits_zero_constant(self, gbm_field):
        path = PolynomialPath(np.array([[1.0]])).sample(np.linspace(0, 1, 65))
        traj = euler_solve(gbm_field, path, np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = defect(traj, gbm_field, path, gamma=1.5, p=2.0, pairs="adjacent")
        assert report.control.c == 0.0
        assert report.fitted_constant == 0.0
        assert np.array_equal(report.ratios, np.zeros(64))

    def test_zero_control_ratio_is_zero_or_inf(self, bm1, gbm_field):
        """Over omega 0 a zero defect has ratio 0 and a nonzero one inf."""
        _, path, _ = bm1
        sub = oracles.subsample(path, 256)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = defect(traj, gbm_field, sub, gamma=1.5, p=2.5, max_span=2,
                            control=ControlModulus(c=0.0, p=2.5))
        adjacent = report.pairs[:, 1] == report.pairs[:, 0] + 1
        assert np.all(report.magnitudes[~adjacent] > 0)
        assert np.array_equal(report.ratios[adjacent], np.zeros(np.count_nonzero(adjacent)))
        assert np.all(report.ratios[~adjacent] == np.inf)

    @settings(max_examples=60, deadline=None)
    @given(mats=hnp.arrays(float, (2, 2, 2), elements=st.floats(-2.0, 2.0)),
           interior=st.sets(st.integers(1, 511), max_size=40),
           y0=hnp.arrays(float, 2, elements=st.floats(-1.0, 1.0)))
    def test_adjacent_defects_vanish_on_random_linear_fields(
            self, poly_pair, mats, interior, y0):
        _, path, area = poly_pair
        field = _linear_field_d(mats)
        part = np.array([0, *sorted(interior), 512])
        for traj, used_area in [
            (euler_solve(field, path, y0, partition=part), None),
            (corrected_solve(field, path, area, y0, partition=part), area),
        ]:
            report = defect(traj, field, path, gamma=1.5, p=2.5, area=used_area,
                            pairs="adjacent")
            assert np.array_equal(report.magnitudes, np.zeros(traj.times.size - 1))

    def test_adjacent_defects_vanish_for_equal_mats_regression(self, poly_pair):
        # the field returns a transposed array; a solver stepping with it and a
        # defect stacking the coefficients in C order differ by 8.9e-16 in the
        # second cell, so both must take the C-ordered coefficients
        _, path, area = poly_pair
        field = _linear_field_d(np.full((2, 2, 2), 1.25))
        part = np.array([0, 5, 512])
        y0 = np.array([1.0, 1.0])
        for traj, used_area in [
            (euler_solve(field, path, y0, partition=part), None),
            (corrected_solve(field, path, area, y0, partition=part), area),
        ]:
            report = defect(traj, field, path, gamma=1.5, p=2.5, area=used_area,
                            pairs="adjacent")
            assert np.array_equal(report.magnitudes, np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 3),
           layout=st.sampled_from(["C", "transposed", "view"]),
           scheme=st.sampled_from(["euler", "corrected"]),
           interior=st.sets(st.integers(1, 31), max_size=31))
    def test_matches_per_pair_reference_loop(self, data, d, n, layout, scheme, interior):
        path, area = _brownian_with_area(d)
        mats = data.draw(hnp.arrays(float, (d, n, n), elements=st.floats(-1.5, 1.5)))
        y0 = data.draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
        field = _tanh_field(mats, layout)
        part = np.array([0, *sorted(interior), 32])
        if scheme == "corrected":
            traj, used_area = corrected_solve(field, path, area, y0, partition=part), area
        else:
            traj, used_area = euler_solve(field, path, y0, partition=part), None
        n_points = traj.times.size
        policy = data.draw(st.sampled_from(["window", "adjacent", "explicit"]))
        if policy == "explicit":
            pair = st.tuples(st.integers(0, n_points - 2), st.integers(1, n_points - 1)).filter(
                lambda kl: kl[0] < kl[1])
            pairs = data.draw(st.lists(pair, min_size=1, max_size=40))
            pairs = np.array(pairs + pairs[: len(pairs) // 2])  # unsorted, with duplicates
        else:
            pairs = policy
        report = defect(traj, field, path, gamma=1.5, p=2.5, area=used_area, pairs=pairs,
                        max_span=data.draw(st.integers(1, 40)))
        want = _reference_magnitudes(traj, field, path, used_area, report.pairs)
        assert np.array_equal(report.magnitudes, want)
        if policy == "explicit":
            assert np.array_equal(report.pairs, pairs)

    def test_worst_pair_names_the_fitted_constant(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        exact = Trajectory(sub.times, np.exp(sub.values - sub.times[:, None] / 2), "euler")
        for report in (defect(traj, gbm_field, sub, gamma=1.5, p=2.5, max_span=8),
                       defect(exact, gbm_field, sub, gamma=1.5, p=2.5, pairs="adjacent")):
            out = report.to_dict()
            k, l = out["worst_pair"]
            first = int(np.argmax(report.ratios))
            assert report.pairs[first].tolist() == [k, l]
            assert out["worst_ratio"] == report.ratios[first] == report.fitted_constant
            assert out["worst_times"] == [sub.times[k], sub.times[l]]
            assert report.fitted_constant > 0

    def test_worst_pair_tie_goes_to_the_first_pair(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 16)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        out = defect(traj, gbm_field, sub, gamma=1.5, p=2.5, pairs="adjacent").to_dict()
        assert out["worst_pair"] == [0, 1] and out["worst_ratio"] == 0.0

    def test_field_must_fit_the_trajectory(self, bm2, smooth22, uniform_partition):
        _, path, _, _ = bm2
        aug = augmented_solve(smooth22, path, np.array([0.4, -0.2]),
                              partition=uniform_partition(path, 16))
        with pytest.raises(ValueError, match="state has dimension 6, field expects 2"):
            defect(aug, smooth22, path, gamma=1.5, p=2.5)

    def test_window_report_fields(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 64)
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
        sub = oracles.subsample(path, 64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        own = defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                     pairs=np.array([[0, 3], [10, 40]]))
        assert own.pair_policy == "custom"
        modulus = own.control
        again = defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                       pairs=np.array([[0, 3], [10, 40]]), control=modulus)
        assert again.control is modulus
        assert np.array_equal(own.magnitudes, again.magnitudes)

    def test_control_fitted_for_another_p_refused(self, bm1, gbm_field):
        """A modulus fitted at p = 2.5 would mix two variation scales in a p = 2 report."""
        _, path, _ = bm1
        sub = oracles.subsample(path, 64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        modulus = control_fit(sub, 2.5)
        with pytest.raises(ValueError, match=r"fitted for p=2\.5.*asked at p=2\.0"):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.0, control=modulus)

    @pytest.mark.parametrize("move", ["shifted", "stretched"])
    def test_trajectory_off_the_driver_grid_refused(self, bm1, gbm_field, move):
        """Times must equal grid times exactly; a 1e-13 shift is no longer absorbed."""
        _, path, _ = bm1
        sub = oracles.subsample(path, 64)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        times = traj.times + 1e-13 if move == "shifted" else 2.0 * traj.times
        with pytest.raises(ValueError, match="trajectory times are not driver grid times"):
            defect(Trajectory(times, traj.states, traj.scheme), gbm_field, sub,
                   gamma=1.5, p=2.5)

    def test_corrected_scheme_requires_area(self, bm2, smooth22, uniform_partition):
        _, path, ito, _ = bm2
        part = uniform_partition(path, 32)
        traj = corrected_solve(smooth22, path, ito, np.zeros(2), partition=part)
        with pytest.raises(ValueError):
            defect(traj, smooth22, path, gamma=1.5, p=2.5)

    def test_steep_exponents_require_area(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=2.5, p=2.0)

    @pytest.mark.parametrize("gamma,p", [(0.0, 2.0), (1.0, -1.0)])
    def test_exponent_validation(self, bm1, gbm_field, gamma, p):
        _, path, _ = bm1
        sub = oracles.subsample(path, 32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=gamma, p=p)

    def test_malformed_pair_inputs(self, bm1, gbm_field):
        _, path, _ = bm1
        sub = oracles.subsample(path, 32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5, pairs=np.arange(6))
        with pytest.raises(ValueError):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                   pairs=np.zeros((0, 2), dtype=int))
        with pytest.raises(IndexError):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5,
                   pairs=np.array([[0, 999]]))

    @pytest.mark.parametrize("pairs", [[[0.9, 3.7]], [[False, True]], np.array([[0.0, 3.0]])])
    def test_float_and_boolean_pairs_refused(self, bm1, gbm_field, pairs):
        """Explicit pairs are integer indices, as partitions are: ``[[0.9, 3.7]]`` is
        not read as ``(0, 3)`` nor ``[[False, True]]`` as ``(0, 1)``."""
        _, path, _ = bm1
        sub = oracles.subsample(path, 32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(TypeError, match="explicit pairs are integer indices"):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5, pairs=pairs)


    @pytest.mark.parametrize("max_span", [True, 8.0])
    def test_fractional_or_boolean_max_span_refused(self, bm1, gbm_field, max_span):
        """``max_span=True`` would check span-1 pairs only."""
        _, path, _ = bm1
        sub = oracles.subsample(path, 32)
        traj = euler_solve(gbm_field, sub, np.array([1.0]))
        with pytest.raises(TypeError, match="max_span must be an integer"):
            defect(traj, gbm_field, sub, gamma=1.5, p=2.5, max_span=max_span)


class TestAreaBinding:
    """An area must belong to the driver it is used with, not just share its grid."""

    @pytest.fixture(scope="class")
    def seeds_1_2(self):
        cfg1 = BrownianConfig(d=2, level=6, seed=1)
        cfg2 = BrownianConfig(d=2, level=6, seed=2)
        path1 = brownian_path(cfg1)
        return path1, ito_area(path1, cfg1), ito_area(brownian_path(cfg2), cfg2)

    @pytest.mark.parametrize("consumer", ["corrected_solve", "augmented_solve", "defect"])
    def test_area_of_another_path_refused(self, seeds_1_2, smooth22, consumer):
        path, own, foreign = seeds_1_2
        assert np.array_equal(foreign.path.times, path.times)
        y0 = np.array([0.4, -0.2])
        calls = {
            "corrected_solve": lambda area: corrected_solve(smooth22, path, area, y0),
            "augmented_solve": lambda area: augmented_solve(
                smooth22, path, y0, scheme="corrected", area=area),
            "defect": lambda area: defect(
                corrected_solve(smooth22, path, own, y0), smooth22, path,
                gamma=1.5, p=2.5, area=area),
        }
        calls[consumer](own)
        with pytest.raises(ValueError, match="different path"):
            calls[consumer](foreign)

    def test_area_on_an_equal_rebuilt_path_accepted(self, seeds_1_2, smooth22):
        path, own, _ = seeds_1_2
        rebuilt = brownian_path(BrownianConfig(d=2, level=6, seed=1))
        assert rebuilt is not own.path
        y0 = np.array([0.4, -0.2])
        assert np.array_equal(corrected_solve(smooth22, rebuilt, own, y0).states,
                              corrected_solve(smooth22, path, own, y0).states)
