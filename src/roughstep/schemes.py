"""One-step schemes for controlled systems, their defects, and derived flows.

Everything here rests on one map, the left-point step over a cell: Euler's
``y -> y + f(y) dx``, and the corrected ``y -> y + T : f(y)``, whose cell operator
``T[i, h, k] = delta_ih dx_k + sum_j D1[h, i, j] A[k, j]``, one batched matmul of the
kernel rows ``[delta | D1]`` against the driver block ``[dx | A]`` (:func:`_operators`),
carries ``f dx`` and the area term ``G(y) : A`` at once, so ``G`` is never formed.  A
walk on a constant ``D1`` builds its operators from the driver, in bounded batches,
before it steps them; one Euler state steps through one gemv, ``f.dot(dx)``, bitwise
the rows of a stacked step; a walk binds the field's evaluation once.  A linear field,
``f(y)[:, j] = M_j y``, is not evaluated: with ``f`` and ``D1`` inserted the step is
exactly ``y + S y``, ``S = sum_k dx_k M_k + sum_{k, j} A[k, j] M_j M_k`` (the Milstein
form; Euler: the first sum), a matrix of the driver block alone, built like the
operators.  :func:`_coefficients`, :func:`_operators` and :func:`_advance`, or
:func:`_step_matrices` and :func:`_linear_step`, are the step's single definition, shared
by the solvers, :func:`augmented_solve` and :func:`defect`, so adjacent defects under
the scheme that made a trajectory are zero by construction.
Every solve is a walk of :func:`_run_scheme`: one partition for the solvers,
and the nested meshes of a convergence study stepped in lockstep, each
member bitwise its own solve; a diagonal linear field of ``n <= _SCALAR_N``, whose ``S``
holds one product a row, walks as scalar recurrences in Python floats (:func:`_run_scalar`),
bitwise ``y + S y``: a ``-0.0`` component starts as the ``+0.0`` that ``S.dot(y)``'s sum
from ``+0.0`` gives, save in a one-member walk at n = 1, whose ``dot`` is the product alone.

Beyond the basic solvers this module provides:

* :func:`augmented_solve`: couples the state with its derivative with respect
  to the initial condition, whose directions step through the same kernel,
  so the result is the exact Jacobian of the discrete flow (up to roundoff)
  rather than a new approximation.
* :func:`defect`: two-point defect report with a fitted constant against a
  control modulus.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import chain

import numpy as np

from .core import (
    AreaProcess,
    ControlModulus,
    DefectReport,
    DriverPath,
    NumericsError,
    Trajectory,
    VectorField,
    _size,
    control_fit,
)

__all__ = [
    "euler_solve",
    "corrected_solve",
    "augmented_solve",
    "defect",
    "window_pairs",
]

_SCHEMES = ("euler", "corrected")
_OPERATOR_CHUNK = 2**16  # operator entries a walk builds per batch (512 KiB)
_SCALAR_N = 8  # the largest n of a diagonal linear field walked as scalar recurrences
# einsum's C entry point: ``np.einsum`` without ``optimize`` calls it after a Python-level
# dispatch that costs about as much as the contraction of one state
_contract = getattr(np._core.multiarray, "c_einsum", np.einsum)


@lru_cache(maxsize=16)
def _identity_column(n: int) -> np.ndarray:
    """``delta_ih`` as a read-only ``(n, n, 1)`` column, column 0 of the kernel rows."""
    eye = np.eye(n)[:, :, None]
    eye.flags.writeable = False
    return eye


def _kernel_rows(d1: np.ndarray) -> np.ndarray:
    """``[delta | D1]``: the field's ``D1[..., h, i, j]`` as C-contiguous rows
    ``[..., i, h, 1 + j]`` behind the identity column ``[..., i, h, 0] = delta_ih``,
    built in one ``concatenate``."""
    eye = _identity_column(d1.shape[-2])
    if d1.ndim > 3:
        eye = np.broadcast_to(eye, d1.shape[:-1] + (1,))
    return np.concatenate((eye, d1.swapaxes(-3, -2)), -1)


def _constant_rows(field: VectorField) -> np.ndarray | None:
    """A constant ``D1`` as one ``(n, n, 1 + d)`` block of kernel rows, None otherwise."""
    return _kernel_rows(field._deriv1) if isinstance(field._deriv1, np.ndarray) else None


def _operators(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The cell operators ``T[..., i, h, k] = delta_ih dx_k + sum_j D1[h, i, j] A[k, j]``
    (``D1`` in the field's layout) of the kernel rows (:func:`_kernel_rows`) and the
    driver blocks ``m = [dx | A]``, ``(..., d, 1 + d)``, broadcast against each other:
    one batched matmul of each ``(n, 1 + d)`` block of rows against ``m`` transposed,
    which a batch of blocks meets through a unit axis.  Each operator is bitwise the
    one its cell gives alone."""
    return rows @ (m.T if m.ndim == 2 else m.mT[..., None, :, :])


def _batch(width: int) -> int:
    """Cells per batch of ``width`` entries each: ``_OPERATOR_CHUNK`` entries, one at least."""
    return max(1, _OPERATOR_CHUNK // width)


def _built_cells(build, width: int, blocks: np.ndarray):
    """``build`` of ``blocks``, one cell input per index of its leading axis, in batches
    (:func:`_batch`) of ``width`` entries per member's cell."""
    size = _batch(width * math.prod(blocks.shape[1:-2]))
    return chain.from_iterable(build(blocks[c: c + size]) for c in range(0, len(blocks), size))


def _linear_cells(field: VectorField, corrected: bool):
    """A linear field's step-matrix builder (:func:`_step_matrices`) and its entries per
    cell, ``(1 + d) n^2`` corrected and ``n^2`` Euler; None for any other field.  It takes
    in only the field's ``support`` (:meth:`VectorField.linear`)."""
    if field.matrices is None:
        return None
    mats, (n, d), (cols, pairs) = field.matrices, (field.n, field.d), field.support
    j, h = np.divmod(np.arange(d * n)[pairs] if corrected else np.arange(0), n)
    left = mats.transpose(1, 0, 2)[:, j, h]  # [i, (j, h)] = M_j[i, h], the pairs taken in
    width = n * n * (1 + d if corrected else 1)
    return partial(_step_matrices, cols, mats.reshape(d, n * n)[:, cols], pairs, left), width


def _step_matrices(cols, words, pairs, left, m: np.ndarray) -> np.ndarray:
    """``S = sum_k dx_k M_k + sum_j M_j B_j``, ``B_j = sum_k A[k, j] M_k``, of each driver
    block ``m = [dx | A]`` (Euler: ``[dx]``), ``(..., d, 1 + d)``; the terms left out by
    ``cols`` and ``pairs`` are exact zeros, and each cell is bitwise its build alone."""
    n, lead = left.shape[0], m.shape[:-2]

    def spread(x):  # x's columns at ``cols`` of n n zero columns; x itself for all of them
        if isinstance(cols, slice):
            return x
        out = np.zeros(x.shape[:-1] + (n * n,))
        out[..., cols] = x
        return out

    s = spread(m[..., None, :, 0] @ words)
    if m.shape[-1] > 1:
        b = spread(m[..., 1:].mT @ words).reshape(lead + (-1, n))
        s += (left @ b[..., pairs, :]).reshape(s.shape)
    return s.reshape(lead + (n, n))


def _linear_step(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``y + S y``: one state through one gemv, ``S.dot(y)``, bitwise each row of a stack
    ``(..., n)`` stepped by the matmul against its matrices (or one shared)."""
    return y + s.dot(y) if y.ndim == 1 else y + (s @ y[..., None])[..., 0]


def _coefficients(field: VectorField, y: np.ndarray, with_rows: bool, rows=None):
    """Left-point coefficients of the step: ``f(y)`` and, when ``with_rows``, the kernel
    rows of ``D1(y)`` (:func:`_kernel_rows`), else None.

    ``y`` is a state or a batch of states ``(..., n)``.  ``f`` is C-contiguous
    whatever layout the field returns: ``f @ m`` on a transposed ``f``, and the
    contraction on a transposed operand, round differently from the same operation
    on a row of a stacked batch.  ``rows`` is a constant ``D1``'s block
    (:func:`_constant_rows`), bound once per walk and broadcast over any batch.
    """
    f = np.ascontiguousarray(field.eval(y))
    if not with_rows:
        return f, None
    return f, _kernel_rows(field.deriv1(y)) if rows is None else rows


def _advance(y, f, cell, corrected: bool) -> np.ndarray:
    """The step from ``y`` with left-point coefficients ``f`` over leading batch axes:
    ``y + T : f`` over the cell operator ``cell = T`` (:func:`_operators`) when
    ``corrected``, ``y + f @ [dx]`` over the Euler block ``cell = [dx]`` otherwise.  The
    contraction sums one contiguous ``(h, k)`` block, one inner loop on a batch as on
    one state, and one Euler state is one gemv, ``f.dot(dx)``, bitwise each row of a
    stack's ``f @ [dx]``, so a stacked step is bitwise its rows."""
    if corrected:
        return y + _contract("...ihk,...hk->...i", cell, f)
    return y + f.dot(cell[:, 0]) if y.ndim == 1 else y + (f @ cell)[..., 0]


def _check_fit(field: VectorField, path: DriverPath, y0, area: AreaProcess | None):
    """``y0`` as a fresh float vector, refused unless it, the driver and the area fit.

    An area fits when it was built on ``path`` or on equal times and values.
    """
    y = np.array(y0, dtype=float).reshape(-1)
    if y.size != field.n:
        raise ValueError(f"state has dimension {y.size}, field expects {field.n}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"y0 must be finite, got {y.tolist()}")
    if field.d != path.d:
        raise ValueError(f"field is driven by d={field.d}, the path has d={path.d}")
    if area is not None and area.path is not path and not (
        np.array_equal(area.path.times, path.times)
        and np.array_equal(area.path.values, path.values)
    ):
        raise ValueError("area process was built on a different path than the driver")
    return y


def _grid_indices(path: DriverPath, partition: np.ndarray | None) -> np.ndarray:
    """The partition's driver-grid indices, every grid point when ``partition`` is None.

    A partition is an increasing integer array of at least two indices into
    the driver grid; float times are refused, not searched for on the grid.
    """
    if partition is None:
        return np.arange(path.times.size)
    idx = np.asarray(partition)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"a partition is integer grid indices, not {idx.dtype} times")
    idx = idx.astype(np.intp, copy=False)
    if idx.ndim != 1 or idx.size < 2:
        raise ValueError("a partition needs at least two grid indices")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("partition indices must be strictly increasing")
    if idx[0] < 0 or idx[-1] > path.n_intervals:
        raise ValueError(f"partition indices must lie in [0, {path.n_intervals}]")
    return idx


def _driver_blocks(path: DriverPath, area: AreaProcess | None, i, j) -> np.ndarray:
    """The driver block ``[dx | A]`` over each grid pair ``(i[m], j[m])``, ``(m, d, 1 + d)``,
    or ``[dx]``, ``(m, d, 1)``, without an area."""
    dx = (path.values[j] - path.values[i])[..., None]
    return np.concatenate([dx, *([] if area is None else [area.pairs(i, j)])], axis=-1)


def _explosion_threshold(value) -> float:
    """``value`` as an explosion threshold: a float, refused outside ``[1e-150, 1e150]``,
    where ``y . y`` neither overflows for a state under it nor underflows for one above."""
    threshold = float(value)
    if not 1e-150 <= threshold <= 1e150:
        raise ValueError("explosion threshold must be positive, at least 1e-150 and at most "
                         f"1e150, got {value}")
    return threshold


def _run_scheme(
    path: DriverPath,
    area: AreaProcess | None,
    y: np.ndarray,
    parts: list[np.ndarray],
    threshold: float,
    step,
    tag: str,
    cells=iter,
) -> list[Trajectory]:
    """Walk the members ``parts``, grid-index arrays of partitions of ``path``, in lockstep
    from the checked state ``y``; ``step(y, c)`` advances a state ``(n,)`` or a stack of
    states ``(M, n)`` over its cell inputs ``c`` and returns a new array.  ``cells(m)``
    iterates the cell inputs of driver blocks ``m`` (``area`` None: ``[dx]``) along their
    leading axis: the blocks themselves by default, or operators or step matrices built
    from them (:func:`_built_cells`) before the cells they serve are stepped.

    Members are stepped in order of cell count, so the ones still running at round ``r``
    are a contiguous suffix of one stack: a round is one ``step`` on that slice, its
    cell inputs drawn from one array of driver blocks (filled up to the second-longest
    member's count; ``cells`` runs on the rounds and members between two members' ends)
    and one threshold check.  Once the longest member is the only one left it continues alone
    on a 1-D view of its row, into one array sized for its whole walk, so a one-member
    walk is the single-state loop.  Each member is bitwise its own walk: a stacked step,
    the field's and the operators' included (see :class:`VectorField`), equals its rows
    stepped alone.

    One rule stops the walk: every running member ends at the first index ``stop`` (the
    initial state is index 0) at which one of them fails ``sqrt(y . y) <= threshold``,
    as a NaN does.  The loops only detect ``stop``; one classifier (:func:`_trajectories`)
    then judges the members running there.
    """
    threshold = _explosion_threshold(threshold)
    order = sorted(range(len(parts)), key=lambda i: parts[i].size)
    counts = [parts[i].size - 1 for i in order]
    rounds = counts[-2] if len(parts) > 1 else 0
    rest = parts[order[-1]][rounds:]  # the longest member past the lockstep rounds
    tail_blocks = _driver_blocks(path, area, rest[:-1], rest[1:])
    hist = np.empty((rounds + 1, len(parts), y.size))
    hist[0] = y
    m = np.zeros((rounds, len(parts)) + tail_blocks.shape[1:])
    for pos, i in enumerate(order):
        p = parts[i][: rounds + 1]
        m[: p.size - 1, pos] = _driver_blocks(path, area, p[:-1], p[1:])
    j0, ys = 0, hist[0]
    run = cells(m[: counts[0]])  # the rounds every member runs
    stop = None if math.sqrt(y.dot(y)) <= threshold else 0
    for r in range(rounds if stop is None else 0):
        while counts[j0] <= r:  # a member finished: drop its row; the rest run to the next end
            j0, ys = j0 + 1, ys[1:]
            run = cells(m[r: counts[j0], j0:])
        ys = step(ys, next(run))
        hist[r + 1, j0:] = ys
        sq = np.vecdot(ys, ys).tolist()  # each row's y.dot(y), bitwise
        # a float sum of squares bounds each of them and carries any NaN or inf, so
        # one comparison clears a round; past it each member is judged on its own
        if not math.sqrt(sum(sq)) <= threshold and not all(
            math.sqrt(s) <= threshold for s in sq
        ):
            stop = r + 1
            break
    del m, run  # not held through the longest member's tail
    last = np.empty((counts[-1] + 1, y.size))  # the longest member's states, tail included
    last[: rounds + 1] = hist[:, -1]
    y = last[rounds]
    for k, c in enumerate(cells(tail_blocks) if stop is None else (), rounds):
        y = last[k + 1] = step(y, c)
        if not math.sqrt(y.dot(y)) <= threshold:
            stop = k + 1
            break
    if stop is not None:  # the longest member stopped: keep none of its buffer past stop
        last = last[: stop + 1].copy()
    states = [last if i == order[-1] else hist[:, order.index(i)] for i in range(len(parts))]
    with np.errstate(over="ignore"):  # the loop's square warned of an overflow
        return _trajectories(path, parts, states, stop, threshold, tag)


def _trajectories(path, parts, states, stop, threshold, tag) -> list[Trajectory]:
    """A walk's classifier: each member's trajectory from its states ``states[i]``, in the
    order of ``parts``.  A walk stopped at ``stop`` ends there the members that reach it,
    their states there squared in one ``vecdot`` (an overflow warns once): a non-finite one
    raises :class:`NumericsError` unless an earlier member crossed, a finite one whose norm
    exceeds ``threshold`` crossed, with ``exploded_at = stop``."""
    running = [i for i, p in enumerate(parts) if stop is not None and p.size > stop]
    rows = np.array([states[i][stop] for i in running])
    sq = dict(zip(running, np.vecdot(rows, rows).tolist() if running else ()))
    out, crossed = [], False
    for i, (p, ys) in enumerate(zip(parts, states)):
        end, exploded_at = p.size - 1, None
        if i in sq:  # running when the walk stopped
            end = stop
            if not np.all(np.isfinite(ys[stop])):
                if not crossed:
                    raise NumericsError(f"non-finite state after step {stop - 1} "
                                        f"(t={path.times[p[stop]]:.6g}, scheme={tag})")
            elif math.sqrt(sq[i]) > threshold:
                crossed, exploded_at = True, stop
        out.append(Trajectory(path.times[p[: end + 1]], ys[: end + 1], tag, exploded_at))
    return out


def _run_scalar(path, area, y, parts, threshold, build, width, tag) -> list[Trajectory]:
    """:func:`_run_scheme`'s walk of a diagonal linear field: ``y_i + s_i y_i`` per member
    and component, ``s`` the diagonal of each ``S`` (:func:`_linear_cells`).  ``S.dot(y)``
    sums one product and zeros from ``+0.0`` (at n = 1 one state's is the product alone), so
    a ``-0.0`` starts as ``+0.0`` but in a one-member walk at n = 1.  A member steps blocks of
    up to 4,096 cells, each checked by one ``vecdot``, up to where an earlier one stopped."""
    threshold, stop = _explosion_threshold(threshold), None
    start = (y if y.size == 1 and len(parts) == 1 else y + 0.0).tolist()
    size, states = min(2**12, _batch(width)), []
    for p in parts:
        p = p[: p.size if stop is None else stop + 1]
        ys, z = np.empty((p.size, y.size)), list(start)
        ys[0] = y
        for c in range(0, p.size - 1, size):
            s = build(_driver_blocks(path, area, p[:-1][c: c + size], p[1:][c: c + size]))
            diag = np.diagonal(s, 0, -2, -1)
            for i in range(y.size):  # one component's floats at a time
                zi, out = z[i], []
                for si in diag[:, i].tolist():
                    zi = zi + si * zi
                    out.append(zi)
                ys[c + 1: c + size + 1, i], z[i] = out, zi
            block = ys[c: c + size + 1]  # from the block's first state, the initial one first
            with np.errstate(over="ignore"):  # an overflowing square warns in the classifier
                bad = ~(np.sqrt(np.vecdot(block, block)) <= threshold)
            if bad.any():
                stop = c + int(bad.argmax())
                break
        states.append(ys)
    if stop is not None:  # keep no buffer past stop
        states = [ys[: stop + 1].copy() if len(ys) > stop + 1 else ys for ys in states]
    return _trajectories(path, parts, states, stop, threshold, tag)


def _solve(field, path, area, y0, partitions, threshold) -> list[Trajectory]:
    """One walk of ``partitions`` (None: every grid point), Euler when ``area`` is None,
    corrected otherwise.  A linear field's step matrices and a constant ``D1``'s operators
    are built from the driver before the cells they serve, any other's per step; a diagonal
    linear field of ``n <= _SCALAR_N`` walks as scalar recurrences (:func:`_run_scalar`)."""
    corrected = area is not None
    if corrected and not field.has_deriv1:
        raise NotImplementedError("corrected scheme needs the field's first derivative")
    y = _check_fit(field, path, y0, area)
    parts = [_grid_indices(path, p) for p in partitions]
    tag = "corrected" if corrected else "euler"
    lin = _linear_cells(field, corrected)
    if lin is not None and field.diagonal and field.n <= _SCALAR_N:
        return _run_scalar(path, area, y, parts, threshold, *lin, tag)
    if lin is not None:
        return _run_scheme(path, area, y, parts, threshold, _linear_step, tag,
                           partial(_built_cells, *lin))
    rows = _constant_rows(field) if corrected else None
    per_state = corrected and rows is None  # D1 read at each state
    evaluate = field._evaluate  # bound once: the walk's states are its own float arrays

    def step(y, c):  # c: an Euler block, a built operator, or a corrected driver block
        if per_state:
            f, r = _coefficients(field, y, True)
            return _advance(y, f, _operators(r, c), True)
        return _advance(y, np.ascontiguousarray(evaluate(y)), c, corrected)

    cells = iter if rows is None else partial(_built_cells, partial(_operators, rows),
                                              rows[..., 1:].size)
    return _run_scheme(path, area, y, parts, threshold, step, tag, cells)


def euler_solve(
    field: VectorField,
    path: DriverPath,
    y0,
    partition: np.ndarray | None = None,
    explosion_threshold: float = 1e6,
) -> Trajectory:
    """First-order scheme: y += f(y) dx per cell, stopped once ``|y|`` exceeds
    ``explosion_threshold``."""
    return _solve(field, path, None, y0, [partition], explosion_threshold)[0]


def corrected_solve(
    field: VectorField,
    path: DriverPath,
    area: AreaProcess,
    y0,
    partition: np.ndarray | None = None,
    explosion_threshold: float = 1e6,
) -> Trajectory:
    """Second-order scheme: y += f(y) dx + G(y) : A per cell.

    ``G`` is the field's correction tensor and ``A`` the area block of the
    cell, looked up through the process's Chen algebra so coarse partitions
    stay consistent with the fine grid.
    """
    return _solve(field, path, area, y0, [partition], explosion_threshold)[0]


def augmented_solve(
    field: VectorField,
    path: DriverPath,
    y0,
    scheme: str = "euler",
    area: AreaProcess | None = None,
    partition: np.ndarray | None = None,
    explosion_threshold: float = 1e6,
    z0=None,
) -> Trajectory:
    """Solve state and initial-condition sensitivity together.

    The sensitivity block is stepped with the literal derivative of the
    one-step map, so its output converges to the Jacobian of the discrete
    flow at the same rate as the state and, for a fixed partition, *is* that
    Jacobian up to roundoff.  That derivative is the step kernel itself: each
    column ``z`` of ``Z`` is stepped by :func:`_advance` with ``D1 . z`` in place
    of ``f``, through the state's own cell operator ``T`` when corrected, so
    ``z + T : (D1 . z)``, plus ``D2[q, h, i, j] z[q] (f A)[h, j]``.
    States are ``concat(y, Z.ravel())`` with
    ``Z[i, N] = d y_i / d y0_N`` flattened row-major; the trajectory is
    labelled with ``scheme``.

    Args:
        scheme: ``"euler"`` or ``"corrected"``.
        z0: optional initial sensitivity, defaults to the identity.
    """
    n = field.n
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    corrected = scheme == "corrected"
    if corrected and area is None:
        raise ValueError("corrected augmented solve needs an area process")
    if not field.has_deriv1 or (corrected and not field.has_deriv2):
        raise NotImplementedError("augmented solve needs deriv1, and deriv2 when corrected")

    y = _check_fit(field, path, y0, area if corrected else None)
    z_init = np.eye(n) if z0 is None else np.asarray(z0, dtype=float).reshape(n, n)
    if not np.all(np.isfinite(z_init)):
        raise ValueError(f"z0 must be finite, got {z_init.tolist()}")
    big0 = np.concatenate([y, z_init.ravel()])
    parts, const = [_grid_indices(path, partition)], _constant_rows(field)
    lin = _linear_cells(field, corrected)

    def step(big, m):
        y, z = big[:n], big[n:].reshape(n, n)
        if lin is not None:  # m: the cell's S; D2 = 0, so each direction steps as a state
            return np.concatenate([_linear_step(y, m), _linear_step(z.T, m).T.ravel()])
        f, rows = _coefficients(field, y, True, const)
        g = _contract("iqj,qc->cij", rows[..., 1:], z)  # each direction's D1 . z[:, c]
        # each direction z[:, c] takes the state's step, its operator when corrected,
        # with D1 . z[:, c] in place of f; the corrected step adds D2's term, D1 varying
        # along z[:, c] under the fixed f A
        c = _operators(rows, m) if corrected else m
        zt = _advance(z.T, g, c, corrected)
        if corrected:
            zt += _contract("qhij,hj,qc->ci", field.deriv2(y), f @ m[:, 1:], z)
        return np.concatenate([_advance(y, f, c, corrected), zt.T.ravel()])

    # Explosion is judged on the full augmented state; callers who care about
    # the bare state norm should solve it separately.
    cells = iter if lin is None else partial(_built_cells, *lin)
    area = area if corrected else None
    return _run_scheme(path, area, big0, parts, explosion_threshold, step, scheme, cells)[0]


def window_pairs(n_points: int, max_span: int) -> np.ndarray:
    """All index pairs (k, l), k < l <= k + max_span, as an (m, 2) array sorted by k, l."""
    n_points, max_span = _size(n_points, "n_points"), _size(max_span, "max_span")
    k = np.arange(n_points - 1)[:, None]
    l = k + np.arange(1, min(max_span, n_points - 1) + 1)
    keep = l < n_points
    return np.column_stack([np.broadcast_to(k, l.shape)[keep], l[keep]])


def _defect_pairs(
    n_points: int, gamma: float, p: float, corrected: bool, area, pairs, max_span: int
) -> tuple[np.ndarray, str]:
    """The checked pairs of a defect report and its policy name; ``TypeError`` for a
    float or boolean ``max_span`` or pair index, ``ValueError`` for other arguments
    :func:`defect` cannot use, ``IndexError`` for a pair outside the trajectory."""
    max_span = _size(max_span, "max_span")
    if not (0 < gamma < np.inf and 0 < p < np.inf):
        raise ValueError("gamma and p must be finite and positive")
    if area is None and (corrected or gamma > 2):
        raise ValueError("corrected-scheme defects and exponents above 2 need the area process")
    if pairs is None or isinstance(pairs, str):
        policy = "window" if pairs is None else pairs
        if policy not in ("window", "adjacent"):
            raise ValueError(f"unknown pair policy {policy!r}")
        pair_arr = window_pairs(n_points, max_span if policy == "window" else 1)
    else:
        pair_arr = np.asarray(pairs)
        if pair_arr.size and pair_arr.dtype.kind not in "iu":
            raise TypeError(f"explicit pairs are integer indices, not {pair_arr.dtype}")
        pair_arr = pair_arr.astype(int, copy=False)
        if pair_arr.ndim != 2 or pair_arr.shape[1] != 2:
            raise ValueError("explicit pairs must be an (m, 2) integer array")
        policy = "custom"
        k, l = pair_arr.T
        bad = (k < 0) | (k >= l) | (l >= n_points)
        if np.any(bad):
            k, l = pair_arr[np.argmax(bad)]
            raise IndexError(f"pair ({k}, {l}) outside the trajectory")
    if pair_arr.shape[0] == 0:
        raise ValueError("no pairs to evaluate")
    return pair_arr, policy


def defect(
    trajectory: Trajectory,
    field: VectorField,
    path: DriverPath,
    gamma: float,
    p: float,
    area: AreaProcess | None = None,
    pairs=None,
    control: ControlModulus | None = None,
    max_span: int = 64,
) -> DefectReport:
    """Two-point defect report for an Euler or corrected trajectory.

    For an Euler trajectory the defect over (s, t) is
    ``y_t - y_s - f(y_s) (x_t - x_s)``; for ``trajectory.scheme == "corrected"``
    the area term is subtracted too.  Magnitudes are componentwise sup norms,
    compared to ``omega(s, t)^(gamma / p)``; the fitted constant is the max ratio.
    ``trajectory.times`` must be driver grid times exactly, as every solver here gives.

    Args:
        pairs: ``None`` or ``"window"`` for all pairs up to ``max_span``
            cells apart, ``"adjacent"`` for single cells, or an explicit
            ``(m, 2)`` integer array of trajectory indices.
        control: reuse a pre-fitted modulus (recommended when comparing
            reports across partitions of the same driver, so the scale does
            not drift with the grid); fitted on the trajectory's own grid
            points when omitted.  Its ``p`` must equal ``p``.
    """
    _check_fit(field, path, trajectory.states[0], area)
    if trajectory.times.size < 2:
        raise ValueError("a defect needs two states, the trajectory has a single state "
                         f"(t={trajectory.times[0]:.6g}, exploded_at={trajectory.exploded_at})")
    idx = np.minimum(np.searchsorted(path.times, trajectory.times), path.n_intervals)
    if not np.array_equal(path.times[idx], trajectory.times):
        raise ValueError("trajectory times are not driver grid times")
    idx = _grid_indices(path, idx)
    corrected = trajectory.scheme == "corrected"
    pair_arr, policy = _defect_pairs(idx.size, gamma, p, corrected, area, pairs, max_span)
    x = path.values[idx]
    y = trajectory.states
    if control is None:
        control = control_fit(DriverPath(trajectory.times, x), p)
    elif control.p != p:
        raise ValueError(f"control was fitted for p={control.p}, the defect is asked at p={p}")

    # f and D1's kernel rows at every distinct left point in one call (a constant D1's one
    # block), then the reconstructions a block of pairs, with its step matrices or operators
    lin = _linear_cells(field, corrected)
    if lin is None:
        counts = np.bincount(pair_arr[:, 0], minlength=idx.size)
        left, inv = np.flatnonzero(counts), (np.cumsum(counts > 0) - 1)[pair_arr[:, 0]]
        const = _constant_rows(field) if corrected else None
        f_left, rows_left = _coefficients(field, y[left], corrected, const)
    mags = np.empty(pair_arr.shape[0])
    n, d = field.n, field.d  # blocks by their largest temporary: S, operators or Euler's f
    size = _batch(lin[1] if lin is not None else n * (n * (1 + d) if corrected else d))
    for b in range(0, mags.size, size):
        blk = slice(b, b + size)
        k, l = pair_arr[blk].T
        c = _driver_blocks(path, area if corrected else None, idx[k], idx[l])
        if lin is None and corrected:
            c = _operators(rows_left if const is not None else rows_left[inv[blk]], c)
        y_l = _advance(y[k], f_left[inv[blk]], c, corrected) if lin is None else _linear_step(
            y[k], lin[0](c))
        mags[blk] = np.max(np.abs(y[l] - y_l), axis=1)

    omegas = control.omega(trajectory.times[pair_arr[:, 0]], trajectory.times[pair_arr[:, 1]])
    # a zero defect has ratio 0 whatever its omega; a nonzero one over omega 0 is inf
    with np.errstate(divide="ignore"):
        ratios = np.divide(mags, omegas ** (gamma / p), out=np.zeros_like(mags), where=mags != 0)
    return DefectReport(
        scheme=trajectory.scheme,
        pairs=pair_arr,
        magnitudes=mags,
        ratios=ratios,
        fitted_constant=float(np.max(ratios)),
        gamma=float(gamma),
        p=float(p),
        control=control,
        pair_policy=policy,
        times=trajectory.times,
    )
