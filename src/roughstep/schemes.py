"""One-step schemes for controlled systems, their defects, and derived flows.

Everything here rests on one map, the left-point step ``y -> y + f(y) dx
(+ G(y) : A)`` over a cell, taken as one matmul ``w = f @ [dx | A]`` and
``G : A = sum_{h,j} D1[h, i, j] (f A)[h, j]``, so ``G`` is never formed.
:func:`_coefficients` and :func:`_advance` are its single definition, shared
by the solvers, :func:`augmented_solve` and :func:`defect`, so adjacent
defects under the scheme that made a trajectory are zero by construction.
Every solve is a walk of :func:`_run_scheme`: one partition for the solvers,
and the nested meshes of a convergence study stepped in lockstep, each
member bitwise its own solve.

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
_DEFECT_BLOCK = 2**14  # pairs reconstructed per stacked step in defect
# einsum's C entry point: ``np.einsum`` without ``optimize`` calls it after a Python-level
# dispatch that costs about as much as the contraction of one state
_contract = getattr(np._core.multiarray, "c_einsum", np.einsum)


def _kernel_layout(d1: np.ndarray) -> np.ndarray:
    """``D1[..., h, i, j]`` as the kernel takes it: a C-contiguous ``[..., i, h, j]``."""
    return np.ascontiguousarray(d1.swapaxes(-3, -2))


def _constant_deriv1(field: VectorField) -> np.ndarray | None:
    """A constant ``D1`` as one ``(n, n, d)`` row in the kernel's layout, None otherwise."""
    return _kernel_layout(field._deriv1) if isinstance(field._deriv1, np.ndarray) else None


def _coefficients(field: VectorField, y: np.ndarray, corrected: bool, d1=None):
    """Left-point coefficients of the step: ``(f(y), D1(y))`` with ``D1`` in the kernel's
    layout (:func:`_kernel_layout`), None for Euler.

    ``y`` is a state or a batch of states ``(..., n)``.  Both outputs are
    C-contiguous whatever layout the field returns: ``f @ m`` on a transposed
    ``f``, and the contraction on a transposed ``D1``, round differently from
    the same operation on a row of a stacked batch.  ``d1`` is a constant ``D1``'s
    row (:func:`_constant_deriv1`), bound once per walk and broadcast over any batch.
    """
    f = np.ascontiguousarray(field.eval(y))
    if not corrected:
        return f, None
    return f, _kernel_layout(field.deriv1(y)) if d1 is None else d1


def _advance(y, f, d1, m) -> tuple[np.ndarray, np.ndarray]:
    """The step ``y + f dx (+ G : A)`` over leading batch axes from the cell's
    driver block ``m = [dx | A]`` (``[dx]``, ``d1`` None, for Euler), and ``w = f @ m``,
    which holds ``f dx`` then ``f A``: ``G : A`` contracts ``D1`` with ``f A`` over
    one contiguous ``(h, j)`` block, one inner loop on a batch as on one state."""
    w = f @ m
    y = y + w[..., 0]
    if d1 is not None:
        y = y + _contract("...ihj,...hj->...i", d1, np.ascontiguousarray(w[..., 1:]))
    return y, w


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
) -> list[Trajectory]:
    """Walk the members ``parts``, grid-index arrays of partitions of ``path``, in lockstep
    from the checked state ``y``; ``step(y, m)`` advances a state ``(n,)`` or a stack of
    states ``(M, n)`` over its driver blocks ``m`` (``area`` None: ``[dx]``) and returns a
    new array.

    Members are stepped in order of cell count, so the ones still running at round ``r``
    are a contiguous suffix of one stack: a round is one ``step`` on that slice, its
    driver blocks read from one array (filled up to the second-longest member's count)
    and one threshold check.  Once the longest member is the only one left it continues
    alone on a 1-D view of its row, into one array sized for its whole walk, so a
    one-member walk is the single-state loop.  Each member is bitwise its own walk: a
    stacked step, the field's included (see :class:`VectorField`), equals its rows
    stepped alone.

    One rule stops the walk: every running member ends at the first index ``stop`` (the
    initial state is index 0) at which one of them fails ``sqrt(y . y) <= threshold``,
    as a NaN does.  The loops only detect ``stop`` and keep the running members' ``y . y``;
    one classifier then judges those members by them (an overflow warns once), in the
    order of ``parts``.  A non-finite state raises :class:`NumericsError` unless an
    earlier member crossed; a finite one whose norm exceeds ``threshold``, its square
    overflowing or not, crossed, with ``exploded_at = stop``.
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
    j0, ys, sq = 0, hist[0], [y.dot(y)] * len(parts)
    stop = None if math.sqrt(sq[0]) <= threshold else 0
    for r in range(rounds if stop is None else 0):
        while counts[j0] <= r:  # a member finished: drop its row and its blocks
            j0, ys, m = j0 + 1, ys[1:], m[:, 1:]
        ys = step(ys, m[r])
        hist[r + 1, j0:] = ys
        sq = np.vecdot(ys, ys).tolist()  # each row's y.dot(y), bitwise
        # a float sum of squares bounds each of them and carries any NaN or inf, so
        # one comparison clears a round; past it each member is judged on its own
        if not math.sqrt(sum(sq)) <= threshold and not all(
            math.sqrt(s) <= threshold for s in sq
        ):
            stop = r + 1
            break
    del m  # not held through the longest member's tail
    last = np.empty((counts[-1] + 1, y.size))  # the longest member's states, tail included
    last[: rounds + 1] = hist[:, -1]
    y = last[rounds]
    for k, b in enumerate(tail_blocks if stop is None else (), rounds):
        y = last[k + 1] = step(y, b)
        if not math.sqrt(s := y.dot(y)) <= threshold:
            j0, ys, sq, stop = len(parts) - 1, y[None], [s], k + 1
            break
    if stop is not None:  # the longest member stopped: keep none of its buffer past stop
        last = last[: stop + 1].copy()

    out, crossed = [], False  # the classifier, in the order of ``parts``
    for i, p in enumerate(parts):
        pos = order.index(i)
        end, exploded_at = counts[pos], None
        if stop is not None and pos >= j0:  # running when the walk stopped
            end, row = stop, ys[pos - j0]
            if not np.all(np.isfinite(row)):
                if not crossed:
                    raise NumericsError(f"non-finite state after step {stop - 1} "
                                        f"(t={path.times[p[stop]]:.6g}, scheme={tag})")
            elif math.sqrt(sq[pos - j0]) > threshold:
                crossed, exploded_at = True, stop
        states = last if pos == len(parts) - 1 else hist[:, pos]
        out.append(Trajectory(path.times[p[: end + 1]], states[: end + 1], tag, exploded_at))
    return out


def _solve(field, path, area, y0, partitions, threshold) -> list[Trajectory]:
    """One walk of ``partitions`` (None: every grid point), Euler when ``area`` is None,
    corrected otherwise."""
    corrected = area is not None
    if corrected and not field.has_deriv1:
        raise NotImplementedError("corrected scheme needs the field's first derivative")
    y = _check_fit(field, path, y0, area)
    parts = [_grid_indices(path, p) for p in partitions]
    d1 = _constant_deriv1(field)

    def step(y, m):
        return _advance(y, *_coefficients(field, y, corrected, d1), m)[0]

    return _run_scheme(path, area, y, parts, threshold, step, "corrected" if corrected else "euler")


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
    of ``f``, and the corrected step adds ``D2[q, h, i, j] z[q] (f A)[h, j]``.
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
    parts, const = [_grid_indices(path, partition)], _constant_deriv1(field)

    def step(big, m):
        y, z = big[:n], big[n:].reshape(n, n)
        f, d1 = _coefficients(field, y, True, const)
        y_new, w = _advance(y, f, d1 if corrected else None, m)
        # each direction z[:, c] takes the step with D1 . z[:, c] in place of f; the
        # corrected step adds D2's term, D1 varying along z[:, c] under the fixed f A
        zt = _advance(z.T, _contract("iqj,qc->cij", d1, z), d1 if corrected else None, m)[0]
        if corrected:
            zt += _contract("qhij,hj,qc->ci", field.deriv2(y), w[:, 1:], z)
        return np.concatenate([y_new, zt.T.ravel()])

    # Explosion is judged on the full augmented state; callers who care about
    # the bare state norm should solve it separately.
    area = area if corrected else None
    return _run_scheme(path, area, big0, parts, explosion_threshold, step, scheme)[0]


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

    # f and D1 at every distinct left point in one call, then the reconstructions
    # a block of pairs at a time
    counts = np.bincount(pair_arr[:, 0], minlength=idx.size)
    left, inv = np.flatnonzero(counts), (np.cumsum(counts > 0) - 1)[pair_arr[:, 0]]
    f_left, d1_left = _coefficients(field, y[left], corrected)
    mags = np.empty(pair_arr.shape[0])
    for b in range(0, mags.size, _DEFECT_BLOCK):
        blk = slice(b, b + _DEFECT_BLOCK)
        k, l = pair_arr[blk].T
        m = _driver_blocks(path, area if corrected else None, idx[k], idx[l])
        d1 = d1_left[inv[blk]] if corrected else None
        y_l = _advance(y[k], f_left[inv[blk]], d1, m)[0]
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
