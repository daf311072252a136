"""Grid-level primitives for integrating controlled systems against rough drivers.

The pieces here are small and composable:

* :class:`DriverPath` describes when and where a driving signal is sampled.
  Off-grid values are piecewise linear; that is part of its contract, not an
  implementation detail.  A partition is an increasing integer array of grid
  indices into it, never a float array of times.
* :class:`ControlModulus` is a superadditive bound ``omega(s, t)`` on increment
  sizes; :func:`control_fit` produces the smallest linear one valid on a grid.
* :class:`AreaProcess` stores second-order increments (Levy-area style) per
  fine-grid interval and reconstructs the area of any coarser pair through the
  Chen identity, so every consumer sees one consistent algebra.
* :class:`VectorField` bundles a coefficient field with its first two
  derivative tensors, callables or constant arrays; the step kernel takes a
  constant one once per walk.  :class:`Trajectory`, :class:`DefectReport` and
  :class:`GrowthEnvelope` are the outputs and inputs of the scheme layer.

Index conventions used throughout the package (shapes in comments elsewhere
refer back to these):

* a field value is ``F[i, j]``: state component ``i`` against driver
  component ``j``;
* ``D1[h, i, j]`` is the derivative of ``F[i, j]`` in state direction ``h``;
* ``D2[q, h, i, j]`` adds a second state direction ``q``;
* areas are ``A[r, j]``: first-moving driver component ``r``, then ``j``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "DriverPath",
    "ControlModulus",
    "control_fit",
    "chen_combine",
    "AreaProcess",
    "VectorField",
    "Trajectory",
    "DefectReport",
    "GrowthEnvelope",
]


class NumericsError(RuntimeError):
    """A solver or estimator produced a non-finite value it cannot explain."""


def _size(value, name: str) -> int:
    """``value`` as an ``int``; a float or a bool is refused with ``TypeError``."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DriverPath:
    """A sampled driving signal ``x: [t_0, t_K] -> R^d``.

    ``values[k]`` is the signal at ``times[k]``.  Between grid points the path
    is piecewise linear: :meth:`eval` interpolates, and any code that needs
    off-grid values must go through it so the contract stays in one place.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _float_array(self.times, "times", 1)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError(
                f"values must have shape (len(times), d); got {values.shape} "
                f"for {times.size} times"
            )
        if times.size < 2:
            raise ValueError("a driver path needs at least two samples")
        if not np.all(np.diff(times) > 0):
            raise ValueError("driver times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    @property
    def increments(self) -> np.ndarray:
        """Per-interval increments, shape ``(K, d)``."""
        return np.diff(self.values, axis=0)

    def eval(self, t) -> np.ndarray:
        """The piecewise-linear path at the 1-D array of times ``t``, shape ``(m, d)``.
        Queries outside the grid clamp to the endpoint values."""
        return np.column_stack([np.interp(t, self.times, v) for v in self.values.T])


@dataclass(frozen=True)
class ControlModulus:
    """Linear control ``omega(s, t) = c * (t - s)``.

    Linearity makes superadditivity exact: for s <= u <= t the two halves sum
    to the whole with no slack.  The exponent ``p`` records which variation
    scale the constant was fitted for, so bounds read ``|increment|^p <= omega``.
    """

    c: float
    p: float

    def __post_init__(self):
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"control constant must be finite and >= 0, got {self.c}")
        if not 0 < self.p < math.inf:
            raise ValueError(f"variation exponent must be positive and finite, got {self.p}")

    def omega(self, s, t):
        """Evaluate the control; accepts scalars or broadcastable arrays."""
        gap = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        if np.any(gap < -1e-15):
            raise ValueError("control queried with t < s")
        out = self.c * np.maximum(gap, 0.0)
        return float(out) if out.ndim == 0 else out


_FIT_PAIRS = 2**14  # block or sub-block pairs bounded per vectorized chunk


def _fit_block(n: int) -> int:  # samples per block in _pair_max on n samples
    return min(64, max(1, math.isqrt(n) // 2))


def _pair_max(v, p, weight) -> tuple[float, int, int]:
    """Exact ``max over k < m`` of ``max_c |v[c, m] - v[c, k]|^p / weight(k, m)``.

    ``v`` has shape ``(c, N)``.  ``weight(k, m)`` gives a positive weight for
    every pair, never decreasing as ``[k, m]`` widens; ``k`` and ``m`` are
    broadcastable index arrays or, in the one-gap passes, the slices
    ``[lo, hi - gap)`` and ``[lo + gap, hi)``.  A weight of ``+inf`` means
    the pair is not counted: its ratio is 0, which never displaces the start
    pair (below), and a block or sub-block bound whose smallest gap weighs
    ``+inf`` is 0, which is pruned.  A window cap is such a weight.
    Returns ``(ratio, k, m)``.  Among equal ratios the smallest gap ``m - k``
    wins, then the larger increment, then the smallest ``k``.

    The index range is cut into blocks of ``b = _fit_block(N)`` samples and
    gaps under ``b`` are scanned one vectorized pass per gap.  A pair at gap
    2 or more inside block ``I`` is bounded by the block's largest component
    range ``bmax_I - bmin_I`` to the ``p`` over the smallest weight of an
    adjacent pair starting in ``I`` (a pair weighs at least its first
    adjacent pair), so those passes cover only the samples from the first
    to the last block whose bound is positive and at or above the running
    best, and stop when none is: on a constant path, after gap 1.  Pairs in
    two blocks are left to the block bounds: a pair in blocks ``I < J`` has
    an increment of at most
    ``max(bmax_J - bmin_I, bmax_I - bmin_J)`` and a weight of at least the
    one at the smallest gap.  Block pairs whose bound is positive and at or
    above an attained lower bound (the ratio over the widest gap) are kept,
    which holds memory near linear in the block count.  Each kept block
    pair, largest bound first and while its bound is at or above the
    running best, is split into sub-block pairs: sub-blocks of
    ``s = max(1, b // 4)`` samples from each block's start, the last one of
    a block allowed to be short.  Each sub-block pair is bounded by the same
    rule, and those below the running best are dropped.  A block pair then
    evaluates in full the smallest run of its sub-block rows against the
    smallest run of its sub-block columns that holds every survivor, so it
    is never more than one visit.  Block pairs go largest surviving bound
    first, until that bound falls below the running best; a bound equal to
    it is still visited, so that ties are seen.  Bounds are inflated by
    ``1 + 1e-12`` so that a last-ulp difference in ``pow`` cannot prune the
    pair holding the maximum (a subnormal bound stays tied, hence the tie
    visits).  The search starts from ``(0, 1)`` at ratio 0, the first pair
    under the tie rule, so a zero maximum is reported there.  Every ratio is
    formed by the same elementwise operations and ``max`` is exact, so the
    result is bitwise that of an all-pairs scan, whatever the block and
    sub-block sizes.

    Cost.  The one-gap passes are at most ``b`` sweeps.  Past gap 1 they
    cover every sample of Brownian paths and condition-2.1 prefixes, but 45
    of 8,193 and 192 of 32,769 on the non-uniqueness driver's geometric
    grids (control fits 3.6 -> 1.5 and 23 -> 8.3 ms).  The block bounds cover
    ``(N / b)^2`` block pairs (formed by broadcasting a chunk of rows against
    every block, cheaper than gathering each pair's extrema) and each
    refined block pair has ``ceil(b / s)^2`` sub-block pairs, 16 when 4
    divides ``b``.  Block rule ``b = min(64, max(1, isqrt(N) // 2))``:
    against a fixed 64 it cut the condition-2.1 scan by about a quarter, and
    the cap holds the geometric control fits at 64 (at 32,769 and 65,537
    points blocks of 90 and 128 were slower).  The two-level bound keeps the
    visits small at the finest levels: on six level-12 Brownian
    condition-2.1 prefixes (4,097 samples, ``b = 32``) 110-140 block pairs
    survive the block bounds; visiting them whole evaluated 117,000-136,000
    pairs, the runs of surviving sub-blocks 190-2,100.  Against sub-blocks
    of ``b // 4``, ``b // 2`` was 10-14% slower at levels 10-12 and on a
    Brownian level-12 control fit, ``b // 8`` 5-28% slower at levels 9-12
    (but about 10% faster on that control fit).
    """
    v = np.ascontiguousarray(v)
    n = v.shape[1]
    block = _fit_block(n)
    # (ratio, -gap, increment, -k): the largest wins.
    best = (0.0, -1, 0.0, 0)

    def offer(num, ratio, shortest, pairs):
        nonlocal best
        r = float(ratio.max())
        if (r, -shortest) >= best[:2]:  # it can win or tie on ratio and gap
            hit = np.nonzero(ratio == r)
            k, m = pairs(*hit)
            num = num[hit]
            i = np.lexsort((k, -num, m - k))[0]
            best = max(best, (r, int(k[i] - m[i]), float(num[i]), -int(k[i])))

    starts = np.arange(0, n, block)
    ends = np.minimum(starts + block, n) - 1
    nb = starts.size
    # Sub-blocks of `sub` samples from each block's start.  One past the end
    # of a short last block stands for its last sample (the column appended).
    sub = max(1, block // 4)
    s_lo = np.minimum(starts[:, None] + np.arange(0, block, sub), n)
    ext = np.concatenate((v, v[:, -1:]), axis=1)
    s_min = np.minimum.reduceat(ext, s_lo.ravel(), axis=1).reshape(-1, nb, s_lo.shape[1])
    s_max = np.maximum.reduceat(ext, s_lo.ravel(), axis=1).reshape(s_min.shape)
    s_lo = np.minimum(s_lo, n - 1)
    s_hi = np.minimum(s_lo + sub - 1, ends[:, None])
    bmin, bmax = s_min.min(axis=2), s_max.max(axis=2)
    lo, hi, seen = 0, n, None  # the one-gap passes cover samples [lo, hi)
    for gap in range(1, min(block, n)):
        if gap == 2:  # bound each block's pairs at gap >= 2 (+inf: no pair after the last sample)
            inner = (bmax - bmin).max(axis=0) ** p / np.minimum.reduceat(
                np.append(w, math.inf), starts) * (1 + 1e-12)
        if gap > 1 and best[0] != seen:  # the live blocks change only with the best
            seen, live = best[0], np.flatnonzero(inner >= max(best[0], 5e-324))
            if live.size == 0:
                break
            lo, hi = int(starts[live[0]]), int(ends[live[-1]]) + 1
        if hi - lo <= gap:
            break
        w = weight(slice(lo, hi - gap), slice(lo + gap, hi))
        num = np.max(np.abs(v[:, lo + gap : hi] - v[:, lo : hi - gap]), axis=0) ** p
        offer(num, num / w, gap, lambda a, lo=lo, gap=gap: (a + lo, a + lo + gap))
    step = max(1, _FIT_PAIRS // nb)
    blocks = np.arange(nb)
    floor, kept = best[0], [(np.empty(0), blocks[:0], blocks[:0])]  # one block makes no pass
    for i0 in range(0, nb - 1, step):
        r = slice(i0, min(i0 + step, nb - 1))
        ii, jj = np.nonzero(blocks[r, None] < blocks)
        reach = np.maximum(bmax[:, None] - bmin[:, r, None], bmax[:, r, None] - bmin[:, None])
        reach = reach.max(axis=0)[ii, jj]
        reach **= p
        ii += i0
        floor = max(floor, float((reach / weight(starts[ii], ends[jj])).max()))
        upper = reach / weight(ends[ii], starts[jj]) * (1 + 1e-12)
        keep = (upper >= floor) & (upper > 0)  # zero ratios never beat the start (0, 1)
        kept.append((upper[keep], ii[keep], jj[keep]))
    upper, rows, cols = (np.concatenate(a) for a in zip(*kept))
    order = np.argsort(-upper, kind="stable")
    upper, rows, cols = upper[order], rows[order], cols[order]
    step = max(1, _FIT_PAIRS // s_lo.shape[1] ** 2)
    for q0 in range(0, upper.size, step):
        if upper[q0] < best[0]:
            break
        ii, jj = rows[q0 : q0 + step], cols[q0 : q0 + step]
        reach = np.max(np.maximum(s_max[:, jj, None, :] - s_min[:, ii, :, None],
                                  s_max[:, ii, :, None] - s_min[:, jj, None, :]), axis=0)
        reach **= p
        bound = reach / weight(s_hi[ii][:, :, None], s_lo[jj][:, None, :]) * (1 + 1e-12)
        # Each block pair visits the smallest run of its sub-block rows and
        # columns that holds every survivor, so no more visits, nor pairs,
        # than whole block pairs take: ties can keep every sub-block pair.
        live = bound >= max(best[0], 5e-324)  # zero ratios never beat the start (0, 1)
        top = np.where(live, bound, 0.0).max(axis=(1, 2))
        in_i, in_j = live.any(axis=2), live.any(axis=1)
        x0, x1 = in_i.argmax(axis=1), in_i.shape[1] - 1 - in_i[:, ::-1].argmax(axis=1)
        y0, y1 = in_j.argmax(axis=1), in_j.shape[1] - 1 - in_j[:, ::-1].argmax(axis=1)
        lo_i, hi_i = s_lo[ii, x0], s_hi[ii, x1] + 1
        lo_j, hi_j = s_lo[jj, y0], s_hi[jj, y1] + 1
        for t in np.argsort(-top, kind="stable"):
            if top[t] < max(best[0], 5e-324):
                break
            i, j = slice(lo_i[t], hi_i[t]), slice(lo_j[t], hi_j[t])
            k, m = np.arange(i.start, i.stop)[:, None], np.arange(j.start, j.stop)
            num = np.abs(v[:, None, j] - v[:, i, None]).max(axis=0) ** p
            ratio = num / weight(k, m)
            shortest = j.start - i.stop + 1
            offer(num, ratio, shortest, lambda a, b, i=i, j=j: (a + i.start, b + j.start))
    k = -best[3]
    return best[0], k, k - best[1]


def control_fit(path: DriverPath, p: float) -> ControlModulus:
    """Fit the smallest linear control dominating a path's p-variation on-grid.

    The constant is ``c = max over all grid pairs (s, t)`` of
    ``max_i |x_i(t) - x_i(s)|^p / (t - s)`` (componentwise sup norm), exact
    for the sampled grid: :func:`_pair_max` returns bitwise the value of an
    all-pairs scan.  A constant past float64 (an increment whose ``p``-th
    power overflows) raises :class:`NumericsError`, with no warning.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    t = path.times
    with np.errstate(over="ignore"):  # an overflowing power is an inf ratio, refused below
        c, _, _ = _pair_max(path.values.T, p, lambda k, m: t[m] - t[k])
    if not math.isfinite(c):
        raise NumericsError(f"control constant at p = {p} is {c}: |increment|^p overflows float64")
    return ControlModulus(c=c, p=float(p))


def chen_combine(
    area_left: np.ndarray,
    area_right: np.ndarray,
    inc_left: np.ndarray,
    inc_right: np.ndarray,
) -> np.ndarray:
    """Combine areas over [s, u] and [u, t] into the area over [s, t].

    The cross term is the outer product of the first increment with the
    second: ``A(s,t) = A(s,u) + A(u,t) + inc(s,u) ⊗ inc(u,t)``.  Leading axes
    are a batch: ``(m, d, d)`` areas with ``(m, d)`` increments.
    """
    area_left = np.asarray(area_left, dtype=float)
    area_right = np.asarray(area_right, dtype=float)
    if area_left.shape != area_right.shape:
        raise ValueError(
            f"area blocks must share a shape, got {area_left.shape} vs {area_right.shape}"
        )
    inc_left, inc_right = np.asarray(inc_left), np.asarray(inc_right)
    return area_left + area_right + inc_left[..., :, None] * inc_right[..., None, :]


class AreaProcess:
    """Second-order increments of a driver, stored once on the fine grid.

    ``per_interval[k]`` is the d x d area over ``(times[k], times[k+1])``.
    Areas over coarser pairs are *defined* by folding those blocks with the
    Chen identity; :meth:`pairs` implements the fold through a prefix table,
    built on the first query and cached, so a query costs O(d^2) instead of
    O(span).  Adjacent pairs return the stored block itself (bitwise), which
    downstream defect reports rely on.

    ``kind`` tags the construction ("ito", "stratonovich", "degenerate",
    "analytic") and is carried through serialization untouched.
    """

    KINDS = ("ito", "stratonovich", "degenerate", "analytic")

    def __init__(self, path: DriverPath, per_interval: np.ndarray, kind: str):
        per_interval = np.asarray(per_interval, dtype=float)
        d = path.d
        expected = (path.n_intervals, d, d)
        if per_interval.shape != expected:
            raise ValueError(
                f"per-interval areas must have shape {expected}, got {per_interval.shape}"
            )
        if kind not in self.KINDS:
            raise ValueError(f"unknown area kind {kind!r}; expected one of {self.KINDS}")
        self.path = path
        self.per_interval = per_interval
        self.kind = kind

    @functools.cached_property
    def _prefix(self) -> np.ndarray:
        """Prefix fold ``P[k + 1] = (P[k] + A_k) + (x_k - x_0) (x) (x_{k+1} - x_k)``, as one
        cumulative sum over the interleaved terms ``A_0, outer_0, A_1, ...``, laid out
        ``(d, d, 2k)`` so that the sum runs along the contiguous axis."""
        x, d, k = self.path.values, self.d, self.n_intervals
        terms = np.empty((d, d, 2 * k))
        terms[:, :, 0::2] = self.per_interval.transpose(1, 2, 0)
        np.multiply((x[:-1] - x[0]).T[:, None], np.diff(x, axis=0).T[None], out=terms[:, :, 1::2])
        np.cumsum(terms, axis=-1, out=terms)
        prefix = np.zeros((k + 1, d, d))
        prefix[1:] = terms[:, :, 1::2].transpose(2, 0, 1)
        return prefix

    @property
    def d(self) -> int:
        return self.path.d

    @property
    def n_intervals(self) -> int:
        return self.per_interval.shape[0]

    def pairs(self, i, j) -> np.ndarray:
        """Areas over the grid pairs ``(times[i[m]], times[j[m]])``, shape ``(m, d, d)``.

        Each area is ``P[j] - P[i] - (x_i - x_0) (x) (x_j - x_i)`` from the
        prefix table; adjacent pairs take a copy of their stored block and
        ``i == j`` gives zeros.  Float and boolean indices are refused.
        """
        i, j = (np.asarray(v).reshape(-1) for v in (i, j))
        if any(v.size and v.dtype.kind not in "iu" for v in (i, j)):
            raise TypeError(f"grid indices are integers, not {i.dtype} and {j.dtype}")
        i, j = i.astype(np.intp, copy=False), j.astype(np.intp, copy=False)
        bad = (i < 0) | (i > j) | (j > self.n_intervals)
        if np.any(bad):
            m = np.argmax(bad)
            raise IndexError(
                f"pair ({i[m]}, {j[m]}) outside grid with {self.n_intervals} intervals")
        x = self.path.values
        dx = x[j] - x[i]
        out = self._prefix[j] - self._prefix[i] - (x[i] - x[0])[:, :, None] * dx[:, None, :]
        adjacent = j == i + 1
        out[adjacent] = self.per_interval[i[adjacent]]
        out[i == j] = 0.0
        return out


class VectorField:
    """A coefficient field ``f: R^n -> R^{n x d}`` with optional derivatives.

    Args:
        n: state dimension, an integer of at least 1.
        d: driver dimension, likewise.
        func: maps states ``(..., n)`` to coefficients ``(..., n, d)``.
        deriv1: optional; maps states to ``(..., n, n, d)`` with layout
            ``D1[h, i, j] = d f[i, j] / d y[h]``.
        deriv2: optional; maps states to ``(..., n, n, n, d)`` with layout
            ``D2[q, h, i, j]``.

    Every callable is called with a single state ``(n,)`` or a batch of
    states ``(..., n)`` and maps the batch row for row, each row bitwise its
    single-state value: the lockstep walk and the defect report rely on it.
    Any of the three may instead be a constant array of its shape: refused
    (``ValueError``) unless finite, made read-only and broadcast over a batch.

    Missing derivatives raise on access; schemes that need them say so in the
    error.  No approximation is ever silently substituted.
    """

    def __init__(
        self,
        n: int,
        d: int,
        func: Callable[[np.ndarray], np.ndarray] | np.ndarray,
        deriv1: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None,
        deriv2: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None,
    ):
        self.n, self.d = _size(n, "n"), _size(d, "d")
        if min(self.n, self.d) < 1:
            raise ValueError(f"a field needs n, d >= 1, got n={self.n}, d={self.d}")
        self._func = _checked(func, (self.n, self.d), "field")
        self._deriv1 = _checked(deriv1, (self.n, self.n, self.d), "deriv1")
        self._deriv2 = _checked(deriv2, (self.n, self.n, self.n, self.d), "deriv2")
        # bound once to their output checks: a walk calls ``_evaluate`` on its own states
        self._evaluate = _bound(self._func, (self.n, self.d), "field")
        self._evaluate1 = _bound(self._deriv1, (self.n, self.n, self.d), "deriv1")
        self._evaluate2 = _bound(self._deriv2, (self.n, self.n, self.n, self.d), "deriv2")

    def eval(self, y) -> np.ndarray:
        return self._evaluate(_float_states(y))

    @property
    def has_deriv1(self) -> bool:
        return self._deriv1 is not None

    @property
    def has_deriv2(self) -> bool:
        return self._deriv2 is not None

    def deriv1(self, y) -> np.ndarray:
        if self._deriv1 is None:
            raise NotImplementedError("this field has no first derivative attached")
        return self._evaluate1(_float_states(y))

    def deriv2(self, y) -> np.ndarray:
        if self._deriv2 is None:
            raise NotImplementedError("this field has no second derivative attached")
        return self._evaluate2(_float_states(y))

    @classmethod
    def constant(cls, matrix) -> "VectorField":
        """Field with state-independent coefficients (derivatives vanish)."""
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("constant field needs an (n, d) matrix")
        n, d = matrix.shape
        return cls(n, d, matrix, deriv1=np.zeros((n, n, d)),
                   deriv2=np.broadcast_to(0.0, (n, n, n, d)))

    @classmethod
    def scalar_linear(cls) -> "VectorField":
        """The 1-by-1 multiplicative field f(y) = y (geometric testbed)."""
        return cls(1, 1, lambda y: y[..., None].copy(), deriv1=np.ones((1, 1, 1)),
                   deriv2=np.zeros((1, 1, 1, 1)))

    @classmethod
    def diagonal_linear(cls, n: int) -> "VectorField":
        """f[i, j] = delta_ij * y[i]: independent multiplicative components."""
        if n < 1:
            raise ValueError(f"diagonal_linear field needs n >= 1, got {n}")
        d1 = np.einsum("hi,ij->hij", np.eye(n), np.eye(n))  # delta_hi delta_ij

        def func(y):
            out = np.zeros(y.shape + (n,))
            out.reshape(y.shape[:-1] + (n * n,))[..., :: n + 1] = y
            return out

        return cls(n, n, func, deriv1=d1, deriv2=np.broadcast_to(0.0, (n, n, n, n)))


def _checked(value, shape: tuple, what: str):
    """``value``, a constant one as a read-only float array refused unless finite and of
    ``shape``; a float array is not copied, so a zero-stride ``np.broadcast_to`` costs
    no memory, and its finiteness is read from the elements it holds."""
    if value is None or callable(value):
        return value
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"constant {what} has shape {value.shape}, expected {shape}")
    held = value[tuple(slice(None) if s else slice(1) for s in value.strides)]
    if not (np.isfinite(held.min(initial=0.0)) and np.isfinite(held.max(initial=0.0))):
        raise ValueError(f"constant {what} must be finite")
    value.flags.writeable = False
    return value


def _bound(fn, tail: tuple, what: str):
    """``fn``, a constant or a callable, as a map of float64 states ``(..., n)``: a partial
    of a module function, so a field pickles whenever its parts do."""
    if type(fn) is np.ndarray:
        return functools.partial(_broadcast, fn)
    return functools.partial(_apply, fn, tail, what)


def _broadcast(value: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A constant part at a state, broadcast over a batch of states."""
    return value if y.ndim <= 1 else np.broadcast_to(value, y.shape[:-1] + value.shape)


def _apply(fn, tail: tuple, what: str, y: np.ndarray) -> np.ndarray:
    """``fn(y)`` as a float array, refused unless of shape ``(..., *tail)``."""
    out = fn(y)
    if type(out) is not np.ndarray or out.dtype is not _FLOAT:
        out = np.asarray(out, dtype=float)
    if out.shape != y.shape[:-1] + tail:
        raise ValueError(f"{what} returned shape {out.shape}, expected {y.shape[:-1] + tail}")
    return out


def _float_states(y) -> np.ndarray:
    """``y`` as a float64 array, not copied when it is one."""
    return y if type(y) is np.ndarray and y.dtype is _FLOAT else np.asarray(y, dtype=float)


_CSV_ROWS = 4096  # rows per block written by Trajectory.write_csv
_FLOAT = np.dtype(float)  # VectorField converts no array of it


@dataclass
class Trajectory:
    """Output of a solver run.

    ``states[k]`` is the state at ``times[k]``.  If the solver hit the
    explosion threshold, ``exploded_at`` is the index of the first state whose
    Euclidean norm exceeded it and the arrays are truncated there (the
    offending state is kept so callers can see the crossing).
    """

    times: np.ndarray
    states: np.ndarray
    scheme: str
    exploded_at: int | None = None

    def __post_init__(self):
        self.times = _float_array(self.times, "times", 1)
        self.states = _float_array(self.states, "states", 2)
        if self.states.shape[0] != self.times.size:
            raise ValueError("times and states disagree in length")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @property
    def exploded(self) -> bool:
        return self.exploded_at is not None

    def write_csv(self, filename) -> None:
        """Write a ``t,y_1,...,y_n`` header and one row per time: repr floats, CRLF ends.

        Rows go out ``_CSV_ROWS`` at a time, so no whole-file string is ever
        held: each block is one ``%`` of the ``"%r,...,%r\\r\\n"`` row pattern,
        repeated once per row, over the block's plain floats from ``tolist``.
        """
        table = np.column_stack((self.times, self.states))
        row = ",".join(["%r"] * (self.n + 1)) + "\r\n"
        with open(filename, "w", newline="") as fh:
            fh.write(",".join(["t"] + [f"y_{i + 1}" for i in range(self.n)]) + "\r\n")
            for start in range(0, len(table), _CSV_ROWS):
                block = table[start : start + _CSV_ROWS]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))


@dataclass
class DefectReport:
    """Two-point defect magnitudes of a trajectory against a control bound.

    ``ratios[m] = magnitudes[m] / omega(s_m, t_m)^(gamma/p)`` and
    ``fitted_constant`` is their max, i.e. the smallest constant making the
    bound ``|defect| <= M * omega^(gamma/p)`` hold on every requested pair: a
    zero magnitude has ratio 0 even where omega is 0, a nonzero one there inf.
    ``pair_policy`` records which pairs were scanned ("adjacent", "window",
    "custom") since the fitted constant is only meaningful relative to it.
    ``times`` is the trajectory's time grid, which ``pairs`` index.
    """

    scheme: str
    pairs: np.ndarray
    magnitudes: np.ndarray
    ratios: np.ndarray
    fitted_constant: float
    gamma: float
    p: float
    control: ControlModulus
    pair_policy: str
    times: np.ndarray

    def to_dict(self) -> dict:
        """Summary with the worst pair: the first pair of maximal ratio, as ``np.argmax``."""
        worst = int(np.argmax(self.ratios))
        k, l = (int(v) for v in self.pairs[worst])
        return {
            "worst_pair": [k, l],
            "worst_times": [float(self.times[k]), float(self.times[l])],
            "worst_ratio": float(self.ratios[worst]),
            "scheme": self.scheme,
            "gamma": self.gamma,
            "p": self.p,
            "control_c": self.control.c,
            "pair_policy": self.pair_policy,
            "n_pairs": int(self.pairs.shape[0]),
            "fitted_constant": self.fitted_constant,
            "max_magnitude": float(np.max(self.magnitudes)) if self.magnitudes.size else 0.0,
        }


# Roundoff allowed per unit of the exponents' size, four ulps: sums of decimal exponents
# miss by an ulp or two (0.7 + 0.1 == 0.7999999999999999).
_ROUNDOFF = 4 * 2.0**-52
# Bits a power of a radius may take; float64's other 24 cover the sums it enters.
_POWER_BITS = 1000.0


@dataclass(frozen=True)
class GrowthEnvelope:
    """Power-law growth data for explosion analysis.

    ``D(R) = R^growth_exp`` bounds the field magnitude on the ball of radius
    ``R`` and ``A(R) = R^area_exp`` the admissible area inhomogeneity there;
    ``beta`` is the smoothness exponent the bounds are paired with (one less
    than the field's grade).  Construction checks the pairing ``D(R) <=
    R^beta A(R)``, for R >= 1 ``growth_exp <= beta + area_exp``, to a few ulps.
    """

    growth_exp: float
    area_exp: float
    beta: float

    def __post_init__(self):
        g, a, b = self.growth_exp, self.area_exp, self.beta
        if not (math.isfinite(g) and math.isfinite(a)):
            raise ValueError(f"growth_exp and area_exp must be finite, got {g} and {a}")
        if not 0 < b <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {b}")
        if g - (b + a) > _ROUNDOFF * (abs(g) + abs(a) + b):
            raise ValueError(f"envelope pairing D(R) <= R^beta A(R) fails: growth_exp {g} "
                             f"exceeds beta {b} + area_exp {a}")

    def criterion_exponent(self, p: float) -> float:
        """``q`` with ``(A^(1-p) D^(p-1-beta*p))^(1/beta) = R^q``."""
        return (self.area_exp * (1.0 - p) + self.growth_exp * (p - 1.0 - self.beta * p)) / self.beta

    def diverges(self, p: float) -> bool:
        """Whether ``integral_1^inf R^q dR`` diverges, ``q >= -1``; a ``q`` within
        the roundoff of its terms of -1 reads as -1."""
        slack = _ROUNDOFF * (abs(self.growth_exp) + abs(self.area_exp)) / self.beta
        return self.criterion_exponent(p) >= -1.0 - slack

    def check_powers(self, p: float, r: float, *more: float) -> None:
        """Refuse exponents whose powers of radii in ``[1, r]`` overflow: ``growth_exp``,
        ``area_exp``, ``q``, ``q + 1`` (the octave integrals' scaling) and ``more``."""
        q = self.criterion_exponent(p)
        e = max(abs(self.growth_exp), abs(self.area_exp), abs(q), abs(q + 1.0), *map(abs, more))
        if e * math.log2(r) > _POWER_BITS:
            raise ValueError(f"envelope exponents overflow float64: R**{e:.6g} passes "
                             f"2**{_POWER_BITS:g} below R = {r:.4g} ({self}, p={p})")
