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

import math
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
        if not (self.p > 0):
            raise ValueError(f"variation exponent must be positive, got {self.p}")

    def omega(self, s, t):
        """Evaluate the control; accepts scalars or broadcastable arrays."""
        gap = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        if np.any(gap < -1e-15):
            raise ValueError("control queried with t < s")
        out = self.c * np.maximum(gap, 0.0)
        return float(out) if out.ndim == 0 else out


_FIT_PAIRS = 2**14  # block pairs bounded per vectorized chunk


def _fit_block(n: int) -> int:  # samples per block in _pair_max on n samples
    return min(64, max(1, math.isqrt(n) // 2))


def _pair_max(v, p, weight, cap=None) -> tuple[float, int, int]:
    """Exact ``max over k < m`` of ``max_c |v[c, m] - v[c, k]|^p / weight(k, m)``.

    ``v`` has shape ``(c, N)``; ``p=None`` leaves the increment unpowered.
    ``weight(k, m)`` gives positive weights for every pair, never decreasing
    as ``[k, m]`` widens; ``k`` and ``m`` are broadcastable index arrays or,
    in the one-gap passes, the slices ``[0, N - gap)`` and ``[gap, N)``.
    Only pairs with ``m - k <= cap`` count.
    Returns ``(ratio, k, m)``.  Among equal ratios the smallest gap ``m - k``
    wins, then the larger increment, then the smallest ``k``.

    Gaps under the block size ``b = _fit_block(N)`` are scanned one
    vectorized pass per gap.  The index range is cut into ``b``-sample
    blocks; a pair in blocks ``I < J`` has an increment of at most
    ``max(bmax_J - bmin_I, bmax_I - bmin_J)`` and a weight of at least the
    one at the smallest gap.  Block pairs within the cap are evaluated in
    full, largest such bound first, until a bound falls below the running
    best; a bound equal to it is still visited, so that ties are seen.
    Bounds are inflated by ``1 + 1e-12`` so that a last-ulp difference in
    ``pow`` cannot prune the pair holding the maximum (a subnormal bound
    stays tied, hence the tie visit), and they are kept only at or above an
    attained lower bound (the increment over the widest gap within the cap),
    which holds memory near linear in the block count.  The search starts
    from ``(0, 1)`` at ratio 0, the first pair under the tie rule, so a zero
    maximum is reported there.  Every ratio is formed by the same
    elementwise operations and ``max`` is exact, so the result is bitwise
    that of an all-pairs scan, whatever the block size.

    Block rule ``b = min(64, max(1, isqrt(N) // 2))``: the one-gap passes
    cost ``b`` sweeps and the bounds ``(N / b)^2`` block pairs.  Against a
    fixed 64 it cuts the condition-2.1 scan by about a quarter.  The cap holds
    the geometric control fits at 64: at 32,769 and 65,537 points blocks of
    90 and 128 were slower.
    """
    v = np.ascontiguousarray(v)
    n = v.shape[1]
    block = _fit_block(n)
    cap = n - 1 if cap is None else min(int(cap), n - 1)
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

    for gap in range(1, min(block, cap + 1)):
        num = np.max(np.abs(v[:, gap:] - v[:, :-gap]), axis=0)
        if p is not None:
            num = num**p
        ratio = num / weight(slice(0, n - gap), slice(gap, n))
        offer(num, ratio, gap, lambda a, gap=gap: (a, a + gap))
    starts = np.arange(0, n, block)
    ends = np.minimum(starts + block, n) - 1
    bmin, bmax = np.minimum.reduceat(v, starts, axis=1), np.maximum.reduceat(v, starts, axis=1)
    nb = starts.size
    step = max(1, _FIT_PAIRS // nb)
    floor, kept = best[0], []
    blocks = np.arange(nb)
    for i0 in range(0, nb - 1, step):
        rows = blocks[i0 : min(i0 + step, nb - 1), None]
        ii, jj = np.nonzero((rows < blocks) & (starts - ends[rows] <= cap))
        ii += i0
        reach = np.max(np.maximum(bmax[:, jj] - bmin[:, ii], bmax[:, ii] - bmin[:, jj]), axis=0)
        if p is not None:
            reach **= p
        lower = reach / weight(starts[ii], ends[jj])
        if cap < n - 1:
            lower = lower[ends[jj] - starts[ii] <= cap]
        floor = max(floor, float(lower.max(initial=-math.inf)))
        upper = reach / weight(ends[ii], starts[jj]) * (1 + 1e-12)
        keep = (upper >= floor) & (upper > 0)  # zero ratios never beat the start (0, 1)
        kept.append((upper[keep], ii[keep], jj[keep]))
    if kept:
        upper, rows, cols = (np.concatenate(a) for a in zip(*kept))
        for q in np.argsort(-upper, kind="stable"):
            if upper[q] < best[0]:
                break
            i = slice(starts[rows[q]], ends[rows[q]] + 1)
            j = slice(starts[cols[q]], ends[cols[q]] + 1)
            k, m = np.arange(i.start, i.stop)[:, None], np.arange(j.start, j.stop)
            num = np.abs(v[:, None, j] - v[:, i, None]).max(axis=0)
            if p is not None:
                num = num**p
            ratio = num / weight(k, m)
            if j.stop - i.start > cap + 1:  # the block pair straddles the cap
                ratio[m - k > cap] = -np.inf
            shortest = j.start - i.stop + 1
            offer(num, ratio, shortest, lambda a, b, i=i, j=j: (a + i.start, b + j.start))
    k = -best[3]
    return best[0], k, k - best[1]


def control_fit(path: DriverPath, p: float) -> ControlModulus:
    """Fit the smallest linear control dominating a path's p-variation on-grid.

    The constant is ``c = max over all grid pairs (s, t)`` of
    ``max_i |x_i(t) - x_i(s)|^p / (t - s)`` (componentwise sup norm), exact
    for the sampled grid: :func:`_pair_max` returns bitwise the value of an
    all-pairs scan.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    t = path.times
    c, _, _ = _pair_max(path.values.T, p, lambda k, m: t[m] - t[k])
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
    Chen identity; :meth:`pairs` implements the fold through a cached prefix
    table so a query costs O(d^2) instead of O(span), and :meth:`pair` is its
    one-row case.  Adjacent pairs return the stored block itself (bitwise),
    which downstream defect reports rely on.

    ``kind`` tags the construction ("ito", "stratonovich", "degenerate",
    "analytic", "perturbed") and is carried through serialization untouched.
    """

    KINDS = ("ito", "stratonovich", "degenerate", "analytic", "perturbed")

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
        # Prefix fold P[k + 1] = (P[k] + A_k) + (x_k - x_0) (x) (x_{k+1} - x_k), as
        # one cumulative sum over the interleaved terms A_0, outer_0, A_1, ...,
        # laid out (d, d, 2k) so that the sum runs along the contiguous axis.
        x = path.values
        terms = np.empty((d, d, 2 * path.n_intervals))
        terms[:, :, 0::2] = per_interval.transpose(1, 2, 0)
        np.multiply((x[:-1] - x[0]).T[:, None], np.diff(x, axis=0).T[None], out=terms[:, :, 1::2])
        np.cumsum(terms, axis=-1, out=terms)
        self._prefix = np.zeros((path.n_intervals + 1, d, d))
        self._prefix[1:] = terms[:, :, 1::2].transpose(2, 0, 1)

    @property
    def d(self) -> int:
        return self.path.d

    @property
    def n_intervals(self) -> int:
        return self.per_interval.shape[0]

    def pair(self, i: int, j: int) -> np.ndarray:
        """Area over grid pair ``(times[i], times[j])``, ``i <= j``."""
        return self.pairs([i], [j])[0]

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
        n: state dimension.
        d: driver dimension.
        func: maps a state ``(n,)`` to coefficients ``(n, d)``.
        deriv1: optional; maps a state to ``(n, n, d)`` with layout
            ``D1[h, i, j] = d f[i, j] / d y[h]``.
        deriv2: optional; maps a state to ``(n, n, n, d)`` with layout
            ``D2[q, h, i, j]``.
        batched: the three callables also map a batch of states ``(..., n)``
            to ``(..., n, d)``, ``(..., n, n, d)`` and ``(..., n, n, n, d)``,
            each row bitwise its single-state value.  Otherwise a batch is
            evaluated one row at a time.

    Any of the three may instead be a constant array of its shape: refused
    (``ValueError``) unless finite, made read-only and broadcast over a batch.

    :meth:`eval`, :meth:`deriv1` and :meth:`deriv2` take a state or a batch
    of states either way.  Missing derivatives raise on access; schemes that
    need them say so in the error.  No approximation is ever silently
    substituted.
    """

    def __init__(
        self,
        n: int,
        d: int,
        func: Callable[[np.ndarray], np.ndarray] | np.ndarray,
        deriv1: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None,
        deriv2: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None,
        batched: bool = False,
    ):
        self.n = int(n)
        self.d = int(d)
        self._func = _checked(func, (self.n, self.d), "field")
        self._deriv1 = _checked(deriv1, (self.n, self.n, self.d), "deriv1")
        self._deriv2 = _checked(deriv2, (self.n, self.n, self.n, self.d), "deriv2")
        self.batched = bool(batched)

    def _apply(self, fn, y, tail: tuple, what: str) -> np.ndarray:
        """``fn`` at a state or a batch of states: a callable row by row unless batched."""
        if type(y) is not np.ndarray or y.dtype is not _FLOAT:
            y = np.asarray(y, dtype=float)
        if type(fn) is np.ndarray:
            return fn if y.ndim <= 1 else np.broadcast_to(fn, y.shape[:-1] + fn.shape)
        expected = y.shape[:-1] + tail
        if not self.batched and y.ndim > 1:
            rows = y.reshape(-1, y.shape[-1])
            return np.array([self._apply(fn, row, tail, what) for row in rows]).reshape(expected)
        out = fn(y)
        if type(out) is not np.ndarray or out.dtype is not _FLOAT:
            out = np.asarray(out, dtype=float)
        if out.shape != expected:
            raise ValueError(f"{what} returned shape {out.shape}, expected {expected}")
        return out

    def eval(self, y) -> np.ndarray:
        return self._apply(self._func, y, (self.n, self.d), "field")

    @property
    def has_deriv1(self) -> bool:
        return self._deriv1 is not None

    @property
    def has_deriv2(self) -> bool:
        return self._deriv2 is not None

    def deriv1(self, y) -> np.ndarray:
        if self._deriv1 is None:
            raise NotImplementedError("this field has no first derivative attached")
        return self._apply(self._deriv1, y, (self.n, self.n, self.d), "deriv1")

    def deriv2(self, y) -> np.ndarray:
        if self._deriv2 is None:
            raise NotImplementedError("this field has no second derivative attached")
        return self._apply(self._deriv2, y, (self.n, self.n, self.n, self.d), "deriv2")

    @classmethod
    def constant(cls, matrix) -> "VectorField":
        """Field with state-independent coefficients (derivatives vanish)."""
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("constant field needs an (n, d) matrix")
        n, d = matrix.shape
        return cls(n, d, matrix, deriv1=np.zeros((n, n, d)),
                   deriv2=np.broadcast_to(0.0, (n, n, n, d)), batched=True)

    @classmethod
    def scalar_linear(cls) -> "VectorField":
        """The 1-by-1 multiplicative field f(y) = y (geometric testbed)."""
        return cls(1, 1, lambda y: y[..., None].copy(), deriv1=np.ones((1, 1, 1)),
                   deriv2=np.zeros((1, 1, 1, 1)), batched=True)

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

        return cls(n, n, func, deriv1=d1, deriv2=np.broadcast_to(0.0, (n, n, n, n)),
                   batched=True)


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

        Rows go out ``_CSV_ROWS`` at a time as plain floats from ``tolist``,
        so no whole-file string is ever held.
        """
        table = np.column_stack((self.times, self.states))
        with open(filename, "w", newline="") as fh:
            fh.write(",".join(["t"] + [f"y_{i + 1}" for i in range(self.n)]) + "\r\n")
            for start in range(0, len(table), _CSV_ROWS):
                rows = table[start : start + _CSV_ROWS].tolist()
                fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


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


# Radii on which GrowthEnvelope.validate checks the pairing inequality, and
# the relative slack it allows for roundoff.
_ENVELOPE_RADII = np.geomspace(1.0, 1e6, 61)
_ENVELOPE_RADII.flags.writeable = False
_ENVELOPE_SLACK = 1e-9


@dataclass
class GrowthEnvelope:
    """Radial growth data for explosion analysis.

    ``growth(R)`` bounds the field magnitude on the ball of radius ``R`` and
    ``area_growth(R)`` bounds the admissible area inhomogeneity there;
    ``beta`` is the smoothness exponent the bounds are paired with (one less
    than the field's grade).  Both callables must be positive and vectorized
    over numpy arrays.
    """

    growth: Callable[[np.ndarray], np.ndarray]
    area_growth: Callable[[np.ndarray], np.ndarray]
    beta: float

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")

    def validate(self) -> None:
        """Check D(R) <= R^beta * A(R) on a sample of radii.

        The pairing inequality is what downstream criteria assume; violating
        it silently would make their verdicts meaningless, hence the explicit
        gate.
        """
        radii = _ENVELOPE_RADII
        dvals = np.asarray(self.growth(radii), dtype=float)
        avals = np.asarray(self.area_growth(radii), dtype=float)
        if np.any(dvals <= 0) or np.any(avals <= 0):
            raise ValueError("growth envelopes must be strictly positive")
        bad = dvals > radii**self.beta * avals * (1 + _ENVELOPE_SLACK)
        if np.any(bad):
            r_bad = radii[bad][0]
            raise ValueError(
                f"envelope pairing D(R) <= R^beta A(R) fails at R={r_bad:.4g}"
            )
