"""Grid-level primitives for integrating controlled systems against rough drivers.

The pieces here are small and composable:

* :class:`Partition` and :class:`DriverPath` describe when and where a driving
  signal is sampled.  Off-grid values of a ``DriverPath`` are piecewise linear;
  that is part of its contract, not an implementation detail.
* :class:`ControlModulus` is a superadditive bound ``omega(s, t)`` on increment
  sizes; :func:`control_fit` produces the smallest linear one valid on a grid.
* :class:`AreaProcess` stores second-order increments (Levy-area style) per
  fine-grid interval and reconstructs the area of any coarser pair through the
  Chen identity, so every consumer sees one consistent algebra.
* :class:`VectorField` bundles a coefficient field with its first two
  derivative tensors.  :class:`Trajectory`, :class:`DefectReport` and
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

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "Partition",
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
class Partition:
    """A strictly increasing grid of times.

    Solvers step cell by cell; analysis code mostly queries :meth:`mesh` and
    the cell widths.  Partitions are value objects and never mutated.
    """

    times: np.ndarray

    def __post_init__(self):
        times = _float_array(self.times, "times", 1)
        if times.size < 2:
            raise ValueError("a partition needs at least two points")
        if not np.all(np.diff(times) > 0):
            raise ValueError("partition times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t0: float, t1: float, n_cells: int) -> "Partition":
        if n_cells < 1:
            raise ValueError("n_cells must be positive")
        return cls(np.linspace(float(t0), float(t1), n_cells + 1))

    @property
    def n_cells(self) -> int:
        return self.times.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.times)

    def mesh(self) -> float:
        """Largest cell width."""
        return float(np.max(self.widths))


@dataclass(frozen=True)
class DriverPath:
    """A sampled driving signal ``x: [t_0, t_K] -> R^d``.

    ``values[k]`` is the signal at ``times[k]``.  Between grid points the path
    is piecewise linear: :meth:`eval` interpolates, and any code that needs
    off-grid values must go through it so the contract stays in one place.

    ``holder_alpha`` and ``p`` are declared regularity parameters carried along
    for fitting and reporting; they are not enforced here.
    """

    times: np.ndarray
    values: np.ndarray
    holder_alpha: float | None = None
    p: float | None = None

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
        """Piecewise-linear value(s) at time(s) ``t``.

        Scalar ``t`` gives shape ``(d,)``; an array of shape ``(m,)`` gives
        ``(m, d)``.  Queries outside the grid clamp to the endpoint values.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t_arr.size, self.d))
        for j in range(self.d):
            out[:, j] = np.interp(t_arr, self.times, self.values[:, j])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def subsample(self, stride: int) -> "DriverPath":
        """Keep every ``stride``-th sample (endpoints always included)."""
        if stride < 1:
            raise ValueError("stride must be a positive integer")
        if self.n_intervals % stride:
            raise ValueError(
                f"stride {stride} does not divide {self.n_intervals} intervals"
            )
        return DriverPath(
            self.times[::stride],
            self.values[::stride],
            holder_alpha=self.holder_alpha,
            p=self.p,
        )


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


_FIT_BLOCK = 64  # samples per block in control_fit's branch-and-bound
_FIT_PAIRS = 2**14  # block pairs bounded per vectorized chunk


def control_fit(path: DriverPath, p: float) -> ControlModulus:
    """Fit the smallest linear control dominating a path's p-variation on-grid.

    The constant is ``c = max over all grid pairs (s, t)`` of
    ``max_i |x_i(t) - x_i(s)|^p / (t - s)`` (componentwise sup norm), exact
    for the sampled grid.  Pairs under 64 samples apart, so all pairs inside
    a 64-sample block, are scanned one vectorized pass per lag.  A pair in
    blocks ``I < J`` has ``|dx_i| <= max(max_J - min_I, max_I - min_J)`` and a
    gap of at least ``t[first_J] - t[last_I]``.  Block pairs are evaluated in
    full, largest such bound first (kept only above an attained lower bound,
    to hold memory near linear in the block count), until the bound no longer
    exceeds the running ``c``.  Bounds are inflated by ``1 + 1e-12`` so that
    neither a tie with the lower bound nor a last-ulp difference in ``pow``
    prunes the block pair holding the maximum.  Every ratio is formed by the
    same elementwise operations (``max |dx|``, ``**p``, ``/ gap``) and ``max``
    is exact, so ``c`` is bitwise the value of an all-pairs scan.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    t = path.times
    v = np.ascontiguousarray(path.values.T)  # (d, N): sup norms reduce axis 0
    c = 0.0
    for lag in range(1, min(_FIT_BLOCK, t.size)):
        inc = np.max(np.abs(v[:, lag:] - v[:, :-lag]), axis=0)
        c = max(c, float(np.max(inc**p / (t[lag:] - t[:-lag]))))
    starts = np.arange(0, t.size, _FIT_BLOCK)
    ends = np.minimum(starts + _FIT_BLOCK, t.size) - 1
    bmin, bmax = np.minimum.reduceat(v, starts, axis=1), np.maximum.reduceat(v, starts, axis=1)
    n = starts.size
    step = max(1, _FIT_PAIRS // n)
    floor, kept = c, []
    for i0 in range(0, n - 1, step):
        ii, jj = np.nonzero(np.arange(i0, min(i0 + step, n - 1))[:, None] < np.arange(n))
        ii += i0
        reach = np.max(np.maximum(bmax[:, jj] - bmin[:, ii], bmax[:, ii] - bmin[:, jj]), axis=0)
        reach **= p
        floor = max(floor, float(np.max(reach / (t[ends[jj]] - t[starts[ii]]))))
        upper = reach / (t[starts[jj]] - t[ends[ii]]) * (1 + 1e-12)
        keep = upper > floor
        kept.append((upper[keep], ii[keep], jj[keep]))
    if kept:
        upper, rows, cols = (np.concatenate(a) for a in zip(*kept))
        for m in np.argsort(-upper, kind="stable"):
            if upper[m] <= c:
                break
            i = slice(starts[rows[m]], ends[rows[m]] + 1)
            j = slice(starts[cols[m]], ends[cols[m]] + 1)
            inc = np.max(np.abs(v[:, None, j] - v[:, i, None]), axis=0)
            c = max(c, float(np.max(inc**p / (t[None, j] - t[i, None]))))
    return ControlModulus(c=c, p=float(p))


def chen_combine(
    area_left: np.ndarray,
    area_right: np.ndarray,
    inc_left: np.ndarray,
    inc_right: np.ndarray,
) -> np.ndarray:
    """Combine areas over [s, u] and [u, t] into the area over [s, t].

    The cross term is the outer product of the first increment with the
    second: ``A(s,t) = A(s,u) + A(u,t) + inc(s,u) ⊗ inc(u,t)``.
    """
    area_left = np.asarray(area_left, dtype=float)
    area_right = np.asarray(area_right, dtype=float)
    if area_left.shape != area_right.shape:
        raise ValueError(
            f"area blocks must share a shape, got {area_left.shape} vs {area_right.shape}"
        )
    return area_left + area_right + np.outer(inc_left, inc_right)


class AreaProcess:
    """Second-order increments of a driver, stored once on the fine grid.

    ``per_interval[k]`` is the d x d area over ``(times[k], times[k+1])``.
    Areas over coarser pairs are *defined* by folding those blocks with the
    Chen identity; :meth:`pair` implements the fold through a cached prefix
    table so a query costs O(d^2) instead of O(span).  Adjacent pairs return
    the stored block itself (bitwise), which downstream defect reports rely
    on.

    ``kind`` tags the construction ("ito", "stratonovich", "degenerate",
    "analytic", "perturbed") and is carried through serialization untouched.
    """

    KINDS = ("ito", "stratonovich", "degenerate", "analytic", "perturbed")

    def __init__(
        self,
        path: DriverPath,
        per_interval: np.ndarray,
        kind: str,
        seed: int | None = None,
        substeps: int | None = None,
    ):
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
        self.seed = seed
        self.substeps = substeps
        # Prefix fold P[k] = area over (t_0, t_k), built left to right.
        prefix = np.empty((path.n_intervals + 1, d, d))
        prefix[0] = 0.0
        x = path.values
        for k in range(path.n_intervals):
            prefix[k + 1] = (
                prefix[k]
                + per_interval[k]
                + np.outer(x[k] - x[0], x[k + 1] - x[k])
            )
        self._prefix = prefix

    @property
    def d(self) -> int:
        return self.path.d

    @property
    def n_intervals(self) -> int:
        return self.per_interval.shape[0]

    def pair(self, i: int, j: int) -> np.ndarray:
        """Area over grid pair ``(times[i], times[j])``, ``i <= j``."""
        if not 0 <= i <= j <= self.n_intervals:
            raise IndexError(f"pair ({i}, {j}) outside grid with {self.n_intervals} intervals")
        if i == j:
            return np.zeros((self.d, self.d))
        if j == i + 1:
            return self.per_interval[i].copy()
        x = self.path.values
        return (
            self._prefix[j]
            - self._prefix[i]
            - np.outer(x[i] - x[0], x[j] - x[i])
        )

    def with_intervals(self, per_interval: np.ndarray, kind: str) -> "AreaProcess":
        """Same path and metadata, different per-interval blocks."""
        return AreaProcess(self.path, per_interval, kind, seed=self.seed, substeps=self.substeps)


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
        smoothness: declared Holder/Lipschitz grade of the field, carried
            along for defect exponent defaults (not enforced).

    Missing derivatives raise on access; schemes that need them say so in the
    error.  No approximation is ever silently substituted.
    """

    def __init__(
        self,
        n: int,
        d: int,
        func: Callable[[np.ndarray], np.ndarray],
        deriv1: Callable[[np.ndarray], np.ndarray] | None = None,
        deriv2: Callable[[np.ndarray], np.ndarray] | None = None,
        smoothness: float | None = None,
    ):
        self.n = int(n)
        self.d = int(d)
        self._func = func
        self._deriv1 = deriv1
        self._deriv2 = deriv2
        self.smoothness = smoothness

    def __call__(self, y) -> np.ndarray:
        return self.eval(y)

    def eval(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.asarray(self._func(y), dtype=float)
        if out.shape != (self.n, self.d):
            raise ValueError(
                f"field returned shape {out.shape}, expected {(self.n, self.d)}"
            )
        return out

    @property
    def has_deriv1(self) -> bool:
        return self._deriv1 is not None

    @property
    def has_deriv2(self) -> bool:
        return self._deriv2 is not None

    def deriv1(self, y) -> np.ndarray:
        if self._deriv1 is None:
            raise NotImplementedError("this field has no first derivative attached")
        out = np.asarray(self._deriv1(np.asarray(y, dtype=float)), dtype=float)
        expected = (self.n, self.n, self.d)
        if out.shape != expected:
            raise ValueError(f"deriv1 returned shape {out.shape}, expected {expected}")
        return out

    def deriv2(self, y) -> np.ndarray:
        if self._deriv2 is None:
            raise NotImplementedError("this field has no second derivative attached")
        out = np.asarray(self._deriv2(np.asarray(y, dtype=float)), dtype=float)
        expected = (self.n, self.n, self.n, self.d)
        if out.shape != expected:
            raise ValueError(f"deriv2 returned shape {out.shape}, expected {expected}")
        return out

    def correction_tensor(self, y) -> np.ndarray:
        """Second-order coefficient ``G[i, r, j] = sum_h f[h, r] * D1[h, i, j]``.

        This is the tensor contracted against the area block in the corrected
        scheme step.
        """
        f = self.eval(y)
        d1 = self.deriv1(y)
        return np.einsum("hr,hij->irj", f, d1)

    @classmethod
    def constant(cls, matrix) -> "VectorField":
        """Field with state-independent coefficients (derivatives vanish)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("constant field needs an (n, d) matrix")
        n, d = matrix.shape
        zero1 = np.zeros((n, n, d))
        zero2 = np.zeros((n, n, n, d))
        return cls(
            n,
            d,
            lambda y: matrix,
            deriv1=lambda y: zero1,
            deriv2=lambda y: zero2,
            smoothness=math.inf,
        )

    @classmethod
    def scalar_linear(cls) -> "VectorField":
        """The 1-by-1 multiplicative field f(y) = y (geometric testbed)."""
        return cls(
            1,
            1,
            lambda y: y.reshape(1, 1).copy(),
            deriv1=lambda y: np.ones((1, 1, 1)),
            deriv2=lambda y: np.zeros((1, 1, 1, 1)),
            smoothness=math.inf,
        )

    @classmethod
    def diagonal_linear(cls, n: int) -> "VectorField":
        """f[i, j] = delta_ij * y[i]: independent multiplicative components."""

        def func(y):
            return np.diag(y)

        def deriv1(y):
            out = np.zeros((n, n, n))
            for i in range(n):
                out[i, i, i] = 1.0
            return out

        return cls(
            n,
            n,
            func,
            deriv1=deriv1,
            deriv2=lambda y: np.zeros((n, n, n, n)),
            smoothness=math.inf,
        )


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
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.shape[0] != self.times.size:
            raise ValueError("times and states disagree in length")
        self.states = states

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
        """Write ``t, y_1, ..., y_n`` rows; floats via repr for reproducibility."""
        with open(filename, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"y_{i + 1}" for i in range(self.n)])
            for t, row in zip(self.times, self.states):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


@dataclass
class DefectReport:
    """Two-point defect magnitudes of a trajectory against a control bound.

    ``ratios[m] = magnitudes[m] / omega(s_m, t_m)^(gamma/p)`` and
    ``fitted_constant`` is their max, i.e. the smallest constant making the
    bound ``|defect| <= M * omega^(gamma/p)`` hold on every requested pair.
    ``pair_policy`` records which pairs were scanned ("adjacent", "window",
    "custom") since the fitted constant is only meaningful relative to it.
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

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "gamma": self.gamma,
            "p": self.p,
            "control_c": self.control.c,
            "pair_policy": self.pair_policy,
            "n_pairs": int(self.pairs.shape[0]),
            "fitted_constant": self.fitted_constant,
            "max_magnitude": float(np.max(self.magnitudes)) if self.magnitudes.size else 0.0,
        }


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

    def validate(self, radii=None, slack: float = 1e-9) -> None:
        """Check D(R) <= R^beta * A(R) on a sample of radii.

        The pairing inequality is what downstream criteria assume; violating
        it silently would make their verdicts meaningless, hence the explicit
        gate.
        """
        if radii is None:
            radii = np.geomspace(1.0, 1e6, 61)
        radii = np.asarray(radii, dtype=float)
        dvals = np.asarray(self.growth(radii), dtype=float)
        avals = np.asarray(self.area_growth(radii), dtype=float)
        if np.any(dvals <= 0) or np.any(avals <= 0):
            raise ValueError("growth envelopes must be strictly positive")
        bad = dvals > radii**self.beta * avals * (1 + slack)
        if np.any(bad):
            r_bad = radii[bad][0]
            raise ValueError(
                f"envelope pairing D(R) <= R^beta A(R) fails at R={r_bad:.4g}"
            )
