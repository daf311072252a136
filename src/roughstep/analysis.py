"""Estimators and verifiers built on the solvers and drivers.

Everything here reduces a run to a small report object with a ``to_dict``
method: convergence-order regressions, the windowed area-cancellation
statistic, Riemann-sum recovery of stored areas, the integral explosion
criterion, the two-solution demonstration, and a Hölder exponent fit.
Reports carry the knobs they were produced with, so a serialized report is
interpretable without the code that made it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AreaProcess,
    DriverPath,
    GrowthEnvelope,
    NumericsError,
    Trajectory,
    VectorField,
    _pair_max,
    _size,
    chen_combine,
    control_fit,
)
from .drivers import CounterexampleConfig, _power_integral, example1_driver, example1_solution_pair
from .schemes import _SCHEMES, DefectReport, _solve, corrected_solve, defect

__all__ = [
    "RateReport",
    "convergence_study",
    "gbm_terminal_ito",
    "gbm_terminal_stratonovich",
    "ConditionStat",
    "condition21_stat",
    "CriterionReport",
    "explosion_criterion",
    "NonuniquenessReport",
    "nonuniqueness_demo",
    "holder_estimate",
    "chen_residuals",
]


# ---------------------------------------------------------------------------
# convergence-order regression


@dataclass
class RateReport:
    """Mesh-refinement errors and their fitted log-log slope.

    ``k_values`` and ``errors`` keep only the meshes with a strictly positive
    error; ``n_zero`` counts the excluded exact ones.  When every mesh is
    exact the report is flagged and the slope is NaN.  The two coarsest
    meshes are dropped from the fit by default as pre-asymptotic, recorded in
    ``n_dropped``.
    """

    k_values: np.ndarray
    errors: np.ndarray
    slope: float
    intercept: float
    oracle: str
    scheme: str
    exact: bool
    n_dropped: int
    n_zero: int

    def to_dict(self) -> dict:
        return {
            "k_values": [int(k) for k in self.k_values],
            "errors": [float(e) for e in self.errors],
            "slope": None if math.isnan(self.slope) else float(self.slope),
            "intercept": None if math.isnan(self.intercept) else float(self.intercept),
            "oracle": self.oracle,
            "scheme": self.scheme,
            "exact": self.exact,
            "n_dropped": self.n_dropped,
            "n_zero": self.n_zero,
        }


def _gbm_terminal(path: DriverPath, y0, drift: float) -> np.ndarray:
    """``y0 exp(dw - drift * span)``, the terminal value of dY = Y dX for a scalar driver."""
    if path.d != 1:
        raise ValueError("closed-form oracle is one-dimensional")
    dw = float(path.values[-1, 0] - path.values[0, 0])
    span = float(path.times[-1] - path.times[0])
    y0 = float(np.asarray(y0).reshape(-1)[0])
    return np.array([y0 * math.exp(dw - drift * span)])


def gbm_terminal_ito(path: DriverPath, y0) -> np.ndarray:
    """Terminal value of dY = Y dX in the Ito sense for a scalar driver."""
    return _gbm_terminal(path, y0, 0.5)


def gbm_terminal_stratonovich(path: DriverPath, y0) -> np.ndarray:
    """Terminal value of dY = Y dX in the Stratonovich sense."""
    return _gbm_terminal(path, y0, 0.0)


def convergence_study(
    field: VectorField,
    path: DriverPath,
    y0,
    k_values: Sequence[int],
    scheme: str = "euler",
    area: AreaProcess | None = None,
    reference: Callable | np.ndarray | None = None,
    drop_coarsest: int = 2,
    explosion_threshold: float = 1e6,
) -> RateReport:
    """Run one scheme over nested uniform partitions and regress the error.

    All meshes subsample the same driver realization, so the study measures
    discretization error alone, and they are stepped in one lockstep walk
    (see :func:`roughstep.schemes._run_scheme`), each bitwise its own solve.
    ``k_values`` are distinct integer mesh sizes; a float is refused
    (``TypeError``), a repeated size (``ValueError``).
    ``reference`` is either a callable ``(path, y0) -> terminal state``
    (closed-form oracle), a terminal state array, each of the field's state
    dimension, or ``None``, in which case the corrected scheme on the full
    grid stands in; that fallback requires the grid to be at least 16x finer
    than the finest requested mesh, and an area process.  A corrected study
    walks it as one more member; an Euler study solves it first.

    ``scheme`` is ``"euler"`` or ``"corrected"``; ``explosion_threshold``
    bounds every solve, and a mesh or fine-grid reference that crosses it
    raises :class:`NumericsError` naming the mesh and its own crossing index,
    since a stopped solve has no terminal state to compare.  The walk stops
    after the first round in which a member crosses, so the member named is
    the first, in the order fine-grid reference then ascending mesh size, of
    those crossing in that earliest round: a larger mesh crossing in an
    earlier round is named ahead of a smaller one that would cross later.
    The fit leaves out the ``drop_coarsest`` (at least 0) coarsest meshes, as
    long as two remain.
    Errors are Euclidean distances between terminal states.  Zero errors are
    excluded from the regression; if every mesh is exact the report says so
    instead of fitting a slope.
    """
    ks = sorted(_size(k, "mesh size") for k in k_values)
    if len(ks) < 2:
        raise ValueError("need at least two mesh sizes")
    if ks[0] < 1:
        raise ValueError(f"mesh sizes must be at least 1, got {ks[0]}")
    for k, k_next in zip(ks, ks[1:]):
        if k == k_next:
            raise ValueError(f"mesh size {k} is given more than once")
    if any(path.n_intervals % k for k in ks):
        raise ValueError("every mesh size must divide the driver grid")
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme tag {scheme!r}")
    drop_coarsest = _size(drop_coarsest, "drop_coarsest")
    if drop_coarsest < 0:
        raise ValueError(f"drop_coarsest must be at least 0, got {drop_coarsest}")
    if scheme == "corrected" and area is None:
        raise ValueError("corrected scheme needs an area process")

    parts = [np.arange(0, path.n_intervals + 1, path.n_intervals // k) for k in ks]
    names = [f"mesh k={k}" for k in ks]
    ref = None
    if callable(reference):
        ref = np.asarray(reference(path, y0), dtype=float).reshape(-1)
        oracle = getattr(reference, "__name__", "callable oracle")
    elif reference is None:
        if area is None:
            raise ValueError("fine-mesh fallback reference needs an area process")
        if path.n_intervals < 16 * ks[-1]:
            raise ValueError(
                "fine-mesh reference wants the grid 16x finer than the finest mesh"
            )
        oracle = "corrected scheme on the full grid"
        if scheme == "corrected":
            parts.insert(0, None)
            names.insert(0, "the fine-grid reference")
        else:
            fine = corrected_solve(field, path, area, y0, explosion_threshold=explosion_threshold)
            if fine.exploded:
                raise NumericsError("the fine-grid reference crossed the explosion threshold "
                                    f"at index {fine.exploded_at}")
            ref = fine.final
    else:
        ref = np.asarray(reference, dtype=float).reshape(-1)
        oracle = "fixed terminal state"
    if ref is not None and ref.size != field.n:
        raise ValueError(f"reference has {ref.size} components, the field's state has {field.n}")

    trajs = _solve(field, path, area if scheme == "corrected" else None, y0, parts,
                   explosion_threshold)
    for name, traj in zip(names, trajs):
        if traj.exploded:
            raise NumericsError(f"{name} crossed the explosion threshold "
                                f"at index {traj.exploded_at}")
    if ref is None:
        ref = trajs.pop(0).final
    errors = np.array([float(np.linalg.norm(traj.final - ref)) for traj in trajs])

    keep = errors > 0.0
    n_zero = int(np.count_nonzero(~keep))
    ks_kept = np.asarray(ks)[keep]
    errs_kept = errors[keep]
    n_drop = min(drop_coarsest, max(0, ks_kept.size - 2))
    fit_k = ks_kept[n_drop:]
    fit_e = errs_kept[n_drop:]
    if fit_k.size >= 2:
        slope, intercept = np.polyfit(np.log2(fit_k), np.log2(fit_e), 1)
    else:
        slope, intercept = math.nan, math.nan
    return RateReport(
        k_values=ks_kept,
        errors=errs_kept,
        slope=float(slope),
        intercept=float(intercept),
        oracle=oracle,
        scheme=scheme,
        exact=ks_kept.size == 0,
        n_dropped=n_drop,
        n_zero=n_zero,
    )


# ---------------------------------------------------------------------------
# windowed area-cancellation statistic


@dataclass
class ConditionStat:
    """Max of |sum of consecutive small-interval areas| over a normalizer.

    The normalizer is ``(m - k)^beta * h^(2 alpha)`` for a window of
    ``m - k`` blocks of width ``h``.  ``argmax`` is the winning
    ``(k, m, h)``: the ratio of that one window, folded and summed at width
    ``h``, is ``value`` bit for bit.  ``per_level`` lists the max ratio at
    each dyadic level separately, coarse to fine.
    """

    alpha: float
    beta: float
    value: float
    argmax: tuple[int, int, float]
    levels: list[int]
    per_level: list[float]
    window_cap: int

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "value": self.value,
            "argmax": {
                "k": self.argmax[0],
                "m": self.argmax[1],
                "h": self.argmax[2],
            },
            "levels": list(self.levels),
            "per_level": [float(v) for v in self.per_level],
            "window_cap": self.window_cap,
        }


def _dyadic_depth(area: AreaProcess) -> int:
    n = area.n_intervals
    depth = n.bit_length() - 1
    if 2**depth != n:
        raise ValueError(f"area grid must have 2^L intervals, got {n}")
    times = area.path.times
    h = (times[-1] - times[0]) / n
    if np.max(np.abs(np.diff(times) - h)) > 1e-9 * h:
        raise ValueError("area grid must be uniform")
    return depth


def condition21_stat(
    area: AreaProcess,
    alpha: float,
    beta: float,
    levels: Sequence[int] = range(4, 13),
    window_cap: int = 2**12,
) -> ConditionStat:
    """Exact windowed-cancellation maximum over dyadic levels.

    At each level the blocks are the areas of the 2^j uniform cells, and the
    statistic is the largest ratio ``|P[m] - P[k]| / ((m - k)^beta h^(2 alpha))``
    over windows of at most ``window_cap`` blocks, with ``P`` the level's
    prefix sums and ``|.|`` the max-entry norm.  The search is the exact block
    branch-and-bound of :func:`roughstep.core._pair_max` at ``p = 1``, so
    every window is accounted for without scanning every window length, and
    each ratio is bitwise the float ``mag / (w**beta * h ** (2 * alpha))``.
    The cap is a weight of ``+inf`` for every longer window, which the
    search leaves uncounted.  Tie rule: among equal ratios the shortest
    window wins, then the larger magnitude, then the smallest ``k``; across
    levels the coarsest level wins.

    Summation contract: the blocks are folded once, from the finest grid to
    the coarsest requested level, each fold the pairwise
    :func:`~roughstep.core.chen_combine` of neighbours, and each requested
    level's prefix sums are taken on the way; these are the floats of
    folding the finest grid down to that level alone.  The weights
    ``w**beta`` are Python floats computed once up to the finest level, and
    each level multiplies them by its ``h ** (2 * alpha)``.
    """
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha and beta must lie in (0, 1)")
    window_cap = _size(window_cap, "window_cap")
    if window_cap < 1:
        raise ValueError(f"window_cap must be at least 1, got {window_cap}")
    levels = sorted(set(_size(j, "level") for j in levels))
    depth = _dyadic_depth(area)
    if levels and levels[-1] > depth:
        raise ValueError(f"level {levels[-1]} finer than the grid (depth {depth})")
    if not levels:
        raise ValueError("no levels requested")
    if levels[0] < 0:
        raise ValueError(f"level {levels[0]} outside [0, {depth}]")

    wb = np.array([w**beta for w in range(2 ** levels[-1] + 1)])
    blocks, incs, times = area.per_interval, area.path.increments, area.path.times
    best_value, best_arg, per_level = -math.inf, (0, 1, math.nan), []
    for j in range(depth, levels[0] - 1, -1):
        if j < depth:
            blocks = chen_combine(blocks[0::2], blocks[1::2], incs[0::2], incs[1::2])
            incs = incs[0::2] + incs[1::2]
        if j not in levels:
            continue
        n = blocks.shape[0]
        prefix = np.zeros((n + 1,) + blocks.shape[1:])
        np.cumsum(blocks, axis=0, out=prefix[1:])
        h = (times[-1] - times[0]) / 2**j
        table, pos = wb[: n + 1] * h ** (2 * alpha), np.arange(n + 1)
        table[window_cap + 1 :] = math.inf  # windows past the cap are not counted
        level_best, k, m = _pair_max(
            prefix.reshape(n + 1, -1).T, 1.0, lambda k, m: table[pos[m] - pos[k]]
        )
        per_level.insert(0, level_best)
        if level_best >= best_value:  # fine to coarse, so a tie goes to the coarser level
            best_value = level_best
            best_arg = (k, m, h)
    return ConditionStat(
        alpha=float(alpha),
        beta=float(beta),
        value=float(best_value),
        argmax=best_arg,
        levels=levels,
        per_level=per_level,
        window_cap=window_cap,
    )


# ---------------------------------------------------------------------------
# integral explosion criterion


@dataclass
class CriterionReport:
    """Dyadic partial integrals of the growth-envelope criterion.

    ``partials[j]`` is the closed-form integral of the envelope expression
    ``R^q`` over ``[2^j, 2^(j+1)]``.  The verdict comes from ``q``
    (:meth:`GrowthEnvelope.diverges`): at ``q >= -1`` the integral diverges,
    which rules explosion out; below it converges, leaving explosion possible.
    ``tail_slope = q + 1`` is the log2 ratio of consecutive partials.
    """

    verdict: str
    p: float
    gamma: float
    beta: float
    r_max: float
    partials: np.ndarray
    octaves: np.ndarray
    tail_slope: float
    total: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "p": self.p,
            "gamma": self.gamma,
            "beta": self.beta,
            "r_max": self.r_max,
            "octaves": [int(j) for j in self.octaves],
            "partials": [float(v) for v in self.partials],
            "tail_slope": self.tail_slope,
            "total": self.total,
        }


def explosion_criterion(
    env: GrowthEnvelope,
    p: float,
    gamma: float,
    r_max: float = 2.0**20,
) -> CriterionReport:
    """Classify the growth-envelope integral as convergent or not.

    The integrand is ``(A(R)^(1-p) D(R)^(p-1-beta*p))^(1/beta) = R^q`` with
    ``A(R) = R^env.area_exp`` and ``D(R) = R^env.growth_exp``.  The verdict is
    :meth:`GrowthEnvelope.diverges` on ``q``, the rule the blow-up driver
    refuses by; the string ``"diverges-trend"`` names divergence.  Octave
    ``j`` is ``2^(j(q+1)) integral_1^2 u^q du``, exactly ``ln 2`` per octave at
    ``q = -1``, and ``tail_slope`` is ``q + 1``.  Raises ValueError for
    exponents whose powers up to ``r_max`` overflow.
    """
    if not p >= 1:
        raise ValueError("p must be at least 1")
    if not p < gamma <= 1 + env.beta + 1e-12:
        raise ValueError(
            f"need p < gamma <= 1 + beta, got p={p}, gamma={gamma}, beta={env.beta}"
        )
    if not 1e3 <= r_max < math.inf:
        raise ValueError(f"r_max must be finite and at least 1e3, got {r_max}")
    env.check_powers(p, r_max)
    q = env.criterion_exponent(p)
    octaves = np.arange(int(math.floor(math.log2(r_max))))
    # integral over [2^j, 2^(j+1)] of R^q is 2^(j(q+1)) times the one over [1, 2]
    partials = 2.0 ** (octaves * (q + 1.0)) * _power_integral(math.log(2.0), q)
    verdict = "diverges-trend" if env.diverges(p) else "converges"
    return CriterionReport(
        verdict=verdict,
        p=float(p),
        gamma=float(gamma),
        beta=float(env.beta),
        r_max=float(r_max),
        partials=partials,
        octaves=octaves,
        tail_slope=q + 1.0,
        total=float(np.sum(partials)),
    )


# ---------------------------------------------------------------------------
# two-solution demonstration


@dataclass
class NonuniquenessReport:
    """Two distinct solutions of one system, with their defect certificates.

    ``separation`` is the terminal gap in the first component;
    ``defect_scale`` is ``max(M_a, M_b) * omega(0, T)^(gamma/p)``, the size
    below which two near-solutions could still be the same solution in
    disguise.  A large ``ratio`` of the two is the point of the exercise.
    """

    traj_a: Trajectory
    traj_b: Trajectory
    defect_a: DefectReport
    defect_b: DefectReport
    separation: float
    defect_scale: float
    ratio: float
    config: CounterexampleConfig

    def to_dict(self) -> dict:
        return {
            "separation": self.separation,
            "defect_scale": self.defect_scale,
            "ratio": self.ratio,
            "fitted_m_a": self.defect_a.fitted_constant,
            "fitted_m_b": self.defect_b.fitted_constant,
            "gamma": self.config.gamma,
            "p": self.config.p,
            "beta_exp": self.config.beta_exp,
            "rho_exp": self.config.rho_exp,
            "t_max": self.config.t_max,
            "grid": self.config.grid,
        }


def nonuniqueness_demo(cfg: CounterexampleConfig | None = None) -> NonuniquenessReport:
    """Build both solutions of the oscillatory system and certify the gap.

    The flat branch keeps its first component at zero; the grown branch
    accumulates a positive first component whose growth is checked pointwise
    against the floor ``3 t^beta`` before anything else runs, rejecting
    configurations where the demonstration would be vacuous.  Both branches
    get adjacent-pair defect reports against one shared control fit, and the
    terminal separation is compared with the defect scale.
    """
    cfg = cfg or CounterexampleConfig()
    path, field = example1_driver(cfg)
    traj_a, traj_b = example1_solution_pair(cfg, path)

    t = path.times[1:]
    floor = 3.0 * t**cfg.beta_exp
    grown = traj_b.states[1:, 0]
    low = grown < floor
    if np.any(low):
        t_bad = float(t[np.argmax(low)])
        raise ValueError(
            f"grown branch dips under 3 t^beta at t={t_bad:.6g}; "
            "this exponent configuration does not separate the solutions"
        )

    control = control_fit(path, cfg.p)
    defect_a = defect(
        traj_a, field, path, cfg.gamma, cfg.p, pairs="adjacent", control=control
    )
    defect_b = defect(
        traj_b, field, path, cfg.gamma, cfg.p, pairs="adjacent", control=control
    )
    separation = float(abs(traj_b.final[0] - traj_a.final[0]))
    m = max(defect_a.fitted_constant, defect_b.fitted_constant)
    scale = m * float(
        control.omega(path.times[0], path.times[-1]) ** (cfg.gamma / cfg.p)
    )
    ratio = separation / scale if scale > 0 else math.inf
    return NonuniquenessReport(
        traj_a=traj_a,
        traj_b=traj_b,
        defect_a=defect_a,
        defect_b=defect_b,
        separation=separation,
        defect_scale=scale,
        ratio=ratio,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# regularity fits and algebra checks


# Largest lag, in resampled steps, of the Hölder fit.
_HOLDER_MAX_LAG = 256


def holder_estimate(path: DriverPath, n_resample: int = 4096) -> float:
    """Fitted Hölder exponent from sup increments over dyadic lags.

    The path is resampled uniformly (piecewise linearly) on ``n_resample``
    intervals, at least 3 so that two lags fit, and the largest Euclidean
    increment at lags 1, 2, 4, ... is regressed against the lag on log axes.
    A constant path has no increments to fit and reports +inf, matching the
    convention that flat paths are infinitely regular.
    """
    if path.times.size < 64:
        raise ValueError("need at least 64 samples for a regularity fit")
    n_resample = _size(n_resample, "n_resample")
    if n_resample < 3:
        raise ValueError(f"need n_resample >= 3 for two lags to fit, got {n_resample}")
    t = np.linspace(path.times[0], path.times[-1], n_resample + 1)
    x = path.eval(t)
    dt = t[1] - t[0]
    lags, sups = [], []
    lag = 1
    while lag <= min(_HOLDER_MAX_LAG, n_resample - 1):
        sup = float(np.max(np.linalg.norm(x[lag:] - x[:-lag], axis=1)))
        if sup > 0.0:
            lags.append(lag * dt)
            sups.append(sup)
        lag *= 2
    if len(sups) < 2:
        return math.inf
    slope = np.polyfit(np.log(lags), np.log(sups), 1)[0]
    return float(slope)


def chen_residuals(
    area: AreaProcess, n_triples: int = 1000, seed: int = 0
) -> np.ndarray:
    """Consistency residuals of the two-parameter area on random triples.

    For grid indices i < j < k the block over (i, k) must equal the two
    sub-blocks combined with the increment cross term; the residual is the
    max-entry distance.  Anything persistently above roundoff means the
    process's algebra is broken.  1 to 2**20 triples are drawn.

    Stream contract: the sorted triples and the generator's final state are
    those of ``n_triples`` calls ``rng.choice(n + 1, 3, replace=False)``, with
    ``n = area.n_intervals``.  numpy draws one by Floyd's method, ``a <= n - 2``,
    ``b <= n - 1`` (``n - 1`` if it hits ``a``), ``c <= n`` (``n`` if it hits
    ``a`` or ``b``), then shuffle draws below 3 and 2: one ``integers`` call here.
    """
    n_triples = _size(n_triples, "n_triples")
    if area.n_intervals < 2:
        raise ValueError("need at least two intervals to form a triple")
    if n_triples < 1:
        raise ValueError(f"need at least one triple, got {n_triples}")
    if n_triples > 2**20:
        raise ValueError(f"at most 2**20 triples are drawn, got {n_triples}")
    rng = np.random.default_rng(seed)
    n = area.n_intervals
    a, b, c, _, _ = rng.integers(0, np.tile([n - 1, n, n + 1, 3, 2], n_triples)).reshape(-1, 5).T
    b = np.where(b == a, n - 1, b)
    c = np.where((c == a) | (c == b), n, c)
    i, j, k = np.sort([a, b, c], axis=0)
    x = area.path.values
    combined = chen_combine(area.pairs(i, j), area.pairs(j, k), x[j] - x[i], x[k] - x[j])
    return np.max(np.abs(area.pairs(i, k) - combined), axis=(1, 2))
