"""Driver-path gallery: stochastic, analytic, and adversarial signals.

Everything a scheme consumes is produced here as a (:class:`DriverPath`,
:class:`AreaProcess`) pair on a concrete grid:

* Brownian paths with Ito or Stratonovich area blocks (exact diagonals,
  bridge-substep off-diagonals), plus a degenerate variant;
* polynomial paths with closed-form area blocks, the reference case where
  every estimate can be checked against exact calculus;
* an oscillatory two-component driver whose integral equation has two exact
  solutions from the same initial data (the non-uniqueness demo), built on a
  geometric grid with a semi-analytic quadrature for the grown branch;
* a self-similar nested-chain curve with prescribed Holder exponent,
  evaluated on demand because its finest resolution is never materialized;
* a spiral driver carrying a prescribed blow-up time, built from power-law
  growth envelopes by homogenization, mollification, and a time change.

All random constructions are driven by ``np.random.SeedSequence([seed, tag])``
substreams so each ingredient is reproducible independently of call order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AreaProcess,
    DriverPath,
    GrowthEnvelope,
    Trajectory,
    VectorField,
)

__all__ = [
    "BrownianConfig",
    "brownian_path",
    "ito_area",
    "stratonovich_area",
    "degenerate_area",
    "PolynomialPath",
    "analytic_area",
    "CounterexampleConfig",
    "example1_driver",
    "example1_field",
    "example1_solution_pair",
    "ChainCurve",
    "power_law_envelope",
    "ExplosionDriver",
    "explosion_driver",
]


# ---------------------------------------------------------------------------
# Brownian paths and areas

# Substream tags keep the path increments and the bridge refinement noise on
# disjoint generator states, so either can be regenerated without the other.
# The values are arbitrary but frozen: golden numbers in the test suite were
# calibrated against these exact streams.
_PATH_STREAM = 27
_BRIDGE_STREAM = 28
# Bridge normals held at once (512 KiB), in whole intervals: see _bridge_offdiag.
_BRIDGE_CHUNK = 2**16


@dataclass(frozen=True)
class BrownianConfig:
    """Dyadic-grid Brownian driver parameters.

    ``level`` fixes the grid at 2**level uniform intervals on [0, t_end];
    ``substeps`` is the bridge resolution used for off-diagonal area entries.
    """

    d: int
    level: int
    seed: int
    t_end: float = 1.0
    substeps: int = 16

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if not 1 <= self.level <= 24:
            raise ValueError("level must be between 1 and 24")
        if self.substeps < 2:
            raise ValueError("substeps must be at least 2")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")

    @property
    def n_intervals(self) -> int:
        return 2**self.level


def brownian_path(config: BrownianConfig) -> DriverPath:
    """Sample a Brownian path on the dyadic grid fixed by ``config``.

    Increments come from the ``_PATH_STREAM`` substream; the bridge noise
    used by the area constructors lives on ``_BRIDGE_STREAM``, so path and
    area are reproducible separately.
    """
    k = config.n_intervals
    h = config.t_end / k
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _PATH_STREAM]))
    incs = rng.standard_normal((k, config.d)) * math.sqrt(h)
    values = np.vstack([np.zeros(config.d), np.cumsum(incs, axis=0)])
    times = np.linspace(0.0, config.t_end, k + 1)
    return DriverPath(times, values)


def _bridge_offdiag(path: DriverPath, config: BrownianConfig) -> np.ndarray:
    """Left-point Riemann sums over one shared bridge per interval.

    Each interval gets a single d-dimensional bridge with ``substeps``
    pieces, conditioned on the observed increment; all (i, j) entries are
    computed from the same realization.  Summation contract: the
    ``(k, substeps, d)`` normals are laid out substep-major, and every sum
    over substeps (the bridge mean, the running position, the Riemann sum)
    adds the substeps one at a time in order, each step an elementwise
    operation on rows of a chunk's intervals.  Stream contract: the normals are
    drawn ``max(1, _BRIDGE_CHUNK // (substeps * d))`` intervals at a time, and
    consecutive draws of C-order rows read the one-call stream (the generator
    keeps no normal between calls), so the bits are those of a single draw.
    """
    r, d, k = config.substeps, path.d, path.n_intervals
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _BRIDGE_STREAM]))
    drift = path.increments.T / r
    scale = np.sqrt(np.diff(path.times) / r)
    out = np.zeros((d, d, k))
    step = max(1, _BRIDGE_CHUNK // (r * d))
    for a in range(0, k, step):
        dr, sc, o = drift[:, a:a + step], scale[a:a + step], out[:, :, a:a + step]
        xi = rng.standard_normal((sc.size, r, d)).transpose(1, 2, 0).copy()
        tot = xi[0].copy()
        for m in range(1, r):
            tot += xi[m]
        mean = tot / r
        run = np.zeros_like(mean)
        for m in range(r):
            s = dr + (xi[m] - mean) * sc
            run = run + s
            left = run - s  # partial sum before this substep: its left endpoint
            o += left[:, None] * s[None, :]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def ito_area(path: DriverPath, config: BrownianConfig) -> AreaProcess:
    """Ito area blocks: exact diagonal identity, bridge off-diagonals.

    The diagonal needs no simulation at all: per interval it equals
    ``(dW_j^2 - h) / 2`` pathwise.  Off-diagonals use the shared bridge of
    :func:`_bridge_offdiag`.  For d = 1 the bridge is skipped entirely.  A path
    whose d, interval count or end time is not the config's raises ValueError.
    """
    k = path.n_intervals
    d = path.d
    got = (d, k, float(path.times[-1]))
    want = (config.d, config.n_intervals, float(config.t_end))
    if got != want:
        raise ValueError(f"path (d, intervals, t_end) = {got} does not match its config's {want}")
    h = np.diff(path.times)
    dw = path.increments
    if d == 1:
        blocks = np.zeros((k, 1, 1))
    else:
        blocks = _bridge_offdiag(path, config)
    diag = 0.5 * (dw**2 - h[:, None])
    idx = np.arange(d)
    blocks[:, idx, idx] = diag
    return AreaProcess(path, blocks, "ito")


def stratonovich_area(ito: AreaProcess) -> AreaProcess:
    """Stratonovich area blocks: the Ito blocks shifted by h/2 on the diagonal.

    Operates on an existing Ito area so the off-diagonal entries agree
    bitwise between the two conventions; they come from the same bridge
    realization by construction.
    """
    if ito.kind != "ito":
        raise ValueError(f"expected an Ito area, got kind={ito.kind!r}")
    blocks = ito.per_interval.copy()
    h = np.diff(ito.path.times)
    idx = np.arange(ito.d)
    blocks[:, idx, idx] += 0.5 * h[:, None]
    return AreaProcess(ito.path, blocks, "stratonovich")


def degenerate_area(path: DriverPath) -> AreaProcess:
    """The collapsed area ``A(s, t) = -x(s) (x(t) - x(s))^T``.

    This satisfies the Chen identity exactly as an algebraic fact, for any
    path whatsoever, which is what makes it a useful degenerate companion:
    it carries no genuine second-order information yet passes every
    consistency check a true area must pass.
    """
    x = path.values
    blocks = -np.einsum("ki,kj->kij", x[:-1], np.diff(x, axis=0))
    return AreaProcess(path, blocks, "degenerate")


# ---------------------------------------------------------------------------
# Polynomial paths with closed-form areas


@dataclass(frozen=True)
class PolynomialPath:
    """A d-dimensional polynomial curve, the fully solvable reference driver.

    ``coeffs[i]`` are ascending power-basis coefficients of component i.
    Areas have closed forms through antiderivatives of products, so this is
    the case against which Riemann-sum estimates are tested.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if coeffs.ndim != 2 or coeffs.shape[1] == 0 or not np.all(np.isfinite(coeffs)):
            raise ValueError("polynomial needs a (d, m) array of finite coefficients, m >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        vals = [np.polynomial.polynomial.polyval(t, c) for c in self.coeffs]
        return np.stack(vals, axis=-1)

    def sample(self, times) -> DriverPath:
        times = np.asarray(times, dtype=float)
        return DriverPath(times, self.value(times))

    def _cross_antiderivatives(self):
        # Q[r][j] = antiderivative of x_r * x_j'
        poly = np.polynomial.polynomial
        out = []
        for r in range(self.d):
            row = []
            for j in range(self.d):
                prod = poly.polymul(self.coeffs[r], poly.polyder(self.coeffs[j]))
                row.append(poly.polyint(prod))
            out.append(row)
        return out

    def area(self, s, t) -> np.ndarray:
        """Exact area blocks over ``(s, t)``: ``(d, d)`` for scalar times, ``(m, d, d)``
        for arrays of ``m`` interval ends."""
        q = self._cross_antiderivatives()
        polyv = np.polynomial.polynomial.polyval
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        xs, xt = self.value(s), self.value(t)
        out = np.empty(np.broadcast_shapes(s.shape, t.shape) + (self.d, self.d))
        for r in range(self.d):
            for j in range(self.d):
                raw = polyv(t, q[r][j]) - polyv(s, q[r][j])
                out[..., r, j] = raw - xs[..., r] * (xt[..., j] - xs[..., j])
        return out


def analytic_area(poly: PolynomialPath, path: DriverPath) -> AreaProcess:
    """Exact per-interval area blocks of a polynomial path on the grid of ``path``,
    which is trusted to come from ``poly.sample``; only its times are used."""
    return AreaProcess(path, poly.area(path.times[:-1], path.times[1:]), "analytic")


# ---------------------------------------------------------------------------
# Oscillatory counterexample driver (two exact solutions, one initial value)


@dataclass(frozen=True)
class CounterexampleConfig:
    """Exponents and grid for the non-uniqueness demonstration.

    The driver is ``x1 = t^b cos(t^-r), x2 = t^b (2 + sin(t^-r))`` on a
    geometric grid, with ``b = beta_exp`` and ``r = rho_exp``.  Admissibility
    requires the exponent chain

        gamma < rho/beta < (rho + 1)/beta < p

    (so the coefficient is rough enough to break uniqueness while the driver
    still has finite p-variation), which is validated eagerly.  ``ramp`` is
    the relative width of the smoothstep collar in the coefficient field.
    """

    gamma: float = 1.05
    p: float = 1.9
    beta_exp: float = 4.0
    rho_exp: float = 5.0
    t_max: float = 0.15
    grid: int = 65536
    t_min_factor: float = 1e-3
    ramp: float = 0.15

    def __post_init__(self):
        if not self.beta_exp > 0:
            raise ValueError("beta_exp must be positive")
        chain = (self.gamma, self.rho_exp / self.beta_exp,
                 (self.rho_exp + 1) / self.beta_exp, self.p)
        if not (chain[0] < chain[1] < chain[2] < chain[3]):
            raise ValueError(
                "exponent chain gamma < rho/beta < (rho+1)/beta < p violated: "
                f"{chain[0]:.4g} < {chain[1]:.4g} < {chain[2]:.4g} < {chain[3]:.4g}"
            )
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if not 0 < self.ramp <= 0.5:
            raise ValueError("ramp must lie in (0, 0.5]")
        if self.grid < 16:
            raise ValueError("grid too small to be meaningful")
        if not 0 < self.t_min_factor < 1:
            raise ValueError("t_min_factor must lie in (0, 1)")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")

    @property
    def growth_exponent(self) -> float:
        """Leading power of the grown branch, beta*(gamma+1) - rho."""
        return self.beta_exp * (self.gamma + 1) - self.rho_exp


def _spiral_path(cfg: CounterexampleConfig, offset: float) -> DriverPath:
    """``t^b (cos t^-r, offset + sin t^-r)`` on a geometric grid from
    ``t_min_factor * t_max`` to ``t_max``, plus one cell down to t = 0, where
    the amplitude ``t^b`` makes both components vanish.
    """
    t = np.concatenate([
        [0.0],
        np.geomspace(cfg.t_min_factor * cfg.t_max, cfg.t_max, cfg.grid),
    ])
    phase = t[1:] ** (-cfg.rho_exp)
    amp = t[1:] ** cfg.beta_exp
    values = np.vstack(
        [np.zeros(2), np.column_stack([amp * np.cos(phase), amp * (offset + np.sin(phase))])]
    )
    return DriverPath(t, values)


def example1_driver(cfg: CounterexampleConfig):
    """Oscillatory driver ``t^b (cos t^-r, 2 + sin t^-r)`` and its rough field, as a pair."""
    return _spiral_path(cfg, 2.0), example1_field(cfg)


def example1_field(cfg: CounterexampleConfig) -> VectorField:
    """The coefficient field whose roughness breaks uniqueness.

    Component 2 just copies the second driver component (f[1, 1] = 1).
    Component 1 is ``(y2)^gamma`` against the first driver component, gated
    by a C^1 smoothstep in |y1|/y2: identically zero for |y1| <= ramp * y2
    (so the zero branch solves the equation exactly) and identically
    ``(y2)^gamma`` for |y1| >= 2 * ramp * y2 (the grown branch sits there).
    Only evaluation is provided; the field is deliberately no smoother than
    its gamma grade and the schemes that need derivatives must not use it.
    ``(y2)^gamma`` is ``math.pow`` per state: numpy's ``power`` can differ
    from it in the last bit.
    """
    gamma = cfg.gamma
    tau = cfg.ramp

    def func(y):
        y1, y2 = y[..., 0], y[..., 1]
        out = np.zeros(y.shape[:-1] + (2, 2))
        out[..., 1, 1] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (np.abs(y1) - tau * y2) / (tau * y2)
        on = (y2 > 0) & (u > 0)
        u = np.minimum(u[on], 1.0)
        power = np.array([math.pow(v, gamma) for v in y2[on].tolist()])
        out[..., 0, 0][on] = (u * u * (3 - 2 * u)) * power
        return out

    return VectorField(2, 2, func, batched=True)


def _example1_grown_component(cfg: CounterexampleConfig, t: np.ndarray) -> np.ndarray:
    """Semi-analytic values of the grown branch's first component (0 at t = 0).

    Substituting u = s^-rho gives the tails ``integral_u^inf s^-a g_c(s) ds``
    of ``g_c = (2 + sin)^gamma (sin, cos)``, ``a = kappa + 1, kappa + 2``.  Each
    mean gives an exact power tail; the zero-mean rest is integrated by parts
    six times, pass j needing ``Re sum_k e^{iuk} 2 g_c[k] / (ik)^j``, so one
    phase matrix per block of u serves all twelve passes.  Each pass gains a
    factor ~1/u, and u >= 1e4 puts the truncation far below double precision.
    """
    # (2 + sin θ)^gamma is analytic in the strip |Im θ| < arccosh 2 ≈ 1.317, so
    # |g_c[k]| falls like e^{-1.317 k} for every gamma.  At the default gamma,
    # max_c |g_c[k]| is 1.0e-7 at k = 8, 5.3e-13 at 16 and 1.1e-17 at 24, and
    # roundoff (~5e-18) beyond: 32 frequencies give the same bits as 256.
    n_samples, n_keep, n_passes, block = 4096, 32, 6, 4096
    gamma, beta, rho = cfg.gamma, cfg.beta_exp, cfg.rho_exp
    kappa = (beta * (gamma + 1) - rho) / rho
    if not kappa + 1.0 > 1.0:
        raise ValueError("tail integral needs a > 1, i.e. beta * (gamma + 1) > rho")
    theta = np.arange(n_samples) * (2 * np.pi / n_samples)
    weight = (2 + np.sin(theta)) ** gamma
    spec = np.fft.rfft(np.stack([weight * np.sin(theta), weight * np.cos(theta)])) / n_samples
    freqs = np.arange(1, n_keep + 1)
    passes = range(1, n_passes + 1)
    # column c * n_passes + j - 1 holds 2 g_c[k] / (ik)^j
    H = np.stack([2.0 * spec[c, 1 : n_keep + 1] / (1j * freqs) ** j
                  for c in (0, 1) for j in passes], axis=1)
    out = np.zeros_like(t)
    pos = np.flatnonzero(t > 0)
    for lo in range(0, pos.size, block):
        idx = pos[lo : lo + block]
        u = t[idx] ** (-rho)
        at_u = (np.exp(1j * np.outer(u, freqs)) @ H).real
        tails = []
        for c, a in enumerate((kappa + 1.0, kappa + 2.0)):
            fac = 1.0
            acc = np.zeros(u.size)
            for j in passes:
                acc -= fac * u ** (-(a + j - 1.0)) * at_u[:, c * n_passes + j - 1]
                fac *= a + j - 1.0
            tails.append(float(spec[c, 0].real) * u ** (1.0 - a) / (a - 1.0) + acc)
        out[idx] = tails[0] + (beta / rho) * tails[1]
    return out


def example1_solution_pair(cfg: CounterexampleConfig, path: DriverPath):
    """The two exact solutions from the same (zero) initial state.

    Returns ``(flat, grown)`` trajectories on the driver grid.  The flat
    branch keeps the first component at zero; the grown branch's first
    component is the true integral of ``(x2)^gamma`` against ``x1``,
    evaluated semi-analytically.  Both share the second component ``x2``.
    """
    t = path.times
    x2 = path.values[:, 1]
    flat = Trajectory(t, np.column_stack([np.zeros_like(t), x2]), scheme="exact")
    grown = Trajectory(
        t, np.column_stack([_example1_grown_component(cfg, t), x2]), scheme="exact"
    )
    return flat, grown


# ---------------------------------------------------------------------------
# Nested-chain curve with prescribed Holder exponent


# A side is its outward unit step, in _SIDES order; a chain orientation is the
# state 4 * entry + exit.  The eight square symmetries act on those steps and
# on (col, row) squares centred at (k, k); the orientation search tries them
# in this order, so the identity wins for the straight (L, R) pair.
_SIDES = "LRBT"
_SIDE_STEP = np.array([[-1, 0], [1, 0], [0, -1], [0, 1]])
_SYMMETRIES = np.array([
    [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
    [[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]],
])


def _straight_targets(k: int, extra: int) -> list[int]:
    """Run end rows of a straight serpentine consuming ``extra`` squares.

    Runs live on the k odd columns; pairs of runs swing up from the middle
    row and back, each pair of amplitude h eating 2h squares.
    """
    if extra % 2:
        raise ValueError("extra squares must be even")
    swings = extra // 2
    targets = []
    for _ in range(k // 2):
        take = min(k - 1, swings)
        targets += [k + take, k]
        swings -= take
    if swings:
        raise ValueError(f"straight chain cannot absorb {extra} extra squares at k={k}")
    return targets + [k] * (k % 2)


def _serpentine(start: int, targets) -> list[tuple[int, int]]:
    """Squares of a serpentine entering at (0, start).

    Run i sweeps column 2i+1 from the current row to ``targets[i]``; each run
    after the first starts with the one square on the even column between.
    """
    squares = [(0, start)]
    cur = start
    for i, target in enumerate(targets):
        col = 2 * i + 1
        if i:
            squares.append((col - 1, cur))
        step = 1 if target >= cur else -1
        squares.extend((col, r) for r in range(cur, target + step, step))
        cur = target
    return squares


def _straight_chain(k: int, m: int) -> list[tuple[int, int]]:
    """Canonical left-to-right chain of odd length m in the (2k+1)-grid."""
    n = 2 * k + 1
    return _serpentine(k, _straight_targets(k, m - n)) + [(n - 1, k)]


def _corner_serpentine(k: int, m: int) -> list[tuple[int, int]]:
    """Left-to-top chain: a zigzag serpentine in the lower-left strip, then a climb.

    The serpentine's k // 2 runs live on the odd columns left of the climb
    column k and alternate between rows 1 and 2k-1, the most travel the strip
    holds; the last run ends on row k-1 beside the climb.  A run on column
    k-1 (the last one when k is even) may not pass row k-1, so the run before
    it ends on row 1 for even k and on row 2k-1 for odd k.  The climb along
    the exit column absorbs the rest of the length in rectangular detours
    into the right half (stride-4 slots).  Every length _select_levels picks
    past the dropped-L range is reached this way (see its docstring); any
    other length is refused.
    """
    n = 2 * k + 1
    v = k // 2
    legs = [2 * k - 1 if (k + v - i) % 2 else 1 for i in range(v - 1)] + [k - 1]
    travel = sum(abs(b - a) for a, b in zip([k] + legs, legs))
    slots = range(k, 2 * k - 2, 4)
    detour = m - (n + 1) - travel
    if not 0 <= detour <= 2 * len(slots) * (k - 1):
        raise ValueError(f"corner serpentine cannot reach m={m} at k={k}")
    squares = _serpentine(k, legs)
    if k % 2 == 1:
        squares.append((k - 1, k - 1))
    left, r = detour // 2, k - 1
    while r < n:
        squares.append((k, r))
        take = min(k - 1, left) if r in slots else 0
        if take:  # out along row r, up one, back along row r + 2
            left -= take
            squares += [(c, r) for c in range(k + 1, k + take + 1)] + [(k + take, r + 1)]
            squares += [(c, r + 2) for c in range(k + take, k, -1)]
        r += 2 if take else 1
    return squares


def _corner_chain(k: int, m: int) -> list[tuple[int, int]]:
    """Canonical left-to-top chain of odd length m."""
    n = 2 * k + 1
    j = (m - n) // 2
    if m <= n + 2 * (k - 1):
        # dropped-L: dip j rows below the middle before turning (the L at j = 0)
        squares = [(0, k), (1, k)]
        squares += [(1, k - i) for i in range(1, j + 1)]
        squares += [(c, k - j) for c in range(2, k + 1)]
        squares += [(k, r) for r in range(k - j + 1, n)]
        return squares
    return _corner_serpentine(k, m)


def _chain_capacity(k: int) -> int:
    """Largest odd chain length the scale-band selection may use: k^2, less one if even.

    The straight and corner families reach further than k^2 for every
    k <= _K_MAX (at k = 3 they reach 11 and 13 against 9), so k^2 alone binds.
    """
    return k * k - 1 + k % 2


def _side_of(steps: np.ndarray) -> np.ndarray:
    """Index in _SIDES of each unit step: the side it leaves a square through."""
    return np.argmax(steps @ _SIDE_STEP.T, axis=-1)


def _validate_chain(squares: np.ndarray, k: int, m: int, entry: int, exit_: int) -> None:
    """Assert the geometric chain contract; raises AssertionError on breach."""
    n = 2 * k + 1
    assert len(squares) == m, f"length {len(squares)} != {m}"
    assert np.array_equal(squares[0], k + k * _SIDE_STEP[entry]), f"bad entry {squares[0]}"
    assert np.array_equal(squares[-1], k + k * _SIDE_STEP[exit_]), f"bad exit {squares[-1]}"
    assert np.all((squares >= 0) & (squares < n)), "square outside the grid"
    assert np.all((squares[1:-1] >= 1) & (squares[1:-1] <= n - 2)), (
        "interior square touches the boundary")
    assert np.all(np.abs(np.diff(squares, axis=0)).sum(axis=1) == 1), "squares not side-adjacent"
    # gap 2 may share a corner, never a side; larger gaps may not even touch
    i, j = np.triu_indices(m, 2)
    dist = np.abs(squares[i] - squares[j])
    apart = np.where(j - i == 2, dist.sum(axis=1) >= 2, dist.max(axis=1) >= 2)
    assert np.all(apart), f"squares {i[~apart][:1]},{j[~apart][:1]} too close"


def _chain_with_sides(base: np.ndarray, k: int, entry: int, exit_: int):
    """Squares of ``base`` oriented onto ``entry``, ``exit_``, plus per-square
    entry and exit side indices.

    ``base`` runs from L to the side of its last square, R (straight) or T
    (corner); the first of _SYMMETRIES carrying its end steps onto ``entry``,
    ``exit_`` orients it.  A square symmetry keeps every clause of the chain
    contract, so a valid base gives valid orientations.
    """
    images = _SYMMETRIES @ _SIDE_STEP[[0, _side_of(base[-1] - k)]].T  # (8, 2, 2) column steps
    sym = _SYMMETRIES[np.flatnonzero(np.all(images == _SIDE_STEP[[entry, exit_]].T,
                                            axis=(1, 2)))[0]]
    squares = (base - k) @ sym.T + k
    steps = np.diff(squares, axis=0)
    return squares, np.append(entry, _side_of(-steps)), np.append(_side_of(steps), exit_)


# The largest sub-grid half-width k a level may use, the query pairs
# ChainCurve.band_stats evaluates per array pass, the pairs it decodes from
# one block of PCG64 words, and the low half of a 64-bit word.
_K_MAX = 12
_BAND_BLOCK = 4096
_DRAW_CHUNK = 128
_LOW32 = np.uint64(0xFFFFFFFF)


def _select_levels(alpha: float, depth: int):
    """Greedy (k, m) sequence keeping eps_r / delta_r^alpha inside [1/3, 3].

    Smallest k wins; among its feasible odd m in [n, capacity] the one
    pulling the running ratio closest to 1 wins, the smaller m on a tie.

    Only eleven (k, m) pairs can win, so only they are checked: (3, 7),
    (3, 9) and (k, _chain_capacity(k)) for 4 <= k <= 12.  The running
    log-ratio lr is 0 at the first level and lies in [-log 3, log 3] after
    each; write cand(m) = lr + alpha log m - log n.  At k = 3, cand(7) = lr -
    (1 - alpha) log 7 is below log 3, so k = 3 fails only if cand(7) < -log 3;
    then cand(9), larger by alpha log(9/7) < 0.26, is below log 3 and must be
    below -log 3 too.  Going up one k raises the largest candidate by less
    than log(25/15) < log 3.  So at the first k >= 4 with a candidate in the
    band every candidate is negative, and as they grow with m the capacity
    is the one closest to 0.
    """
    pairs = [(3, 7), (3, 9)] + [(k, _chain_capacity(k)) for k in range(4, _K_MAX + 1)]
    levels, log_ratio, band = [], 0.0, math.log(3.0)
    for level in range(depth):
        fits = [(k, abs(cand), m, cand) for k, m in pairs
                if abs(cand := log_ratio + alpha * math.log(m) - math.log(2 * k + 1)) <= band]
        if not fits:
            raise ValueError(
                f"level {level + 1}: no odd m in [2k+1, k^2] with k <= {_K_MAX} keeps "
                f"eps/delta^alpha in [1/3, 3] at alpha={alpha} "
                f"(running log-ratio {log_ratio:.3f})"
            )
        k, _, m, log_ratio = min(fits)
        levels.append((k, m))
    return levels


@functools.cache
def _chain_table(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Squares and successor states of the (k, m) chain in every orientation.

    ``squares[s, i]`` is the (col, row) of square i of the chain in state s,
    and ``succ[s, i]`` the state that square hands to its own sub-chain.  The
    four rows with entry == exit are unused and stay zero.  Built once per
    (k, m) from one straight and one corner base chain, and cached, so both
    arrays are read-only.
    """
    squares = np.zeros((16, m, 2), dtype=np.int64)
    succ = np.zeros((16, m), dtype=np.int64)
    straight, corner = np.array(_straight_chain(k, m)), np.array(_corner_chain(k, m))
    _validate_chain(straight, k, m, _SIDES.index("L"), _SIDES.index("R"))
    _validate_chain(corner, k, m, _SIDES.index("L"), _SIDES.index("T"))
    for entry, exit_ in itertools.permutations(range(4), 2):
        base = straight if _SIDE_STEP[entry] @ _SIDE_STEP[exit_] == -1 else corner
        sq, entries, exits = _chain_with_sides(base, k, entry, exit_)
        squares[4 * entry + exit_] = sq
        succ[4 * entry + exit_] = 4 * entries + exits
    squares.flags.writeable = succ.flags.writeable = False
    return squares, succ


class ChainCurve:
    """On-demand evaluator for the nested-chain curve on [0, 1] -> [0, 1]^2.

    Level r subdivides each square into (2 k_r + 1)^2 cells and routes a
    chain of m_r interior squares between the sides inherited from level
    r - 1.  Time is split in mixed radix (m_1, ..., m_depth); a query
    descends one chain per level and returns the center of the final square.
    The full resolution is never materialized: at the shipped defaults the
    finest grid has ~1.7e8 cells.

    The curve is alpha-Holder from below and above up to fixed constants:
    queries gap apart by delta_r move the value by about eps_r, with
    eps_r / delta_r^alpha pinned to [1/3, 3] by level selection.
    """

    def __init__(self, alpha: float, depth: int):
        if not 0.5 < alpha < 1:
            raise ValueError("alpha must lie in (1/2, 1)")
        if not 1 <= depth <= 8:
            raise ValueError("depth must lie in 1..8")
        self.alpha = float(alpha)
        self.depth = int(depth)
        self.levels = _select_levels(alpha, depth)
        self.n_seq = [2 * k + 1 for k, _ in self.levels]
        self.m_seq = [m for _, m in self.levels]
        self.eps = np.cumprod([1.0 / n for n in self.n_seq])
        self.delta = np.cumprod([1.0 / m for m in self.m_seq])
        self.total_cells = math.prod(self.m_seq)

    def eval_index(self, index) -> np.ndarray:
        """Centers of the depth-level squares holding time cells ``index``.

        ``index`` is a scalar or an array; the result adds an axis of length 2.
        Level r reads the r-th mixed-radix digit of the index, most
        significant first.
        """
        rest = np.asarray(index)
        if np.any((rest < 0) | (rest >= self.total_cells)):
            raise IndexError("cell index out of range")
        corner = np.zeros(rest.shape + (2,))
        state = np.full(rest.shape, 4 * _SIDES.index("L") + _SIDES.index("R"))
        place, size = self.total_cells, 1.0
        for (k, m), n in zip(self.levels, self.n_seq):
            place //= m
            digit, rest = np.divmod(rest, place)
            squares, succ = _chain_table(k, m)
            size /= n
            corner += squares[state, digit] * size
            state = succ[state, digit]
        return corner + 0.5 * size

    def eval(self, t) -> np.ndarray:
        """Curve value(s) at time(s) in [0, 1]; times outside are clamped."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("curve times must be finite")
        idx = (np.clip(t, 0.0, 1.0) * self.total_cells).astype(np.int64)
        return self.eval_index(np.minimum(idx, self.total_cells - 1))

    def sample(self, n_samples: int = 2**14) -> DriverPath:
        """Uniform-grid sample of 2 to 2**16 points as a DriverPath."""
        if not 2 <= n_samples <= 2**16:
            raise ValueError(f"need 2 to 2**16 samples, got {n_samples}")
        times = np.linspace(0.0, 1.0, n_samples)
        return DriverPath(times, self.eval(times))

    def band_stats(self, n_pairs: int, rng: np.random.Generator):
        """Empirical scale-band constants over random query pairs.

        For each pair a level r in [1, depth-1] is drawn, then a time gap in
        (delta_{r+1}, delta_r]; the pair contributes |du|/eps_r to the upper
        constant and |du|/eps_{r+1} to the lower one (sup norm).  The deepest
        band is excluded: the evaluator is piecewise constant below the depth
        resolution, so gaps under delta_depth can sit inside one cell.

        The stream contract: the result and the state ``rng`` is left in are
        those of ``n_pairs`` calls of :meth:`_draw_pair` in a row, each one
        ``integers(1, depth)``, ``uniform(log delta_r, log delta_{r-1})`` and
        ``integers(0, total_cells - gap_cells)``.  On PCG64 the pairs are
        decoded as arrays from the generator's raw words (:meth:`_draw_pairs`);
        any other bit generator makes those scalar calls.  Pairs are evaluated
        ``_BAND_BLOCK`` at a time; ``n_pairs`` is 1 to 2**20.
        """
        if not 1 <= n_pairs <= 2**20:
            raise ValueError(f"need 1 to 2**20 query pairs, got {n_pairs}")
        if self.depth < 2:
            raise ValueError(f"band statistics need depth >= 2, got depth {self.depth}: "
                             "the deepest band is excluded")
        c_upper, c_lower = 0.0, math.inf
        for lo in range(0, n_pairs, _BAND_BLOCK):
            r, start, gap_cells = self._draw_pairs(min(_BAND_BLOCK, n_pairs - lo), rng)
            u = self.eval_index(np.stack([start, start + gap_cells]))
            mag = np.max(np.abs(u[1] - u[0]), axis=1)
            c_upper = max(c_upper, float(np.max(mag / self.eps[r - 1])))
            c_lower = min(c_lower, float(np.min(mag / self.eps[r])))
        return c_lower, c_upper

    def _draw_pair(self, rng: np.random.Generator) -> tuple[int, int, int]:
        """One query pair ``(r, start, gap_cells)`` by three scalar generator calls."""
        r = int(rng.integers(1, self.depth))  # 1 .. depth-1
        gap = math.exp(rng.uniform(math.log(self.delta[r]), math.log(self.delta[r - 1])))
        gap_cells = max(int(gap * self.total_cells), 1)
        return r, int(rng.integers(0, self.total_cells - gap_cells)), gap_cells

    def _draw_pairs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Rows r, start, gap_cells of ``n`` calls of :meth:`_draw_pair`, bitwise.

        On PCG64 an integer draw maps a 32-bit half x to ``x * span >> 32``
        (Lemire), rejecting it when the low 32 bits of the product fall below
        ``2**32 % span``; the uniform draw takes a full word w as
        ``(w >> 11) * 2**-53``.  Halves come low first, and a word's high half
        waits as the spare (``has_uint32``, ``uinteger``).  A pair without a
        rejection spends two words a, b and keeps the phase: with no spare it
        reads r from low(a), the uniform from b and start from high(a); with
        one it reads r from the spare, the uniform from a and start from
        low(b), leaving high(b) spare.  Chunks of ``_DRAW_CHUNK`` pairs are
        decoded as arrays up to the first rejection.  That pair is drawn by
        the scalar calls, from the chunk's saved state stepped past the
        decoded pairs, and it may flip the phase.
        Other bit generators, ``depth == 2`` (r takes no bits) and curves over
        2**32 cells (start takes a full word) make the scalar calls throughout.
        """
        out = np.empty((3, n), dtype=np.int64)
        bits = rng.bit_generator
        if type(bits) is not np.random.PCG64 or self.depth == 2 or self.total_cells > 2**32:
            for i in range(n):
                out[:, i] = self._draw_pair(rng)
            return out
        # uniform bounds per level index r - 1, as _draw_pair computes them
        log_lo = np.array([math.log(d) for d in self.delta[1:]])
        log_span = np.array([math.log(d) for d in self.delta[:-1]]) - log_lo
        reject1 = 2**32 % (self.depth - 1)
        done = 0
        while done < n:
            saved = bits.state
            c = min(_DRAW_CHUNK, n - done)
            words = bits.random_raw(2 * c)
            a, b = words[0::2], words[1::2]
            if saved["has_uint32"]:
                int_words, word = b, a
                x1 = np.concatenate(([np.uint64(saved["uinteger"])], b[:-1] >> 32))
                x2 = b & _LOW32
            else:
                int_words, word = a, b
                x1, x2 = a & _LOW32, a >> 32
            prod1 = x1 * np.uint64(self.depth - 1)
            level = prod1 >> 32  # r - 1
            exponent = log_lo[level] + log_span[level] * ((word >> 11) * 2.0**-53)
            gap = np.fromiter(map(math.exp, exponent.tolist()), float, c)  # math.exp as _draw_pair
            gap_cells = np.maximum((gap * self.total_cells).astype(np.int64), 1)
            span = (self.total_cells - gap_cells).astype(np.uint64)
            prod2 = x2 * span
            ok = ((prod1 & _LOW32) >= reject1) & ((prod2 & _LOW32) >= 2**32 % span)
            bad = np.flatnonzero(~ok)
            j = int(bad[0]) if bad.size else c
            out[0, done:done + j] = level[:j] + 1
            out[1, done:done + j] = prod2[:j] >> 32
            out[2, done:done + j] = gap_cells[:j]
            # leave the spare slot as the scalar calls would: the high half of
            # the last pair's integer word, live in the odd phase, stale in the even
            state = bits.state if j == c else saved
            if j:
                state["uinteger"] = int(int_words[j - 1] >> 32)
            bits.state = state
            if j < c:
                bits.random_raw(2 * j)
                out[:, done + j] = self._draw_pair(rng)
                j += 1
            done += j
        return out


# ---------------------------------------------------------------------------
# Explosion driver from growth envelopes


# The blow-up construction: state range [1, _Y_MAX] on a geometric grid of
# _N_GRID cells, the homogenization u-range [1, _U_MAX], the frozen tail of the
# driver after t_star (its time span is _T_PAD * t_star), and the state at
# which the construction trajectory counts as exploded.
_Y_MAX = 1e7
_N_GRID = 2**14
_U_MAX = 1e4
_T_PAD = 1.05
_EXPLOSION_STATE = 1e6


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 on ``n`` (odd) equal-spaced nodes, unscaled."""
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _power_integral(log_y, e: float):
    """``integral_1^y u^e du`` from ``log y``: ``expm1((e+1) log y) / (e+1)``, ``log y`` at e = -1."""
    if e == -1.0:
        return log_y
    return np.expm1((e + 1.0) * log_y) / (e + 1.0)


@dataclass
class _PowerLawEnvelope(GrowthEnvelope):
    """A growth envelope that remembers its power-law exponents."""

    growth_exp: float
    area_exp: float


def power_law_envelope(growth_exp: float, area_exp: float, beta: float) -> GrowthEnvelope:
    """Envelope pair D(R) = R^growth_exp, A(R) = R^area_exp."""
    return _PowerLawEnvelope(
        growth=lambda r: np.asarray(r, dtype=float) ** growth_exp,
        area_growth=lambda r: np.asarray(r, dtype=float) ** area_exp,
        beta=beta,
        growth_exp=growth_exp,
        area_exp=area_exp,
    )


@dataclass
class ProcessedEnvelope:
    """Homogenized and mollified envelope data of the blow-up driver.

    ``dstar(y) = c * max(y, 1)^e`` with ``(c, e)`` the pair ``d_law``, and
    ``astar`` likewise with ``a_law``.
    """

    beta: float
    r_hom: int
    rho1: float
    rho2: float
    d_law: tuple[float, float]
    a_law: tuple[float, float]

    @staticmethod
    def _power(y, law):
        c, e = law
        out = c * np.maximum(np.asarray(y, dtype=float), 1.0) ** e
        return out if out.ndim else float(out)

    def dstar(self, y):
        return self._power(y, self.d_law)

    def astar(self, y):
        return self._power(y, self.a_law)


# Simpson nodes of the mollifier bump on [1, 2] (odd, so Simpson applies).
_MOLLIFIER_NODES = 65


def _mollifier_weights():
    """Simpson nodes/weights of the unit-mass bump on [1, 2]."""
    u = np.linspace(1.0, 2.0, _MOLLIFIER_NODES)
    w = np.exp(-1.0 / np.maximum(1.0 - (2.0 * u - 3.0) ** 2, 1e-12))
    w[0] = w[-1] = 0.0
    simps = _simpson_weights(_MOLLIFIER_NODES) * ((u[1] - u[0]) / 3.0)
    mass = float(np.sum(w * simps))
    return u, w * simps / mass


def process_envelope(envelope: GrowthEnvelope, p: float) -> ProcessedEnvelope:
    """Homogenize and mollify a power-law envelope for blow-up computations.

    Homogenization takes ``inf u^r f(y/u)`` over u in [1, _U_MAX], with
    ``r`` the least integer above 1/min(rho1, rho2); mollification averages
    the result over the dilation window [1, 2] against a unit-mass bump and
    scales it by 2^-r.  For ``f(R) = R^e`` both steps are closed forms:

    * ``u^r (y/u)^e = y^e u^(r-e)`` is monotone in u, so the infimum sits at
      an end of the u-range and is ``y^e min(1, _U_MAX^(r-e))``;
    * averaging ``(y s)^e`` over s against the bump gives ``y^e`` times the
      bump's e-th moment, ``weights @ nodes**e`` on its Simpson nodes.

    So ``f* (y) = 2^-r min(1, _U_MAX^(r-e)) (weights @ nodes**e) y^e``, for D
    and for A.  Below y = 1 both are held at their value at 1.

    Raises ValueError for an envelope not made by :func:`power_law_envelope`
    (its exponents are what the closed form needs) and unless
    ``1 < p < 1 + beta`` (at ``p <= 1`` ``rho2 <= 0`` leaves no
    homogenization degree).
    """
    if not isinstance(envelope, _PowerLawEnvelope):
        raise ValueError("the blow-up construction takes only power_law_envelope envelopes")
    beta = envelope.beta
    if not (p > 1 and p - 1 < beta):
        raise ValueError(f"need 1 < p < 1 + beta for the construction (beta={beta}, p={p})")
    envelope.validate()
    rho1 = (beta * p + 1.0 - p) / beta
    rho2 = (p - 1.0) / beta
    r_hom = int(math.floor(1.0 / min(rho1, rho2))) + 1
    nodes, weights = _mollifier_weights()

    def law(e):
        return 2.0**-r_hom * min(1.0, _U_MAX ** (r_hom - e)) * float(weights @ nodes**e), e

    return ProcessedEnvelope(beta=beta, r_hom=r_hom, rho1=rho1, rho2=rho2,
                             d_law=law(envelope.growth_exp), a_law=law(envelope.area_exp))


@dataclass
class ExplosionDriver:
    """A driver path engineered to blow up its companion system in finite time.

    ``path`` spirals with radius shrinking to zero as t approaches
    ``t_star`` (and is frozen at the origin afterwards), while the scalar
    state y(t) of ``field`` grows without bound.  ``state_trajectory``
    reports that growth on the construction grid with the explosion index
    set at the first crossing of ``_EXPLOSION_STATE``.
    """

    path: DriverPath
    field: VectorField
    t_star: float
    y_grid: np.ndarray
    t_grid: np.ndarray
    processed: ProcessedEnvelope

    def __iter__(self):
        # unpacks as (field, path, t_star) for callers that want the bare triple
        return iter((self.field, self.path, self.t_star))

    def state_of_t(self, t) -> np.ndarray:
        return np.exp(np.interp(t, self.t_grid, np.log(self.y_grid)))

    def state_trajectory(self) -> Trajectory:
        hit = np.flatnonzero(self.y_grid > _EXPLOSION_STATE)
        at = int(hit[0]) if hit.size else None
        stop = self.y_grid.size if at is None else at + 1
        return Trajectory(times=self.t_grid[:stop], states=self.y_grid[:stop, None],
                          scheme="construction", exploded_at=at)


def explosion_driver(envelope: GrowthEnvelope, p: float) -> ExplosionDriver:
    """Build the spiral driver with a prescribed finite blow-up time.

    Unpack the result as ``field, path, t_star`` or keep the richer object.

    The state is time-changed so that ``y'(t) = D*(y)``-paced growth costs
    total time ``integral_1^inf astar^-rho2 dstar^-rho1 dy``; the driver
    rotates with phase ``lambda(y)`` and radius ``alpha(y)`` chosen so that
    ``f(y) x'(t) = y'(t)`` holds identically.  The identity
    ``dstar * radius * phase' = 1`` is what makes the construction
    self-verifying: any residual seen downstream is interpolation error, not
    modeling error.  Both densities are powers ``c y^e`` of the state, so the
    time ``t(y)``, the blow-up time ``t_star = t(inf)`` and the phase are
    their integrals from 1 in closed form; the field evaluates that same
    phase at its state.

    ``envelope`` must come from :func:`power_law_envelope`, whose exponents
    give the processed envelope in closed form (see :func:`process_envelope`);
    :func:`roughstep.analysis.explosion_criterion` classifies any
    :class:`GrowthEnvelope`.

    Raises ValueError for any other envelope, when the blow-up integral
    diverges (no finite t_star), decided from the time density's exponent,
    and when the envelope blows up so fast that the time grid stops
    increasing in floating point before ``_Y_MAX``.
    """
    proc = process_envelope(envelope, p)
    (c_d, e_d), (c_a, e_a) = proc.d_law, proc.a_law
    # time density astar^-rho2 dstar^-rho1 and phase density (astar/dstar)^(1/beta),
    # both powers c y^e of the state
    time_c, time_e = c_a**-proc.rho2 * c_d**-proc.rho1, -(proc.rho2 * e_a + proc.rho1 * e_d)
    phase_c, phase_e = (c_a / c_d) ** (1.0 / proc.beta), (e_a - e_d) / proc.beta
    if time_e >= -1.0 - 1e-6:
        raise ValueError("blow-up time integral diverges for this envelope "
                         f"(tail exponent {-time_e:.4f} <= 1)")
    y = np.geomspace(1.0, _Y_MAX, _N_GRID + 1)
    log_y = np.log(y)
    t_of_y = time_c * _power_integral(log_y, time_e)
    stalled = np.flatnonzero(np.diff(t_of_y) <= 0)
    if stalled.size:
        raise ValueError("the envelope blows up too fast for the construction's time grid: "
                         f"the time stops increasing from y = {y[stalled[0]]:.4g}")
    t_star = time_c / (-time_e - 1.0)

    def phase(log_state):
        return phase_c * _power_integral(log_state, phase_e)

    lam = phase(log_y)
    # the radius that makes dstar * radius * phase' = 1
    radius = 1.0 / (proc.dstar(y) * phase_c * y**phase_e)
    xy = np.column_stack([radius * np.cos(lam), radius * np.sin(lam)])
    # freeze the driver at the origin from t_star onward
    times = np.concatenate([t_of_y, [t_star, _T_PAD * t_star]])
    xy = np.vstack([xy, [0.0, 0.0], [0.0, 0.0]])
    path = DriverPath(times, xy)

    def func(state):
        yy = max(float(state[0]), 1.0)
        lam_here = float(phase(math.log(yy)))
        d_here = proc.dstar(yy)
        return np.array([[-math.sin(lam_here) * d_here, math.cos(lam_here) * d_here]])

    return ExplosionDriver(path=path, field=VectorField(1, 2, func), t_star=t_star,
                           y_grid=y, t_grid=t_of_y, processed=proc)
