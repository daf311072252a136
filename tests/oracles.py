"""Independent reference computations used to pin expected test values.

Everything in this module is deliberately written against plain numpy and
math, never against the package under test, so each oracle fails or passes
on its own arithmetic.  The stored-area oracles read the arrays of the
package's path and area objects, ``explosion_state_of_t`` reads the blow-up
driver's construction grid, and ``riemann_area_recovery`` measures its
sums against ``area.pair``, the quantity it checks.  Where an oracle has a
tunable resolution the chosen value puts its own error several orders below
the tolerance it backs.  Two helpers reshape the package's objects for tests
and compute nothing: ``subsample`` and ``jacobian_view``.  ``PerturbedArea`` is
an area process that takes the test-only kind ``"perturbed"``, and
``perturbed_area`` builds one by shifting each block of another.  One sets numpy's
PCG64 up to emit chosen words: ``pcg64_state_emitting``.
"""
from __future__ import annotations

import csv
import decimal
import fractions
import math
import operator

import numpy as np

from roughstep.core import AreaProcess, DriverPath

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(32)


def subsample(path: DriverPath, stride: int) -> DriverPath:
    """``path`` keeping every ``stride``-th sample (endpoints always included)."""
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    if path.n_intervals % stride:
        raise ValueError(f"stride {stride} does not divide {path.n_intervals} intervals")
    return DriverPath(path.times[::stride], path.values[::stride])


class PerturbedArea(AreaProcess):
    """An area process whose blocks no driver construction made, tagged ``"perturbed"``."""

    KINDS = AreaProcess.KINDS + ("perturbed",)


def perturbed_area(base: AreaProcess, phi) -> AreaProcess:
    """Add a per-interval perturbation ``phi(s, t)``, a (d, d) array, to an existing area.

    Coarse pairs inherit the perturbation through the Chen fold like any
    other block content.
    """
    t = base.path.times
    blocks = base.per_interval.copy()
    for k in range(base.n_intervals):
        blocks[k] += np.asarray(phi(t[k], t[k + 1]), dtype=float)
    return PerturbedArea(base.path, blocks, "perturbed")


def jacobian_view(trajectory, n: int) -> np.ndarray:
    """An augmented trajectory's sensitivity block reshaped to ``(L, n, n)``."""
    if trajectory.states.shape[1] != n + n * n:
        raise ValueError("trajectory does not look augmented for this dimension")
    return trajectory.states[:, n:].reshape(-1, n, n)


def correction_tensor(f: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """``G[..., i, r, j] = sum_h f[..., h, r] * D1[..., h, i, j]``, the correction
    tensor of the corrected step ``y + f dx + G : A``, formed explicitly."""
    return np.einsum("...hr,...hij->...irj", f, d1)


def sequential_rate(solve, ks, n_intervals: int, ref: np.ndarray,
                    drop_coarsest: int = 2) -> tuple[np.ndarray, float]:
    """Errors and fitted slope of a convergence study, one solve per mesh.

    ``solve(partition)`` returns the terminal state over the grid indices
    ``partition``; mesh ``k`` takes every ``n_intervals // k``-th grid point,
    meshes in ascending order.  Zero errors are left out, then the
    ``drop_coarsest`` coarsest meshes while two remain, and the slope is that
    of the least-squares line through ``(log2 k, log2 error)``.
    """
    ks = np.sort(np.asarray(ks))
    errors = np.array([float(np.linalg.norm(solve(np.arange(0, n_intervals + 1, n_intervals // k))
                                            - ref)) for k in ks])
    ks, errors = ks[errors > 0], errors[errors > 0]
    drop = min(drop_coarsest, max(0, ks.size - 2))
    if ks.size - drop < 2:
        return errors, math.nan
    return errors, float(np.polyfit(np.log2(ks[drop:]), np.log2(errors[drop:]), 1)[0])


def richardson_area(poly_eval, s: float, t: float, n: int) -> np.ndarray:
    """Riemann-refinement area with one Richardson step.

    Left sums of a C^1 integrand err like c/N + O(1/N^2); combining N and 2N
    grids cancels the leading term, so n = 2**15 puts the remainder near
    1e-10 on unit-scale inputs.
    """

    def lsum(m):
        u = np.linspace(s, t, m + 1)
        v = poly_eval(u)
        return np.einsum("ki,kj->ij", v[:-1] - v[0], np.diff(v, axis=0))

    return 2.0 * lsum(2 * n) - lsum(n)


def gbm_ito_terminal(w_increment: float, span: float, y0: float) -> float:
    """Closed form y0 exp(W - t/2) for dY = Y dW in the Ito sense."""
    return y0 * math.exp(w_increment - 0.5 * span)


def gbm_strat_terminal(w_increment: float, y0: float) -> float:
    """Closed form y0 exp(W) for the Stratonovich reading."""
    return y0 * math.exp(w_increment)


def explosion_field(processed, state) -> np.ndarray:
    """The blow-up driver's field at one state ``(1,)``, in per-state float arithmetic:
    ``D*(y) (-sin lambda(y), cos lambda(y))`` with ``y`` clamped to 1 from below and
    ``lambda`` the phase integral ``integral_1^y (A*/D*)^(1/beta)`` in closed form."""
    (c_d, e_d), (c_a, e_a) = processed.d_law, processed.a_law
    phase_c, phase_e = (c_a / c_d) ** (1.0 / processed.beta), (e_a - e_d) / processed.beta
    y = max(float(state[0]), 1.0)
    log_y = math.log(y)
    lam = phase_c * (log_y if phase_e == -1.0
                     else math.expm1((phase_e + 1.0) * log_y) / (phase_e + 1.0))
    d_here = c_d * y**e_d
    return np.array([[-math.sin(lam) * d_here, math.cos(lam) * d_here]])


def explosion_state_of_t(driver, t) -> np.ndarray:
    """The blow-up driver's state at times ``t``: ``log y`` interpolated linearly
    between the construction grid's ``(t_grid, y_grid)`` nodes."""
    return np.exp(np.interp(t, driver.t_grid, np.log(driver.y_grid)))


def milstein_step(y: float, dw: float, h: float) -> float:
    """One multiplicative-noise corrected step, written out by hand."""
    return y * (1.0 + dw + 0.5 * (dw * dw - h))


def power_law_criterion_exponent(area_exp, growth_exp, beta, p):
    """Log-slope of the envelope integrand {A^(1-p) D^(p-1-bp)}^(1/b).

    Floats give a float, ``Fraction`` arguments the exact rational.
    """
    return (area_exp * (1 - p) + growth_exp * (p - 1 - beta * p)) / beta


def power_law_verdict(area_exp: float, growth_exp: float, beta: float,
                      p: float) -> str:
    """Verdict for a power-law envelope from its exponent alone.

    Octave masses of R^q scale by 2^(q+1), so the integral diverges exactly
    when q >= -1.  ``q`` is computed in exact rational arithmetic on the
    exponents as written in decimal (``Fraction(str(x))``), so no roundoff
    band is needed and the call does not lean on the package's float rule.
    """
    exact = [fractions.Fraction(str(x)) for x in (area_exp, growth_exp, beta, p)]
    return "diverges-trend" if power_law_criterion_exponent(*exact) >= -1 else "converges"


def octave_partials(q: fractions.Fraction, n_oct: int) -> list[float]:
    """``integral_{2^j}^{2^(j+1)} R^q dR`` for ``j < n_oct``, from the exact
    rational ``q`` in 40-digit decimal: ``(2^((j+1)e) - 2^(je)) / e`` with
    ``e = q + 1``, and ``ln 2`` at ``e = 0``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        two = decimal.Decimal(2)
        e = q + 1
        if e == 0:
            return [float(two.ln())] * n_oct
        e = decimal.Decimal(e.numerator) / e.denominator
        return [float((two ** ((j + 1) * e) - two ** (j * e)) / e) for j in range(n_oct)]


def central_jacobian(solver, y0: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Finite-difference terminal Jacobian of solver(y0) -> terminal state."""
    n = y0.size
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = eps
        cols.append((solver(y0 + e) - solver(y0 - e)) / (2.0 * eps))
    return np.stack(cols, axis=1)


# --- the oscillatory counterexample integral -------------------------------


def spiral_increment(gamma: float, beta: float, rho: float,
                     t_lo: float, t_hi: float) -> float:
    """integral_{t_lo}^{t_hi} (x2(t))^gamma dx1(t) by per-period quadrature.

    x1 = t^beta cos(t^-rho) and x2 = t^beta (2 + sin(t^-rho)) oscillate with
    phase t^-rho, so the integrand is smooth on each phase period; 32-point
    Gauss per period is then accurate to roundoff.  The phase runs from
    t_hi^-rho up to t_lo^-rho as t decreases.
    """
    if not 0.0 < t_lo < t_hi:
        raise ValueError("need 0 < t_lo < t_hi")
    phi_lo = t_hi**-rho
    phi_hi = t_lo**-rho
    two_pi = 2.0 * math.pi
    k0 = math.ceil(phi_lo / two_pi)
    k1 = math.floor(phi_hi / two_pi)
    cuts = two_pi * np.arange(k0, k1 + 1)
    phis = np.concatenate([[phi_lo], cuts, [phi_hi]])
    phis = np.unique(phis)
    edges = phis ** (-1.0 / rho)  # descending in t
    a = edges[1:]
    b = edges[:-1]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    tt = mid + half * GAUSS_X[None, :]
    ph = tt**-rho
    dx1 = beta * tt ** (beta - 1.0) * np.cos(ph) + rho * tt ** (
        beta - rho - 1.0
    ) * np.sin(ph)
    integ = tt ** (beta * gamma) * (2.0 + np.sin(ph)) ** gamma * dx1
    return float(np.sum(half[:, 0] * (integ @ GAUSS_W)))


def spiral_level_constant(gamma: float, beta: float, rho: float) -> float:
    """Leading coefficient of the grown branch, c t^E with E = b(g+1) - r.

    Averaging (2 + sin u)^gamma sin u over one phase period reduces the
    oscillatory integral to a pure power; the trapezoid rule on a periodic
    function converges spectrally, so 4096 points is overkill.
    """
    u = np.arange(4096) * (2.0 * math.pi / 4096)
    m1 = float(np.mean((2.0 + np.sin(u)) ** gamma * np.sin(u)))
    e_exp = beta * (gamma + 1.0) - rho
    return rho * m1 / e_exp


def spiral_grown_component(gamma: float, beta: float, rho: float, t: np.ndarray,
                           n_keep: int = 256) -> np.ndarray:
    """First component of example 1's grown branch from ``n_keep`` harmonics.

    The reference the package's 32-frequency evaluator is held to bitwise:
    the same tails ``integral_u^inf s^-a g_c(s) ds`` with ``u = t^-rho``,
    ``a = kappa + 1, kappa + 2`` of ``g_c = (2 + sin)^gamma (sin, cos)``, each
    mean as an exact power tail and the zero-mean rest integrated by parts six
    times, kept to 256 harmonics where the spectrum is long past roundoff.
    """
    n_samples, n_passes, block = 4096, 6, 4096
    kappa = (beta * (gamma + 1) - rho) / rho
    theta = np.arange(n_samples) * (2 * np.pi / n_samples)
    weight = (2 + np.sin(theta)) ** gamma
    spec = np.fft.rfft(np.stack([weight * np.sin(theta), weight * np.cos(theta)])) / n_samples
    freqs = np.arange(1, n_keep + 1)
    passes = range(1, n_passes + 1)
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


def envelope_tables(growth_exp: float, area_exp: float, y_tab: np.ndarray,
                    nodes: np.ndarray, weights: np.ndarray, u_grid: np.ndarray,
                    r_hom: int) -> tuple[np.ndarray, np.ndarray]:
    """Homogenized and mollified envelope tables by a row-wise ``np.min`` scan.

    Each table entry is ``2^-r sum_k w_k min_j u_j^r f(y nodes_k / u_j)``, for
    ``f(R) = R^growth_exp`` and ``f(R) = R^area_exp``:
    the infimum over the u-grid is one ``np.min(..., axis=1)`` over a
    ``(points, u_grid.size)`` matrix, taken 8,192 points at a time, and the
    weights are contracted in one matmul over the whole table.
    """
    u_pow = u_grid**r_hom

    def homogenized(e):
        y = np.outer(y_tab, nodes).ravel()
        out = np.empty(y.size)
        for lo in range(0, y.size, 8192):
            block = y[lo : lo + 8192, None] / u_grid[None, :]
            out[lo : lo + 8192] = np.min(u_pow[None, :] * block**e, axis=1)
        return out.reshape(y_tab.size, nodes.size)

    scale = 2.0**-r_hom
    return scale * homogenized(growth_exp) @ weights, scale * homogenized(area_exp) @ weights


def cumulative_simpson(fn, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``fn`` along ``grid``, starting at 0.

    Every cell is integrated with composite Simpson, doubling the point count
    (from 5 to at most 257 nodes a cell) until the largest change of a cell
    is below 1e-8 times the total.  ``fn`` must accept arrays.
    """
    lo, hi = grid[:-1], grid[1:]
    prev = None
    npts = 2
    while True:
        offs = np.linspace(0.0, 1.0, 2 * npts + 1)
        weights = np.ones(offs.size)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        vals = fn(lo[:, None] + (hi - lo)[:, None] * offs[None, :])
        cells = (hi - lo) / (6.0 * npts) * (vals @ weights)
        if prev is not None and (
                np.max(np.abs(cells - prev)) <= 1e-8 * np.sum(np.abs(cells)) or npts > 64):
            break
        prev = cells
        npts *= 2
    return np.concatenate([[0.0], np.cumsum(cells)])


def chen_reference(a_st: np.ndarray, a_tu: np.ndarray, dx_st: np.ndarray,
                   dx_tu: np.ndarray) -> np.ndarray:
    """The two-interval consistency combination, written independently."""
    return a_st + a_tu + np.outer(dx_st, dx_tu)


# --- stored areas: the bridge, the condition-2.1 window and Riemann sums ---


def bridge_offdiag(dw: np.ndarray, h: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Left-point Riemann sums of one Brownian bridge per interval, ``(k, d, d)``.

    ``xi`` holds the ``(k, r, d)`` standard normals of the r substeps.  They
    are centred on their mean over the substeps and scaled by ``sqrt(h / r)``,
    and ``dw / r`` is added, so each interval's substeps sum to its increment
    ``dw``; the sum over substeps of (position before the substep) ⊗
    (substep) is taken by ``cumsum`` and ``einsum``.
    """
    r = xi.shape[1]
    xi = xi - xi.mean(axis=1, keepdims=True)
    sub = dw[:, None, :] / r + xi * np.sqrt(h[:, None, None] / r)
    left = np.cumsum(sub, axis=1) - sub
    return np.einsum("kmi,kmj->kij", left, sub)


def level_prefix(area, level: int) -> tuple[np.ndarray, float]:
    """The stored blocks folded to ``2**level`` intervals, as prefix sums, with the width h.

    Neighbouring blocks are folded pairwise, ``A + A' + dx ⊗ dx'``, from the
    fine grid down, so the level's blocks are the areas of its width-h cells.
    """
    blocks, incs = area.per_interval, np.diff(area.path.values, axis=0)
    if not 1 <= 2**level <= blocks.shape[0]:
        raise ValueError(f"level {level} outside the grid")
    while blocks.shape[0] > 2**level:
        blocks = blocks[0::2] + blocks[1::2] + incs[0::2, :, None] * incs[1::2, None, :]
        incs = incs[0::2] + incs[1::2]
    prefix = np.zeros((blocks.shape[0] + 1,) + blocks.shape[1:])
    np.cumsum(blocks, axis=0, out=prefix[1:])
    times = area.path.times
    return prefix, (times[-1] - times[0]) / 2**level


def condition21_recompute(area, alpha: float, beta: float, k: int, m: int,
                          h: float) -> float:
    """The condition-2.1 ratio of the one window ``(k, m)`` of width-h blocks.

    The stored blocks are folded by :func:`level_prefix` to the level of
    width h, and the max-entry norm of the window's prefix-sum difference is
    divided by ``(m - k)^beta h^(2 alpha)``: the scan's own operations, so at
    its argmax the two agree bit for bit.  ``h`` must be a level width
    ``span / 2**level`` to relative 1e-12; any other is refused.
    """
    times = area.path.times
    span = float(times[-1] - times[0])
    level = round(math.log2(span / h)) if h > 0 else 0
    if not abs(h - span / 2**level) <= 1e-12 * (span / 2**level):
        raise ValueError(f"h={h!r} is not a dyadic width span / 2**level of the grid")
    prefix, width = level_prefix(area, level)
    if not 0 <= k < m < prefix.shape[0]:
        raise ValueError(f"window ({k}, {m}) outside level {level}")
    mag = float(np.max(np.abs(prefix[m] - prefix[k])))
    return mag / ((m - k) ** beta * width ** (2 * alpha))


def riemann_area_recovery(path, area, i: int, j: int, n_list) -> np.ndarray:
    """Left-point Riemann sums over the grid pair ``(times[i], times[j])`` against
    the stored area block.

    The sum at resolution N is ``sum_k (x(u_k) - x(s)) (x(u_{k+1}) - x(u_k))``
    over a uniform refinement of ``[s, t] = [times[i], times[j]]`` of the
    piecewise-linear path; the error is the max-entry distance to
    the area over the pair, which :meth:`AreaProcess.pairs` refuses unless
    ``0 <= i <= j`` lie on the grid.
    """
    target = area.pairs([operator.index(i)], [operator.index(j)])[0]
    xs = path.values[i]
    errors = np.empty(len(n_list))
    for m, n in enumerate(n_list):
        if n < 1:
            raise ValueError("refinement counts must be positive")
        u = np.linspace(path.times[i], path.times[j], int(n) + 1)
        xu = np.column_stack([np.interp(u, path.times, col) for col in path.values.T])
        riem = np.einsum("ki,kj->ij", xu[:-1] - xs, np.diff(xu, axis=0))
        errors[m] = float(np.max(np.abs(riem - target)))
    return errors


# --- the chain curve's query pairs -----------------------------------------


def chain_pair_draws(rng: np.random.Generator, n: int, depth: int, delta,
                     total_cells: int) -> np.ndarray:
    """``(3, n)`` rows r, start, gap_cells of the band-statistics query pairs.

    One pair at a time, by three scalar generator calls: a level r in
    [1, depth-1], a log-uniform gap in (delta[r], delta[r-1]] of at least one
    cell, and a start cell leaving room for the gap.
    """
    draws = []
    for _ in range(n):
        r = int(rng.integers(1, depth))
        gap = math.exp(rng.uniform(math.log(delta[r]), math.log(delta[r - 1])))
        gap_cells = max(int(gap * total_cells), 1)
        draws.append((r, int(rng.integers(0, total_cells - gap_cells)), gap_cells))
    return np.array(draws, dtype=np.int64).T


def chain_pair_rejections(rng: np.random.Generator, n: int, depth: int, delta,
                          total_cells: int) -> list[int]:
    """Rejected 32-bit draws of each of ``n`` pairs of :func:`chain_pair_draws`.

    Counted from what each pair spends on PCG64: its words w (one for the
    uniform) and the spare flag h before and after, ``2 (w - 1) + h_before -
    h_after`` halves, two of them kept.
    """
    bits, probe = rng.bit_generator, np.random.PCG64(0)
    out = []
    for _ in range(n):
        before = bits.state
        chain_pair_draws(rng, 1, depth, delta, total_cells)
        probe.state, words = before, 0
        while probe.state["state"] != bits.state["state"]:
            probe.random_raw()
            words += 1
        out.append(2 * (words - 1) + before["has_uint32"] - bits.state["has_uint32"] - 2)
    return out


def pcg64_state_emitting(first: int, second: int) -> dict:
    """A PCG64 ``bit_generator.state`` whose next two raw words are ``first``, ``second``.

    numpy's PCG64 steps its 128-bit state s to ``s * mult + inc``, then
    outputs the XSL-RR word ``rotr64(hi ^ lo, hi >> 58)`` of the new state.
    Each word is inverted to a state with a fixed high half; the increment is
    the one stepping the first state onto the second, kept odd (a full-period
    stream) by flipping the low bit of the second state's high half.
    """
    mult, m64, m128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**64 - 1, 2**128 - 1

    def state_of(word, hi):
        rot = hi >> 58
        return hi << 64 | (((word << rot | word >> (64 - rot)) & m64) ^ hi)

    s1 = state_of(first, 0x0123456789ABCDEF)
    s2 = state_of(second, 0xFEDCBA9876543210)
    if (s2 - s1 * mult) % 2 == 0:
        s2 = state_of(second, 0xFEDCBA9876543211)
    inc = (s2 - s1 * mult) & m128
    s0 = (s1 - inc) * pow(mult, -1, 2**128) & m128
    return {"bit_generator": "PCG64", "state": {"state": s0, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# --- the trajectory CSV ----------------------------------------------------


def trajectory_csv(filename, times: np.ndarray, states: np.ndarray) -> None:
    """``t, y_1, ..., y_n`` rows through ``csv.writer``, one repr float at a time."""
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"y_{i + 1}" for i in range(states.shape[1])])
        for t, row in zip(times, states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
