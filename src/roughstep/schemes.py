"""One-step schemes for controlled systems, their defects, and derived flows.

The two basic schemes share a skeleton: walk a partition of the driver grid,
apply an update built from the field at the left endpoint, stop early if the
state norm crosses the explosion threshold.  The corrected scheme adds the
second-order term contracting :meth:`VectorField.correction_tensor` against
the interval's area block, which is exactly the term whose omission the
two-point defect measures.

Beyond the basic solvers this module provides:

* :func:`augmented_solve`: couples the state with its derivative with respect
  to the initial condition, stepped by differentiating the scheme map itself,
  so the result is the exact Jacobian of the discrete flow (up to roundoff)
  rather than a new approximation.
* :func:`extended_solve`: solves the system extended with three bilinear
  tables (driver-weighted and state-weighted running integrals) used to probe
  second-order consistency of the scheme on products.
* :func:`defect`: two-point defect report with a fitted constant against a
  control modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AreaProcess,
    ControlModulus,
    DefectReport,
    DriverPath,
    NumericsError,
    Partition,
    Trajectory,
    VectorField,
    control_fit,
)

__all__ = [
    "SchemeConfig",
    "euler_solve",
    "corrected_solve",
    "augmented_solve",
    "jacobian_view",
    "ExtendedSolution",
    "extended_solve",
    "defect",
    "window_pairs",
]


@dataclass(frozen=True)
class SchemeConfig:
    """Solver knobs; the default threshold matches the CLI contract.

    ``scheme`` is a dispatch tag ("euler" or "corrected") consumed by callers
    that pick a solver from configuration, e.g. the CLI.  ``gamma`` and ``p``
    ride along for defect reporting; the solvers themselves ignore them.
    """

    scheme: str = "euler"
    explosion_threshold: float = 1e6
    gamma: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.scheme not in ("euler", "corrected"):
            raise ValueError(f"unknown scheme tag {self.scheme!r}")
        if not self.explosion_threshold > 0:
            raise ValueError("explosion threshold must be positive")


def _grid_indices(path: DriverPath, partition: Partition | None) -> np.ndarray:
    """Map partition times onto fine-grid indices.

    Partition points must be members of the driver grid (up to 1e-12 relative
    slack, to absorb float construction differences); anything else is a user
    error, not something to interpolate over silently.
    """
    if partition is None:
        return np.arange(path.times.size)
    pts = partition.times
    idx = np.searchsorted(path.times, pts)
    idx = np.clip(idx, 0, path.times.size - 1)
    # searchsorted returns the left insertion point; the true neighbor can sit
    # one slot earlier when pts[k] is a hair below a grid time.
    left = np.clip(idx - 1, 0, path.times.size - 1)
    take_left = np.abs(path.times[left] - pts) < np.abs(path.times[idx] - pts)
    idx = np.where(take_left, left, idx)
    scale = max(1.0, float(np.max(np.abs(path.times))))
    if np.any(np.abs(path.times[idx] - pts) > 1e-12 * scale):
        bad = pts[np.abs(path.times[idx] - pts) > 1e-12 * scale][0]
        raise ValueError(f"partition point {bad!r} is not on the driver grid")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("partition maps to non-increasing grid indices")
    return idx


def _run_scheme(
    field: VectorField,
    path: DriverPath,
    y0,
    partition: Partition | None,
    config: SchemeConfig | None,
    step,
    tag: str,
) -> Trajectory:
    cfg = config or SchemeConfig()
    idx = _grid_indices(path, partition)
    times = path.times[idx]
    y = np.asarray(y0, dtype=float).reshape(-1).copy()
    if y.size != field.n:
        raise ValueError(f"y0 has dimension {y.size}, field expects {field.n}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"y0 must be finite, got {y.tolist()}")
    states = [y.copy()]
    exploded_at = None
    if float(np.linalg.norm(y)) > cfg.explosion_threshold:
        exploded_at = 0
    else:
        for k in range(idx.size - 1):
            y = step(y, idx[k], idx[k + 1])
            if not np.all(np.isfinite(y)):
                raise NumericsError(
                    f"non-finite state after step {k} (t={times[k + 1]:.6g}, scheme={tag})"
                )
            states.append(y.copy())
            if float(np.linalg.norm(y)) > cfg.explosion_threshold:
                exploded_at = k + 1
                break
    states = np.asarray(states)
    return Trajectory(
        times=times[: states.shape[0]],
        states=states,
        scheme=tag,
        exploded_at=exploded_at,
    )


def euler_solve(
    field: VectorField,
    path: DriverPath,
    y0,
    partition: Partition | None = None,
    config: SchemeConfig | None = None,
) -> Trajectory:
    """First-order scheme: y += f(y) dx per cell."""
    x = path.values

    def step(y, i, j):
        return y + field.eval(y) @ (x[j] - x[i])

    return _run_scheme(field, path, y0, partition, config, step, "euler")


def corrected_solve(
    field: VectorField,
    path: DriverPath,
    area: AreaProcess,
    y0,
    partition: Partition | None = None,
    config: SchemeConfig | None = None,
) -> Trajectory:
    """Second-order scheme: y += f(y) dx + G(y) : A per cell.

    ``G`` is the field's correction tensor and ``A`` the area block of the
    cell, looked up through the process's Chen algebra so coarse partitions
    stay consistent with the fine grid.
    """
    if area.path is not path and not np.array_equal(area.path.times, path.times):
        raise ValueError("area process was built on a different grid than the path")
    if not field.has_deriv1:
        raise NotImplementedError("corrected scheme needs the field's first derivative")
    x = path.values

    def step(y, i, j):
        a = area.pair(i, j)
        return (
            y
            + field.eval(y) @ (x[j] - x[i])
            + np.einsum("irj,rj->i", field.correction_tensor(y), a)
        )

    return _run_scheme(field, path, y0, partition, config, step, "corrected")


def augmented_solve(
    field: VectorField,
    path: DriverPath,
    y0,
    scheme: str = "euler",
    area: AreaProcess | None = None,
    partition: Partition | None = None,
    config: SchemeConfig | None = None,
    z0=None,
) -> Trajectory:
    """Solve state and initial-condition sensitivity together.

    The sensitivity block is stepped with the literal derivative of the
    one-step map, so its output converges to the Jacobian of the discrete
    flow at the same rate as the state and, for a fixed partition, *is* that
    Jacobian up to roundoff.  States are ``concat(y, Z.ravel())`` with
    ``Z[i, N] = d y_i / d y0_N`` flattened row-major.

    Args:
        scheme: ``"euler"`` or ``"corrected"``.
        z0: optional initial sensitivity, defaults to the identity.
    """
    n = field.n
    x = path.values
    if scheme not in ("euler", "corrected"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "corrected":
        if area is None:
            raise ValueError("corrected augmented solve needs an area process")
        if not (field.has_deriv1 and field.has_deriv2):
            raise NotImplementedError(
                "corrected augmented solve needs first and second derivatives"
            )
    elif not field.has_deriv1:
        raise NotImplementedError("augmented solve needs the field's first derivative")

    z_init = np.eye(n) if z0 is None else np.asarray(z0, dtype=float).reshape(n, n)
    big0 = np.concatenate([np.asarray(y0, dtype=float).reshape(-1), z_init.ravel()])

    def step(big, i, j):
        y = big[:n]
        z = big[n:].reshape(n, n)
        dx = x[j] - x[i]
        f = field.eval(y)
        d1 = field.deriv1(y)
        y_new = y + f @ dx
        z_new = z + np.einsum("hij,hN,j->iN", d1, z, dx)
        if scheme == "corrected":
            a = area.pair(i, j)
            d2 = field.deriv2(y)
            y_new = y_new + np.einsum("hr,hij,rj->i", f, d1, a)
            z_new = z_new + np.einsum("qhr,qN,hij,rj->iN", d1, z, d1, a)
            z_new = z_new + np.einsum("hr,qhij,qN,rj->iN", f, d2, z, a)
        return np.concatenate([y_new, z_new.ravel()])

    # Explosion is judged on the full augmented state; callers who care about
    # the bare state norm should solve it separately.
    aug_field_n = n + n * n
    shim = VectorField(aug_field_n, path.d, lambda y: np.zeros((aug_field_n, path.d)))
    traj = _run_scheme(shim, path, big0, partition, config, step, f"augmented-{scheme}")
    return traj


def jacobian_view(trajectory: Trajectory, n: int) -> np.ndarray:
    """Reshape an augmented trajectory's sensitivity block to ``(L, n, n)``."""
    if trajectory.states.shape[1] != n + n * n:
        raise ValueError("trajectory does not look augmented for this dimension")
    ln = trajectory.states.shape[0]
    return trajectory.states[:, n:].reshape(ln, n, n)


def _extended_layout(n: int, d: int):
    off_y = d
    off_xf = d + n
    off_yx = off_xf + d * n
    off_yf = off_yx + n * d
    total = off_yf + n * n
    return off_y, off_xf, off_yx, off_yf, total


def extended_field(base: VectorField, d: int) -> VectorField:
    """Coefficient field of the extended system on R^{d+n+dn+nd+nn}.

    State layout: driver copy x (d), state y (n), then three running tables
    flattened row-major: ``xf[i, l]`` integrating x_i against f_l dx,
    ``yx[k, j]`` integrating y_k against dx_j, ``yf[k, l]`` integrating y_k
    against f_l dx.  Only the x and y blocks feed back into the coefficients,
    so the first derivative is sparse in the table directions and no second
    derivative is needed by the corrected scheme on this system (the tables'
    coefficients are at most bilinear in (x, y)).
    """
    n = base.n
    off_y, off_xf, off_yx, off_yf, total = _extended_layout(n, d)
    eye_d = np.eye(d)

    def split(big):
        return big[:d], big[off_y : off_y + n]

    def func(big):
        x, y = split(big)
        f = base.eval(y)
        out = np.zeros((total, d))
        out[:d] = eye_d
        out[off_y : off_y + n] = f
        out[off_xf : off_xf + d * n] = (x[:, None, None] * f[None, :, :]).reshape(d * n, d)
        out[off_yx : off_yx + n * d] = (y[:, None, None] * eye_d[None, :, :]).reshape(n * d, d)
        out[off_yf : off_yf + n * n] = (y[:, None, None] * f[None, :, :]).reshape(n * n, d)
        return out

    def deriv1(big):
        x, y = split(big)
        f = base.eval(y)
        d1 = base.deriv1(y)
        out = np.zeros((total, total, d))
        for h in range(n):
            out[off_y + h, off_y : off_y + n] = d1[h]
        for q in range(d):
            for l in range(n):
                out[q, off_xf + q * n + l] = f[l]
        for h in range(n):
            block = (x[:, None, None] * d1[h][None, :, :]).reshape(d * n, d)
            out[off_y + h, off_xf : off_xf + d * n] = block
            out[off_y + h, off_yx + h * d : off_yx + (h + 1) * d] = eye_d
            out[off_y + h, off_yf + h * n : off_yf + (h + 1) * n] += f
            blk = (y[:, None, None] * d1[h][None, :, :]).reshape(n * n, d)
            out[off_y + h, off_yf : off_yf + n * n] += blk
        return out

    return VectorField(total, d, func, deriv1=deriv1, smoothness=base.smoothness)


@dataclass
class ExtendedSolution:
    """Trajectory of the extended system plus calibrated two-point tables."""

    trajectory: Trajectory
    base_field: VectorField
    path: DriverPath
    n: int
    d: int

    def _blocks(self):
        n, d = self.n, self.d
        off_y, off_xf, off_yx, off_yf, total = _extended_layout(n, d)
        s = self.trajectory.states
        ln = s.shape[0]
        return (
            s[:, :d],
            s[:, off_y : off_y + n],
            s[:, off_xf : off_xf + d * n].reshape(ln, d, n),
            s[:, off_yx : off_yx + n * d].reshape(ln, n, d),
            s[:, off_yf : off_yf + n * n].reshape(ln, n, n),
        )

    @property
    def x_states(self) -> np.ndarray:
        return self._blocks()[0]

    @property
    def y_states(self) -> np.ndarray:
        return self._blocks()[1]

    def pair_tables(self, k: int, l: int) -> dict[str, np.ndarray]:
        """Two-point table increments calibrated at the left endpoint.

        The calibration subtracts the left-frozen bilinear term so that each
        table starts from zero on its own interval:

        * ``xf[i, m] -> xf(l) - xf(k) - x_i(k) * (f(y_k) dx)_m``
        * ``yx[q, j] -> yx(l) - yx(k) - y_q(k) * dx_j``
        * ``yf[q, m] -> yf(l) - yf(k) - y_q(k) * (f(y_k) dx)_m``
        """
        x, y, xf, yx, yf = self._blocks()
        if not 0 <= k <= l < x.shape[0]:
            raise IndexError("pair outside the solved range")
        dx = x[l] - x[k]
        fdx = self.base_field.eval(y[k]) @ dx
        return {
            "xf": xf[l] - xf[k] - np.outer(x[k], fdx),
            "yx": yx[l] - yx[k] - np.outer(y[k], dx),
            "yf": yf[l] - yf[k] - np.outer(y[k], fdx),
        }

    def chain_residuals(self, k: int, m: int, l: int) -> dict[str, float]:
        """Max-norm residuals of the two-point tables' own chain identity.

        For each table ``T`` the identity reads
        ``T(k, l) = T(k, m) + T(m, l) + (left weight at m - left weight at k)
        x (first-order increment over (m, l))`` and it holds exactly in exact
        arithmetic because both sides telescope the same sums; the residual
        reported here is pure floating-point noise plus nothing else.
        """
        x, y, _, _, _ = self._blocks()
        t_kl = self.pair_tables(k, l)
        t_km = self.pair_tables(k, m)
        t_ml = self.pair_tables(m, l)
        dx = x[l] - x[m]
        f_k = self.base_field.eval(y[k])
        f_m = self.base_field.eval(y[m])
        cross = {
            "xf": np.outer(x[m], f_m @ dx) - np.outer(x[k], f_k @ dx),
            "yx": np.outer(y[m] - y[k], dx),
            "yf": np.outer(y[m], f_m @ dx) - np.outer(y[k], f_k @ dx),
        }
        out = {}
        for key in t_kl:
            res = t_kl[key] - t_km[key] - t_ml[key] - cross[key]
            out[key] = float(np.max(np.abs(res)))
        return out


def extended_solve(
    field: VectorField,
    path: DriverPath,
    area: AreaProcess,
    y0,
    partition: Partition | None = None,
    config: SchemeConfig | None = None,
) -> ExtendedSolution:
    """Solve the table-extended system with the corrected scheme.

    The x block reproduces the driver exactly (its coefficients are constant,
    so the correction vanishes on it); the y block coincides with a plain
    corrected solve; the three tables accumulate left-point bilinear sums
    with their own second-order corrections.
    """
    if not field.has_deriv1:
        raise NotImplementedError("extended solve needs the field's first derivative")
    ext = extended_field(field, path.d)
    idx = _grid_indices(path, partition)
    x0 = path.values[idx[0]]
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    big0 = np.concatenate([x0, y0, np.zeros(ext.n - path.d - field.n)])
    # The extended state contains a literal driver copy, so a state-norm
    # explosion test against the default threshold stays meaningful.
    traj = corrected_solve(ext, path, area, big0, partition=partition, config=config)
    traj.scheme = "extended-corrected"
    return ExtendedSolution(
        trajectory=traj, base_field=field, path=path, n=field.n, d=path.d
    )


def window_pairs(n_points: int, max_span: int) -> np.ndarray:
    """All index pairs (k, l), k < l <= k + max_span, as an (m, 2) array."""
    if n_points < 2:
        return np.zeros((0, 2), dtype=int)
    pairs = [
        (k, l)
        for k in range(n_points - 1)
        for l in range(k + 1, min(k + max_span, n_points - 1) + 1)
    ]
    return np.asarray(pairs, dtype=int)


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

    For the Euler scheme the defect over (s, t) is
    ``y_t - y_s - f(y_s) (x_t - x_s)``; the corrected scheme subtracts its
    area term as well.  Magnitudes are componentwise sup norms, compared to
    ``omega(s, t)^(gamma / p)``; the fitted constant is the max ratio.

    Args:
        pairs: ``None`` or ``"window"`` for all pairs up to ``max_span``
            cells apart, ``"adjacent"`` for single cells, or an explicit
            ``(m, 2)`` integer array of trajectory indices.
        control: reuse a pre-fitted modulus (recommended when comparing
            reports across partitions of the same driver, so the scale does
            not drift with the grid); fitted on the trajectory's own grid
            points when omitted.
    """
    if gamma <= 0 or p <= 0:
        raise ValueError("gamma and p must be positive")
    idx = _grid_indices(path, Partition(trajectory.times))
    x = path.values
    y = trajectory.states
    corrected = trajectory.scheme.startswith("corrected") or trajectory.scheme.startswith(
        "extended"
    )
    if corrected and area is None:
        raise ValueError("corrected-scheme defects need the area process")
    if gamma > 2 and area is None:
        raise ValueError("defect exponents above 2 need the area process")

    if pairs is None or (isinstance(pairs, str) and pairs == "window"):
        pair_arr = window_pairs(idx.size, max_span)
        policy = "window"
    elif isinstance(pairs, str) and pairs == "adjacent":
        pair_arr = np.column_stack(
            [np.arange(idx.size - 1), np.arange(1, idx.size)]
        )
        policy = "adjacent"
    else:
        pair_arr = np.asarray(pairs, dtype=int)
        if pair_arr.ndim != 2 or pair_arr.shape[1] != 2:
            raise ValueError("explicit pairs must be an (m, 2) integer array")
        policy = "custom"
    if pair_arr.shape[0] == 0:
        raise ValueError("no pairs to evaluate")

    if control is None:
        control = control_fit(
            DriverPath(trajectory.times, x[idx]), p
        )

    mags = np.empty(pair_arr.shape[0])
    for m, (k, l) in enumerate(pair_arr):
        if not 0 <= k < l < idx.size:
            raise IndexError(f"pair ({k}, {l}) outside the trajectory")
        dx = x[idx[l]] - x[idx[k]]
        # mirror the solver's operation order exactly, so the defect of an
        # adjacent pair under the matching scheme cancels bitwise to zero
        recon = y[k] + field.eval(y[k]) @ dx
        if corrected:
            a = area.pair(idx[k], idx[l])
            recon = recon + np.einsum(
                "irj,rj->i", field.correction_tensor(y[k]), a
            )
        mags[m] = np.max(np.abs(y[l] - recon))

    omegas = control.omega(trajectory.times[pair_arr[:, 0]], trajectory.times[pair_arr[:, 1]])
    ratios = mags / omegas ** (gamma / p)
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
    )
