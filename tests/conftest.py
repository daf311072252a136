"""Shared fixtures.

Session scope is used for anything that costs more than ~a second to build
(fine Brownian grids, the oscillatory counterexample, the spiral blow-up
driver); all of them are pure values, so sharing is safe.
"""
from __future__ import annotations

import numpy as np
import pytest

from roughstep.core import GrowthEnvelope, VectorField
from roughstep.drivers import (
    BrownianConfig,
    ChainCurve,
    CounterexampleConfig,
    PolynomialPath,
    analytic_area,
    brownian_path,
    example1_driver,
    example1_solution_pair,
    explosion_driver,
    ito_area,
    stratonovich_area,
)


@pytest.fixture(scope="session")
def gbm_field():
    return VectorField.scalar_linear()


@pytest.fixture(scope="session")
def bm1():
    """Scalar Brownian driver on 2^12 cells, the main convergence testbed."""
    cfg = BrownianConfig(d=1, level=12, seed=42)
    path = brownian_path(cfg)
    area = ito_area(path, cfg)
    return cfg, path, area


@pytest.fixture(scope="session")
def bm2():
    """Planar Brownian driver with bridge off-diagonal areas."""
    cfg = BrownianConfig(d=2, level=12, seed=42)
    path = brownian_path(cfg)
    area = ito_area(path, cfg)
    return cfg, path, area, stratonovich_area(area)


@pytest.fixture(scope="session")
def poly_pair():
    """The (t, t^2) curve with closed-form areas on 512 cells."""
    poly = PolynomialPath([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    path = poly.sample(np.linspace(0.0, 1.0, 513))
    return poly, path, analytic_area(poly, path)


@pytest.fixture(scope="session")
def smooth22():
    """A dense 2x2 field with hand-written first and second derivatives."""

    def func(y):
        u, v = y[..., 0], y[..., 1]
        out = np.ones(y.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0] = np.sin(v), np.cos(u), 0.25 * u * v
        return out

    def d1(y):
        u, v = y[..., 0], y[..., 1]
        out = np.zeros(y.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 1], out[..., 0, 1, 0] = -np.sin(u), 0.25 * v
        out[..., 1, 0, 0], out[..., 1, 1, 0] = np.cos(v), 0.25 * u
        return out

    def d2(y):
        u, v = y[..., 0], y[..., 1]
        out = np.zeros(y.shape[:-1] + (2, 2, 2, 2))
        out[..., 0, 0, 0, 1], out[..., 1, 1, 0, 0] = -np.cos(u), -np.sin(v)
        out[..., 0, 1, 1, 0] = out[..., 1, 0, 1, 0] = 0.25
        return out

    return VectorField(2, 2, func, deriv1=d1, deriv2=d2)


@pytest.fixture(scope="session")
def example1():
    cfg = CounterexampleConfig()
    path, field = example1_driver(cfg)
    return cfg, path, field


@pytest.fixture(scope="session")
def example1_pair(example1):
    """The flat and grown solutions of example 1 on its driver grid."""
    cfg, path, _ = example1
    return example1_solution_pair(cfg, path)


@pytest.fixture(scope="session")
def spiral_driver():
    """Blow-up driver for the envelope family D = R^beta A with A = R^0.4."""
    return explosion_driver(GrowthEnvelope(1.2, 0.4, 0.8), 1.5)


@pytest.fixture(scope="session")
def chain6():
    return ChainCurve(0.7, 6)


@pytest.fixture
def uniform_partition():
    """Grid indices of ``n`` equal cells of a driver path."""
    def make(path, n):
        return np.arange(0, path.n_intervals + 1, path.n_intervals // n)

    return make
