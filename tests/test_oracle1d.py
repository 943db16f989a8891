import numpy as np
import pytest
from scipy.linalg import toeplitz

from ncfatou.measure import clark_measure
from ncfatou.oracle1d import (MeasureSpec, circle_grid, classical_moments,
                              fatou_symbol, fourier_coefficients, poisson_density,
                              toeplitz_from_symbol)
from ncfatou.series import NCSeries
from ncfatou.words import WordBasis

from helpers import herglotz_integral


def test_fatou_symbol_examples():
    grid = circle_grid(64)
    assert np.allclose(fatou_symbol(np.array([0.0]), grid), 1.0)
    # b(z) = z: boundary values unimodular, symbol ~ 0 away from 1
    vals = fatou_symbol(np.array([0.0, 1.0]), grid)
    away = np.abs(grid - 1.0) > 0.5
    assert np.abs(vals[away]).max() < 1e-6
    # b = z/2 at zeta = 1: (1 - 1/4)/(1/4) = 3
    val = fatou_symbol(np.array([0.0, 0.5]), np.array([1.0 + 0.0j]))
    assert val[0] == pytest.approx(3.0, abs=1e-6)


def test_fatou_symbol_pole_sentinel():
    # b == 1 makes the denominator vanish identically
    vals = fatou_symbol(np.array([1.0]), np.array([1.0j]))
    assert np.isinf(vals[0])


def test_toeplitz_from_symbol_examples():
    ones = np.ones(256)
    assert np.allclose(toeplitz_from_symbol(ones, 5), np.eye(6))
    dens = poisson_density(0.55, grid=1024)
    T = toeplitz_from_symbol(dens, 6)
    assert np.abs(T - toeplitz(0.55 ** np.arange(7))).max() < 1e-12
    with pytest.raises(ValueError):
        toeplitz_from_symbol(np.ones(16), 6)  # grid below 4(M+1)
    with pytest.raises(ValueError):
        toeplitz_from_symbol(np.ones(100), 4)  # not a power of two


def test_classical_moments_examples():
    spec = MeasureSpec(point_masses=((0.0, 1.0),))
    mu = classical_moments(spec, 6)
    assert np.allclose(mu.moments, 1.0)
    leb = MeasureSpec(density=np.ones(512), grid=512)
    mu2 = classical_moments(leb, 6)
    assert np.allclose(mu2.moments, np.eye(7)[0])
    mix = MeasureSpec(point_masses=((0.0, 0.5),), density=np.full(512, 0.5), grid=512)
    mu3 = classical_moments(mix, 6)
    assert mu3.moments[0] == pytest.approx(1.0)
    assert np.allclose(mu3.moments[1:], 0.5)


def test_classical_moments_rejects_negative_inputs():
    with pytest.raises(ValueError):
        MeasureSpec(point_masses=((0.0, -0.5),))
    with pytest.raises(ValueError):
        MeasureSpec(density=-np.ones(512), grid=512)


def test_quadrature_degree_exactness():
    # trigonometric polynomial of high degree integrates exactly
    grid = 512
    zetas = circle_grid(grid)
    k = 200
    dens = 2.0 + (zetas ** k).real
    mu = classical_moments(MeasureSpec(density=dens, grid=grid), 220)
    assert mu.moments[0] == pytest.approx(2.0, abs=1e-13)
    assert mu.moments[k] == pytest.approx(0.5, abs=1e-13)
    assert abs(mu.moments[k - 1]) < 1e-13
    c = fourier_coefficients(dens, 220)
    assert c[k] == pytest.approx(0.5, abs=1e-13)


def test_clark_correspondence_matches_classical():
    # for b = alpha z the Clark measure has the Fatou symbol as density
    alpha = 0.45
    b1 = WordBasis(1, 10)
    mu_nc = clark_measure(NCSeries.from_dict(b1, {(1,): alpha}))
    grid = circle_grid(2048)
    dens = fatou_symbol(np.array([0.0, alpha]), grid)
    mu_cl = classical_moments(MeasureSpec(density=dens, grid=2048), 10)
    assert np.abs(mu_nc.moments - mu_cl.moments).max() < 1e-7


def test_herglotz_integral_point_mass():
    spec = MeasureSpec(point_masses=((0.0, 1.0),))
    z = 0.3
    assert herglotz_integral(spec, z) == pytest.approx((1 + z) / (1 - z))
    with pytest.raises(ValueError):
        herglotz_integral(spec, 1.2)
