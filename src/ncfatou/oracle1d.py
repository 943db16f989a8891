"""Independent one-variable oracle: circle quadrature, Fatou symbol, Toeplitz.

Ground truth for the d=1 cross-checks.  Quadrature is a uniform trapezoid
grid on the circle (exact for trigonometric polynomials of degree below
half the grid size); point masses are handled symbolically and never
sampled, so singular parts cannot leak into the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import toeplitz
from .measure import MomentFunctional
from .words import WordBasis

DEFAULT_GRID = 4096

#: Radial proxy used to evaluate boundary values of an analytic symbol.
BOUNDARY_RHO = 1.0 - 1e-8


def circle_grid(size: int = DEFAULT_GRID) -> np.ndarray:
    """Uniform unimodular nodes exp(2 pi i g / size)."""
    if size < 4 or size & (size - 1):
        raise ValueError(f"grid size must be a power of two >= 4, got {size}")
    return np.exp(2j * np.pi * np.arange(size) / size)


def eval_poly(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate an analytic polynomial/power series sum c_k z^k."""
    coeffs = np.asarray(coeffs, dtype=complex)
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def fatou_symbol(b_coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """(1 - |b|^2) / |1 - b|^2 at unimodular points, via the radial proxy.

    Values where |1 - b| < 1e-12 are reported as +inf.
    """
    z = np.asarray(zeta, dtype=complex)
    bv = eval_poly(b_coeffs, BOUNDARY_RHO * z)
    num = 1.0 - np.abs(bv) ** 2
    den = np.abs(1.0 - bv) ** 2
    out = np.full(np.shape(z), np.inf)
    ok = den >= 1e-24
    out[ok] = num[ok] / den[ok]
    return out


def fourier_coefficients(samples: np.ndarray, n_max: int) -> np.ndarray:
    """hat h(n) = int conj(zeta)^n h dm for n = 0..n_max, by FFT."""
    samples = np.asarray(samples, dtype=complex)
    G = len(samples)
    if n_max >= G // 2:
        raise ValueError(f"grid of {G} nodes resolves coefficients only below {G // 2}")
    return np.fft.fft(samples)[:n_max + 1] / G


def toeplitz_from_symbol(samples: np.ndarray, M: int) -> np.ndarray:
    """(M+1) x (M+1) Hermitian Toeplitz matrix with entries hat h(j - k)."""
    G = len(samples)
    if G < 4 * (M + 1) or G & (G - 1):
        raise ValueError(
            f"grid size must be a power of two >= {4 * (M + 1)}, got {G}")
    c = fourier_coefficients(samples, M)
    return toeplitz(c, c.conj())


@dataclass(frozen=True)
class MeasureSpec:
    """A d=1 measure: point masses at unimodular points plus a density.

    point_masses: list of (angle, weight >= 0) with the mass at exp(i angle).
    density: samples of a nonnegative density w.r.t. normalized Lebesgue
    measure on circle_grid(grid).
    """

    point_masses: tuple = ()
    density: np.ndarray | None = None
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        for angle, weight in self.point_masses:
            if weight < 0:
                raise ValueError(f"negative point mass {weight} at angle {angle}")
        if self.density is not None:
            dens = np.ascontiguousarray(self.density, dtype=float)
            if len(dens) != self.grid:
                raise ValueError("density sample count must equal the grid size")
            if dens.min() < 0:
                raise ValueError(f"negative density sample {dens.min()}")
            object.__setattr__(self, "density", dens)


def classical_moments(spec: MeasureSpec, N: int) -> MomentFunctional:
    """mu(S^k) = int zeta^k dmu for k = 0..N, point masses done exactly."""
    moments = np.zeros(N + 1, dtype=complex)
    for angle, weight in spec.point_masses:
        zeta = np.exp(1j * angle)
        moments += weight * zeta ** np.arange(N + 1)
    if spec.density is not None:
        if N >= spec.grid // 2:
            raise ValueError(
                f"grid of {spec.grid} nodes resolves moments only below {spec.grid // 2}")
        # int zeta^k h dm = conj(hat h(k)) for real h
        moments += np.conj(np.fft.rfft(spec.density)[:N + 1]) / spec.grid
    return MomentFunctional(WordBasis(1, N), moments)


def poisson_density(r: float, center_angle: float = 0.0,
                    grid: int = DEFAULT_GRID) -> np.ndarray:
    """Poisson kernel (1 - r^2)/|1 - r conj(c) zeta|^2 sampled on the grid."""
    if not 0 <= r < 1:
        raise ValueError(f"Poisson radius must be in [0,1), got {r}")
    zetas = circle_grid(grid)
    c = np.exp(1j * center_angle)
    return (1.0 - r ** 2) / np.abs(1.0 - r * np.conj(c) * zetas) ** 2
