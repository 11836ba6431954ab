"""Reference quantum phase-space quantities to hold the path picture against.

Two standard descriptions of the oscillator eigenstates:

* Wigner functions ``F_n(x, p)`` and their marginals.  Integrating over x
  gives the momentum-space density |psi~_n(p)|^2 -- which, notably, looks
  nothing like the path distributions: it oscillates, while the path
  distributions show a single ridge at the classical momentum.
* Coherent-state overlaps ``C_n(alpha) = |<alpha|n>|^2``, whose maxima over
  |alpha| sit at the classical energies, mirroring the path-distribution
  peaks.

Marginals are computed here by explicit quadrature and *tested* against the
closed forms (:func:`momentum_density`); the cross-validation is the point.
Both marginals broadcast over their fixed coordinate: the Wigner samples are
built in row blocks of at most ``_BLOCK_CELLS`` and each row is one ordered
``np.sum`` of trapezoid cells (not ``math.fsum``), a few ulp from the
compensated sum and bit-identical whatever the block holds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError
from .quadrature import trapezoid_rows
from .specfun import hermite, laguerre
from .systems import SystemKind, SystemSpec

__all__ = [
    "PhaseSpacePoint",
    "TailMassWarning",
    "wigner",
    "wigner_momentum_marginal",
    "wigner_position_marginal",
    "momentum_density",
    "coherent_overlap",
]


# Wigner samples per evaluation block of a marginal (2 MiB of float64)
_BLOCK_CELLS = 1 << 18


class TailMassWarning(UserWarning):
    """A marginal's integration grid may be missing non-negligible tail mass."""


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A point (x, p) of ordinary phase space.

    ``p`` is a Fourier-component momentum, a different animal from the
    characteristic momentum ``p_c`` that labels paths.
    """

    x: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.p)):
            raise DomainError("phase-space coordinates must be finite")


def _require_oscillator(system: SystemSpec) -> tuple[float, float, float]:
    if system.kind is not SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("phase-space comparisons are defined for the oscillator")
    assert system.omega is not None
    return system.hbar, system.mass, system.omega


def _wigner_values(n: int, x: NDArray, p: NDArray, system: SystemSpec) -> NDArray:
    hbar, mass, omega = _require_oscillator(system)
    arg = 2.0 * mass * omega * x * x / hbar + 2.0 * p * p / (hbar * mass * omega)
    sign = -1.0 if n % 2 else 1.0
    return sign / (math.pi * hbar) * np.exp(-0.5 * arg) * laguerre(n, arg)


def wigner(n: int, point: PhaseSpacePoint, system: SystemSpec) -> float:
    """Wigner function of oscillator eigenstate ``n`` at one phase-space point.

    ``(-1)^n/(pi*hbar) * exp(-M*omega*x^2/hbar - p^2/(hbar*M*omega))
    * L_n(2*M*omega*x^2/hbar + 2*p^2/(hbar*M*omega))`` -- real, and negative
    in rings for every n >= 1.
    """
    val = _wigner_values(
        int(n), np.asarray(point.x, dtype=float), np.asarray(point.p, dtype=float), system
    )
    return float(val)


def _span_warning(n: int, reach: float, system: SystemSpec, label: str) -> None:
    hbar, mass, omega = _require_oscillator(system)
    if label == "x":
        needed = 5.0 * math.sqrt(2.0 * n + 1.0) * math.sqrt(hbar / (mass * omega))
    else:
        needed = 5.0 * math.sqrt(2.0 * n + 1.0) * math.sqrt(hbar * mass * omega)
    if reach < needed:
        warnings.warn(
            f"{label}-grid reaches {reach:.3g} but the state extends to ~{needed:.3g}; "
            "marginal may be missing tail mass",
            TailMassWarning,
            stacklevel=3,
        )


def _marginal(
    points: ArrayLike, grid: NDArray, values: Callable[[NDArray], NDArray]
) -> NDArray[np.float64] | float:
    """Trapezoid over ``grid`` of ``values(rows)`` for every entry of ``points``.

    ``values`` maps a column of fixed coordinates to their Wigner rows; the
    rows are built in blocks of at most ``_BLOCK_CELLS`` samples, and each
    row is reduced on its own, so the block size cannot change a result.
    """
    pts = np.asarray(points, dtype=float)
    flat = pts.ravel()
    out = np.empty(flat.size)
    rows = max(1, _BLOCK_CELLS // grid.size)
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows, None]
        out[start : start + rows] = trapezoid_rows(grid, values(block))
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


def wigner_momentum_marginal(
    n: int, p: ArrayLike, system: SystemSpec, x_grid: ArrayLike
) -> NDArray[np.float64] | float:
    """``int F_n(x, p) dx`` by trapezoid: the momentum-space density |psi~_n(p)|^2.

    Broadcasts over ``p`` (a scalar gives a float); each momentum's cells
    are an ordered ``np.sum`` (see :func:`~pathspectra.quadrature.trapezoid_rows`).
    """
    x = np.asarray(x_grid, dtype=float)
    _span_warning(int(n), float(min(-x[0], x[-1])), system, "x")
    return _marginal(p, x, lambda rows: _wigner_values(int(n), x, rows, system))


def wigner_position_marginal(
    n: int, x: ArrayLike, system: SystemSpec, p_grid: ArrayLike
) -> NDArray[np.float64] | float:
    """``int F_n(x, p) dp``: the position density |psi_n(x)|^2 (dual check).

    Broadcasts over ``x`` like :func:`wigner_momentum_marginal` over ``p``.
    """
    p = np.asarray(p_grid, dtype=float)
    _span_warning(int(n), float(min(-p[0], p[-1])), system, "p")
    return _marginal(x, p, lambda rows: _wigner_values(int(n), rows, p, system))


def momentum_density(
    n: int, p: ArrayLike, system: SystemSpec
) -> NDArray[np.float64] | float:
    """Closed-form |psi~_n(p)|^2, the oracle the quadrature marginal must hit.

    The momentum wavefunction of a Hermite-Gaussian is again a
    Hermite-Gaussian with scale sqrt(hbar*M*omega).
    """
    hbar, mass, omega = _require_oscillator(system)
    scale = math.sqrt(hbar * mass * omega)
    pa = np.asarray(p, dtype=float)
    xi = pa / scale
    log_norm = int(n) * math.log(2.0) + math.lgamma(int(n) + 1.0)
    out = (
        np.exp(-xi * xi - log_norm)
        * hermite(int(n), xi) ** 2
        / (math.sqrt(math.pi) * scale)
    )
    return float(out) if pa.ndim == 0 else out


def coherent_overlap(n: int, alpha_magnitude: float) -> float:
    """``|<alpha|n>|^2 = exp(-|alpha|^2) |alpha|^{2n} / n!`` (a Poisson weight).

    Evaluated in log space so large n stays finite.
    """
    n = int(n)
    if n < 0:
        raise DomainError("quantum number must be nonnegative")
    a = float(alpha_magnitude)
    if a < 0:
        raise DomainError("alpha_magnitude is a magnitude: must be >= 0")
    if a == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-a * a + 2.0 * n * math.log(a) - math.lgamma(n + 1.0))
