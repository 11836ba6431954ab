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
built in row blocks of at most ``_BLOCK_CELLS`` and each row is one
:func:`~pathspectra.quadrature.trapezoid`, bit-identical whatever the block
holds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError
from .quadrature import trapezoid
from .specfun import MAX_DEGREE, hermite, laguerre
from .systems import SystemKind, SystemSpec, _finite

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


def _level(n: float) -> int:
    """Oscillator level ``n`` as an int: an integer in [0, MAX_DEGREE], as in :class:`EigenstateSpec`."""
    if n not in range(MAX_DEGREE + 1):  # 2.0 is in; 1.5, -1, NaN and inf are not
        raise DomainError(f"oscillator level must be an integer in [0, {MAX_DEGREE}], got {n!r}")
    return int(n)


def _wigner_values(n: int, x: NDArray, p: NDArray, system: SystemSpec) -> NDArray:
    hbar, mass, omega = _require_oscillator(system)
    sign = -1.0 if n % 2 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        arg = 2.0 * mass * omega * x * x / hbar + 2.0 * p * p / (hbar * mass * omega)
        values = sign / (math.pi * hbar) * np.exp(-0.5 * arg) * laguerre(n, arg)
    # finite inputs give inf/NaN only as an underflowed Gaussian times an overflowed polynomial: limit 0
    return np.where(np.isfinite(values), values, 0.0)


def wigner(n: int, point: PhaseSpacePoint, system: SystemSpec) -> float:
    """Wigner function of oscillator eigenstate ``n`` at one phase-space point.

    ``(-1)^n/(pi*hbar) * exp(-M*omega*x^2/hbar - p^2/(hbar*M*omega))
    * L_n(2*M*omega*x^2/hbar + 2*p^2/(hbar*M*omega))`` -- real, and negative
    in rings for every n >= 1.
    """
    return float(_wigner_values(_level(n), point.x, point.p, system))


def _marginal(
    n: int, points: ArrayLike, grid: ArrayLike, system: SystemSpec, label: str
) -> NDArray[np.float64] | float:
    """Trapezoid of the Wigner function over the ``label`` ("x" or "p") grid, at every entry of ``points``.

    Rows are built in blocks of at most ``_BLOCK_CELLS`` samples and each is
    its own ``np.sum``, so the block size cannot change a result.  A grid
    short of the state's extent warns with :class:`TailMassWarning`."""
    n = _level(n)
    grid = _finite(grid, f"{label}_grid")
    span = float(grid.max()) - float(grid.min()) if grid.ndim == 1 and grid.size >= 2 else math.nan
    if not (math.isfinite(span) and np.all(np.diff(grid) > 0)):
        raise DomainError(f"{label}_grid must be 1-D and ascending, with at least 2 points and a finite span")
    hbar, mass, omega = _require_oscillator(system)
    scale = hbar / (mass * omega) if label == "x" else hbar * mass * omega
    needed = 5.0 * math.sqrt(2.0 * n + 1.0) * math.sqrt(scale)
    reach = float(min(-grid[0], grid[-1]))
    if reach < needed:
        warnings.warn(
            f"{label}-grid reaches {reach:.3g} but the state extends to ~{needed:.3g}; "
            "marginal may be missing tail mass",
            TailMassWarning,
            stacklevel=3,
        )
    pts = _finite(points, "marginal points")
    flat = pts.ravel()
    out = np.empty(flat.size)
    rows = max(1, _BLOCK_CELLS // grid.size)
    for start in range(0, flat.size, rows):
        block = flat[start : start + rows, None]
        x, p = (grid, block) if label == "x" else (block, grid)
        out[start : start + rows] = trapezoid(grid, _wigner_values(n, x, p, system))
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


def wigner_momentum_marginal(
    n: int, p: ArrayLike, system: SystemSpec, x_grid: ArrayLike
) -> NDArray[np.float64] | float:
    """``int F_n(x, p) dx`` by trapezoid: the momentum-space density |psi~_n(p)|^2.

    Broadcasts over ``p`` (a scalar gives a float); each momentum is one
    :func:`~pathspectra.quadrature.trapezoid` row.
    """
    return _marginal(n, p, x_grid, system, "x")


def wigner_position_marginal(
    n: int, x: ArrayLike, system: SystemSpec, p_grid: ArrayLike
) -> NDArray[np.float64] | float:
    """``int F_n(x, p) dp``: the position density |psi_n(x)|^2 (dual check).

    Broadcasts over ``x`` like :func:`wigner_momentum_marginal` over ``p``.
    """
    return _marginal(n, x, p_grid, system, "p")


def momentum_density(
    n: int, p: ArrayLike, system: SystemSpec
) -> NDArray[np.float64] | float:
    """Closed-form |psi~_n(p)|^2, the oracle the quadrature marginal must hit.

    The momentum wavefunction of a Hermite-Gaussian is again a
    Hermite-Gaussian with scale sqrt(hbar*M*omega).
    """
    n = _level(n)
    hbar, mass, omega = _require_oscillator(system)
    scale = math.sqrt(hbar * mass * omega)
    xi = _finite(p, "p") / scale
    log_norm = n * math.log(2.0) + math.lgamma(n + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-xi * xi - log_norm) * np.square(hermite(n, xi)) / (math.sqrt(math.pi) * scale)
    out = np.where(np.isfinite(out), out, 0.0)  # past float range: the limit 0, as in _wigner_values
    return float(out) if xi.ndim == 0 else out


def coherent_overlap(n: int, alpha_magnitude: float) -> float:
    """``|<alpha|n>|^2 = exp(-|alpha|^2) |alpha|^{2n} / n!`` (a Poisson weight).

    Evaluated in log space, so no level up to ``MAX_DEGREE`` overflows.
    """
    n = _level(n)
    a = float(alpha_magnitude)
    if not (math.isfinite(a) and a >= 0):
        raise DomainError(f"alpha_magnitude is a magnitude: must be finite and >= 0, got {a!r}")
    if a == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-a * a + 2.0 * n * math.log(a) - math.lgamma(n + 1.0))
