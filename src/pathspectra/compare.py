"""Reference quantum phase-space quantities to hold the path picture against.

Two standard descriptions of the oscillator eigenstates:

* The momentum marginal of the Wigner function ``F_n(x, p)``: integrating
  over x gives the momentum-space density |psi~_n(p)|^2 -- which, notably,
  looks nothing like the path distributions: it oscillates, while the path
  distributions show a single ridge at the classical momentum.
* Coherent-state overlaps ``C_n(alpha) = |<alpha|n>|^2``, whose maxima over
  |alpha| sit at the classical energies, mirroring the path-distribution
  peaks.

The marginal is computed here by explicit quadrature and *tested* against
the closed form (:func:`momentum_density`); the cross-validation is the
point.  It broadcasts over p: the Wigner samples are built in row blocks of
at most ``_BLOCK_CELLS`` (256 KiB of float64), in a few buffers allocated
once per call, and each row is reduced by the arithmetic of
:func:`~pathspectra.quadrature.trapezoid`, bit-identical whatever the block
holds.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError
from .specfun import MAX_DEGREE, _laguerre_into, hermite, laguerre
from .systems import SystemKind, SystemSpec, _finite

__all__ = [
    "TailMassWarning",
    "wigner_momentum_marginal",
    "momentum_density",
    "coherent_overlap",
]


# Wigner samples per evaluation block of a marginal: 256 KiB of float64 per buffer, cache-sized
_BLOCK_CELLS = 1 << 15


class TailMassWarning(UserWarning):
    """A marginal's integration grid may be missing non-negligible tail mass."""


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
    """Wigner function of level ``n``, broadcast over ``x`` and ``p``: ``(-1)^n/(pi*hbar)
    * exp(-M*omega*x^2/hbar - p^2/(hbar*M*omega)) * L_n(2*M*omega*x^2/hbar + 2*p^2/(hbar*M*omega))``,
    real and negative in rings for every n >= 1."""
    hbar, mass, omega = _require_oscillator(system)
    sign = -1.0 if n % 2 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        arg = 2.0 * mass * omega * x * x / hbar + 2.0 * p * p / (hbar * mass * omega)
        values = sign / (math.pi * hbar) * np.exp(-0.5 * arg) * laguerre(n, arg)
    # finite inputs give inf/NaN only as an underflowed Gaussian times an overflowed polynomial: limit 0
    return np.where(np.isfinite(values), values, 0.0)


def wigner_momentum_marginal(
    n: int, p: ArrayLike, system: SystemSpec, x_grid: ArrayLike
) -> NDArray[np.float64] | float:
    """``int F_n(x, p) dx`` by trapezoid: the momentum-space density |psi~_n(p)|^2.

    Broadcasts over ``p`` (a scalar gives a float).  Rows are built in blocks
    of at most ``_BLOCK_CELLS`` samples, reusing the same buffers, and each
    momentum is its own :func:`~pathspectra.quadrature.trapezoid` row (the
    same operations, in place), so the block size cannot change a result.
    An ``x_grid`` short of the state's extent warns with
    :class:`TailMassWarning`.
    """
    n = _level(n)
    grid = _finite(x_grid, "x_grid")
    span = float(grid.max()) - float(grid.min()) if grid.ndim == 1 and grid.size >= 2 else math.nan
    if not (math.isfinite(span) and np.all(np.diff(grid) > 0)):
        raise DomainError("x_grid must be 1-D and ascending, with at least 2 points and a finite span")
    hbar, mass, omega = _require_oscillator(system)
    needed = 5.0 * math.sqrt(2.0 * n + 1.0) * math.sqrt(hbar / (mass * omega))
    reach = float(min(-grid[0], grid[-1]))
    if reach < needed:
        warnings.warn(
            f"x-grid reaches {reach:.3g} but the state extends to ~{needed:.3g}; "
            "marginal may be missing tail mass",
            TailMassWarning,
            stacklevel=2,
        )
    pts = _finite(p, "marginal points")
    flat = pts.ravel()
    out = np.empty(flat.size)
    rows = max(1, min(flat.size, _BLOCK_CELLS // grid.size))
    front = (-1.0 if n % 2 else 1.0) / (math.pi * hbar)
    dx = np.diff(grid)
    # the operations of _wigner_values, laguerre and quadrature._cells, in their
    # order, into buffers allocated once: a fresh 2-D temporary per block and
    # step would cost a page-faulted allocation each time
    arg, values, lag, lag_prev, spare = (np.empty((rows, grid.size)) for _ in range(5))
    bad = np.empty((rows, grid.size), dtype=bool)
    cells = np.empty((rows, grid.size - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        x_part = 2.0 * mass * omega * grid * grid / hbar
        p_part = 2.0 * flat * flat / (hbar * mass * omega)
        for start in range(0, flat.size, rows):
            m = min(rows, flat.size - start)
            a, v, c, nonfinite = arg[:m], values[:m], cells[:m], bad[:m]
            np.add(x_part, p_part[start : start + m, None], out=a)
            np.multiply(a, -0.5, out=v)
            np.exp(v, out=v)
            np.multiply(v, front, out=v)
            if n:
                v *= _laguerre_into(n, a, lag[:m], lag_prev[:m], spare[:m])
            # finite inputs give inf/NaN only as an underflowed Gaussian times an overflowed polynomial: limit 0
            np.isfinite(v, out=nonfinite)
            np.logical_not(nonfinite, out=nonfinite)
            np.copyto(v, 0.0, where=nonfinite)
            np.add(v[:, 1:], v[:, :-1], out=c)
            np.multiply(c, 0.5, out=c)
            np.multiply(c, dx, out=c)
            np.sum(c, axis=-1, out=out[start : start + m])
    return float(out[0]) if pts.ndim == 0 else out.reshape(pts.shape)


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
