"""Reference quantum phase-space quantities to hold the path picture against.

Two standard descriptions of the oscillator eigenstates:

* The momentum marginal of the Wigner function ``F_n(x, p)``: integrating
  over x gives the momentum-space density |psi~_n(p)|^2 -- which, notably,
  looks nothing like the path distributions: it oscillates, while the path
  distributions show a single ridge at the classical momentum.
* Coherent-state overlaps ``C_n(alpha) = |<alpha|n>|^2``, whose maxima over
  |alpha| sit at the classical energies, mirroring the path-distribution
  peaks.

The marginal is computed here by quadrature and *tested* against the
closed form (:func:`momentum_density`); the cross-validation is the point.
Over x the Wigner function is ``exp(-xi^2)`` times a polynomial of degree
2n in ``xi = x / sqrt(hbar/(M*omega))``, so the (n + 1)-node Gauss-Hermite
rule integrates it exactly; the marginal broadcasts over p with one ordered
sum over the nodes.  The overlaps broadcast over ``|alpha|``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError
from .specfun import MAX_DEGREE, hermite, laguerre
from .systems import SystemKind, SystemSpec, _finite

__all__ = [
    "wigner_momentum_marginal",
    "momentum_density",
    "coherent_overlap",
]


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


def wigner_momentum_marginal(n: int, p: ArrayLike, system: SystemSpec) -> NDArray[np.float64] | float:
    """``int F_n(x, p) dx``: the momentum-space density |psi~_n(p)|^2.

    With ``xi = x/l``, ``l = sqrt(hbar/(M*omega))`` and ``eta = p/sqrt(hbar*M*omega)``
    the marginal is ``l * (-1)^n/(pi*hbar) * exp(-eta^2) * sum_i w_i L_n(2 xi_i^2 + 2 eta^2)``
    over the (n + 1) Gauss-Hermite nodes ``xi_i`` and weights ``w_i``, exact
    for a polynomial of degree 2n.  Broadcasts over ``p`` (a scalar gives a float).
    """
    n = _level(n)
    hbar, mass, omega = _require_oscillator(system)
    eta = _finite(p, "marginal points") / math.sqrt(hbar * mass * omega)
    nodes, weights = hermgauss(n + 1)
    front = math.sqrt(hbar / (mass * omega)) * (-1.0 if n % 2 else 1.0) / (math.pi * hbar)
    with np.errstate(over="ignore", invalid="ignore"):
        eta2 = eta * eta
        terms = weights * laguerre(n, 2.0 * nodes * nodes + 2.0 * eta2[..., None])
        out = front * np.exp(-eta2) * np.sum(terms, axis=-1)
    # an underflowed Gaussian times an overflowed polynomial: the limit 0, as in _wigner_values
    out = np.where(np.isfinite(out), out, 0.0)
    return float(out) if eta.ndim == 0 else out


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


def coherent_overlap(n: int, alpha_magnitude: ArrayLike) -> NDArray[np.float64] | float:
    """``|<alpha|n>|^2 = exp(-|alpha|^2) |alpha|^{2n} / n!`` (a Poisson weight).

    Evaluated in log space, so no level up to ``MAX_DEGREE`` overflows.
    Broadcasts over ``alpha_magnitude`` (a scalar gives a float).
    """
    n = _level(n)
    a = np.asarray(alpha_magnitude, dtype=float)
    if not np.all(np.isfinite(a) & (a >= 0)):
        raise DomainError("alpha_magnitude is a magnitude: every entry must be finite and >= 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # |alpha| = 0 or past sqrt(float max)
        out = np.exp(-a * a + 2.0 * n * np.log(a) - math.lgamma(n + 1.0))
    out = np.where(a > 0.0, out, 1.0 if n == 0 else 0.0)
    return float(out) if a.ndim == 0 else out
