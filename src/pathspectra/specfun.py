"""Special functions underpinning the oscillator states and window integrals.

Three-term recurrences are used throughout rather than naive series: the
physicists' Hermite polynomials grow like ``2^n n!`` and would overflow inside
any factorial-based formula long before the ``n <= 64`` guard, whereas the
recurrences are forward-stable for real arguments.  The oscillator
eigenfunction folds the Gaussian weight and normalisation *into* the
recurrence so that intermediate values stay O(1) for every ``n`` we allow.

``gaussian_phase_integral`` evaluates the finite Fresnel-type integral

    G(a, b; gamma) = integral_a^b exp(i*gamma*u^2) du

exactly in terms of the standard Fresnel functions C and S.  This is the
primitive behind every window average over a quadratic-phase integrand.

``hermite_phase_integral`` is its oscillator counterpart,

    J_n(lo, hi; q, r) = integral_lo^hi phi_n(xi) exp(i*(q*xi^2 + r*xi)) dxi,

with ``phi_n`` the orthonormal Hermite function: ``J_0`` is an error function
of complex argument, evaluated through the Faddeeva function ``w(z)``
(Abramowitz & Stegun 7.4.32; Poppe & Wijers, ACM TOMS 16 (1990) 38), and
higher ``n`` follow from a three-term ladder whose round-off gain
:func:`hermite_phase_gain` reports.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.special import fresnel, wofz

from .errors import DomainError

__all__ = [
    "MAX_DEGREE",
    "hermite",
    "laguerre",
    "ho_eigenfunction",
    "gaussian_phase_integral",
    "hermite_phase_integral",
    "hermite_phase_gain",
]

# Degrees beyond this are outside our validated range (recurrence round-off
# and, for `hermite`, plain float64 overflow at large |x| become a concern).
MAX_DEGREE = 64


def _check_degree(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"degree must be an integer, got {n!r}")
    if n < 0 or n > MAX_DEGREE:
        raise DomainError(f"degree must be in [0, {MAX_DEGREE}], got {n}")
    return int(n)


def hermite(n: int, x: ArrayLike) -> NDArray[np.float64] | float:
    """Physicists' Hermite polynomial ``H_n(x)``.

    Uses the recurrence ``H_{k+1} = 2x H_k - 2k H_{k-1}`` starting from
    ``H_0 = 1``, ``H_1 = 2x``.  Scalar input returns a float, array input an
    array of the same shape.
    """
    n = _check_degree(n)
    xa = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xa)
    if n == 0:
        return float(h_prev) if xa.ndim == 0 else h_prev
    h = 2.0 * xa
    for k in range(1, n):
        h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
    return float(h) if xa.ndim == 0 else h


def laguerre(n: int, x: ArrayLike) -> NDArray[np.float64] | float:
    """Laguerre polynomial ``L_n(x)``.

    Recurrence: ``(k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}``.
    """
    n = _check_degree(n)
    xa = np.asarray(x, dtype=float)
    l_prev = np.ones_like(xa)
    if n == 0:
        return float(l_prev) if xa.ndim == 0 else l_prev
    l = 1.0 - xa
    for k in range(1, n):
        l, l_prev = ((2.0 * k + 1.0 - xa) * l - k * l_prev) / (k + 1.0), l
    return float(l) if xa.ndim == 0 else l


def ho_eigenfunction(
    n: int,
    x: ArrayLike,
    *,
    hbar: float = 1.0,
    mass: float = 1.0,
    omega: float = 1.0,
) -> NDArray[np.float64] | float:
    """Normalised harmonic-oscillator eigenfunction ``psi_n(x)``.

    Evaluated through the orthonormal Hermite-function recurrence

        phi_{k+1}(xi) = sqrt(2/(k+1)) * xi * phi_k - sqrt(k/(k+1)) * phi_{k-1}

    with ``xi = sqrt(M*omega/hbar) * x`` and
    ``phi_0 = (M*omega/(pi*hbar))^{1/4} exp(-xi^2/2)``, so the Gaussian weight
    damps the polynomial growth at every step.  Normalised to unit L2 norm.
    """
    n = _check_degree(n)
    if hbar <= 0 or mass <= 0 or omega <= 0:
        raise DomainError("hbar, mass and omega must all be positive")
    xa = np.asarray(x, dtype=float)
    xi = np.sqrt(mass * omega / hbar) * xa
    phi_prev = (mass * omega / (np.pi * hbar)) ** 0.25 * np.exp(-0.5 * xi * xi)
    if n == 0:
        return float(phi_prev) if xa.ndim == 0 else phi_prev
    phi = np.sqrt(2.0) * xi * phi_prev
    for k in range(1, n):
        phi, phi_prev = (
            np.sqrt(2.0 / (k + 1.0)) * xi * phi - np.sqrt(k / (k + 1.0)) * phi_prev,
            phi,
        )
    return float(phi) if xa.ndim == 0 else phi


def gaussian_phase_integral(
    a: ArrayLike,
    b: ArrayLike,
    gamma: float,
) -> NDArray[np.complex128] | complex:
    """Finite quadratic-phase integral ``int_a^b exp(i*gamma*u^2) du``.

    For ``gamma > 0`` this is ``sqrt(pi/(2*gamma)) * [(C+iS)(z)]_{z(a)}^{z(b)}``
    with ``z(u) = u*sqrt(2*gamma/pi)``; negative ``gamma`` follows by complex
    conjugation and ``gamma == 0`` degenerates to ``b - a``.  ``a`` and ``b``
    broadcast, so a whole family of windows is priced in one call.

    The Fresnel functions come from :func:`scipy.special.fresnel`, which is
    accurate to a few ulp over the full real line; tests pin this down against
    adaptive quadrature to 1e-10.
    """
    aa = np.asarray(a, dtype=float)
    ba = np.asarray(b, dtype=float)
    scalar = aa.ndim == 0 and ba.ndim == 0
    if gamma == 0.0:
        out = (ba - aa).astype(np.complex128)
        return complex(out) if scalar else out
    g = abs(float(gamma))
    scale = np.sqrt(np.pi / (2.0 * g))
    s_b, c_b = fresnel(ba * np.sqrt(2.0 * g / np.pi))
    s_a, c_a = fresnel(aa * np.sqrt(2.0 * g / np.pi))
    out = scale * ((c_b - c_a) + 1j * (s_b - s_a))
    if gamma < 0.0:
        out = np.conj(out)
    return complex(out) if scalar else out


def _hermite_phase_primitive(
    n: int, xi: NDArray[np.float64], q: float, r: float
) -> list[NDArray[np.complex128]]:
    """Antiderivatives of ``phi_k(xi) exp(i*(q*xi^2 + r*xi))`` for ``k = 0..n``, sampled at ``xi``.

    ``J_0 = pi^(1/4)/(2*sqrt(a)) * exp(-r^2/(4a)) * erf(z)`` with
    ``a = 1/2 - i*q`` and ``z = sqrt(a)*xi - i*r/(2*sqrt(a))``.  Writing
    ``erf`` through ``w`` on the half-plane where ``|w| <= 1``,

        exp(-r^2/(4a)) * erf(z) = +-[exp(-r^2/(4a)) - E(xi) * w(+-i*z)],

    (upper sign for ``Re z >= 0``) where ``E(xi) = exp(-a*xi^2 + i*r*xi)`` is
    the integrand's own Gaussian, keeps every term bounded by one.  Then

        [phi_k e^{i*Phi}] = sqrt(k/2)(1 + 2iq) J_{k-1} + i*r*J_k
                            + sqrt((k+1)/2)(2iq - 1) J_{k+1}

    climbs to ``J_n``, keeping every rung; the boundary terms ``phi_k e^{i*Phi}``
    run on the orthonormal Hermite recurrence alongside.
    """
    a = 0.5 - 1j * q
    root_a = cmath.sqrt(a)
    z = root_a * xi - 0.5j * r / root_a
    gauss = np.exp((-a * xi + 1j * r) * xi)
    tail = cmath.exp(-r * r / (4.0 * a))
    sign = np.where(z.real >= 0.0, 1.0, -1.0)
    j = (math.pi**0.25 / (2.0 * root_a)) * sign * (tail - gauss * wofz(1j * sign * z))
    rungs = [j]
    j_prev = np.zeros_like(j)
    edge = np.pi**-0.25 * gauss  # phi_k(xi) * exp(i*Phi(xi)) at k = 0
    edge_prev = np.zeros_like(edge)
    for k in range(n):
        j, j_prev = (
            edge - math.sqrt(k / 2.0) * (1.0 + 2j * q) * j_prev - 1j * r * j
        ) / (math.sqrt((k + 1) / 2.0) * (2j * q - 1.0)), j
        rungs.append(j)
        edge, edge_prev = (
            math.sqrt(2.0 / (k + 1.0)) * xi * edge - math.sqrt(k / (k + 1.0)) * edge_prev,
            edge,
        )
    return rungs


def hermite_phase_integral(
    n: int,
    lo: ArrayLike,
    hi: ArrayLike,
    q: float,
    r: float,
) -> NDArray[np.complex128] | complex:
    """Finite Hermite-chirp integral ``int_lo^hi phi_n(xi) exp(i*(q*xi^2 + r*xi)) dxi``.

    ``phi_n`` is the orthonormal Hermite function
    ``pi^(-1/4) H_n(xi) exp(-xi^2/2) / sqrt(2^n n!)``.  ``lo`` and ``hi``
    broadcast, so a whole family of windows is priced in one call, and a
    scalar bound is evaluated once.  ``J_0`` is exact to a few ulp through
    :func:`scipy.special.wofz`; each ladder step to higher ``n`` can amplify
    round-off by up to the factor documented in :func:`hermite_phase_gain`,
    which callers check before trusting large ``n`` at large ``|r|``.
    """
    n = _check_degree(n)
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    both = _hermite_phase_primitive(n, np.concatenate((lo_a.ravel(), hi_a.ravel())), q, r)[-1]
    out = both[lo_a.size :].reshape(hi_a.shape) - both[: lo_a.size].reshape(lo_a.shape)
    return complex(out) if out.ndim == 0 else out


def hermite_phase_gain(n: int, q: float, r: float) -> float:
    """Round-off gain of the ladder behind :func:`hermite_phase_integral`.

    Step k of the ladder divides by ``sqrt((k+1)/2) * |2iq - 1|`` and carries
    ``|r| * |J_k|`` forward, so an error in ``J_0`` grows by at most

        G_n = prod_{k<n} max(1, |r| / (sqrt((k+1)/2) * sqrt(1 + 4q^2))).

    ``G_n * eps`` bounds the relative error of ``J_n`` against the scale of
    ``J_0``; it is 1 whenever ``|r|/sqrt(1 + 4q^2) <= 1/sqrt(2)``.  In the
    oscillator's windows ``q = cot(wT)/2`` and ``r = -kappa*x_f/sin(wT)``, so
    the ratio is ``kappa*|x_f|`` at every travel time and the gain depends
    on ``kappa*|x_f|`` only: ``hermite_phase_gain(n, 0.0, kappa*x_f)``.
    """
    n = _check_degree(n)
    ratio = abs(r) / math.sqrt(1.0 + 4.0 * q * q)
    gain = 1.0
    for k in range(n):
        gain *= max(1.0, ratio / math.sqrt((k + 1) / 2.0))
    return gain
