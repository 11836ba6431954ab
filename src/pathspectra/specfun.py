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

``_hermite_phase_primitive`` is its oscillator counterpart: the running
integrals ``J_k(xi) = int^xi phi_k(u) exp(i*(q*u^2 + r*u)) du``, k = 0..n,
of the orthonormal Hermite functions ``phi_k``, whose difference at two
edges prices a window.  ``J_0`` is an error function of complex argument,
evaluated through the Faddeeva function ``w(z)`` (Abramowitz & Stegun
7.4.32), and higher ``k`` follow from a three-term ladder whose round-off
gain :func:`hermite_phase_gain` reports.

Both error functions are computed here, in NumPy alone: ``w(z)`` by
Weideman's rational series (J. A. C. Weideman, *Computation of the complex
error function*, SIAM J. Numer. Anal. 31 (1994) 1497), and ``C + iS`` from
its power series near 0, from ``w`` in the middle and from the auxiliary
functions f and g (A&S 7.3.9-10, 7.3.27-28) far out.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError

__all__ = [
    "MAX_DEGREE",
    "hermite",
    "laguerre",
    "ho_eigenfunction",
    "gaussian_phase_integral",
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


# exp(-xi^2/2) is exactly 0 in float64 beyond |xi| ~ 38.6
_XI_CLIP = 40.0


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
    x is clipped to ``|xi| <= _XI_CLIP`` before it is scaled, so nothing
    overflows and every value past the clip is 0 (``phi_0`` is), not NaN.
    """
    n = _check_degree(n)
    if hbar <= 0 or mass <= 0 or omega <= 0:
        raise DomainError("hbar, mass and omega must all be positive")
    scale = np.sqrt(mass * omega / hbar)
    reach = _XI_CLIP / scale
    xi = scale * np.clip(np.asarray(x, dtype=float), -reach, reach)
    phi_prev = (mass * omega / (np.pi * hbar)) ** 0.25 * np.exp(-0.5 * xi * xi)
    if n == 0:
        return float(phi_prev) if xi.ndim == 0 else phi_prev
    phi = np.sqrt(2.0) * xi * phi_prev
    for k in range(1, n):
        phi, phi_prev = (
            np.sqrt(2.0 / (k + 1.0)) * xi * phi - np.sqrt(k / (k + 1.0)) * phi_prev,
            phi,
        )
    return float(phi) if xi.ndim == 0 else phi


def _horner(coeffs: NDArray[np.float64], u: NDArray) -> NDArray:
    """``sum_k coeffs[k] * u^(K-1-k)``: the highest power's coefficient first.

    ``coeffs`` of shape ``(K, m, 1)`` evaluates m polynomials at once, one
    per row of the ``(m, u.size)`` result.
    """
    p = coeffs[0] * u
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= u
        p += c
    return p


def _weideman_coefficients(n: int, ell: float) -> NDArray[np.float64]:
    """Coefficients ``a_n .. a_1`` of Weideman's series, highest first.

    ``a_k`` is the k-th Fourier cosine coefficient of
    ``f(t) = exp(-t^2) (L^2 + t^2)`` sampled at ``t = L tan(theta/2)`` on the
    4n-point grid ``theta = pi j/(2n)``; ``f`` is even in ``j`` and 0 at
    ``theta = pi``, so the discrete transform is a cosine sum.
    """
    m = 2 * n
    j = np.arange(1, m)
    t = ell * np.tan(0.5 * math.pi * j / m)
    f = np.exp(-t * t) * (ell * ell + t * t)
    k = np.arange(1, n + 1)[:, None]
    a = (ell * ell + 2.0 * np.sum(f * np.cos(math.pi * k * j / m), axis=1)) / (2 * m)
    return a[::-1]


_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
# stored complex: each Horner step then adds without a per-call cast
_WEIDEMAN_A = _weideman_coefficients(_WEIDEMAN_N, _WEIDEMAN_L).astype(complex)


def _faddeeva(z: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)`` for ``Im z >= 0``.

    Weideman's rational series with N = 40 terms and ``L = sqrt(N/sqrt(2))``:

        w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)),  Z = (L + iz)/(L - iz),

    with ``p`` the degree N - 1 polynomial of :func:`_weideman_coefficients`.
    Against 40-digit mpmath its relative error is at most 1.4e-15 over the
    closed upper half-plane for ``|z|`` from 1e-300 to 1e4 (N = 32 stops at
    3e-13; more terms gain nothing).  The error is relative to ``|w|``: on
    the real axis ``Re w = exp(-x^2)`` is far below ``Im w`` once ``|x|`` is
    a few units and carries only an absolute error of that size, which is
    all its callers need, since they use ``w`` only inside complex products.
    Not valid for ``Im z < 0``.

    Works in place on the arrays it allocates and never writes to ``z``.
    """
    iz = 1j * np.asarray(z, dtype=np.complex128)
    d = np.subtract(_WEIDEMAN_L, iz)
    np.divide(1.0, d, out=d)
    iz += _WEIDEMAN_L
    iz *= d  # Z = (L + iz)/(L - iz)
    p = _horner(_WEIDEMAN_A, iz)
    p *= d
    p *= 2.0
    p += 1.0 / math.sqrt(math.pi)
    p *= d
    return p


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


# C + iS = sum_k (i*pi/2)^k x^(2k+1) / (k! (2k+1)): C = x * P_C(x^4) takes the
# even k, S = x^3 * P_S(x^4) the odd; 11 terms each reach 1e-19 at |x| = 1
_FRESNEL_SERIES = np.array(
    [
        [
            [(-1) ** m * (math.pi / 2) ** (2 * m) / (math.factorial(2 * m) * (4 * m + 1))],
            [(-1) ** m * (math.pi / 2) ** (2 * m + 1) / (math.factorial(2 * m + 1) * (4 * m + 3))],
        ]
        for m in reversed(range(11))
    ]
)
# A&S 7.3.27-28 in u = (pi x^2)^-2: pi x f = P_f(u), pi x g = P_g(u) / (pi x^2);
# 8 terms each reach 1e-18 at |x| = 8
_FRESNEL_ASYMPTOTIC = np.array(
    [
        [[(-1) ** m * _double_factorial(4 * m - 1)], [(-1) ** m * _double_factorial(4 * m + 1)]]
        for m in reversed(range(8))
    ],
    dtype=float,
)
_FRESNEL_NEAR = 1.0  # the power series below, w from here
_FRESNEL_FAR = 8.0  # the asymptotic series from here
_FRESNEL_FLAT = 2.0**60  # (g + if)/(pi x) < 3e-19: C and S round to 1/2 from here
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1


def _fresnel_chirp(x: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``cos`` and ``sin`` of ``pi x^2 / 2`` for finite ``x >= 0``.

    ``x^2 = hi + lo`` exactly (Dekker's product), and ``x^2/4`` is reduced
    mod 1 term by term before the phase is formed, so the phase is exact to
    about an ulp of 2*pi however large ``x`` is; rounding ``pi*x^2/2``
    itself would lose about ``x^2 * 1e-16`` of it.
    """
    head = _DEKKER_SPLIT * x
    tail = head - x
    head -= tail
    np.subtract(x, head, out=tail)
    hi = x * x
    lo = head * head
    lo -= hi
    head *= tail
    head += head
    lo += head
    tail *= tail
    lo += tail
    hi *= 0.25
    lo *= 0.25
    hi -= np.rint(hi, out=tail)
    lo -= np.rint(lo, out=tail)
    hi += lo
    hi *= 2.0 * math.pi
    return np.cos(hi, out=lo), np.sin(hi, out=hi)


def _fresnel(x: ArrayLike) -> NDArray[np.complex128]:
    """Fresnel integrals ``C(x) + i S(x)`` with ``C, S = int_0^x cos, sin(pi t^2/2) dt``.

    By ``|x|``: below 1 the power series; up to 8

        C + iS = (1 + i)/2 * [1 - exp(i pi x^2/2) w((sqrt(pi)/2)(1 + i) x)];

    from 8 on ``C + iS = (1 + i)/2 - (g + i f) exp(i pi x^2/2)`` with the
    auxiliary functions' asymptotic series.  The phase ``pi x^2/2`` is
    reduced exactly (:func:`_fresnel_chirp`).  C and S are odd, bit for bit
    (signed zeros included), ``x = +-inf`` gives ``+-(1 + i)/2`` and NaN gives
    NaN.  Against 40-digit mpmath the relative error of ``C + iS`` is at
    most 3e-16 up to ``|x| = 8`` and 2e-16 beyond, to ``|x| = 1e5``.
    """
    xa = np.asarray(x, dtype=float)
    ax = np.abs(xa)
    out = np.full(xa.shape, complex(math.nan, math.nan))
    near = ax < _FRESNEL_NEAR
    far = ax >= _FRESNEL_FAR
    middle = (ax >= _FRESNEL_NEAR) & ~far
    if near.any():
        v = ax[near]
        v2 = v * v
        c, s = _horner(_FRESNEL_SERIES, v2 * v2)
        out.real[near] = v * c
        out.imag[near] = v * v2 * s
    if middle.any():
        v = ax[middle]
        cos, sin = _fresnel_chirp(v)
        w = _faddeeva((0.5 * math.sqrt(math.pi) * (1.0 + 1.0j)) * v)
        out[middle] = (0.5 + 0.5j) * (1.0 - (cos + 1j * sin) * w)
    if far.any():
        # most arguments land here: worked in place, on few temporaries
        v = ax[far]
        np.minimum(v, _FRESNEL_FLAT, out=v)
        t = math.pi * v * v
        u = t * t
        f, g = _horner(_FRESNEL_ASYMPTOTIC, np.reciprocal(u, out=u))
        g /= t
        cos, sin = _fresnel_chirp(v)
        v *= math.pi
        scale = np.reciprocal(v, out=v)  # 1/(pi x)
        re = g * cos
        re -= np.multiply(f, sin, out=t)
        g *= sin
        f *= cos
        g += f
        re *= scale
        g *= scale
        out.real[far] = np.subtract(0.5, re, out=re)
        out.imag[far] = np.subtract(0.5, g, out=g)
    np.copysign(out.real, xa, out=out.real)
    np.copysign(out.imag, xa, out=out.imag)
    return out


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

    The Fresnel functions come from :func:`_fresnel`, within 3e-16 of their
    value at every argument, so each end's term is exact to a few ulp of
    ``scale``; a short window far out loses the digits its difference
    cancels.  Infinite ends give the limits ``C, S(+-inf) = +-1/2``.
    """
    aa = np.asarray(a, dtype=float)
    ba = np.asarray(b, dtype=float)
    scalar = aa.ndim == 0 and ba.ndim == 0
    if gamma == 0.0:
        out = (ba - aa).astype(np.complex128)
        return complex(out) if scalar else out
    g = abs(float(gamma))
    scale = np.sqrt(np.pi / (2.0 * g))
    out = scale * (_fresnel(ba * np.sqrt(2.0 * g / np.pi)) - _fresnel(aa * np.sqrt(2.0 * g / np.pi)))
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
    run on the orthonormal Hermite recurrence alongside.  The first step's
    ``J_{-1}`` and ``phi_{-1}`` are zero, so their terms are left out, and
    each step multiplies by the reciprocal of its divisor.  Works in place
    on the arrays it allocates and never writes to ``xi``.
    """
    a = 0.5 - 1j * q
    root_a = cmath.sqrt(a)
    z = root_a * xi
    z -= 0.5j * r / root_a
    gauss = -a * xi
    gauss += 1j * r
    gauss *= xi
    np.exp(gauss, out=gauss)
    tail = cmath.exp(-r * r / (4.0 * a))
    sign = np.where(z.real >= 0.0, 1.0, -1.0)
    z *= sign
    z *= 1j
    # each product keeps its operand order: NumPy's complex multiply may use
    # fused multiply-adds, and then a swapped product can round differently
    j = _faddeeva(z)
    np.multiply(gauss, j, out=j)
    np.subtract(tail, j, out=j)
    np.multiply(sign, j, out=j)
    np.multiply(math.pi**0.25 / (2.0 * root_a), j, out=j)
    rungs = [j]
    if n == 0:
        return rungs
    edge = np.multiply(math.pi**-0.25, gauss, out=gauss)  # phi_k(xi) * exp(i*Phi(xi)) at k = 0
    scratch = np.empty_like(j)
    scaled_xi = np.empty(xi.shape)
    for k in range(n):
        # J_{k+1} = (edge - sqrt(k/2)(1 + 2iq) J_{k-1} - i*r*J_k) / (sqrt((k+1)/2)(2iq - 1))
        if k:
            j = np.multiply(math.sqrt(k / 2.0) * (1.0 + 2j * q), rungs[k - 1])
            np.subtract(edge, j, out=j)
            j -= np.multiply(1j * r, rungs[k], out=scratch)
        else:
            j = np.multiply(1j * r, rungs[0])
            np.subtract(edge, j, out=j)
        j *= 1.0 / (math.sqrt((k + 1) / 2.0) * (2j * q - 1.0))
        rungs.append(j)
        if k + 1 == n:
            break
        # phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1}, times the chirp
        np.multiply(math.sqrt(2.0 / (k + 1.0)), xi, out=scaled_xi)
        if k:
            np.multiply(math.sqrt(k / (k + 1.0)), edge_prev, out=edge_prev)
            np.subtract(np.multiply(scaled_xi, edge, out=scratch), edge_prev, out=edge_prev)
            edge, edge_prev = edge_prev, edge
        else:
            edge, edge_prev = scaled_xi * edge, edge
    return rungs


def hermite_phase_gain(n: int, q: float, r: float) -> float:
    """Round-off gain of the ladder in ``_hermite_phase_primitive``.

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
