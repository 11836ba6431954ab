"""Path distributions: spatial averaging, time averaging, moments.

A path distribution weighs the window averages by the eigenfunction they are
supposed to rebuild,

    P_j(p_c, T) = (1/N) * int_Omega  psi_j*(x_f) window_average(p_c, x_f, T) dx_f,
    N           =        int_Omega |psi_j(x_f)|^2 dx_f,

so that paths are scored by how much they contribute *where the state actually
lives*.  For the oscillator the bare distribution never settles down in T;
averaging over one classical period (at the bundle's time samples: an even
number of midpoints over exactly that period, 32 at the default delta_T)
produces the stationary, real, non-negative profiles peaking at
|p_c| = sqrt(2*M*E_n).

Closed form: the wall, well, line and circle windows are a sum of at most
two plane terms, ``W = sum_t pref_t(x_f) * G_t(p_c) / 2h``, with
``pref = amp * e^{ikx_f}`` (line, circle) or ``+-amp * e^{+-ikx_f} / 2i``
(the standing waves ``sin(kx_f)`` of the wall and well).  Against the
conjugated eigenfunction the x_f dependence cancels exactly, each
standing-wave term averaging to ``amp/2``, so

    P(p_c) = amp * mean_t G_t(p_c) / 2h,    amp = sqrt(T / (2*pi*i*hbar*m)):

one Fresnel kernel per stationary point, no x_f grid and no N.  A trapezoid
over x_f rows matches it only where its nodes do not alias ``e^{2ikx_f}``
(Trefethen & Weideman, SIAM Review 56 (2014) 385), so none is taken.

Cost note: the oscillator takes ``phasor._window_stack``, the engine
reconstruction shares: the ``(x_f, p_c)`` stack already averaged over the T'
samples, so the T'-independent weights and N (over the same x_f window, so
P integrates to 1 whatever its size) apply once, one ordered ``np.sum``
(the x_f trapezoid as weights).  Levels priced together (fig7's n = 0..3, one
``_distributions`` call) share one ladder climb per (x_f, T') column of
their largest lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDistributionError, DomainError
from .phasor import _plane_amplitude, _plane_factors, _plane_terms, _window_stack
from .quadrature import GridBundle, _check_node_count, _check_period_samples, trapezoid, uniform_grid
from .systems import EigenstateSpec, SystemKind, _check_travel_time, eigenfunction, mass_parameter, window_halfwidth

__all__ = [
    "PathDistribution",
    "stationary_grids",
    "spatial_average",
    "time_average",
    "moments",
]


@dataclass(frozen=True, eq=False)
class PathDistribution:
    """A sampled path distribution over characteristic momentum.

    ``values`` keeps its (small) imaginary parts on purpose: realness is one
    of the claims worth *measuring*, not assuming.  ``normalization_N`` is the
    oscillator's x_f window norm ``int |psi|^2``; None for the closed-form four.
    """

    p_c_grid: NDArray[np.float64]
    values: NDArray[np.complex128]
    state: EigenstateSpec
    T: float
    time_averaged: bool
    normalization_N: float | None
    grids: GridBundle


# the norm the default p_c span may leave in the neglected oscillatory tail
_TAIL_BUDGET = 1e-6


def stationary_grids(
    state: EigenstateSpec,
    T: float,
    *,
    delta_p_c: float | None = None,
    p_c_span: tuple[float, float] | None = None,
    x_window: float | None = None,
    delta_x_f: float | None = None,
) -> GridBundle:
    """Default grids for the four stationary (non-oscillator) systems.

    The momentum grid covers the stationary points of ``_plane_terms`` plus a margin
    ``max(50*h, sqrt(75*hbar*m/(T*budget)))`` sized so the neglected
    oscillatory tail stays below ``budget = _TAIL_BUDGET = 1e-6`` in the norm
    (the constant 75 is calibrated against measured free-line truncation
    errors, with slack for the oscillating sign of the tail); spacing
    defaults to ``h/10`` (the window averages are smooth on the scale ``h``).
    Sampling the chirped tail aliases it into images spaced
    ``2*pi*hbar*m/(T*delta_p_c)`` from each stationary point; a span edge that
    cuts an image in half leaves a spurious norm contribution, so the default
    margin is rounded outward to the midpoint between image centres.
    The x_f grid is the output domain of ``reconstruct``; a distribution
    reads none of it.  It spans the full interval for the bounded systems and
    ``[0, x_window]`` (wall) or ``[-x_window, x_window]`` (line) for the
    unbounded ones, ``x_window = 8*pi/|k|`` by default.
    """
    system = state.system
    kind = system.kind
    if kind is SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("oscillator runs use paper_grids, not stationary_grids")
    hbar_mass = system.hbar * mass_parameter(system)
    h = window_halfwidth(system, T)
    step = h / 10.0 if delta_p_c is None else float(delta_p_c)
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"delta_p_c must be positive and finite, got {step}")

    if p_c_span is None:
        # divided in turn: a tiny T overflows the quotient to inf (refused), where T * budget would round to 0
        margin = max(50.0 * h, math.sqrt(75.0 * hbar_mass / T / _TAIL_BUDGET))
        _check_node_count(2.0 * (margin / step + 1.0), "stationary p_c grid")
        image_spacing = 2.0 * math.pi * hbar_mass / (T * step)
        snapped = (math.floor(margin / image_spacing) + 0.5) * image_spacing
        if snapped < margin:
            snapped += image_spacing
        # a whole number of steps keeps uniform_grid from perturbing the
        # spacing, which would detune the step/window-width ratio
        margin = round(snapped / step) * step
        centers = [center for _, center in _plane_terms(state, 0.0, T)]
        lo, hi = min(centers) - margin, max(centers) + margin
    else:
        lo, hi = float(p_c_span[0]), float(p_c_span[1])
    p_c_grid = uniform_grid(lo, hi, step)

    if kind is SystemKind.CIRCLE:
        if x_window is not None:
            raise DomainError("the circle's x_f window is the full circumference")
        dx = 2.0 * math.pi / 128.0 if delta_x_f is None else float(delta_x_f)
        x_f_grid = uniform_grid(0.0, 2.0 * math.pi, dx)
    elif kind is SystemKind.SQUARE_WELL:
        if x_window is not None:
            raise DomainError("the well's x_f window is the full box")
        assert system.width is not None
        a = system.width
        n = int(state.quantum_number)
        dx = a / (16.0 * n) if delta_x_f is None else float(delta_x_f)
        x_f_grid = uniform_grid(0.0, a, dx)
    else:
        wavelength_scale = abs(float(state.quantum_number)) or 1.0
        x_max = 8.0 * math.pi / wavelength_scale if x_window is None else float(x_window)
        if not (math.isfinite(x_max) and x_max > 0):
            raise DomainError(f"x_window must be positive and finite, got {x_max}")
        dx = math.pi / (16.0 * wavelength_scale) if delta_x_f is None else float(delta_x_f)
        x_f_grid = uniform_grid(0.0 if kind is SystemKind.HARD_WALL else -x_max, x_max, dx)
    return GridBundle(p_c_grid=p_c_grid, x_f_grid=x_f_grid, T_samples=(float(T),))


def _trapezoid_weights(x: NDArray) -> NDArray[np.float64]:
    """Node weights of the x_f trapezoid: the rule of ``quadrature.trapezoid`` regrouped
    by node, so the x_f average needs no (x_f, p_c) stack of cells beside the window stack."""
    w = np.empty(x.size)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _x_f_weights(state: EigenstateSpec, grids: GridBundle) -> tuple[NDArray[np.complex128], float]:
    """The T'-independent half of the x_f average: (psi* x trapezoid weights, N)."""
    x_grid = grids.x_f_grid
    psi = np.asarray(eigenfunction(state, x_grid), dtype=np.complex128)
    norm = float(trapezoid(x_grid, (psi.conj() * psi).real).real)
    return _trapezoid_weights(x_grid) * psi.conj(), norm


def _grid_averages(
    members: Sequence[tuple[EigenstateSpec, tuple[float, ...], GridBundle, NDArray[np.complex128]]]
) -> list[NDArray[np.complex128]]:
    """One x_f-trapezoid pass over each member's mean stack: the unnormalised values.

    A member is ``(state, times, grids, weights)``; the members are one
    nested family of ``phasor._window_stack``, sharing its ladder climbs.
    """
    levels = [(state, grids.p_c_grid, grids.x_f_grid, times, grids) for state, times, grids, _ in members]
    stacks = _window_stack(levels)
    sums = []
    for stacked, (_, _, _, weights) in zip(stacks, members):
        stacked *= weights[:, None]
        sums.append(np.sum(stacked, axis=0))
    return sums


# perfbench's tracer wraps this helper and calls it as (state, times, grids, weights)
def _grid_average(
    state: EigenstateSpec, times: tuple[float, ...], grids: GridBundle, weights: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """The one-state case of :func:`_grid_averages`."""
    return _grid_averages([(state, times, grids, weights)])[0]


def spatial_average(state: EigenstateSpec, T: float, grids: GridBundle) -> PathDistribution:
    """Average the window integrals against the conjugated eigenfunction at ``T``.

    The wall, well, line and circle take the closed form
    ``amp * mean_t G_t(p_c) / 2h`` and read no x_f grid (see the module
    docstring); the oscillator sums its window stack over ``grids.x_f_grid``.
    """
    return _distributions([(state, grids)], T, time_averaged=False)[0]


def time_average(state: EigenstateSpec, T: float, grids: GridBundle) -> PathDistribution:
    """Oscillator distribution averaged over one classical period after ``T``.

    The x_f average of the mean window stack over ``grids.T_samples``, i.e.
    the mean of the spatial averages there to rounding: the ``2m`` midpoint
    samples of :func:`paper_grids` tile exactly one period, so that is the
    midpoint rule for ``(omega/2pi) * int_T^{T+2pi/omega} P_n(p_c, T') dT'``
    with step ``(pi/omega)/m``, ``delta_T`` rounded to a whole fraction of the
    half period.  The samples avoid the singular times ``omega*T' = k*pi``,
    but those still sit at the ends and the middle of the period, so the
    rule converges only to second order in ``delta_T``: for n = 0 at
    ``delta_x_f = 0.1`` its error measured 1.1e-1, 1.7e-2, 2.0e-3 and 5.0e-4
    of max|P| at ``delta_T`` = pi/8, pi/16, pi/32 and pi/64.
    """
    return _distributions([(state, grids)], T, time_averaged=True)[0]


def _distributions(
    pairs: Sequence[tuple[EigenstateSpec, GridBundle]], T: float, *, time_averaged: bool
) -> list[PathDistribution]:
    """The normalised x_f average for each ``(state, grids)`` over ``(T,)`` or its ``grids.T_samples``.

    The wall, well, line and circle take the closed form
    ``amp * mean_t G_t(p_c) / 2h`` (see the module docstring).  Oscillator
    levels take :func:`_grid_average` of the window stack; several priced
    together (fig7's four) must be one nested family of
    ``phasor._window_stack`` and share one ladder climb per (x_f, T') column
    of the largest lattice.
    """
    if time_averaged and any(state.system.kind is not SystemKind.HARMONIC_OSCILLATOR for state, _ in pairs):
        raise DomainError("time averaging over a classical period is an oscillator operation")
    _check_travel_time(T)
    for state, grids in pairs:
        if time_averaged:
            _check_period_samples(state, T, grids)
    oscillator = [(state, grids) for state, grids in pairs if state.system.kind is SystemKind.HARMONIC_OSCILLATOR]
    weighted = [_x_f_weights(state, grids) for state, grids in oscillator]
    members = [
        (state, grids.T_samples if time_averaged else (float(T),), grids, weights)
        for (state, grids), (weights, _) in zip(oscillator, weighted)
    ]
    # one state goes through _grid_average, the helper perfbench's tracer wraps
    sums = iter(_grid_averages(members) if len(members) > 1 else [_grid_average(*member) for member in members])
    norms = iter(norm for _, norm in weighted)
    dists = []
    for state, grids in pairs:
        if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
            norm = next(norms)
            values = next(sums) / norm
        else:  # amp * mean_t G_t(p_c) / 2h: the kernels alone, no x_f prefactors
            norm = None
            _, kernels = _plane_factors(state, grids.p_c_grid, grids.x_f_grid[:0], float(T))
            values = _plane_amplitude(state, T) * np.mean(kernels, axis=0) / (2.0 * window_halfwidth(state.system, T))
        dists.append(
            PathDistribution(grids.p_c_grid, values, state, float(T), time_averaged, normalization_N=norm, grids=grids)
        )
    return dists


def moments(dist: PathDistribution) -> dict[str, float]:
    """Norm, mean, refined peak location, FWHM, and the Im/Re diagnostic.

    Norm and mean integrate the real part.  Peak and width are read off the
    *magnitude* profile: the real part of a finite-T window average carries a
    phase ripple that splits its crest into a sub-window-width doublet, while
    the magnitude keeps the single envelope maximum the realness claims are
    about.  (For the time-averaged oscillator distributions the two profiles
    coincide.)  The peak is refined by the vertex of the parabola through the
    maximum sample and its neighbours; the full width is read off at half the
    peak sample height by linear interpolation, walking outward from the peak.
    """
    p = dist.p_c_grid
    re = dist.values.real
    max_re = float(np.max(np.abs(re)))
    if max_re == 0.0:
        raise DegenerateDistributionError("all-zero distribution has no moments")
    norm = trapezoid(p, re).real
    mean = trapezoid(p, p * re).real / norm

    mag = np.abs(dist.values)
    i = int(np.argmax(mag))
    peak = float(p[i])
    if 0 < i < p.size - 1:
        # on offsets from p[i] in units of the three nodes' span, so nothing squares past float range
        span = p[i + 1] - p[i - 1]
        u0, u2 = (p[i - 1] - p[i]) / span, (p[i + 1] - p[i]) / span
        d0, d2 = (mag[i - 1] - mag[i]) / u0, (mag[i + 1] - mag[i]) / u2
        curvature = (d2 - d0) / (u2 - u0)
        if curvature != 0.0:  # else the three samples are collinear: keep the node
            peak = float(p[i] - span * (d0 - curvature * u0) / (2.0 * curvature))

    half = mag[i] / 2.0
    left = right = math.nan
    for j in range(i, 0, -1):
        if mag[j - 1] < half <= mag[j]:
            frac = (half - mag[j - 1]) / (mag[j] - mag[j - 1])
            left = p[j - 1] + frac * (p[j] - p[j - 1])
            break
    for j in range(i, p.size - 1):
        if mag[j + 1] < half <= mag[j]:
            frac = (mag[j] - half) / (mag[j] - mag[j + 1])
            right = p[j] + frac * (p[j + 1] - p[j])
            break
    if math.isnan(left) or math.isnan(right):
        raise DomainError("half maximum is not bracketed by the grid")

    return {
        "norm": float(norm),
        "mean": float(mean),
        "peak_location": peak,
        "fwhm": float(right - left),
        "max_im_ratio": float(np.max(np.abs(dist.values.imag)) / max_re),
    }

