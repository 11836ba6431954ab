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

Normalization note: the x_f integral and N are always computed over the same
window, so distributions integrate to 1 regardless of the window size.  For
the phase-like eigenfunctions (free line, circle) the conjugate weight cancels
the only x_f dependence of the window average exactly, so the quotient of
integrals is the window kernel itself to rounding: the plane-term average
below computes it as the one-term case, and the x_f window cannot matter.

Cost note: the wall, well, line and circle windows are a sum of at most two
plane terms, ``W(x_f, p_c) = sum_t pref_t(x_f) * G_t(p_c) / 2h``, so their
x_f average is ``sum_t c_t * G_t(p_c) / 2h`` with ``c_t`` the weighted x_f
sum of ``pref_t``: one Fresnel kernel per term and no ``(x_f, p_c)`` stack
(the default hard wall's would be 129 x 174,446 cells).  The oscillator
takes ``phasor._window_stack``, the engine reconstruction shares: the
``(x_f, p_c)`` stack already averaged over the T' samples, so the
T'-independent weights and N apply once, one ordered ``np.sum`` (the x_f
trapezoid as weights).  Levels priced together (fig7's n = 0..3, one
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
from .phasor import _plane_factors, _window_stack
from .quadrature import GridBundle, _check_node_count, trapezoid, uniform_grid
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
    squared-eigenfunction integral over the x_f window actually used.
    """

    p_c_grid: NDArray[np.float64]
    values: NDArray[np.complex128]
    state: EigenstateSpec
    T: float
    time_averaged: bool
    normalization_N: float
    grids: GridBundle


_PLANE_KINDS = (SystemKind.FREE_LINE, SystemKind.CIRCLE)
_DEFAULT_TAIL_BUDGET = 1e-6


def stationary_grids(
    state: EigenstateSpec,
    T: float,
    *,
    delta_p_c: float | None = None,
    p_c_span: tuple[float, float] | None = None,
    x_window: float | None = None,
    delta_x_f: float | None = None,
    tail_budget: float = _DEFAULT_TAIL_BUDGET,
) -> GridBundle:
    """Default grids for the four stationary (non-oscillator) systems.

    The momentum grid covers every stationary point ``+-hbar*k`` plus a margin
    ``max(50*h, sqrt(75*hbar*m/(T*tail_budget)))`` sized so the neglected
    oscillatory tail stays below ``tail_budget`` in the norm (the constant 75
    is calibrated against measured free-line truncation errors, with slack for
    the oscillating sign of the tail); spacing defaults to ``h/10`` (the
    window averages are smooth on the window scale ``h``).  Sampling the
    chirped tail aliases it into images spaced ``2*pi*hbar*m/(T*delta_p_c)``
    from each stationary point; a span edge that cuts an image in half leaves
    a spurious norm contribution, so the default margin is rounded outward to
    the midpoint between image centres.
    The x_f window is the full interval for bounded systems; unbounded systems
    get a finite window (hard wall: snapped to half-periods of the standing
    wave so the boundary cross terms cancel identically).
    """
    system = state.system
    kind = system.kind
    if kind is SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("oscillator runs use paper_grids, not stationary_grids")
    if not (math.isfinite(tail_budget) and tail_budget > 0):
        raise DomainError(f"tail_budget must be positive and finite, got {tail_budget}")
    hbar_mass = system.hbar * mass_parameter(system)
    h = window_halfwidth(system, T)
    step = h / 10.0 if delta_p_c is None else float(delta_p_c)
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"delta_p_c must be positive and finite, got {step}")

    k = state.quantum_number if kind is not SystemKind.SQUARE_WELL else state.wavenumber
    mirrored = kind not in _PLANE_KINDS  # standing waves: stationary points at +-hbar*k
    center = system.hbar * (state.wavenumber if mirrored else float(k))
    if p_c_span is None:
        # divided in turn, so that a tiny T * tail_budget overflows to inf (refused) instead of to 0
        margin = max(50.0 * h, math.sqrt(75.0 * hbar_mass / T / tail_budget))
        _check_node_count(2.0 * (margin / step + 1.0), "stationary p_c grid")
        image_spacing = 2.0 * math.pi * hbar_mass / (T * step)
        snapped = (math.floor(margin / image_spacing) + 0.5) * image_spacing
        if snapped < margin:
            snapped += image_spacing
        # a whole number of steps keeps uniform_grid from perturbing the
        # spacing, which would detune the step/window-width ratio
        margin = round(snapped / step) * step
        lo = (-abs(center) if mirrored else center) - margin
        hi = (abs(center) if mirrored else center) + margin
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
        wavelength_scale = abs(float(k)) if float(k) != 0.0 else 1.0
        x_max = 8.0 * math.pi / wavelength_scale if x_window is None else float(x_window)
        if not (math.isfinite(x_max) and x_max > 0):
            raise DomainError(f"x_window must be positive and finite, got {x_max}")
        if kind is SystemKind.HARD_WALL:
            # snap to an integer number of standing-wave half-periods
            half = math.pi / float(k)
            x_max = max(1, round(x_max / half)) * half
        dx = math.pi / (16.0 * wavelength_scale) if delta_x_f is None else float(delta_x_f)
        if kind is SystemKind.HARD_WALL:
            x_f_grid = uniform_grid(0.0, x_max, dx)
        else:
            x_f_grid = uniform_grid(-x_max, x_max, dx)

    return GridBundle(
        p_c_grid=p_c_grid,
        x_f_grid=x_f_grid,
        T_samples=(float(T),),
    )


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
    norm = trapezoid(x_grid, (psi.conj() * psi).real).real
    return _trapezoid_weights(x_grid) * psi.conj(), norm


def _grid_averages(
    members: Sequence[tuple[EigenstateSpec, tuple[float, ...], GridBundle, NDArray[np.complex128]]]
) -> list[NDArray[np.complex128]]:
    """One x_f-trapezoid pass over each member's mean stack: the unnormalised values.

    A member is ``(state, times, grids, weights)``; oscillator levels on
    nested lattices share their ladder climbs in ``phasor._window_stack``.
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

    The wall, well, line and circle sum their plane terms over x_f, with no
    ``(x_f, p_c)`` stack (see the module docstring).
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

    Quadratic systems sum their plane terms over x_f (see the module
    docstring).  Oscillator levels take :func:`_grid_average` of the window
    stack; several priced together (fig7's four) share one ladder climb per
    (x_f, T') column where their lattices nest.
    """
    if time_averaged and any(state.system.kind is not SystemKind.HARMONIC_OSCILLATOR for state, _ in pairs):
        raise DomainError("time averaging over a classical period is an oscillator operation")
    _check_travel_time(T)
    weighted = [(state, grids, *_x_f_weights(state, grids)) for state, grids in pairs]
    members = [
        (state, grids.T_samples if time_averaged else (float(T),), grids, weights)
        for state, grids, weights, _ in weighted
        if state.system.kind is SystemKind.HARMONIC_OSCILLATOR
    ]
    # one state goes through _grid_average, the helper perfbench's tracer wraps
    sums = iter(_grid_averages(members) if len(members) > 1 else [_grid_average(*member) for member in members])
    dists = []
    for state, grids, weights, norm in weighted:
        if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
            values = next(sums) / norm
        else:  # sum_t c_t * G_t(p_c) / 2h with c_t = sum_x weights(x) * pref_t(x)
            prefs, kernels = _plane_factors(state, grids.p_c_grid, grids.x_f_grid, float(T))
            coeffs = np.sum(prefs * weights, axis=1)
            values = np.sum(coeffs[:, None] * kernels, axis=0) / (2.0 * window_halfwidth(state.system, T)) / norm
        dists.append(
            PathDistribution(
                p_c_grid=grids.p_c_grid,
                values=values,
                state=state,
                T=float(T),
                time_averaged=time_averaged,
                normalization_N=float(norm),
                grids=grids,
            )
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
    if 0 < i < p.size - 1:
        coeffs = np.polyfit(p[i - 1 : i + 2], mag[i - 1 : i + 2], 2)
        peak = float(-coeffs[1] / (2.0 * coeffs[0])) if coeffs[0] != 0.0 else float(p[i])
    else:
        peak = float(p[i])

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

