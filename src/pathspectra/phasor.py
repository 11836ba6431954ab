"""Momentum-space integrands, cumulative phasor curves, and window averages.

Each eigenstate identity ``psi_j(x_f) = int K(x0, x_f, T) psi_j(x0) dx0`` is
rewritten with the characteristic momentum ``p_c`` as integration variable.
This module evaluates the resulting integrand, its running integral (the
"phasor curve", whose Cornu-spiral windings show which momenta matter), and
the window average

    window_average(p_c) = [F(p_c + h) - F(p_c - h)] / (2h),   h = sqrt(hbar*m/T)

which is the generalized stationary-phase measure of how much the paths
labelled ``p_c`` contribute.  ``m`` is the mass-like constant of the momentum
variable (the moment of inertia for angular momentum on the circle).

Every window is closed-form, through one special-function primitive per
system family:

* For the systems whose exponent is exactly quadratic in ``p_c`` (free line,
  circle, hard wall, square well) windows come from
  :func:`~pathspectra.specfun.gaussian_phase_integral`.  The integrand is a
  sum of plane terms ``pref_t(x_f) * exp(i*gamma*(p_c - c_t)^2)``, so only
  the prefactor depends on ``x_f``: :func:`window_average` takes a 1-D
  ``x_f`` array and prices each term's Fresnel kernel once for the whole
  ``(x_f, p_c)`` stack.
* The oscillator integrand carries integrable ``1/sqrt`` divergences at
  ``|p_c| = M*omega*|x_f|``.  Substituting ``v = sqrt(p_c^2 - b^2)`` removes
  them, and on each sign branch the starting point ``x0`` is linear in v
  while the action is quadratic in it.  In ``xi = sqrt(M*omega/hbar) * x0``
  the integrand is a column constant times a Hermite function times the
  chirp ``exp(i*(q*xi^2 + r*xi))``, so the running integral at any window
  edge is :func:`~pathspectra.specfun.hermite_phase_integral`.  Every
  window of a column is differenced from it at once; the cost scales with
  the number of edges, not with a grid.

The one exception is a column whose Hermite ladder would amplify round-off
past ``_LADDER_TOLERANCE`` (high ``n`` far outside the turning points): it
keeps the trapezoid rule, uniform in v with the spacing
:meth:`~pathspectra.quadrature.GridBundle.inner_spacing`, the same cells as
:func:`~pathspectra.quadrature.singular_window_integral`, which stays the
reference oracle for both.

The half-width ``h`` is :func:`~pathspectra.systems.window_halfwidth`; the
grid bundle only supplies the fallback spacing.  Momenta must be finite for
every system (NaN and +-inf are refused on entry), and results that are not
finite (phases past float range) are refused too, both with a ``DomainError``.

Distributions, time averages and reconstruction take their windows from one
private engine, ``_window_stack``: the mean over T' of an ``(x_f, p_c)``
stack per level, pricing only its ``x_f >= 0`` half when parity fixes the
rest.  Oscillator levels priced together on nested lattices (fig7's four)
share one ``wofz`` start and one ladder climb per ``(x_f, T')`` column,
since the ladder to level n passes through every level below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DivergentSampleError, DomainError
from .quadrature import _MAX_NODES, GridBundle, _check_node_count, _check_stack_size
from .quadrature import cumulative_trapezoid
from .specfun import (
    _hermite_phase_primitive,
    gaussian_phase_integral,
    hermite_phase_gain,
    ho_eigenfunction,
)
from .systems import (
    EigenstateSpec,
    SystemKind,
    _check_travel_time,
    _finite,
    maslov_index,
    mass_parameter,
    regular_sin,
    window_halfwidth,
)

__all__ = [
    "PhasorCurve",
    "integrand",
    "ho_regular_factor",
    "phasor_curve",
    "window_average",
    "window_average_series",
    "segment_windows",
    "segment_sum_check",
]

# Largest ladder error bound G_n * eps (relative to the column's scale) that
# the closed-form oscillator column accepts; the default inner grid's own
# discretisation error is ~3e-7 of the column maximum, so columns below this
# lose nothing by leaving the grid.
_LADDER_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class PhasorCurve:
    """Running integral of the momentum-space integrand on an explicit grid.

    ``cumulative[i]`` is the trapezoid integral from ``p_c_grid[0]`` to
    ``p_c_grid[i]``; the final entry approximates the eigenfunction value at
    ``x_f`` once the grid covers the contributing momenta.
    """

    p_c_grid: NDArray[np.float64]
    cumulative: NDArray[np.complex128]
    state: EigenstateSpec
    x_f: float
    T: float

    @property
    def endpoint(self) -> complex:
        return complex(self.cumulative[-1])

    def value_at(self, p_c: float) -> complex:
        """Cumulative value at an interior momentum (linear interpolation)."""
        if not self.p_c_grid[0] <= p_c <= self.p_c_grid[-1]:
            raise DomainError("momentum outside the curve's grid")
        return complex(np.interp(p_c, self.p_c_grid, self.cumulative))


def _finite_result(func: Callable) -> Callable:
    """Quiet NumPy's float warnings inside ``func`` and refuse a result that is not finite."""

    @functools.wraps(func)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = func(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:  # Python floats raise where NumPy gives inf
            raise DomainError(f"{func.__name__}: an input is past float range") from exc
        result = getattr(out, "cumulative", out)
        if not all(np.isfinite(part).all() for part in (result if isinstance(result, list) else [result])):
            raise DomainError(f"{func.__name__}: result not finite (an input is past float range)")
        return out

    return guarded


def _gamma(state: EigenstateSpec, T: float) -> float:
    return T / (2.0 * state.system.hbar * mass_parameter(state.system))


def _plane_terms(
    state: EigenstateSpec, x_f: float, T: float
) -> list[tuple[complex, float]]:
    """Quadratic-exponent decomposition: integrand = sum pref * e^{i*gamma*(p-center)^2}.

    One term for the phase-like eigenfunctions, two (mirrored) for the
    standing waves of the wall and well.
    """
    sys_ = state.system
    m = mass_parameter(sys_)
    amp = complex(np.sqrt(T / (2j * np.pi * sys_.hbar * m)))
    kind = sys_.kind
    if kind in (SystemKind.FREE_LINE, SystemKind.CIRCLE):
        k = state.quantum_number
        return [(amp * complex(np.exp(1j * k * x_f)), sys_.hbar * k)]
    if kind in (SystemKind.HARD_WALL, SystemKind.SQUARE_WELL):
        k = state.wavenumber
        pref = amp / 2j
        return [
            (pref * complex(np.exp(1j * k * x_f)), sys_.hbar * k),
            (-pref * complex(np.exp(-1j * k * x_f)), -sys_.hbar * k),
        ]
    raise DomainError("oscillator integrands are not quadratic in p_c")


def _ho_kernel(state: EigenstateSpec, T: float) -> tuple[float, float, complex, float]:
    """``sin(wT)``, ``cos(wT)``, the kernel amplitude and the energy-plus-Maslov phase."""
    sys_ = state.system
    assert sys_.omega is not None
    hbar, m, omega = sys_.hbar, sys_.mass, sys_.omega
    s = regular_sin(omega * T)
    c = math.cos(omega * T)
    pref = complex(np.sqrt(abs(s) / (2j * np.pi * hbar * m * omega)))
    phase = state.energy * T / hbar - 0.5 * np.pi * maslov_index(omega * T)
    return s, c, pref, phase


def ho_regular_factor(
    state: EigenstateSpec, x_f: float, T: float
) -> Callable[[NDArray], NDArray[np.complex128]]:
    """Smooth part of the oscillator integrand (everything but the divergence).

    The full integrand for ``|p_c| >= b = M*omega*|x_f|`` is
    ``factor(p_c) * |p_c| / sqrt(p_c^2 - b^2)``; this returns ``factor``:
    the eigenfunction at the inverted starting point, the kernel amplitude
    ``sqrt(|sin(omega*T)| / (2*pi*i*hbar*M*omega))``, and the combined
    energy/action/caustic phase.  Valid only on ``|p| >= b``.
    """
    sys_ = state.system
    if sys_.kind is not SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("regular-factor split applies to the oscillator only")
    assert sys_.omega is not None
    hbar, m, omega = sys_.hbar, sys_.mass, sys_.omega
    s, c, pref, base_phase = _ho_kernel(state, T)
    n = int(state.quantum_number)
    b = m * omega * abs(x_f)

    def factor(p: NDArray) -> NDArray[np.complex128]:
        pa = np.asarray(p, dtype=float)
        root = np.sqrt(np.maximum(pa * pa - b * b, 0.0))
        x0 = x_f * c - np.sign(pa) * s * root / (m * omega)
        action = (s / (2.0 * m * omega)) * (
            c * (pa * pa - 2.0 * b * b) + 2.0 * x_f * m * omega * np.sign(pa) * s * root
        )
        psi = ho_eigenfunction(n, x0, hbar=hbar, mass=m, omega=omega)
        return pref * psi * np.exp(1j * (base_phase + action / hbar))

    return factor


@_finite_result
def integrand(
    state: EigenstateSpec, p_c: ArrayLike, x_f: float, T: float
) -> NDArray[np.complex128] | complex:
    """Momentum-space integrand whose integral over all ``p_c`` is ``psi(x_f)``.

    Includes every prefactor (Jacobian, kernel amplitude, energy phase).  For
    the oscillator the classically excluded region ``|p_c| < M*omega*|x_f|``
    contributes exactly 0, and sampling *exactly on* the divergence
    ``|p_c| = M*omega*|x_f|`` raises :class:`DivergentSampleError` -- windows
    touching it must go through the singular quadrature instead.
    """
    _check_travel_time(T)
    if not math.isfinite(x_f):
        raise DomainError(f"x_f must be finite, got {x_f!r}")
    pa = _finite(p_c, "momenta p_c")
    scalar = pa.ndim == 0
    if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
        assert state.system.omega is not None
        b = state.system.mass * state.system.omega * abs(x_f)
        mag = np.abs(pa)
        if np.any(mag == b):
            raise DivergentSampleError(
                f"integrand diverges at |p_c| = M*omega*|x_f| = {b:.6g}"
            )
        out = np.zeros(pa.shape, dtype=np.complex128)
        live = mag > b
        if np.any(live):
            factor = ho_regular_factor(state, x_f, T)
            m = mag[live]
            # |p| / sqrt(p^2 - b^2), factored so that p^2 cannot underflow or overflow
            out[live] = factor(pa[live]) * m / (np.sqrt(m - b) * np.sqrt(m + b))
        return complex(out) if scalar else out
    gamma = _gamma(state, T)
    out = np.zeros(pa.shape, dtype=np.complex128)
    for pref, center in _plane_terms(state, x_f, T):
        u = pa - center
        out = out + pref * np.exp(1j * gamma * u * u)
    return complex(out) if scalar else out


@_finite_result
def phasor_curve(
    state: EigenstateSpec, x_f: float, T: float, p_grid: ArrayLike
) -> PhasorCurve:
    """Cumulative trapezoid of the integrand along ``p_grid``, in one pass."""
    grid = np.asarray(p_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("p_grid must be 1-D with at least 2 points")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise DomainError("p_grid must be finite and strictly increasing")
    cumulative = cumulative_trapezoid(grid, np.asarray(integrand(state, grid, x_f, T)))
    return PhasorCurve(p_c_grid=grid, cumulative=cumulative, state=state, x_f=x_f, T=T)


@_finite_result
def window_average(
    state: EigenstateSpec,
    p_c: ArrayLike,
    x_f: float,
    T: float,
    grids: GridBundle,
) -> NDArray[np.complex128] | complex:
    """Integrand averaged over the window ``[p_c - h, p_c + h]``, ``h = sqrt(hbar*m/T)``.

    Closed-form for every system; the oscillator's windows are priced by
    :func:`window_average_series`, which shares one antiderivative per
    column.  For the four quadratic-exponent systems ``x_f`` may also be a
    1-D array: the result then has shape ``x_f.shape + p_c.shape``, with
    one Fresnel kernel per plane term shared by every row.  The oscillator
    takes one ``x_f`` per call.
    """
    pa = _finite(p_c, "momenta p_c")
    scalar = pa.ndim == 0
    xa = np.asarray(x_f, dtype=float)
    if xa.ndim > 1 or not np.all(np.isfinite(xa)):
        raise DomainError("x_f must be a finite scalar or 1-D array")
    if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
        if xa.ndim:
            raise DomainError("oscillator windows take one x_f per call")
        out = window_average_series(state, pa.ravel(), x_f, T, grids)
        return complex(out[0]) if scalar else out.reshape(pa.shape)
    out = _plane_window_stack(state, pa.ravel(), np.atleast_1d(xa), T)
    if xa.ndim:
        return out.reshape(xa.shape + pa.shape)
    return complex(out[0, 0]) if scalar else out[0].reshape(pa.shape)


def _plane_window_stack(
    state: EigenstateSpec,
    p_c: NDArray[np.float64],
    x_f: NDArray[np.float64],
    T: float,
) -> NDArray[np.complex128]:
    """Windows of a quadratic-exponent system on the ``(x_f, p_c)`` lattice.

    Each plane term ``pref_t(x_f) * G_t(p_c)`` separates: the Fresnel window
    kernel ``G_t`` is evaluated once per term over all of ``p_c`` and scaled
    row by row by the per-``x_f`` prefactors, accumulated in place into one
    ``(x_f.size, p_c.size)`` stack.  Every element follows the per-column
    arithmetic ``(0 + pref_1*G_1 + pref_2*G_2) / (2h)`` exactly.
    """
    _check_stack_size(x_f.size, p_c.size)
    h = window_halfwidth(state.system, T)
    gamma = _gamma(state, T)
    # prefactors stay Python complex products, as in the per-column form:
    # NumPy's complex multiply can round differently in the last bit
    terms = [_plane_terms(state, float(x), T) for x in x_f]
    out = np.zeros((x_f.size, p_c.size), dtype=np.complex128)
    for t, (_, center) in enumerate(terms[0] if terms else ()):  # no x_f rows: the empty stack
        u = p_c - center
        kernel = np.asarray(gaussian_phase_integral(u - h, u + h, gamma), dtype=np.complex128)
        for row, per_x in zip(out, terms):
            row += per_x[t][0] * kernel
    out /= 2.0 * h
    return out


def _ho_antiderivative_grid(
    state: EigenstateSpec, x_f: float, T: float, edges: NDArray, dv: float
) -> NDArray[np.complex128]:
    """Grid form of :func:`_ho_antiderivative_at`, for columns the ladder cannot take.

    One trapezoid pass per sign of p on ``v = sqrt(p^2 - b^2)`` (uniform
    spacing ``dv``), where the measure is flat and the divergence
    disappears.  Within the excluded region the running integral is
    constant.  Linear interpolation in v is exact through the singular
    endpoints because the antiderivative is linear in v there.
    """
    sys_ = state.system
    assert sys_.omega is not None
    b = sys_.mass * sys_.omega * abs(x_f)
    factor = ho_regular_factor(state, x_f, T)
    p_max = float(np.max(np.abs(edges))) if edges.size else b
    v_max = math.sqrt(max(p_max * p_max - b * b, 0.0))
    if v_max == 0.0:
        return np.zeros(edges.shape, dtype=np.complex128)
    _check_node_count(v_max / dv + 1.0, "oscillator inner v-grid")
    n_cells = max(1, math.ceil(v_max / dv))
    v = np.linspace(0.0, v_max, n_cells + 1)
    p_side = np.sqrt(v * v + b * b)
    f_pos = cumulative_trapezoid(v, factor(p_side))
    f_neg = cumulative_trapezoid(v, factor(-p_side))

    ve = np.sqrt(np.maximum(edges * edges - b * b, 0.0))
    out = np.zeros(edges.shape, dtype=np.complex128)
    pos = edges >= b
    neg = edges <= -b
    if np.any(pos):
        out[pos] = np.interp(ve[pos], v, f_pos)
    if np.any(neg):
        out[neg] = -np.interp(ve[neg], v, f_neg)
    return out


@_finite_result
def window_average_series(
    state: EigenstateSpec,
    p_c_values: ArrayLike,
    x_f: float,
    T: float,
    grids: GridBundle,
) -> NDArray[np.complex128]:
    """Window averages for a whole family of ``p_c`` values at fixed ``(x_f, T)``.

    The entry point for oscillator windows: each is differenced from one
    running integral, evaluated in closed form at every window edge of the
    column (see :func:`_window_stack`, of which this is the one-row,
    one-time case).  Other systems go through :func:`window_average`.
    """
    pa = np.atleast_1d(_finite(p_c_values, "momenta p_c"))
    if state.system.kind is not SystemKind.HARMONIC_OSCILLATOR:
        return np.asarray(window_average(state, pa, x_f, T, grids), dtype=np.complex128)
    if not math.isfinite(x_f):
        raise DomainError(f"x_f must be finite, got {x_f!r}")
    return _window_stack([(state, pa, np.array([float(x_f)]), (float(T),), grids)])[0][0]


# one level of a window stack: (state, p_c, x_f, times, grids)
Level = tuple[EigenstateSpec, NDArray, NDArray, tuple[float, ...], GridBundle]


def _centred_slice(big: NDArray, small: NDArray) -> slice | None:
    """The slice of ``big`` that is exactly ``small`` and centred in it, or None."""
    offset, odd = divmod(big.size - small.size, 2)
    part = slice(offset, offset + small.size)
    if offset < 0 or odd or not np.array_equal(big[part], small):
        return None
    return part


def _shared_climbs(levels: Sequence[Level]) -> list[list[tuple[int, slice, slice]]]:
    """Oscillator levels grouped by the lattice whose ladder climbs they share.

    Each group is a list of ``(index into levels, x_f slice, p_c slice)``,
    led by its largest lattice; every other member runs on the same system
    and times, on exact centred slices of the lead's x_f and p_c arrays.  A
    level that nests in no earlier lead leads its own group.
    """
    groups: list[list[tuple[int, slice, slice]]] = []
    by_size = sorted(range(len(levels)), key=lambda i: (levels[i][2].size, levels[i][1].size), reverse=True)
    for i in by_size:
        state, p_c, x_f, times, _ = levels[i]
        if state.system.kind is not SystemKind.HARMONIC_OSCILLATOR:
            continue
        for group in groups:
            lead, lead_p_c, lead_x_f, lead_times, _ = levels[group[0][0]]
            if lead.system != state.system or lead_times != times:
                continue
            rows, columns = _centred_slice(lead_x_f, x_f), _centred_slice(lead_p_c, p_c)
            if rows is not None and columns is not None:
                group.append((i, rows, columns))
                break
        else:
            groups.append([(i, slice(0, x_f.size), slice(0, p_c.size))])
    return groups


def _oscillator_stacks(
    levels: Sequence[Level], group: list[tuple[int, slice, slice]]
) -> list[NDArray[np.complex128]]:
    """The T'-mean stacks of one group from :func:`_shared_climbs`, in group order.

    Per row of the lead lattice and time, the window edges, the gap mask
    and the ladder's start are computed once: on branch ``sigma = sign(e)``
    the substitution ``xi = kappa*(x_f*cos(wT) - sigma*sin(wT)*v/(M*omega))``,
    ``v = sqrt(e^2 - b^2)``, ``kappa = sqrt(M*omega/hbar)``, turns
    ``factor(p) dv`` into ``-sigma*C_n * phi_n(xi) exp(i*(q*xi^2 + r*xi)) dxi``
    with ``q = cot(wT)/2`` and ``r = -kappa*x_f/sin(wT)``, so the running
    integral at edge ``e`` is ``A_n(e) = -C_n * J_n(xi_b, xi(e))`` on both
    branches, ``xi_b = kappa*x_f*cos(wT)``, and zero in the gap
    ``|e| < b = M*omega*|x_f|``.  One climb gives ``J_n`` for every level up
    to the highest whose ladder gain passes ``_LADDER_TOLERANCE / eps``
    (the gain never falls as n grows); each level then scales its rung by
    its own column constant ``C_n`` on its own p_c slice.  Levels above the
    climb take :func:`_ho_antiderivative_grid`.  Only the ``x_f >= 0`` rows
    are priced when the lead lattice is mirror-symmetric.
    """
    lead, p_c, x_f, times, _ = levels[group[0][0]]
    system = lead.system
    assert system.omega is not None
    m, omega = system.mass, system.omega
    kappa = math.sqrt(m * omega / system.hbar)
    # (state, n, grids, x_f slice, p_c slice) of each level
    members = [
        (levels[i][0], int(levels[i][0].quantum_number), levels[i][4], rows, columns) for i, rows, columns in group
    ]
    stacks = [
        np.zeros((rows.stop - rows.start, columns.stop - columns.start), dtype=np.complex128)
        for *_, rows, columns in members
    ]
    n_p = p_c.size
    mirrored = np.array_equal(x_f, -x_f[::-1]) and np.array_equal(p_c, -p_c[::-1])
    for t in times:
        h = window_halfwidth(system, t)
        kernels = [_ho_kernel(state, t) for state, *_ in members]
        s, c, _, _ = kernels[0]
        q = 0.5 * c / s
        edges = np.concatenate([p_c - h, p_c + h])
        for j in range(x_f.size // 2 if mirrored else 0, x_f.size):
            x = float(x_f[j])
            r = -kappa * x / s
            present = [k for k, (*_, rows, _) in enumerate(members) if rows.start <= j < rows.stop]
            climbed = [
                k for k in present if hermite_phase_gain(members[k][1], q, r) * np.finfo(float).eps <= _LADDER_TOLERANCE
            ]
            b = m * omega * abs(x)
            live = np.abs(edges) >= b
            reached = bool(np.any(live))  # else every closed-form window of the row is 0
            if climbed and reached:
                e = edges[live]
                v = np.sqrt(np.maximum(e * e - b * b, 0.0))
                xi_b = kappa * x * c
                xi = xi_b - np.sign(e) * (kappa * s / (m * omega)) * v
                top = max(members[k][1] for k in climbed)
                rungs = _hermite_phase_primitive(top, np.concatenate(([xi_b], xi)), q, r)
            for k in present:
                state, n, grids, rows, columns = members[k]
                if k not in climbed:
                    part = np.concatenate([edges[columns], edges[n_p:][columns]])
                    a = _ho_antiderivative_grid(state, x, t, part, grids.inner_spacing(x, t))
                    stacks[k][j - rows.start] += (a[part.size // 2 :] - a[: part.size // 2]) / (2.0 * h)
                    continue
                if not reached:
                    continue
                _, _, pref, phase = kernels[k]
                # pref * psi_n's kappa^(1/2) * the xi-independent action * dv/dxi
                column = (
                    pref
                    * math.sqrt(kappa)
                    * complex(np.exp(1j * (phase + 0.5 * c * (kappa * x) ** 2 / s)))
                    * (m * omega / (kappa * s))
                )
                a = np.zeros(2 * n_p, dtype=np.complex128)
                a[live] = -column * (rungs[n][1:] - rungs[n][0])
                stacks[k][j - rows.start] += (a[n_p:][columns] - a[columns]) / (2.0 * h)
    for (state, n, *_), stack in zip(members, stacks):
        stack /= len(times)
        if mirrored:
            first = stack.shape[0] // 2  # the x_f < 0 rows: W(-x_f, -p_c) = (-1)^n W(x_f, p_c)
            stack[:first] = (-1.0 if n % 2 else 1.0) * stack[::-1, ::-1][:first]
    return stacks


@_finite_result
def _window_stack(levels: Sequence[Level]) -> list[NDArray[np.complex128]]:
    """Mean over each level's ``times`` of its window averages on its ``(x_f, p_c)`` lattice.

    The only loop over travel times.  Stationary x_f stacks from
    :func:`window_average` add up in place, one level at a time.  Oscillator
    levels whose lattices nest share one ladder climb per (row, time) of
    their largest lattice (see :func:`_oscillator_stacks`); parity gives
    ``W(-x_f, -p_c) = (-1)^n W(x_f, p_c)``, so on exactly mirror-symmetric
    grids each ``x_f < 0`` row of the mean is the reversed ``-x_f`` row times
    ``(-1)^n``.  Each finished stack is checked for finiteness once.
    """
    for _, p_c, x_f, _, _ in levels:
        _check_stack_size(x_f.size, p_c.size)
    stacks: dict[int, NDArray[np.complex128]] = {}
    for i, (state, p_c, x_f, times, grids) in enumerate(levels):
        if state.system.kind is not SystemKind.HARMONIC_OSCILLATOR:
            stacks[i] = window_average(state, p_c, x_f, times[0], grids)
            for t in times[1:]:
                stacks[i] += window_average(state, p_c, x_f, t, grids)
            stacks[i] /= len(times)
    for group in _shared_climbs(levels):
        stacks.update(zip([i for i, _, _ in group], _oscillator_stacks(levels, group)))
    return [stacks[i] for i in range(len(levels))]


def segment_windows(
    state: EigenstateSpec,
    x_f: float,
    T: float,
    delta_p: float,
    p_lo: float,
    p_hi: float,
    *,
    cells_per_window: int = 64,
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Window integrals of the contiguous tiling ``p_nu = 2*nu*h + delta_p``.

    The momentum line tiles exactly into windows ``[p_nu - h, p_nu + h]`` for
    *any* offset ``delta_p``; each window is a difference of one
    :func:`phasor_curve` over the extent.  ``delta_p`` is snapped to the
    curve's grid (spacing ``2h / cells_per_window``) so every window edge is
    a grid node and the windows re-bracket the same trapezoid cells;
    windows overhanging the extent are clipped to it.  Returns (window
    centers, window integrals).
    """
    cpw = cells_per_window
    if not (isinstance(cpw, (int, np.integer)) and 2 <= cpw <= _MAX_NODES and cpw % 2 == 0):
        raise DomainError(f"cells_per_window must be an even integer in [2, 2^24], got {cpw!r}")
    # Python numbers: NumPy scalars would warn, not give inf, on an overflow below
    cpw, delta_p, p_lo, p_hi = int(cpw), float(delta_p), float(p_lo), float(p_hi)
    if not p_hi > p_lo:
        raise DomainError("extent must have p_hi > p_lo")
    h = window_halfwidth(state.system, T)
    step = 2.0 * h / cpw
    cells = (p_hi - p_lo) / step + 1e-9
    _check_node_count(cells + 1.0, "segment tiling grid")
    n_cells = int(math.floor(cells))
    if n_cells < cpw:
        raise DomainError("extent narrower than a single window")
    offset = (delta_p - p_lo) / step
    if not math.isfinite(offset):  # NaN or inf delta_p, or one too far out to snap
        raise DomainError(f"delta_p must be finite and within reach of the grid, got {delta_p!r}")
    grid = p_lo + step * np.arange(n_cells + 1)
    curve = phasor_curve(state, x_f, T, grid).cumulative
    half = cpw // 2
    base = round(offset)
    # windows nu with [base + nu*cpw - half, base + nu*cpw + half] meeting [0, n]
    nu_lo = math.ceil((-half - base) / cpw)
    nu_hi = math.floor((n_cells + half - 1 - base) / cpw)
    centers = []
    windows = []
    for nu in range(nu_lo, nu_hi + 1):
        mid = base + nu * cpw
        i_lo = max(0, mid - half)
        i_hi = min(n_cells, mid + half)
        if i_hi <= i_lo:
            continue
        centers.append(p_lo + step * mid)
        windows.append(curve[i_hi] - curve[i_lo])
    return np.asarray(centers, dtype=float), np.asarray(windows, dtype=np.complex128)


def segment_sum_check(
    state: EigenstateSpec,
    x_f: float,
    T: float,
    delta_p: float,
    p_lo: float,
    p_hi: float,
    *,
    cells_per_window: int = 64,
) -> complex:
    """Sum of the segment windows over the extent: independent of ``delta_p``.

    Because the clipped windows re-bracket one fixed set of trapezoid cells,
    the sum telescopes to the full integral over the extent for every offset;
    this is the numerical face of the claim that the window decomposition
    loses nothing.
    """
    _, windows = segment_windows(
        state, x_f, T, delta_p, p_lo, p_hi, cells_per_window=cells_per_window
    )
    return complex(np.sum(windows))
