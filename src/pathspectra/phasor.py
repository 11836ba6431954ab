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
  the prefactor depends on ``x_f``: ``_plane_factors`` prices each term's
  Fresnel kernel once, which :func:`window_average` scales row by row into
  an ``(x_f, p_c)`` stack, reconstruction integrates without one, and a
  distribution averages in closed form.
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

Oscillator distributions, time averages and reconstruction take their
windows from one private engine, ``_window_stack``: the mean over T' of an
``(x_f, p_c)`` stack per level, pricing only its ``x_f >= 0`` half when
parity fixes the rest.  One call prices one nested family, levels of one
oscillator and one T' set on centred slices of the largest lattice (fig7's
four, fig8's two), so they share one ``specfun._faddeeva`` start and one
ladder climb per ``(x_f, T')`` column, since the ladder to level n passes
through every level below it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DivergentSampleError, DomainError
from .quadrature import GridBundle, _check_node_count, _check_stack_size
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
    _check_interval,
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
_EPS = np.finfo(float).eps

# Trapezoid cells per segment window (even, so each window centre is a grid node)
_CELLS_PER_WINDOW = 64


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


def _plane_amplitude(state: EigenstateSpec, T: float) -> complex:
    """The amplitude ``sqrt(T / (2*pi*i*hbar*m))`` that every plane term carries."""
    return complex(np.sqrt(T / (2j * np.pi * state.system.hbar * mass_parameter(state.system))))


def _plane_terms(
    state: EigenstateSpec, x_f: float, T: float
) -> list[tuple[complex, float]]:
    """Quadratic-exponent decomposition: integrand = sum pref * e^{i*gamma*(p-center)^2}.

    The centres are the stationary points, and this is the one place that
    states them: ``hbar*k`` for the phase-like line and circle, ``+-hbar*k``
    for the standing waves of the wall and well.
    """
    sys_ = state.system
    if sys_.kind is SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("oscillator integrands are not quadratic in p_c")
    amp, k = _plane_amplitude(state, T), state.wavenumber
    if sys_.kind in (SystemKind.FREE_LINE, SystemKind.CIRCLE):
        return [(amp * complex(np.exp(1j * k * x_f)), sys_.hbar * k)]
    pref = amp / 2j
    return [
        (pref * complex(np.exp(1j * k * x_f)), sys_.hbar * k),
        (-pref * complex(np.exp(-1j * k * x_f)), -sys_.hbar * k),
    ]


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
    _check_interval(state.system, x_f)
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
    x_f: ArrayLike,
    T: float,
    grids: GridBundle,
) -> NDArray[np.complex128] | complex:
    """Integrand averaged over the window ``[p_c - h, p_c + h]``, ``h = sqrt(hbar*m/T)``.

    Closed-form for every system: the one-time case of :func:`_window_stack`
    for the oscillator; for the wall, well, line and circle each kernel of
    :func:`_plane_factors` times its per-``x_f`` prefactors, accumulated in
    place a row at a time: ``(0 + pref_1*G_1 + pref_2*G_2) / (2h)`` per cell.
    ``x_f`` may be a scalar or a 1-D array (shape ``x_f.shape + p_c.shape``);
    a position outside a bounded system's interval is refused before any
    window is priced.
    """
    pa = _finite(p_c, "momenta p_c")
    xa = np.asarray(x_f, dtype=float)
    if xa.ndim > 1 or not np.all(np.isfinite(xa)):
        raise DomainError("x_f must be a finite scalar or 1-D array")
    _check_interval(state.system, xa)
    rows = np.atleast_1d(xa)
    if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
        [out] = _window_stack([(state, pa.ravel(), rows, (float(T),), grids)])
    else:
        _check_stack_size(rows.size, pa.size)
        prefs, kernels = _plane_factors(state, pa.ravel(), rows, float(T))
        out = np.zeros((rows.size, pa.size), dtype=np.complex128)
        for per_x, kernel in zip(prefs, kernels):
            for row, pref in zip(out, per_x):
                row += pref * kernel
        out /= 2.0 * window_halfwidth(state.system, T)
    if xa.ndim:
        return out.reshape(xa.shape + pa.shape)
    return complex(out[0, 0]) if pa.ndim == 0 else out[0].reshape(pa.shape)


def _plane_factors(
    state: EigenstateSpec,
    p_c: NDArray[np.float64],
    x_f: NDArray[np.float64],
    T: float,
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """The separated plane terms of a quadratic-exponent system's windows.

    Returns ``(prefs, kernels)``, each with one row per plane term, so that
    ``W(x_f, p_c) = sum_t prefs[t, x_f] * kernels[t, p_c] / (2h)``: the
    prefactors ``pref_t(x_f)`` of :func:`_plane_terms` and the Fresnel window
    kernels ``G_t(p_c)``, each evaluated once.  A band integral scales the
    integrated kernels by the prefactors, and a distribution's closed-form
    x_f average ``amp * mean_t G_t / 2h`` takes the kernels alone (an empty
    ``x_f``); neither builds the ``(x_f, p_c)`` stack.
    """
    h = window_halfwidth(state.system, T)
    gamma = _gamma(state, T)
    # prefactors stay Python complex products, as in the per-column form:
    # NumPy's complex multiply can round differently in the last bit
    centers = [center for _, center in _plane_terms(state, 0.0, T)]
    prefs = np.empty((len(centers), x_f.size), dtype=np.complex128)
    for j, x in enumerate(x_f):
        prefs[:, j] = [pref for pref, _ in _plane_terms(state, float(x), T)]
    kernels = np.empty((len(centers), p_c.size), dtype=np.complex128)
    for kernel, center in zip(kernels, centers):
        u = p_c - center
        kernel[:] = gaussian_phase_integral(u - h, u + h, gamma)
    return prefs, kernels


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


def window_average_series(
    state: EigenstateSpec,
    p_c_values: ArrayLike,
    x_f: float,
    T: float,
    grids: GridBundle,
) -> NDArray[np.complex128]:
    """Window averages for a whole family of ``p_c`` values at fixed ``(x_f, T)``:
    the 1-D case of :func:`window_average`."""
    return window_average(state, np.atleast_1d(p_c_values), x_f, T, grids)


# one level of a window stack: (state, p_c, x_f, times, grids)
Level = tuple[EigenstateSpec, NDArray, NDArray, tuple[float, ...], GridBundle]


def _centred_slice(big: NDArray, small: NDArray) -> slice | None:
    """The slice of ``big`` that is exactly ``small`` and centred in it, or None."""
    offset, odd = divmod(big.size - small.size, 2)
    part = slice(offset, offset + small.size)
    if offset < 0 or odd or not np.array_equal(big[part], small):
        return None
    return part


@_finite_result
def _window_stack(levels: Sequence[Level]) -> list[NDArray[np.complex128]]:
    """Mean over T' of each oscillator level's window averages on its ``(x_f, p_c)`` lattice.

    The only loop over travel times.  The levels are one nested family,
    oscillator levels of one system and one T' set, each on exact centred
    slices of the largest lattice's x_f and p_c arrays (as fig7's four and
    fig8's two are); any other call is a ``DomainError``.

    Per row of the largest lattice and time, the window edges, the gap mask
    and the ladder's start are computed once: on branch ``sigma = sign(e)``
    the substitution ``xi = kappa*(x_f*cos(wT) - sigma*sin(wT)*v/(M*omega))``,
    ``v = sqrt(e^2 - b^2)``, ``kappa = sqrt(M*omega/hbar)``, turns
    ``factor(p) dv`` into ``-sigma*C_n * phi_n(xi) exp(i*(q*xi^2 + r*xi)) dxi``
    with ``q = cot(wT)/2`` and ``r = -kappa*x_f/sin(wT)``, so the running
    integral at edge ``e`` is ``A_n(e) = -C_n * J_n(xi_b, xi(e))`` on both
    branches, ``xi_b = kappa*x_f*cos(wT)``, and zero in the gap
    ``|e| < b = M*omega*|x_f|``.  One climb gives ``J_n`` for every level up
    to the highest whose ladder gain passes ``_LADDER_TOLERANCE / eps``; the
    gain depends on ``kappa*|x_f|`` only (and never falls as n grows), so
    each row chooses once, before the T' loop.  Each level scales its rung
    by its own column constant ``C_n`` on its own p_c slice; levels above
    the climb take :func:`_ho_antiderivative_grid`.  Parity gives
    ``W(-x_f, -p_c) = (-1)^n W(x_f, p_c)``, so on an exactly mirror-symmetric
    largest lattice only its ``x_f >= 0`` rows are priced, and each
    ``x_f < 0`` row of the mean is the reversed ``-x_f`` row times
    ``(-1)^n``.  Each finished stack is checked for finiteness once.
    """
    if not levels:
        return []
    order = sorted(range(len(levels)), key=lambda i: (levels[i][2].size, levels[i][1].size), reverse=True)
    lead, p_c, x_f, times, _ = levels[order[0]]  # the largest lattice
    _check_stack_size(x_f.size, p_c.size)
    system = lead.system
    members, stacks = [], []  # per level, largest first: (state, n, grids, x_f slice, p_c slice), and its stack
    for state, level_p_c, level_x_f, level_times, grids in (levels[i] for i in order):
        rows, columns = _centred_slice(x_f, level_x_f), _centred_slice(p_c, level_p_c)
        family = system.kind is SystemKind.HARMONIC_OSCILLATOR and state.system == system and level_times == times
        if not family or rows is None or columns is None:
            raise DomainError("a window stack takes oscillator levels of one system and one T' set on nested lattices")
        members.append((state, int(state.quantum_number), grids, rows, columns))
        stacks.append(np.zeros((level_x_f.size, level_p_c.size), dtype=np.complex128))
    assert system.omega is not None
    m, omega = system.mass, system.omega
    kappa = math.sqrt(m * omega / system.hbar)
    n_p = p_c.size
    mirrored = np.array_equal(x_f, -x_f[::-1]) and np.array_equal(p_c, -p_c[::-1])
    plans = {}  # per priced row: the levels on it, and those whose ladder gain lets them climb
    for j in range(x_f.size // 2 if mirrored else 0, x_f.size):
        present = [k for k, (*_, rows, _) in enumerate(members) if rows.start <= j < rows.stop]
        gains = [hermite_phase_gain(members[k][1], 0.0, kappa * float(x_f[j])) for k in present]
        plans[j] = present, [k for k, gain in zip(present, gains) if gain * _EPS <= _LADDER_TOLERANCE]
    for t in times:
        h = window_halfwidth(system, t)
        kernels = [_ho_kernel(state, t) for state, *_ in members]
        s, c, _, _ = kernels[0]
        q = 0.5 * c / s
        edges = np.concatenate([p_c - h, p_c + h])
        for j, (present, climbed) in plans.items():
            x = float(x_f[j])
            r = -kappa * x / s
            b = m * omega * abs(x)
            live = np.abs(edges) >= b
            reached = bool(np.any(live))  # else every closed-form window of the row is 0
            if climbed and reached:
                e = edges[live]
                xi = np.empty(e.size + 1)  # xi_b, then xi at each live edge
                xi[0] = xi_b = kappa * x * c
                v = np.multiply(e, e, out=xi[1:])  # v = sqrt(e^2 - b^2)
                v -= b * b
                np.sqrt(np.maximum(v, 0.0, out=v), out=v)
                np.sign(e, out=e)
                e *= kappa * s / (m * omega)
                v *= e
                np.subtract(xi_b, v, out=v)  # xi = xi_b - sign(e) * (kappa*s/(M*omega)) * v
                top = max(members[k][1] for k in climbed)
                rungs = _hermite_phase_primitive(top, xi, q, r)
                a = np.zeros(2 * n_p, dtype=np.complex128)  # every level fills the same live edges
                scaled = {}  # rung n, differenced and scaled in place; levels of one n share it
            for k in present:
                state, n, grids, rows, columns = members[k]
                if k not in climbed:
                    part = np.concatenate([edges[columns], edges[n_p:][columns]])
                    ends = _ho_antiderivative_grid(state, x, t, part, grids.inner_spacing(x, t))
                    stacks[k][j - rows.start] += (ends[part.size // 2 :] - ends[: part.size // 2]) / (2.0 * h)
                    continue
                if not reached:
                    continue
                if n not in scaled:
                    _, _, pref, phase = kernels[k]
                    # pref * psi_n's kappa^(1/2) * the xi-independent action * dv/dxi
                    column = (
                        pref
                        * math.sqrt(kappa)
                        * cmath.exp(1j * (phase + 0.5 * c * (kappa * x) ** 2 / s))
                        * (m * omega / (kappa * s))
                    )
                    rung = rungs[n][1:]
                    rung -= rungs[n][0]
                    rung *= -column / (2.0 * h)
                    scaled[n] = rung
                a[live] = scaled[n]
                stacks[k][j - rows.start] += a[n_p:][columns] - a[:n_p][columns]
    for (_, n, *_), stack in zip(members, stacks):
        stack /= len(times)
        if mirrored:
            first = stack.shape[0] // 2  # the x_f < 0 rows: W(-x_f, -p_c) = (-1)^n W(x_f, p_c)
            stack[:first] = (-1.0 if n % 2 else 1.0) * stack[::-1, ::-1][:first]
    return [stacks[order.index(i)] for i in range(len(levels))]


def segment_windows(
    state: EigenstateSpec, x_f: float, T: float, delta_p: float, p_lo: float, p_hi: float
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Window integrals of the contiguous tiling ``p_nu = 2*nu*h + delta_p``.

    The momentum line tiles exactly into windows ``[p_nu - h, p_nu + h]`` for
    *any* offset ``delta_p``; each window is a difference of one
    :func:`phasor_curve` over the extent.  ``delta_p`` is first reduced
    modulo ``2h`` (exactly, by ``math.fmod``: the tiling is the same), then
    snapped to the curve's grid (spacing ``2h / _CELLS_PER_WINDOW``) so every
    window edge is a grid node and the windows re-bracket the same trapezoid
    cells; windows overhanging the extent are clipped to it.  Returns
    (window centers, window integrals).
    """
    # Python numbers: NumPy scalars would warn, not give inf, on an overflow below
    delta_p, p_lo, p_hi = float(delta_p), float(p_lo), float(p_hi)
    if not math.isfinite(delta_p):
        raise DomainError(f"delta_p must be finite, got {delta_p!r}")
    if not p_hi > p_lo:
        raise DomainError("extent must have p_hi > p_lo")
    cpw = _CELLS_PER_WINDOW
    h = window_halfwidth(state.system, T)
    step = 2.0 * h / cpw
    cells = (p_hi - p_lo) / step + 1e-9
    _check_node_count(cells + 1.0, "segment tiling grid")
    n_cells = int(math.floor(cells))
    if n_cells < cpw:
        raise DomainError("extent narrower than a single window")
    grid = p_lo + step * np.arange(n_cells + 1)
    curve = phasor_curve(state, x_f, T, grid).cumulative
    half = cpw // 2
    base = round((math.fmod(delta_p, 2.0 * h) - p_lo) / step)
    # windows nu with [base + nu*cpw - half, base + nu*cpw + half] meeting [0, n]
    nu_lo = -((half + base) // cpw)
    nu_hi = (n_cells + half - 1 - base) // cpw
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
    state: EigenstateSpec, x_f: float, T: float, delta_p: float, p_lo: float, p_hi: float
) -> complex:
    """Sum of the segment windows over the extent: independent of ``delta_p``.

    Because the clipped windows re-bracket one fixed set of trapezoid cells,
    the sum telescopes to the full integral over the extent for every offset;
    this is the numerical face of the claim that the window decomposition
    loses nothing.
    """
    _, windows = segment_windows(state, x_f, T, delta_p, p_lo, p_hi)
    return complex(np.sum(windows))
