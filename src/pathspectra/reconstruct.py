"""Rebuilding wavefunctions from bands of characteristic momentum.

Integrating the window average over *all* momenta returns the eigenfunction
identically; integrating over a band ``|p_c| in (p1, p2)`` shows which part of
the state those paths carry.  Oscillator bands are time-averaged over one
classical period, same as the distributions, but without the x_f integral:

    psi_band(x_f) = (omega/2pi) int_T^{T+2pi/omega} dT'
                    int_{band, both signs} window_average(p_c, x_f, T') dp_c.

Narrow bands centred on sqrt(2*M*E_n) reproduce the state only between the
classical turning points -- the band selects the paths that classically exist.

Band edges are rounded to the nodes ``k * step``, where ``step`` is the
lattice's cell where it meets ``p_c = 0`` (the cell nearest 0 if it does not
straddle 0).  A ``paper_grids`` lattice is ``delta_p_c * arange(-k, k + 1)``,
so the step is exactly ``delta_p_c`` and band node 500 is lattice node 500,
10.0 at the defaults.  Adjacent bands share their common edge node, so
(p1,p2) + (p2,p3) re-brackets the same trapezoid cells as (p1,p3).  The sums
are rounded separately, so adjacent bands add only to rounding: at most
4.0e-16 (oscillator n = 3) and 2.8e-16 (wall k = 2) of max |value|, default
grids.

Each state's bands share one set of rows on the nodes
``+-step * arange(lo, hi + 1)``, where ``[lo, hi]`` is the hull of the bands'
index ranges.  For the oscillator the rows are the stack of T'-averaged
windows, one per x_f: all levels of one :func:`_reconstructions` call go
through one ``phasor._window_stack`` call, which takes one nested family.
fig8's n = 0 and n = 3 are one at every ``delta_p_c`` (both hulls start at
node 0 with the same step), so they share their ladder climbs.  The wall,
well, line and circle build no stack: their windows are
``sum_t pref_t(x_f) * G_t(p_c) / 2h``, so the rows are the Fresnel kernels
``G_t``, one per plane term, and a band is ``sum_t pref_t(x_f) * B_t / 2h``
with ``B_t`` the band integral of ``G_t``.  Each band takes two
``quadrature.trapezoid`` calls over its own column slices of the rows,
negative momenta first (one ordered ``np.sum`` per row).  Windows are
elementwise in ``p_c``, so a column of the shared rows has the same bits as
on the band's own nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .phasor import _plane_factors, _window_stack
from .quadrature import GridBundle, _check_node_count, _check_period_samples, _check_stack_size, trapezoid
from .systems import EigenstateSpec, SystemKind, _check_travel_time, window_halfwidth

__all__ = ["ReconstructionResult", "reconstruct"]


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Band-limited rebuild of an eigenfunction on the x_f grid.

    ``band`` is the requested pair ``(p1, p2)``, or ``None`` for the full
    (truncated) momentum range.
    """

    x_f_grid: NDArray[np.float64]
    values: NDArray[np.complex128]
    band: tuple[float, float] | None
    state: EigenstateSpec
    T: float
    time_averaged: bool


def _full_band_cutoff(state: EigenstateSpec, grids: GridBundle, T: float) -> float:
    system = state.system
    if system.kind is SystemKind.HARMONIC_OSCILLATOR:
        assert system.omega is not None
        scale = math.sqrt(system.hbar * system.mass * system.omega)
        return max(10.0 * scale, math.sqrt(2.0 * system.mass * state.energy) + 14.0 * window_halfwidth(system, T))
    return float(grids.p_c_grid[-1])


def reconstruct(
    state: EigenstateSpec,
    band: tuple[float, float] | None,
    T: float,
    grids: GridBundle,
) -> ReconstructionResult:
    """Integrate window averages over ``|p_c| in (p1, p2)`` for every ``x_f``.

    Both momentum signs contribute.  Oscillator results are averaged over the
    bundle's midpoint time samples; the other systems are evaluated at ``T``
    alone.  ``band=None`` means the full truncated range, wide enough that the
    result should match the eigenfunction itself.
    """
    return _reconstructions([(state, [band], grids)], T)[0][0]


def _band_span(
    state: EigenstateSpec, band: tuple[float, float] | None, T: float, grids: GridBundle, step: float
) -> tuple[int, int]:
    """The checked band as node indices ``(i1, i2)``: its nodes are ``step * arange(i1, i2 + 1)``."""
    if band is None:
        p1, p2 = 0.0, _full_band_cutoff(state, grids, T)
    else:
        p1, p2 = float(band[0]), float(band[1])
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise DomainError(f"band edges must be finite, got ({p1!r}, {p2!r})")
    if p1 < 0:
        raise DomainError("band edges are magnitudes: p1 must be >= 0")
    if p1 >= p2:
        raise DomainError(f"band must have p1 < p2, got ({p1!r}, {p2!r})")
    _check_node_count(2.0 * ((p2 - p1) / step + 1.0), "band node grid")
    return round(p1 / step), round(p2 / step)


# one reconstruction request: (state, bands, grids)
Request = tuple[EigenstateSpec, Sequence[tuple[float, float] | None], GridBundle]


def _reconstructions(requests: Sequence[Request], T: float) -> list[list[ReconstructionResult]]:
    """:func:`reconstruct` for every band of every request, each state's windows priced once.

    Each state's nodes are ``+-step * arange(lo, hi + 1)`` over the hull
    ``[lo, hi]`` of its bands' index ranges, and each band reduces its own
    column slices of that hull.  The oscillator requests are one nested
    family of ``phasor._window_stack`` (a ``DomainError`` otherwise); a
    quadratic system reduces its plane kernels instead (see the module
    docstring).  A band thinner than one lattice cell is zeros and widens no
    hull.
    """
    _check_travel_time(T)
    plans = []  # per request: (step, each band's (i1, i2), hull or None)
    for state, bands, grids in requests:
        if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
            _check_period_samples(state, T, grids)
        p = grids.p_c_grid
        i = min(max(int(np.searchsorted(p, 0.0, side="right")) - 1, 0), p.size - 2)
        step = float(p[i + 1] - p[i])  # the lattice's cell at p_c = 0
        spans = [_band_span(state, band, T, grids, step) for band in bands]
        live = [(i1, i2) for i1, i2 in spans if i2 > i1]
        hull = (min(i1 for i1, _ in live), max(i2 for _, i2 in live)) if live else None
        if hull is not None and state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
            _check_stack_size(grids.x_f_grid.size, 2 * (hull[1] - hull[0] + 1))  # before any band node is built
        plans.append((step, spans, hull))
    # each hull's nodes, +-step * arange(lo, hi + 1) with the negative momenta first
    positive = [None if hull is None else step * np.arange(hull[0], hull[1] + 1) for step, _, hull in plans]
    hull_nodes = [None if pos is None else np.concatenate([-pos[::-1], pos]) for pos in positive]
    levels = [
        (state, nodes, grids.x_f_grid, grids.T_samples, grids)
        for (state, _, grids), nodes in zip(requests, hull_nodes)
        if nodes is not None and state.system.kind is SystemKind.HARMONIC_OSCILLATOR
    ]
    stacks = iter(_window_stack(levels))

    results = []
    for (state, bands, grids), (_, spans, hull), nodes in zip(requests, plans, hull_nodes):
        oscillator = state.system.kind is SystemKind.HARMONIC_OSCILLATOR
        if hull is not None:
            lo, hi = hull
            width = hi - lo + 1  # -step*i sits at column hi - i, +step*i at width + i - lo
            if oscillator:  # one row per x_f
                rows = next(stacks)
            else:  # one row per plane term, scaled by its x_f prefactors once integrated
                prefs, rows = _plane_factors(state, nodes, grids.x_f_grid, float(T))
                scale = 2.0 * window_halfwidth(state.system, T)
        recs = []
        for band, (i1, i2) in zip(bands, spans):
            if i2 > i1:
                neg, pos = slice(hi - i2, hi - i1 + 1), slice(width + i1 - lo, width + i2 - lo + 1)
                values = trapezoid(nodes[neg], rows[:, neg]) + trapezoid(nodes[pos], rows[:, pos])
                if not oscillator:
                    values = np.sum(prefs * values[:, None], axis=0) / scale
            else:  # band thinner than one lattice cell: nothing to integrate
                values = np.zeros(grids.x_f_grid.size, dtype=np.complex128)
            recs.append(
                ReconstructionResult(
                    x_f_grid=grids.x_f_grid,
                    values=values,
                    band=band,
                    state=state,
                    T=float(T),
                    time_averaged=oscillator,
                )
            )
        results.append(recs)
    return results

