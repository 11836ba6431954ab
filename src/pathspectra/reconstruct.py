"""Rebuilding wavefunctions from bands of characteristic momentum.

Integrating the window average over *all* momenta returns the eigenfunction
identically; integrating over a band ``|p_c| in (p1, p2)`` shows which part of
the state those paths carry.  Oscillator bands are time-averaged over one
classical period, same as the distributions, but without the x_f integral:

    psi_band(x_f) = (omega/2pi) int_T^{T+2pi/omega} dT'
                    int_{band, both signs} window_average(p_c, x_f, T') dp_c.

Narrow bands centred on sqrt(2*M*E_n) reproduce the state only between the
classical turning points -- the band selects the paths that classically exist.

Band edges are snapped to the bundle's momentum lattice, so (p1,p2) + (p2,p3)
re-brackets the same trapezoid cells as (p1,p3).  The sums are rounded
separately, so adjacent bands add only to rounding: at most 4.0e-16
(oscillator n = 3) and 3.9e-16 (wall k = 2) of max |value|, default grids.

One ``phasor._window_stack`` call gives the T'-averaged ``(x_f, band
node)`` stack; two ``quadrature.trapezoid`` calls, negative momenta first,
reduce every row (one ordered ``np.sum`` each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .phasor import _window_stack
from .quadrature import GridBundle, _check_node_count, _check_stack_size, trapezoid
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
    _check_travel_time(T)
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

    step = float(np.min(np.diff(grids.p_c_grid)))
    _check_node_count(2.0 * ((p2 - p1) / step + 1.0), "band node grid")
    i1 = round(p1 / step)
    i2 = round(p2 / step)
    x_grid = grids.x_f_grid
    time_averaged = state.system.kind is SystemKind.HARMONIC_OSCILLATOR
    if i2 - i1 < 1:  # band thinner than one lattice cell: nothing to integrate
        values = np.zeros(x_grid.size, dtype=np.complex128)
    else:
        _check_stack_size(x_grid.size, 2 * (i2 - i1 + 1))  # before the band nodes are built
        pos = step * np.arange(i1, i2 + 1)
        neg = -pos[::-1]
        times = grids.T_samples if time_averaged else (float(T),)
        stack = _window_stack([(state, np.concatenate([neg, pos]), x_grid, times, grids)])[0]
        n_half = pos.size
        values = trapezoid(neg, stack[:, :n_half]) + trapezoid(pos, stack[:, n_half:])
    return ReconstructionResult(
        x_f_grid=x_grid,
        values=values,
        band=band,
        state=state,
        T=float(T),
        time_averaged=time_averaged,
    )

