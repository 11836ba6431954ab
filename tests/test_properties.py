"""Property tests: grid recipes, parity, band additivity, and hostile inputs.

Derandomized, so every run draws the same examples.  Finite overrides are
drawn from ranges that keep each grid to a few thousand nodes and each
window stack under about 1e6 cells, so every example runs in milliseconds;
the node and stack limits alone would still let a grid reach 2^24 nodes and
a stack 2^26 cells (those refusals have explicit examples).  The non-finite,
zero and negative values are drawn alongside them.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathspectra as ps
from pathspectra.compare import coherent_overlap, momentum_density, wigner_momentum_marginal
from pathspectra.distribution import stationary_grids
from pathspectra.errors import DomainError, PathspectraError
from pathspectra.phasor import (
    integrand,
    phasor_curve,
    segment_sum_check,
    segment_windows,
    window_average,
    window_average_series,
)
from pathspectra.quadrature import GridBundle, paper_grids

HO = ps.harmonic_oscillator()
T32 = 32.0 * math.pi

_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0])


def _override(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.one_of(_SPECIAL, st.floats(lo, hi))


OVERRIDES = {
    "delta_x_f": _override(0.05, 20.0),
    "delta_p_c": _override(0.01, 20.0),
    "delta_T": _override(0.05, 10.0),
    "x_f_span": _override(1e-3, 30.0),
    "p_c_max": _override(1e-3, 30.0),
    "n_p_floor": _override(1e-3, 1e3),
    "n_p_slope": _override(0.0, 1e3),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(0, 8),
    overrides=st.fixed_dictionaries({}, optional=OVERRIDES),
)
def test_paper_grids_refuse_or_return_finite_symmetric_grids(n, overrides):
    try:
        g = paper_grids(ps.EigenstateSpec(HO, n), T32, **overrides)
    except DomainError:
        return
    for grid in (g.x_f_grid, g.p_c_grid):
        assert np.all(np.isfinite(grid))
        assert np.all(np.diff(grid) > 0)
        assert np.array_equal(grid, -grid[::-1])
    assert all(math.isfinite(t) and t > 0 for t in g.T_samples)
    # an even midpoint rule over exactly one period: half a step inside each end
    assert len(g.T_samples) % 2 == 0
    assert math.isclose(g.T_samples[0] - T32, T32 + 2.0 * math.pi - g.T_samples[-1], rel_tol=1e-9)


# travel times a fixed distance from the singular multiples of pi
_TRAVEL_TIME = st.floats(0.2, math.pi - 0.2).map(lambda u: T32 + u)
_SMALL = {"delta_x_f": 0.5, "delta_p_c": 0.1, "delta_T": math.pi / 2.0}


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(0, 8), T=_TRAVEL_TIME)
def test_oscillator_time_average_is_even_in_momentum(n, T):
    state = ps.EigenstateSpec(HO, n)
    values = ps.time_average(state, T, paper_grids(state, T, **_SMALL)).values
    assert np.max(np.abs(values - values[::-1])) <= 1e-13 * np.max(np.abs(values))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(0, 8), T=_TRAVEL_TIME, band=st.tuples(st.floats(0.0, 2.0), st.floats(0.5, 4.0)))
def test_oscillator_band_reconstruction_has_the_state_parity(n, T, band):
    state = ps.EigenstateSpec(HO, n)
    lo, width = band
    values = ps.reconstruct(state, (lo, lo + width), T, paper_grids(state, T, **_SMALL)).values
    sign = (-1.0) ** n
    assert np.max(np.abs(values[::-1] - sign * values)) <= 1e-13 * max(np.max(np.abs(values)), 1e-300)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(0, 3),
    constants=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    T=_TRAVEL_TIME,
)
def test_default_oscillator_steps_make_every_oscillator_the_unit_one(n, constants, T):
    """``p0 * P(p0 * u)`` at ``T / omega`` is the unit oscillator's ``P(u)`` at ``T``.

    The spans and T' step are set small, in oscillator units; ``delta_x_f``
    and ``delta_p_c`` keep their defaults, which carry the units themselves."""
    hbar, mass, omega = constants
    length, momentum = math.sqrt(hbar / (mass * omega)), math.sqrt(hbar * mass * omega)
    unit_state = ps.EigenstateSpec(HO, n)
    unit = ps.time_average(
        unit_state, T, paper_grids(unit_state, T, x_f_span=3.0, p_c_max=4.0, delta_T=math.pi / 2.0)
    )
    state = ps.EigenstateSpec(ps.harmonic_oscillator(hbar=hbar, mass=mass, omega=omega), n)
    t = T / omega
    grids = paper_grids(state, t, x_f_span=3.0 * length, p_c_max=4.0 * momentum, delta_T=math.pi / (2.0 * omega))
    scaled = ps.time_average(state, t, grids)
    assert scaled.p_c_grid.shape == unit.p_c_grid.shape
    assert np.max(np.abs(scaled.p_c_grid / momentum - unit.p_c_grid)) <= 1e-13 * unit.p_c_grid[-1]
    assert np.max(np.abs(momentum * scaled.values - unit.values)) <= 1e-12 * np.max(np.abs(unit.values))


def _band_case(kind: str, n: int, T: float) -> tuple[ps.EigenstateSpec, ps.GridBundle]:
    if kind == "oscillator":
        state = ps.EigenstateSpec(HO, n)
        return state, paper_grids(state, T, **_SMALL)
    system = ps.hard_wall() if kind == "wall" else ps.square_well(width=math.pi)
    state = ps.EigenstateSpec(system, float(n))
    return state, stationary_grids(state, T, p_c_span=(-6.0, 6.0))


@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    kind=st.sampled_from(["oscillator", "wall", "well"]),
    n=st.integers(1, 4),
    T=_TRAVEL_TIME,
    edges=st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3, unique=True).map(sorted),
)
def test_adjacent_bands_add_up_to_the_joined_band(kind, n, T, edges):
    state, grids = _band_case(kind, n, T)
    p1, p2, p3 = edges
    left, right, joined = (
        ps.reconstruct(state, band, T, grids).values for band in ((p1, p2), (p2, p3), (p1, p3))
    )
    scale = max(np.max(np.abs(joined)), np.max(np.abs(left)), np.max(np.abs(right)), 1e-300)
    assert np.max(np.abs(left + right - joined)) <= 1e-14 * scale


@settings(derandomize=True, max_examples=12, deadline=None)
@given(kind=st.sampled_from(["wall", "well"]), n=st.integers(1, 4), T=st.floats(5.0, 200.0))
def test_standing_wave_distributions_are_even_in_momentum(kind, n, T):
    # each P(p_c) node is evaluated on its own, so a symmetric span tests the
    # parity that the default (wider) grids have too
    state, grids = _band_case(kind, n, T)
    values = ps.spatial_average(state, T, grids).values
    assert np.max(np.abs(values - values[::-1])) <= 1e-10 * np.max(np.abs(values))


# ------------------------------------------------ hostile inputs at the entry points

_HOSTILE_T = st.one_of(_SPECIAL, st.sampled_from([1e-300, 1e300, T32, 2.0 * T32]), st.floats(0.5, 1e4))
_HOSTILE_EDGE = st.one_of(_SPECIAL, st.sampled_from([1e300, -1e300]), st.floats(-5.0, 30.0))
_WALL2 = ps.EigenstateSpec(ps.hard_wall(), 2.0)
_WALL_GRIDS = GridBundle(
    p_c_grid=0.1 * np.arange(-30, 31), x_f_grid=np.linspace(0.0, math.pi, 9), T_samples=(100.0,)
)
_HO_GRIDS = {n: paper_grids(ps.EigenstateSpec(HO, n), T32 + 0.3, **_SMALL) for n in range(3)}
_EXTENT = st.tuples(
    st.one_of(_SPECIAL, st.sampled_from([-1e308, 1e308]), st.floats(-3.0, 3.0)),
    st.one_of(_SPECIAL, st.sampled_from([-1e308, 1e308]), st.floats(-3.0, 3.0)),
)
_X_F = st.one_of(_SPECIAL, st.sampled_from([1e308, -1e308]), st.floats(-10.0, 10.0))


def _returns_or_refuses(call) -> None:
    try:
        call()
    except PathspectraError:
        pass


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(0, 2), T=_HOSTILE_T, band=st.tuples(_HOSTILE_EDGE, _HOSTILE_EDGE))
# a wide band: 2 x 2e6 nodes over 21 x_f rows is refused as a stack, before allocation
@example(n=0, T=T32 + 0.3, band=(0.0, 2e5))
def test_reconstruct_returns_or_raises_pathspectra_errors(n, T, band):
    state = ps.EigenstateSpec(HO, n)
    _returns_or_refuses(lambda: ps.reconstruct(state, band, T, _HO_GRIDS[n]))
    _returns_or_refuses(lambda: ps.reconstruct(_WALL2, band, T, _WALL_GRIDS))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    T=st.one_of(_SPECIAL, st.floats(1.0, 1e4)),
    delta_p=st.one_of(_SPECIAL, st.sampled_from([1e308, -1e308]), st.floats(-1e3, 1e3)),
    extent=_EXTENT,
    x_f=_X_F,
)
@example(T=1e4, delta_p=0.0, extent=(0.0, 1e300), x_f=0.0)  # past the node limit
def test_segment_windows_return_or_raise_pathspectra_errors(T, delta_p, extent, x_f):
    for state in (ps.EigenstateSpec(ps.free_line(), 1.0), _WALL2):
        args = (state, x_f, T, delta_p, *extent)
        _returns_or_refuses(lambda: segment_windows(*args))
        _returns_or_refuses(lambda: segment_sum_check(*args))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(0, 2), T=_HOSTILE_T)
def test_averages_return_or_raise_pathspectra_errors(n, T):
    state = ps.EigenstateSpec(HO, n)
    _returns_or_refuses(lambda: ps.time_average(state, T, _HO_GRIDS[n]))
    _returns_or_refuses(lambda: ps.spatial_average(state, T, _HO_GRIDS[n]))
    _returns_or_refuses(lambda: ps.spatial_average(_WALL2, T, _WALL_GRIDS))


_HOSTILE_P = st.one_of(_SPECIAL, st.sampled_from([1e300, -1e300]), st.floats(-30.0, 30.0))
_WINDOW_STATES = (
    *(ps.EigenstateSpec(HO, n) for n in range(3)),
    _WALL2,
    ps.EigenstateSpec(ps.square_well(math.pi), 3),
    ps.EigenstateSpec(ps.free_line(), 1.0),
    ps.EigenstateSpec(ps.circle(2.0), 2),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    state=st.sampled_from(_WINDOW_STATES),
    p_c=st.one_of(_HOSTILE_P, st.lists(_HOSTILE_P, max_size=6).map(np.array)),
    x_f=_X_F,
    x_f_rows=st.lists(_X_F, min_size=1, max_size=4).map(np.array),
    T=_HOSTILE_T,
)
# found once by the full suite but not by this file alone (see tests/conftest.py)
@example(state=_WINDOW_STATES[2], p_c=math.nan, x_f=1e308, x_f_rows=np.array([1e308]), T=1e-300)
def test_window_entry_points_return_or_raise_pathspectra_errors(state, p_c, x_f, x_f_rows, T):
    ho = state.system.kind is ps.SystemKind.HARMONIC_OSCILLATOR
    grids = _HO_GRIDS[int(state.quantum_number)] if ho else _WALL_GRIDS
    for x in (x_f, x_f_rows):  # only window_average takes a 1-D x_f
        _returns_or_refuses(lambda: window_average(state, p_c, x, T, grids))
    _returns_or_refuses(lambda: window_average_series(state, p_c, x_f, T, grids))
    _returns_or_refuses(lambda: integrand(state, p_c, x_f, T))
    _returns_or_refuses(lambda: phasor_curve(state, x_f, T, p_c))


# ------------------------------------------- compare functions and stationary grids

_LEVEL = st.one_of(st.integers(-2, 70), st.sampled_from([1.5, 2.0, -0.5, math.nan, math.inf]))
_PHASE_SPACE = st.one_of(_SPECIAL, st.sampled_from([1e300, -1e300, 1e154, 1e-300]), st.floats(-30.0, 30.0))


def _finite_or_refused(call) -> None:
    try:
        out = call()
    except PathspectraError:
        return
    assert np.all(np.isfinite(out))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=_LEVEL,
    system=st.sampled_from([HO, ps.harmonic_oscillator(hbar=0.5, mass=2.0, omega=3.0), ps.free_line()]),
    value=_PHASE_SPACE,
    points=st.one_of(_PHASE_SPACE, st.lists(_PHASE_SPACE, max_size=4).map(np.array)),
)
def test_compare_functions_return_finite_values_or_raise_pathspectra_errors(n, system, value, points):
    _finite_or_refused(lambda: wigner_momentum_marginal(n, points, system))
    _finite_or_refused(lambda: momentum_density(n, points, system))
    _finite_or_refused(lambda: coherent_overlap(n, value))
    _finite_or_refused(lambda: coherent_overlap(n, np.abs(points)))  # every entry a magnitude


_OPTIONAL_STEP = st.one_of(st.none(), _SPECIAL, st.floats(0.05, 5.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    state=st.sampled_from(_WINDOW_STATES),
    T=_HOSTILE_T,
    delta_p_c=_OPTIONAL_STEP,
    span=st.one_of(st.none(), st.tuples(_HOSTILE_EDGE, _HOSTILE_EDGE)),
    x_window=st.one_of(st.none(), _SPECIAL, st.floats(0.1, 30.0)),
    delta_x_f=_OPTIONAL_STEP,
)
# the default margin's quotient 75/T/budget near float range: refused by the node count
@example(state=_WALL2, T=1e-300, delta_p_c=None, span=None, x_window=None, delta_x_f=None)
def test_stationary_grids_return_or_raise_pathspectra_errors(state, T, delta_p_c, span, x_window, delta_x_f):
    """Bounded: finite steps keep every grid to a few hundred thousand nodes."""
    try:
        g = stationary_grids(state, T, delta_p_c=delta_p_c, p_c_span=span, x_window=x_window, delta_x_f=delta_x_f)
    except PathspectraError:
        return
    for grid in (g.p_c_grid, g.x_f_grid):
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)
