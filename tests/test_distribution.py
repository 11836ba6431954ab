"""Tests for path distributions and their moments."""

from __future__ import annotations

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

import pathspectra as ps
from pathspectra.distribution import (
    PathDistribution,
    _trapezoid_weights,
    _x_f_weights,
    moments,
    spatial_average,
    stationary_grids,
    time_average,
)
from pathspectra.errors import DegenerateDistributionError, DomainError
from pathspectra.phasor import _plane_terms, integrand, window_average, window_average_series
from pathspectra.quadrature import GridBundle, paper_grids, trapezoid
from pathspectra.reconstruct import reconstruct
from pathspectra.specfun import gaussian_phase_integral
from pathspectra.systems import mass_parameter

FREE = ps.free_line()
K1 = ps.EigenstateSpec(system=FREE, quantum_number=1.0)
HO = ps.harmonic_oscillator()
T32 = 32.0 * math.pi


def _synthetic(p, values, state=K1, T=100.0) -> PathDistribution:
    g = GridBundle(
        p_c_grid=np.asarray(p, dtype=float),
        x_f_grid=np.array([0.0, 1.0]),
        T_samples=(T,),
    )
    return PathDistribution(
        p_c_grid=g.p_c_grid,
        values=np.asarray(values, dtype=np.complex128),
        state=state,
        T=T,
        time_averaged=False,
        normalization_N=1.0,
        grids=g,
    )


# ------------------------------------------------------------ stationary_grids

def test_stationary_grids_free_line_structure():
    g = stationary_grids(K1, 1.0e3)
    h = math.sqrt(1.0 / 1.0e3)
    steps = np.diff(g.p_c_grid)
    assert np.max(np.abs(steps - h / 10.0)) < 1e-12
    # centred on hbar*k = 1 with the tail-budget margin on both sides
    assert abs(0.5 * (g.p_c_grid[0] + g.p_c_grid[-1]) - 1.0) < 1e-9
    assert g.p_c_grid[-1] - 1.0 > 250.0   # sqrt(75/(T*1e-6)) ~ 274
    assert g.T_samples == (1.0e3,)


def test_stationary_grids_hard_wall_x_window():
    st = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
    g = stationary_grids(st, 300.0)
    # default window 8*pi/k; a given one is the reconstruction domain as set, not snapped
    assert g.x_f_grid[0] == 0.0
    assert g.x_f_grid[-1] == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert stationary_grids(st, 300.0, x_window=3.0).x_f_grid[-1] == pytest.approx(3.0, abs=1e-12)


def test_stationary_grids_bounded_domains():
    stc = ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=2.0)
    gc = stationary_grids(stc, 300.0)
    assert gc.x_f_grid[0] == 0.0
    assert gc.x_f_grid[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)
    stw = ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=2.0)
    gw = stationary_grids(stw, 300.0)
    assert gw.x_f_grid[-1] == pytest.approx(math.pi, abs=1e-12)


def test_stationary_grids_validation():
    with pytest.raises(DomainError):
        stationary_grids(ps.EigenstateSpec(system=HO, quantum_number=0.0), 100.0)
    with pytest.raises(DomainError):
        stationary_grids(K1, -1.0)
    with pytest.raises(DomainError):
        stationary_grids(K1, 100.0, delta_p_c=-0.1)
    stc = ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=1.0)
    with pytest.raises(DomainError):
        stationary_grids(stc, 100.0, x_window=3.0)


@pytest.mark.parametrize(
    "T, kwargs",
    [
        (math.nan, {}),
        (math.inf, {}),
        (100.0, {"delta_p_c": math.nan}),
        (100.0, {"delta_p_c": math.inf}),
        (100.0, {"delta_x_f": math.nan}),
        (100.0, {"x_window": math.nan}),
        (100.0, {"x_window": math.inf}),
        (100.0, {"p_c_span": (math.nan, 2.0)}),
        (100.0, {"p_c_span": (0.0, math.inf)}),
    ],
)
def test_stationary_grids_refuse_non_finite(T, kwargs):
    for st in (K1, ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)):
        with pytest.raises(DomainError):
            stationary_grids(st, T, **kwargs)


# ------------------------------------------------------------- spatial_average

def test_collapsed_form_matches_grid_route():
    # free line: the conjugate weight cancels the x_f dependence exactly,
    # so the closed form and the literal trapezoid must agree
    g = stationary_grids(K1, 1.0e3, p_c_span=(-2.0, 4.0), x_window=2.0 * math.pi)
    d_auto = spatial_average(K1, 1.0e3, g)
    weights, norm = _x_f_weights(K1, g)
    d_grid = np.sum(window_average(K1, g.p_c_grid, g.x_f_grid, 1.0e3, g) * weights[:, None], axis=0) / norm
    assert np.max(np.abs(d_auto.values - d_grid)) < 1e-12


def test_free_line_norm_and_mean():
    g = stationary_grids(K1, 1.0e3)
    m = moments(spatial_average(K1, 1.0e3, g))
    assert abs(m["norm"] - 1.0) < 1e-6
    assert abs(m["mean"] - 1.0) < 1e-6


def test_circle_norm_and_peak():
    st = ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=2.0)
    g = stationary_grids(st, 1.0e3)
    m = moments(spatial_average(st, 1.0e3, g))
    assert abs(m["norm"] - 1.0) < 1e-6
    assert m["peak_location"] == pytest.approx(2.0, abs=1e-4)


def test_hard_wall_norm_even_mean_and_peaks():
    st = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
    g = stationary_grids(st, 300.0)
    m = moments(spatial_average(st, 300.0, g))
    assert abs(m["norm"] - 1.0) < 1e-4
    assert abs(m["mean"]) < 1e-8          # even in p_c: two mirrored ridges
    assert abs(m["peak_location"]) == pytest.approx(2.0, abs=1e-3)


def test_square_well_norm_and_even_mean():
    st = ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=2.0)
    g = stationary_grids(st, 300.0)
    m = moments(spatial_average(st, 300.0, g))
    assert abs(m["norm"] - 1.0) < 1e-4
    assert abs(m["mean"]) < 1e-8


def test_hard_wall_window_choice_is_immaterial():
    st = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
    g1 = stationary_grids(st, 300.0, p_c_span=(-6.0, 6.0))
    g2 = stationary_grids(st, 300.0, p_c_span=(-6.0, 6.0), x_window=8.0 * math.pi)
    d1 = spatial_average(st, 300.0, g1)
    d2 = spatial_average(st, 300.0, g2)
    assert np.max(np.abs(d1.values - d2.values)) < 1e-12


@pytest.mark.parametrize(
    "st, delta_x_f",
    [
        (ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0), math.pi / 2.0),
        (ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=3.0), math.pi / 3.0),
    ],
    ids=["wall", "well"],
)
def test_aliased_x_f_grids_leave_standing_wave_distributions_unchanged(st, delta_x_f):
    # x_f nodes on the zeros of sin(kx): a trapezoid over them sees a zero
    # eigenfunction and a zero norm; the closed form reads no x_f grid
    aliased = spatial_average(st, 100.0, stationary_grids(st, 100.0, p_c_span=(-6.0, 6.0), delta_x_f=delta_x_f))
    want = spatial_average(st, 100.0, stationary_grids(st, 100.0, p_c_span=(-6.0, 6.0))).values
    assert np.max(np.abs(aliased.values - want)) <= 1e-15 * np.max(np.abs(want))
    assert aliased.normalization_N is None
    assert moments(aliased)["norm"] == pytest.approx(1.0, abs=1e-3)


def test_fwhm_scales_as_inverse_sqrt_time():
    m1 = moments(spatial_average(K1, 1.0e3, stationary_grids(K1, 1.0e3)))
    m4 = moments(spatial_average(K1, 4.0e3, stationary_grids(K1, 4.0e3)))
    assert m4["fwhm"] / m1["fwhm"] == pytest.approx(0.5, abs=0.05)


STATIONARY_STATES = (
    ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0),
    ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=3.0),
    K1,
    ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=2.0),
)


def _per_column_windows(st, g, T):
    """Reference: one window series per x_f column, each pricing its own
    Fresnel kernels, in the order (0 + pref_1*G_1 + pref_2*G_2) / (2h)."""
    h = ps.window_halfwidth(st.system, T)
    gamma = T / (2.0 * st.system.hbar * mass_parameter(st.system))
    columns = []
    for x_f in g.x_f_grid:
        out = np.zeros(g.p_c_grid.shape, dtype=np.complex128)
        for pref, center in _plane_terms(st, float(x_f), T):
            u = g.p_c_grid - center
            out = out + pref * np.asarray(gaussian_phase_integral(u - h, u + h, gamma))
        columns.append(out / (2.0 * h))
    return np.asarray(columns)


@pytest.mark.parametrize("T", [100.41315519036377, 37.3])
@pytest.mark.parametrize("st", STATIONARY_STATES, ids=lambda s: s.system.kind.name)
def test_hoisted_stack_is_bit_identical_to_per_column_windows(st, T):
    g = stationary_grids(st, T, p_c_span=(-6.0, 6.0))
    want = _per_column_windows(st, g, T)
    got = window_average(st, g.p_c_grid, g.x_f_grid, T, g)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the x_f reduction keeps its order: weights, then an axis-0 np.sum
    psi = np.asarray(ps.eigenfunction(st, g.x_f_grid), dtype=np.complex128)
    weights = _trapezoid_weights(g.x_f_grid) * psi.conj()
    norm = trapezoid(g.x_f_grid, (psi.conj() * psi).real).real
    reduced = np.sum(want * weights[:, None], axis=0) / norm
    assert (np.sum(got * weights[:, None], axis=0) / norm).tobytes() == reduced.tobytes()


@pytest.mark.parametrize("T", [100.41315519036377, 37.3])
@pytest.mark.parametrize("st", STATIONARY_STATES, ids=lambda s: s.system.kind.name)
def test_plane_term_average_matches_the_explicit_window_stack(st, T):
    # the closed form amp * mean_t G_t / 2h against the weighted x_f sum of the
    # stack over the default x_f grid (whole periods of e^{2ikx}): equal to rounding
    g = stationary_grids(st, T, p_c_span=(-6.0, 6.0))
    weights, norm = _x_f_weights(st, g)
    stack = window_average(st, g.p_c_grid, g.x_f_grid, T, g)
    want = np.sum(stack * weights[:, None], axis=0) / norm
    got = spatial_average(st, T, g).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_window_average_x_f_shapes():
    st = STATIONARY_STATES[0]
    g = stationary_grids(st, 100.0, p_c_span=(-3.0, 3.0))
    row = window_average(st, g.p_c_grid, 0.7, 100.0, g)
    stack = window_average(st, g.p_c_grid, np.array([0.2, 0.7]), 100.0, g)
    assert stack.shape == (2, g.p_c_grid.size)
    assert stack[1].tobytes() == row.tobytes()
    assert isinstance(window_average(st, 2.0, 0.7, 100.0, g), complex)
    with pytest.raises(DomainError):
        window_average(st, g.p_c_grid, np.zeros((2, 2)), 100.0, g)
    # the oscillator takes an x_f array too
    ho = ps.EigenstateSpec(system=HO, quantum_number=0.0)
    ho_grids = ps.paper_grids(ho, T32)
    ho_stack = window_average(ho, [1.0, 1.5], np.array([0.0, 1.0]), T32 + 0.3, ho_grids)
    assert ho_stack.shape == (2, 2)
    assert ho_stack[1].tobytes() == window_average(ho, [1.0, 1.5], 1.0, T32 + 0.3, ho_grids).tobytes()


def test_spatial_average_validation():
    g = stationary_grids(K1, 100.0, p_c_span=(0.0, 2.0))
    with pytest.raises(DomainError):
        spatial_average(K1, -5.0, g)


def test_spatial_average_has_no_method_knob():
    assert list(inspect.signature(spatial_average).parameters) == ["state", "T", "grids"]


WALL2 = STATIONARY_STATES[0]
HO1 = ps.EigenstateSpec(system=HO, quantum_number=1.0)

# every entry point that takes a travel time, called with a finite valid rest
NON_FINITE_T_CALLS = {
    "spatial_average": lambda T: spatial_average(WALL2, T, stationary_grids(WALL2, 100.0)),
    "time_average": lambda T: time_average(HO1, T, paper_grids(HO1, T32)),
    "reconstruct": lambda T: reconstruct(WALL2, (0.5, 3.0), T, stationary_grids(WALL2, 100.0)),
    "window_average": lambda T: window_average(WALL2, 1.0, 0.7, T, stationary_grids(WALL2, 100.0)),
    "window_average_series": lambda T: window_average_series(HO1, [1.0], 0.3, T, paper_grids(HO1, T32)),
    "integrand": lambda T: integrand(HO1, 1.0, 0.3, T),
    "paper_grids": lambda T: paper_grids(HO1, T),
}


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_T_CALLS))
def test_non_finite_travel_time_is_refused(entry, T):
    with pytest.raises(DomainError, match="positive and finite"):
        NON_FINITE_T_CALLS[entry](T)


# ---------------------------------------------------------------- time_average

def test_bare_oscillator_distribution_never_settles():
    """Without the period average the oscillator distribution is strongly
    T-dependent (focusing): a quarter period in changes it at the 90% level."""
    st = ps.EigenstateSpec(system=HO, quantum_number=1.0)
    xg = np.linspace(-8.7, 8.7, 175)
    pg = np.arange(0.9, 2.6 + 1e-9, 0.02)
    g = GridBundle(p_c_grid=pg, x_f_grid=xg, T_samples=(T32 + 0.4,))
    dA = spatial_average(st, T32 + 0.4, g)
    dB = spatial_average(st, T32 + 0.4 + math.pi / 2.0, g)
    rel = np.max(np.abs(dA.values - dB.values)) / np.max(np.abs(dA.values))
    assert rel > 0.5


def test_time_average_is_mean_of_spatial_averages():
    st = ps.EigenstateSpec(system=HO, quantum_number=1.0)
    xg = np.linspace(-8.7, 8.7, 175)
    pg = np.arange(0.9, 2.6 + 1e-9, 0.02)
    ts = (T32 + 0.3, T32 + 1.1)
    g = GridBundle(p_c_grid=pg, x_f_grid=xg, T_samples=ts)
    d = time_average(st, T32, g)
    manual = 0.5 * (
        spatial_average(st, ts[0], g).values
        + spatial_average(st, ts[1], g).values
    )
    assert d.time_averaged
    # the T' mean now comes before the x_f sum, so the two agree to rounding
    assert np.max(np.abs(d.values - manual)) <= 1e-15 * np.max(np.abs(manual))


def test_a_period_average_refuses_a_bundle_built_for_another_T():
    # the bundle's T' samples tile T ... T + 2*pi; averaging them is no period average after T = 7.3
    st = ps.EigenstateSpec(system=HO, quantum_number=1.0)
    T = T32 + 0.3
    g = paper_grids(st, T, delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0)
    with pytest.raises(DomainError, match="period"):
        time_average(st, 7.3, g)
    with pytest.raises(DomainError, match="period"):
        reconstruct(st, (0.5, 1.5), 7.3, g)
    assert time_average(st, T, g).T == T
    # both ends of the period are in it
    ends = dataclasses.replace(g, T_samples=(T, T + 2.0 * math.pi))
    assert time_average(st, T, ends).time_averaged
    assert reconstruct(st, (0.5, 1.5), T, ends).time_averaged


def test_an_x_f_window_holding_none_of_the_norm_is_refused():
    """psi_0 squares to 0 on [50, 51], so N = 0: refused by name, not returned as 0/0."""
    st = ps.EigenstateSpec(system=HO, quantum_number=0.0)
    g = GridBundle(
        p_c_grid=np.arange(0.9, 1.1 + 1e-9, 0.02), x_f_grid=np.array([50.0, 51.0]), T_samples=(T32 + 0.3, T32 + 1.1)
    )
    for average, T in ((spatial_average, T32 + 0.3), (time_average, T32)):
        with pytest.raises(DomainError, match=r"x_f window \[50, 51\] holds none of the norm of level 0"):
            average(st, T, g)


def test_time_average_is_oscillator_only():
    g = stationary_grids(K1, 100.0, p_c_span=(0.0, 2.0))
    with pytest.raises(DomainError):
        time_average(K1, 100.0, g)


def _per_row_time_average(st, g):
    """Reference: every x_f row through window_average_series, no mirror;
    the T' mean of the stacks (in sample order), then the weighted x_f sum."""
    psi = np.asarray(ps.eigenfunction(st, g.x_f_grid), dtype=np.complex128)
    weights = _trapezoid_weights(g.x_f_grid) * psi.conj()
    norm = trapezoid(g.x_f_grid, (psi.conj() * psi).real).real
    mean = np.zeros((g.x_f_grid.size, g.p_c_grid.size), dtype=np.complex128)
    for t in g.T_samples:
        mean += np.array(
            [window_average_series(st, g.p_c_grid, float(x), float(t), g) for x in g.x_f_grid]
        )
    mean /= len(g.T_samples)
    return np.sum(mean * weights[:, None], axis=0) / norm


def _small_paper_grids(st, T):
    return paper_grids(st, T, delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0)


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_mirrored_time_average_matches_per_row_reference(n):
    st = ps.EigenstateSpec(system=HO, quantum_number=n)
    g = _small_paper_grids(st, T32 + 0.3)
    want = _per_row_time_average(st, g)
    got = time_average(st, T32 + 0.3, g).values
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("dropped", ["x_f_grid", "p_c_grid"])
def test_asymmetric_grid_time_average_is_bit_identical_to_per_row_loop(dropped):
    g = _small_paper_grids(HO1, T32 + 0.3)
    g = dataclasses.replace(g, **{dropped: getattr(g, dropped)[1:]})
    want = _per_row_time_average(HO1, g)
    assert time_average(HO1, T32 + 0.3, g).values.tobytes() == want.tobytes()


# --------------------------------------------------------------------- moments

def test_moments_on_synthetic_gaussian():
    p = np.linspace(-1.0, 5.0, 1201)
    sigma, p0 = 0.4, 2.0
    vals = np.exp(-0.5 * ((p - p0) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    m = moments(_synthetic(p, vals))
    assert m["norm"] == pytest.approx(1.0, abs=1e-8)
    assert m["mean"] == pytest.approx(p0, abs=1e-8)
    assert m["peak_location"] == pytest.approx(p0, abs=1e-6)
    assert m["fwhm"] == pytest.approx(2.0 * sigma * math.sqrt(2.0 * math.log(2.0)), abs=1e-3)
    assert m["max_im_ratio"] == 0.0
    assert all(isinstance(v, float) for v in m.values())


def test_moments_peak_vertex_at_huge_momenta_without_warnings():
    # polyfit would square p ~ 1e200 past float range; the vertex is taken on scaled offsets
    p0, sigma = 1e200, 1e190
    p = np.linspace(p0 - 5.0 * sigma, p0 + 5.0 * sigma, 1001)
    vals = np.exp(-0.5 * ((p - p0 - 0.3 * (p[1] - p[0])) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = moments(_synthetic(p, vals))
    step = p[1] - p[0]
    assert abs(m["peak_location"] - (p0 + 0.3 * step)) <= 0.01 * step
    assert m["norm"] == pytest.approx(1.0, abs=1e-6)  # the tails past 5 sigma are cut


def test_moments_degenerate_and_unbracketed():
    p = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DegenerateDistributionError):
        moments(_synthetic(p, np.zeros(11)))
    with pytest.raises(DomainError):
        # flat top: half maximum never reached inside the grid
        moments(_synthetic(p, np.ones(11)))
