"""Tests for band-limited wavefunction rebuilds."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import pathspectra as ps
from pathspectra.distribution import stationary_grids
from pathspectra.errors import DomainError
from pathspectra.phasor import _plane_terms, window_average_series
from pathspectra.quadrature import GridBundle, _check_stack_size, trapezoid
from pathspectra.reconstruct import _reconstructions, reconstruct
from pathspectra.specfun import gaussian_phase_integral
from pathspectra.systems import SystemKind, mass_parameter

FREE = ps.free_line()
K1 = ps.EigenstateSpec(system=FREE, quantum_number=1.0)
T_FREE = 200.0
X_FEW = np.array([-0.9, -0.3, 0.0, 0.4, 1.1])


def _free_bundle(step: float) -> GridBundle:
    return GridBundle(
        p_c_grid=np.arange(0.0, 8.0 + 1e-9, step),
        x_f_grid=X_FEW,
        T_samples=(T_FREE,),
    )


def test_adjacent_bands_add_exactly():
    g = _free_bundle(0.02)
    r_ab = reconstruct(K1, (0.2, 0.6), T_FREE, g)
    r_bc = reconstruct(K1, (0.6, 1.4), T_FREE, g)
    r_ac = reconstruct(K1, (0.2, 1.4), T_FREE, g)
    assert np.max(np.abs(r_ab.values + r_bc.values - r_ac.values)) < 1e-14


def test_band_thinner_than_lattice_cell_is_zero():
    g = _free_bundle(0.02)
    r = reconstruct(K1, (0.3001, 0.3002), T_FREE, g)
    assert np.all(r.values == 0.0)


def test_band_argument_validation():
    g = _free_bundle(0.02)
    with pytest.raises(DomainError):
        reconstruct(K1, (-0.1, 0.5), T_FREE, g)
    with pytest.raises(DomainError):
        reconstruct(K1, (0.5, 0.5), T_FREE, g)
    with pytest.raises(DomainError):
        reconstruct(K1, (0.0, 1.0), 0.0, g)


def test_truncation_error_decreases_with_cutoff():
    # step 0.002 keeps the chirp alias images (spaced 2*pi*hbar*M/(T*step))
    # beyond the widest cutoff, so the tail decays like 1/cutoff
    g = _free_bundle(0.002)
    psi = np.exp(1j * g.x_f_grid)
    errs = [
        np.max(np.abs(reconstruct(K1, (0.0, hi), T_FREE, g).values - psi))
        for hi in (2.0, 4.0, 8.0)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_full_band_defaults_to_grid_cutoff():
    g = _free_bundle(0.002)
    psi = np.exp(1j * g.x_f_grid)
    r = reconstruct(K1, None, T_FREE, g)
    assert r.band is None
    assert np.max(np.abs(r.values - psi)) < 1e-4


def test_oscillator_full_band_rebuilds_ground_state():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
    T = 32.0 * math.pi
    x = np.arange(-3.0, 3.0 + 1e-9, 0.3)
    ts = tuple(T + (j + 0.5) * math.pi / 64 for j in range(128))
    g = GridBundle(
        p_c_grid=np.arange(0.0, 10.0 + 1e-9, 0.02),
        x_f_grid=x,
        T_samples=ts,
    )
    r = reconstruct(st, None, T, g)
    psi = np.asarray(ps.eigenfunction(st, x))
    assert r.time_averaged
    assert np.max(np.abs(r.values - psi)) < 1e-2 * np.max(np.abs(psi))


def test_oversized_band_is_refused_before_its_nodes_are_built():
    # 101 x_f rows over 2 x 5e6 band nodes: the nodes alone would take 160 MB
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
    T = 32.0 * math.pi + 0.3
    g = ps.paper_grids(st, T)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="window stack"):
            reconstruct(st, (0.0, 1e5), T, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_oscillator_band_respects_parity():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=2.0)
    T = 32.0 * math.pi
    ts = tuple(T + (j + 0.5) * math.pi / 2 for j in range(4))
    g = GridBundle(
        p_c_grid=np.arange(0.0, 4.0 + 1e-9, 0.02),
        x_f_grid=np.array([-1.2, -0.5, 0.0, 0.5, 1.2]),
        T_samples=ts,
    )
    v = reconstruct(st, (2.0, 2.6), T, g).values
    assert np.max(np.abs(v - v[::-1])) < 1e-13


def test_narrow_band_vanishes_beyond_turning_points():
    """A band around sqrt(2ME_0) rebuilds the state only where the selected
    classical paths reach: beyond |x| = (band + window)/(M*omega) every window
    sits inside the excluded gap and the result is identically zero."""
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
    T = 512.0 * math.pi
    g = ps.paper_grids(st, T)
    r = reconstruct(st, (0.98, 1.02), T, g)
    x = g.x_f_grid
    outside = np.abs(x) >= 1.1
    assert np.max(np.abs(r.values[outside])) == 0.0
    assert np.max(np.abs(r.values)) > 1e-2


def _column_series(st, nodes, x_f, T, g):
    """One column of windows; stationary systems price their own Fresnel
    kernels, in the order (0 + pref_1*G_1 + pref_2*G_2) / (2h)."""
    if st.system.kind is SystemKind.HARMONIC_OSCILLATOR:
        return window_average_series(st, nodes, x_f, T, g)
    h = ps.window_halfwidth(st.system, T)
    gamma = T / (2.0 * st.system.hbar * mass_parameter(st.system))
    out = np.zeros(nodes.shape, dtype=np.complex128)
    for pref, center in _plane_terms(st, x_f, T):
        u = nodes - center
        out = out + pref * np.asarray(gaussian_phase_integral(u - h, u + h, gamma))
    return out / (2.0 * h)


def _per_column_reconstruct(st, band, T, g):
    """Reference: one window series per (x_f, T') column, each column's mean
    over T', then two ordered np.sum trapezoids (negative momenta first)."""
    i = int(np.searchsorted(g.p_c_grid, 0.0, side="right")) - 1
    step = float(g.p_c_grid[i + 1] - g.p_c_grid[i])  # the lattice's cell at p_c = 0
    pos = step * np.arange(round(band[0] / step), round(band[1] / step) + 1)
    nodes = np.concatenate([-pos[::-1], pos])
    n_half = pos.size
    oscillator = st.system.kind is SystemKind.HARMONIC_OSCILLATOR
    t_samples = g.T_samples if oscillator else (T,)
    values = []
    for x_f in g.x_f_grid:
        mean = np.zeros(nodes.shape, dtype=np.complex128)
        for t_prime in t_samples:
            mean += _column_series(st, nodes, float(x_f), float(t_prime), g)
        mean /= len(t_samples)
        values.append(
            trapezoid(nodes[:n_half], mean[:n_half]) + trapezoid(nodes[n_half:], mean[n_half:])
        )
    return np.asarray(values, dtype=np.complex128)


STATIONARY_STATES = (
    ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0),
    ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=3.0),
    K1,
    ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=2.0),
)


@pytest.mark.parametrize("band", [(0.5, 3.0), None], ids=["band", "full"])
@pytest.mark.parametrize("st", STATIONARY_STATES, ids=lambda s: s.system.kind.name)
def test_stationary_reconstruct_matches_per_column_loop(st, band):
    # the per-column windows have the bits of the explicit _plane_window_stack
    # (tests/test_distribution.py); integrating each plane kernel over the band
    # before scaling by its x_f prefactors regroups their sums, so the two
    # agree to rounding, not bit for bit
    T = 100.41315519036377
    g = stationary_grids(st, T, p_c_span=(-6.0, 6.0))
    want = _per_column_reconstruct(st, (0.0, 6.0) if band is None else band, T, g)
    got = reconstruct(st, band, T, g).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _small_oscillator_grids(st, T):
    return ps.paper_grids(st, T, delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0)


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_mirrored_oscillator_reconstruct_matches_per_row_reference(n):
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n)
    T = 32.0 * math.pi + 0.3
    g = _small_oscillator_grids(st, T)
    want = _per_column_reconstruct(st, (0.5, 4.5), T, g)
    got = reconstruct(st, (0.5, 4.5), T, g).values
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_asymmetric_grid_reconstruct_is_bit_identical_to_per_row_loop():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1.0)
    T = 32.0 * math.pi + 0.3
    g = _small_oscillator_grids(st, T)
    g = dataclasses.replace(g, x_f_grid=g.x_f_grid[1:])
    want = _per_column_reconstruct(st, (0.5, 2.5), T, g)
    assert reconstruct(st, (0.5, 2.5), T, g).values.tobytes() == want.tobytes()


def test_thin_oscillator_band_is_time_averaged():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1.0)
    T = 32.0 * math.pi + 0.3
    g = _small_oscillator_grids(st, T)
    thin = reconstruct(st, (1.001, 1.002), T, g)
    assert not np.any(thin.values)
    assert thin.time_averaged
    assert reconstruct(st, (0.5, 2.5), T, g).time_averaged
    wall = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
    assert not reconstruct(wall, (1.001, 1.002), 100.0, stationary_grids(wall, 100.0, p_c_span=(-3.0, 3.0))).time_averaged


def _assert_same_as_per_band_calls(requests, T):
    got = _reconstructions(requests, T)
    assert [len(recs) for recs in got] == [len(bands) for _, bands, _ in requests]
    for (st, bands, g), recs in zip(requests, got):
        for band, rec in zip(bands, recs):
            alone = reconstruct(st, band, T, g)
            assert rec.band == band and rec.time_averaged == alone.time_averaged
            assert rec.values.tobytes() == alone.values.tobytes()


def _fig8_requests(T, **overrides):
    """fig8's two levels and three bands, on small grids."""
    requests = []
    for n in (0, 3):
        st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n)
        b_n = math.sqrt(2.0 * st.energy)
        bands = [(0.0, 10.0), (max(b_n - 1.0, 0.0), b_n + 1.0), (b_n - 0.2, b_n + 0.2)]
        grids = ps.paper_grids(st, T, **{"delta_x_f": 0.5, "delta_p_c": 0.1, "delta_T": math.pi / 2.0, **overrides})
        requests.append((st, bands, grids))
    return requests


def _one_climb_per_reached_row(grids, top):
    """One climb to n = 3 per time and kept row whose gap |p_c| < |x_f| some window edge passes."""
    kept = grids.x_f_grid[grids.x_f_grid.size // 2 :]
    return [3] * sum(int(np.sum(kept <= top + math.sqrt(1.0 / t))) for t in grids.T_samples)


def test_fig8_requests_share_one_stack_bit_for_bit(climbs):
    T = 32.0 * math.pi + 0.3
    requests = _fig8_requests(T)
    requests[0][1].append((1.001, 1.002))  # thinner than one cell
    got = _reconstructions(requests, T)
    # n = 0 rides the n = 3 lattice's ladder climbs
    assert climbs == _one_climb_per_reached_row(requests[1][2], 10.0)
    assert not np.any(got[0][3].values)
    _assert_same_as_per_band_calls(requests, T)


@pytest.mark.parametrize("delta_p_c", [k / 200 for k in range(1, 41)])
def test_fig8_shares_its_climbs_at_every_node_step(delta_p_c, climbs):
    """The band step is the lattice's own cell at p_c = 0, exactly delta_p_c for both
    levels, so their hulls nest even where min(diff(p_c_grid)) tells the lattices apart."""
    T = 32.0 * math.pi + 0.3
    requests = _fig8_requests(T, delta_p_c=delta_p_c)
    _reconstructions(requests, T)
    assert climbs == _one_climb_per_reached_row(requests[1][2], delta_p_c * round(10.0 / delta_p_c))


@pytest.mark.parametrize("low", [0.0, 0.5], ids=["hull-from-0", "hull-from-i1"])
def test_overlapping_wall_bands_are_column_slices_of_one_stack(low):
    wall = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
    T = 100.41315519036377
    g = stationary_grids(wall, T, p_c_span=(-6.0, 6.0))
    _assert_same_as_per_band_calls([(wall, [(1.2, 3.0), (low, 2.5)], g)], T)


def test_band_hull_over_the_stack_cap_is_refused_before_its_nodes_are_built():
    # each band alone: 101 x_f rows x 2 x 300001 nodes, under the 2^26-cell cap;
    # their hull (0, 16000) would be 101 x 2 x 800001
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
    T = 32.0 * math.pi + 0.3
    g = ps.paper_grids(st, T)
    bands = [(0.0, 6000.0), (10000.0, 16000.0)]
    zero = g.p_c_grid.size // 2
    step = float(g.p_c_grid[zero + 1] - g.p_c_grid[zero])  # the lattice's cell at p_c = 0
    for p1, p2 in bands:
        _check_stack_size(g.x_f_grid.size, 2 * (round(p2 / step) - round(p1 / step) + 1))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="window stack"):
            _reconstructions([(st, bands, g)], T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
