"""Tests for the momentum-space integrand, phasor curves, and window averages."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.signal import find_peaks

import pathspectra as ps
from pathspectra import phasor
from pathspectra.distribution import _distributions, stationary_grids
from pathspectra.errors import DivergentSampleError, DomainError, SingularTimeError
from pathspectra.phasor import (
    ho_regular_factor,
    integrand,
    phasor_curve,
    segment_sum_check,
    segment_windows,
    window_average,
    window_average_series,
)
from pathspectra.quadrature import GridBundle, cumulative_trapezoid, paper_grids, singular_window_integral
from pathspectra.reconstruct import reconstruct
from pathspectra.specfun import gaussian_phase_integral, hermite_phase_gain
from pathspectra.systems import mass_parameter

T_LONG = 1.0e4
H_LONG = math.sqrt(1.0 / T_LONG)          # window half-width at T = 1e4, hbar*M = 1

FREE = ps.free_line()
K1 = ps.EigenstateSpec(system=FREE, quantum_number=1.0)


def _bundle(T: float, n_p_floor: float = 50.0) -> GridBundle:
    # minimal bundle: only n_p_floor (for oscillator columns the closed form
    # cannot take) matters for window averages
    return GridBundle(
        p_c_grid=np.array([0.0, 1.0]),
        x_f_grid=np.array([0.0, 1.0]),
        T_samples=(T,),
        n_p_floor=n_p_floor,
    )


# ----------------------------------------------------------------- integrand

def test_free_line_integrand_closed_form():
    """Prefactor times a pure quadratic phase about p_c = hbar*k."""
    p = np.array([0.6, 1.0, 1.7])
    x_f = 0.37
    got = integrand(K1, p, x_f, T_LONG)
    pref = np.sqrt(T_LONG / (2j * np.pi)) * np.exp(1j * x_f)
    want = pref * np.exp(1j * (T_LONG / 2.0) * (p - 1.0) ** 2)
    assert np.max(np.abs(got - want)) < 1e-12 * abs(pref)


def test_free_line_integrand_stationary_value():
    val = integrand(K1, 1.0, 0.0, T_LONG)
    assert isinstance(val, complex)
    assert val == pytest.approx(complex(np.sqrt(T_LONG / (2j * np.pi))), abs=1e-12)


def test_oscillator_excluded_region_is_exactly_zero():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1.0)
    # |p_c| < M*omega*|x_f| = 2 contributes nothing
    vals = integrand(st, np.array([-1.9, -0.3, 0.0, 1.2]), 2.0, 5.0)
    assert np.all(vals == 0.0)


def test_oscillator_divergent_sample_refused():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
    with pytest.raises(DivergentSampleError):
        integrand(st, np.array([0.5, 2.0]), 2.0, 5.0)


def test_integrand_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        integrand(K1, 1.0, 0.0, 0.0)


def test_integrand_trapezoid_recovers_eigenfunction():
    # +-50 window half-widths leave a truncation tail of order
    # sqrt(T/2pi)/(2*gamma*u_max) ~ 1.6e-2; the integral itself is exact
    # far inside that span (see the +-600h test below).
    x_f = 0.6
    g = np.arange(1.0 - 50 * H_LONG, 1.0 + 50 * H_LONG + 1e-9, 1e-4)
    val = np.trapezoid(integrand(K1, g, x_f, T_LONG), g)
    assert abs(val - np.exp(1j * x_f)) < 2.5e-2


def _x0_to_p_c(state, p, x_f, T, jacobian):
    """The integrand as the change of variables x0 -> p_c that defines it:
    K(x0(p), x_f, T) psi(x0(p)) e^{iET/hbar} |dx0/dp|, from the kernel in
    `systems`, which the window engine does not call."""
    system = state.system
    x0 = ps.characteristic_x0(system, p, x_f, T)
    phase = np.exp(1j * state.energy * T / system.hbar)
    return ps.propagator(system, x0, x_f, T) * ps.eigenfunction(state, x0) * phase * jacobian


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("x_f", [0.0, 0.7, -1.3])
def test_oscillator_integrand_is_the_x0_to_p_c_change_of_variables(n, x_f):
    system = ps.harmonic_oscillator()
    T = 32.0 * math.pi + 0.3
    m_omega = system.mass * system.omega
    reach = np.linspace(0.05, 4.0, 40) + m_omega * abs(x_f)
    p = np.concatenate([reach, -reach])  # both branches of x0(p)
    # |dx0/dp| = |sin wT| |p| / ((M w)^2 sqrt((p/M w)^2 - x_f^2))
    jacobian = abs(math.sin(system.omega * T)) * np.abs(p) / (m_omega**2 * np.sqrt((p / m_omega) ** 2 - x_f**2))
    state = ps.EigenstateSpec(system, n)
    want = _x0_to_p_c(state, p, x_f, T, jacobian)
    assert np.max(np.abs(integrand(state, p, x_f, T) - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("x_f", [0.0, 0.7, -1.3])
def test_free_line_integrand_is_the_x0_to_p_c_change_of_variables(x_f):
    state = ps.EigenstateSpec(ps.free_line(), 1.3)
    T = 50.0
    p = np.linspace(-3.0, 3.0, 61)
    want = _x0_to_p_c(state, p, x_f, T, T / state.system.mass)  # x0 = x_f - p T / M
    assert np.max(np.abs(integrand(state, p, x_f, T) - want)) < 1e-12 * np.max(np.abs(want))


_IMAGE_TERMS = 40
# (state, the mass-like constant m, the images y of x0 whose paths end at x_f):
# the wall and well extend psi oddly (periodically for the well) and the
# circle unwinds its angle, so each image's label is p = m (x_f - y) / T
IMAGE_SUMS = {
    "hard_wall": (ps.EigenstateSpec(ps.hard_wall(), 2.0), 1.0, lambda x0: [x0, -x0]),
    "square_well": (
        ps.EigenstateSpec(ps.square_well(math.pi), 3),
        1.0,
        lambda x0: [s * x0 + 2.0 * math.pi * w for s in (1, -1) for w in range(-_IMAGE_TERMS, _IMAGE_TERMS + 1)],
    ),
    "circle": (
        ps.EigenstateSpec(ps.circle(), 2),
        ps.circle().inertia,
        lambda x0: [x0 - 2.0 * math.pi * w for w in range(-_IMAGE_TERMS, _IMAGE_TERMS + 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(IMAGE_SUMS))
def test_image_sum_integrand_is_the_x0_to_p_c_change_of_variables(name):
    """Summed over the images of x0, the integrand is (T/m) K_N(x0, x_f, T) psi(x0) e^{iET/hbar},
    with the kernel's image sum cut at |w| <= N as the images are."""
    state, m, images = IMAGE_SUMS[name]
    T, x_f = 50.0, 0.9
    got, want = [], []
    for x0 in (0.3, 1.7, 2.6):
        y = np.array(images(x0))
        got.append(np.sum(integrand(state, m * (x_f - y) / T, x_f, T)))
        kernel = ps.propagator(state.system, x0, x_f, T, n_terms=_IMAGE_TERMS)
        want.append((T / m) * kernel * ps.eigenfunction(state, x0) * np.exp(1j * state.energy * T / state.system.hbar))
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12 * np.max(np.abs(want))


# -------------------------------------------------------------- phasor_curve

def test_phasor_curve_grid_validation():
    with pytest.raises(DomainError):
        phasor_curve(K1, 0.0, T_LONG, np.array([1.0]))
    with pytest.raises(DomainError):
        phasor_curve(K1, 0.0, T_LONG, np.array([0.0, 1.0, 1.0]))


def test_phasor_curve_two_points_is_one_cell():
    g = np.array([0.9, 1.1])
    c = phasor_curve(K1, 0.0, T_LONG, g)
    f = integrand(K1, g, 0.0, T_LONG)
    assert c.cumulative[0] == 0.0
    assert c.cumulative[1] == pytest.approx(0.5 * (f[0] + f[1]) * 0.2, rel=1e-14)


def test_phasor_curve_value_at_bounds():
    g = np.linspace(0.5, 1.5, 11)
    c = phasor_curve(K1, 0.0, T_LONG, g)
    assert c.value_at(0.5) == 0.0
    with pytest.raises(DomainError):
        c.value_at(1.6)


def test_endpoint_identity_all_systems():
    """Curve endpoints reproduce the eigenfunctions on a +-6 momentum span.

    The residual is the oscillatory truncation tail, largest for the circle
    (its angular window half-width sqrt(I/T) is the biggest of the four).
    """
    cases = [
        (FREE, 1.0, 0.37, [1.0]),
        (ps.circle(radius=1.7), 2.0, 0.8, [2.0]),
        (ps.hard_wall(), 2.0, 0.7, [-2.0, 2.0]),
    ]
    well = ps.square_well(width=math.pi)
    k_w = ps.EigenstateSpec(system=well, quantum_number=2.0).wavenumber
    cases.append((well, 2.0, 1.1, [-k_w, k_w]))
    for system, qn, x_f, centers in cases:
        st = ps.EigenstateSpec(system=system, quantum_number=qn)
        g = np.arange(min(centers) - 6.0, max(centers) + 6.0 + 1e-5, 2e-5)
        c = phasor_curve(st, x_f, T_LONG, g)
        err = abs(c.endpoint - complex(ps.eigenfunction(st, x_f)))
        assert err < 5e-3, f"{system.kind}: endpoint error {err:.2e}"


def test_midpoint_is_half_the_endpoint():
    # even integrand about the stationary point, so F(hbar*k) = F(inf)/2
    g = 0.5 + 1e-4 * np.arange(10001)
    c = phasor_curve(K1, 0.0, T_LONG, g)
    assert abs(c.value_at(1.0) - 0.5 * c.endpoint) < 1e-9


def test_phasor_curve_is_one_cumulative_trapezoid_past_a_million_nodes():
    # more than 2**20 nodes: the curve is one running sum, with no seam in it
    g = 0.5 + 1e-6 * np.arange((1 << 20) + 4097)
    c = phasor_curve(K1, 0.0, T_LONG, g)
    want = cumulative_trapezoid(g, integrand(K1, g, 0.0, T_LONG))
    assert c.cumulative.tobytes() == want.tobytes()


# ------------------------------------------------------------ window_average

def test_window_average_matches_dense_quadrature():
    rng = np.random.default_rng(7)
    gb = _bundle(T_LONG)
    x_f = 0.3
    for p in 1.0 + 5 * H_LONG * (2.0 * rng.random(5) - 1.0):
        gg = np.linspace(p - H_LONG, p + H_LONG, 200001)
        ref = np.trapezoid(integrand(K1, gg, x_f, T_LONG), gg) / (2 * H_LONG)
        got = window_average(K1, float(p), x_f, T_LONG, gb)
        assert abs(got - ref) < 1e-8


def test_window_average_decays_away_from_stationary_point():
    # ten half-widths out the window straddles ~16 oscillation periods;
    # the measured ratio is 0.0564 (the 1/(2*gamma*h*u) tail estimate)
    gb = _bundle(T_LONG)
    w0 = window_average(K1, 1.0, 0.0, T_LONG, gb)
    w10 = window_average(K1, 1.0 + 10 * H_LONG, 0.0, T_LONG, gb)
    assert abs(w10) / abs(w0) < 0.06


def test_empty_lattices_give_empty_stacks():
    wall = ps.EigenstateSpec(ps.hard_wall(), 2.0)
    p_c = np.array([0.5, 1.0, 2.0])
    for state in (K1, wall):
        assert window_average(state, p_c, np.array([]), T_LONG, _bundle(T_LONG)).shape == (0, 3)
        assert window_average(state, np.array([]), np.array([0.3]), T_LONG, _bundle(T_LONG)).shape == (1, 0)
    # the travel time is still checked when there is no row to price
    with pytest.raises(DomainError, match="positive and finite"):
        window_average(wall, p_c, np.array([]), math.nan, _bundle(T_LONG))


def test_window_average_oscillator_gap_window_is_zero():
    ho = ps.harmonic_oscillator()
    st = ps.EigenstateSpec(system=ho, quantum_number=1.0)
    gb = _bundle(25.0)  # h = 0.2, window [-0.2, 0.2] inside the gap |p| < 3
    assert window_average(st, 0.0, 3.0, 25.0, gb) == 0.0


@pytest.mark.parametrize("p_c", [math.nan, math.inf])
def test_non_finite_momenta_are_refused(p_c):
    # one contract for every system: NaN and +-inf momenta are refused on
    # entry (a Fresnel window's limit 0 at infinite momentum is not returned)
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1.0)
    T = 32.0 * math.pi + 0.3
    for state in (st, K1, ps.EigenstateSpec(ps.hard_wall(), 2.0)):
        for q in (p_c, -p_c):
            for call in (
                lambda: integrand(state, [0.5, q], 0.3, T),
                lambda: window_average(state, q, 0.3, T, _bundle(T)),
                lambda: window_average_series(state, [0.5, q], 0.3, T, _bundle(T)),
            ):
                with pytest.raises(DomainError, match="p_c must be finite"):
                    call()
    with pytest.raises(DomainError, match="p_c must be finite"):
        window_average(K1, [0.5, p_c], np.array([0.0, 0.3]), T, _bundle(T))


def test_oscillator_jacobian_survives_underflow():
    """|p|/sqrt(p^2 - b^2) is read without squaring p, so tiny momenta keep their value."""
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
    T = 32.0 * math.pi + 0.3
    for p_c, x_f, jacobian in ((1.4e-199, 0.0, 1.0), (2e-200, 1e-200, 2.0 / math.sqrt(3.0))):
        factor = complex(ho_regular_factor(st, x_f, T)(np.array([p_c]))[0])
        got = integrand(st, p_c, x_f, T)
        assert got == pytest.approx(factor * jacobian, rel=4e-16)
    # away from underflow the factored form agrees with |p| / sqrt(p^2 - b^2)
    p = np.linspace(0.31, 6.0, 400)
    old_form = ho_regular_factor(st, 0.3, T)(p) * p / np.sqrt(p * p - 0.09)
    assert np.max(np.abs(integrand(st, p, 0.3, T) - old_form)) <= 4e-16 * np.max(np.abs(old_form))


def test_overflowing_phases_are_refused():
    """Finite inputs past float range are refused, not returned as NaN."""
    ho = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1.0)
    with pytest.raises(DomainError, match="float range"):
        integrand(K1, 1e300, 0.0, 100.0)  # gamma * p^2 overflows
    with pytest.raises(DomainError, match="float range"):
        window_average_series(ho, [1e200], 0.0, 100.0, _bundle(100.0))  # edge^2 overflows
    with pytest.raises(DomainError, match="float range"):
        phasor_curve(K1, 0.0, 1e300, [-1e300, 1e300])  # one cell of 2e300 * 1e150


def test_fallback_column_refuses_an_oversized_inner_grid():
    # n = 60 at x_f = 15 is a fallback column; a window at p_c = 1e10 would
    # need a 2e13-node inner v-grid
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=60.0)
    T = 32.0 * math.pi + 0.3
    with pytest.raises(DomainError, match="inner v-grid"):
        window_average_series(st, [1e10], 15.0, T, _bundle(T))


def test_window_series_matches_pointwise_oscillator():
    ho = ps.harmonic_oscillator()
    st = ps.EigenstateSpec(system=ho, quantum_number=2.0)
    T = 32.0 * math.pi + 0.4
    g = paper_grids(st, 32.0 * math.pi)
    pvals = np.array([0.3, 1.1, 2.2, 2.7, 3.5, 5.0, 6.3])
    ser = window_average_series(st, pvals, 0.9, T, g)
    pts = np.array([window_average(st, float(p), 0.9, T, g) for p in pvals])
    assert np.max(np.abs(ser - pts)) < 5e-6 * np.max(np.abs(pts))


# |sin(omega*T)| = 0.1, 0.7 (on a half period where sin < 0) and 1.0
SIN_TIMES = (
    32.0 * math.pi + math.asin(0.1),
    33.0 * math.pi + math.asin(0.7),
    32.5 * math.pi,
)
# turning point kappa*|x_f| = sqrt(2n+1): 0.3 of it is inside, 1.5 outside;
# the closed form covers n <= 8 everywhere and high n inside, the grid
# fallback takes n = 16, 32, 64 outside
OSCILLATOR_COLUMNS = [
    (n, frac, frac < 1.0 or n <= 8)
    for n in (0, 1, 2, 3, 8, 16, 32, 64)
    for frac in (0.3, 1.5)
]


@pytest.mark.parametrize("n, frac, closed", OSCILLATOR_COLUMNS)
def test_window_series_matches_singular_oracle(n, frac, closed):
    """Closed-form (or fallback) columns against the per-window v-grid oracle.

    Windows include one straddling each divergence ``+-b`` and one at each
    turning momentum; the oracle runs at 1/8 of the default inner spacing,
    where its own error is ~1e-8 of the column maximum.
    """
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n)
    x_f = -frac * math.sqrt(2 * n + 1)
    b = abs(x_f)
    for T in SIN_TIMES:
        s = math.sin(T)
        gain = hermite_phase_gain(n, 0.5 * math.cos(T) / s, -x_f / s)
        assert (gain * np.finfo(float).eps <= phasor._LADDER_TOLERANCE) == closed
        h = math.sqrt(1.0 / T)
        turning = max(math.sqrt(2 * n + 1), b + 5 * h)
        pvals = np.array([-turning, -b - 3 * h, -b - 0.4 * h, b + 0.4 * h, b + 3 * h, turning])
        dv = 1.0 / (8 * 150.0 * max(1.0, b) * math.sqrt(T))
        factor = ho_regular_factor(st, x_f, T)
        oracle = np.array(
            [
                singular_window_integral(p - h, p + h, x_f, st.system, factor, inner_spacing=dv)
                for p in pvals
            ]
        ) / (2.0 * h)
        # fallback columns integrate at the oracle's spacing
        got = window_average_series(st, pvals, x_f, T, _bundle(T, n_p_floor=8 * 150.0 * max(1.0, b)))
        rel = np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))
        assert rel < 2e-7, (T, rel)


def test_closed_form_windows_ignore_the_inner_grid():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=3)
    T = 32.0 * math.pi + 0.4
    pvals = np.linspace(-6.0, 6.0, 61)
    coarse = window_average_series(st, pvals, 1.3, T, _bundle(T, n_p_floor=1.0))
    fine = window_average_series(st, pvals, 1.3, T, _bundle(T, n_p_floor=1e4))
    assert np.array_equal(coarse, fine)


def test_oscillator_windows_refuse_near_singular_times():
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1)
    T = 32.0 * math.pi + 1e-12
    with pytest.raises(SingularTimeError):
        window_average_series(st, np.array([0.5, 1.0]), 0.3, T, _bundle(T))
    with pytest.raises(SingularTimeError):
        ho_regular_factor(st, 0.3, T)


def test_window_consistency_with_full_integral():
    """Trapezoid of the window average over p_c recovers the full integral.

    The exact form of this identity is the segment tiling (tested at 1e-12
    below); sampling the average on an incommensurate grid adds only the
    truncation tail of the conditionally convergent integral.
    """
    T = 400.0
    gb = _bundle(T)
    pg = np.arange(1.0 - 8.0, 1.0 + 8.0 + 1e-4, 2e-4)
    tot = np.trapezoid(window_average(K1, pg, 0.0, T, gb), pg)
    assert abs(tot - 1.0) < 2e-5


def test_hard_wall_window_has_two_maxima():
    st = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
    T = 1.0e3
    gb = _bundle(T)
    pg = np.arange(-4.0, 4.0 + 1e-9, 0.01)
    mag = np.abs(window_average(st, pg, 0.7, T, gb))
    peaks, _ = find_peaks(mag, prominence=0.5 * np.max(mag))
    assert len(peaks) == 2
    assert pg[peaks[0]] == pytest.approx(-2.0, abs=0.005)
    assert pg[peaks[1]] == pytest.approx(2.0, abs=0.005)


# ----------------------------------------------------------- segment windows

def test_segment_sum_independent_of_offset():
    rng = np.random.default_rng(11)
    base = segment_sum_check(K1, 0.0, T_LONG, 0.0, 0.5, 1.5)
    for dp in rng.random(10) * 2.0 * H_LONG:
        s = segment_sum_check(K1, 0.0, T_LONG, float(dp), 0.5, 1.5)
        assert abs(s - base) < 1e-10 * abs(base)


def test_segment_sum_telescopes_to_curve_endpoint():
    step = 2.0 * H_LONG / 64
    n_cells = int(math.floor(1.0 / step + 1e-9))
    g = 0.5 + step * np.arange(n_cells + 1)
    c = phasor_curve(K1, 0.0, T_LONG, g)
    s = segment_sum_check(K1, 0.0, T_LONG, 0.0, 0.5, 1.5)
    assert abs(s - c.endpoint) < 1e-12


def test_segment_windows_cover_extent():
    centers, windows = segment_windows(K1, 0.0, T_LONG, 0.01, 0.5, 1.5)
    assert centers.size == windows.size
    assert np.all(np.diff(centers) > 0)
    # centers sit on the 2h lattice shifted by the (snapped) offset
    lattice = (centers - centers[0]) / (2.0 * H_LONG)
    assert np.max(np.abs(lattice - np.round(lattice))) < 1e-9


def test_segment_windows_argument_validation():
    with pytest.raises(DomainError):
        segment_windows(K1, 0.0, T_LONG, 0.0, 1.5, 0.5)
    with pytest.raises(DomainError):
        # extent narrower than one window
        segment_windows(K1, 0.0, T_LONG, 0.0, 0.5, 0.5 + H_LONG)
    # an extent past the node limit is refused, NumPy scalars by overflow to a refusal, not a RuntimeWarning
    for p_lo, p_hi in ((0.0, 1e308), (np.float64(-1e308), np.float64(1e308))):
        with pytest.raises(DomainError, match="more than the limit"):
            segment_windows(K1, 0.0, 1.0, 0.0, p_lo, p_hi)


def test_segment_windows_reduce_far_offsets_to_their_residue():
    # fmod by the lattice period 2h is exact, so a far offset tiles like its residue
    centers0, windows0 = segment_windows(K1, 0.0, T_LONG, 0.0, 0.5, 1.5)
    assert centers0.size == 51
    base = segment_sum_check(K1, 0.0, T_LONG, 0.0, 0.5, 1.5)
    for dp in (1e20, 1e300, -1e300):
        centers, windows = segment_windows(K1, 0.0, T_LONG, dp, 0.5, 1.5)
        c_res, w_res = segment_windows(K1, 0.0, T_LONG, math.fmod(dp, 2.0 * H_LONG), 0.5, 1.5)
        assert centers.tobytes() == c_res.tobytes() and windows.tobytes() == w_res.tobytes()
        assert centers.size >= 50
        assert abs(segment_sum_check(K1, 0.0, T_LONG, dp, 0.5, 1.5) - base) < 1e-10 * abs(base)


# ------------------------------------------------------------ hostile inputs

_HO0 = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=0.0)
_T_HO = 32.0 * math.pi + 0.3
_WALL2 = ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0)
_WALL_GRIDS = GridBundle(
    p_c_grid=np.linspace(-3.0, 3.0, 61), x_f_grid=np.linspace(0.0, math.pi, 9), T_samples=(100.0,)
)

HOSTILE = {
    **{
        f"segment_windows-T={T}": (lambda T=T: segment_windows(K1, 0.0, T, 0.0, 0.5, 1.5))
        for T in (math.nan, math.inf, -1.0)
    },
    **{
        f"segment_windows-delta_p={dp}": (lambda dp=dp: segment_windows(K1, 0.0, T_LONG, dp, 0.5, 1.5))
        for dp in (math.nan, math.inf, -math.inf)
    },
    "segment_sum_check-T=nan": lambda: segment_sum_check(K1, 0.0, math.nan, 0.0, 0.5, 1.5),
    "segment_sum_check-delta_p=inf": lambda: segment_sum_check(K1, 0.0, T_LONG, math.inf, 0.5, 1.5),
    **{
        f"reconstruct-band={band}": (lambda band=band: reconstruct(_WALL2, band, 100.0, _WALL_GRIDS))
        for band in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0))
    },
    "phasor_curve-nan-node": lambda: phasor_curve(K1, 0.0, T_LONG, np.array([0.5, math.nan, 1.5])),
    "phasor_curve-inf-node": lambda: phasor_curve(K1, 0.0, T_LONG, np.array([-math.inf, 0.5, 1.5])),
    **{
        f"oscillator-{name}-x_f={x_f}": (lambda call=call, x_f=x_f: call(x_f))
        for x_f in (math.nan, math.inf, -math.inf)
        for name, call in (
            ("integrand", lambda x: integrand(_HO0, np.array([0.5, 1.0]), x, _T_HO)),
            ("window_average", lambda x: window_average(_HO0, np.array([0.5, 1.0]), x, _T_HO, _bundle(_T_HO))),
            ("window_average_series", lambda x: window_average_series(_HO0, [0.5, 1.0], x, _T_HO, _bundle(_T_HO))),
        )
    },
}


@pytest.mark.parametrize("call", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# ------------------------------------------------------- the T' mean stack

_HO1 = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=1.0)


def _small_grids(st, T):
    return paper_grids(st, T, delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0)


def _level(st, g, times=None):
    return (st, g.p_c_grid, g.x_f_grid, g.T_samples if times is None else times, g)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_window_stack_is_the_mean_of_single_time_stacks(n):
    st = ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n)
    g = _small_grids(st, _T_HO)
    [got] = phasor._window_stack([_level(st, g)])
    want = sum(phasor._window_stack([_level(st, g, (t,))])[0] for t in g.T_samples) / len(g.T_samples)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "st",
    [
        _WALL2,
        ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=3.0),
        K1,
        ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=2.0),
    ],
    ids=lambda s: s.system.kind.name,
)
def test_window_average_prices_the_plane_systems_as_their_plane_stack(monkeypatch, st):
    T = 100.0
    g = stationary_grids(st, T, p_c_span=(-3.0, 3.0))
    # per row: (0 + pref_1*G_1 + pref_2*G_2) / 2h, each G_t the Fresnel window at its plane term's centre
    h = ps.window_halfwidth(st.system, T)
    gamma = T / (2.0 * st.system.hbar * mass_parameter(st.system))
    want = np.empty((g.x_f_grid.size, g.p_c_grid.size), dtype=np.complex128)
    for row, x in zip(want, g.x_f_grid):
        total = np.zeros(g.p_c_grid.size, dtype=np.complex128)
        for pref, center in phasor._plane_terms(st, float(x), T):
            u = g.p_c_grid - center
            total += pref * gaussian_phase_integral(u - h, u + h, gamma)
        row[:] = total / (2.0 * h)

    def engine(levels):
        raise AssertionError("the oscillator engine priced a plane system")

    monkeypatch.setattr(phasor, "_window_stack", engine)
    assert window_average(st, g.p_c_grid, g.x_f_grid, T, g).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "st, x_f",
    [
        (ps.EigenstateSpec(system=ps.circle(radius=1.0), quantum_number=2.0), 7.0),
        (_WALL2, -1.0),
        (ps.EigenstateSpec(system=ps.square_well(width=math.pi), quantum_number=3.0), 3.5),
    ],
    ids=["circle", "wall", "well"],
)
def test_positions_outside_a_bounded_interval_are_refused_before_any_window(monkeypatch, st, x_f):
    def priced(*args):
        raise AssertionError("a window was priced at a refused position")

    monkeypatch.setattr(phasor, "_plane_factors", priced)
    g = stationary_grids(st, 100.0, p_c_span=(-3.0, 3.0))
    for call in (
        lambda: integrand(st, g.p_c_grid, x_f, 100.0),
        lambda: phasor_curve(st, x_f, 100.0, g.p_c_grid),
        lambda: window_average(st, g.p_c_grid, x_f, 100.0, g),
        lambda: window_average(st, g.p_c_grid, np.array([0.5, x_f]), 100.0, g),
        lambda: window_average_series(st, g.p_c_grid, x_f, 100.0, g),
        lambda: ps.eigenfunction(st, x_f),
    ):
        with pytest.raises(DomainError, match="positions must lie in"):
            call()


def _levels_0_to_3(**overrides):
    states = [ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n) for n in range(4)]
    return [(st, paper_grids(st, _T_HO, **overrides)) for st in states]


def test_window_stack_prices_the_kept_rows_once_per_time(climbs):
    g = _small_grids(_HO1, _T_HO)
    n = g.x_f_grid.size
    expected = len(g.T_samples) * (n - n // 2)
    phasor._window_stack([_level(_HO1, g)])
    assert climbs == [1] * expected
    climbs.clear()
    ps.time_average(_HO1, _T_HO, g)
    assert climbs == [1] * expected
    climbs.clear()
    reconstruct(_HO1, (0.5, 2.5), _T_HO, g)
    # a row climbs only if some window edge reaches past its gap |p_c| < |x_f|
    kept = g.x_f_grid[n // 2 :]
    assert climbs == [1] * sum(int(np.sum(kept <= 2.5 + math.sqrt(1.0 / t))) for t in g.T_samples)
    # fig7's four levels: one climb to n = 3 per kept row of the n = 3 lattice and time
    climbs.clear()
    levels = _levels_0_to_3(delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0)
    _distributions(levels, _T_HO, time_averaged=True)
    top = levels[3][1]
    assert climbs == [3] * (len(top.T_samples) * (top.x_f_grid.size - top.x_f_grid.size // 2))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(delta_x_f=0.4, delta_T=math.pi / 2.0),  # the benchmark's grids
        dict(delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0),
        dict(delta_x_f=0.5, p_c_max=4.0, x_f_span=3.0, delta_T=math.pi),  # one shared, truncated lattice
    ],
    ids=["bench", "small", "pinned"],
)
def test_shared_climb_gives_each_level_its_own_bytes(overrides, climbs):
    levels = [_level(st, g) for st, g in _levels_0_to_3(**overrides)]
    shared = phasor._window_stack(levels)
    # one climb to n = 3 per kept row of the n = 3 lattice and time
    top = levels[3][2]
    assert climbs == [3] * (len(levels[3][3]) * (top.size - top.size // 2))
    for level, stack in zip(levels, shared):
        assert stack.tobytes() == phasor._window_stack([level])[0].tobytes()


def test_levels_of_one_n_each_keep_the_bytes_they_have_alone():
    """Each (x_f, T') column differences and scales a rung in place once; other levels of that n,
    on the same or a nested smaller lattice, read it without scaling it again."""
    _, (_, g1), _, (_, g3) = _levels_0_to_3(delta_x_f=0.5, delta_p_c=0.1, delta_T=math.pi / 2.0)
    levels = [_level(_HO1, g3), _level(_HO1, g1), _level(_HO1, g1)]
    for level, stack in zip(levels, phasor._window_stack(levels)):
        assert stack.tobytes() == phasor._window_stack([level])[0].tobytes()


def _family_breakers():
    st0, st3 = (ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n) for n in (0, 3))
    g0, g3 = _small_grids(st0, _T_HO), _small_grids(st3, _T_HO)
    other_x_f = paper_grids(st3, _T_HO, delta_x_f=0.3, delta_p_c=0.1, delta_T=math.pi / 2.0)
    other_p_c = paper_grids(st3, _T_HO, delta_x_f=0.5, delta_p_c=0.07, delta_T=math.pi / 2.0)
    heavy = ps.EigenstateSpec(system=ps.harmonic_oscillator(mass=2.0), quantum_number=3)
    wall = (_WALL2, _WALL_GRIDS.p_c_grid, _WALL_GRIDS.x_f_grid, (100.0,), _WALL_GRIDS)
    return {
        "x_f-lattices-do-not-nest": [_level(st0, g0), _level(st3, other_x_f)],
        "p_c-lattices-do-not-nest": [_level(st0, g0), _level(st3, other_p_c)],
        "p_c-slice-off-centre": [(st0, g3.p_c_grid[:-2], g0.x_f_grid, g0.T_samples, g0), _level(st3, g3)],
        "systems-differ": [_level(st0, g0), (heavy, g3.p_c_grid, g3.x_f_grid, g3.T_samples, g3)],
        "T-sets-differ": [_level(st0, g0, g0.T_samples[:2]), _level(st3, g3)],
        "stationary-level": [wall],
        "stationary-beside-oscillator": [_level(st3, g3), wall],
    }


FAMILY_BREAKERS = _family_breakers()


@pytest.mark.parametrize("levels", FAMILY_BREAKERS.values(), ids=FAMILY_BREAKERS.keys())
def test_a_window_stack_that_is_not_one_nested_family_is_refused(levels, climbs):
    with pytest.raises(DomainError, match="one system and one T' set on nested lattices"):
        phasor._window_stack(levels)
    assert climbs == []  # refused before any work


def test_a_level_past_the_ladder_takes_the_grid_while_the_rest_share_the_climb(monkeypatch, climbs):
    """n = 16 leads (widest lattice); its outer columns fall back to the grid,
    while on the rows it shares with them n = 0 and 1 still climb, to n = 1."""
    states = [ps.EigenstateSpec(system=ps.harmonic_oscillator(), quantum_number=n) for n in (0, 1, 16)]
    grids = [
        paper_grids(st, _T_HO, delta_x_f=2.0, delta_p_c=0.5, delta_T=math.pi, n_p_floor=5.0, n_p_slope=5.0)
        for st in states
    ]
    levels = [_level(st, g) for st, g in zip(states, grids)]
    original = phasor._ho_antiderivative_grid
    fallback = []

    def counted(state, x_f, *args):
        fallback.append((int(state.quantum_number), x_f))
        return original(state, x_f, *args)

    monkeypatch.setattr(phasor, "_ho_antiderivative_grid", counted)
    shared = phasor._window_stack(levels)
    assert fallback and {n for n, _ in fallback} == {16}
    assert min(x for _, x in fallback) <= grids[1].x_f_grid[-1]  # a row both climbs and falls back
    # per time, over the kept rows x_f = 0, 2, ..., 28 of the n = 16 lattice: one climb to n = 16
    # at x_f <= 4, one to n = 1 at 6 and 8 (n = 0's lattice ends at 4), none where only n = 16 is left
    assert climbs == ([16] * 3 + [1] * 2) * len(grids[2].T_samples)
    for level, stack in zip(levels, shared):
        assert stack.tobytes() == phasor._window_stack([level])[0].tobytes()


def test_non_finite_windows_are_refused_once_per_stack():
    """An edge^2 overflow gives NaN windows: the engine and both averages refuse them."""
    g = GridBundle(p_c_grid=np.array([-1e200, 1e200]), x_f_grid=np.array([-1.0, 0.0, 1.0]), T_samples=(_T_HO,))
    with pytest.raises(DomainError, match="_window_stack: result not finite"):
        phasor._window_stack([_level(_HO1, g)])
    with pytest.raises(DomainError, match="not finite"):
        ps.time_average(_HO1, _T_HO, g)
    g_band = GridBundle(p_c_grid=np.array([0.0, 1e200]), x_f_grid=g.x_f_grid, T_samples=(_T_HO,))
    with pytest.raises(DomainError, match="not finite"):
        reconstruct(_HO1, (0.0, 2e200), _T_HO, g_band)
