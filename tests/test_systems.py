"""System specs, spectra, kernels, and the classical-path helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pathspectra.errors import (
    DomainError,
    ExcludedRegionError,
    SingularTimeError,
)
from pathspectra.systems import (
    EigenstateSpec,
    SystemKind,
    characteristic_x0,
    circle,
    default_winding_terms,
    eigen_energy,
    eigenfunction,
    free_line,
    hard_wall,
    harmonic_oscillator,
    ho_max_momentum,
    mass_parameter,
    maslov_index,
    propagator,
    regular_sin,
    square_well,
    window_halfwidth,
)


# ---------------------------------------------------------------------------
# spec validation


def test_factories_reject_bad_constants():
    with pytest.raises(DomainError):
        square_well(-1.0)
    with pytest.raises(DomainError):
        harmonic_oscillator(0.0)
    with pytest.raises(DomainError):
        free_line(mass=-2.0)
    # NaN passes every ordered comparison, so non-finite values get their own check
    for make in (
        lambda: harmonic_oscillator(math.nan),
        lambda: harmonic_oscillator(math.inf),
        lambda: free_line(hbar=math.inf),
        lambda: free_line(mass=math.nan),
        lambda: circle(math.nan),
        lambda: square_well(math.inf),
        lambda: hard_wall(hbar=-math.inf),
    ):
        with pytest.raises(DomainError, match="finite"):
            make()


def test_irrelevant_constants_are_rejected():
    from pathspectra.systems import SystemSpec

    with pytest.raises(DomainError):
        SystemSpec(SystemKind.FREE_LINE, omega=1.0)
    with pytest.raises(DomainError):
        SystemSpec(SystemKind.CIRCLE, radius=1.0, width=2.0)


@pytest.mark.parametrize(
    "system, bad_q",
    [
        (hard_wall(), 0.0),
        (hard_wall(), -1.0),
        (square_well(math.pi), 0),
        (square_well(math.pi), 1.5),
        (circle(), 0.5),
        (harmonic_oscillator(), -1),
        (harmonic_oscillator(), 65),
        (circle(), math.nan),
        (free_line(), math.inf),
        (hard_wall(), math.inf),
        (harmonic_oscillator(), math.nan),
    ],
)
def test_state_label_validation(system, bad_q):
    with pytest.raises(DomainError):
        EigenstateSpec(system, bad_q)


def test_energies_match_closed_forms():
    assert eigen_energy(EigenstateSpec(harmonic_oscillator(2.0), 3)) == pytest.approx(7.0)
    well = EigenstateSpec(square_well(math.pi), 2)
    assert well.energy == pytest.approx(2.0)  # (n pi / a)^2 / 2 with a = pi
    ring = EigenstateSpec(circle(2.0), 3)
    assert ring.energy == pytest.approx(9.0 / 8.0)  # l^2 / (2 M R^2)
    assert EigenstateSpec(free_line(), 1.5).energy == pytest.approx(1.125)


def test_mass_parameter_is_inertia_on_the_circle():
    assert mass_parameter(circle(3.0, mass=2.0)) == pytest.approx(18.0)
    assert mass_parameter(hard_wall(mass=2.0)) == pytest.approx(2.0)


def test_window_halfwidth_takes_hbar_and_the_mass_parameter():
    assert window_halfwidth(hard_wall(hbar=2.0), 8.0) == pytest.approx(0.5)
    assert window_halfwidth(circle(3.0, mass=2.0), 2.0) == pytest.approx(3.0)  # I = 18
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            window_halfwidth(free_line(), T)


# ---------------------------------------------------------------------------
# eigenfunctions


def test_bounded_eigenfunctions_vanish_on_the_boundary():
    well = EigenstateSpec(square_well(math.pi), 3)
    assert eigenfunction(well, 0.0) == 0
    assert abs(eigenfunction(well, math.pi)) < 1e-12
    wall = EigenstateSpec(hard_wall(), 1.7)
    assert eigenfunction(wall, 0.0) == 0


def test_eigenfunction_domain_enforcement():
    ring = EigenstateSpec(circle(), 2)
    with pytest.raises(DomainError):
        eigenfunction(ring, -0.1)
    # the seam 2*pi closes the circle: it gives the value at 0
    assert abs(eigenfunction(ring, 2.0 * math.pi) - eigenfunction(ring, 0.0)) <= 1e-15
    with pytest.raises(DomainError):
        eigenfunction(ring, 2.0 * math.pi + 0.1)
    with pytest.raises(DomainError):
        eigenfunction(EigenstateSpec(square_well(1.0), 1), 1.2)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "system",
    [free_line(), hard_wall(), square_well(math.pi), circle(), harmonic_oscillator()],
    ids=["line", "wall", "well", "circle", "oscillator"],
)
def test_non_finite_positions_are_refused(system, x):
    state = EigenstateSpec(system, 2.0)
    calls = (
        lambda: eigenfunction(state, x),
        lambda: eigenfunction(state, np.array([0.5, x])),
        lambda: propagator(system, x, 1.0, 2.0),
        lambda: propagator(system, 1.0, np.array([0.5, x]), 2.0),
    )
    for call in calls:
        with pytest.raises(DomainError, match="must be finite"):
            call()


def test_circle_eigenfunction_is_a_phase():
    ring = EigenstateSpec(circle(), -3)
    phi = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    values = eigenfunction(ring, phi)
    assert np.allclose(np.abs(values), 1.0)
    assert values[1] == pytest.approx(np.exp(-3j * phi[1]), rel=1e-14)


# ---------------------------------------------------------------------------
# propagators


def test_free_kernel_closed_form():
    sys_ = free_line()
    value = propagator(sys_, 0.3, 1.1, 2.0)
    amp = np.sqrt(1.0 / (4j * np.pi))
    assert value == pytest.approx(amp * np.exp(1j * 0.8**2 / 4.0), rel=1e-14)


def test_hard_wall_kernel_vanishes_at_the_wall():
    sys_ = hard_wall()
    x0 = np.linspace(0.1, 5.0, 9)
    assert np.allclose(propagator(sys_, x0, 0.0, 3.0), 0.0, atol=1e-16)


def test_square_well_kernel_vanishes_at_the_near_wall_exactly():
    sys_ = square_well(2.0)
    x0 = np.linspace(0.1, 1.9, 7)
    amp = math.sqrt(1.0 / (2.0 * math.pi * 1.3))
    for n_terms in (1, 5, 40):
        at_zero = propagator(sys_, x0, 0.0, 1.3, n_terms=n_terms)
        at_a = propagator(sys_, x0, 2.0, 1.3, n_terms=n_terms)
        # at x_f = 0 the images pair within a symmetric truncation and cancel
        # identically; at x_f = a the pairing is offset by one image, so at
        # most the two boundary terms survive
        assert np.max(np.abs(at_zero)) < 1e-13
        assert np.max(np.abs(at_a)) <= 2.0 * amp + 1e-12


def test_circle_kernel_periodicity_up_to_truncation_boundary():
    sys_ = circle()
    T = 7.0
    nw = 30
    base = propagator(sys_, 0.4, 1.0, T, n_terms=nw)
    shifted = propagator(sys_, 0.4, 1.0 + 2.0 * math.pi, T, n_terms=nw)
    # shifting by a full turn re-indexes the winding sum; a symmetric
    # truncation leaves exactly the two boundary images unpaired
    amp = math.sqrt(1.0 / (2.0 * math.pi * T))
    assert abs(shifted - base) <= 2.0 * amp + 1e-12


def test_oscillator_kernel_reduces_to_free_at_small_omega():
    T = 2.0
    free = propagator(free_line(), 0.7, -0.4, T)
    ho = propagator(harmonic_oscillator(1e-5), 0.7, -0.4, T)
    assert abs(ho - free) / abs(free) < 1e-6


def test_oscillator_kernel_singular_times():
    sys_ = harmonic_oscillator()
    with pytest.raises(SingularTimeError):
        propagator(sys_, 0.0, 1.0, math.pi)
    with pytest.raises(SingularTimeError):
        maslov_index(2.0 * math.pi)


def test_near_singular_times_are_refused():
    # |sin| = 1e-12 is below the float resolution threshold at omega*T ~ 100
    sys_ = harmonic_oscillator()
    T = 32.0 * math.pi + 1e-12
    calls = (
        lambda: propagator(sys_, 0.0, 1.0, T),
        lambda: maslov_index(T),
        lambda: characteristic_x0(sys_, 2.0, 0.5, T),
        lambda: ho_max_momentum(sys_, 0.1, 0.5, T),
        lambda: regular_sin(T),
    )
    for call in calls:
        with pytest.raises(SingularTimeError):
            call()
    # the same refusal at omega != 1 and on the far side of the singular time
    with pytest.raises(SingularTimeError):
        propagator(harmonic_oscillator(2.5), 0.0, 1.0, (7.0 * math.pi - 3e-13) / 2.5)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_refused(T):
    sys_ = harmonic_oscillator()
    calls = (
        lambda: propagator(sys_, 0.0, 1.0, T),
        lambda: propagator(free_line(), 0.0, 1.0, T),
        lambda: default_winding_terms(circle(), 3.0, T),
        lambda: characteristic_x0(sys_, 2.0, 0.5, T),
        lambda: ho_max_momentum(sys_, 0.1, 0.5, T),
    )
    for call in calls:
        with pytest.raises(DomainError, match="positive and finite"):
            call()


def test_time_samples_clear_of_the_singular_threshold():
    # midpoint samples of the finest grids in use sit pi/128 from a singular
    # time; short times are not singular at all (the free-particle limit)
    for omega_T in (32.0 * math.pi + math.pi / 128, 512.0 * math.pi - math.pi / 128, 2e-4, 1e-12):
        assert regular_sin(omega_T) == math.sin(omega_T)
    assert abs(propagator(harmonic_oscillator(), 0.0, 1.0, 32.0 * math.pi + 1e-4)) > 0


def test_maslov_index_counts_half_periods():
    assert maslov_index(3.0) == 0
    assert maslov_index(3.2) == 1
    assert maslov_index(32.0 * math.pi + 0.1) == 32


def test_oscillator_kernel_mehler_value():
    # direct Mehler evaluation at a quarter period, where cos = 0 simplifies
    sys_ = harmonic_oscillator()
    T = math.pi / 2.0
    value = propagator(sys_, 1.0, 2.0, T)
    amp = np.sqrt(1.0 / (2j * np.pi))
    assert value == pytest.approx(amp * np.exp(-2.0j), rel=1e-13)


# ---------------------------------------------------------------------------
# classical-path helpers


def test_characteristic_x0_flat_roundtrip():
    sys_ = free_line(mass=1.7)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x0, xf, T = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 20)
        p = (xf - x0) * 1.7 / T
        assert characteristic_x0(sys_, p, xf, T) == pytest.approx(x0, abs=1e-12)


def test_characteristic_x0_oscillator_roundtrip():
    sys_ = harmonic_oscillator()
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 10:
        x0, xf = rng.uniform(-2, 2, size=2)
        T = rng.uniform(0.3, 9.0)
        if abs(math.sin(T)) < 0.2:
            continue
        p_env = ho_max_momentum(sys_, x0, xf, T)
        if p_env <= abs(xf) + 1e-9:  # degenerate: starts at its own turning point
            continue
        candidates = [characteristic_x0(sys_, s * p_env, xf, T) for s in (+1.0, -1.0)]
        assert min(abs(c - x0) for c in candidates) < 1e-12
        checked += 1


def test_characteristic_x0_excluded_region():
    sys_ = harmonic_oscillator()
    with pytest.raises(ExcludedRegionError):
        characteristic_x0(sys_, 0.3, 1.0, 1.0)


def _ho_path(x0, xf, T, t):
    """The classical oscillator path through (x0, 0) and (xf, T), at omega = 1."""
    return (xf * np.sin(t) + x0 * np.sin(T - t)) / math.sin(T)


def test_ho_trajectory_hits_both_endpoints():
    x = _ho_path(0.9, -1.4, 2.5, np.array([0.0, 2.5]))
    assert x[0] == pytest.approx(0.9, abs=1e-14)
    assert x[1] == pytest.approx(-1.4, abs=1e-14)


def test_ho_trajectory_momentum_envelope_matches_label():
    sys_ = harmonic_oscillator()
    x0, xf, T = 0.8, -0.3, 2.2
    t = np.linspace(0.0, T, 20001)
    x = _ho_path(x0, xf, T, t)
    v = np.gradient(x, t)
    inner = (t > 0.01) & (t < T - 0.01)
    vmax = np.max(np.abs(v[inner]))
    envelope = ho_max_momentum(sys_, x0, xf, T)
    # either the extremum is interior (envelope reached) or the momentum
    # maximum sits at an endpoint and stays below the envelope
    assert vmax <= envelope * (1.0 + 1e-6)
    # the envelope is the path's momentum amplitude, M*omega*sqrt(x^2 + (v/omega)^2)
    assert np.allclose(np.hypot(x[inner], v[inner]), envelope, rtol=1e-7)


def test_default_winding_terms_scales_with_momentum_and_time():
    ring = circle()
    assert default_winding_terms(ring, 1.0, 100.0) == math.ceil(100.0 / (2 * math.pi)) + 8
    well = square_well(2.0)
    assert default_winding_terms(well, 3.0, 10.0) == math.ceil(30.0 / 4.0) + 8
    with pytest.raises(DomainError):
        default_winding_terms(free_line(), 1.0, 1.0)
