"""End-to-end checks of the package's headline quantitative claims.

Each test drives the public API (or the CLI entry point) the way a user
would and asserts the numbers the library advertises: distribution norms
and peak locations, phasor endpoint values, reconstruction accuracy,
oracle agreement for the quadrature layer, thread determinism, and
wall-clock budgets.  Every tolerance here was frozen from an independent
prototype measurement before the assert was written; the printed lines
record the measured values for the run at hand.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import find_peaks

import pathspectra as ps
from pathspectra.cli import main
from pathspectra.phasor import ho_regular_factor
from pathspectra.specfun import gaussian_phase_integral

HO = ps.harmonic_oscillator()
FREE_K1 = ps.EigenstateSpec(system=ps.free_line(), quantum_number=1.0)


def _refined_argmax(grid: np.ndarray, values: np.ndarray) -> float:
    """Parabolic vertex through the maximum sample and its neighbours."""
    i = int(np.argmax(values))
    if i == 0 or i == values.size - 1:
        return float(grid[i])
    y0, y1, y2 = float(values[i - 1]), float(values[i]), float(values[i + 1])
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(grid[i])
    return float(grid[i] + 0.5 * (y0 - y2) / denom * (grid[1] - grid[0]))


def test_free_particle_distribution_is_delta_like_at_hbar_k():
    t0 = time.perf_counter()
    T = 1.0e4
    dist = ps.spatial_average(FREE_K1, T, ps.stationary_grids(FREE_K1, T, delta_p_c=1e-3))
    m = ps.moments(dist)
    dist4 = ps.spatial_average(
        FREE_K1, 4.0 * T, ps.stationary_grids(FREE_K1, 4.0 * T, delta_p_c=1e-3)
    )
    ratio = ps.moments(dist4)["fwhm"] / m["fwhm"]
    elapsed = time.perf_counter() - t0
    print(
        f"[acceptance] free-particle delta: norm-1={m['norm'] - 1:.2e} "
        f"mean-1={m['mean'] - 1:.2e} peak-1={m['peak_location'] - 1:.2e} "
        f"fwhm(4T)/fwhm(T)={ratio:.5f} ({elapsed:.1f}s)"
    )
    assert abs(m["norm"] - 1.0) <= 1e-6
    assert abs(m["mean"] - 1.0) <= 1e-3
    assert abs(m["peak_location"] - 1.0) <= 1e-3
    assert abs(ratio - 0.5) <= 0.05
    assert elapsed < 5.0


def test_phasor_endpoint_reaches_unity_and_midpoint_halves_it():
    t0 = time.perf_counter()
    curve = ps.phasor_curve(FREE_K1, 0.0, 1.0e4, ps.uniform_grid(1.0 - 12.0, 1.0 + 12.0, 2e-5))
    endpoint_err = abs(curve.endpoint - 1.0)
    midpoint_err = abs(curve.value_at(1.0) / curve.endpoint - 0.5)
    elapsed = time.perf_counter() - t0
    print(
        f"[acceptance] phasor endpoint: |F-1|={endpoint_err:.2e} "
        f"|mid/end-0.5|={midpoint_err:.2e} ({elapsed:.2f}s)"
    )
    assert endpoint_err <= 1e-3
    assert midpoint_err <= 1e-3
    assert elapsed < 1.0


def test_segment_sums_are_invariant_under_the_window_offset():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    halfwidth = 0.01  # sqrt(hbar*M/T) at T = 1e4
    totals = [
        ps.segment_sum_check(FREE_K1, 0.0, 1.0e4, float(d), 0.5, 1.5)
        for d in rng.uniform(-10.0 * halfwidth, 10.0 * halfwidth, 10)
    ]
    spread = max(abs(v - totals[0]) for v in totals) / abs(totals[0])
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] offset invariance: spread={spread:.2e} ({elapsed:.1f}s)")
    assert spread <= 1e-10
    assert elapsed < 5.0


def test_wall_and_well_distributions_peak_at_both_signed_momenta():
    t0 = time.perf_counter()
    T = 1.0e4
    cases = (
        (ps.EigenstateSpec(system=ps.hard_wall(), quantum_number=2.0), 0.7, 2.0),
        (ps.EigenstateSpec(system=ps.square_well(math.pi), quantum_number=2), 1.1, 2.0),
    )
    for state, x_probe, k in cases:
        grids = ps.stationary_grids(state, T)
        dist = ps.spatial_average(state, T, grids)
        norm_err = abs(ps.moments(dist)["norm"] - 1.0)
        probe = ps.uniform_grid(-k - 1.0, k + 1.0, 0.01)
        series = np.abs(ps.window_average_series(state, probe, x_probe, T, grids))
        idx, _ = find_peaks(series, prominence=0.5 * float(series.max()))
        locations = sorted(float(probe[i]) for i in idx)
        print(
            f"[acceptance] {state.system.kind.value} peaks={locations} "
            f"norm-1={norm_err:.2e}"
        )
        assert norm_err <= 1e-3
        assert len(locations) == 2
        assert abs(locations[0] + k) <= 0.01 + 1e-12
        assert abs(locations[1] - k) <= 0.01 + 1e-12
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] wall/well peaks: ({elapsed:.1f}s)")
    assert elapsed < 30.0


def test_circle_distribution_peaks_at_integer_angular_momenta():
    t0 = time.perf_counter()
    system = ps.circle(1.0)
    T = 300.0
    for ell in (1, 2, 3):
        state = ps.EigenstateSpec(system=system, quantum_number=ell)
        dist = ps.spatial_average(state, T, ps.stationary_grids(state, T))
        m = ps.moments(dist)
        print(
            f"[acceptance] circle l={ell}: peak-l={abs(m['peak_location']) - ell:.2e} "
            f"norm-1={m['norm'] - 1:.2e}"
        )
        assert abs(abs(m["peak_location"]) - ell) <= 1e-6
        assert abs(m["norm"] - 1.0) <= 1e-3
    # Doubling the winding truncation widens the L_c range by exactly 2x on
    # the same step lattice; interior values must be untouched.
    state = ps.EigenstateSpec(system=system, quantum_number=2)
    step = 0.005
    n_w = ps.default_winding_terms(system, 3.0, T)
    span = round((2.0 * math.pi * n_w / T) / step) * step
    d1 = ps.spatial_average(
        state, T, ps.stationary_grids(state, T, delta_p_c=step, p_c_span=(-span, span))
    )
    d2 = ps.spatial_average(
        state,
        T,
        ps.stationary_grids(state, T, delta_p_c=step, p_c_span=(-2.0 * span, 2.0 * span)),
    )
    offset = round(span / step)
    sub = d2.values[offset : offset + d1.values.size]
    rel = float(np.max(np.abs(sub - d1.values))) / float(np.max(np.abs(d1.values)))
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] winding doubling: rel={rel:.2e} ({elapsed:.1f}s)")
    assert rel <= 1e-6
    assert elapsed < 30.0


@pytest.mark.slow
def test_time_averaged_oscillator_peaks_sit_at_turning_point_momenta():
    T = 32.0 * math.pi
    for n in range(4):
        t0 = time.perf_counter()
        state = ps.EigenstateSpec(system=HO, quantum_number=n)
        bundle = ps.paper_grids(
            state,
            T,
            delta_x_f=0.025,
            delta_T=math.pi / 64,
            p_c_max=max(3.0 * math.sqrt(2.0 * state.energy), 6.0),
        )
        dist = ps.time_average(state, T, bundle)
        elapsed = time.perf_counter() - t0
        re = dist.values.real
        peak = abs(float(dist.p_c_grid[int(np.argmax(re))]))
        target = math.sqrt(2.0 * n + 1.0)
        m = ps.moments(dist)
        min_ratio = float(re.min()) / float(re.max())
        print(
            f"[acceptance] oscillator n={n}: peak={peak:.4f} target={target:.4f} "
            f"norm-1={m['norm'] - 1:.2e} im/re={m['max_im_ratio']:.1e} "
            f"minRe/maxRe={min_ratio:.1e} ({elapsed:.0f}s)"
        )
        assert abs(peak - target) <= 0.02 + 1e-9
        assert abs(m["norm"] - 1.0) <= 2e-2
        assert m["max_im_ratio"] <= 1e-2
        assert float(re.min()) >= -1e-2 * float(re.max())
        assert elapsed < 45.0


@pytest.mark.slow
def test_band_limited_reconstruction_recovers_eigenfunctions():
    t0 = time.perf_counter()
    T = 32.0 * math.pi
    for n in (0, 3):
        state = ps.EigenstateSpec(system=HO, quantum_number=n)
        bundle = ps.paper_grids(state, T, delta_T=math.pi / 64)
        rec = ps.reconstruct(state, (0.0, 10.0), T, bundle)
        psi = np.asarray(ps.eigenfunction(state, rec.x_f_grid))
        dev = float(np.max(np.abs(rec.values - psi)))
        bound = 1e-2 * float(np.max(np.abs(psi)))
        print(f"[acceptance] reconstruct n={n} band (0,10): dev={dev:.2e} bound={bound:.2e}")
        assert dev <= bound
    # A band pinned to sqrt(2*M*E_n) keeps the rebuilt amplitude inside the
    # classically allowed region.
    T_narrow = 512.0 * math.pi
    for n in (0, 3):
        state = ps.EigenstateSpec(system=HO, quantum_number=n)
        bundle = ps.paper_grids(state, T_narrow)
        turning = math.sqrt(2.0 * state.energy)
        center = round(turning / 0.02) * 0.02
        rec = ps.reconstruct(state, (center - 0.02, center + 0.02), T_narrow, bundle)
        outside = np.abs(rec.x_f_grid) > turning
        assert outside.any()
        out_max = float(np.max(np.abs(rec.values[outside])))
        full_max = float(np.max(np.abs(rec.values)))
        print(
            f"[acceptance] reconstruct n={n} narrow band: outside={out_max:.2e} "
            f"max={full_max:.2e}"
        )
        assert out_max <= 5e-2 * full_max
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] reconstruction: ({elapsed:.0f}s)")
    assert elapsed < 30.0


def test_singular_window_sum_reproduces_oscillator_eigenfunctions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    accepted = 0
    worst = 0.0
    while accepted < 5:
        n = int(rng.integers(0, 4))
        x_f = float(rng.uniform(-2.0, 2.0))
        T = float(rng.uniform(3.0, 40.0))
        if abs(math.sin(T)) < 0.5:
            continue
        state = ps.EigenstateSpec(system=HO, quantum_number=n)
        psi = complex(ps.eigenfunction(state, x_f))
        if abs(psi) < 0.25:
            continue
        # Momentum cutoff from the classical reach at this (x_f, T): cover
        # velocities up to (reach + |x_f|)/|sin T| so the dropped tail is
        # far beyond the eigenfunction's support.
        reach = 7.0 + 0.5 * n
        v_need = (reach + abs(x_f)) / abs(math.sin(T))
        p_cut = math.hypot(x_f, v_need)
        total = ps.singular_window_integral(
            -p_cut,
            p_cut,
            x_f,
            HO,
            ho_regular_factor(state, x_f, T),
            inner_spacing=1.0 / (150.0 * math.sqrt(T)),
        )
        worst = max(worst, abs(total - psi) / abs(psi))
        accepted += 1
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] eigenfunction identity: worst rel={worst:.2e} ({elapsed:.1f}s)")
    assert worst <= 1e-3
    assert elapsed < 120.0


def test_wigner_momentum_marginals_match_momentum_densities():
    t0 = time.perf_counter()
    p_grid = ps.uniform_grid(-4.0, 4.0, 0.05)
    worst = 0.0
    for n in range(4):
        marginal = np.asarray([ps.wigner_momentum_marginal(n, float(p), HO) for p in p_grid])
        exact = np.asarray(ps.momentum_density(n, p_grid, HO))
        worst = max(worst, float(np.max(np.abs(marginal - exact))))
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] wigner marginals: worst={worst:.2e} ({elapsed:.1f}s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_batched_wigner_momentum_marginals_match_momentum_densities():
    # the same grid and bound as the per-momentum test above, one call per level
    t0 = time.perf_counter()
    p_grid = ps.uniform_grid(-4.0, 4.0, 0.05)
    worst = 0.0
    for n in range(4):
        marginal = ps.wigner_momentum_marginal(n, p_grid, HO)
        exact = np.asarray(ps.momentum_density(n, p_grid, HO))
        worst = max(worst, float(np.max(np.abs(marginal - exact))))
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] batched wigner marginals: worst={worst:.2e} ({elapsed:.2f}s)")
    assert worst <= 1e-8
    assert elapsed < 2.0


def test_coherent_overlap_peaks_at_sqrt_n_and_sums_to_one():
    t0 = time.perf_counter()
    alpha = ps.uniform_grid(0.0, 3.0, 1e-3)
    for n in range(4):
        values = np.asarray([ps.coherent_overlap(n, float(a)) for a in alpha])
        refined = _refined_argmax(alpha, values)
        print(f"[acceptance] coherent n={n}: argmax-sqrt(n)={refined - math.sqrt(n):.2e}")
        assert abs(refined - math.sqrt(n)) <= 1e-3
    completeness = math.fsum(ps.coherent_overlap(n, 1.5) for n in range(41))
    elapsed = time.perf_counter() - t0
    print(
        f"[acceptance] coherent completeness: |sum-1|={abs(completeness - 1):.2e} "
        f"({elapsed:.2f}s)"
    )
    assert abs(completeness - 1.0) <= 1e-10
    assert elapsed < 1.0


def test_quadrature_layer_against_independent_oracles():
    t0 = time.perf_counter()
    # Chirp integrals vs adaptive quadrature.
    rng = np.random.default_rng(9)
    worst_chirp = 0.0
    for _ in range(10):
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        gamma = float(rng.uniform(-40.0, 40.0))
        value = gaussian_phase_integral(float(a), float(b), gamma)
        o_re, _ = quad(lambda p: math.cos(gamma * p * p), a, b, limit=400)
        o_im, _ = quad(lambda p: math.sin(gamma * p * p), a, b, limit=400)
        worst_chirp = max(worst_chirp, abs(value - complex(o_re, o_im)))
    assert worst_chirp <= 1e-8

    # Singular window vs a scipy alg-weight oracle that owns the endpoint
    # singularity; one wide window and one hugging the divergence.
    state = ps.EigenstateSpec(system=HO, quantum_number=1)
    x_f, T = 0.83, 25.0
    factor = ho_regular_factor(state, x_f, T)
    b_sing = abs(x_f)
    worst_window = 0.0
    for lo, hi in ((0.6, 1.1), (0.80, 0.86)):
        window = ps.singular_window_integral(
            lo, hi, x_f, HO, factor, inner_spacing=1.0 / (150.0 * math.sqrt(T))
        )

        def g(p: float, part: str) -> float:
            val = complex(factor(np.asarray(p))) * p / math.sqrt(p + b_sing)
            return val.real if part == "re" else val.imag

        o_re, _ = quad(
            lambda p: g(p, "re"), b_sing, hi, weight="alg", wvar=(-0.5, 0.0), limit=200
        )
        o_im, _ = quad(
            lambda p: g(p, "im"), b_sing, hi, weight="alg", wvar=(-0.5, 0.0), limit=200
        )
        oracle = complex(o_re, o_im)
        worst_window = max(worst_window, abs(window - oracle) / abs(oracle))
    assert worst_window <= 1e-4

    # Start-point <-> maximum-momentum round trip.
    rng = np.random.default_rng(13)
    accepted = 0
    worst_trip = 0.0
    while accepted < 50:
        x_f = float(rng.uniform(-2.0, 2.0))
        T = float(rng.uniform(0.5, 40.0))
        if abs(math.sin(T)) < 0.1:
            continue
        magnitude = float(rng.uniform(abs(x_f) + 1e-6, abs(x_f) + 5.0))
        p_c = magnitude if float(rng.uniform()) < 0.5 else -magnitude
        x0 = ps.characteristic_x0(HO, p_c, x_f, T)
        worst_trip = max(worst_trip, abs(ps.ho_max_momentum(HO, x0, x_f, T) - abs(p_c)))
        accepted += 1
    assert worst_trip <= 1e-12

    # Stiff-spring limit of the oscillator kernel is the free kernel.
    soft = ps.propagator(ps.harmonic_oscillator(1e-4), 0.3, 0.9, 2.0)
    free = ps.propagator(ps.free_line(), 0.3, 0.9, 2.0)
    limit_rel = abs(soft - free) / abs(free)
    assert limit_rel <= 1e-6

    elapsed = time.perf_counter() - t0
    print(
        f"[acceptance] oracles: chirp={worst_chirp:.2e} window={worst_window:.2e} "
        f"roundtrip={worst_trip:.2e} free-limit={limit_rel:.2e} ({elapsed:.1f}s)"
    )
    assert elapsed < 60.0


def test_fig7_outputs_are_byte_identical_across_thread_counts(tmp_path):
    t0 = time.perf_counter()
    out_dirs = {}
    for threads in (1, 4, 8):
        out_dir = tmp_path / f"threads{threads}"
        code = main(
            [
                "fig7",
                "--set",
                "delta_x_f=0.2",
                "--set",
                "delta_p_c=0.05",
                "--set",
                "p_c_max=4.0",
                "--set",
                f"delta_T={math.pi / 4}",
                "--threads",
                str(threads),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        out_dirs[threads] = out_dir
    for n in range(4):
        blobs = [(out_dirs[t] / f"fig7_n{n}.csv").read_bytes() for t in (1, 4, 8)]
        assert len(blobs[0]) > 0
        assert blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] thread determinism: 12 files compared ({elapsed:.0f}s)")
