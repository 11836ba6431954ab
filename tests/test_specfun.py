"""Special-function layer: recurrences against scipy, Fresnel and Hermite chirps against quad,
the Faddeeva and Fresnel functions against 40-digit mpmath."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite, eval_laguerre

from pathspectra import cli, specfun
from pathspectra.errors import DomainError
from pathspectra.specfun import (
    MAX_DEGREE,
    _faddeeva,
    _fresnel,
    _hermite_phase_primitive,
    gaussian_phase_integral,
    hermite,
    hermite_phase_gain,
    hermite_phase_integral,
    ho_eigenfunction,
    laguerre,
)


def test_hermite_matches_scipy_across_degrees():
    rng = np.random.default_rng(11)
    x = rng.uniform(-4.0, 4.0, size=40)
    for n in (0, 1, 2, 5, 17, 40):
        ours = hermite(n, x)
        ref = eval_hermite(n, x)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-8)


def test_hermite_scalar_in_scalar_out():
    value = hermite(3, 0.7)
    assert isinstance(value, float)
    assert value == pytest.approx(8 * 0.7**3 - 12 * 0.7, rel=1e-14)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 8.0, size=30)
    for n in (0, 1, 3, 10, 25):
        assert np.allclose(laguerre(n, x), eval_laguerre(n, x), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("bad", [-1, MAX_DEGREE + 1, 2.5, "3"])
def test_degree_guard_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        hermite(bad, 0.0)


def test_ho_eigenfunction_orthonormal():
    x = np.linspace(-14.0, 14.0, 4001)
    dx = x[1] - x[0]
    for m, n in ((0, 0), (3, 3), (7, 7), (0, 2), (1, 4), (5, 6)):
        overlap = np.sum(ho_eigenfunction(m, x) * ho_eigenfunction(n, x)) * dx
        want = 1.0 if m == n else 0.0
        assert overlap == pytest.approx(want, abs=1e-10)


def test_ho_eigenfunction_parity():
    x = np.linspace(0.1, 5.0, 23)
    for n in range(6):
        left = ho_eigenfunction(n, -x)
        right = (-1.0) ** n * ho_eigenfunction(n, x)
        assert np.allclose(left, right, rtol=0, atol=1e-14)


def test_ho_eigenfunction_scaled_units_stay_normalized():
    hbar, mass, omega = 0.7, 2.3, 1.9
    x = np.linspace(-8.0, 8.0, 6001) * math.sqrt(hbar / (mass * omega))
    for n in (0, 4):
        values = ho_eigenfunction(n, x, hbar=hbar, mass=mass, omega=omega)
        norm = np.trapezoid(values**2, x)
        assert norm == pytest.approx(1.0, abs=1e-9)


def test_ho_eigenfunction_high_degree_finite():
    # The folded recurrence must not overflow where a H_n * exp(-xi^2/2)
    # product would.
    values = ho_eigenfunction(MAX_DEGREE, np.linspace(-12.0, 12.0, 101))
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_ho_eigenfunction_is_zero_at_huge_positions(n):
    # xi = 2*x past float range: clipped before scaling, so 0 and no inf * 0
    x = np.array([1e154, -1e154, 1e300, -1e300, 1.7e308])
    values = ho_eigenfunction(n, x, omega=4.0)
    assert np.all(values == 0.0)
    assert all(ho_eigenfunction(n, float(v), omega=4.0) == 0.0 for v in x)


def _quad_oracle(a: float, b: float, gamma: float) -> complex:
    re = quad(lambda u: math.cos(gamma * u * u), a, b, limit=400, epsabs=1e-13)[0]
    im = quad(lambda u: math.sin(gamma * u * u), a, b, limit=400, epsabs=1e-13)[0]
    return re + 1j * im


def test_gaussian_phase_integral_against_quad():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a, b = sorted(rng.uniform(-6.0, 6.0, size=2))
        gamma = rng.uniform(-5.0, 5.0)
        got = gaussian_phase_integral(a, b, gamma)
        assert abs(got - _quad_oracle(a, b, gamma)) < 1e-10


def test_gaussian_phase_integral_degenerate_gamma():
    assert gaussian_phase_integral(-1.5, 2.0, 0.0) == pytest.approx(3.5)


def test_gaussian_phase_integral_conjugation():
    value = gaussian_phase_integral(0.3, 1.1, 2.7)
    mirrored = gaussian_phase_integral(0.3, 1.1, -2.7)
    assert mirrored == pytest.approx(np.conj(value), rel=1e-14)


def test_gaussian_phase_integral_takes_infinite_ends():
    half = 0.5 * math.sqrt(math.pi / 4.0) * (1.0 + 1.0j)
    assert gaussian_phase_integral(0.0, math.inf, 2.0) == half
    assert gaussian_phase_integral(-math.inf, math.inf, 2.0) == 2.0 * half
    assert gaussian_phase_integral(-math.inf, 0.0, -2.0) == np.conj(half)


def test_gaussian_phase_integral_broadcasts():
    a = np.array([0.0, 1.0, 2.0])
    out = gaussian_phase_integral(a, a + 0.5, 1.3)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(gaussian_phase_integral(1.0, 1.5, 1.3), rel=1e-14)


def _chirp_oracle(n: int, lo: float, hi: float, q: float, r: float) -> complex:
    def f(u: float) -> complex:
        return ho_eigenfunction(n, u) * complex(np.exp(1j * (q * u * u + r * u)))

    re = quad(lambda u: f(u).real, lo, hi, limit=800, epsabs=1e-14)[0]
    im = quad(lambda u: f(u).imag, lo, hi, limit=800, epsabs=1e-14)[0]
    return re + 1j * im


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 16, 32, 64])
def test_hermite_phase_integral_against_quad(n):
    # phi_n is ho_eigenfunction in units hbar = M = omega = 1; |r| stays
    # small enough that the ladder gain is at most a few hundred
    rng = np.random.default_rng(100 + n)
    for q, r in ((0.0, 0.0), (0.3, -0.9), (-4.7, 2.5), (1.2, 0.4)):
        lo, hi = sorted(rng.uniform(-1.3, 1.3) * math.sqrt(2 * n + 1) + np.array([-1.5, 1.0]))
        got = hermite_phase_integral(n, lo, hi, q, r)
        want = _chirp_oracle(n, lo, hi, q, r)
        bound = 1e-12 * hermite_phase_gain(n, q, r)
        assert abs(got - want) < max(bound, 1e-12), (q, r, abs(got - want))


def test_hermite_phase_integral_whole_line_is_the_fourier_transform():
    # int phi_n(xi) e^{i*r*xi} dxi = sqrt(2*pi) i^n phi_n(r): the Hermite
    # functions are eigenfunctions of the Fourier transform
    for n in (0, 3, 8):
        for r in (0.0, 0.8, -2.1):
            got = hermite_phase_integral(n, -40.0, 40.0, 0.0, r)
            want = math.sqrt(2.0 * math.pi) * 1j**n * ho_eigenfunction(n, r)
            assert abs(got - want) < 1e-13


def test_hermite_phase_integral_broadcasts_a_scalar_bound():
    hi = np.array([-0.5, 0.2, 1.7])
    out = hermite_phase_integral(3, -1.0, hi, 0.4, -1.1)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(hermite_phase_integral(3, -1.0, 1.7, 0.4, -1.1), rel=1e-14)
    # additive over adjacent intervals
    split = hermite_phase_integral(3, -1.0, 0.2, 0.4, -1.1) + hermite_phase_integral(
        3, 0.2, 1.7, 0.4, -1.1
    )
    assert split == pytest.approx(out[2], rel=1e-13)


def test_one_climb_gives_every_rung():
    """Rung k of one climb to n is the integral a separate call to degree k gives, bit for bit."""
    rng = np.random.default_rng(7)
    lo = -0.6
    hi = rng.uniform(-3.0, 3.0, size=25)
    for q, r in ((0.0, 0.0), (0.3, -0.9), (-4.7, 2.5)):
        rungs = _hermite_phase_primitive(8, np.concatenate(([lo], hi)), q, r)
        assert len(rungs) == 9
        for k, rung in enumerate(rungs):
            assert (rung[1:] - rung[0]).tobytes() == hermite_phase_integral(k, lo, hi, q, r).tobytes()


def test_kernels_never_write_to_their_arguments():
    """The kernels work in place on arrays of their own: read-only arguments pass and stay byte-identical."""
    rng = np.random.default_rng(5)
    z = rng.uniform(-9.0, 9.0, 64) + 1j * rng.uniform(0.0, 9.0, 64)
    xi, lo, hi = rng.uniform(-5.0, 5.0, 64), rng.uniform(-3.0, 0.0, 64), rng.uniform(0.0, 3.0, 64)
    arguments = (z, xi, lo, hi)
    before = [arg.tobytes() for arg in arguments]
    for arg in arguments:
        arg.flags.writeable = False
    _faddeeva(z)
    for n in (0, 1, 2, 5):
        for q, r in ((0.0, 0.0), (0.3, -1.1)):
            _hermite_phase_primitive(n, xi, q, r)
            hermite_phase_integral(n, lo, hi, q, r)
            hermite_phase_integral(n, -0.5, hi, q, r)
    assert [arg.tobytes() for arg in arguments] == before


def test_hermite_phase_gain_is_the_ladder_product():
    assert hermite_phase_gain(0, 0.3, 50.0) == 1.0
    # |r|/sqrt(1+4q^2) = 3: steps k = 0..3 amplify by 3/sqrt((k+1)/2) > 1
    q = 0.75
    r = 3.0 * math.sqrt(1.0 + 4.0 * q * q)
    want = math.prod(3.0 / math.sqrt((k + 1) / 2.0) for k in range(4))
    assert hermite_phase_gain(4, q, r) == pytest.approx(want, rel=1e-14)
    # steps past (k+1)/2 >= 9 no longer amplify
    assert hermite_phase_gain(40, q, r) == pytest.approx(
        math.prod(max(1.0, 3.0 / math.sqrt((k + 1) / 2.0)) for k in range(40)), rel=1e-14
    )
    with pytest.raises(DomainError):
        hermite_phase_gain(MAX_DEGREE + 1, 0.0, 0.0)


def test_fresnel_limits_zero_symmetry_and_nan():
    assert _fresnel(0.0) == 0.0
    signed = _fresnel(-0.0)
    assert signed == 0.0 and np.signbit(signed.real) and np.signbit(signed.imag)
    ends = _fresnel(np.array([math.inf, -math.inf, 1e300, -2.0**60]))
    assert ends.tolist() == [0.5 + 0.5j, -0.5 - 0.5j, 0.5 + 0.5j, -0.5 - 0.5j]
    nan = _fresnel(np.array([math.nan]))
    assert np.isnan(nan.real).all() and np.isnan(nan.imag).all()
    # every region: the series, w, the asymptotic series, the flat far end
    x = np.concatenate([np.logspace(-8, 20, 301), [0.999999, 1.0, 7.999999, 8.0]])
    assert _fresnel(-x).tobytes() == (-_fresnel(x)).tobytes()


def _mp_faddeeva(z: complex) -> complex:
    with mpmath.workdps(40):
        zm = mpmath.mpc(z)
        return complex(mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm))


def _mp_fresnel(x: float) -> complex:
    with mpmath.workdps(40):
        return complex(mpmath.fresnelc(x), mpmath.fresnels(x))


def _relative_error(got, want):
    return np.abs(got - want) / np.abs(want)


def test_faddeeva_matches_mpmath_over_the_closed_upper_half_plane():
    radius = np.concatenate([np.logspace(-300, -20, 8), np.logspace(-20, 4, 61)])
    angle = np.linspace(0.0, math.pi, 17)  # both real half-axes included
    z = (radius[:, None] * np.exp(1j * angle)).ravel()
    z = z.real + 1j * np.abs(z.imag)  # cos(pi) rounding leaves no -0j below the axis
    want = np.array([_mp_faddeeva(v) for v in z])
    assert np.max(_relative_error(_faddeeva(z), want)) <= 4e-15


def test_faddeeva_matches_mpmath_on_the_oscillator_engine_arguments(tmp_path, monkeypatch):
    seen = []
    original = specfun._faddeeva

    def recorded(z):
        seen.append(np.array(z))
        return original(z)

    monkeypatch.setattr(specfun, "_faddeeva", recorded)
    argv = ["fig7", "--set", f"delta_T={math.pi!r}", "--set", "delta_x_f=1.0", "--set", "delta_p_c=0.1"]
    assert cli.main([*argv, "--set", "n_p_floor=5", "--set", "n_p_slope=5", "--out", str(tmp_path)]) == 0
    z = np.concatenate(seen)
    z = z[:: max(1, z.size // 300)]
    assert z.size >= 250 and np.min(z.imag) >= 0.0
    want = np.array([_mp_faddeeva(v) for v in z])
    assert np.max(_relative_error(original(z), want)) <= 4e-15


@pytest.mark.parametrize("command, arguments, starts", [("fig7", 207_128, 136), ("fig8", 104_352, 104)])
def test_benchmark_sized_figures_price_a_pinned_number_of_edges(command, arguments, starts, tmp_path, monkeypatch, climbs):
    """Every w(z) argument and ladder climb of fig7 and fig8 at the benchmark's grids, counted:
    a faster engine prices the same window edges, not fewer."""
    sizes = []
    original = specfun._faddeeva

    def counted(z):
        sizes.append(np.size(z))
        return original(z)

    monkeypatch.setattr(specfun, "_faddeeva", counted)
    grids = ["--set", f"delta_T={math.pi / 2.0!r}", "--set", "delta_x_f=0.4", "--set", "delta_p_c=0.02"]
    assert cli.main([command, "--set", "T=100.41315519036377", *grids, "--out", str(tmp_path)]) == 0
    assert (sum(sizes), len(sizes)) == (arguments, starts)
    assert climbs == [3] * starts  # one climb to n = 3 per w(z) start


def test_fresnel_matches_mpmath():
    x = np.concatenate([[0.0, 1e-300], np.logspace(-6, 5, 221)])
    x = np.concatenate([x, -x])
    got = _fresnel(x)
    want = np.array([_mp_fresnel(v) for v in x])
    assert got[0] == 0.0 and got[x.size // 2] == 0.0
    error = _relative_error(got[x != 0.0], want[x != 0.0])
    beyond = np.abs(x[x != 0.0]) >= 8.0
    assert np.max(error[~beyond]) <= 2e-15
    # far out the phase pi*x^2/2 is reduced exactly; rounded, it would be off
    # by about x * 5.5e-17 (5.5e-12 at |x| = 1e5)
    assert np.max(error[beyond]) <= 1e-15
