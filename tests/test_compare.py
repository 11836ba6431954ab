"""Tests for the Wigner/coherent-state reference quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest

import pathspectra as ps
from pathspectra.compare import (
    _wigner_values,
    coherent_overlap,
    momentum_density,
    wigner_momentum_marginal,
)
from pathspectra.errors import DomainError
from pathspectra.quadrature import trapezoid

HO = ps.harmonic_oscillator()


def test_wigner_ground_state_is_a_gaussian():
    # F_0(x, p) = exp(-x^2 - p^2)/pi in hbar = M = omega = 1 units
    for x, p in ((0.0, 0.0), (0.5, -0.3), (1.2, 0.4)):
        want = math.exp(-x * x - p * p) / math.pi
        assert float(_wigner_values(0, x, p, HO)) == pytest.approx(want, rel=1e-14)


def test_wigner_first_excited_negative_at_origin():
    assert float(_wigner_values(1, 0.0, 0.0, HO)) == pytest.approx(-1.0 / math.pi, rel=1e-14)


def test_wigner_rejects_non_oscillator():
    with pytest.raises(DomainError):
        wigner_momentum_marginal(0, 0.0, ps.free_line())


def test_momentum_marginal_matches_closed_form():
    for n in range(4):
        for p in (0.0, 0.7, -1.9, 2.6):
            got = wigner_momentum_marginal(n, p, HO)
            assert got == pytest.approx(float(momentum_density(n, p, HO)), abs=1e-10)


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (0.7, 2.0, 0.5), (1.0, 1.0, 3.0)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 64])
def test_gauss_hermite_marginal_matches_closed_form_and_fine_trapezoid(n, scales):
    # the (n + 1)-node rule is exact for the degree-2n polynomial in x/l: it meets
    # the closed form and a trapezoid over a fine grid covering the whole state
    hbar, mass, omega = scales
    system = ps.harmonic_oscillator(hbar=hbar, mass=mass, omega=omega)
    reach = 5.0 * math.sqrt(2.0 * n + 1.0) + 1.0
    scale_x, scale_p = math.sqrt(hbar / (mass * omega)), math.sqrt(hbar * mass * omega)
    x = np.linspace(-reach, reach, 8001) * scale_x
    p = np.linspace(-reach, reach, 41) * scale_p
    got = wigner_momentum_marginal(n, p, system)
    assert np.max(np.abs(got - momentum_density(n, p, system))) <= 5e-14
    fine = trapezoid(x, _wigner_values(n, x, p[:, None], system))
    assert np.max(np.abs(got - fine)) <= 5e-14
    # a scalar gives a float with the bits of its row, and an array keeps its shape
    single = [wigner_momentum_marginal(n, float(q), system) for q in p]
    assert all(isinstance(v, float) for v in single) and got.tobytes() == np.array(single).tobytes()
    assert wigner_momentum_marginal(n, p[:40].reshape(8, 5), system).shape == (8, 5)


def test_position_marginal_matches_eigenfunction_density():
    # dual route: integrate the Wigner function over p, compare with |psi_n(x)|^2
    p = np.linspace(-14.0, 14.0, 4001)
    for n in range(4):
        st = ps.EigenstateSpec(system=HO, quantum_number=float(n))
        for x in (0.0, 0.6, -1.3):
            got = trapezoid(p, _wigner_values(n, x, p, HO))
            want = abs(complex(ps.eigenfunction(st, x))) ** 2
            assert got == pytest.approx(want, abs=1e-10)


def test_momentum_density_scaled_units():
    sys_ = ps.harmonic_oscillator(hbar=0.7, mass=2.3, omega=1.9)
    p = np.linspace(-8.0, 8.0, 2001)
    dens = momentum_density(1, p, sys_)
    assert np.all(np.asarray(dens) >= 0.0)
    assert np.trapezoid(dens, p) == pytest.approx(1.0, abs=1e-8)


def test_coherent_overlap_poisson_form():
    for n, a in ((0, 0.5), (2, 1.5), (7, 2.2)):
        want = math.exp(-a * a) * a ** (2 * n) / math.factorial(n)
        assert coherent_overlap(n, a) == pytest.approx(want, rel=1e-12)


def test_coherent_overlap_vacuum_limits():
    assert coherent_overlap(0, 0.0) == 1.0
    assert coherent_overlap(3, 0.0) == 0.0


def test_coherent_overlap_completeness():
    total = math.fsum(coherent_overlap(n, 1.5) for n in range(40))
    assert abs(total - 1.0) < 1e-12


def test_coherent_overlap_argmax_at_sqrt_n():
    a = np.arange(0.5, 2.5, 1e-3)
    c = np.array([coherent_overlap(2, float(v)) for v in a])
    i = int(np.argmax(c))
    co = np.polyfit(a[i - 1 : i + 2], c[i - 1 : i + 2], 2)
    assert -co[1] / (2 * co[0]) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_coherent_overlap_argument_validation():
    with pytest.raises(DomainError):
        coherent_overlap(-1, 1.0)
    with pytest.raises(DomainError):
        coherent_overlap(2, -0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: momentum_density(-1, 0.3, HO),
        lambda: momentum_density(1.5, 0.3, HO),
        lambda: momentum_density(65, 0.3, HO),
        lambda: momentum_density(1, [0.3, math.nan], HO),
        lambda: coherent_overlap(1.5, 1.0),
        lambda: coherent_overlap(math.nan, 1.0),
        lambda: coherent_overlap(1, math.nan),
        lambda: coherent_overlap(1, math.inf),
        lambda: coherent_overlap(1, [0.5, -0.5]),
        lambda: coherent_overlap(1, np.array([[1.0, math.inf]])),
        lambda: wigner_momentum_marginal(1.5, 0.3, HO),
        lambda: wigner_momentum_marginal(65, 0.3, HO),
        lambda: wigner_momentum_marginal(1, [0.3, math.inf], HO),
    ],
    ids=[
        "density-negative-n", "density-fractional-n", "density-n-past-max", "density-nan-p",
        "overlap-fractional-n", "overlap-nan-n", "overlap-nan-alpha", "overlap-inf-alpha",
        "overlap-negative-alpha-entry", "overlap-inf-alpha-entry",
        "momentum-marginal-fractional-n", "momentum-marginal-n-past-max", "inf-point",
    ],
)
def test_hostile_compare_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_compare_values_past_float_range_are_their_limit_zero():
    # a Gaussian that underflows times a Hermite/Laguerre polynomial that
    # overflows: 0, with no RuntimeWarning (warnings are errors in this suite)
    assert momentum_density(1, 1e300, HO) == 0.0
    assert np.array_equal(momentum_density(3, [1e100, -1e200], HO), [0.0, 0.0])
    assert float(_wigner_values(3, 1e200, 0.0, HO)) == 0.0
    assert wigner_momentum_marginal(2, 1e300, HO) == 0.0
    assert np.array_equal(wigner_momentum_marginal(64, [1e154, -1e200, 40.0], HO), [0.0, 0.0, 0.0])
    assert coherent_overlap(64, 1e300) == 0.0
    assert np.array_equal(coherent_overlap(64, [0.0, 1e300]), [0.0, 0.0])
    # integer-valued floats are the same level
    assert momentum_density(2.0, 0.7, HO) == momentum_density(2, 0.7, HO)
