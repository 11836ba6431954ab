"""Tests for the Wigner/coherent-state reference quantities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import pathspectra as ps
from pathspectra.compare import (
    PhaseSpacePoint,
    TailMassWarning,
    _wigner_values,
    coherent_overlap,
    momentum_density,
    wigner,
    wigner_momentum_marginal,
    wigner_position_marginal,
)
from pathspectra.errors import DomainError
from pathspectra.quadrature import trapezoid

HO = ps.harmonic_oscillator()


def test_wigner_ground_state_is_a_gaussian():
    # F_0(x, p) = exp(-x^2 - p^2)/pi in hbar = M = omega = 1 units
    for x, p in ((0.0, 0.0), (0.5, -0.3), (1.2, 0.4)):
        want = math.exp(-x * x - p * p) / math.pi
        assert wigner(0, PhaseSpacePoint(x, p), HO) == pytest.approx(want, rel=1e-14)


def test_wigner_first_excited_negative_at_origin():
    assert wigner(1, PhaseSpacePoint(0.0, 0.0), HO) == pytest.approx(-1.0 / math.pi, rel=1e-14)


def test_wigner_rejects_non_oscillator():
    with pytest.raises(DomainError):
        wigner(0, PhaseSpacePoint(0.0, 0.0), ps.free_line())


def test_phase_space_point_must_be_finite():
    with pytest.raises(DomainError):
        PhaseSpacePoint(math.inf, 0.0)
    with pytest.raises(DomainError):
        PhaseSpacePoint(0.0, math.nan)


def test_momentum_marginal_matches_closed_form():
    x = np.linspace(-14.0, 14.0, 4001)
    for n in range(4):
        for p in (0.0, 0.7, -1.9, 2.6):
            got = wigner_momentum_marginal(n, p, HO, x)
            assert got == pytest.approx(float(momentum_density(n, p, HO)), abs=1e-10)


def test_position_marginal_matches_eigenfunction_density():
    # dual route: integrate the Wigner function over p, compare with |psi_n(x)|^2
    p = np.linspace(-14.0, 14.0, 4001)
    for n in range(4):
        st = ps.EigenstateSpec(system=HO, quantum_number=float(n))
        for x in (0.0, 0.6, -1.3):
            got = wigner_position_marginal(n, x, HO, p)
            want = abs(complex(ps.eigenfunction(st, x))) ** 2
            assert got == pytest.approx(want, abs=1e-10)


def test_marginal_warns_on_short_grid():
    x = np.linspace(-4.0, 4.0, 801)  # n = 3 reaches ~13.2
    with pytest.warns(TailMassWarning):
        wigner_momentum_marginal(3, 0.0, HO, x)


def test_marginals_broadcast_bit_for_bit_over_their_argument():
    # 4001 abscissae put 65 rows in a block: 200 values span four blocks,
    # while each scalar call is a block of one row
    grid = np.linspace(-14.0, 14.0, 4001)
    points = np.linspace(-3.0, 3.0, 200)
    for marginal in (wigner_momentum_marginal, wigner_position_marginal):
        for n in (0, 3):
            batched = marginal(n, points, HO, grid)
            single = np.array([marginal(n, float(q), HO, grid) for q in points])
            assert batched.tobytes() == single.tobytes()
            assert marginal(n, points.reshape(20, 10), HO, grid).shape == (20, 10)
            assert isinstance(marginal(n, 0.4, HO, grid), float)


def test_batched_marginal_stays_within_ulps_of_compensated_trapezoid():
    x = np.linspace(-14.0, 14.0, 4001)
    p = np.linspace(-4.0, 4.0, 161)
    for n in range(4):
        batched = wigner_momentum_marginal(n, p, HO, x)
        exact_sum = np.array([trapezoid(x, _wigner_values(n, x, np.asarray(q), HO)).real for q in p])
        assert np.max(np.abs(batched - exact_sum)) <= 1e-15


def test_batched_marginal_warns_once_per_call():
    x = np.linspace(-4.0, 4.0, 801)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wigner_momentum_marginal(3, np.linspace(-1.0, 1.0, 50), HO, x)
    assert [w.category for w in caught] == [TailMassWarning]


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
