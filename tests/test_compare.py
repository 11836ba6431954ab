"""Tests for the Wigner/coherent-state reference quantities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import pathspectra as ps
from pathspectra import compare
from pathspectra.compare import (
    TailMassWarning,
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
        wigner_momentum_marginal(0, 0.0, ps.free_line(), np.linspace(-8.0, 8.0, 101))


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
            got = trapezoid(p, _wigner_values(n, x, p, HO))
            want = abs(complex(ps.eigenfunction(st, x))) ** 2
            assert got == pytest.approx(want, abs=1e-10)


def test_marginal_warns_on_short_grid():
    x = np.linspace(-4.0, 4.0, 801)  # n = 3 reaches ~13.2
    with pytest.warns(TailMassWarning):
        wigner_momentum_marginal(3, 0.0, HO, x)


def test_marginals_broadcast_bit_for_bit_over_their_argument(monkeypatch):
    # 4001 abscissae put 1, 8 or 65 rows in a block: 203 values end on a
    # partial block at 2^15 and 2^18, while each scalar call is a block of one row
    grid = np.linspace(-14.0, 14.0, 4001)
    points = np.linspace(-3.0, 3.0, 203)
    for block_cells in (1 << 10, 1 << 15, 1 << 18):
        monkeypatch.setattr(compare, "_BLOCK_CELLS", block_cells)
        for n in (0, 3):
            batched = wigner_momentum_marginal(n, points, HO, grid)
            single = np.array([wigner_momentum_marginal(n, float(q), HO, grid) for q in points])
            assert batched.tobytes() == single.tobytes()
            # the buffered arithmetic is that of the per-row oracle, bit for bit
            oracle = [trapezoid(grid, _wigner_values(n, grid, q, HO)) for q in points]
            assert batched.tobytes() == np.array(oracle).tobytes()
            assert wigner_momentum_marginal(n, points[:200].reshape(20, 10), HO, grid).shape == (20, 10)
            assert isinstance(wigner_momentum_marginal(n, 0.4, HO, grid), float)


def test_batched_marginal_stays_within_ulps_of_compensated_trapezoid():
    x = np.linspace(-14.0, 14.0, 4001)
    p = np.linspace(-4.0, 4.0, 161)
    for n in range(4):
        batched = wigner_momentum_marginal(n, p, HO, x)
        rows = [_wigner_values(n, x, np.asarray(q), HO) for q in p]
        # each momentum is one trapezoid row: its pairwise np.sum is within
        # ulps of the exactly rounded (math.fsum) sum of the same cells
        assert np.array_equal(batched, [trapezoid(x, row) for row in rows])
        exact_sum = np.array([math.fsum(0.5 * (row[1:] + row[:-1]) * np.diff(x)) for row in rows])
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


_GRID = np.linspace(-12.0, 12.0, 1201)


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
        lambda: wigner_momentum_marginal(1.5, 0.3, HO, _GRID),
        lambda: wigner_momentum_marginal(1, 0.3, HO, []),
        lambda: wigner_momentum_marginal(1, 0.3, HO, [0.0]),
        lambda: wigner_momentum_marginal(1, 0.3, HO, np.ones((3, 3))),
        lambda: wigner_momentum_marginal(1, 0.3, HO, _GRID[::-1]),
        lambda: wigner_momentum_marginal(1, 0.3, HO, [-1.0, math.nan, 1.0]),
        lambda: wigner_momentum_marginal(1, 0.3, HO, [-1e308, 1e308]),  # span past float range
        lambda: wigner_momentum_marginal(1, [0.3, math.inf], HO, _GRID),
    ],
    ids=[
        "density-negative-n", "density-fractional-n", "density-n-past-max", "density-nan-p",
        "overlap-fractional-n", "overlap-nan-n", "overlap-nan-alpha", "overlap-inf-alpha",
        "momentum-marginal-fractional-n",
        "empty-grid", "one-point-grid", "2d-grid", "descending-grid", "nan-grid", "overflowing-span",
        "inf-point",
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
    assert wigner_momentum_marginal(2, 1e300, HO, _GRID) == 0.0
    assert coherent_overlap(64, 1e300) == 0.0
    # integer-valued floats are the same level
    assert momentum_density(2.0, 0.7, HO) == momentum_density(2, 0.7, HO)
