"""Grids, summation primitives, and the singular window rule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pathspectra.errors import DomainError
from pathspectra.phasor import segment_windows, window_average
from pathspectra.quadrature import (
    _MAX_CELLS,
    _MAX_NODES,
    GridBundle,
    _check_node_count,
    _check_stack_size,
    cumulative_trapezoid,
    paper_grids,
    singular_window_integral,
    trapezoid,
    uniform_grid,
)
from pathspectra.reconstruct import reconstruct
from pathspectra.systems import EigenstateSpec, free_line, hard_wall, harmonic_oscillator, regular_sin


def test_uniform_grid_hits_both_endpoints():
    g = uniform_grid(-1.0, 2.0, 0.25)
    assert g[0] == -1.0 and g[-1] == 2.0
    assert g.size == 13
    assert np.allclose(np.diff(g), 0.25)


def test_uniform_grid_rounds_the_count():
    # a step that does not divide the span evenly is adjusted, not truncated
    g = uniform_grid(0.0, 1.0, 0.3)
    assert g.size == 4 and g[-1] == 1.0


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (math.nan, 1.0, 0.1),
        (0.0, math.nan, 0.1),
        (-math.inf, 1.0, 0.1),
        (0.0, math.inf, 0.1),
        (0.0, 1.0, math.nan),
        (0.0, 1.0, math.inf),
        (0.0, 1.0, 0.0),
    ],
)
def test_uniform_grid_refuses_non_finite_or_empty_input(lo, hi, step):
    with pytest.raises(DomainError):
        uniform_grid(lo, hi, step)


def test_trapezoid_of_a_stack_is_each_row_bit_for_bit():
    x = np.linspace(0.0, 1.0, 11)
    y = np.exp(1j * np.arange(1.0, 25.0).reshape(2, 3, 4, 1) * x)
    stacked = trapezoid(x, y)
    assert stacked.shape == (2, 3, 4)
    for index in np.ndindex(stacked.shape):
        assert stacked[index] == trapezoid(x, y[index])
    with pytest.raises(DomainError):
        trapezoid(x, np.ones((11, 3)))  # the abscissae run along the last axis


def test_trapezoid_of_row_blocks_matches_each_row_bit_for_bit():
    x = np.linspace(-2.0, 3.0, 2001)
    y = np.exp(-np.outer(np.arange(1.0, 6.0), x * x)) * np.cos(7.0 * x)
    rows = trapezoid(x, y)
    assert rows.shape == (5,)
    for row, samples in zip(rows, y):
        assert row == trapezoid(x, samples)
    # however the rows are blocked
    assert np.array_equal(np.concatenate([trapezoid(x, y[:2]), trapezoid(x, y[2:])]), rows)


def test_trapezoid_matches_numpy_and_is_linear():
    x = np.linspace(0.0, 3.0, 301)
    f = np.sin(x) + 1j * x
    g = np.cos(2 * x)
    assert trapezoid(x, f) == pytest.approx(np.trapezoid(f, x), rel=1e-14)
    combined = trapezoid(x, 2.0 * f + 0.5 * g)
    parts = 2.0 * trapezoid(x, f) + 0.5 * trapezoid(x, g)
    assert combined == pytest.approx(parts, rel=1e-14)


def test_cumulative_trapezoid_endpoint_equals_total():
    x = np.linspace(-1.0, 4.0, 173)
    f = np.exp(1j * x * x)
    cum = cumulative_trapezoid(x, f)
    assert cum.shape == x.shape
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(trapezoid(x, f), rel=1e-14)


def test_grid_bundle_rejects_descending_grids():
    with pytest.raises(DomainError):
        GridBundle(
            p_c_grid=np.array([1.0, 0.0]),
            x_f_grid=np.array([0.0, 1.0]),
            T_samples=(1.0,),
            n_p_floor=50.0,
            n_p_slope=150.0,
        )


def test_grid_bundle_spacings():
    bundle = GridBundle(
        p_c_grid=np.array([0.0, 1.0]),
        x_f_grid=np.array([0.0, 1.0]),
        T_samples=(1.0,),
        n_p_floor=50.0,
        n_p_slope=150.0,
    )
    # the slope term takes over once 150*|x_f| exceeds the floor
    assert bundle.inner_spacing(0.1, 4.0) == pytest.approx(1.0 / (50.0 * 2.0))
    assert bundle.inner_spacing(2.0, 4.0) == pytest.approx(1.0 / (300.0 * 2.0))


def test_paper_grids_defaults():
    T = 32.0 * math.pi
    state = EigenstateSpec(harmonic_oscillator(), 0)
    g = paper_grids(state, T)
    assert g.x_f_grid[0] == pytest.approx(-5.0)
    assert g.x_f_grid[-1] == pytest.approx(5.0)
    assert g.x_f_grid.size == 101
    assert len(g.T_samples) == 32
    assert g.T_samples[0] == pytest.approx(T + math.pi / 32.0)
    # midpoints never hit the kernel singularities
    assert all(abs(math.sin(tp)) > 1e-12 for tp in g.T_samples)
    assert g.inner_spacing(1.0, T) == pytest.approx(1.0 / (150.0 * math.sqrt(T)))


def test_paper_grids_x_span_grows_with_n():
    g = paper_grids(EigenstateSpec(harmonic_oscillator(), 3), 32.0 * math.pi)
    # +-5*sqrt(7) ~ 13.23, snapped to the nearest whole number of 0.1 steps
    assert g.x_f_grid[-1] == pytest.approx(13.2, abs=1e-12)
    assert abs(g.x_f_grid[-1] - 5.0 * math.sqrt(7.0)) <= 0.05


def test_paper_grids_delta_T_override_keeps_full_period():
    state = EigenstateSpec(harmonic_oscillator(), 0)
    g = paper_grids(state, 32.0 * math.pi, delta_T=math.pi / 32.0)
    assert len(g.T_samples) == 64
    assert g.T_samples[-1] == pytest.approx(32.0 * math.pi + 2.0 * math.pi - math.pi / 64.0)


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0, 100.0])
@pytest.mark.parametrize("delta_T", [None, 0.3, 2.0 * math.pi / 3.0, math.pi / 2.0, 10.0])
def test_T_samples_are_an_even_midpoint_rule_over_exactly_one_period(omega, delta_T):
    T = 32.0 * math.pi / omega  # a singular time: the period's ends and middle are caustics
    state = EigenstateSpec(harmonic_oscillator(omega), 1)
    samples = np.array(paper_grids(state, T, **({} if delta_T is None else {"delta_T": delta_T})).T_samples)
    half = math.pi / omega
    m = 16 if delta_T is None else max(1, round(half / delta_T))
    step = half / m
    assert samples.size == 2 * m
    slack = 4.0 * math.ulp(T + 2.0 * half)  # rounding of T + (j + 1/2) * step
    assert np.max(np.abs(np.diff(samples) - step)) <= slack
    assert abs(samples[0] - 0.5 * step - T) <= slack
    assert abs(samples[-1] + 0.5 * step - (T + 2.0 * half)) <= slack
    for t in samples:
        regular_sin(omega * t)  # no sample is a singular time


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("T", [32.0 * math.pi, 32.0 * math.pi + 0.3, 100.0])
def test_unit_oscillator_samples_are_the_plain_midpoints_for_delta_T_pi_over_a_power_of_two(k, T):
    delta_T = math.pi / 2**k
    samples = paper_grids(EigenstateSpec(harmonic_oscillator(), 0), T, delta_T=delta_T).T_samples
    assert samples == tuple(T + (j + 0.5) * delta_T for j in range(2 ** (k + 1)))


@pytest.mark.parametrize("n", [0, 1, 3, 8])
@pytest.mark.parametrize("overrides", [{}, {"delta_x_f": 0.4, "delta_p_c": 0.03}, {"x_f_span": 7.7}])
def test_paper_grids_are_bitwise_mirror_symmetric(n, overrides):
    g = paper_grids(EigenstateSpec(harmonic_oscillator(), n), 32.0 * math.pi, **overrides)
    for grid in (g.x_f_grid, g.p_c_grid):
        assert np.array_equal(grid, -grid[::-1])


_HO0 = EigenstateSpec(harmonic_oscillator(), 0)
_NAN_GRID = np.array([0.0, math.nan, 1.0])
NON_FINITE_GRIDS = {
    "delta_x_f=inf": lambda: paper_grids(_HO0, 100.0, delta_x_f=math.inf),
    "delta_p_c=inf": lambda: paper_grids(_HO0, 100.0, delta_p_c=math.inf),
    "delta_T=inf": lambda: paper_grids(_HO0, 100.0, delta_T=math.inf),
    "p_c_max=nan": lambda: paper_grids(_HO0, 100.0, p_c_max=math.nan),
    "x_f_span=inf": lambda: paper_grids(_HO0, 100.0, x_f_span=math.inf),
    "n_p_floor=nan": lambda: paper_grids(_HO0, 100.0, n_p_floor=math.nan),
    "bundle p_c_grid": lambda: GridBundle(_NAN_GRID, np.array([0.0, 1.0]), (1.0,)),
    "bundle T_samples": lambda: GridBundle(np.array([0.0, 1.0]), np.array([0.0, 1.0]), (math.nan,)),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_GRIDS))
def test_non_finite_grid_inputs_are_refused(case):
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE_GRIDS[case]()


def test_paper_grids_rejects_unknown_overrides_and_other_systems():
    state = EigenstateSpec(harmonic_oscillator(), 0)
    with pytest.raises(DomainError):
        paper_grids(state, 1.0, delta_q=0.1)
    with pytest.raises(DomainError):
        paper_grids(EigenstateSpec(free_line(), 1.0), 1.0)
    # delta_T alone sets the T' samples: a sample count is no override
    with pytest.raises(DomainError, match="unknown grid overrides"):
        paper_grids(state, 1.0, n_time=3)


# ---------------------------------------------------------------------------
# the node limit: every case is refused before its grid is allocated

_OSC1 = EigenstateSpec(harmonic_oscillator(), 1)
_T32 = 32.0 * math.pi
_SMALL_BUNDLE = GridBundle(
    p_c_grid=0.02 * np.arange(-100, 101), x_f_grid=np.linspace(-1.0, 1.0, 5), T_samples=(_T32 + 0.3,)
)
OVERSIZED = {
    "uniform_grid-tiny-step": lambda: uniform_grid(0.0, 1.0, 1e-300),
    "uniform_grid-range-overflows": lambda: uniform_grid(-1e308, 1e308, 1.0),
    "uniform_grid-one-past-the-limit": lambda: uniform_grid(0.0, 1.0, 1.0 / _MAX_NODES),
    "paper_grids-delta_x_f=1e-300": lambda: paper_grids(_OSC1, _T32, delta_x_f=1e-300),
    "paper_grids-delta_x_f=1e308": lambda: paper_grids(_OSC1, _T32, delta_x_f=1e308),
    "paper_grids-delta_p_c=1e-300": lambda: paper_grids(_OSC1, _T32, delta_p_c=1e-300),
    "paper_grids-p_c_max=1e300": lambda: paper_grids(_OSC1, _T32, p_c_max=1e300),
    "paper_grids-delta_T=1e-300": lambda: paper_grids(_OSC1, _T32, delta_T=1e-300),
    "paper_grids-delta_T=1e-9": lambda: paper_grids(_OSC1, _T32, delta_T=1e-9),
    "paper_grids-omega=1e-9": lambda: paper_grids(EigenstateSpec(harmonic_oscillator(1e-9), 1), _T32, delta_T=1.0),
    "reconstruct-band_hi=1e300": lambda: reconstruct(_OSC1, (0.0, 1e300), _T32 + 0.3, _SMALL_BUNDLE),
    "segment_windows-p_hi=1e300": lambda: segment_windows(_OSC1, 0.5, _T32 + 0.3, 0.0, 0.0, 1e300),
}


@pytest.mark.parametrize("call", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_grids_past_the_node_limit_are_refused(call):
    with pytest.raises(DomainError, match="more than the limit"):
        call()


def test_node_limit_boundary_and_explicit_sample_count():
    assert _check_node_count(float(_MAX_NODES), "grid") == _MAX_NODES
    for count in (_MAX_NODES + 1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            _check_node_count(count, "grid")
    # an explicit delta_T sets the count, 2 * round((pi/omega) / delta_T)
    assert len(paper_grids(_OSC1, _T32, delta_T=0.3).T_samples) == 2 * round(math.pi / 0.3)


# the stack limit: (x_f, p_c) window stacks are refused before allocation

_COARSE_BUNDLE = GridBundle(
    p_c_grid=0.2 * np.arange(-50, 51), x_f_grid=np.linspace(-5.0, 5.0, 101), T_samples=(_T32 + 0.3,)
)
_WALL = EigenstateSpec(hard_wall(), 2.0)
OVERSIZED_STACKS = {
    # 2 x 5e5 band nodes (8 MB) over 101 rows: 1.0e8 cells
    "reconstruct-oscillator": lambda: reconstruct(_OSC1, (0.0, 1e5), _T32 + 0.3, _COARSE_BUNDLE),
    "window_average-x_f-stack": lambda: window_average(
        _WALL, np.linspace(-3.0, 3.0, 1 << 16), np.linspace(0.0, 1.0, 1025), 100.0, _COARSE_BUNDLE
    ),
}


@pytest.mark.parametrize("call", OVERSIZED_STACKS.values(), ids=OVERSIZED_STACKS.keys())
def test_window_stacks_past_the_cell_limit_are_refused(call):
    with pytest.raises(DomainError, match="window stack .* more than the limit"):
        call()


def test_stack_limit_boundary():
    _check_stack_size(1 << 13, 1 << 13)
    _check_stack_size(1, _MAX_CELLS)
    # the default hard-wall grids at T = 100.41 as one window_average x_f stack (its distribution builds none)
    _check_stack_size(129, 174_446)
    for rows, columns in (((1 << 13) + 1, 1 << 13), (1, _MAX_CELLS + 1)):
        with pytest.raises(DomainError):
            _check_stack_size(rows, columns)


# ---------------------------------------------------------------------------
# singular windows


def test_singular_patch_weight_closed_form():
    sys_ = harmonic_oscillator()
    # constant factors, window exactly [b, b+eps]: the whole integral is the
    # patch, sqrt(eps*(eps + 2b))
    value = singular_window_integral(
        1.0, 1.01, 1.0, sys_, lambda p: np.ones_like(p),
        inner_spacing=1e-4, epsilon=0.01,
    )
    assert value.real == pytest.approx(math.sqrt(0.01 * 2.01), rel=1e-12)
    assert value.imag == 0.0


def test_singular_patch_weight_vanishes_with_epsilon():
    sys_ = harmonic_oscillator()
    values = [
        abs(
            singular_window_integral(
                1.0, 1.0 + eps, 1.0, sys_, lambda p: np.ones_like(p),
                inner_spacing=1e-6, epsilon=eps,
            )
        )
        for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert values[0] > values[1] > values[2]
    assert values[2] < 2e-3


def test_excluded_region_contributes_nothing():
    sys_ = harmonic_oscillator()
    value = singular_window_integral(
        -0.5, 0.5, 1.0, sys_, lambda p: np.ones_like(p), inner_spacing=1e-3
    )
    assert value == 0.0


def test_singular_window_against_split_quadrature():
    sys_ = harmonic_oscillator()
    rng = np.random.default_rng(32)

    def factors(p):
        return np.exp(1j * 0.8 * np.asarray(p)) / (1.0 + np.asarray(p) ** 2)

    worst = 0.0
    for _ in range(8):
        x_f = rng.uniform(0.3, 2.0)
        b = x_f
        lo = rng.uniform(-b - 1.5, -b + 0.4)
        hi = rng.uniform(b - 0.4, b + 1.5)
        if hi <= lo:
            lo, hi = hi - 2.0, lo + 2.0
        got = singular_window_integral(
            lo, hi, x_f, sys_, factors, inner_spacing=2.5e-5
        )

        def one_side(a_mag, b_mag, sign):
            if b_mag <= a_mag:
                return 0.0 + 0.0j
            v_lo = math.sqrt(max(a_mag * a_mag - b * b, 0.0))
            v_hi = math.sqrt(b_mag * b_mag - b * b)

            def f(v, part):
                p = math.sqrt(v * v + b * b)
                val = complex(factors(np.asarray(sign * p)))
                return val.real if part == 0 else val.imag

            re = quad(f, v_lo, v_hi, args=(0,), limit=300, epsabs=1e-12)[0]
            im = quad(f, v_lo, v_hi, args=(1,), limit=300, epsabs=1e-12)[0]
            return re + 1j * im

        want = one_side(max(lo, b), hi, +1) + one_side(max(-min(hi, -b), b), -lo, -1)
        if abs(want) > 1e-6:
            worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-4


def test_singular_window_argument_validation():
    sys_ = harmonic_oscillator()
    with pytest.raises(DomainError):
        singular_window_integral(1.0, 0.5, 1.0, sys_, lambda p: p, inner_spacing=1e-3)
    with pytest.raises(DomainError):
        singular_window_integral(
            0.5, 1.5, 1.0, sys_, lambda p: p, inner_spacing=1e-3, epsilon=-0.1
        )
    with pytest.raises(DomainError):
        singular_window_integral(0.5, 1.5, 1.0, free_line(), lambda p: p, inner_spacing=1e-3)
