"""Property tests: grid recipes and the parity of oscillator results.

Derandomized, so every run draws the same examples.  Finite overrides are
drawn from ranges that keep each grid to a few thousand nodes; the
non-finite, zero and negative values are drawn alongside them.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pathspectra as ps
from pathspectra.errors import DomainError
from pathspectra.quadrature import paper_grids

HO = ps.harmonic_oscillator()
T32 = 32.0 * math.pi

_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0])


def _override(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.one_of(_SPECIAL, st.floats(lo, hi))


OVERRIDES = {
    "delta_x_f": _override(0.05, 20.0),
    "delta_p_c": _override(0.01, 20.0),
    "delta_T": _override(0.05, 10.0),
    "x_f_span": _override(1e-3, 30.0),
    "p_c_max": _override(1e-3, 30.0),
    "n_time": _override(0.5, 64.0),
    "n_p_floor": _override(1e-3, 1e3),
    "n_p_slope": _override(0.0, 1e3),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(0, 8),
    overrides=st.fixed_dictionaries({}, optional=OVERRIDES),
)
def test_paper_grids_refuse_or_return_finite_symmetric_grids(n, overrides):
    try:
        g = paper_grids(ps.EigenstateSpec(HO, n), T32, **overrides)
    except DomainError:
        return
    for grid in (g.x_f_grid, g.p_c_grid):
        assert np.all(np.isfinite(grid))
        assert np.all(np.diff(grid) > 0)
        assert np.array_equal(grid, -grid[::-1])
    assert all(math.isfinite(t) and t > 0 for t in g.T_samples)


# travel times a fixed distance from the singular multiples of pi
_TRAVEL_TIME = st.floats(0.2, math.pi - 0.2).map(lambda u: T32 + u)
_SMALL = {"delta_x_f": 0.5, "delta_p_c": 0.1, "delta_T": math.pi / 2.0}


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(0, 8), T=_TRAVEL_TIME)
def test_oscillator_time_average_is_even_in_momentum(n, T):
    state = ps.EigenstateSpec(HO, n)
    values = ps.time_average(state, T, paper_grids(state, T, **_SMALL)).values
    assert np.max(np.abs(values - values[::-1])) <= 1e-13 * np.max(np.abs(values))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(n=st.integers(0, 8), T=_TRAVEL_TIME, band=st.tuples(st.floats(0.0, 2.0), st.floats(0.5, 4.0)))
def test_oscillator_band_reconstruction_has_the_state_parity(n, T, band):
    state = ps.EigenstateSpec(HO, n)
    lo, width = band
    values = ps.reconstruct(state, (lo, lo + width), T, paper_grids(state, T, **_SMALL)).values
    sign = (-1.0) ** n
    assert np.max(np.abs(values[::-1] - sign * values)) <= 1e-13 * max(np.max(np.abs(values)), 1e-300)
