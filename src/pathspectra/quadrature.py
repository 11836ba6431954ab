"""Deterministic quadrature: explicit grids, trapezoids, and the singular patch.

Everything downstream integrates on grids built here.  Three things matter:

* **Determinism.**  Every reduction is an ordered NumPy sum whose order
  depends only on the row length: :func:`trapezoid` is ``np.sum`` of its
  cells along the last axis (pairwise, error growing like log2(n)*eps), so
  a row gives the same bits alone or in a stack; :func:`cumulative_trapezoid`
  is ``np.cumsum``, and the x_f average in ``distribution`` is the same
  trapezoid written as weights, summed along x_f.  Results are
  bit-reproducible.
* **The inverse-square-root patch.**  Oscillator integrands carry a factor
  ``|p| / sqrt(p^2 - b^2)`` with ``b = M*omega*|x_f|`` that diverges
  (integrably) at ``|p| = b``.  Substituting ``v = sqrt(p^2 - b^2)`` turns
  ``|p|/sqrt(p^2-b^2) dp`` into plain ``dv``, so integrating uniformly in v
  handles the divergence *and* automatically grades the p-spacing near the
  singular point.  The first v-cell freezes the regular factors at the
  singular point, giving the closed patch weight ``sqrt(eps*(eps + 2b))`` for
  a patch of p-width eps.  :func:`singular_window_integral` is that rule
  window by window; the library's oscillator windows are closed-form (see
  :mod:`pathspectra.phasor`) and use an inner v-grid only for the columns
  whose Hermite ladder is unstable, so this function is the reference
  oracle they are tested against.
* **Grid recipes.**  :func:`paper_grids` packages the oscillator defaults
  (32 midpoint time samples over one period, x_f out to 5*sqrt(2n+1), and
  the fallback inner momentum resolution, growing with |x_f|) into a
  :class:`GridBundle`.  A bundle says only where to sample; the window
  half-width is physics of the state, from
  :func:`~pathspectra.systems.window_halfwidth`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError
from .systems import EigenstateSpec, SystemKind, SystemSpec, _check_travel_time, window_halfwidth

__all__ = [
    "GridBundle",
    "trapezoid",
    "cumulative_trapezoid",
    "uniform_grid",
    "singular_window_integral",
    "paper_grids",
]

# Largest node or sample count any grid may have: 14x the largest grid the
# test suite builds, and 128 MiB as one float64 array.
_MAX_NODES = 1 << 24


def _check_node_count(count: float, what: str) -> float:
    """``count`` (a float quotient), refused above ``_MAX_NODES`` before anything is allocated."""
    if not count <= _MAX_NODES:  # also refuses NaN and inf
        raise DomainError(f"{what} would have {count:.3g} nodes, more than the limit {_MAX_NODES}")
    return count


_MAX_CELLS = 1 << 26  # largest (x_f, p_c) window stack, 1 GiB; the default wall builds 2.25e7


def _check_stack_size(rows: int, columns: int) -> None:
    """Refuse a ``rows x columns`` window stack over ``_MAX_CELLS`` before it is allocated."""
    if rows * columns > _MAX_CELLS:
        raise DomainError(f"a {rows} x {columns} window stack is more than the limit of {_MAX_CELLS} cells")


def _cells(x: NDArray, y: NDArray) -> NDArray:
    if x.ndim != 1 or x.shape != y.shape[-1:]:
        raise DomainError("abscissae must be 1-D and match the sample count")
    if x.size < 2:
        raise DomainError("trapezoid needs at least 2 samples")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise DomainError("abscissae must be strictly increasing")
    return 0.5 * (y[..., 1:] + y[..., :-1]) * dx


def trapezoid(x: NDArray, y: NDArray) -> NDArray | np.number:
    """Trapezoid integral of ``y`` over abscissae ``x`` along ``y``'s last axis.

    One ``np.sum`` of cells per row, so a row gives the same bits alone or in
    a stack; 1-D ``y`` gives a NumPy scalar.
    """
    return np.sum(_cells(np.asarray(x, dtype=float), np.asarray(y)), axis=-1)


def cumulative_trapezoid(x: NDArray, y: NDArray) -> NDArray:
    """Running trapezoid integral, starting at 0 on the first abscissa."""
    cells = _cells(np.asarray(x, dtype=float), np.asarray(y))
    out = np.empty(np.asarray(y).shape, dtype=cells.dtype)
    out[..., 0] = 0.0
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    return out


def uniform_grid(lo: float, hi: float, step: float) -> NDArray[np.float64]:
    """Uniform grid from lo to hi with spacing as close to ``step`` as fits.

    The cell count is rounded so the grid lands exactly on both ends.  The
    interior comes from ``np.linspace`` and is symmetric only to rounding
    (a few ulp of the range); :func:`paper_grids`' ``step * arange`` grids
    are the exactly mirror-symmetric ones.  More than ``_MAX_NODES`` nodes
    are refused before any is allocated.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(f"grid range must be finite with hi > lo, got [{lo}, {hi}]")
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"grid step must be positive and finite, got {step}")
    cells = (hi - lo) / step
    _check_node_count(cells + 1.0, "uniform grid")
    n = max(1, round(cells))
    return np.linspace(lo, hi, n + 1)


@dataclass(frozen=True, eq=False)
class GridBundle:
    """All grid choices for one distribution/reconstruction computation.

    A bundle says only where to sample; the physics (the window half-width
    :func:`~pathspectra.systems.window_halfwidth`, the kernel) comes from
    the state it is used with.  Oscillator windows are closed-form; only the
    columns whose Hermite ladder would amplify round-off too far (high ``n``
    well outside the turning points) fall back to a trapezoid in the
    substituted variable, with spacing ``1/(n_p * sqrt(T))``,
    ``n_p = max(n_p_floor, n_p_slope * |x_f|)``, finer where the integrand
    oscillates faster.  ``n_p_floor``/``n_p_slope`` set that fallback
    spacing and nothing else.
    """

    p_c_grid: NDArray[np.float64]
    x_f_grid: NDArray[np.float64]
    T_samples: tuple[float, ...]
    n_p_floor: float = 50.0
    n_p_slope: float = 0.0

    def __post_init__(self) -> None:
        # written as "not (ok)" so that NaN, which fails every comparison, is refused
        if not (math.isfinite(self.n_p_floor) and self.n_p_floor > 0):
            raise DomainError("n_p_floor must be positive and finite")
        if not (math.isfinite(self.n_p_slope) and self.n_p_slope >= 0):
            raise DomainError("n_p_slope must be non-negative and finite")
        if not (self.T_samples and all(math.isfinite(t) and t > 0 for t in self.T_samples)):
            raise DomainError("T_samples must be positive and finite")
        for name in ("p_c_grid", "x_f_grid"):
            g = getattr(self, name)
            if g.size < 2 or not (np.all(np.isfinite(g)) and np.all(np.diff(g) > 0)):
                raise DomainError(f"{name} must be finite and ascending with at least 2 points")

    def inner_spacing(self, x_f: float, T: float) -> float:
        n_p = max(self.n_p_floor, self.n_p_slope * abs(x_f))
        return 1.0 / (n_p * math.sqrt(T))


def paper_grids(state: EigenstateSpec, T: float, **overrides: float) -> GridBundle:
    """Default oscillator grids for distribution and reconstruction runs.

    For eigenstate ``n`` at travel time ``T``:

    * 32 time samples at the midpoints ``T + (j + 1/2) * pi/16`` covering one
      period (never hitting the singular times, which sit on the endpoints);
      a ``delta_T`` override keeps the full-period coverage by rescaling the
      sample count unless ``n_time`` is overridden too;
    * ``x_f`` from ``-5*sqrt(2n+1)`` to ``+5*sqrt(2n+1)`` in steps of 0.1;
    * output momentum grid out to ``max(3*sqrt(2*M*E_n), M*omega*max|x_f| +
      10*sqrt(hbar*M/T))`` in steps of 0.02;
    * both grids are whole multiples of their step, so each is exactly
      mirror-symmetric about 0 (the oscillator stack uses that to price
      only half its rows);
    * fallback inner resolution ``n_p = max(50, 150*|x_f|/sqrt(2n+1))``
      (used only by columns the closed form cannot take; see
      :class:`GridBundle`).

    Keyword overrides: ``delta_p_c``, ``p_c_max``, ``delta_x_f``, ``x_f_span``,
    ``delta_T``, ``n_time``, ``n_p_floor``, ``n_p_slope``.  Each must be
    finite; all but ``n_p_slope`` must also be positive, and ``n_time`` a
    whole number.  A grid or time sampling of more than ``_MAX_NODES`` nodes
    is refused before it is built.
    """
    system = state.system
    if system.kind is not SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("paper_grids builds oscillator grids; other systems use caller-owned grids")
    _check_travel_time(T)
    assert system.omega is not None
    n = int(state.quantum_number)
    width = math.sqrt(2.0 * n + 1.0)
    energy = state.energy

    def positive(name: str, default: float) -> float:
        value = float(overrides.pop(name, default))
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, got {value}")
        return value

    delta_x_f = positive("delta_x_f", 0.1)
    delta_p_c = positive("delta_p_c", 0.02)
    delta_T = positive("delta_T", math.pi / 16.0)

    period = 2.0 * math.pi / system.omega
    if "n_time" in overrides:
        requested = overrides["n_time"]
        count = _check_node_count(positive("n_time", 1.0), "T' sampling")
        if isinstance(requested, (bool, np.bool_)) or count != int(count):
            raise DomainError(f"n_time must be a whole number of samples, got {requested!r}")
        n_time = int(count)
    else:
        n_time = max(1, round(_check_node_count(period / delta_T, "T' sampling")))
    T_samples = tuple(T + (j + 0.5) * delta_T for j in range(n_time))

    x_span = positive("x_f_span", 5.0 * width * math.sqrt(system.hbar / (system.mass * system.omega)))
    _check_node_count(2.0 * (x_span / delta_x_f) + 1.0, "x_f grid")
    m_steps = max(1, round(x_span / delta_x_f))
    x_f_grid = delta_x_f * np.arange(-m_steps, m_steps + 1)

    p_c_max = positive(
        "p_c_max",
        max(
            3.0 * math.sqrt(2.0 * system.mass * energy),
            system.mass * system.omega * float(np.max(np.abs(x_f_grid))) + 10.0 * window_halfwidth(system, T),
        ),
    )
    _check_node_count(2.0 * (p_c_max / delta_p_c) + 1.0, "p_c grid")
    k_steps = max(1, round(p_c_max / delta_p_c))
    p_c_grid = delta_p_c * np.arange(-k_steps, k_steps + 1)

    bundle = GridBundle(
        p_c_grid=p_c_grid,
        x_f_grid=x_f_grid,
        T_samples=T_samples,
        n_p_floor=float(overrides.pop("n_p_floor", 50.0)),
        n_p_slope=float(overrides.pop("n_p_slope", 150.0 / width)),
    )
    if overrides:
        raise DomainError(f"unknown grid overrides: {sorted(overrides)}")
    return bundle


def _side_pieces(
    lo: float,
    hi: float,
    b: float,
    other: Callable[[NDArray], NDArray],
    epsilon: float,
    dv: float,
) -> complex:
    """Integral of ``other(p)*|p|/sqrt(p^2-b^2)`` over [lo, hi] with b <= lo < hi.

    Substitutes v = sqrt(p^2 - b^2): the measure becomes dv and the patch
    [b, b+eps] becomes the first cell [0, v_eps] with the regular factors
    frozen at p = b (weight v_eps = sqrt(eps*(eps+2b)) exactly).
    """
    v_lo = math.sqrt(max(lo * lo - b * b, 0.0))
    v_hi = math.sqrt(hi * hi - b * b)
    total = 0.0 + 0.0j
    if lo <= b:
        v_eps = math.sqrt(epsilon * (epsilon + 2.0 * b))
        v_patch_hi = min(v_eps, v_hi)
        total += complex(other(np.array(b))) * v_patch_hi
        v_lo = v_patch_hi
    if v_hi <= v_lo:
        return total
    n_cells = max(1, math.ceil((v_hi - v_lo) / dv))
    v = np.linspace(v_lo, v_hi, n_cells + 1)
    p = np.sqrt(v * v + b * b)
    return total + complex(trapezoid(v, np.asarray(other(p), dtype=np.complex128)))


def singular_window_integral(
    p_lo: float,
    p_hi: float,
    x_f: float,
    system: SystemSpec,
    other_factors: Callable[[NDArray], NDArray],
    *,
    inner_spacing: float,
    epsilon: float | None = None,
) -> complex:
    """Window integral of an oscillator-type integrand across its divergences.

    Integrates ``other_factors(p) * |p| / sqrt(p^2 - b^2)`` over
    ``[p_lo, p_hi]`` with ``b = M*omega*|x_f|``, where ``other_factors`` is
    the smooth remainder of the integrand (one branch per sign of p; the
    callable receives the signed p values of whichever side is being
    integrated).  The excluded interval ``(-b, b)`` contributes zero; within
    p-distance ``epsilon`` of ``+-b`` the smooth factors are frozen at the
    singular point, contributing the closed patch weight
    ``sqrt(epsilon*(epsilon + 2b))``; the rest is a trapezoid rule, uniform
    in the substituted variable ``v = sqrt(p^2 - b^2)`` with spacing
    ``inner_spacing``.

    ``epsilon = None`` uses one v-cell, i.e. ``sqrt(b^2 + inner_spacing^2) - b``
    (which degenerates to ``inner_spacing`` when b = 0).
    """
    if system.kind is not SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("singular windows arise only for the oscillator")
    if not p_hi > p_lo:
        raise DomainError("window must have p_hi > p_lo")
    if inner_spacing <= 0:
        raise DomainError("inner_spacing must be positive")
    assert system.omega is not None
    b = system.mass * system.omega * abs(x_f)
    if epsilon is None:
        epsilon = math.sqrt(b * b + inner_spacing**2) - b if b > 0 else inner_spacing
        epsilon = max(epsilon, 1e-300)
    elif epsilon <= 0:
        raise DomainError("epsilon must be positive")

    total = 0.0 + 0.0j
    # positive side [max(p_lo, b), p_hi]
    if p_hi > b:
        lo = max(p_lo, b)
        total += _side_pieces(lo, p_hi, b, lambda p: np.asarray(other_factors(p)), epsilon, inner_spacing)
    # negative side [p_lo, min(p_hi, -b)], mapped to |p|
    if p_lo < -b:
        hi_mag = -p_lo
        lo_mag = max(-min(p_hi, -b), b)
        total += _side_pieces(lo_mag, hi_mag, b, lambda p: np.asarray(other_factors(-p)), epsilon, inner_spacing)
    return total
