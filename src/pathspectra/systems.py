"""The five exactly solvable systems: spectra, eigenfunctions, propagators.

Every quantity here is closed-form.  A :class:`SystemSpec` pins down the kind
of system and its physical constants; an :class:`EigenstateSpec` adds the
quantum label.  Both are frozen values, safe to share across threads.

Conventions that matter downstream:

* Plane-wave-like states (free line ``e^{ikx}``, circle ``e^{i l phi}``, wall
  and well ``sin(kx)``) are deliberately *unnormalized*; the normalization
  cancels in a distribution, whose x_f average is closed-form for these
  four (the oscillator's divides by its window norm ``N = int |psi|^2``).
* The oscillator kernel carries the Morse-index phase ``exp(-i pi/2 *
  floor(omega T / pi))`` and is singular whenever ``sin(omega T) == 0``;
  :func:`regular_sin` refuses every time within float resolution of one.
* :func:`window_halfwidth` ``h = sqrt(hbar*m/T)`` is the one resolution
  scale; every window and default spacing downstream takes it from there.
* Bounded systems use image sums.  Those sums have unit-magnitude terms and
  converge only in the smeared sense, so the truncation count is an explicit
  argument with a documented default rather than something silently hidden.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError, ExcludedRegionError, SingularTimeError
from .specfun import MAX_DEGREE, ho_eigenfunction

__all__ = [
    "SystemKind",
    "SystemSpec",
    "SHAPE_CONSTANT",
    "EigenstateSpec",
    "free_line",
    "circle",
    "hard_wall",
    "square_well",
    "harmonic_oscillator",
    "eigen_energy",
    "eigenfunction",
    "propagator",
    "maslov_index",
    "regular_sin",
    "SINGULAR_TIME_ULPS",
    "characteristic_x0",
    "ho_max_momentum",
    "default_winding_terms",
    "mass_parameter",
    "window_halfwidth",
]

# Fallback truncation for the circle/well image sums when the caller supplies
# no momentum scale; see `default_winding_terms` for the scale-aware choice.
DEFAULT_IMAGE_TERMS = 64


class SystemKind(enum.Enum):
    FREE_LINE = "free_line"
    CIRCLE = "circle"
    HARD_WALL = "hard_wall"
    SQUARE_WELL = "square_well"
    HARMONIC_OSCILLATOR = "harmonic_oscillator"


#: The one shape constant each kind takes; every other kind leaves all three unset.
SHAPE_CONSTANT = {
    SystemKind.HARMONIC_OSCILLATOR: "omega",
    SystemKind.CIRCLE: "radius",
    SystemKind.SQUARE_WELL: "width",
}


@dataclass(frozen=True)
class SystemSpec:
    """A solvable system with its physical constants.

    Only the constants relevant to ``kind`` may be set: ``omega`` for the
    oscillator, ``radius`` for the circle, ``width`` for the square well.
    """

    kind: SystemKind
    hbar: float = 1.0
    mass: float = 1.0
    omega: float | None = None
    radius: float | None = None
    width: float | None = None

    def __post_init__(self) -> None:
        for field in ("hbar", "mass", "omega", "radius", "width"):
            value = getattr(self, field)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{field} must be finite, got {value}")
        if self.hbar <= 0 or self.mass <= 0:
            raise DomainError("hbar and mass must be positive")
        for kind, field in SHAPE_CONSTANT.items():
            value = getattr(self, field)
            if self.kind is kind:
                if value is None or value <= 0:
                    raise DomainError(f"{self.kind.value} requires {field} > 0")
            elif value is not None:
                raise DomainError(f"{field} is not a {self.kind.value} parameter")

    @property
    def inertia(self) -> float:
        """Moment of inertia I = M R^2 (circle only)."""
        if self.kind is not SystemKind.CIRCLE:
            raise DomainError("inertia is only defined for the circle")
        assert self.radius is not None
        return self.mass * self.radius**2


def free_line(*, hbar: float = 1.0, mass: float = 1.0) -> SystemSpec:
    return SystemSpec(SystemKind.FREE_LINE, hbar=hbar, mass=mass)


def circle(radius: float = 1.0, *, hbar: float = 1.0, mass: float = 1.0) -> SystemSpec:
    return SystemSpec(SystemKind.CIRCLE, hbar=hbar, mass=mass, radius=radius)


def hard_wall(*, hbar: float = 1.0, mass: float = 1.0) -> SystemSpec:
    return SystemSpec(SystemKind.HARD_WALL, hbar=hbar, mass=mass)


def square_well(width: float, *, hbar: float = 1.0, mass: float = 1.0) -> SystemSpec:
    return SystemSpec(SystemKind.SQUARE_WELL, hbar=hbar, mass=mass, width=width)


def harmonic_oscillator(
    omega: float = 1.0, *, hbar: float = 1.0, mass: float = 1.0
) -> SystemSpec:
    return SystemSpec(SystemKind.HARMONIC_OSCILLATOR, hbar=hbar, mass=mass, omega=omega)


def mass_parameter(system: SystemSpec) -> float:
    """Mass-like constant conjugate to the momentum variable of the system.

    The circle's distributions live on angular momentum, so its windows and
    spacings scale with the moment of inertia I = M R^2; every other system
    uses the plain mass.
    """
    if system.kind is SystemKind.CIRCLE:
        return system.inertia
    return system.mass


def window_halfwidth(system: SystemSpec, T: float) -> float:
    """``h = sqrt(hbar*m/T)``: ``T`` cannot tell apart characteristic momenta closer than ``h``."""
    _check_travel_time(T)
    return math.sqrt(system.hbar * mass_parameter(system) / T)


@dataclass(frozen=True)
class EigenstateSpec:
    """An energy eigenstate: a system plus its quantum label.

    ``quantum_number`` is a wavenumber ``k`` for the free line (any real) and
    hard wall (k > 0), and an integer for the circle (any sign), square well
    (n >= 1) and oscillator (0 <= n <= 64).
    """

    system: SystemSpec
    quantum_number: float

    def __post_init__(self) -> None:
        q = self.quantum_number
        kind = self.system.kind
        if not math.isfinite(q):
            raise DomainError(f"quantum number must be finite, got {q}")
        if kind is SystemKind.HARD_WALL and not q > 0:
            raise DomainError("hard-wall states need wavenumber k > 0")
        if kind in (SystemKind.CIRCLE, SystemKind.SQUARE_WELL, SystemKind.HARMONIC_OSCILLATOR):
            if q != int(q):
                raise DomainError(f"{kind.value} quantum number must be an integer, got {q}")
            if kind is SystemKind.SQUARE_WELL and q < 1:
                raise DomainError("square-well levels start at n = 1")
            if kind is SystemKind.HARMONIC_OSCILLATOR and not 0 <= q <= MAX_DEGREE:
                raise DomainError(f"oscillator level must be in [0, {MAX_DEGREE}]")

    @property
    def wavenumber(self) -> float:
        """Spatial frequency of the eigenfunction (k, l, n*pi/a, or None-like 0 for HO)."""
        kind = self.system.kind
        if kind in (SystemKind.FREE_LINE, SystemKind.HARD_WALL, SystemKind.CIRCLE):
            return float(self.quantum_number)
        if kind is SystemKind.SQUARE_WELL:
            assert self.system.width is not None
            return float(self.quantum_number) * np.pi / self.system.width
        raise DomainError("the oscillator eigenfunction has no single wavenumber")

    @property
    def energy(self) -> float:
        return eigen_energy(self)


def eigen_energy(state: EigenstateSpec) -> float:
    """Exact energy eigenvalue of ``state``."""
    sys_ = state.system
    kind = sys_.kind
    if kind is SystemKind.HARMONIC_OSCILLATOR:
        assert sys_.omega is not None
        return sys_.hbar * sys_.omega * (state.quantum_number + 0.5)
    if kind is SystemKind.CIRCLE:
        return sys_.hbar**2 * state.quantum_number**2 / (2.0 * sys_.inertia)
    k = state.wavenumber
    return sys_.hbar**2 * k**2 / (2.0 * sys_.mass)


def eigenfunction(
    state: EigenstateSpec, x: ArrayLike
) -> NDArray[np.complexfloating] | complex:
    """Eigenfunction value(s) at position ``x`` (angle for the circle).

    Unbounded systems accept any finite x.  Bounded systems enforce their
    configuration interval, boundaries included (the wall/well functions
    vanish there); the circle takes angles in ``[0, 2*pi]``, the seam
    included so that grids closing the circle stay legal.  A NaN or
    ``+-inf`` position is a ``DomainError`` on every system.
    """
    xa = _finite(x, "positions x")
    sys_ = state.system
    kind = sys_.kind
    _check_interval(sys_, xa)
    if kind in (SystemKind.FREE_LINE, SystemKind.CIRCLE):
        out = np.exp(1j * state.quantum_number * xa)
    elif kind is SystemKind.HARD_WALL:
        out = np.sin(state.quantum_number * xa).astype(np.complex128)
    elif kind is SystemKind.SQUARE_WELL:
        out = np.sin(state.wavenumber * xa).astype(np.complex128)
    else:
        out = ho_eigenfunction(
            int(state.quantum_number), xa, hbar=sys_.hbar, mass=sys_.mass, omega=sys_.omega
        )
        out = np.asarray(out, dtype=np.complex128)
    return complex(out) if xa.ndim == 0 else out


#: ``|sin(omega*T)|`` at or below this many units in the last place of
#: ``omega*T`` counts as a singular time.  Rounding ``omega*T`` moves its sine
#: by up to half an ulp, so the threshold keeps ``sin(omega*T)`` -- and the
#: ``1/sin`` that scales every oscillator phase -- good to 2^-27 relative.
SINGULAR_TIME_ULPS = 2.0**26


def _check_travel_time(T: float) -> None:
    """Refuse a travel time that is not positive and finite (NaN included)."""
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"travel time T must be positive and finite, got {T!r}")


def _check_interval(system: SystemSpec, *positions: ArrayLike) -> None:
    """Refuse a position outside a bounded system's interval, ends included:
    ``x >= 0`` on the wall, ``[0, a]`` in the well, angles in ``[0, 2*pi]`` on the circle."""
    bounds = {SystemKind.HARD_WALL: math.inf, SystemKind.SQUARE_WELL: system.width, SystemKind.CIRCLE: 2.0 * math.pi}
    top = bounds.get(system.kind)
    if top is not None and any(np.any(x < 0.0) or np.any(x > top) for x in positions):
        raise DomainError(f"{system.kind.value} positions must lie in [0, {top!r}]")


def _finite(values: ArrayLike, name: str) -> NDArray[np.float64]:
    """``values`` as a float array, refused unless every entry is finite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def regular_sin(omega_T: float) -> float:
    """``sin(omega*T)``, refused near the oscillator's singular times.

    Raises :class:`SingularTimeError` when ``|sin(omega*T)| <=
    SINGULAR_TIME_ULPS * ulp(omega*T)``: there the sign of the sine, and the
    size of the ``1/sin`` terms in the kernel, are set by rounding rather
    than by the input.  Near ``omega*T = 32*pi`` the threshold is 9.5e-7, so
    ``32*pi + 1e-12`` is refused while ``32*pi + pi/128`` (``|sin| = 0.025``)
    is far from it.
    """
    s = math.sin(omega_T)
    if abs(s) <= SINGULAR_TIME_ULPS * math.ulp(omega_T):
        raise SingularTimeError(
            f"oscillator singular at omega*T = {omega_T!r}: |sin| = {abs(s):.3g} "
            "is within float resolution of 0"
        )
    return s


def maslov_index(omega_T: float) -> int:
    """Morse/caustic count ``floor(omega*T/pi)`` for the oscillator kernel."""
    if omega_T <= 0:
        raise DomainError("omega*T must be positive")
    regular_sin(omega_T)  # refuses the singular times, where the count jumps
    return int(np.floor(omega_T / np.pi))


def _free_kernel(
    mass: float, hbar: float, dx: ArrayLike, T: float
) -> NDArray[np.complexfloating]:
    dxa = np.asarray(dx, dtype=float)
    amp = np.sqrt(mass / (2j * np.pi * hbar * T))
    return amp * np.exp(1j * mass * dxa * dxa / (2.0 * hbar * T))


def propagator(
    system: SystemSpec,
    x0: ArrayLike,
    xf: ArrayLike,
    T: float,
    *,
    n_terms: int | None = None,
) -> NDArray[np.complexfloating] | complex:
    """Exact time-domain kernel ``K(x0, xf, T)``.

    ``n_terms`` truncates the winding/image sums of the circle and square well
    at ``sum_{w=-n_terms}^{n_terms}``; it is ignored by the other systems.
    Those sums have unit-magnitude terms, so pointwise values converge only in
    the distributional (smeared) sense -- pick ``n_terms`` with
    :func:`default_winding_terms` when a momentum scale is known.

    The oscillator kernel includes the Morse-index phase and raises
    :class:`SingularTimeError` at ``sin(omega*T) == 0`` (to within
    :func:`regular_sin`'s float-resolution threshold), where the classical
    flow focuses and the kernel degenerates to a delta function.  A NaN or
    ``+-inf`` position is a ``DomainError`` on every system.
    """
    _check_travel_time(T)
    x0a = _finite(x0, "positions x0")
    xfa = _finite(xf, "positions xf")
    scalar = x0a.ndim == 0 and xfa.ndim == 0
    kind = system.kind
    hbar, mass = system.hbar, system.mass
    if kind is not SystemKind.CIRCLE:  # the circle's kernel takes unwound angles
        _check_interval(system, x0a, xfa)

    if kind is SystemKind.FREE_LINE:
        out = _free_kernel(mass, hbar, xfa - x0a, T)
    elif kind is SystemKind.HARD_WALL:
        out = _free_kernel(mass, hbar, xfa - x0a, T) - _free_kernel(mass, hbar, xfa + x0a, T)
    elif kind is SystemKind.CIRCLE:
        inertia = system.inertia
        nw = DEFAULT_IMAGE_TERMS if n_terms is None else int(n_terms)
        dphi = xfa - x0a
        out = np.zeros(np.broadcast(x0a, xfa).shape, dtype=np.complex128)
        amp = np.sqrt(inertia / (2j * np.pi * hbar * T))
        for w in range(-nw, nw + 1):
            arg = dphi + 2.0 * np.pi * w
            out = out + amp * np.exp(1j * inertia * arg * arg / (2.0 * hbar * T))
    elif kind is SystemKind.SQUARE_WELL:
        assert system.width is not None
        a = system.width
        nw = DEFAULT_IMAGE_TERMS if n_terms is None else int(n_terms)
        out = np.zeros(np.broadcast(x0a, xfa).shape, dtype=np.complex128)
        for w in range(-nw, nw + 1):
            shift = 2.0 * a * w
            out = out + _free_kernel(mass, hbar, xfa - x0a + shift, T)
            out = out - _free_kernel(mass, hbar, xfa + x0a + shift, T)
    else:  # harmonic oscillator, Mehler form with Morse phase
        assert system.omega is not None
        omega = system.omega
        s = regular_sin(omega * T)
        mu = maslov_index(omega * T)
        c = np.cos(omega * T)
        amp = np.sqrt(mass * omega / (2j * np.pi * hbar * np.abs(s)))
        phase = (
            mass * omega * ((x0a * x0a + xfa * xfa) * c - 2.0 * x0a * xfa) / (2.0 * hbar * s)
            - 0.5 * np.pi * mu
        )
        out = amp * np.exp(1j * phase)
    out = np.asarray(out, dtype=np.complex128)
    return complex(out) if scalar else out


def default_winding_terms(system: SystemSpec, p_max: float, T: float) -> int:
    """Image-sum truncation that covers all stationary windings up to ``p_max``.

    The w-th image term is stationary at momentum ``w * period * m / T``
    (period 2*pi in angle for the circle, 2a for the well); truncating eight
    windings beyond the last stationary one leaves only fast oscillation.
    """
    _check_travel_time(T)
    if system.kind is SystemKind.CIRCLE:
        period, m = 2.0 * np.pi, system.inertia
    elif system.kind is SystemKind.SQUARE_WELL:
        assert system.width is not None
        period, m = 2.0 * system.width, system.mass
    else:
        raise DomainError("winding truncation applies to the circle and square well only")
    return int(np.ceil(abs(p_max) * T / (period * m))) + 8


def characteristic_x0(
    system: SystemSpec, p_c: ArrayLike, xf: float, T: float
) -> NDArray[np.float64] | float:
    """Starting point whose classical path reaches ``xf`` in time ``T`` with label ``p_c``.

    For the flat systems this is the straight-line (extended-coordinate)
    origin ``xf - p_c*T/M``; for the circle, ``p_c`` is an angular momentum
    and the returned value is the unwound angular displacement ``L_c*T/I``
    (the extended angle travelled, not reduced mod 2*pi).  For the
    oscillator it inverts the turning-point relation along the branch fixed
    by ``sign(p_c)`` (with ``sign(0) = 0``); labels inside the classically
    excluded region ``|p_c| < M*omega*|xf|`` raise
    :class:`ExcludedRegionError`.
    """
    _check_travel_time(T)
    pa = np.asarray(p_c, dtype=float)
    scalar = pa.ndim == 0
    kind = system.kind
    if kind is SystemKind.CIRCLE:
        out = pa * T / system.inertia
    elif kind is SystemKind.HARMONIC_OSCILLATOR:
        assert system.omega is not None
        omega = system.omega
        s = regular_sin(omega * T)
        b = system.mass * omega * abs(xf)
        if np.any(np.abs(pa) < b):
            raise ExcludedRegionError(
                f"|p_c| < M*omega*|xf| = {b:.6g}: no real trajectory reaches xf"
            )
        c = np.cos(omega * T)
        root = np.sqrt((pa / (system.mass * omega)) ** 2 - xf * xf)
        out = xf * c - np.sign(pa) * s * root
    else:
        out = xf - pa * T / system.mass
    out = np.asarray(out, dtype=float)
    return float(out) if scalar else out


def ho_max_momentum(system: SystemSpec, x0: float, xf: float, T: float) -> float:
    """Peak momentum magnitude along the oscillator trajectory from x0 to xf.

    This is the label each trajectory contributes at: the classical motion
    through (x0, xf, T) has momentum envelope
    ``M*omega*sqrt(x0^2 + xf^2 - 2*x0*xf*cos(omega*T)) / |sin(omega*T)|``.
    """
    if system.kind is not SystemKind.HARMONIC_OSCILLATOR:
        raise DomainError("max-momentum label applies to the oscillator only")
    assert system.omega is not None
    omega = system.omega
    _check_travel_time(T)
    s = regular_sin(omega * T)
    c = math.cos(omega * T)
    return (
        system.mass
        * omega
        * math.sqrt(max(x0 * x0 + xf * xf - 2.0 * x0 * xf * c, 0.0))
        / abs(s)
    )

