"""pathspectra: which paths build a quantum eigenstate, and by how much.

The package decomposes eigenstates of five standard one-dimensional systems
into contributions labelled by characteristic momentum, producing path
distributions, band-limited reconstructions, and the momentum-space and
coherent-state references they are compared against.  Start with
:func:`spatial_average` / :func:`time_average` for distributions, or the
``pathspectra`` command line for the canned figure datasets.
"""

from __future__ import annotations

from .compare import (
    TailMassWarning,
    coherent_overlap,
    momentum_density,
    wigner_momentum_marginal,
)
from .distribution import (
    PathDistribution,
    moments,
    spatial_average,
    stationary_grids,
    time_average,
)
from .errors import (
    DegenerateDistributionError,
    DivergentSampleError,
    DomainError,
    ExcludedRegionError,
    PathspectraError,
    SingularTimeError,
    UsageError,
)
from .phasor import (
    PhasorCurve,
    integrand,
    phasor_curve,
    segment_sum_check,
    segment_windows,
    window_average,
    window_average_series,
)
from .quadrature import GridBundle, paper_grids, singular_window_integral, uniform_grid
from .reconstruct import ReconstructionResult, reconstruct
from .systems import (
    EigenstateSpec,
    SystemKind,
    SystemSpec,
    characteristic_x0,
    circle,
    default_winding_terms,
    eigen_energy,
    eigenfunction,
    free_line,
    hard_wall,
    harmonic_oscillator,
    ho_max_momentum,
    maslov_index,
    propagator,
    square_well,
    window_halfwidth,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # systems
    "SystemKind",
    "SystemSpec",
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
    "characteristic_x0",
    "default_winding_terms",
    "ho_max_momentum",
    "window_halfwidth",
    # quadrature
    "GridBundle",
    "paper_grids",
    "uniform_grid",
    "singular_window_integral",
    # phasor
    "PhasorCurve",
    "integrand",
    "phasor_curve",
    "window_average",
    "window_average_series",
    "segment_windows",
    "segment_sum_check",
    # distribution
    "PathDistribution",
    "stationary_grids",
    "spatial_average",
    "time_average",
    "moments",
    # reconstruct
    "ReconstructionResult",
    "reconstruct",
    # compare
    "TailMassWarning",
    "wigner_momentum_marginal",
    "momentum_density",
    "coherent_overlap",
    # errors
    "PathspectraError",
    "DomainError",
    "SingularTimeError",
    "DivergentSampleError",
    "ExcludedRegionError",
    "DegenerateDistributionError",
    "UsageError",
]
