"""The package's public surface: any change to it is a deliberate edit here."""

from __future__ import annotations

import pathspectra

PUBLIC = [
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


def test_public_api_is_pinned():
    assert pathspectra.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(pathspectra, name) is not None, name
