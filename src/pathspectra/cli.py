"""Command-line driver: figure presets, pipeline stages, flat-file config.

Every run writes CSV data files plus ``<command>.manifest.json``
recording the effective parameters, the output list, and the numerical checks
performed, so a run can be audited and reproduced from its manifest alone.
Values are printed with 17 significant digits and all reductions happen in a
fixed order, so identical configurations give byte-identical data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Mapping, Sequence, get_args, get_type_hints

import numpy as np

from . import __version__
from ._csvtext import csv_rows
from .compare import coherent_overlap, momentum_density, wigner_momentum_marginal
from .distribution import PathDistribution, _distributions, moments, spatial_average, stationary_grids, time_average
from .errors import (
    DivergentSampleError,
    DomainError,
    ExcludedRegionError,
    PathspectraError,
    SingularTimeError,
    UsageError,
)
from .phasor import _plane_terms, integrand, phasor_curve, segment_windows, window_average_series
from .quadrature import GridBundle, paper_grids, trapezoid, uniform_grid
from .reconstruct import _reconstructions, reconstruct
from .systems import SHAPE_CONSTANT, EigenstateSpec, SystemKind, SystemSpec, eigenfunction, window_halfwidth

log = logging.getLogger("pathspectra")

# Each runner gets ``write(name, header, columns)``, which queues one table for
# `_emit` once the runner returns: a refused run leaves no data file.
Writer = Callable[[str, Sequence[str], Sequence[np.ndarray]], None]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_SINGULAR = 4
EXIT_IO = 5


@dataclasses.dataclass
class RunConfig:
    """Flat bag of every knob a run can turn.

    Optional fields left at ``None`` mean "let the module pick its default".
    The manifest echoes the configuration as set (presets fill in the values
    they pin); the grids a run actually used are reported under ``checks``.
    """

    system: str = "harmonic_oscillator"
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    radius: float = 1.0
    width: float = math.pi
    quantum_number: float = 0.0
    T: float = 32.0 * math.pi
    x_f: float = 0.0
    delta_p_c: float | None = None
    p_c_lo: float | None = None
    p_c_hi: float | None = None
    p_c_max: float | None = None
    delta_x_f: float | None = None
    x_f_span: float | None = None
    delta_T: float | None = None
    n_p_floor: float | None = None
    n_p_slope: float | None = None
    band_lo: float | None = None
    band_hi: float | None = None
    segment_offset: float | None = None
    out: str = "."


# field -> (value type, whether None is allowed), read off the annotations
# (``float | None`` gives ``(float, NoneType)``)
_FIELD_KINDS = {
    name: ((get_args(hint) or (hint,))[0], type(None) in get_args(hint))
    for name, hint in get_type_hints(RunConfig).items()
}
_SYSTEMS = tuple(kind.value for kind in SystemKind)


def config_from_mapping(mapping: Mapping[str, object]) -> RunConfig:
    """Build a RunConfig from flat key/value pairs, rejecting unknown keys."""
    cfg = RunConfig()
    for key, raw in mapping.items():
        if key not in _FIELD_KINDS:
            raise UsageError(f"unknown configuration key {key!r}")
        kind, optional = _FIELD_KINDS[key]
        if kind is str:
            setattr(cfg, key, str(raw))
            continue
        if raw is None or str(raw).strip().lower() in ("", "none"):
            if not optional:
                raise UsageError(f"configuration key {key!r} needs a value")
            setattr(cfg, key, None)
            continue
        try:
            value = kind(str(raw))
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {raw!r}") from exc
        if not math.isfinite(value):
            raise UsageError(f"{key!r} must be finite, got {raw!r}")
        setattr(cfg, key, value)
    if cfg.system not in _SYSTEMS:
        raise UsageError(f"system must be one of {', '.join(_SYSTEMS)}")
    return cfg


def parse_config_file(path: Path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment; blank lines ignored."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def build_system(cfg: RunConfig) -> SystemSpec:
    """The configured system, carrying the one shape constant its kind takes."""
    kind = SystemKind(cfg.system)
    shape = SHAPE_CONSTANT.get(kind)
    constants = {shape: getattr(cfg, shape)} if shape else {}
    return SystemSpec(kind, hbar=cfg.hbar, mass=cfg.mass, **constants)


def build_state(cfg: RunConfig) -> EigenstateSpec:
    return EigenstateSpec(build_system(cfg), cfg.quantum_number)


# ---------------------------------------------------------------------------
# output plumbing

# CSV rows formatted per call of `_csvtext.csv_rows`: about 1 MB of its
# temporaries at three columns
_CSV_CHUNK_ROWS = 1 << 11


def _emit(out_dir: Path, name: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """Write one data table as ``<name>.csv``; return the filename.

    A complex column fills two header slots: its real part, then its
    imaginary part.  Values are ``'%.17g' % v``, byte for byte: 17
    significant digits, which read back as the same float64.  Rows are
    rendered ``_CSV_CHUNK_ROWS`` at a time by :func:`_csvtext.csv_rows`,
    so the text of a whole table is never held at once.
    """
    parts: list[np.ndarray] = []
    for column in map(np.asarray, columns):
        parts += [column.real, column.imag] if np.iscomplexobj(column) else [column.astype(float)]
    filename = f"{name}.csv"
    with open(out_dir / filename, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(parts[0]), _CSV_CHUNK_ROWS):
            handle.write(csv_rows(np.column_stack([part[start : start + _CSV_CHUNK_ROWS] for part in parts])))
    log.debug("wrote %s (%d rows)", filename, len(parts[0]))
    return filename


# the keys a system's state reads; its kind's SHAPE_CONSTANT entry joins them
_STATE_KEYS = ("system", "hbar", "mass", "quantum_number")
# the keys each grid recipe reads: paper_grids' overrides, then stationary_grids'
_PAPER_GRID_KEYS = ("delta_p_c", "delta_x_f", "x_f_span", "p_c_max", "delta_T", "n_p_floor", "n_p_slope")
_STATIONARY_GRID_KEYS = ("delta_p_c", "p_c_lo", "p_c_hi", "x_f_span", "delta_x_f")


def _bundle_for(state: EigenstateSpec, cfg: RunConfig) -> GridBundle:
    """Grid bundle from config, unset knobs left to the module defaults."""
    if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
        overrides = {key: getattr(cfg, key) for key in _PAPER_GRID_KEYS if getattr(cfg, key) is not None}
        return paper_grids(state, cfg.T, **overrides)
    span = None if cfg.p_c_lo is None else (cfg.p_c_lo, cfg.p_c_hi)
    return stationary_grids(
        state,
        cfg.T,
        delta_p_c=cfg.delta_p_c,
        p_c_span=span,
        x_window=cfg.x_f_span,
        delta_x_f=cfg.delta_x_f,
    )


def _grid_report(state: EigenstateSpec, bundle: GridBundle, *, one_time: bool = False) -> dict[str, float]:
    """The grid sizes a computation actually ran on, for the manifest (inner v-grid: oscillator only).

    ``one_time`` marks a computation at the one time T, not at the bundle's T' samples;
    a one-time stationary one (fig2, a window, a distribution) reads no x_f grid."""
    report = {
        "n_time": 1 if one_time else len(bundle.T_samples),
        "x_f_nodes": int(bundle.x_f_grid.size),
        "p_c_nodes": int(bundle.p_c_grid.size),
    }
    if state.system.kind is SystemKind.HARMONIC_OSCILLATOR:
        report.update(n_p_floor=bundle.n_p_floor, n_p_slope=bundle.n_p_slope)
    elif one_time:
        del report["x_f_nodes"]
    return report


def _curve_grid(state: EigenstateSpec, cfg: RunConfig) -> np.ndarray:
    """Raw-integrand grid for the phasor stage/figures.

    Defaults to the 100-samples-per-window spacing, 50 windows past the
    stationary points of ``_plane_terms``; oscillator spans are symmetric about 0.
    """
    system = state.system
    h = window_halfwidth(system, cfg.T)
    step = cfg.delta_p_c if cfg.delta_p_c is not None else h / 100.0
    if cfg.p_c_lo is not None:
        return uniform_grid(cfg.p_c_lo, cfg.p_c_hi, step)
    if system.kind is SystemKind.HARMONIC_OSCILLATOR:
        p_max = max(
            3.0 * math.sqrt(2.0 * system.mass * state.energy),
            system.mass * system.omega * abs(cfg.x_f) + 10.0 * h,
        )
        return uniform_grid(-p_max, p_max, step)
    centers = [center for _, center in _plane_terms(state, 0.0, cfg.T)]
    return uniform_grid(min(centers) - 50.0 * h, max(centers) + 50.0 * h, step)


def _marginal_table(write: Writer, name: str, n: int, system: SystemSpec, delta_p: float | None) -> float:
    """Write the Wigner momentum marginal of level ``n`` as ``name``; return its
    largest deviation from the closed-form momentum density.  The momentum grid
    is in oscillator units, which are exactly 1 for the presets' unit oscillator."""
    reach = 5.0 * math.sqrt(2.0 * n + 1.0) + 1.0
    scale_p = math.sqrt(system.hbar * system.mass * system.omega)
    p_step = (delta_p if delta_p is not None else 0.01) * scale_p
    p_grid = uniform_grid(-reach * scale_p, reach * scale_p, p_step)
    log.info("%s: Wigner momentum marginal n=%d (%d momenta)", name, n, p_grid.size)
    marginal = wigner_momentum_marginal(n, p_grid, system)
    write(name, ("p", "value"), (p_grid, marginal))
    exact = np.asarray(momentum_density(n, p_grid, system))
    return float(np.max(np.abs(marginal - exact)))


def _overlap_table(write: Writer, name: str, n: int) -> float:
    """Write |<alpha|n>|^2 for real alpha in [0, 3] as ``name``; return the
    alpha of the largest overlap."""
    alpha = uniform_grid(0.0, 3.0, 0.002)
    overlap = coherent_overlap(n, alpha)
    write(name, ("alpha", "value"), (alpha, overlap))
    return float(alpha[int(np.argmax(overlap))])


# ---------------------------------------------------------------------------
# figure presets

def _fig1(cfg: RunConfig, write: Writer) -> dict:
    checks = _stage_phasor(cfg, write, name="fig1_curve")
    offset = window_halfwidth(build_system(cfg), cfg.T) if cfg.segment_offset is None else cfg.segment_offset
    centers, windows = segment_windows(build_state(cfg), cfg.x_f, cfg.T, offset, cfg.p_c_lo, cfg.p_c_hi)
    write("fig1_segments", ("p_c", "re", "im"), (centers, windows))
    seg_sum = complex(np.sum(windows))
    checks.update(segment_offset=offset, segment_sum_re=seg_sum.real, segment_sum_im=seg_sum.imag)
    return checks


def _fig2(cfg: RunConfig, write: Writer) -> dict:
    state = build_state(cfg)
    bundle = _bundle_for(state, cfg)
    grid = bundle.p_c_grid
    log.info("fig2: integrand and window series, %d samples", grid.size)
    write("fig2_integrand", ("p_c", "re", "im"), (grid, integrand(state, grid, cfg.x_f, cfg.T)))
    averaged = window_average_series(state, grid, cfg.x_f, cfg.T, bundle)
    write("fig2_window", ("p_c", "re", "im"), (grid, averaged))
    window_integral = trapezoid(grid, averaged)
    return {
        "window_series_integral_re": window_integral.real,
        "window_series_integral_im": window_integral.imag,
        "grids": _grid_report(state, bundle, one_time=True),
    }


def _fig7(cfg: RunConfig, write: Writer) -> dict:
    checks: dict[str, object] = {}
    states = [EigenstateSpec(build_system(cfg), n) for n in range(4)]
    bundles = [_bundle_for(state, cfg) for state in states]
    log.info("fig7: time-averaged distributions n=0..3")
    dists = _distributions(list(zip(states, bundles)), cfg.T, time_averaged=True)
    for n, (state, bundle, dist) in enumerate(zip(states, bundles, dists)):
        write(f"fig7_n{n}", ("p_c", "re", "im"), (dist.p_c_grid, dist.values))
        checks[f"n{n}_moments"] = moments(dist)
        checks[f"n{n}_expected_peak"] = math.sqrt(2.0 * n + 1.0)
        checks[f"n{n}_grids"] = _grid_report(state, bundle)
    return checks


def _fig8(cfg: RunConfig, write: Writer) -> dict:
    checks: dict[str, object] = {}
    requests = []
    for n in (0, 3):
        state = EigenstateSpec(build_system(cfg), n)
        b_n = math.sqrt(2.0 * state.system.mass * state.energy)
        bands = [(0.0, 10.0), (max(b_n - 1.0, 0.0), b_n + 1.0), (b_n - 0.2, b_n + 0.2)]
        requests.append((state, bands, _bundle_for(state, cfg)))
    log.info("fig8: bands (0, 10), b_n +- 1 and b_n +- 0.2 for n=0 and n=3")
    for (state, _, bundle), recs in zip(requests, _reconstructions(requests, cfg.T)):
        n = int(state.quantum_number)
        checks[f"n{n}_grids"] = _grid_report(state, bundle)
        psi = np.asarray(eigenfunction(state, bundle.x_f_grid), dtype=np.complex128)
        for i, rec in enumerate(recs):
            key = f"n{n}_band{i}"
            write(f"fig8_{key}", ("x_f", "re", "im"), (rec.x_f_grid, rec.values))
            checks[key + "_edges"] = list(rec.band)
            checks[key + "_max_abs_dev_from_psi"] = float(np.max(np.abs(rec.values - psi)))
            if i == 2:
                turning = math.sqrt(2.0 * state.energy / (state.system.mass * state.system.omega**2))
                outside = np.abs(bundle.x_f_grid) > turning
                checks[key + "_outside_turning_max"] = float(
                    np.max(np.abs(rec.values[outside])) if np.any(outside) else 0.0
                )
    return checks


def _fig9(cfg: RunConfig, write: Writer) -> dict:
    system = build_system(cfg)
    return {
        f"n{n}_max_abs_dev_from_closed_form": _marginal_table(write, f"fig9_n{n}", n, system, cfg.delta_p_c)
        for n in range(4)
    }


def _fig10(cfg: RunConfig, write: Writer) -> dict:
    checks: dict[str, object] = {}
    for n in range(4):
        checks[f"n{n}_argmax_alpha"] = _overlap_table(write, f"fig10_n{n}", n)
        checks[f"n{n}_expected_argmax"] = math.sqrt(n)
    checks["completeness_sum_alpha_1.5_n40"] = float(np.sum([coherent_overlap(m, 1.5) for m in range(41)]))
    return checks


# ---------------------------------------------------------------------------
# generic stages


def _stage_phasor(cfg: RunConfig, write: Writer, *, name: str = "phasor") -> dict:
    state = build_state(cfg)
    grid = _curve_grid(state, cfg)
    log.info("%s: %s curve, %d samples", name, cfg.system, grid.size)
    curve = phasor_curve(state, cfg.x_f, cfg.T, grid)
    write(name, ("p_c", "re", "im"), (grid, curve.cumulative))
    target = complex(eigenfunction(state, cfg.x_f))
    return {
        "endpoint_re": curve.endpoint.real,
        "endpoint_im": curve.endpoint.imag,
        "eigenfunction_re": target.real,
        "eigenfunction_im": target.imag,
        "endpoint_abs_error": abs(curve.endpoint - target),
    }


def _stage_window(cfg: RunConfig, write: Writer) -> dict:
    state = build_state(cfg)
    bundle = _bundle_for(state, cfg)
    grid = bundle.p_c_grid
    log.info("window: %s series, %d windows", cfg.system, grid.size)
    series = window_average_series(state, grid, cfg.x_f, cfg.T, bundle)
    write("window", ("p_c", "re", "im"), (grid, series))
    target = complex(eigenfunction(state, cfg.x_f))
    total = trapezoid(grid, series)
    return {
        "series_integral_re": total.real,
        "series_integral_im": total.imag,
        "eigenfunction_re": target.real,
        "eigenfunction_im": target.imag,
        "grids": _grid_report(state, bundle, one_time=True),
    }


def _stage_distribution(
    cfg: RunConfig, write: Writer, *, average: Callable[..., PathDistribution], name: str
) -> dict:
    """One P(p_c) stage: ``average`` (spatial or period) written to ``<name>``."""
    state = build_state(cfg)
    bundle = _bundle_for(state, cfg)
    log.info("%s: %s at T=%g", name, cfg.system, cfg.T)
    dist = average(state, cfg.T, bundle)
    write(name, ("p_c", "re", "im"), (dist.p_c_grid, dist.values))
    checks: dict[str, object] = {
        "normalization_N": dist.normalization_N,
        "grids": _grid_report(state, bundle, one_time=not dist.time_averaged),
    }
    try:
        checks["moments"] = moments(dist)
    except PathspectraError as exc:  # moments can be legitimately undefined
        checks["moments_error"] = str(exc)
    return checks


def _stage_reconstruct(cfg: RunConfig, write: Writer) -> dict:
    state = build_state(cfg)
    bundle = _bundle_for(state, cfg)
    band = None if cfg.band_hi is None else (cfg.band_lo or 0.0, cfg.band_hi)
    log.info("reconstruct: %s band=%s", cfg.system, band if band else "full")
    rec = reconstruct(state, band, cfg.T, bundle)
    write("reconstruct", ("x_f", "re", "im"), (rec.x_f_grid, rec.values))
    psi = np.asarray(eigenfunction(state, rec.x_f_grid), dtype=np.complex128)
    return {
        "band": list(band) if band else "full",
        "max_abs_dev_from_psi": float(np.max(np.abs(rec.values - psi))),
        "grids": _grid_report(state, bundle),
    }


def _stage_compare(cfg: RunConfig, write: Writer) -> dict:
    if cfg.system != "harmonic_oscillator":
        raise DomainError("the compare stage is defined for the oscillator")
    n = int(build_state(cfg).quantum_number)
    return {
        "marginal_max_abs_dev": _marginal_table(write, "compare_marginal", n, build_system(cfg), cfg.delta_p_c),
        "overlap_argmax_alpha": _overlap_table(write, "compare_overlap", n),
    }


# The command table: each command's runner, the RunConfig keys it reads (plus
# out) and the values it pins.  In the keys, "state" stands for
# `_STATE_KEYS` and the system kind's shape constant, "grids" for the keys of
# the kind's grid recipe, and "window grids" for those that a computation at
# the one time T reads: no T' sampling, and for a stationary system no x_f
# grid (an oscillator bundle's x_f grid is averaged over and sizes its default
# p_c grid; a stationary window prices one x_f and a stationary distribution
# is closed-form over x_f).  A pin fills its key unless the configuration sets
# it, and a pinned key the command does not read is refused like any other.
_FREE_LINE_PINS = dict(system="free_line", hbar=1.0, mass=1.0, quantum_number=1.0, T=1.0e4, x_f=0.0)
_FREE_LINE_PINS.update(delta_p_c=1e-4, p_c_lo=0.5, p_c_hi=1.5)  # fig1 and fig2 read these three
_UNIT_OSCILLATOR_PINS = dict(system="harmonic_oscillator", hbar=1.0, mass=1.0, omega=1.0)
_P_C_KEYS = ("delta_p_c", "p_c_lo", "p_c_hi")
_AVERAGE_KEYS = ("state", "T", "grids")

_COMMANDS = {
    "fig1": (_fig1, (*_P_C_KEYS, "segment_offset"), _FREE_LINE_PINS),
    "fig2": (_fig2, _P_C_KEYS, _FREE_LINE_PINS),  # its bundle's x_f grid goes unused
    "fig7": (_fig7, ("T", "grids"), _UNIT_OSCILLATOR_PINS),
    "fig8": (_fig8, ("T", "grids"), _UNIT_OSCILLATOR_PINS),
    "fig9": (_fig9, ("delta_p_c",), _UNIT_OSCILLATOR_PINS),
    "fig10": (_fig10, (), _UNIT_OSCILLATOR_PINS),
    "phasor": (_stage_phasor, ("state", "T", "x_f", *_P_C_KEYS), {}),
    "window": (_stage_window, ("state", "T", "x_f", "window grids"), {}),
    "distribution": (
        partial(_stage_distribution, average=spatial_average, name="distribution"), ("state", "T", "window grids"), {}
    ),
    "time-average": (partial(_stage_distribution, average=time_average, name="time-average"), _AVERAGE_KEYS, {}),
    "reconstruct": (_stage_reconstruct, (*_AVERAGE_KEYS, "band_lo", "band_hi"), {}),
    "compare": (_stage_compare, ("state", "delta_p_c"), {}),
}


def _run_command(command: str, cfg: RunConfig, given: Collection[str]) -> list[str]:
    """Run ``command`` on ``cfg``; ``given`` names the keys the configuration set."""
    runner, reads, pins = _COMMANDS[command]
    kind = SystemKind(pins.get("system", cfg.system))
    oscillator = kind is SystemKind.HARMONIC_OSCILLATOR
    recipe = _PAPER_GRID_KEYS if oscillator else _STATIONARY_GRID_KEYS
    spelled = {
        "state": (*_STATE_KEYS, *[key for shaped, key in SHAPE_CONSTANT.items() if shaped is kind]),
        "grids": recipe,
        # delta_T alone sets paper_grids' T' samples
        "window grids": tuple(key for key in recipe if key != "delta_T") if oscillator else _P_C_KEYS,
    }
    unread = set(given) - {key for item in reads for key in spelled.get(item, (item,))} - {"out"}
    if unread:
        raise UsageError(f"{command} ({kind.value}) does not read {', '.join(sorted(unread))}")
    cfg = dataclasses.replace(cfg, **{key: value for key, value in pins.items() if key not in given})
    # a key whose partner is unset would be silently ignored
    if (cfg.p_c_lo is None) != (cfg.p_c_hi is None):
        raise UsageError("p_c_lo and p_c_hi set the momentum span together: set both or neither")
    if cfg.band_lo is not None and cfg.band_hi is None:
        raise UsageError("band_lo needs band_hi: without it the full band runs")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    tables: list[tuple[str, Sequence[str], Sequence[np.ndarray]]] = []
    checks = runner(cfg, lambda *table: tables.append(table))
    outputs = [_emit(out_dir, *table) for table in tables]
    manifest = {
        "command": command,
        "version": __version__,
        "effective_config": dataclasses.asdict(cfg),
        "outputs": outputs,
        "checks": checks,
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    manifest_name = f"{command}.manifest.json"
    (out_dir / manifest_name).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log.info("%s: wrote %d data file(s) + %s", command, len(outputs), manifest_name)
    return outputs + [manifest_name]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathspectra",
        description="Path distributions over characteristic momentum for five 1-D systems.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS), help="figure preset or pipeline stage")
    parser.add_argument("--config", type=Path, help="flat key = value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    parser.add_argument("--out", help="output directory (default: current)")
    # accepted and ignored: perfbench's harness passes --threads to every run
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    parser.add_argument("-v", "--verbose", action="store_true", help="chatty progress output")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        mapping: dict[str, object] = {}
        if args.config is not None:
            mapping.update(parse_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            mapping[key.strip()] = value.strip()
        if args.out is not None:
            mapping["out"] = args.out
        cfg = config_from_mapping(mapping)
        _run_command(args.command, cfg, mapping.keys())
    except UsageError as exc:
        log.error("usage error: %s", exc)
        return EXIT_USAGE
    except (SingularTimeError, DivergentSampleError, ExcludedRegionError) as exc:
        log.error("singularity: %s", exc)
        return EXIT_SINGULAR
    except PathspectraError as exc:
        log.error("domain error: %s", exc)
        return EXIT_DOMAIN
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
