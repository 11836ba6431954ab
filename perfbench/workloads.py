"""The benchmark's workloads: CLI commands, their grids, seeds and checks.

Each workload is a list of operations; one operation is one
``pathspectra.cli.main`` call.  Every operation also knows its *fine twin*,
which the stored references are built from and which sets each tolerance
(see ``checks.py``).  The twin halves the spacing of the quadratures the
operation performs inside: the oscillator's inner v-grid (``n_p_floor``,
``n_p_slope``) and the p_c lattice (moments, band integrals, phasor
curves).  It keeps the T' samples and x_f nodes that the averages are taken
over.  At reduced grids the period and x_f averages are far from converged
(from delta_T = pi/2, delta_x_f = 0.2, halving them moves fig7 by up to 46 %
and 3 % of its peak), so a tolerance sized by them would accept almost any
output; halving the inner grid moves fig7 by 3e-7 of its peak.

The seed only picks the travel time ``T``: one of ``N_T_CHOICES`` evenly
spaced values ``32*pi + u`` with ``|u| <= delta_T/8``.  Singular times sit at
multiples of pi, which is a whole number of ``delta_T``, so no time sample
``T + (j + 1/2)*delta_T`` comes within ``3*delta_T/8`` of one.  The same
``T`` is used for the stationary systems, whose node count over a pinned
momentum span grows only with ``sqrt(T)`` (0.2 % across the band).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

N_T_CHOICES = 6
T_BASE = 32.0 * math.pi


@dataclass(frozen=True)
class Grids:
    """Grid steps of the benchmark's operations and of their fine twins."""

    delta_T: float
    delta_x_f: float
    delta_p_c: float
    n_p_floor: float
    n_p_slope: float | None  # None: the paper_grids default 150/sqrt(2n+1)
    stationary_span: float  # half-width of the pinned p_c span of the stationary systems
    fig_delta_p_c: float  # fig1/fig2 momentum step
    fig9_delta_p_c: float


FULL = Grids(
    delta_T=math.pi / 2.0,
    delta_x_f=0.4,
    delta_p_c=0.02,
    n_p_floor=50.0,
    n_p_slope=None,
    stationary_span=30.0,
    fig_delta_p_c=1e-4,
    fig9_delta_p_c=0.04,
)

# tiny grids for the benchmark's own tests; far from converged on purpose
SMOKE = Grids(
    delta_T=math.pi,
    delta_x_f=1.0,
    delta_p_c=0.1,
    n_p_floor=5.0,
    n_p_slope=5.0,
    stationary_span=5.0,
    fig_delta_p_c=1e-3,
    fig9_delta_p_c=0.5,
)


def t_choice(k: int, grids: Grids) -> float:
    return T_BASE + 0.125 * grids.delta_T * (2.0 * k / (N_T_CHOICES - 1) - 1.0)


def travel_time(seed: int, grids: Grids) -> tuple[int, float]:
    """Index into the T choices, and T itself, for a seed."""
    k = random.Random(seed).randrange(N_T_CHOICES)
    return k, t_choice(k, grids)


def _set(**pairs: object) -> list[str]:
    argv: list[str] = []
    for key, value in pairs.items():
        text = repr(value) if isinstance(value, float) else str(value)
        argv += ["--set", f"{key}={text}"]
    return argv


@dataclass(frozen=True)
class FineRun:
    """One CLI call of an operation's fine twin."""

    argv: list[str]
    files: dict[str, str]  # file it writes -> coarse file it stands for
    scalars: Callable[[dict], dict[str, float]]  # its manifest checks -> scalar values


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    scalars: Callable[[dict], dict[str, float]]  # manifest checks -> named scalars
    targets: dict[str, float]  # physical value each scalar should approach
    fixed_tol: dict[str, float]  # scalars held to a fixed tolerance instead
    fine: Callable[[dict], list[FineRun]]  # coarse data tables -> fine twin


def _fine_oscillator(n: int, T: float, grids: Grids) -> list[str]:
    slope = grids.n_p_slope if grids.n_p_slope is not None else 150.0 / math.sqrt(2.0 * n + 1.0)
    return _set(
        quantum_number=n,
        T=T,
        delta_T=grids.delta_T,
        delta_x_f=grids.delta_x_f,
        delta_p_c=grids.delta_p_c / 2.0,
        n_p_floor=2.0 * grids.n_p_floor,
        n_p_slope=2.0 * slope,
    )


def _coarse_oscillator(T: float, grids: Grids) -> list[str]:
    # the inner-grid knobs stay at the CLI defaults (never named) in full runs
    pairs: dict[str, object] = dict(
        T=T, delta_T=grids.delta_T, delta_x_f=grids.delta_x_f, delta_p_c=grids.delta_p_c
    )
    if grids.n_p_slope is not None:
        pairs.update(n_p_floor=grids.n_p_floor, n_p_slope=grids.n_p_slope)
    return _set(**pairs)


def _fig7(T: float, grids: Grids) -> Op:
    def scalars(checks: dict) -> dict[str, float]:
        out = {}
        for n in range(4):
            mom = checks[f"n{n}_moments"]
            out.update(
                {
                    f"n{n}.norm": mom["norm"],
                    f"n{n}.im_ratio": mom["max_im_ratio"],
                    f"n{n}.peak": abs(mom["peak_location"]),  # P is even in p_c
                }
            )
        return out

    def fine(tables: dict) -> list[FineRun]:
        runs = []
        for n in range(4):
            p_c_max = float(tables[f"fig7_n{n}.csv"][-1, 0])
            argv = ["time-average"] + _fine_oscillator(n, T, grids) + _set(p_c_max=p_c_max)

            def moments(checks: dict, n: int = n) -> dict[str, float]:
                mom = checks["moments"]
                return {
                    f"n{n}.norm": mom["norm"],
                    f"n{n}.im_ratio": mom["max_im_ratio"],
                    f"n{n}.peak": abs(mom["peak_location"]),
                }

            runs.append(FineRun(argv, {"time-average.csv": f"fig7_n{n}.csv"}, moments))
        return runs

    targets = {}
    for n in range(4):
        targets.update({f"n{n}.norm": 1.0, f"n{n}.im_ratio": 0.0, f"n{n}.peak": math.sqrt(2 * n + 1)})
    return Op("fig7", ["fig7"] + _coarse_oscillator(T, grids), scalars, targets, {}, fine)


def _fig8_bands(n: int) -> list[tuple[float, float]]:
    # the same arithmetic as the preset, so the edges agree bit for bit
    b_n = math.sqrt(2.0 * 1.0 * (1.0 * 1.0 * (n + 0.5)))
    return [(0.0, 10.0), (max(b_n - 1.0, 0.0), b_n + 1.0), (b_n - 0.2, b_n + 0.2)]


def _fig8(T: float, grids: Grids) -> Op:
    def scalars(checks: dict) -> dict[str, float]:
        return {f"n{n}.band0_dev": checks[f"n{n}_band0_max_abs_dev_from_psi"] for n in (0, 3)}

    def fine(tables: dict) -> list[FineRun]:
        runs = []
        for n in (0, 3):
            for i, (lo, hi) in enumerate(_fig8_bands(n)):
                argv = ["reconstruct"] + _fine_oscillator(n, T, grids) + _set(band_lo=lo, band_hi=hi)

                def dev(checks: dict, n: int = n, i: int = i) -> dict[str, float]:
                    return {f"n{n}.band{i}_dev": checks["max_abs_dev_from_psi"]} if i == 0 else {}

                runs.append(FineRun(argv, {"reconstruct.csv": f"fig8_n{n}_band{i}.csv"}, dev))
        return runs

    targets = {"n0.band0_dev": 0.0, "n3.band0_dev": 0.0}
    return Op("fig8", ["fig8"] + _coarse_oscillator(T, grids), scalars, targets, {}, fine)


def _distribution(system: str, q: float, center: float, T: float, grids: Grids) -> Op:
    """A stationary-system distribution over a pinned p_c span."""
    span = grids.stationary_span
    lo, hi = center - span, center + span
    pairs = dict(system=system, quantum_number=q, T=T, p_c_lo=lo, p_c_hi=hi)
    # the stationary_grids default step h/10 (hbar = mass = radius = 1), pinned
    step = math.sqrt(1.0 / T) / 10.0

    def scalars(checks: dict) -> dict[str, float]:
        mom = checks["moments"]
        return {"norm": mom["norm"], "peak": abs(mom["peak_location"])}

    def fine(tables: dict) -> list[FineRun]:
        rows = tables["distribution.csv"].shape[0]
        fine_step = (hi - lo) / (2.0 * (rows - 1))  # nests the coarse nodes
        argv = ["distribution"] + _set(**pairs, delta_p_c=fine_step)
        return [FineRun(argv, {"distribution.csv": "distribution.csv"}, scalars)]

    coarse = ["distribution"] + _set(**pairs, delta_p_c=step)
    return Op(f"distribution_{system}", coarse, scalars, {"norm": 1.0, "peak": abs(q)}, {}, fine)


def _fig12(preset: str, grids: Grids) -> Op:
    coarse = [preset] + _set(delta_p_c=grids.fig_delta_p_c)
    if preset == "fig1":
        files = ("fig1_curve.csv", "fig1_segments.csv")

        def scalars(checks: dict) -> dict[str, float]:
            return {"endpoint_err": checks["endpoint_abs_error"]}

        targets = {"endpoint_err": 0.0}
    else:
        files = ("fig2_integrand.csv", "fig2_window.csv")

        def scalars(checks: dict) -> dict[str, float]:
            return {
                "integral_re": checks["window_series_integral_re"],
                "integral_im": checks["window_series_integral_im"],
            }

        targets = {"integral_re": 1.0, "integral_im": 0.0}

    def fine(tables: dict) -> list[FineRun]:
        argv = [preset] + _set(delta_p_c=grids.fig_delta_p_c / 2.0)
        return [FineRun(argv, {f: f for f in files}, scalars)]

    return Op(preset, coarse, scalars, targets, {}, fine)


def _fig9(grids: Grids) -> Op:
    def scalars(checks: dict) -> dict[str, float]:
        return {f"n{n}.marginal_dev": checks[f"n{n}_max_abs_dev_from_closed_form"] for n in range(4)}

    def fine(tables: dict) -> list[FineRun]:
        # delta_p_c only spaces the output momenta; the x-grid has no knob
        files = {f"fig9_n{n}.csv": f"fig9_n{n}.csv" for n in range(4)}
        return [FineRun(["fig9"] + _set(delta_p_c=grids.fig9_delta_p_c), files, scalars)]

    names = [f"n{n}.marginal_dev" for n in range(4)]
    return Op(
        "fig9",
        ["fig9"] + _set(delta_p_c=grids.fig9_delta_p_c),
        scalars,
        {k: 0.0 for k in names},
        {k: 1e-8 for k in names},
        fine,
    )


def _fig10() -> Op:
    def scalars(checks: dict) -> dict[str, float]:
        return {f"n{n}.argmax": checks[f"n{n}_argmax_alpha"] for n in range(4)}

    def fine(tables: dict) -> list[FineRun]:
        files = {f"fig10_n{n}.csv": f"fig10_n{n}.csv" for n in range(4)}
        return [FineRun(["fig10"], files, scalars)]  # no grid knob: alpha step is fixed

    names = [f"n{n}.argmax" for n in range(4)]
    return Op(
        "fig10",
        ["fig10"],
        scalars,
        {f"n{n}.argmax": math.sqrt(n) for n in range(4)},
        {k: 0.002 for k in names},  # one alpha grid step
        fine,
    )


WORKLOADS = ("ho_time_average", "ho_bands", "closed_form")


def operations(workload: str, T: float, grids: Grids = FULL) -> list[Op]:
    if workload == "ho_time_average":
        return [_fig7(T, grids)]
    if workload == "ho_bands":
        return [_fig8(T, grids)]
    if workload == "closed_form":
        return [
            _distribution("hard_wall", 2.0, 0.0, T, grids),
            _distribution("square_well", 3.0, 0.0, T, grids),
            _distribution("free_line", 1.0, 1.0, T, grids),
            _distribution("circle", 2.0, 2.0, T, grids),
            _fig12("fig1", grids),
            _fig12("fig2", grids),
            _fig9(grids),
            _fig10(),
        ]
    raise ValueError(f"unknown workload {workload!r}")
