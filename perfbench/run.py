"""pathspectra benchmark: one workload, one fresh process, closed loop, one client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each operation is one in-process ``pathspectra.cli.main`` call with
``--threads 2``; the loop runs whole passes over the workload's operations
until the next pass would overrun ``--seconds``.  Every operation is checked
(exit code, manifest checks, data files against ``perfbench/reference``);
a miss counts it as failed.

``--trace 0`` prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb).  ``--trace 1`` prints the per-layer metrics instead, from
cycles of three passes: untraced at 1 thread, traced at 1 thread (self
times, counts) and traced at 2 threads (pool utilisation).  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import harness
import tracer
import workloads

THREADS = 2
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "distribution.self_s": "s",
    "distribution.pool_util": "ratio",
    "distribution.stack_bytes": "bytes",
    "reconstruct.self_s": "s",
    "reconstruct.columns": "count",
    "phasor.self_s": "s",
    "phasor.series_calls": "count",
    "phasor.windows": "count",
    "phasor.factor_s": "s",
    "phasor.factor_samples": "count",
    "phasor.samples_per_window": "ratio",
    "phasor.window_average_s": "s",
    "specfun.self_s": "s",
    "specfun.ho_eigenfunction_s": "s",
    "specfun.ho_eigenfunction_samples": "count",
    "specfun.gaussian_phase_integral_s": "s",
    "specfun.gaussian_phase_integral_samples": "count",
    "specfun.laguerre_s": "s",
    "quadrature.self_s": "s",
    "quadrature.trapezoid_s": "s",
    "quadrature.trapezoid_cells": "count",
    "quadrature.cumulative_trapezoid_s": "s",
    "quadrature.cumulative_cells": "count",
    "quadrature.grids_s": "s",
    "compare.self_s": "s",
    "compare.marginal_calls": "count",
    "systems.self_s": "s",
    "systems.eigenfunction_s": "s",
    "trace.wall_t1_s": "s",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
}

# counts that must repeat exactly across passes, thread counts and runs
EXACT_COUNTS = (
    "cli.bytes_written",
    "distribution.stack_bytes",
    "reconstruct.columns",
    "phasor.series_calls",
    "phasor.windows",
    "phasor.factor_samples",
    "specfun.ho_eigenfunction_samples",
    "specfun.gaussian_phase_integral_samples",
    "quadrature.trapezoid_cells",
    "quadrature.cumulative_cells",
    "compare.marginal_calls",
)
SELF_SUM_TOLERANCE = 0.05


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def loadavg() -> list[float]:
    return [float(v) for v in _read("/proc/loadavg").split()[:3]]


def git_revision(root: Path) -> str:
    """HEAD's commit from the .git files, or 'unknown' outside a git checkout."""
    head = _read(str(root / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    direct = _read(str(root / ".git" / ref)).strip()
    if direct:
        return direct
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(harness.ROOT),
    }


# ---------------------------------------------------------------------------
# one operation


@dataclass
class OpResult:
    op: str
    wall_s: float
    cpu_s: float
    problems: list[str]
    digests: dict[str, str] = field(default_factory=dict)


def run_op(cli, op: workloads.Op, ref: dict, out_dir: Path, threads: int) -> OpResult:
    call = harness.run_cli(cli, op.argv, out_dir, threads)
    problems: list[str] = []
    digests: dict[str, str] = {}
    if call.rc != 0:
        problems.append(f"exit code {call.rc}")
    else:
        try:
            manifest_checks, outputs = checks.read_checks(out_dir, op.argv[0])
            if sorted(outputs) != sorted(ref["files"]):
                problems.append(f"outputs {sorted(outputs)} != reference {sorted(ref['files'])}")
            for name in outputs:
                path = out_dir / name
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                if name in ref["files"]:
                    problems += checks.check_file(path, ref["files"][name])
            problems += checks.check_scalars(op.scalars(manifest_checks), ref["scalars"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return OpResult(op.name, call.wall_s, call.cpu_s, problems, digests)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, result: OpResult) -> None:
        self.attempted += 1
        if result.problems:
            self.failed += 1
            self.problems += [f"{result.op}: {p}" for p in result.problems]


def run_pass(cli, ops, refs, out_root: Path, threads: int, tally: Tally) -> list[OpResult]:
    results = [run_op(cli, op, refs[op.name], out_root / op.name, threads) for op in ops]
    for r in results:
        tally.add(r)
    return results


def keep_going(started: float, seconds: float, pass_times: list[float]) -> bool:
    """Start another pass only if it should end within the time budget."""
    return time.perf_counter() - started + statistics.median(pass_times) <= seconds


# ---------------------------------------------------------------------------
# end-to-end run


def setup_samples(count: int) -> list[float]:
    """Seconds from process start until ``import pathspectra.cli`` returns."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import pathspectra.cli; print(repr(time.perf_counter()))"
    )
    out = []
    for _ in range(count):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, str(harness.SRC)],
                capture_output=True, text=True, timeout=120, check=True, cwd=harness.ROOT,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise harness.SetupError(f"importing pathspectra.cli failed: {exc}") from exc
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def measure(cli, ops, refs, out_root: Path, seconds: float, setup: list[float], tally: Tally):
    walls: dict[str, list[float]] = {op.name: [] for op in ops}
    cpus: dict[str, list[float]] = {op.name: [] for op in ops}
    pass_times: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for r in run_pass(cli, ops, refs, out_root, THREADS, tally):
            walls[r.op].append(r.wall_s)
            cpus[r.op].append(r.cpu_s)
        pass_times.append(time.perf_counter() - t0)
        if not keep_going(started, seconds, pass_times):
            break
    passes = len(pass_times)
    totals = [sum(walls[name][i] for name in walls) for i in range(passes)]
    metrics = {
        # per-operation medians, summed over the workload's operations
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": {"wall_s": passes, "cpu_s": passes, "setup_s": len(setup), "peak_rss_mb": 1},
        "pass_wall_s": totals,
        "setup_s_values": setup,
        "per_op_median_wall_s": {k: statistics.median(v) for k, v in walls.items()},
        "per_op_median_cpu_s": {k: statistics.median(v) for k, v in cpus.items()},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run


def traced_pass(cli, ops, refs, out_root: Path, threads: int, tally: Tally):
    t = tracer.Tracer()
    t.install()
    try:
        results = run_pass(cli, ops, refs, out_root, threads, tally)
    finally:
        t.uninstall()
    wall = sum(r.wall_s for r in results)
    return results, tracer.layer_metrics(t.spans(), threads, t.stack_bytes), wall


def _digests(results: list[OpResult]) -> dict:
    return {(r.op, name): d for r in results for name, d in r.digests.items()}


def trace(cli, ops, refs, out_root: Path, seconds: float, tally: Tally):
    cycles = []
    pass_times: list[float] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = run_pass(cli, ops, refs, out_root, 1, tally)
        one, m1, wall1 = traced_pass(cli, ops, refs, out_root, 1, tally)
        _, m2, wall2 = traced_pass(cli, ops, refs, out_root, THREADS, tally)
        plain_wall = sum(r.wall_s for r in plain)
        self_sum = sum(v for k, v in m1.items() if k.endswith(".self_s")) + m1["phasor.factor_s"]
        m1["trace.wall_t1_s"] = plain_wall
        m1["trace.overhead"] = wall1 / plain_wall
        m1["trace.self_coverage"] = self_sum / wall1
        if abs(m1["trace.self_coverage"] - 1.0) > SELF_SUM_TOLERANCE:
            tally.problems.append(
                f"trace: layer self times sum to {self_sum:.4f} s, traced wall {wall1:.4f} s"
            )
        if _digests(one) != _digests(plain):
            tally.problems.append("trace: data files differ with tracing on and off")
        for key in EXACT_COUNTS:
            if m1[key] != m2[key]:
                tally.problems.append(f"trace: {key} is {m1[key]} at 1 thread, {m2[key]} at {THREADS}")
            if cycles and m1[key] != cycles[0][0][key]:
                tally.problems.append(f"trace: {key} changed between cycles")
        cycles.append((m1, m2, wall2))
        pass_times.append(time.perf_counter() - t0)
        if not keep_going(started, seconds, pass_times):
            break
    metrics = {}
    for key, unit in PER_LAYER.items():
        source = 1 if key == "distribution.pool_util" else 0
        value = statistics.median(c[source][key] for c in cycles)
        metrics[key] = int(value) if unit in ("count", "bytes") else float(value)
    detail = {
        "samples": {key: len(cycles) for key in PER_LAYER},
        "threads_1": {k: statistics.median(c[0][k] for c in cycles) for k in cycles[0][0]},
        "threads_2": {k: statistics.median(c[1][k] for c in cycles) for k in cycles[0][1]},
        "traced_wall_t2_s": statistics.median(c[2] for c in cycles),
    }
    return metrics, detail


# ---------------------------------------------------------------------------


def load_reference(ref_dir: Path, workload: str, k: int, T: float) -> dict:
    path = ref_dir / f"{workload}.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        choice = data["T_choices"][str(k)]
    except (OSError, ValueError, KeyError) as exc:
        raise harness.SetupError(f"no reference for {workload} T[{k}] in {path}: {exc!r}") from exc
    if choice["T"] != T:
        raise harness.SetupError(f"reference {path} was built for T={choice['T']!r}, not {T!r}")
    return choice["ops"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pathspectra benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids (the benchmark's own tests)")
    parser.add_argument("--reference-dir", type=Path, default=harness.BENCH_DIR / "reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = loadavg()
    grids = workloads.SMOKE if args.smoke else workloads.FULL
    k, T = workloads.travel_time(args.seed, grids)
    out_root = harness.ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        harness.check_source()
        refs = load_reference(args.reference_dir, args.workload, k, T)
        setup = [] if args.trace else setup_samples(SETUP_SAMPLES)
        cli = harness.import_cli()
        ops = workloads.operations(args.workload, T, grids)
        tally = Tally()
        try:
            if args.trace:
                metrics, detail = trace(cli, ops, refs, out_root, args.seconds, tally)
                units = PER_LAYER
            else:
                metrics, detail = measure(cli, ops, refs, out_root, args.seconds, setup, tally)
                units = END_TO_END
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
            with contextlib.suppress(OSError):
                out_root.parent.rmdir()  # only when no other run is using it
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "T_index": k,
        "T": T,
        "threads": THREADS,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:50],
        "env": {**environment(), "loadavg_start": load_start, "loadavg_end": loadavg()},
        **detail,
    }
    for problem in tally.problems[:50]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} T={T!r} trace={args.trace} "
          f"ops {tally.attempted - tally.failed}/{tally.attempted} ok")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]} (n={detail['samples'][name]})")
    print("# record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
