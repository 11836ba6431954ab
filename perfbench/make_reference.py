"""Build the stored reference outputs the benchmark checks every operation against.

For each travel-time choice of a workload, every operation runs once at the
benchmark's grids and once as its fine twin (inner quadrature grids halved);
the fine outputs, sampled on the coarse abscissae, become the reference and
the coarse-fine differences set the tolerances (see ``checks.py``).

    python3 perfbench/make_reference.py [--workload W ...] [--out DIR] [--smoke] [--t-index K ...]

Writes ``<out>/<workload>.json`` (default ``perfbench/reference``).  Run it
again only when the workloads or their grids change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import checks
import harness
import workloads

THREADS = 2


def _run(cli, argv: list[str], out_dir: Path) -> tuple[dict, dict]:
    call = harness.run_cli(cli, argv, out_dir, THREADS)
    if call.rc != 0:
        raise RuntimeError(f"reference run failed (exit {call.rc}): {' '.join(argv)}")
    manifest_checks, outputs = checks.read_checks(out_dir, argv[0])
    tables = {name: checks.read_table(out_dir / name) for name in outputs}
    return manifest_checks, tables


def op_reference(cli, op: workloads.Op, work: Path) -> dict:
    coarse_checks, coarse_tables = _run(cli, op.argv, work / "coarse")
    fine_tables: dict = {}
    fine_scalars: dict[str, float] = {}
    for i, fine in enumerate(op.fine({k: v[1] for k, v in coarse_tables.items()})):
        fine_checks, tables = _run(cli, fine.argv, work / f"fine{i}")
        fine_scalars.update(fine.scalars(fine_checks))
        for produced, stands_for in fine.files.items():
            fine_tables[stands_for] = tables[produced][1]
    files = {
        name: checks.file_reference(data, fine_tables[name], header)
        for name, (header, data) in coarse_tables.items()
    }
    coarse_scalars = op.scalars(coarse_checks)
    scalars = {
        key: checks.scalar_reference(
            coarse_scalars[key], fine_scalars.get(key, coarse_scalars[key]), target, op.fixed_tol.get(key)
        )
        for key, target in op.targets.items()
    }
    return {"argv": op.argv, "files": files, "scalars": scalars}


def build(workload: str, grids: workloads.Grids, indices: list[int], work: Path) -> dict:
    cli = harness.import_cli()
    choices = {}
    for k in indices:
        T = workloads.t_choice(k, grids)
        ops = {}
        for op in workloads.operations(workload, T, grids):
            print(f"{workload} T[{k}]={T!r}: {op.name}", file=sys.stderr, flush=True)
            ops[op.name] = op_reference(cli, op, work / op.name)
        choices[str(k)] = {"T": T, "ops": ops}
    return {"workload": workload, "grids": asdict(grids), "T_choices": choices}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--out", type=Path, default=harness.BENCH_DIR / "reference")
    parser.add_argument("--smoke", action="store_true", help="tiny grids (for the tests)")
    parser.add_argument("--t-index", type=int, action="append", help="T choices to build (default all)")
    args = parser.parse_args(argv)
    grids = workloads.SMOKE if args.smoke else workloads.FULL
    indices = args.t_index or list(range(workloads.N_T_CHOICES))
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        work = harness.ROOT / ".bench_out" / f"reference-{workload}-{os.getpid()}"
        try:
            ref = build(workload, grids, indices, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        (args.out / f"{workload}.json").write_text(checks.dump(ref) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
