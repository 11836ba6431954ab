"""Shared plumbing: locating the source tree and timing one CLI call in-process."""

from __future__ import annotations

import importlib
import logging
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, no reference, bad flag)."""


def check_source() -> None:
    if not (SRC / "pathspectra" / "cli.py").is_file():
        raise SetupError(f"no pathspectra source tree under {SRC}")


def import_cli():
    """Put ``src`` on the path and import ``pathspectra.cli`` (not installed)."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the CLI's logging.basicConfig becomes a no-op; progress lines stay off
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")
    return importlib.import_module("pathspectra.cli")


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Call:
    rc: int | None  # None: the CLI raised instead of returning an exit code
    wall_s: float
    cpu_s: float


def run_cli(cli, argv: list[str], out_dir: Path, threads: int) -> Call:
    """One ``pathspectra.cli.main`` call writing into a fresh ``out_dir``."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    full = list(argv) + ["--out", str(out_dir), "--threads", str(threads)]
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = cli.main(full)
    except Exception:  # an uncaught error is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        rc = None
    wall = time.perf_counter() - t0
    return Call(rc, wall, cpu_seconds() - cpu0)
