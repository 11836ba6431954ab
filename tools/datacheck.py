"""Run a fixed list of CLI commands on one source tree, and compare two such runs.

    python3 tools/datacheck.py run OUT --src TREE
    python3 tools/datacheck.py diff A B [--tol 1e-14]

``run`` executes every command in ``COMMANDS`` with ``TREE/src`` on the
import path, each into its own fresh subdirectory ``OUT/<name>``, under
``-W error::RuntimeWarning`` as the tests run: a NumPy float warning fails
the command, and so does a data file holding a ``nan`` or ``inf`` value
(the file is printed).  ``diff``
walks the subdirectories of ``A`` and, for every data file, prints
``identical``, ``same values, bytes differ`` (say ``1e+16`` against
``10000000000000000``), or each column's max |difference| relative to the
file's max |value| in ``A``; it then prints every manifest key or check
whose value differs, ignoring ``runtime_seconds`` and ``out``.  The exit
status of ``diff`` is 1 if a data column differs by more than ``--tol``, a
data file is not byte-identical at the default ``--tol 0``, a file or
subdirectory is missing on one side, or the manifests' key sets differ.
Differing manifest values are printed with their relative size and left
to the reader, since near-zero checks (a mean of 1e-17) and the sign of an
even profile's peak may move at rounding level.  A call that cannot start
prints one line and exits 2: ``run`` on a tree without the package or into
an ``OUT`` that already holds one of its subdirectories, ``diff`` on an
``A`` or ``B`` that is not a directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

T_STATIONARY = 100.41315519036377
T_OSCILLATOR = 32.0 * math.pi + 0.3  # the preset T = 32*pi is a singular time for one-time stages
BAND = ["--set", "band_lo=0.5", "--set", "band_hi=3.0"]  # the band of the fixed-band reconstructions
BENCH_GRIDS = ["--set", f"delta_T={math.pi / 2.0!r}", "--set", "delta_x_f=0.4"]  # perfbench's oscillator grids


def _stationary(system: str, q: float) -> list[str]:
    return ["--set", f"system={system}", "--set", f"quantum_number={q}", "--set", f"T={T_STATIONARY!r}"]


COMMANDS: dict[str, list[str]] = {
    "fig1": ["fig1"],
    "fig2": ["fig2"],
    "fig7": ["fig7"],
    "fig7_bench": ["fig7", *BENCH_GRIDS],
    # every level on one truncated lattice, at two T' samples
    "fig7_pinned": ["fig7", "--set", "p_c_max=4", "--set", "x_f_span=3", "--set", f"delta_T={math.pi!r}"],
    "fig8": ["fig8"],
    "fig8_bench": ["fig8", *BENCH_GRIDS],
    # both levels on one cropped x_f window, with another node step and its rounding
    "fig8_pinned": ["fig8", "--set", "x_f_span=3", "--set", f"delta_T={math.pi!r}", "--set", "delta_p_c=0.05"],
    # a node step at which the two lattices' min(diff(p_c_grid)) differ, though not their cell at p_c = 0
    "fig8_step": ["fig8", "--set", "delta_p_c=0.07"],
    "fig9": ["fig9", "--set", "delta_p_c=0.04"],
    "fig9_default": ["fig9"],  # the default momentum step 0.01
    "fig10": ["fig10"],
    "distribution_wall": ["distribution", *_stationary("hard_wall", 2.0)],
    "distribution_well": ["distribution", *_stationary("square_well", 3.0)],
    "distribution_line": ["distribution", *_stationary("free_line", 1.0)],
    # the README's free line at T = 1e4: Fresnel arguments out to |x| ~ 5e3
    "distribution_line_far": [
        "distribution", "--set", "system=free_line", "--set", "quantum_number=1", "--set", "T=10000",
    ],
    "distribution_circle": ["distribution", *_stationary("circle", 2.0)],
    # negative levels: the stationary point, and with it the default p_c span, below p_c = 0
    "distribution_circle_negative": ["distribution", *_stationary("circle", -2.0)],
    "distribution_line_negative": ["distribution", *_stationary("free_line", -1.3)],
    "time_average": ["time-average"],
    "time_average_omega3": ["time-average", "--set", "omega=3"],  # 32 T' samples over one period 2*pi/3
    "phasor_oscillator": ["phasor", "--set", "x_f=0.7", "--set", f"T={T_OSCILLATOR!r}"],
    "window_oscillator": ["window", "--set", "quantum_number=1", "--set", "x_f=0.7", "--set", f"T={T_OSCILLATOR!r}"],
    "distribution_oscillator": ["distribution", "--set", "quantum_number=1", "--set", f"T={T_OSCILLATOR!r}"],
    "phasor_wall": ["phasor", *_stationary("hard_wall", 2.0), "--set", "x_f=0.7"],
    "phasor_well": ["phasor", *_stationary("square_well", 3.0), "--set", "x_f=0.7"],
    "phasor_circle_negative": ["phasor", *_stationary("circle", -2.0), "--set", "x_f=0.7"],
    "window_well": ["window", *_stationary("square_well", 3.0), "--set", "x_f=0.7"],
    "window_circle_negative": ["window", *_stationary("circle", -2.0), "--set", "x_f=0.7"],
    "window": [
        "window", "--set", "system=free_line", "--set", "quantum_number=1", "--set", "T=400",
        "--set", "p_c_lo=0.6", "--set", "p_c_hi=1.4", "--set", "delta_p_c=0.01",
    ],
    "reconstruct_wall": ["reconstruct", *_stationary("hard_wall", 2.0), *BAND],
    "reconstruct_well": ["reconstruct", *_stationary("square_well", 3.0), *BAND],
    "reconstruct_line": ["reconstruct", *_stationary("free_line", 1.0), *BAND],
    "reconstruct_circle": ["reconstruct", *_stationary("circle", 2.0), *BAND],
    "reconstruct_circle_negative": ["reconstruct", *_stationary("circle", -2.0), *BAND],
    "reconstruct_oscillator": ["reconstruct", "--set", "quantum_number=1", *BAND],
    "reconstruct_oscillator_thin": [  # thinner than one lattice cell: zeros
        "reconstruct", "--set", "quantum_number=1", "--set", "band_lo=1.001", "--set", "band_hi=1.002",
    ],
    "reconstruct_full_band": ["reconstruct", "--set", "quantum_number=2"],  # no band keys: the full-band cutoff
    # n = 8 out to |x_f| = 20.8: its columns past |x_f| = 9.4 take the inner v-grid, not the Hermite ladder
    "reconstruct_fallback": ["reconstruct", "--set", "quantum_number=8", "--set", "band_hi=10", *BENCH_GRIDS],
    # a circle whose inertia M*R^2 is not its mass
    "reconstruct_circle_scaled": [
        "reconstruct", *_stationary("circle", 2.0), "--set", "radius=1.7", "--set", "mass=1.3",
        "--set", "band_lo=0.5", "--set", "band_hi=3.0",
    ],
    "compare": ["compare", "--set", "quantum_number=2"],
    # non-unit oscillator scales move the nodes and weights off their unit values
    "compare_scaled": [
        "compare", "--set", "hbar=0.7", "--set", "mass=2", "--set", "omega=0.5", "--set", "quantum_number=3",
    ],
}

IGNORED_KEYS = {"runtime_seconds", "out"}


def run(out: Path, src: Path) -> int:
    if not (src / "pathspectra" / "cli.py").is_file():
        print(f"{src} has no pathspectra package", file=sys.stderr)
        return 2
    taken = [out / name for name in COMMANDS if (out / name).exists()]
    if taken:
        print(f"{taken[0]} already exists: run into a fresh directory", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    status = 0
    for name, argv in COMMANDS.items():
        target = out / name
        target.mkdir(parents=True)
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "pathspectra.cli", *argv, "--out", str(target)]
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        print(f"{name}: exit {done.returncode}")
        if done.returncode:
            print(done.stderr.strip().splitlines()[-1] if done.stderr.strip() else "(no message)")
        non_finite = _non_finite_tables(target)
        for path in non_finite:
            print(f"{path}: holds a nan or inf value")
        status = status or done.returncode or int(bool(non_finite))
    return status


def _non_finite_tables(target: Path) -> list[Path]:
    """The data files in ``target`` that hold a ``nan`` or ``inf`` value."""
    return [path for path in sorted(target.glob("*.csv")) if not np.isfinite(_columns(path)[1]).all()]


def _columns(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.T


def _data_diff(a: Path, b: Path) -> tuple[str, float]:
    if a.read_bytes() == b.read_bytes():
        return "identical", 0.0
    head_a, cols_a = _columns(a)
    head_b, cols_b = _columns(b)
    if head_a != head_b or cols_a.shape != cols_b.shape:
        return f"shape differs: {head_a} {cols_a.shape} vs {head_b} {cols_b.shape}", math.inf
    if np.array_equal(cols_a, cols_b):
        return "same values, bytes differ", 0.0
    scale = float(np.max(np.abs(cols_a))) or 1.0
    rel = np.max(np.abs(cols_a - cols_b), axis=1) / scale
    return " ".join(f"{h}={r:.2e}" for h, r in zip(head_a, rel)), float(np.max(rel))


def _flatten(value: object, prefix: str = "") -> dict[str, object]:
    if isinstance(value, dict):
        flat: dict[str, object] = {}
        for key, sub in value.items():
            if key not in IGNORED_KEYS:
                flat.update(_flatten(sub, f"{prefix}.{key}" if prefix else key))
        return flat
    return {prefix: value}


def _manifest_diff(a: Path, b: Path) -> tuple[list[str], bool]:
    flat_a = _flatten(json.loads(a.read_text()))
    flat_b = _flatten(json.loads(b.read_text()))
    lines = [f"  key only in A: {k}" for k in sorted(flat_a.keys() - flat_b.keys())]
    lines += [f"  key only in B: {k}" for k in sorted(flat_b.keys() - flat_a.keys())]
    keys_differ = bool(lines)
    for key in sorted(flat_a.keys() & flat_b.keys()):
        va, vb = flat_a[key], flat_b[key]
        if va == vb:
            continue
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            scale = max(abs(va), abs(vb))
            lines.append(f"  {key}: {va!r} -> {vb!r} (|d| {abs(va - vb):.2e}, rel {abs(va - vb) / scale:.2e})")
        else:
            lines.append(f"  {key}: {va!r} -> {vb!r}")
    return lines, keys_differ


def diff(a_root: Path, b_root: Path, tol: float) -> int:
    for root in (a_root, b_root):
        if not root.is_dir():
            print(f"{root} is not a run directory", file=sys.stderr)
            return 2
    failed = False
    names = sorted({p.name for p in a_root.iterdir() if p.is_dir()} | {p.name for p in b_root.iterdir() if p.is_dir()})
    for name in names:
        a_dir, b_dir = a_root / name, b_root / name
        files = sorted({p.name for p in a_dir.glob("*")} | {p.name for p in b_dir.glob("*")})
        for fname in files:
            a, b = a_dir / fname, b_dir / fname
            if not (a.is_file() and b.is_file()):
                print(f"{name}/{fname}: missing in {'B' if a.is_file() else 'A'}")
                failed = True
            elif fname.endswith(".manifest.json"):
                lines, keys_differ = _manifest_diff(a, b)
                print(f"{name}/{fname}: " + ("differs" if lines else "same checks"))
                for line in lines:
                    print(line)
                failed = failed or keys_differ
            else:
                text, worst = _data_diff(a, b)
                over = worst > tol or (tol == 0.0 and text != "identical")
                print(f"{name}/{fname}: {text}" + ("  OVER TOLERANCE" if over else ""))
                failed = failed or over
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="run every command into OUT/<name>")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--src", type=Path, required=True, help="source tree whose src/ is imported")
    p_diff = sub.add_parser("diff", help="compare two run directories")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    p_diff.add_argument("--tol", type=float, default=0.0, help="largest relative data difference accepted")
    args = parser.parse_args(argv)
    if args.action == "run":
        return run(args.out, args.src / "src")
    return diff(args.a, args.b, args.tol)


if __name__ == "__main__":
    raise SystemExit(main())
