"""Correctness gate: per-operation checks against stored references.

A reference is built from an operation and its fine twin (its inner
quadrature grids halved, see ``workloads.py``).  Tolerances come from the
workload's own discretisation error, the coarse-versus-fine difference:

* data files: the fine values, interpolated onto the coarse abscissae, at
  up to ``MAX_SAMPLED_ROWS`` evenly strided rows, plus each column's mean
  over all rows.  Tolerance ``2 * max|coarse - fine| + 1e-8 * max|fine|``.
* manifest checks: the distance to the physical target may not exceed the
  fine run's distance plus twice the coarse-fine difference; a few checks
  (fig9 marginals, fig10 argmax) carry fixed tolerances instead.

A method more accurate than the coarse grids therefore passes, and one
whose error exceeds the coarse grid's own error fails.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

MAX_SAMPLED_ROWS = 256
REL_FLOOR = 1e-8
SIG_DIGITS = 10


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_checks(out_dir: Path, command: str) -> tuple[dict, list[str]]:
    manifest = json.loads((out_dir / f"{command}.manifest.json").read_text(encoding="utf-8"))
    return manifest["checks"], manifest["outputs"]


def _rounded(values) -> list[float]:
    return [float(f"{v:.{SIG_DIGITS}g}") for v in np.asarray(values, dtype=float)]


def sampled_rows(rows: int, stride: int) -> np.ndarray:
    """Every ``stride``-th row, and always the last one."""
    return np.unique(np.append(np.arange(0, rows, stride), rows - 1))


def dump(ref: dict) -> str:
    """JSON with one line per list, so references stay compact and diffable."""
    text = json.dumps(ref, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)


def file_reference(coarse: np.ndarray, fine: np.ndarray, header: list[str]) -> dict:
    rows = coarse.shape[0]
    stride = max(1, math.ceil(rows / MAX_SAMPLED_ROWS))
    idx = sampled_rows(rows, stride)
    ref: dict = {
        "rows": rows,
        "abscissa": [float(coarse[0, 0]), float(coarse[-1, 0])],
        "stride": stride,
        "cols": {},
    }
    x_c, x_f = coarse[:, 0], fine[:, 0]
    for j, name in enumerate(header[1:], start=1):
        on_coarse = np.interp(x_c, x_f, fine[:, j])
        scale = float(np.max(np.abs(on_coarse)))
        floor = REL_FLOOR * scale if scale > 0 else 1e-12
        disc = float(np.max(np.abs(coarse[:, j] - on_coarse)))
        mean_c, mean_f = float(np.mean(coarse[:, j])), float(np.mean(on_coarse))
        ref["cols"][name] = {
            "values": _rounded(on_coarse[idx]),
            "tol": 2.0 * disc + floor,
            "mean": mean_f,
            "mean_tol": 2.0 * abs(mean_c - mean_f) + floor,
            "disc": disc,
        }
    return ref


def scalar_reference(coarse: float, fine: float, target: float, fixed: float | None) -> dict:
    if fixed is not None:
        return {"target": target, "tol": fixed, "coarse": coarse}
    tol = abs(fine - target) + 2.0 * abs(coarse - fine) + 1e-9 * max(1.0, abs(target))
    return {"target": target, "tol": tol, "coarse": coarse, "fine": fine}


def check_file(path: Path, ref: dict) -> list[str]:
    """Problems found in one data file; empty when it matches its reference."""
    header, data = read_table(path)
    name = path.name
    if data.shape[0] != ref["rows"]:
        return [f"{name}: {data.shape[0]} rows, reference has {ref['rows']}"]
    lo, hi = ref["abscissa"]
    if not (math.isclose(data[0, 0], lo, rel_tol=1e-12, abs_tol=1e-300)
            and math.isclose(data[-1, 0], hi, rel_tol=1e-12, abs_tol=1e-300)):
        return [f"{name}: abscissa spans {data[0, 0]!r}..{data[-1, 0]!r}, reference {lo!r}..{hi!r}"]
    problems = []
    idx = sampled_rows(ref["rows"], ref["stride"])
    for j, col in enumerate(header[1:], start=1):
        cref = ref["cols"].get(col)
        if cref is None:
            problems.append(f"{name}: unexpected column {col}")
            continue
        dev = float(np.max(np.abs(data[idx, j] - np.asarray(cref["values"]))))
        if not dev <= cref["tol"]:
            problems.append(f"{name}:{col} deviates {dev:.3g} > tol {cref['tol']:.3g}")
        mean_dev = abs(float(np.mean(data[:, j])) - cref["mean"])
        if not mean_dev <= cref["mean_tol"]:
            problems.append(f"{name}:{col} mean deviates {mean_dev:.3g} > tol {cref['mean_tol']:.3g}")
    return problems


def check_scalars(values: dict[str, float], refs: dict[str, dict]) -> list[str]:
    problems = []
    for key, ref in refs.items():
        value = values.get(key)
        if value is None or not math.isfinite(value):
            problems.append(f"check {key}: missing or non-finite ({value!r})")
            continue
        dev = abs(value - ref["target"])
        if not dev <= ref["tol"]:
            problems.append(
                f"check {key} = {value!r}: |{value:.6g} - {ref['target']:.6g}| > tol {ref['tol']:.3g}"
            )
    return problems
