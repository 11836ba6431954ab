"""The benchmark's own tests, on the tiny ``--smoke`` grids.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import make_reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _build_reference(tmp_path: Path, workload: str) -> Path:
    k, _ = workloads.travel_time(SEED, workloads.SMOKE)
    ref_dir = tmp_path / "reference"
    assert make_reference.main(
        ["--smoke", "--workload", workload, "--t-index", str(k), "--out", str(ref_dir)]
    ) == 0
    return ref_dir


def _run(ref_dir: Path | None, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    if ref_dir is not None:
        argv += ["--reference-dir", str(ref_dir)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace, section):
    ref_dir = _build_reference(tmp_path, "closed_form")
    proc = _run(ref_dir, "closed_form", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.startswith(f"{name} = ") and f" {unit} (n=" in line for line in lines), name
    record = json.loads(next(line for line in lines if line.startswith("# record "))[len("# record "):])
    assert record["seed"] == SEED
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_revision",
                "loadavg_start", "loadavg_end"):
        assert key in record["env"]


def _corrupt_data_value(ops: dict) -> None:
    col = ops["distribution_hard_wall"]["files"]["distribution.csv"]["cols"]["re"]
    col["values"][len(col["values"]) // 2] += 10.0 * col["tol"] + 0.1


def _corrupt_check_target(ops: dict) -> None:
    ops["distribution_square_well"]["scalars"]["peak"]["target"] += 1.0


@pytest.mark.parametrize("corrupt", [_corrupt_data_value, _corrupt_check_target])
def test_a_corrupted_reference_counts_as_a_failed_operation(tmp_path, corrupt):
    ref_dir = _build_reference(tmp_path, "closed_form")
    path = ref_dir / "closed_form.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    (choice,) = ref["T_choices"].values()
    corrupt(choice["ops"])
    path.write_text(json.dumps(ref), encoding="utf-8")
    proc = _run(ref_dir, "closed_form", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert "FAILED" in proc.stderr


def test_without_the_source_tree_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(None, "ho_bands", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_attributes_self_time_on_a_nested_call():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.03)
        t.call("x.inner", "x", inner, (), {})
        time.sleep(0.02)

    t.call("x.outer", "x", outer, (), {})
    spans = {s.name: s for s in t.spans()}
    own = tracer.self_times(list(spans.values()))
    assert spans["x.inner"].parent == spans["x.outer"].sid
    assert own[spans["x.inner"].sid] == pytest.approx(0.05, abs=0.02)
    assert own[spans["x.outer"].sid] == pytest.approx(0.05, abs=0.02)
    total = spans["x.outer"].end - spans["x.outer"].start
    assert own[spans["x.inner"].sid] + own[spans["x.outer"].sid] == pytest.approx(total, rel=1e-9)


def test_tracer_parents_worker_spans_and_merges_their_overlap():
    t = tracer.Tracer()
    start = threading.Barrier(2, timeout=10)

    def column():
        start.wait()
        time.sleep(0.05)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(t.call, "x.column", "x", column, (), {}) for _ in range(2)]
            for f in futures:
                f.result(timeout=10)

    t.call("x.fan_out", "x", fan_out, (), {})
    spans = t.spans()
    parent = next(s for s in spans if s.name == "x.fan_out")
    columns = [s for s in spans if s.name == "x.column"]
    assert len(columns) == 2 and all(c.parent == parent.sid for c in columns)
    # the two 50 ms columns overlap, so they cover ~50 ms of the parent, not 100
    own = tracer.self_times(spans)
    assert own[parent.sid] == pytest.approx((parent.end - parent.start) - 0.05, abs=0.02)
    assert own[parent.sid] > 0
