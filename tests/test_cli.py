"""End-to-end checks of the command-line driver: exit codes, config parsing,
manifest contents, and byte-identical output across thread counts."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathspectra import _csvtext, cli
from pathspectra.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_USAGE,
    RunConfig,
    config_from_mapping,
    main,
    parse_config_file,
)
from pathspectra.errors import UsageError
from perfbench import tracer, workloads
from tools import datacheck

MANIFEST_KEYS = {
    "command",
    "version",
    "effective_config",
    "outputs",
    "checks",
    "runtime_seconds",
}


def _manifest(out_dir, command):
    return json.loads((out_dir / f"{command}.manifest.json").read_text())


# ---------------------------------------------------------------------------
# configuration plumbing


def test_unknown_key_rejected():
    with pytest.raises(UsageError, match="unknown configuration key"):
        config_from_mapping({"bogus_knob": 1.0})


def test_bad_value_rejected():
    with pytest.raises(UsageError, match="bad value"):
        config_from_mapping({"T": "not-a-number"})


def test_format_and_system_validated():
    # data files are CSV only: format is not a key
    with pytest.raises(UsageError, match="unknown configuration key 'format'"):
        config_from_mapping({"format": "csv"})
    with pytest.raises(UsageError, match="system"):
        config_from_mapping({"system": "double_well"})
    with pytest.raises(UsageError, match="threads"):
        config_from_mapping({"threads": "-2"})


def test_optional_keys_accept_none():
    cfg = config_from_mapping({"delta_p_c": "none", "band_hi": None})
    assert cfg.delta_p_c is None
    assert cfg.band_hi is None
    # required keys must carry a value
    with pytest.raises(UsageError, match="needs a value"):
        config_from_mapping({"T": "none"})


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full-line comment\n"
        "system = free_line\n"
        "T = 400   # trailing comment\n"
        "\n"
        "delta_p_c=0.01\n"
    )
    mapping = parse_config_file(path)
    assert mapping == {"system": "free_line", "T": "400", "delta_p_c": "0.01"}


def test_parse_config_file_rejects_bare_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(UsageError, match="expected key = value"):
        parse_config_file(path)


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["fig10", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE


def _and_neighbours(xs) -> list[float]:
    """Each of ``xs`` and the floats one ulp either side of it."""
    return [y for x in xs for y in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf))]


def _writer_values(n_random: int) -> np.ndarray:
    """Values the CSV writer's fast path must render exactly or hand to ``%``, both signs."""
    # %g's switch points between fixed and exponent form; 99999999999999999.0 is 1e17
    values = _and_neighbours([1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0])
    # powers of ten, where log10 of the float below may round up to the power
    values += _and_neighbours(float(f"1e{e}") for e in range(-300, 301))
    # exact 17-digit ties, broken to even by %: 1234567890123456.75 -> ...56.8,
    # 2^-25 = 2.98023223876953125e-08 -> ...12e-08; then their neighbours
    ties = [1234567890123456.75, 1234567890123456.25, 100000000000000.125, 123456789012345.875]
    ties += [m * 2.0**-k for k in range(1, 80) for m in (1, 3, 7, 99)]
    values += _and_neighbours(ties)
    # subnormals, zeros, the largest finite, non-finite, both ends of the fast path
    values += [5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308]
    values += [0.0, 1.7976931348623157e308, np.inf, np.nan, 0.1, 2.0 / 3.0, 1e22, 1.0, 10.0]
    values += _and_neighbours([_csvtext._LOWEST, _csvtext._HIGHEST])
    bits = np.random.default_rng(20261020).integers(0, 2**64, n_random, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values, bits[np.isfinite(bits)]])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("chunk_rows, n_random", [(3, 0), (1 << 11, 1 << 19)])
def test_csv_writer_gives_the_bytes_of_per_value_format(tmp_path, monkeypatch, chunk_rows, n_random):
    # chunks of 3 rows end on a partial chunk; 2^11-row chunks take the
    # random sample through many full ones
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    values = _writer_values(n_random)
    values = np.concatenate([values, np.zeros(-values.size % 3)]).reshape(3, -1)
    real = values[0]
    cplx = np.empty(real.size, complex)
    cplx.real, cplx.imag = values[1], values[2]  # no complex arithmetic on inf and NaN
    whole = np.arange(real.size)  # a non-float column is written as float
    cli._emit(tmp_path, "table", ("a", "re", "im", "n"), (real, cplx, whole))
    columns = [real, cplx.real, cplx.imag, whole.astype(float)]
    rows = [",".join(format(v, ".17g") for v in row) for row in zip(*(c.tolist() for c in columns))]
    want = "\n".join(["a,re,im,n", *rows]) + "\n"
    assert (tmp_path / "table.csv").read_bytes() == want.encode()
    cli._emit(tmp_path, "empty", ("a",), (np.zeros(0),))
    assert (tmp_path / "empty.csv").read_bytes() == b"a\n"


@pytest.mark.parametrize(
    "argv",
    [
        # the hard wall over a reduced span: p_c, Re P, Im P
        ["distribution", "--set", "system=hard_wall", "--set", "quantum_number=2", "--set", "T=100.41315519036377",
         "--set", "p_c_lo=-4", "--set", "p_c_hi=4"],
        ["fig10"],  # alpha, overlap: four tables
    ],
)
def test_written_csv_values_round_trip_through_17_digits(tmp_path, argv):
    # '%.17g' reads back as the same float64, so re-formatting a parsed
    # value gives its text again unless a digit was misrendered
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    tables = sorted(tmp_path.glob("*.csv"))
    assert tables
    for path in tables:
        lines = path.read_text().splitlines()[1:]
        assert lines
        for line in lines:
            assert line == ",".join(format(float(t), ".17g") for t in line.split(","))


# ---------------------------------------------------------------------------
# exit codes


def test_exit_usage_on_unknown_key(tmp_path):
    assert main(["fig10", "--set", "bogus=1", "--out", str(tmp_path)]) == EXIT_USAGE


def test_exit_usage_on_malformed_set(tmp_path):
    assert main(["fig10", "--set", "no_equals_sign", "--out", str(tmp_path)]) == EXIT_USAGE


def test_exit_domain_from_compare_stage(tmp_path):
    code = main(["compare", "--set", "system=free_line", "--out", str(tmp_path)])
    assert code == EXIT_DOMAIN


def test_exit_singular_on_divergent_sample(tmp_path):
    # oscillator ground state: the coarse curve grid lands exactly on the
    # singular momenta +-sqrt(2*M*E) = +-1
    code = main(["phasor", "--set", "delta_p_c=0.5", "--out", str(tmp_path)])
    assert code == EXIT_SINGULAR


@pytest.mark.parametrize(
    "argv",
    [
        ["time-average", "--set", "quantum_number=0.6"],
        ["compare", "--set", "quantum_number=0.6"],
        ["distribution", "--set", "system=circle", "--set", "quantum_number=2.5", "--set", "T=100"],
        ["distribution", "--set", "system=square_well", "--set", "quantum_number=1.5", "--set", "T=100"],
    ],
    ids=["time-average", "compare", "circle", "well"],
)
def test_non_integer_quantum_numbers_are_domain_errors(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_DOMAIN
    assert not list(tmp_path.glob("*.csv"))


def _stationary_argv(command, system, q, setting):
    return [command, "--set", f"system={system}", "--set", f"quantum_number={q}", "--set", "T=100.3", "--set", setting]


# constants past float range: a circle inertia M*R^2 that overflows or underflows
# to 0, and closed-form distribution and reconstruction values that are not finite
_PAST_FLOAT_RANGE = [
    *(_stationary_argv(command, "circle", 2, "radius=1e300") for command in ("distribution", "window", "phasor")),
    _stationary_argv("phasor", "circle", 2, "radius=1e-300"),
    *(
        _stationary_argv(command, system, 2, "hbar=1e-320")
        for command in ("distribution", "reconstruct")
        for system in ("hard_wall", "free_line", "square_well", "circle")
    ),
    _stationary_argv("distribution", "circle", 0, "mass=1e-320"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["window", "--set", "system=circle", "--set", "quantum_number=2", "--set", "T=100", "--set", "x_f=7"],
        ["phasor", "--set", "system=hard_wall", "--set", "quantum_number=2", "--set", "T=100", "--set", "x_f=-1"],
        # the curve is priced, then the extent is narrower than one segment window
        ["fig1", "--set", "p_c_lo=0.5", "--set", "p_c_hi=0.5001"],
        # an x_f window in which psi_1 squares to 0 everywhere: N = 0
        ["time-average", "--set", "quantum_number=1", "--set", "x_f_span=1e-300", "--set", "delta_x_f=1e-300",
         "--set", "delta_T=1.5707963267948966"],
        *_PAST_FLOAT_RANGE,
    ],
    ids=[
        "window-circle-angle",
        "phasor-wall-position",
        "fig1-narrow-extent",
        "time-average-empty-window",
        *("-".join((argv[0], argv[2].split("=")[1], argv[-1])) for argv in _PAST_FLOAT_RANGE),
    ],
)
def test_a_refused_run_writes_no_file(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_DOMAIN
    assert list(tmp_path.iterdir()) == []


def test_integer_valued_quantum_numbers_give_the_same_bytes(tmp_path):
    for q in ("2", "2.0"):
        argv = ["distribution", "--set", "system=circle", "--set", f"quantum_number={q}", "--set", "T=100"]
        assert main([*argv, "--out", str(tmp_path / q)]) == EXIT_OK
    assert (tmp_path / "2" / "distribution.csv").read_bytes() == (tmp_path / "2.0" / "distribution.csv").read_bytes()


@pytest.mark.parametrize("T", ["0", "-1"])
def test_non_positive_travel_time_is_a_domain_error(tmp_path, T):
    argv = ["phasor", "--set", "system=free_line", "--set", "quantum_number=1", "--set", f"T={T}"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_DOMAIN


def test_exit_io_when_out_dir_is_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    code = main(["fig10", "--out", str(blocker / "sub")])
    assert code == EXIT_IO


def test_version_flag_exits_cleanly():
    assert main(["--version"]) == EXIT_OK


def test_missing_command_is_usage_error():
    assert main([]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# presets and stages end to end


def test_fig1_smoke(tmp_path):
    assert main(["fig1", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "fig1_curve.csv").exists()
    assert (tmp_path / "fig1_segments.csv").exists()
    manifest = _manifest(tmp_path, "fig1")
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == "fig1"
    assert manifest["effective_config"]["T"] == 1.0e4
    assert manifest["outputs"] == ["fig1_curve.csv", "fig1_segments.csv"]
    # the [0.5, 1.5] span truncates the tails at +-50 window halfwidths
    assert manifest["checks"]["endpoint_abs_error"] < 2.5e-2
    seg = complex(
        manifest["checks"]["segment_sum_re"], manifest["checks"]["segment_sum_im"]
    )
    assert abs(seg - complex(manifest["checks"]["endpoint_re"], manifest["checks"]["endpoint_im"])) < 1e-2


def test_fig1_honours_an_explicit_zero_segment_offset(tmp_path):
    assert main(["fig1", "--out", str(tmp_path / "default")]) == EXIT_OK
    assert main(["fig1", "--set", "segment_offset=0", "--out", str(tmp_path / "zero")]) == EXIT_OK
    default, zero = _manifest(tmp_path / "default", "fig1"), _manifest(tmp_path / "zero", "fig1")
    assert default["effective_config"]["segment_offset"] is None
    assert default["checks"]["segment_offset"] == 0.01  # the window half-width at T = 1e4
    assert zero["effective_config"]["segment_offset"] == 0.0
    assert zero["checks"]["segment_offset"] == 0.0
    # windows are 2h = 0.02 wide: offset 0 centres them on multiples of 0.02, the default between them
    for run, shift in (("zero", 0.0), ("default", 0.01)):
        centers = np.loadtxt(tmp_path / run / "fig1_segments.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.allclose(np.round((centers - shift) / 0.02) * 0.02 + shift, centers, rtol=0, atol=1e-9)


def test_fig1_curve_is_the_phasor_stage_on_the_pinned_grid(tmp_path):
    assert main(["fig1", "--out", str(tmp_path / "fig1")]) == EXIT_OK
    pinned = ["system=free_line", "quantum_number=1", "T=1e4", "p_c_lo=0.5", "p_c_hi=1.5", "delta_p_c=1e-4"]
    argv = ["phasor", *[arg for item in pinned for arg in ("--set", item)], "--out", str(tmp_path / "phasor")]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "fig1" / "fig1_curve.csv").read_bytes() == (tmp_path / "phasor" / "phasor.csv").read_bytes()


def test_fig9_marginals_match_closed_form(tmp_path):
    assert main(["fig9", "--set", "delta_p_c=0.25", "--out", str(tmp_path)]) == EXIT_OK
    manifest = _manifest(tmp_path, "fig9")
    for n in range(4):
        assert (tmp_path / f"fig9_n{n}.csv").exists()
        assert manifest["checks"][f"n{n}_max_abs_dev_from_closed_form"] < 1e-8


def test_fig10_overlap_checks(tmp_path):
    assert main(["fig10", "--out", str(tmp_path)]) == EXIT_OK
    manifest = _manifest(tmp_path, "fig10")
    for n in range(4):
        assert manifest["checks"][f"n{n}_argmax_alpha"] == pytest.approx(
            math.sqrt(n), abs=2e-3
        )
    assert manifest["checks"]["completeness_sum_alpha_1.5_n40"] == pytest.approx(
        1.0, abs=1e-10
    )


# Refuses every scipy import, then runs the CLI; exits non-zero on a failed run
# or if anything loaded scipy.
NO_SCIPY = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import pathspectra
import pathspectra.cli

out = sys.argv[1]
tiny = ["--set", "delta_T=3.141592653589793", "--set", "delta_x_f=1.0", "--set", "delta_p_c=0.1",
        "--set", "n_p_floor=5", "--set", "n_p_slope=5"]
line = ["--set", "system=free_line", "--set", "quantum_number=1", "--set", "T=100"]
assert pathspectra.cli.main(["fig7", *tiny, "--out", out + "/fig7"]) == 0
assert pathspectra.cli.main(["distribution", *line, "--out", out + "/line"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_the_package_runs_without_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_finds_every_function_it_wraps(tmp_path):
    """The benchmark's traced pass swaps each ``tracer.TARGETS`` function, and
    ``distribution._grid_average``, for a wrapper by name: a renamed one breaks it."""
    hooks = [(mod, name) for mod, name, _ in tracer.TARGETS] + [("distribution", "_grid_average")]
    originals = [getattr(sys.modules[f"pathspectra.{mod}"], name) for mod, name in hooks]
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.main(["fig10", "--out", str(tmp_path)]) == EXIT_OK
    finally:
        traced.uninstall()
    assert {"cli.main", "cli._emit", "compare.coherent_overlap"} <= {span.name for span in traced.spans()}
    assert [getattr(sys.modules[f"pathspectra.{mod}"], name) for mod, name in hooks] == originals


def test_phasor_stage_endpoint_vs_eigenfunction(tmp_path):
    code = main(
        [
            "phasor",
            "--set", "system=free_line",
            "--set", "quantum_number=1",
            "--set", "T=1e4",
            "--set", "delta_p_c=0.0001",
            "--set", "p_c_lo=0.5",
            "--set", "p_c_hi=1.5",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    checks = _manifest(tmp_path, "phasor")["checks"]
    assert checks["eigenfunction_re"] == 1.0
    assert checks["eigenfunction_im"] == 0.0
    assert checks["endpoint_abs_error"] < 2.5e-2


def test_window_stage_series_integrates_to_eigenfunction(tmp_path):
    code = main(
        [
            "window",
            "--set", "system=free_line",
            "--set", "quantum_number=1",
            "--set", "T=400",
            "--set", "delta_p_c=0.01",
            "--set", "p_c_lo=0.6",
            "--set", "p_c_hi=1.4",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    checks = _manifest(tmp_path, "window")["checks"]
    total = complex(checks["series_integral_re"], checks["series_integral_im"])
    # the +-8 halfwidth span cuts the slowly decaying tails of the
    # conditionally convergent integral; sharper checks live in test_phasor
    assert abs(total - 1.0) < 2e-2


def test_reconstruct_stage_thin_band_writes_zeros(tmp_path):
    code = main(
        [
            "reconstruct",
            "--set", "system=free_line",
            "--set", "quantum_number=1",
            "--set", "T=200",
            "--set", "delta_p_c=0.02",
            "--set", "p_c_lo=0.0",
            "--set", "p_c_hi=4.0",
            "--set", "x_f_span=3.0",
            "--set", "band_lo=0.3001",
            "--set", "band_hi=0.3002",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    table = np.loadtxt(tmp_path / "reconstruct.csv", delimiter=",", skiprows=1)
    assert np.all(table[:, 1] == 0.0)
    assert np.all(table[:, 2] == 0.0)


def test_reconstruct_stage_checks_the_circle_on_its_seam(tmp_path):
    # the default circle x_f grid ends on the seam 2*pi
    code = main(
        [
            "reconstruct",
            "--set", "system=circle",
            "--set", "quantum_number=2",
            "--set", "T=100.41315519036377",
            "--set", "band_lo=0.5",
            "--set", "band_hi=3.0",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    assert math.isfinite(_manifest(tmp_path, "reconstruct")["checks"]["max_abs_dev_from_psi"])


def test_threads_flag_is_ignored_and_hidden(tmp_path, capsys):
    argv = ["phasor", "--set", "system=free_line", "--set", "p_c_lo=0.5", "--set", "p_c_hi=1.5"]
    argv += ["--out", str(tmp_path)]
    assert main([*argv, "--threads", "3"]) == EXIT_OK
    assert "threads" not in _manifest(tmp_path, "phasor")["effective_config"]
    assert main([*argv, "--set", "threads=3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    assert "--threads" not in capsys.readouterr().out


def test_config_file_echoed_in_manifest(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "system = free_line\n"
        "quantum_number = 1\n"
        "T = 1e4\n"
        "delta_p_c = 0.001\n"
        "p_c_lo = 0.5\n"
        "p_c_hi = 1.5\n"
    )
    out = tmp_path / "out"
    code = main(["phasor", "--config", str(cfg_file), "--set", "T=400", "--out", str(out)])
    assert code == EXIT_OK
    effective = _manifest(out, "phasor")["effective_config"]
    # --set wins over the file; everything else is echoed back
    assert effective["T"] == 400.0
    assert effective["system"] == "free_line"
    assert effective["delta_p_c"] == 0.001


def test_time_average_bytes_identical_across_threads(tmp_path):
    blobs = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = main(
            [
                "time-average",
                "--set", "delta_p_c=0.1",
                "--set", "p_c_max=2.5",
                "--set", "delta_x_f=0.25",
                "--set", f"delta_T={math.pi / 2}",
                "--threads", str(threads),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        blobs[threads] = (out / "time-average.csv").read_bytes()
    assert blobs[1] == blobs[2] == blobs[8]


# ---------------------------------------------------------------------------
# non-finite input, grid reports, and determinism of the other threaded stages

SMALL_OSCILLATOR = ["--set", "delta_p_c=0.1", "--set", "p_c_max=2.5", "--set", "delta_x_f=0.25"]


@pytest.mark.parametrize(
    "key, value", [("T", "nan"), ("hbar", "inf"), ("delta_T", "-inf"), ("n_p_floor", "NaN")]
)
def test_non_finite_values_are_usage_errors(tmp_path, key, value):
    with pytest.raises(UsageError, match="finite"):
        config_from_mapping({key: value})
    assert main(["distribution", "--set", f"{key}={value}", "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "setting", ["delta_T=0", f"delta_T={-math.pi / 2}", "delta_x_f=0", "delta_p_c=-0.1"]
)
def test_out_of_range_grid_steps_are_domain_errors(tmp_path, setting):
    argv = ["time-average", "--set", "system=harmonic_oscillator", *SMALL_OSCILLATOR, "--set", setting]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_DOMAIN
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "sets, n_time",
    [
        ([f"delta_T={math.pi / 2}"], 4),
        # 0.2 rounds to the step pi/16: 2 * round(pi / 0.2) = 32 samples, where 2*pi / 0.2 is 31.4
        (["delta_T=0.2"], 32),
    ],
)
def test_manifest_reports_the_time_samples_that_ran(tmp_path, sets, n_time):
    argv = ["time-average", *SMALL_OSCILLATOR, "--threads", "2", "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == EXIT_OK
    manifest = _manifest(tmp_path, "time-average")
    assert manifest["checks"]["grids"] == {
        "n_time": n_time,
        "x_f_nodes": 41,
        "p_c_nodes": 51,
        "n_p_floor": 50.0,
        "n_p_slope": 150.0,
    }
    # the configuration is echoed as set: unset knobs stay None
    effective = manifest["effective_config"]
    assert effective["delta_T"] == float(sets[0].split("=")[1])
    assert "n_time" not in effective and "seed" not in effective and "epsilon" not in effective


def test_n_time_is_not_a_configuration_key(tmp_path):
    # delta_T alone sets the T' samples
    assert main(["time-average", "--set", "n_time=3", "--out", str(tmp_path)]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["distribution", "window"])
def test_one_time_oscillator_stages_report_one_time_sample(tmp_path, command):
    at_x_f = ["--set", "x_f=0.7"] if command == "window" else []
    argv = [command, *SMALL_OSCILLATOR, *at_x_f, "--set", "quantum_number=1", "--set", f"T={32.0 * math.pi + 0.3!r}"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert _manifest(tmp_path, command)["checks"]["grids"]["n_time"] == 1


def test_multi_state_presets_report_grids_per_state(tmp_path):
    code = main(
        [
            "fig7",
            "--set", f"delta_T={math.pi}",
            "--set", "delta_x_f=1.0",
            "--set", "delta_p_c=0.1",
            "--set", "n_p_floor=5",
            "--set", "n_p_slope=5",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    checks = _manifest(tmp_path, "fig7")["checks"]
    for n in range(4):
        grids = checks[f"n{n}_grids"]
        rows = np.loadtxt(tmp_path / f"fig7_n{n}.csv", delimiter=",", skiprows=1)
        assert grids["n_time"] == 2
        assert grids["p_c_nodes"] == rows.shape[0]
        assert grids["x_f_nodes"] == 2 * round(5.0 * math.sqrt(2 * n + 1)) + 1


@pytest.mark.parametrize(
    "command, sets",
    [
        (
            "distribution",
            ["system=hard_wall", "quantum_number=1", "T=100", "p_c_lo=-3", "p_c_hi=3"],
        ),
        ("reconstruct", [f"delta_T={math.pi / 2}", "band_hi=3"]),
    ],
)
def test_threaded_stage_bytes_identical_across_threads(tmp_path, command, sets):
    blobs = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        argv = [command, "--threads", str(threads), "--out", str(out)]
        if command == "reconstruct":
            argv += SMALL_OSCILLATOR
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        blobs[threads] = (out / f"{command}.csv").read_bytes()
    assert blobs[1] == blobs[2] == blobs[8]


def test_compare_stage_tables_match_fig9_and_fig10(tmp_path):
    for command in ("compare", "fig9", "fig10"):
        sets = [] if command == "fig10" else ["--set", "delta_p_c=0.25"]  # fig10 reads no key
        assert main([command, *sets, "--out", str(tmp_path / command)]) == EXIT_OK
    compare = tmp_path / "compare"
    assert (compare / "compare_marginal.csv").read_bytes() == (tmp_path / "fig9" / "fig9_n0.csv").read_bytes()
    assert (compare / "compare_overlap.csv").read_bytes() == (tmp_path / "fig10" / "fig10_n0.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--set", "p_c_hi=1e300"],
        ["reconstruct", "--set", "T=100.41315519036377", "--set", "band_hi=1e300"],
        ["window", "--set", "p_c_max=1e300", "--set", "T=100.41315519036377"],
        ["distribution", "--set", "system=hard_wall", "--set", "quantum_number=2", "--set", "delta_p_c=1e-300"],
        ["reconstruct", "--set", "system=hard_wall", "--set", "quantum_number=2", "--set", "delta_x_f=1e-300"],
    ],
    ids=["fig1", "reconstruct", "window", "distribution", "reconstruct-stationary-x_f"],
)
def test_oversized_grids_are_domain_errors(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_DOMAIN
    assert not list(tmp_path.glob("*.csv"))


def test_oversized_window_stack_exits_3_before_allocating(tmp_path):
    # n = 0 default x_f grid (101 nodes) over 2 x 5e5 band nodes: 1.0e8 cells
    argv = ["reconstruct", "--set", "T=100.83096491487338", "--set", "delta_p_c=0.2", "--set", "band_hi=1e5"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_DOMAIN
    assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# keys a run would silently ignore

WALL = ["--set", "system=hard_wall", "--set", "quantum_number=2", "--set", "T=100.41315519036377"]


@pytest.mark.parametrize(
    "argv",
    [
        ["distribution", *WALL, "--set", "p_c_lo=-3"],
        ["distribution", *WALL, "--set", "p_c_hi=3"],
        ["phasor", *WALL, "--set", "p_c_hi=3"],
        ["reconstruct", "--set", "band_lo=1.5"],
        ["distribution", *WALL, "--set", "n_p_floor=7"],
        ["distribution", *WALL, "--set", "n_p_slope=7"],
        ["distribution", *WALL, "--set", "delta_T=0.3"],
        ["distribution", *WALL, "--set", "p_c_max=1"],
        ["distribution", *WALL, "--set", "x_f_span=3"],
        ["distribution", *WALL, "--set", "delta_x_f=0.1"],
        ["reconstruct", *WALL, "--set", "band_hi=3", "--set", "n_p_floor=7"],
        ["fig2", "--set", "n_p_floor=7"],
        ["time-average", "--set", "p_c_lo=-1", "--set", "p_c_hi=1"],
        ["fig7", "--set", "p_c_lo=-1", "--set", "p_c_hi=1"],
    ],
    ids=[
        "p_c_lo-alone", "p_c_hi-alone", "phasor-p_c_hi-alone", "band_lo-alone", "wall-n_p_floor",
        "wall-n_p_slope", "wall-delta_T", "wall-p_c_max", "wall-x_f_span", "wall-delta_x_f", "wall-reconstruct-n_p_floor",
        "fig2-n_p_floor", "oscillator-p_c_span", "fig7-p_c_span",
    ],
)
def test_keys_a_run_would_ignore_are_usage_errors(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_stationary_manifests_report_only_the_grids_they_take(tmp_path):
    argv = ["reconstruct", *WALL, "--set", "p_c_lo=-3", "--set", "p_c_hi=3", "--set", "band_hi=2"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    manifest = _manifest(tmp_path, "reconstruct")
    # no n_p_floor/n_p_slope: only oscillator columns have the fallback inner grid
    assert set(manifest["checks"]["grids"]) == {"n_time", "x_f_nodes", "p_c_nodes"}
    # band_hi alone integrates from 0; the unset band_lo is echoed as null
    assert manifest["checks"]["band"] == [0.0, 2.0]
    assert manifest["effective_config"]["band_lo"] is None
    # fig2 and a stationary window price one x_f, and a stationary distribution
    # is closed-form over x_f, so no x_f grid is reported
    window = ["window", *WALL, "--set", "x_f=0.7", "--set", "p_c_lo=-3", "--set", "p_c_hi=3"]
    distribution = ["distribution", *WALL, "--set", "p_c_lo=-3", "--set", "p_c_hi=3"]
    for argv, name in ((["fig2"], "fig2"), (window, "window"), (distribution, "distribution")):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert set(_manifest(tmp_path, name)["checks"]["grids"]) == {"n_time", "p_c_nodes"}
    # and it has no x_f norm
    assert _manifest(tmp_path, "distribution")["checks"]["normalization_N"] is None


# ---------------------------------------------------------------------------
# the keys each command reads

STATE = {"system", "hbar", "mass", "quantum_number"}
PAPER_GRIDS = {"delta_p_c", "delta_x_f", "x_f_span", "p_c_max", "delta_T", "n_p_floor", "n_p_slope"}
STATIONARY_GRIDS = {"delta_p_c", "p_c_lo", "p_c_hi", "x_f_span", "delta_x_f"}
P_C_SPAN = {"delta_p_c", "p_c_lo", "p_c_hi"}
T_PRIME = {"delta_T"}

# (command, system it runs on or None for a preset) -> the keys it reads besides out
READS: dict[tuple[str, str | None], set[str]] = {
    ("fig1", None): P_C_SPAN | {"segment_offset"},
    ("fig2", None): P_C_SPAN,
    ("fig7", None): {"T"} | PAPER_GRIDS,
    ("fig8", None): {"T"} | PAPER_GRIDS,
    ("fig9", None): {"delta_p_c"},
    ("fig10", None): set(),
}
# the one-time stages take no T' sampling; a stationary window or distribution takes no x_f grid
for _system, _state, _grids, _window_grids in (
    ("harmonic_oscillator", STATE | {"omega"}, PAPER_GRIDS, PAPER_GRIDS - T_PRIME),
    ("circle", STATE | {"radius"}, STATIONARY_GRIDS, P_C_SPAN),
):
    READS.update(
        {
            ("phasor", _system): _state | {"T", "x_f"} | P_C_SPAN,
            ("window", _system): _state | {"T", "x_f"} | _window_grids,
            ("distribution", _system): _state | {"T"} | _window_grids,
            ("time-average", _system): _state | {"T"} | _grids,
            ("reconstruct", _system): _state | {"T", "band_lo", "band_hi"} | _grids,
            ("compare", _system): _state | {"delta_p_c"},
        }
    )

SAMPLE = {
    "hbar": "1", "mass": "1", "omega": "1", "radius": "1", "width": "3", "quantum_number": "2", "T": "100",
    "x_f": "0.5", "delta_p_c": "0.1", "p_c_lo": "-1", "p_c_hi": "1", "p_c_max": "2", "delta_x_f": "0.2",
    "x_f_span": "2", "delta_T": "0.5", "n_p_floor": "5", "n_p_slope": "5", "band_lo": "0.5",
    "band_hi": "2", "segment_offset": "0",
}
# set together, since either one alone is refused whether read or not
PARTNER = {"p_c_lo": "p_c_hi", "p_c_hi": "p_c_lo", "band_lo": "band_hi"}


@pytest.fixture
def no_runners(monkeypatch):
    """Every command checks its keys and writes its manifest, but computes nothing."""
    for name, (_, reads, pins) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (lambda cfg, write: {}, reads, pins))


@pytest.mark.parametrize("command, system", list(READS), ids=[f"{c}-{s}" if s else c for c, s in READS])
def test_each_command_refuses_every_key_it_does_not_read(tmp_path, no_runners, command, system):
    given = [] if system is None else ["--set", f"system={system}"]
    reads = READS[command, system] | {"out"}
    wrong = []
    for key in (field.name for field in dataclasses.fields(RunConfig)):
        out = tmp_path / key
        values = {**SAMPLE, "system": system or "free_line", "out": str(out)}
        keys = [key, *([PARTNER[key]] if key in PARTNER else [])]
        argv = [command, *given, *[arg for k in keys for arg in ("--set", f"{k}={values[k]}")], "--out", str(out)]
        code = main(argv)
        if set(keys) <= reads:
            if code != EXIT_OK:
                wrong.append(f"{'+'.join(keys)} refused (exit {code})")
        elif code != EXIT_USAGE or out.exists():
            wrong.append(f"{'+'.join(keys)} not refused (exit {code}, out {'made' if out.exists() else 'absent'})")
    assert not wrong


def _benchmark_argvs() -> list[list[str]]:
    """Every command line the benchmark (each operation and its fine twin, at
    both grid sets) and the data check run."""
    tables = collections.defaultdict(lambda: np.ones((11, 3)))  # stand-ins for the coarse data tables
    argvs = []
    for grids in (workloads.FULL, workloads.SMOKE):
        for workload in workloads.WORKLOADS:
            for op in workloads.operations(workload, workloads.t_choice(0, grids), grids):
                argvs += [op.argv, *(run.argv for run in op.fine(tables))]
    return argvs + list(datacheck.COMMANDS.values())


def test_benchmark_and_datacheck_command_lines_are_accepted(tmp_path, no_runners):
    argvs = _benchmark_argvs()
    assert len(argvs) == 98
    codes = [main([*argv, "--threads", "2", "--out", str(tmp_path / str(i))]) for i, argv in enumerate(argvs)]
    assert [argv for argv, code in zip(argvs, codes) if code != EXIT_OK] == []


@pytest.mark.parametrize(
    "text_b, tol, verdict, code",
    [
        ("a\n1e+16\n", 0.0, "identical", 0),
        ("a\n10000000000000000\n", 0.0, "same values, bytes differ  OVER TOLERANCE", 1),
        ("a\n10000000000000000\n", 1e-14, "same values, bytes differ", 0),
        ("a\n1.0000000000000002e+16\n", 1e-14, "a=2.00e-16", 0),
    ],
)
def test_datacheck_diff_fails_a_byte_change_only_at_zero_tolerance(tmp_path, capsys, text_b, tol, verdict, code):
    for side, text in (("A", "a\n1e+16\n"), ("B", text_b)):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "table.csv").write_text(text)
    assert datacheck.diff(tmp_path / "A", tmp_path / "B", tol) == code
    assert capsys.readouterr().out == f"run/table.csv: {verdict}\n"


def test_datacheck_finds_the_tables_holding_nan_or_inf(tmp_path):
    tables = {"clean": "p,re\n1,-2.5\n", "header_only": "p,re\n", "nan": "p,re\n1,nan\n"}
    tables.update(inf="p,re\n1,2\ninf,0\n", minus_inf="p,re\n-inf,0\n")
    for name, text in tables.items():
        (tmp_path / f"{name}.csv").write_text(text)
    assert [path.stem for path in datacheck._non_finite_tables(tmp_path)] == ["inf", "minus_inf", "nan"]


def test_datacheck_run_fails_a_command_that_writes_nan(tmp_path, monkeypatch, capsys):
    # a stand-in package whose every command exits 0 after writing a NaN row
    package = tmp_path / "tree" / "src" / "pathspectra"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import pathlib, sys\n"
        "pathlib.Path(sys.argv[sys.argv.index('--out') + 1], 'table.csv').write_text('p,re\\n1,nan\\n')\n"
    )
    monkeypatch.setattr(datacheck, "COMMANDS", {"one": ["fig1"]})
    assert datacheck.run(tmp_path / "out", tmp_path / "tree" / "src") == 1
    table = tmp_path / "out" / "one" / "table.csv"
    assert capsys.readouterr().out == f"one: exit 0\n{table}: holds a nan or inf value\n"


def test_datacheck_refuses_a_call_it_cannot_start_with_one_line(tmp_path, capsys):
    root = Path(datacheck.__file__).resolve().parents[1]
    (tmp_path / "A" / "fig1").mkdir(parents=True)
    missing = tmp_path / "missing"
    cases = [
        (["diff", str(tmp_path / "A"), str(missing)], f"{missing} is not a run directory"),
        (["diff", str(missing), str(tmp_path / "A")], f"{missing} is not a run directory"),
        (["run", str(tmp_path / "A"), "--src", str(root)], f"{tmp_path / 'A' / 'fig1'} already exists: run into a fresh directory"),
        (["run", str(tmp_path / "B"), "--src", str(tmp_path)], f"{tmp_path / 'src'} has no pathspectra package"),
    ]
    for argv, line in cases:
        assert datacheck.main(argv) == 2
        assert capsys.readouterr() == ("", line + "\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["A", "fig1"]  # nothing was run
