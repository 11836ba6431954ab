"""Import every project module the suite uses before any test file is collected.

Hypothesis mixes numeric literals from the project's own (non-test) modules
into its draws.  It reads them from ``sys.modules`` when a property test
first draws, and again whenever more modules are loaded, so a derandomized
test drew different examples depending on which test files were collected
with it: ``tests/test_properties.py`` alone did not draw the falsifying
example that the full suite drew.  With every project module loaded here,
each property test draws from the same pool whatever is selected and in
whatever order it runs; collection refuses a project module not listed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import pathspectra.cli  # noqa: F401  (the package does not import its CLI)
from pathspectra import phasor
from perfbench import tracer, workloads  # noqa: F401
from tools import datacheck  # noqa: F401

ROOT = Path(__file__).resolve().parents[1]


def _project_modules() -> set[str]:
    """Modules loaded from files under the repository, outside ``tests/``."""
    names = set()
    for name, module in list(sys.modules.items()):
        path = Path(getattr(module, "__file__", None) or "/").resolve()
        if path.is_relative_to(ROOT) and not path.is_relative_to(ROOT / "tests"):
            names.add(name)
    return names


PRELOADED = _project_modules()


def pytest_collection_finish(session: pytest.Session) -> None:
    late = _project_modules() - PRELOADED
    if late:
        raise pytest.UsageError(f"import {', '.join(sorted(late))} in tests/conftest.py: see its docstring")


@pytest.fixture
def climbs(monkeypatch):
    """The degree of every ladder climb the window engine starts."""
    original = phasor._hermite_phase_primitive
    degrees = []

    def counted(n, *args):
        degrees.append(n)
        return original(n, *args)

    monkeypatch.setattr(phasor, "_hermite_phase_primitive", counted)
    return degrees
