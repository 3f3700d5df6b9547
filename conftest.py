"""Repo-level pytest wiring: CLI options and path-based markers.

Lives at the repository root so the options register for every
invocation shape (`pytest`, `pytest tests/...`, `pytest benchmarks/...`).
"""

from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        action="store",
        type=int,
        default=20240521,
        help=(
            "Seed installed into the global random/NumPy RNGs before every "
            "test (see the autouse _seed_global_rngs fixture), so code "
            "paths that fall back to global randomness are reproducible "
            "and test order cannot leak RNG state between tests."
        ),
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "Rewrite the tracked quality reports under benchmarks/results/ "
            "from this run instead of comparing each report with its golden."
        ),
    )


def pytest_collection_modifyitems(items):
    """Every test under ``benchmarks/`` carries the ``bench`` marker."""
    for item in items:
        if "benchmarks" in Path(str(item.fspath)).parts:
            item.add_marker(pytest.mark.bench)
