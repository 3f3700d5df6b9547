"""Shared fixtures: small corpora and a session-scoped trained encoder."""

from __future__ import annotations

import gc
import logging
import random

import numpy as np
import pytest

from repro.ann import VectorIndex
from repro.core import AutoFormulaConfig
from repro.corpus import build_enterprise_corpus, build_training_universe
from repro.features import FeatureConfig
from repro.models import ModelConfig, TrainingConfig, train_models
from repro.obs import get_tracer
from repro.sheet import Sheet, Workbook
from repro.weaksup import generate_training_pairs


@pytest.fixture(autouse=True)
def _seed_global_rngs(request):
    """Reset the *global* RNGs before every test.

    Library code is written against explicit ``np.random.default_rng``
    generators, but anything that touches ``random`` or the legacy
    ``np.random`` global state would otherwise make test outcomes depend
    on execution order.  Run with ``--repro-seed N`` (registered in the
    repository-root ``conftest.py``) to reproduce a failure under a
    specific seed.
    """
    seed = request.config.getoption("--repro-seed", 20240521)
    random.seed(seed)
    np.random.seed(seed % (2**32))


@pytest.fixture()
def tracer():
    """The global tracer, enabled for the test and restored after.

    The tracer is process-global state; every test that flips it on must
    leave it disabled so unrelated tests keep paying the no-op price.
    """
    instance = get_tracer()
    instance.configure(enabled=True, sample_rate=1.0, slow_threshold_s=0.25)
    instance.reset()
    try:
        yield instance
    finally:
        instance.configure(enabled=False, sample_rate=1.0, slow_threshold_s=0.25)
        instance.reset()


@pytest.fixture()
def fail_on_asyncio_errors():
    """Fail a test that leaves an ERROR record on the ``asyncio`` logger.

    That is where the event loop reports what nobody awaited: a pending
    task destroyed with its loop ("Task was destroyed but it is
    pending!"), an exception no one retrieved.  The server modules opt in
    (``pytestmark`` / ``usefixtures``); collecting garbage before the
    check makes the test that orphaned a task the one that fails.
    """
    records = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
    assert not records, [record.getMessage() for record in records]


# The index-contract and fresh-fit parity tests are named by the index
# kind they run on: ``exact``, the kind a snapshot manifest records.


@pytest.fixture(params=[VectorIndex], ids=["exact"])
def index_factory(request):
    """Builds the index under test from a dimension."""
    return request.param


@pytest.fixture(params=[AutoFormulaConfig], ids=["exact"])
def make_config(request):
    """Builds the predictor config of a parity test (keyword overrides)."""
    return request.param


@pytest.fixture(scope="session")
def training_universe():
    """A small training universe of workbook families plus singletons."""
    return build_training_universe(n_families=6, copies_per_family=3, n_singletons=4, seed=7)


@pytest.fixture(scope="session")
def training_pairs(training_universe):
    """Weak-supervision pairs harvested from the training universe."""
    return generate_training_pairs(training_universe, seed=0)


@pytest.fixture(scope="session")
def trained_encoder(training_pairs):
    """A trained SheetEncoder, shared across the whole test session.

    Training is intentionally small (few epochs, small window) so the full
    suite stays fast; individual tests that need an untrained encoder build
    their own.
    """
    model_config = ModelConfig(features=FeatureConfig(window_rows=20, window_cols=8))
    training_config = TrainingConfig(epochs=6, seed=0)
    encoder, __ = train_models(training_pairs, model_config, training_config)
    return encoder


@pytest.fixture(scope="session")
def pge_corpus():
    """The synthetic PGE enterprise corpus (highly templated)."""
    return build_enterprise_corpus("PGE")


@pytest.fixture(scope="session")
def cisco_corpus():
    """The synthetic Cisco enterprise corpus (many singletons)."""
    return build_enterprise_corpus("Cisco")


@pytest.fixture()
def survey_sheet() -> Sheet:
    """A small hand-built sheet mirroring the paper's Figure 1 example."""
    sheet = Sheet("Responses")
    sheet.set("A1", "Color survey")
    sheet.set("C6", "Answer")
    colors = ["Brown", "Green", "Blue"]
    for offset in range(30):
        sheet.set((6 + offset, 2), colors[offset % 3])
    sheet.set("C41", "Brown")
    sheet.set("D41", formula="=COUNTIF(C7:C37,C41)")
    return sheet


@pytest.fixture()
def simple_workbook() -> Workbook:
    """A two-sheet workbook with values, formulas and styles."""
    workbook = Workbook(name="simple.xlsx", last_modified=123.0)
    first = workbook.add_sheet("Data")
    for row in range(5):
        first.set((row + 1, 0), f"item {row}")
        first.set((row + 1, 1), float(row + 1))
    first.set("B7", formula="=SUM(B2:B6)")
    second = workbook.add_sheet("Notes")
    second.set("A1", "notes go here")
    return workbook


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic random generator for tests that need randomness."""
    return np.random.default_rng(42)
