"""Deterministic workload simulation, a reference oracle and invariants.

The serving layer's hardest guarantees — answers equal to the paper's
three straight steps, mutation/fresh-fit parity, tombstone accounting,
provenance consistency — are easy to regress silently: a stale index
position or a wrong tie-break changes *which* formula wins, not whether
serving crashes.  This package makes those guarantees testable at scale:

* :func:`generate_workload` builds a reproducible multi-tenant stream of
  add/remove/edit/recommend/evaluate operations from one integer seed,
  and :func:`tie_heavy_sheet` / :func:`tie_heavy_vectors` build inputs on
  which near and exact ties decide answers;
* :func:`replay_workload` applies a stream to any workspace
  implementation and records the response stream;
* :class:`ReferenceAutoFormula` (``repro.testing.reference``) is Algorithm 2
  in straight-line NumPy over the encoder's vectors — the oracle every
  answer of the pipeline, and every exact k-NN of the vector index, is
  compared with;
* ``repro.testing.invariants`` contains white-box checkers that audit
  index state and compare response streams and index rows bit-for-bit.

``tests/test_reference.py`` drives the oracle over generated streams;
``tests/test_simulation.py`` drives the invariants across seeds and index
kinds.
"""

from repro.testing.workload import (
    OP_KINDS,
    TIE_LAYOUTS,
    ReplayResult,
    StepOutcome,
    Workload,
    WorkloadConfig,
    WorkloadOp,
    generate_workload,
    replay_workload,
    tie_heavy_sheet,
    tie_heavy_vectors,
)
from repro.testing.invariants import (
    assert_matches_fresh_fit,
    assert_no_tombstones,
    assert_response_wellformed,
    assert_responses_match,
    assert_same_index_rows,
    assert_tombstone_accounting,
    response_signature,
)
from repro.testing.reference import Answer, ReferenceAutoFormula, answer_of

__all__ = [
    "OP_KINDS",
    "TIE_LAYOUTS",
    "ReplayResult",
    "StepOutcome",
    "Workload",
    "WorkloadConfig",
    "WorkloadOp",
    "generate_workload",
    "replay_workload",
    "tie_heavy_sheet",
    "tie_heavy_vectors",
    "assert_matches_fresh_fit",
    "assert_no_tombstones",
    "assert_response_wellformed",
    "assert_responses_match",
    "assert_same_index_rows",
    "assert_tombstone_accounting",
    "response_signature",
    "Answer",
    "ReferenceAutoFormula",
    "answer_of",
]
