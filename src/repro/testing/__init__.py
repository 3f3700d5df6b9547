"""Deterministic workload simulation and invariant testing.

The serving layer's hardest guarantees — mutation/fresh-fit parity,
tombstone accounting, provenance consistency — are easy to regress
silently: a stale index position or a wrong tie-break changes *which*
formula wins, not whether serving crashes.
This package makes those guarantees testable at scale:

* :func:`generate_workload` builds a reproducible multi-tenant stream of
  add/remove/edit/recommend/evaluate operations from one integer seed;
* :func:`replay_workload` applies a stream to any workspace
  implementation and records the response stream;
* ``repro.testing.invariants`` contains white-box checkers that audit
  index state and compare response streams bit-for-bit.

``tests/test_simulation.py`` drives these against workspaces across
multiple seeds and index kinds.
"""

from repro.testing.workload import (
    OP_KINDS,
    ReplayResult,
    StepOutcome,
    Workload,
    WorkloadConfig,
    WorkloadOp,
    generate_workload,
    replay_workload,
)
from repro.testing.invariants import (
    assert_matches_fresh_fit,
    assert_no_tombstones,
    assert_response_wellformed,
    assert_responses_match,
    assert_tombstone_accounting,
    response_signature,
)

__all__ = [
    "OP_KINDS",
    "ReplayResult",
    "StepOutcome",
    "Workload",
    "WorkloadConfig",
    "WorkloadOp",
    "generate_workload",
    "replay_workload",
    "assert_matches_fresh_fit",
    "assert_no_tombstones",
    "assert_response_wellformed",
    "assert_responses_match",
    "assert_tombstone_accounting",
    "response_signature",
]
