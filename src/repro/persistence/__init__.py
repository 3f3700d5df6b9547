"""Durable workspaces: snapshots plus an append-only mutation log.

Everything the serving layer builds in memory — the contiguous float32
index stores, the stable-sheet-id bookkeeping, tombstone state, the
corpus workbooks — dies with the process.  This package makes a
workspace reloadable:

* **Snapshots** (:mod:`repro.persistence.snapshot`) serialize a
  workspace to an mmap-friendly on-disk layout: raw ``.npy`` matrix
  blocks under ``arrays/``, corpus workbooks as ``sheet/io.py`` JSON
  under ``workbooks/``, and one ``manifest.json`` tying them together
  with an *enforced* ``format_version``.
* **The mutation log** (:mod:`repro.persistence.log`) is an append-only
  JSONL stream of the add/remove/edit operations applied since the last
  snapshot — the same op vocabulary as :mod:`repro.testing`'s workload
  generator — replayed on load and *compacted* into a fresh snapshot by
  ``save()``.
* **Restore wiring** lives on the workspace itself:
  :meth:`~repro.service.Workspace.save` /
  :meth:`~repro.service.Workspace.load` rebuild serving state whose
  answers are bit-identical to a fresh fit on the equivalent corpus — the
  fresh-fit-parity invariant checker in ``repro.testing`` is the
  acceptance harness.
"""

from repro.persistence.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotFormatError,
    load_arrays,
    load_corpus,
    read_manifest,
    save_arrays,
    save_corpus,
    sheet_resolver,
    write_manifest,
)
from repro.persistence.log import (
    LOG_FORMAT_VERSION,
    MutationLog,
    MutationLogError,
    apply_mutation,
    edit_entry,
    add_entry,
    remove_entry,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotFormatError",
    "load_arrays",
    "load_corpus",
    "read_manifest",
    "save_arrays",
    "save_corpus",
    "sheet_resolver",
    "write_manifest",
    "LOG_FORMAT_VERSION",
    "MutationLog",
    "MutationLogError",
    "apply_mutation",
    "add_entry",
    "edit_entry",
    "remove_entry",
]
