"""Durable workspaces: snapshot generations plus an append-only mutation log.

Everything the serving layer builds in memory — the contiguous float32
index stores, the stable-sheet-id bookkeeping, tombstone state, the
corpus workbooks — dies with the process.  This package makes a
workspace reloadable:

* **Snapshots** (:mod:`repro.persistence.snapshot`) are generation
  directories ``gen-N/`` named by a ``CURRENT`` pointer: a
  ``manifest.json`` with an *enforced* ``format_version``, the corpus as
  ``corpus.jsonl`` (one ``sheet/io.py`` workbook per line), every index
  block in one ``arrays.bin`` that loads as memory maps, and the
  generation's own mutation log.  A save writes and fsyncs a new
  generation, then flips ``CURRENT`` onto it with ``os.replace``, so a
  crash at any point leaves one whole generation current; a generation
  ``CURRENT`` does not name is an interrupted save, deleted and counted
  by the next save.
* **The mutation log** (:mod:`repro.persistence.log`) is an append-only
  JSONL stream of the add/remove/edit operations applied since its
  generation's snapshot — the same op vocabulary as
  :mod:`repro.testing`'s workload generator — replayed on load.
* **Restore wiring** lives on the workspace itself:
  :meth:`~repro.service.Workspace.save` /
  :meth:`~repro.service.Workspace.load` rebuild serving state whose
  answers are bit-identical to a fresh fit on the equivalent corpus — the
  fresh-fit-parity invariant checker in ``repro.testing`` is the
  acceptance harness.  The workspace keeps each held workbook's corpus
  line until an edit changes the workbook, so a save encodes only what
  changed since the last one.
"""

from repro.persistence.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotFormatError,
    current_generation,
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
    "current_generation",
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
