"""On-disk snapshot layout: manifest + raw array blocks + corpus JSON.

A snapshot is one directory::

    <snapshot>/
        manifest.json        # format_version, workspace kind, bookkeeping
        workbooks/000.json   # corpus workbooks, in corpus order
        workbooks/001.json
        arrays/<name>.npy    # raw index stores and position maps
        mutations.log        # append-only mutation log (see persistence.log)

The array blocks are plain ``.npy`` files written with :func:`numpy.save`
so loaders can memory-map them (:func:`load_arrays` does, by default):
the index stores adopt the maps read-only and only copy on the next
write, which is what makes reloading a large corpus cheap — the
cold-start benchmark (``benchmarks/test_fig_coldstart.py``) measures
exactly this against a fresh fit.

``format_version`` is enforced, not decorative: :func:`read_manifest`
raises :class:`SnapshotFormatError` on a missing, malformed or
future-version manifest instead of deserializing garbage, and the corpus
workbooks go through ``sheet/io.py``'s typed
:class:`~repro.sheet.io.WorkbookFormatError` validation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from repro.sheet.io import load_workbook_json, save_workbook_json
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: Version of the snapshot directory layout (manifest + blocks + corpus).
SNAPSHOT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
ARRAYS_DIR = "arrays"
WORKBOOKS_DIR = "workbooks"
MUTATION_LOG_NAME = "mutations.log"


class SnapshotFormatError(ValueError):
    """A snapshot directory is missing, corrupt, or of an unknown version."""


def write_manifest(directory: Union[str, Path], manifest: Dict[str, object]) -> Path:
    """Write ``manifest.json`` (stamping the current format version)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = dict(manifest)
    body["format_version"] = SNAPSHOT_FORMAT_VERSION
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(body, ensure_ascii=False), encoding="utf-8")
    return path


def read_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """Read and validate ``manifest.json``; the format version is enforced."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise SnapshotFormatError(f"no snapshot manifest at {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(f"unreadable snapshot manifest {path}: {error}") from error
    if not isinstance(manifest, dict):
        raise SnapshotFormatError(f"snapshot manifest {path} is not a JSON object")
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot {path} has format_version {version!r}; this build reads "
            f"version {SNAPSHOT_FORMAT_VERSION}"
        )
    return manifest


def save_arrays(directory: Union[str, Path], arrays: Dict[str, np.ndarray]) -> List[str]:
    """Write every array as ``arrays/<name>.npy``; returns the names written."""
    arrays_dir = Path(directory) / ARRAYS_DIR
    arrays_dir.mkdir(parents=True, exist_ok=True)
    for name, block in arrays.items():
        np.save(arrays_dir / f"{name}.npy", np.ascontiguousarray(block))
    return sorted(arrays)


def load_arrays(
    directory: Union[str, Path], names: Sequence[str], mmap: bool = True
) -> Dict[str, np.ndarray]:
    """Load the named ``.npy`` blocks, memory-mapped read-only by default."""
    arrays_dir = Path(directory) / ARRAYS_DIR
    arrays: Dict[str, np.ndarray] = {}
    for name in names:
        path = arrays_dir / f"{name}.npy"
        if not path.exists():
            raise SnapshotFormatError(f"snapshot is missing array block {path}")
        arrays[name] = np.load(path, mmap_mode="r" if mmap else None)
    return arrays


def save_corpus(directory: Union[str, Path], workbooks: Sequence[Workbook]) -> List[str]:
    """Write the corpus workbooks in order as ``workbooks/NNN.json``.

    Files are numbered rather than named after the workbooks (names are
    user data and may not be filesystem-safe); the workbook name lives
    inside each JSON document and corpus order is the numbering.
    """
    corpus_dir = Path(directory) / WORKBOOKS_DIR
    corpus_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for position, workbook in enumerate(workbooks):
        filename = f"{position:03d}.json"
        save_workbook_json(workbook, corpus_dir / filename)
        files.append(filename)
    return files


def load_corpus(directory: Union[str, Path], files: Sequence[str]) -> List[Workbook]:
    """Load the corpus workbooks named by the manifest, in corpus order."""
    corpus_dir = Path(directory) / WORKBOOKS_DIR
    workbooks = []
    for filename in files:
        path = corpus_dir / str(filename)
        if not path.exists():
            raise SnapshotFormatError(f"snapshot is missing corpus workbook {path}")
        workbooks.append(load_workbook_json(path))
    return workbooks


def sheet_resolver(workbooks: Sequence[Workbook]) -> Callable[[str, str], Sheet]:
    """A ``(workbook name, sheet name) -> Sheet`` resolver over a corpus.

    Used to re-wire a restored predictor's reference-sheet registry onto
    the restored corpus's *live* sheet objects, so the workspace serves
    and edits the same objects its predictor indexed.  Live stable ids
    name (workbook, sheet) pairs uniquely — a remove always tombstones
    the old id before a re-add assigns a new one — so the lookup is
    unambiguous.
    """
    by_name: Dict[str, Workbook] = {workbook.name: workbook for workbook in workbooks}

    def resolve(workbook_name: str, sheet_name: str) -> Sheet:
        workbook = by_name.get(workbook_name)
        if workbook is None or sheet_name not in workbook:
            raise SnapshotFormatError(
                f"snapshot references sheet {workbook_name!r}/{sheet_name!r}, "
                "which the stored corpus does not contain"
            )
        return workbook.get_sheet(sheet_name)

    return resolve


def mutation_log_path(directory: Union[str, Path]) -> Path:
    """The snapshot directory's mutation-log path."""
    return Path(directory) / MUTATION_LOG_NAME
