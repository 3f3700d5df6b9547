"""On-disk snapshots: one crash-atomic generation directory per save.

A snapshot directory holds a pointer and the generation it names::

    <snapshot>/
        CURRENT              # "gen-N\\n": the generation a load reads
        gen-N/
            manifest.json    # format_version 2, kind, predictor state,
                             # workbook names, the array offset table
            corpus.jsonl     # one workbook per line, in corpus order
            arrays.bin       # every array block back to back, 64-byte aligned
            mutations.log    # this generation's mutation log (persistence.log)

A corpus line is :func:`encode_workbook`'s text: ``sheet/io.py``'s
workbook dict as one ``json.dumps(..., ensure_ascii=False)``, which
escapes every newline inside a string, so a line ends only at ``\\n``.
The manifest's ``arrays`` entry lists each block's ``name``, ``dtype``,
``shape`` and byte ``offset`` in ``arrays.bin``; :func:`load_arrays` maps
each one read-only with ``np.memmap(offset=...)`` (or reads a copy), so a
cold start stays a map, and an empty block loads as an empty array.

**Writing a generation** (:func:`save_generation`) follows the crash rules
of Pillai et al., "All File Systems Are Not Created Equal" (OSDI 2014):

1. write ``gen-N/`` (``N`` one past every generation present), each file
   fsynced as it is written (:func:`save_corpus`, :func:`save_arrays`,
   :func:`write_manifest`) but the log, whose header-only start needs
   none (a log that lost it reads as empty);
2. fsync ``gen-N/`` and the snapshot directory, so the new entries exist;
3. write ``CURRENT.tmp`` naming ``gen-N`` and fsync it;
4. ``os.replace`` it onto ``CURRENT``, then fsync the snapshot directory;
5. delete every other generation, and any format-1 entry.

Whatever step a crash stops at, ``CURRENT`` names one whole generation:
the new one from step 4 on, the old one before.  The mutation log lives
inside its generation, so the flip switches snapshot and log together: a
generation's log holds exactly the entries after its snapshot, and a
crash can neither lose them nor replay entries the snapshot already
holds.  A generation ``CURRENT`` does not name is what an interrupted
save left; :func:`load_corpus` and friends never read it, and the next
save deletes it and reports it (the workspace counts it as
``persistence.orphan_generations_total``).

``format_version`` is enforced, not decorative: :func:`read_manifest`
raises :class:`SnapshotFormatError` on a missing, malformed or
unknown-version manifest, or a ``CURRENT`` that names no generation,
instead of deserializing garbage, and the corpus workbooks go through
``sheet/io.py``'s typed :class:`~repro.sheet.io.WorkbookFormatError`
validation.

**Format 1** — ``manifest.json``, ``workbooks/NNN.json`` per workbook,
``arrays/<name>.npy`` per block and ``mutations.log`` at the top of the
directory, no ``CURRENT`` — is still read by the same calls (a directory
without ``CURRENT`` is format 1), and is no longer written: the first
save into such a directory deletes it after its own flip.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sheet.io import workbook_from_dict, workbook_to_dict
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook

#: Version of the snapshot layout (``CURRENT`` + one generation directory).
SNAPSHOT_FORMAT_VERSION = 2

#: The layout before generations; read, never written.
_FORMAT_1 = 1

CURRENT_NAME = "CURRENT"
MANIFEST_NAME = "manifest.json"
CORPUS_NAME = "corpus.jsonl"
ARRAYS_NAME = "arrays.bin"
MUTATION_LOG_NAME = "mutations.log"

_CURRENT_TMP = CURRENT_NAME + ".tmp"
_GENERATION = re.compile(r"gen-([1-9][0-9]*)")
#: Byte alignment of every block in ``arrays.bin``.
_ALIGNMENT = 64
#: What format 1 keeps at the top of a snapshot directory.
_FORMAT_1_WORKBOOKS, _FORMAT_1_ARRAYS = "workbooks", "arrays"
_FORMAT_1_ENTRIES = (MANIFEST_NAME, _FORMAT_1_WORKBOOKS, _FORMAT_1_ARRAYS, MUTATION_LOG_NAME)


class SnapshotFormatError(ValueError):
    """A snapshot directory is missing, corrupt, or of an unknown version."""


def encode_workbook(workbook: Workbook) -> bytes:
    """A workbook's corpus line (UTF-8, no trailing newline)."""
    return json.dumps(workbook_to_dict(workbook), ensure_ascii=False).encode("utf-8")


# ------------------------------------------------------------ durable files


def _write_file(path: Union[str, Path], chunks: Iterable) -> None:
    """Create (or truncate) ``path``, write ``chunks`` (bytes-like) and
    fsync it before returning."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            while view:
                view = view[os.write(fd, view) :]
        os.fsync(fd)
    finally:
        os.close(fd)


def _sync_directory(path: Union[str, Path]) -> None:
    """fsync a directory, so the entries created or renamed in it last."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ------------------------------------------------------------- generations


def _pointer(directory: Path) -> Optional[str]:
    """What ``CURRENT`` holds, stripped; ``None`` without one."""
    path = directory / CURRENT_NAME
    try:
        return path.read_bytes().decode("utf-8").strip()
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as error:
        raise SnapshotFormatError(f"unreadable snapshot pointer {path}: {error}") from error


def current_generation(directory: Union[str, Path]) -> Optional[Path]:
    """The generation ``CURRENT`` names, or ``None`` for a directory
    without ``CURRENT`` (a format-1 snapshot, or none at all)."""
    directory = Path(directory)
    name = _pointer(directory)
    if name is None:
        return None
    if not _GENERATION.fullmatch(name):
        raise SnapshotFormatError(
            f"{directory / CURRENT_NAME} holds {name!r}, not a generation name"
        )
    generation = directory / name
    if not generation.is_dir():
        raise SnapshotFormatError(
            f"{directory / CURRENT_NAME} names {name}, which {directory} does not hold"
        )
    return generation


def save_generation(
    directory: Union[str, Path], write: Callable[[Path], None]
) -> Tuple[Path, int]:
    """Write a new generation of the snapshot at ``directory`` with
    ``write(generation)`` and make it current, in the order the module
    docstring gives (``write`` fsyncs what it writes, as
    :func:`save_corpus`, :func:`save_arrays` and :func:`write_manifest` do).

    Returns the new generation and the number of generations found there
    that ``CURRENT`` did not name — what interrupted saves left — which
    step 5 deleted with the previous one.  If ``write`` raises, ``CURRENT``
    still names the previous generation, and the next save deletes the
    partial one.
    """
    directory = Path(directory)
    if not directory.is_dir():
        directory.mkdir(parents=True)
        _sync_directory(directory.parent)
    named = _pointer(directory)
    generations = [
        entry.name
        for entry in os.scandir(directory)
        if _GENERATION.fullmatch(entry.name) and entry.is_dir()
    ]
    number = 1 + max((int(name[4:]) for name in generations), default=0)
    generation = directory / f"gen-{number}"
    generation.mkdir()
    write(generation)
    _sync_directory(generation)
    _sync_directory(directory)
    _write_file(directory / _CURRENT_TMP, [f"{generation.name}\n".encode()])
    os.replace(directory / _CURRENT_TMP, directory / CURRENT_NAME)
    _sync_directory(directory)
    for name in generations:
        shutil.rmtree(directory / name)
    for path in (directory / name for name in _FORMAT_1_ENTRIES):
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            os.unlink(path)
    return generation, sum(1 for name in generations if name != named)


def mutation_log_path(directory: Union[str, Path]) -> Path:
    """The mutation log of the snapshot at ``directory``: the current
    generation's (format 1: the one at the top of the directory)."""
    return (current_generation(directory) or Path(directory)) / MUTATION_LOG_NAME


# ---------------------------------------------------------------- manifest


def write_manifest(directory: Union[str, Path], manifest: Dict[str, object]) -> Path:
    """Write ``manifest.json`` (stamping the current format version), fsynced."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = dict(manifest)
    body["format_version"] = SNAPSHOT_FORMAT_VERSION
    path = directory / MANIFEST_NAME
    _write_file(path, [json.dumps(body, ensure_ascii=False).encode("utf-8")])
    return path


def read_manifest(directory: Union[str, Path]) -> Dict[str, object]:
    """Read and validate the manifest of the snapshot at ``directory``:
    the current generation's, or a format-1 one; the format version is
    enforced."""
    directory = Path(directory)
    generation = current_generation(directory)
    if generation is None:
        return _read_manifest_file(directory / MANIFEST_NAME, _FORMAT_1)
    return _read_manifest_file(generation / MANIFEST_NAME, SNAPSHOT_FORMAT_VERSION)


def _read_manifest_file(path: Path, version: int) -> Dict[str, object]:
    if not path.exists():
        raise SnapshotFormatError(f"no snapshot manifest at {path}")
    try:
        manifest = json.loads(path.read_bytes())
    except (OSError, ValueError) as error:
        raise SnapshotFormatError(f"unreadable snapshot manifest {path}: {error}") from error
    if not isinstance(manifest, dict):
        raise SnapshotFormatError(f"snapshot manifest {path} is not a JSON object")
    if manifest.get("format_version") != version:
        raise SnapshotFormatError(
            f"snapshot {path} has format_version {manifest.get('format_version')!r}; "
            f"this build reads version {version} there"
        )
    return manifest


# ------------------------------------------------------------------ arrays


def save_arrays(directory: Union[str, Path], arrays: Dict[str, np.ndarray]) -> List[Dict[str, object]]:
    """Write every block into ``arrays.bin`` (fsynced), in name order, each
    at the next 64-byte offset; returns the offset table for the manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table: List[Dict[str, object]] = []
    chunks: List[object] = []
    offset = 0
    for name in sorted(arrays):
        block = np.ascontiguousarray(arrays[name])
        padding = -offset % _ALIGNMENT
        if padding:
            chunks.append(bytes(padding))
            offset += padding
        table.append(
            {"name": name, "dtype": block.dtype.str, "shape": list(block.shape), "offset": offset}
        )
        if block.size:
            chunks.append(block.reshape(-1).view(np.uint8))
            offset += block.nbytes
    _write_file(directory / ARRAYS_NAME, chunks)
    return table


def _block(entry: object) -> Tuple[str, np.dtype, Tuple[int, ...], int]:
    """A manifest ``arrays`` entry, validated: name, dtype, shape, offset."""
    try:
        name, dtype = entry["name"], np.dtype(entry["dtype"])  # type: ignore[index]
        shape, offset = tuple(entry["shape"]), entry["offset"]  # type: ignore[index]
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotFormatError(f"malformed array entry {entry!r}: {error}") from error
    numbers = shape + (offset,)
    if (
        not isinstance(name, str)
        or dtype.hasobject
        or not all(type(number) is int and number >= 0 for number in numbers)
    ):
        raise SnapshotFormatError(f"malformed array entry {entry!r}")
    return name, dtype, shape, offset


def load_arrays(
    directory: Union[str, Path], entries: Sequence[object], mmap: bool = True
) -> Dict[str, np.ndarray]:
    """Load the blocks the manifest's ``arrays`` entry lists, memory-mapped
    read-only by default (``mmap=False`` reads copies)."""
    directory = Path(directory)
    generation = current_generation(directory)
    if generation is None:
        return _load_npy_blocks(directory, entries, mmap)
    path = generation / ARRAYS_NAME
    try:
        size = path.stat().st_size
    except OSError as error:
        raise SnapshotFormatError(f"snapshot is missing its array file {path}") from error
    arrays: Dict[str, np.ndarray] = {}
    for entry in entries:
        name, dtype, shape, offset = _block(entry)
        count = math.prod(shape)
        if offset + count * dtype.itemsize > size:
            raise SnapshotFormatError(f"array block {name!r} runs past the end of {path}")
        if not count:
            block = np.zeros(shape, dtype)
            block.flags.writeable = not mmap
        elif mmap:
            block = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape)
        else:
            block = np.fromfile(path, dtype=dtype, count=count, offset=offset).reshape(shape)
        arrays[name] = block
    return arrays


def _load_npy_blocks(
    directory: Path, names: Sequence[object], mmap: bool
) -> Dict[str, np.ndarray]:
    """Format 1: one ``arrays/<name>.npy`` per block."""
    arrays: Dict[str, np.ndarray] = {}
    for name in names:
        path = directory / _FORMAT_1_ARRAYS / f"{name}.npy"
        if not path.exists():
            raise SnapshotFormatError(f"snapshot is missing array block {path}")
        arrays[str(name)] = np.load(path, mmap_mode="r" if mmap else None)
    return arrays


# ------------------------------------------------------------------ corpus


def save_corpus(
    directory: Union[str, Path],
    workbooks: Sequence[Workbook],
    encode: Callable[[Workbook], bytes] = encode_workbook,
) -> List[str]:
    """Write ``corpus.jsonl`` (fsynced): ``encode(workbook)`` and a newline
    per workbook, in corpus order.  Returns the workbook names, the
    manifest's ``workbooks`` entry; ``encode`` may hand back a line it
    kept (the workspace's memo) instead of encoding again."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts: List[bytes] = []
    for workbook in workbooks:
        parts.append(encode(workbook))
        parts.append(b"\n")
    _write_file(directory / CORPUS_NAME, [b"".join(parts)])
    return [workbook.name for workbook in workbooks]


def load_corpus_records(
    directory: Union[str, Path], entries: Sequence[object]
) -> List[Tuple[Workbook, Optional[bytes]]]:
    """The stored workbooks in corpus order, each with its corpus line
    (``None`` in a format-1 snapshot, which has none)."""
    directory = Path(directory)
    generation = current_generation(directory)
    if generation is None:
        return [(workbook, None) for workbook in _load_json_files(directory, entries)]
    path = generation / CORPUS_NAME
    try:
        body = path.read_bytes()
    except OSError as error:
        raise SnapshotFormatError(f"snapshot is missing its corpus {path}") from error
    lines = body.split(b"\n")
    if lines.pop() != b"" or len(lines) != len(entries):
        raise SnapshotFormatError(
            f"{path} holds {len(lines)} whole lines; the manifest lists "
            f"{len(entries)} workbooks"
        )
    records = []
    for number, (line, name) in enumerate(zip(lines, entries), start=1):
        try:
            data = json.loads(line)
        except ValueError as error:
            raise SnapshotFormatError(f"corrupt corpus line {number} of {path}: {error}") from error
        workbook = workbook_from_dict(data)
        if workbook.name != name:
            raise SnapshotFormatError(
                f"corpus line {number} of {path} holds {workbook.name!r}; "
                f"the manifest lists {name!r}"
            )
        records.append((workbook, line))
    return records


def load_corpus(directory: Union[str, Path], entries: Sequence[object]) -> List[Workbook]:
    """Load the workbooks the manifest's ``workbooks`` entry lists, in
    corpus order."""
    return [workbook for workbook, __ in load_corpus_records(directory, entries)]


def _load_json_files(directory: Path, files: Sequence[object]) -> List[Workbook]:
    """Format 1: one ``workbooks/NNN.json`` per workbook."""
    workbooks = []
    for filename in files:
        path = directory / _FORMAT_1_WORKBOOKS / str(filename)
        if not path.exists():
            raise SnapshotFormatError(f"snapshot is missing corpus workbook {path}")
        workbooks.append(workbook_from_dict(json.loads(path.read_bytes())))
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
