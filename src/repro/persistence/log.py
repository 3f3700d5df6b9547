"""The append-only mutation log: add/remove/edit ops since a snapshot.

A snapshot freezes a workspace at one corpus version; the mutation log
records what happened after.  Each line is one JSON object — a header
line first, then one entry per corpus mutation using the same op
vocabulary as :data:`repro.testing.workload.OP_KINDS`'s mutating subset
(``add`` / ``remove`` / ``edit``)::

    {"kind": "mutation-log", "format_version": 1}
    {"op": "add", "workbook": {...the workbook's corpus line...}}
    {"op": "edit", "workbook_name": "wb", "sheet_name": "S",
     "address": "B2", "cell": {"value": 3.5}}
    {"op": "remove", "workbook_name": "wb"}

``Workspace.load`` replays the entries, in order and before it returns,
through the workspace's public mutation API (:func:`apply_mutation`) — the
same writer-preferring lock path live traffic takes — so a
restore-from-snapshot+log reaches a state bit-identical to a fresh fit on
the equivalent corpus.  Each snapshot generation has its own log (see
:mod:`repro.persistence.snapshot`), so ``save()`` *compacts* by starting
the new generation's log at a bare header: the old log goes with the old
generation.  An ``add`` entry embeds the workbook's corpus line
(:func:`~repro.persistence.snapshot.encode_workbook`) byte for byte, so a
workspace that already holds that line writes the entry without encoding
the workbook again.

Edit values are encoded through :meth:`repro.sheet.Cell.to_dict` /
``from_dict`` so dates and typed error values survive the round trip
with the exact semantics of the corpus serialization format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.sheet.cell import Cell
from repro.sheet.io import workbook_from_dict

#: Version of the mutation-log line format.
LOG_FORMAT_VERSION = 1

_HEADER_LINE = (
    json.dumps({"kind": "mutation-log", "format_version": LOG_FORMAT_VERSION}) + "\n"
).encode("utf-8")

#: The mutating subset of the workload generator's op vocabulary.
MUTATION_OPS = ("add", "remove", "edit")


class MutationLogError(ValueError):
    """A mutation log is corrupt or of an unknown version."""


def add_entry(workbook_line: bytes) -> bytes:
    """The encoded log entry for an ``add`` of one workbook, from its corpus
    line (state at add time): what ``json.dumps`` of the entry as a dict
    gives, without decoding the line."""
    return b'{"op": "add", "workbook": ' + workbook_line + b"}"


def remove_entry(workbook_name: str) -> Dict[str, object]:
    """Log entry for a ``remove`` of one workbook."""
    return {"op": "remove", "workbook_name": workbook_name}


def edit_entry(
    workbook_name: str,
    sheet_name: str,
    address,
    value=None,
    formula=None,
) -> Dict[str, object]:
    """Log entry for an ``edit_cell`` call (exactly one of value/formula)."""
    entry: Dict[str, object] = {
        "op": "edit",
        "workbook_name": workbook_name,
        "sheet_name": sheet_name,
        "address": address.to_a1() if hasattr(address, "to_a1") else str(address),
    }
    if formula is not None:
        entry["formula"] = formula
    else:
        # Cell's value codec handles dates and typed error values; "" (the
        # explicit blank) survives as-is.
        entry["cell"] = Cell(value=value).to_dict()
    return entry


def apply_mutation(workspace, entry: Dict[str, object]) -> None:
    """Replay one log entry through a workspace's public mutation API."""
    op = entry.get("op")
    if op == "add":
        workspace.add_workbook(workbook_from_dict(entry["workbook"]))
    elif op == "remove":
        workspace.remove_workbook(str(entry["workbook_name"]))
    elif op == "edit":
        if "formula" in entry:
            workspace.edit_cell(
                str(entry["workbook_name"]),
                str(entry["sheet_name"]),
                str(entry["address"]),
                formula=str(entry["formula"]),
            )
        else:
            value = Cell.from_dict(entry.get("cell", {})).value
            workspace.edit_cell(
                str(entry["workbook_name"]),
                str(entry["sheet_name"]),
                str(entry["address"]),
                value="" if value is None else value,
            )
    else:
        raise MutationLogError(f"unknown mutation op {op!r}")


def _decodes(line: bytes) -> bool:
    """Whether ``line`` is whole JSON text — what tells an entry that only
    lacks its newline from the fragment a crash mid-append leaves."""
    try:
        json.loads(line)
    except ValueError:
        return False
    return True


class MutationLog:
    """One append-only JSONL mutation log on disk.

    The log is line-buffered durable: every :meth:`append` opens, writes
    and closes the file, so a crash loses at most the entry being
    written, never earlier ones.  What such a crash leaves is a *torn
    tail*: a final line with no newline that does not decode.  It was
    never acknowledged, so :meth:`read` drops it (counting it in
    :attr:`torn_tails`) and the next :meth:`append` cuts it off instead of
    gluing an entry onto it.  Otherwise reading validates the header
    line's ``format_version``, every line and every entry's op kind,
    raising :class:`MutationLogError` rather than replaying garbage into
    an index.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Torn tails :meth:`read` has dropped.
        self.torn_tails = 0

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, entry: Dict[str, object]) -> None:
        """Append one mutation entry (writing the header first if new)."""
        if entry.get("op") not in MUTATION_OPS:
            raise MutationLogError(f"unknown mutation op {entry.get('op')!r}")
        self.append_encoded(json.dumps(entry, ensure_ascii=False).encode("utf-8"))

    def append_encoded(self, entry: bytes) -> None:
        """Append one entry already encoded as a JSON line without its
        newline (:func:`add_entry`)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = entry + b"\n"
        with self.path.open("a+b") as handle:
            size = handle.tell()
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    size = self._mend_tail(handle)
            if not size:
                line = _HEADER_LINE + line
            handle.write(line)

    @staticmethod
    def _mend_tail(handle) -> int:
        """Make an unterminated log end on a line boundary, returning its
        size: a final line that decodes gets its newline, a torn one is cut."""
        handle.seek(0)
        body = handle.read()
        start = body.rfind(b"\n") + 1
        if _decodes(body[start:]):
            handle.write(b"\n")
            return len(body) + 1
        handle.truncate(start)
        return start

    def read(self) -> List[Dict[str, object]]:
        """All logged mutation entries, in append order (header validated)."""
        if not self.path.exists():
            return []
        entries: List[Dict[str, object]] = []
        # Bytes split on "\n" only: str.splitlines would also break a line
        # at a U+2028 inside a cell's text, and a torn tail may end inside
        # a multi-byte character.
        body = self.path.read_bytes()
        lines = [line for line in body.split(b"\n") if line.strip()]
        if lines and not body.endswith(b"\n") and not _decodes(lines[-1]):
            del lines[-1]
            self.torn_tails += 1
        if not lines:
            return []
        try:
            header = json.loads(lines[0])
        except ValueError as error:
            raise MutationLogError(f"corrupt mutation-log header: {error}") from error
        if not isinstance(header, dict) or header.get("kind") != "mutation-log":
            raise MutationLogError(f"{self.path} is not a mutation log")
        if header.get("format_version") != LOG_FORMAT_VERSION:
            raise MutationLogError(
                f"mutation log {self.path} has format_version "
                f"{header.get('format_version')!r}; this build reads version "
                f"{LOG_FORMAT_VERSION}"
            )
        for number, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
            except ValueError as error:
                raise MutationLogError(
                    f"corrupt mutation log {self.path} at line {number}: {error}"
                ) from error
            if not isinstance(entry, dict) or entry.get("op") not in MUTATION_OPS:
                raise MutationLogError(
                    f"mutation log {self.path} line {number} has unknown op "
                    f"{entry.get('op') if isinstance(entry, dict) else entry!r}"
                )
            entries.append(entry)
        return entries

    def __len__(self) -> int:
        return len(self.read())

    def clear(self) -> None:
        """Start the log afresh at a bare header (what a new snapshot
        generation's log begins as).  Not fsynced: a log that lost its
        header to a crash reads as empty, which it is, and the next
        :meth:`append` writes the header first."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(_HEADER_LINE)
