"""The :class:`FormulaService` facade: named workspaces, one per tenant."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.core.config import AutoFormulaConfig
from repro.core.pipeline import AutoFormula
from repro.models.encoder import SheetEncoder
from repro.service.workspace import Workspace
from repro.sheet.workbook import Workbook


class FormulaService:
    """Entry point of the serving layer: a registry of named workspaces.

    One service instance holds the trained :class:`SheetEncoder` (shared
    read-only by every workspace) and manages one :class:`Workspace` per
    organization/tenant, each over an :class:`AutoFormula` predictor built
    from the service's encoder and config.  The evaluation harness
    (``repro.evaluation``), not the service, runs the baselines.
    """

    def __init__(
        self,
        encoder: Optional[SheetEncoder] = None,
        config: Optional[AutoFormulaConfig] = None,
    ) -> None:
        self._encoder = encoder
        self._config = config
        self._workspaces: Dict[str, Workspace] = {}

    # ------------------------------------------------------------- workspaces

    def _default_predictor(self) -> AutoFormula:
        if self._encoder is None:
            raise ValueError(
                "this service was built without an encoder, so it cannot "
                "construct the default AutoFormula predictor"
            )
        return AutoFormula(self._encoder, self._config or AutoFormulaConfig())

    def create_workspace(
        self,
        name: str,
        predictor: Optional[AutoFormula] = None,
        workbooks: Sequence[Workbook] = (),
    ) -> Workspace:
        """Create (and register) a workspace, optionally pre-loading a corpus.

        ``predictor`` overrides the default :class:`AutoFormula`; whatever
        is passed must have its corpus-mutation API (``add_workbooks``,
        ``remove_workbook``, ``reindex_sheet``) and its ``counters`` and
        ``memory_stats``.
        """
        if name in self._workspaces:
            raise ValueError(f"workspace {name!r} already exists")
        if predictor is None:
            predictor = self._default_predictor()
        workspace = Workspace(name, predictor)
        workspace.add_workbooks(workbooks)
        self._workspaces[name] = workspace
        return workspace

    # ------------------------------------------------------------- durability

    def save_workspace(self, name: str, directory: Union[str, Path]) -> Path:
        """Snapshot the workspace called ``name`` to ``directory``.

        Delegates to :meth:`Workspace.save` — afterwards the workspace
        keeps appending its mutations to the snapshot's log, so the
        snapshot stays reloadable and current.
        """
        return self._workspaces[name].save(directory)

    def load_workspace(
        self, directory: Union[str, Path], name: Optional[str] = None
    ) -> Workspace:
        """Restore (and register) a workspace from a snapshot directory.

        The predictor is constructed from the service's shared encoder
        and config, exactly as :meth:`create_workspace` would.  ``name``
        overrides the snapshot's stored workspace name; a name already
        registered raises ``ValueError``, and a manifest of any other
        ``kind`` :class:`~repro.persistence.snapshot.SnapshotFormatError`
        (see :meth:`Workspace.load`).
        """
        workspace = Workspace.load(directory, self._default_predictor(), name=name)
        if workspace.name in self._workspaces:
            raise ValueError(f"workspace {workspace.name!r} already exists")
        self._workspaces[workspace.name] = workspace
        return workspace

    def workspace(self, name: str) -> Workspace:
        """The workspace called ``name`` (raises ``KeyError`` if missing)."""
        return self._workspaces[name]

    def drop_workspace(self, name: str) -> Workspace:
        """Unregister and return the workspace called ``name``."""
        workspace = self._workspaces.pop(name)
        return workspace

    def workspace_names(self) -> List[str]:
        """Registered workspace names, in creation order."""
        return list(self._workspaces)

    def __getitem__(self, name: str) -> Workspace:
        return self.workspace(name)

    def __contains__(self, name: str) -> bool:
        return name in self._workspaces

    def __iter__(self) -> Iterator[Workspace]:
        return iter(self._workspaces.values())

    def __len__(self) -> int:
        return len(self._workspaces)
