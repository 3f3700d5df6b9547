"""Corpus generation: workbook families, singletons and enterprise corpora."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.corpus.templates import (
    ALL_TEMPLATE_CLASSES,
    SingletonTemplate,
    WorkbookTemplate,
)
from repro.obs import get_tracer
from repro.sheet.sheet import Sheet
from repro.sheet.workbook import Workbook


@dataclass
class CorpusSpec:
    """Parameters describing one synthetic enterprise corpus.

    ``n_families`` template families are created; each produces between
    ``min_copies`` and ``max_copies`` workbooks (the "similar sheets").
    ``n_singletons`` additional workbooks have unique ad-hoc layouts.  The
    ratio of family workbooks to singletons controls the best achievable
    recall of similar-sheet methods, which is how the four enterprise
    corpora differ in the paper.
    """

    name: str
    n_families: int = 6
    min_copies: int = 3
    max_copies: int = 6
    n_singletons: int = 4
    seed: int = 0
    template_classes: Sequence[Type[WorkbookTemplate]] = field(
        default_factory=lambda: ALL_TEMPLATE_CLASSES
    )
    #: Timestamps are drawn uniformly from this range (seconds).
    timestamp_range: Tuple[float, float] = (1_500_000_000.0, 1_700_000_000.0)

    def expected_workbooks(self) -> int:
        """Approximate number of workbooks the spec will produce."""
        return self.n_families * (self.min_copies + self.max_copies) // 2 + self.n_singletons


@dataclass
class EnterpriseCorpus:
    """A named collection of workbooks standing in for one organization."""

    name: str
    workbooks: List[Workbook] = field(default_factory=list)

    # -------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self.workbooks)

    def all_sheets(self) -> List[Tuple[Workbook, Sheet]]:
        """Every ``(workbook, sheet)`` pair in the corpus."""
        return [(workbook, sheet) for workbook in self.workbooks for sheet in workbook]

    def n_sheets(self) -> int:
        """Total number of sheets."""
        return sum(len(workbook) for workbook in self.workbooks)

    def n_formulas(self) -> int:
        """Total number of formula cells."""
        return sum(workbook.n_formulas() for workbook in self.workbooks)

    def sorted_by_timestamp(self) -> List[Workbook]:
        """Workbooks ordered by last-modified time (oldest first)."""
        return sorted(self.workbooks, key=lambda workbook: workbook.last_modified)


class CorpusGenerator:
    """Generates enterprise corpora and training universes from specs."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    # ----------------------------------------------------------------- public

    def generate(self, spec: CorpusSpec) -> EnterpriseCorpus:
        """Generate the corpus described by ``spec``."""
        rng = np.random.default_rng(spec.seed ^ self._seed)
        corpus = EnterpriseCorpus(name=spec.name)
        low, high = spec.timestamp_range

        with get_tracer().span("corpus.generate", corpus=spec.name) as span:
            for family_index in range(spec.n_families):
                template_cls = spec.template_classes[family_index % len(spec.template_classes)]
                template = template_cls(family_index, rng)
                n_copies = int(rng.integers(spec.min_copies, spec.max_copies + 1))
                for copy_index in range(n_copies):
                    timestamp = float(rng.uniform(low, high))
                    corpus.workbooks.append(
                        template.instantiate(rng, copy_index, last_modified=timestamp)
                    )

            for singleton_index in range(spec.n_singletons):
                template = SingletonTemplate(1000 + singleton_index, rng)
                timestamp = float(rng.uniform(low, high))
                corpus.workbooks.append(template.instantiate(rng, 0, last_modified=timestamp))

            order = rng.permutation(len(corpus.workbooks))
            corpus.workbooks = [corpus.workbooks[int(i)] for i in order]
            span.set_attribute("workbooks", len(corpus.workbooks))
        return corpus

    def generate_training_universe(
        self,
        n_families: int = 10,
        copies_per_family: int = 3,
        n_singletons: int = 8,
        seed: Optional[int] = None,
    ) -> List[Workbook]:
        """The stand-in for the 160K-crawl training universe ``U``.

        It only needs to be rich enough for weak supervision to harvest
        positive/negative pairs and for triplet training to converge; the
        trained models are then applied, unchanged, to every enterprise
        corpus (matching the paper's train-once / apply-everywhere setup).
        """
        spec = CorpusSpec(
            name="training-universe",
            n_families=n_families,
            min_copies=copies_per_family,
            max_copies=copies_per_family + 2,
            n_singletons=n_singletons,
            seed=self._seed if seed is None else seed,
        )
        return self.generate(spec).workbooks
