"""Configuration of the online Auto-Formula pipeline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AutoFormulaConfig:
    """Knobs of Algorithm 2.

    ``top_k_sheets`` is the number of candidate reference sheets retrieved
    in S1; ``neighborhood_rows`` / ``neighborhood_cols`` bound the +/- search
    window around a translated parameter location in S3 (the paper's single
    ``d``, split per axis because spreadsheet layouts shift much more along
    rows than columns); ``acceptance_threshold`` is the maximum S2 squared
    embedding distance at which the system still emits a prediction
    (abstaining otherwise keeps precision high at the cost of recall).

    Every field moves answers or memory.  What is bit-identical either way
    — caching query embeddings, collapsing duplicate requests — is not an
    option: the pipeline and the workspace always do it.
    """

    top_k_sheets: int = 3
    neighborhood_rows: int = 8
    neighborhood_cols: int = 2
    acceptance_threshold: float = 0.35
    #: Per-cell score penalty that breaks embedding ties toward the anchor
    #: locations during parameter re-grounding (S3).
    locality_penalty: float = 0.01
    #: Number of target sheets whose query embedding, reduced tensor and S3
    #: region store are retained between ``predict`` calls (least recently
    #: used sheets are evicted first, deterministically).
    max_cached_target_sheets: int = 8
    #: Which model drives which search: "both" (paper), "coarse_only" or
    #: "fine_only" (the Figure 14 ablation).
    granularity: str = "both"

    def __post_init__(self) -> None:
        if self.top_k_sheets <= 0:
            raise ValueError("top_k_sheets must be positive")
        if self.neighborhood_rows <= 0 or self.neighborhood_cols <= 0:
            raise ValueError(
                "neighborhood_rows and neighborhood_cols must be positive, got "
                f"({self.neighborhood_rows}, {self.neighborhood_cols})"
            )
        if self.granularity not in ("both", "coarse_only", "fine_only"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if not 0.0 < self.acceptance_threshold <= 4.0:
            raise ValueError("acceptance_threshold must be in (0, 4]")
        if self.max_cached_target_sheets <= 0:
            raise ValueError("max_cached_target_sheets must be positive")
