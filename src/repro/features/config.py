"""Feature-extraction configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.embedding import TextEmbedder, create_embedder


@dataclass
class FeatureConfig:
    """Controls window geometry and which cell features are used.

    ``use_content_features`` / ``use_style_features`` switch off whole
    feature groups for the Figure 13 ablation.  The paper uses a
    100 x 10 view window; tests and benchmarks default to a smaller window
    so that NumPy training stays fast, which is a pure scale knob.
    """

    window_rows: int = 20
    window_cols: int = 8
    embedder_name: str = "sbert"
    content_embedding_dim: int = 32
    use_content_features: bool = True
    use_style_features: bool = True

    #: Paper-scale values, for reference / EXPERIMENTS.md.
    PAPER_WINDOW_ROWS = 100
    PAPER_WINDOW_COLS = 10

    def create_embedder(self) -> TextEmbedder:
        """Instantiate the configured content embedder."""
        return create_embedder(self.embedder_name, self.content_embedding_dim)

    @property
    def window_cells(self) -> int:
        """Number of cells in a view window."""
        return self.window_rows * self.window_cols
