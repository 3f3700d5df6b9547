"""Brute-force exact nearest-neighbour index."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ann.base import VectorIndex


class ExactIndex(VectorIndex):
    """Scores every stored vector; exact but O(n) per query."""

    def _candidates(self, query: np.ndarray, k: int) -> Optional[np.ndarray]:
        return None
