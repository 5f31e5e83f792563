"""Brute-force set similarity search (paper §7.6's completeness baseline).

:class:`LocalBrute` scans every set — one sequential pass, which is
exactly why the paper finds brute force competitive at low thresholds /
large k in the disk-based setting (a single contiguous scan beats many
random index probes). The Spark scan, ``SparkBrute``, lives in
:mod:`repro.spark_backend`.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.packed import PackedSets
from ..core.search import SearchStats, TopK, ranked


class LocalBrute:
    """Scan-everything engine with the same interface as LocalLES3."""

    def __init__(self, sets: Sequence[np.ndarray], measure: str = "jaccard"):
        self.sets = sets
        self.measure = measure
        self.packed = PackedSets(sets)

    def _all_sims(self, q: np.ndarray) -> np.ndarray:
        return self.packed.sims(q, self.measure)

    def range(self, q: np.ndarray, delta: float) -> Tuple[List[Tuple[int, float]], SearchStats]:
        sims = self._all_sims(q)
        st = SearchStats(n_candidates=len(self.sets), n_groups_verified=1)
        hits = np.flatnonzero(sims >= delta)
        out = ranked(sims[hits], hits)
        st.n_results = len(out)
        return out, st

    def knn(self, q: np.ndarray, k: int) -> Tuple[List[Tuple[int, float]], SearchStats]:
        top = TopK(k)
        top.merge(self._all_sims(q), np.arange(len(self.sets)))
        return top.answer(SearchStats(n_candidates=len(self.sets), n_groups_verified=1))
