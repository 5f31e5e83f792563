"""Brute-force set similarity search (paper §7.6's completeness baseline).

Local variant scans every set; the Spark variant broadcasts the query
batch against the full database — one sequential pass, which is exactly
why the paper finds brute force competitive at low thresholds / large k
in the disk-based setting (a single contiguous scan beats many random
index probes).
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pandas as pd

from ..core.packed import PackedSets
from ..core.search import SearchStats, TopK, answer, check_k, query_frame, ranked
from ..core.similarity import sim_expr


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


from pyspark.sql import DataFrame, SparkSession  # noqa: E402
from pyspark.sql import functions as F  # noqa: E402


class SparkBrute:
    """Full-scan verification of the whole database per query batch
    (Jaccard only)."""

    def __init__(self, spark: SparkSession, data: DataFrame):
        self.spark = spark
        self.data = data  # (sid, tokens [, gid])

    def _scored(self, queries: Sequence[np.ndarray]) -> DataFrame:
        qdf = query_frame(self.spark, queries)
        return self.data.crossJoin(F.broadcast(qdf)).select(
            "qid", "sid", sim_expr("jaccard").alias("sim")
        )

    def range_batch(self, queries: Sequence[np.ndarray], delta: float) -> pd.DataFrame:
        return answer(self._scored(queries), delta=delta)

    def knn_batch(self, queries: Sequence[np.ndarray], k: int) -> pd.DataFrame:
        check_k(k)
        return answer(self._scored(queries), k=k)
