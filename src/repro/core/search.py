"""LES³ query processing (paper §3.1, §6): range and kNN search over TGM.

Two engines:

- :class:`LocalLES3` — driver-resident filter-and-verify with exact
  bookkeeping (candidates verified, similarity computations, matrix
  elements accessed). Used for latency micro-benchmarks, the HTGM cost
  experiment (§7.7), and the disk I/O model (§7.6) — the same role the
  paper's single-node C++ engine plays.
- :class:`SparkLES3` — the distributed dataflow: the database lives in a
  DataFrame ``(sid, tokens, gid)`` partitioned by group; per-query
  candidate group lists (computed from the broadcastable TGM) are
  broadcast-joined against the data and verified by a built-in array
  expression (:func:`.similarity.sim_expr`). kNN is answered exactly in
  two passes: pass 1 verifies each query's best groups to get a
  k-th-similarity lower bound, pass 2 verifies every group whose UB
  clears that bound.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np
import pandas as pd

from .packed import PackedSets
from .similarity import group_upper_bounds, sim_expr
from .tgm import HTGM, TGM


@dataclass
class SearchStats:
    """Per-query accounting used by PE and the cost experiments."""

    n_candidates: int = 0  # sets whose similarity to Q was computed
    n_groups_verified: int = 0
    index_elems: int = 0  # index elements touched (TGM cells / postings / R-nodes)
    n_probes: int = 0  # discrete index probes (posting lists, tree descents)
    n_results: int = 0

    def pruning_efficiency(self, n_db: int, k_or_res: int) -> float:
        """Definition 2.3 with ``k_or_res`` = k (kNN) or |R| (range)."""
        return (n_db - (self.n_candidates - k_or_res)) / n_db


@dataclass
class BatchStats:
    per_query: List[SearchStats] = field(default_factory=list)

    def mean_pe(self, n_db: int, k_or_res: List[int]) -> float:
        return float(
            np.mean(
                [s.pruning_efficiency(n_db, r) for s, r in zip(self.per_query, k_or_res)]
            )
        )


class LocalLES3:
    """Filter-and-verify over a driver-resident database."""

    def __init__(
        self,
        sets: Sequence[np.ndarray],
        tgm: TGM,
        measure: str = "jaccard",
        htgm: HTGM | None = None,
    ):
        self.sets = sets
        self.tgm = tgm
        self.htgm = htgm
        self.measure = measure
        # shared vectorized verification kernel (see core/packed.py): all
        # engines verify through it so constant factors are comparable
        self.packed = PackedSets(sets)

    # -- range -------------------------------------------------------------
    def range(self, query: np.ndarray, delta: float) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """All sets with ``Sim(Q, S) >= delta`` (Definition 2.2)."""
        st = SearchStats()
        q = np.unique(query)
        if self.htgm is not None:
            cand_groups, st.index_elems = self.htgm.candidate_groups(q, delta, self.measure)
            tgm = self.htgm.fine
        else:
            tgm = self.tgm
            ubs = tgm.upper_bounds(q, self.measure)
            st.index_elems = tgm.n_groups * len(q)
            cand_groups = np.flatnonzero(ubs >= delta)
        out: List[Tuple[int, float]] = []
        for g in cand_groups:
            sids = tgm.group_members[int(g)]
            if not sids:
                continue
            sims = self.packed.sims_subset(q, np.asarray(sids), self.measure)
            st.n_candidates += len(sids)
            st.n_groups_verified += 1
            for s, v in zip(sids, sims):
                if v >= delta:
                    out.append((s, float(v)))
        st.n_results = len(out)
        return sorted(out, key=lambda t: (-t[1], t[0])), st

    # -- kNN ---------------------------------------------------------------
    def knn(self, query: np.ndarray, k: int) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Exact k nearest sets (Definition 2.1), visiting groups in
        UB-descending order and stopping once the running k-th similarity
        dominates the next group's bound."""
        st = SearchStats()
        q = np.unique(query)
        if self.htgm is not None:
            return self._knn_hierarchical(q, k, st)
        tgm = self.tgm
        ubs = tgm.upper_bounds(q, self.measure)
        st.index_elems = tgm.n_groups * len(q)
        order = np.argsort(-ubs, kind="stable")
        heap: List[Tuple[float, int]] = []  # min-heap of (sim, sid)
        for g in order:
            if len(heap) >= k and ubs[g] < heap[0][0]:
                break
            self._verify_group(tgm, int(g), q, k, heap, st)
        res = sorted(((s, v) for v, s in heap), key=lambda t: (-t[1], t[0]))
        st.n_results = len(res)
        return res, st

    def _verify_group(self, tgm, g: int, q, k: int, heap, st: SearchStats) -> None:
        sids = tgm.group_members[g]
        if not sids:
            return
        sims = self.packed.sims_subset(q, np.asarray(sids), self.measure)
        st.n_candidates += len(sids)
        st.n_groups_verified += 1
        for s, v in zip(sids, sims):
            if len(heap) < k:
                heapq.heappush(heap, (float(v), s))
            elif v > heap[0][0]:
                heapq.heapreplace(heap, (float(v), s))

    def _knn_hierarchical(
        self, q: np.ndarray, k: int, st: SearchStats
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Best-first kNN over the HTGM (§5.2/§7.7).

        Groups at every level live in one priority queue keyed by their
        UB. Popping a non-final-level group expands it — computing the
        UBs of its children only then, which is where HTGM saves index
        accesses: a coarse group dominated by the running k-th
        similarity is never expanded, so its children's (much more
        numerous) matrix columns are never read.
        """
        h = self.htgm
        heap: List[Tuple[float, int]] = []
        pq: List[Tuple[float, int, int, int]] = []  # (-ub, tiebreak, level, group)
        counter = 0
        counts0 = h.tgms[0].match_counts(q)
        st.index_elems += h.tgms[0].n_groups * len(q)
        ubs0 = group_upper_bounds(counts0, len(q), self.measure)
        for g, ub in enumerate(ubs0):
            heapq.heappush(pq, (-float(ub), counter, 0, g))
            counter += 1
        last = len(h.tgms) - 1
        while pq:
            neg_ub, _, level, g = heapq.heappop(pq)
            if len(heap) >= k and -neg_ub < heap[0][0]:
                break
            if level == last:
                self._verify_group(h.tgms[last], g, q, k, heap, st)
                continue
            kids = np.asarray(h._children[level][g], dtype=np.int64)
            tgm_next = h.tgms[level + 1]
            qcols = len(np.unique(q))
            counts = tgm_next.match_counts_rows(q, kids)
            st.index_elems += len(kids) * qcols
            for c, ub in zip(kids, group_upper_bounds(counts, qcols, self.measure)):
                heapq.heappush(pq, (-float(ub), counter, level + 1, int(c)))
                counter += 1
        res = sorted(((s, v) for v, s in heap), key=lambda t: (-t[1], t[0]))
        st.n_results = len(res)
        return res, st


# ---------------------------------------------------------------------------
# Spark engine
# ---------------------------------------------------------------------------
from pyspark.sql import DataFrame, SparkSession  # noqa: E402
from pyspark.sql import functions as F  # noqa: E402
from pyspark.sql import types as T  # noqa: E402


RESULT_SCHEMA = "qid bigint, sid bigint, sim double"


def attach_groups(
    spark: SparkSession, df: DataFrame, groups: np.ndarray
) -> DataFrame:
    """Join group labels ``groups[sid]`` onto ``(sid, tokens)`` and
    repartition by group — the physical layout LES³ relies on (groups
    are verified together; on disk they are stored contiguously). There are
    as many partitions as groups, not the session's shuffle-partition
    count, so a small index does not schedule mostly empty tasks."""
    gpdf = pd.DataFrame(
        {"sid": np.arange(len(groups), dtype=np.int64), "gid": groups.astype(np.int64)}
    )
    gdf = spark.createDataFrame(gpdf)
    return df.join(gdf, "sid").repartition(max(1, len(np.unique(groups))), "gid")


def _count_results(out: pd.DataFrame, stats: BatchStats) -> None:
    """Set each query's ``n_results`` to its row count in ``out``."""
    counts = out.groupby("qid").size()
    for qid, st in enumerate(stats.per_query):
        st.n_results = int(counts.get(qid, 0))


class SparkLES3:
    """Distributed LES³: TGM-driven candidate groups broadcast-joined
    against the group-partitioned database, verified with
    :func:`.similarity.sim_expr` under any of the three measures."""

    def __init__(
        self,
        spark: SparkSession,
        data: DataFrame,  # (sid, tokens, gid) — gid must match tgm group ids
        tgm: TGM,
        measure: str = "jaccard",
    ):
        self.spark = spark
        self.data = data
        self.tgm = tgm
        self.measure = measure

    def _query_df(self, queries: Sequence[np.ndarray], cand: List[np.ndarray]) -> DataFrame:
        rows = []
        for qid, (q, gs) in enumerate(zip(queries, cand)):
            for g in gs:
                rows.append((qid, int(g), [int(t) for t in np.unique(q)]))
        pdf = pd.DataFrame(rows, columns=["qid", "gid", "q_tokens"])
        schema = T.StructType(
            [
                T.StructField("qid", T.LongType(), False),
                T.StructField("gid", T.LongType(), False),
                T.StructField("q_tokens", T.ArrayType(T.LongType()), False),
            ]
        )
        return self.spark.createDataFrame(pdf, schema=schema)

    def _verify(self, qdf: DataFrame, delta: float) -> DataFrame:
        joined = self.data.join(F.broadcast(qdf), "gid")
        scored = joined.select("qid", "sid", sim_expr(self.measure).alias("sim"))
        return scored.where(F.col("sim") >= delta)

    # -- range -------------------------------------------------------------
    def range_batch(
        self, queries: Sequence[np.ndarray], delta: float
    ) -> Tuple[pd.DataFrame, BatchStats]:
        """One Spark job answers the whole query batch exactly."""
        stats = BatchStats()
        cand: List[np.ndarray] = []
        for q in queries:
            qu = np.unique(q)
            ubs = self.tgm.upper_bounds(qu, self.measure)
            gs = np.flatnonzero(ubs >= delta)
            cand.append(gs)
            st = SearchStats(
                n_candidates=int(self.tgm.group_sizes[gs].sum()),
                n_groups_verified=len(gs),
                index_elems=self.tgm.n_groups * len(qu),
            )
            stats.per_query.append(st)
        if not any(len(g) for g in cand):
            return pd.DataFrame(columns=["qid", "sid", "sim"]), stats
        out = (
            self._verify(self._query_df(queries, cand), float(delta))
            .orderBy("qid", F.desc("sim"), "sid")
            .toPandas()
        )
        _count_results(out, stats)
        return out, stats

    # -- kNN ---------------------------------------------------------------
    def knn_batch(
        self, queries: Sequence[np.ndarray], k: int
    ) -> Tuple[pd.DataFrame, BatchStats]:
        """Exact batched kNN in two verification passes.

        Pass 1 verifies, per query, the UB-best groups that jointly hold
        at least k sets, establishing a lower bound t_q on the k-th
        similarity. Pass 2 verifies every remaining group with
        ``UB >= t_q``; anything outside has ``Sim <= UB < t_q`` and
        cannot enter the answer, so the union of both passes is exact.
        """
        stats = BatchStats()
        ubs_all: List[np.ndarray] = []
        seed_groups: List[np.ndarray] = []
        for q in queries:
            qu = np.unique(q)
            ubs = self.tgm.upper_bounds(qu, self.measure)
            ubs_all.append(ubs)
            order = np.argsort(-ubs, kind="stable")
            csum = np.cumsum(self.tgm.group_sizes[order])
            need = int(np.searchsorted(csum, k) + 1)
            seed_groups.append(order[: min(need, len(order))])
            stats.per_query.append(
                SearchStats(index_elems=self.tgm.n_groups * len(qu))
            )
        pass1 = (
            self._verify(self._query_df(queries, seed_groups), 0.0)
            .toPandas()
        )
        thresholds: List[float] = []
        for qid in range(len(queries)):
            sims = pass1.loc[pass1["qid"] == qid, "sim"].to_numpy()
            thresholds.append(float(np.partition(sims, -k)[-k]) if len(sims) >= k else 0.0)
        rest: List[np.ndarray] = []
        for qid, (ubs, seeds) in enumerate(zip(ubs_all, seed_groups)):
            mask = ubs >= thresholds[qid]
            mask[seeds] = False
            rest.append(np.flatnonzero(mask))
            st = stats.per_query[qid]
            st.n_groups_verified = len(seeds) + int(mask.sum())
            st.n_candidates = int(
                self.tgm.group_sizes[seeds].sum()
                + self.tgm.group_sizes[np.flatnonzero(mask)].sum()
            )
        frames = [pass1]
        if any(len(g) for g in rest):
            frames.append(self._verify(self._query_df(queries, rest), 0.0).toPandas())
        allres = pd.concat(frames, ignore_index=True)
        top = (
            allres.sort_values(["qid", "sim", "sid"], ascending=[True, False, True])
            .groupby("qid")
            .head(k)
            .reset_index(drop=True)
        )
        _count_results(top, stats)
        return top, stats
