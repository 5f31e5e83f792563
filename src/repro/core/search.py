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

The Spark engines (this one and the Spark baselines) filter, rank and
collect their scored ``(qid, sid, sim)`` rows through :func:`answer`,
except this engine's kNN passes, which are collected as they are and
ranked on the driver.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain, count
from typing import List, Sequence, Tuple

import numpy as np
import pandas as pd

from .packed import PackedSets, PreparedQuery
from .similarity import sim_expr
from .tgm import HTGM, TGM, surviving_groups


@dataclass
class SearchStats:
    """Per-query accounting used by PE and the cost experiments."""

    n_candidates: int = 0  # sets whose similarity to Q was computed
    n_groups_verified: int = 0
    index_elems: int = 0  # index elements touched (TGM cells / postings / R-nodes)
    n_probes: int = 0  # discrete index probes (posting lists, tree descents)
    n_results: int = 0
    # LocalLES3 only: the candidates the TGM bound (Equation 2) alone
    # would verify, without the size window; the paper's PE reads these
    tgm_candidates: int = 0

    def pruning_efficiency(self, n_db: int, k_or_res: int) -> float:
        """Definition 2.3 with ``k_or_res`` = k (kNN) or |R| (range)."""
        return (n_db - (self.n_candidates - k_or_res)) / n_db


@dataclass
class BatchStats:
    per_query: List[SearchStats] = field(default_factory=list)


class LocalLES3:
    """Filter-and-verify over a driver-resident database.

    The index is a list of TGM levels, coarse to fine: the HTGM's levels
    and child maps, or the one TGM given, which is the one-level case.
    The sets are stored group by group in the order of the finest level,
    so group ``g`` is the run ``gstart[g]:gstart[g + 1]`` of stored
    positions in the shared verify kernel (see core/packed.py), which
    every engine uses so that constant factors are comparable.

    Each group also has a window of member sizes, the smallest and
    largest distinct-token count among its members (a coarse group's
    window spans its children's). Groups are pruned and ordered by the
    TGM bound evaluated over that window, which is never above the TGM
    bound (Equation 2) and never below a member's similarity
    (:func:`.similarity.group_upper_bounds`). ``tgm_candidates`` in the
    stats counts what Equation (2) alone would verify.
    """

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
        self.levels, self.children = (htgm.tgms, htgm.children) if htgm else ([tgm], [])
        members = self.levels[-1].group_members
        self.gsize = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        self.gstart = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(self.gsize, out=self.gstart[1:])
        order = np.fromiter(chain.from_iterable(members), dtype=np.int64, count=int(self.gstart[-1]))
        self.packed = PackedSets(sets, order)
        # each finest group's smallest and largest member size ([0, 0]
        # for an empty group), then each coarser level's from its children
        self.smin = np.zeros(len(members), dtype=np.int64)
        self.smax = np.zeros(len(members), dtype=np.int64)
        full = self.gsize > 0
        if full.any():
            starts = self.gstart[:-1][full]
            self.smin[full] = np.minimum.reduceat(self.packed.lens, starts)
            self.smax[full] = np.maximum.reduceat(self.packed.lens, starts)
        lo, hi = self.smin, self.smax
        windows = [(lo, hi)]
        for kids in reversed(self.children):
            lo = np.array([lo[c].min() for c in kids])
            hi = np.array([hi[c].max() for c in kids])
            windows.append((lo, hi))
        # stacked under the window [0, ∞), whose bound is Equation (2)
        self.windows = [
            (np.stack([np.zeros(len(lo)), lo]), np.stack([np.full(len(hi), np.inf), hi]))
            for lo, hi in reversed(windows)
        ]

    def _bounds(self, q: np.ndarray) -> List[np.ndarray]:
        """Per level, coarse to fine, the bounds of every group from one
        read of the level's match counts: row 0 is Equation (2), row 1
        the size-windowed bound. ``q`` is sorted and distinct."""
        return [tgm.upper_bounds(q, self.measure, w) for tgm, w in zip(self.levels, self.windows)]

    def _verify(self, q: PreparedQuery, g: int, st: SearchStats) -> Tuple[np.ndarray, np.ndarray]:
        """Similarities and sids of group ``g``'s members; an empty group
        is not counted as verified."""
        lo, hi = int(self.gstart[g]), int(self.gstart[g + 1])
        if lo == hi:
            return _NO_SIMS, _NO_SIDS
        st.n_candidates += hi - lo
        st.n_groups_verified += 1
        return self.packed.sims_subset(q, slice(lo, hi), self.measure), self.packed.ids[lo:hi]

    # -- range -------------------------------------------------------------
    def range(self, query: np.ndarray, delta: float) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """All sets with ``Sim(Q, S) >= delta`` (Definition 2.2). The
        level walk prunes by Equation (2); a surviving finest group is
        verified if its size-windowed bound also clears ``delta``."""
        st = SearchStats()
        prep = self.packed.prepare(query)
        ubs = self._bounds(prep.tokens)
        groups, st.index_elems = surviving_groups([u[0] for u in ubs], self.children, delta, len(prep.tokens))
        st.tgm_candidates = int(self.gsize[groups].sum())
        groups = groups[ubs[-1][1][groups] >= delta]
        st.n_candidates = int(self.gsize[groups].sum())
        st.n_groups_verified = int(np.count_nonzero(self.gsize[groups]))
        # groups are stored in label order, so each run of consecutive
        # candidate groups is one slice: its edges are where ``on`` flips
        on = np.zeros(len(self.gstart) + 1, dtype=np.int8)
        on[groups + 1] = 1
        sims, sids = [_NO_SIMS], [_NO_SIDS]
        for lo, hi in self.gstart[np.flatnonzero(np.diff(on))].reshape(-1, 2).tolist():
            got = self.packed.sims_subset(prep, slice(lo, hi), self.measure)
            keep = got >= delta
            sims.append(got[keep])
            sids.append(self.packed.ids[lo:hi][keep])
        out = ranked(np.concatenate(sims), np.concatenate(sids))
        st.n_results = len(out)
        return out, st

    # -- kNN ---------------------------------------------------------------
    def knn(self, query: np.ndarray, k: int) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Exact k nearest sets (Definition 2.1), best-first over the
        levels (§3.1, §5.2).

        Groups of every level share one priority queue keyed by their
        size-windowed bound, ties going to the earlier push (for one
        level: the smaller group). A popped finest-level group is
        verified; a popped coarser group is expanded into its children.
        ``index_elems`` counts the matrix cells the walk reads,
        ``|children| · |Q|`` per expansion, so a coarse group the running
        k-th similarity dominates is never expanded, which is where HTGM
        saves index accesses. The search stops once the k-th similarity
        dominates the next bound. Ties at the k-th similarity go to the
        smaller sids.
        """
        top = TopK(k)
        st = SearchStats()
        prep = self.packed.prepare(query)
        n_q = len(prep.tokens)
        ubs = self._bounds(prep.tokens)
        keys = [u[1].tolist() for u in ubs]
        st.index_elems = len(keys[0]) * n_q
        tick = count()
        heap = [(-ub, next(tick), 0, g) for g, ub in enumerate(keys[0])]
        heapq.heapify(heap)
        while heap:
            neg_ub, _, level, g = heapq.heappop(heap)
            if top.dominates(-neg_ub):
                break
            if level == len(self.children):
                top.merge(*self._verify(prep, g, st))
                continue
            kids = self.children[level][g].tolist()
            st.index_elems += len(kids) * n_q
            for c in kids:
                heapq.heappush(heap, (-keys[level + 1][c], next(tick), level + 1, c))
        # Equation (2) alone verifies every group it does not place below
        # the final k-th similarity (every group while fewer than k are held)
        kth = top.sims[-1] if len(top.sims) == k else 0.0
        st.tgm_candidates = int(self.gsize[ubs[-1][0] >= kth].sum())
        return top.answer(st)


_NO_SIMS = np.empty(0, dtype=np.float64)
_NO_SIDS = np.empty(0, dtype=np.int64)


def ranked(sims: np.ndarray, sids: np.ndarray) -> List[Tuple[int, float]]:
    """``(sid, sim)`` pairs in ``(-sim, sid)`` order: the one answer order
    of every engine."""
    by = np.lexsort((sids, -sims))
    return list(zip(sids[by].tolist(), sims[by].tolist()))


def check_k(k: int) -> None:
    """Reject a kNN ``k`` below 1, which no engine can honour."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


class TopK:
    """The best k ``(sim, sid)`` pairs seen so far, in ``(-sim, sid)``
    order, held as numpy arrays: every local engine's kNN answer is the
    first k of :func:`ranked` over the sets it verified."""

    def __init__(self, k: int):
        check_k(k)
        self.k = k
        self.sims, self.sids = _NO_SIMS, _NO_SIDS

    def dominates(self, ub: float, min_sid: int = -1) -> bool:
        """Whether k pairs are held and sets bounded by ``ub``, none of
        them with a sid below ``min_sid``, can hold none that ranks
        before the k-th: a set tied with the k-th ranks before it only
        with a smaller sid."""
        if len(self.sims) < self.k:
            return False
        kth = self.sims[-1]
        return ub < kth or (ub == kth and min_sid > self.sids[-1])

    def merge(self, sims: np.ndarray, sids: np.ndarray) -> None:
        """Fold in verified ``(sims, sids)``; a batch whose best
        similarity is below the k-th leaves the top k as it is."""
        if len(sims) == 0 or self.dominates(sims.max()):
            return
        sims = np.concatenate((self.sims, sims))
        sids = np.concatenate((self.sids, sids))
        by = np.lexsort((sids, -sims))[: self.k]
        self.sims, self.sids = sims[by], sids[by]

    def answer(self, st: SearchStats) -> Tuple[List[Tuple[int, float]], SearchStats]:
        st.n_results = len(self.sims)
        return list(zip(self.sids.tolist(), self.sims.tolist())), st


# ---------------------------------------------------------------------------
# Spark engine
# ---------------------------------------------------------------------------
from pyspark.sql import DataFrame, SparkSession  # noqa: E402
from pyspark.sql import functions as F  # noqa: E402
from pyspark.sql import types as T  # noqa: E402
from pyspark.sql.window import Window  # noqa: E402


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


def query_frame(
    spark: SparkSession,
    queries: Sequence[np.ndarray],
    groups: Sequence[np.ndarray] | None = None,
) -> DataFrame:
    """The query batch as ``(qid, q_tokens)``, each query's distinct
    tokens, or with ``groups[qid]`` given as ``(qid, gid, q_tokens)``,
    one row per candidate group of each query."""
    toks = [np.unique(q).tolist() for q in queries]
    cols = {"qid": np.arange(len(toks), dtype=np.int64)}
    if groups is not None:
        cols = {
            "qid": np.repeat(cols["qid"], [len(g) for g in groups]),
            "gid": np.concatenate([_NO_SIDS, *groups]).astype(np.int64),
        }
    pdf = pd.DataFrame({**cols, "q_tokens": [toks[i] for i in cols["qid"]]})
    fields = [T.StructField(c, T.LongType(), False) for c in cols]
    schema = T.StructType(fields + [T.StructField("q_tokens", T.ArrayType(T.LongType()), False)])
    return spark.createDataFrame(pdf, schema=schema)


def answer(scored: DataFrame, *, delta: float | None = None, k: int | None = None) -> pd.DataFrame:
    """The one answer stage of every Spark engine: from a scored
    ``(qid, sid, sim)`` frame keep ``sim >= delta`` (range) or each
    query's first k rows in ``(-sim, sid)`` order (kNN), and collect
    them ordered by ``(qid, -sim, sid)``."""
    if delta is not None:
        scored = scored.where(F.col("sim") >= delta)
    if k is not None:
        w = Window.partitionBy("qid").orderBy(F.desc("sim"), "sid")
        scored = scored.withColumn("rn", F.row_number().over(w)).where(F.col("rn") <= k).drop("rn")
    return scored.orderBy("qid", F.desc("sim"), "sid").toPandas()


class SparkLES3:
    """Distributed LES³: TGM-driven candidate groups broadcast-joined
    against the group-partitioned database, verified with
    :func:`.similarity.sim_expr` under any of the three measures.

    A batch is planned on the driver as one query × group matrix of
    upper bounds; a boolean mask over it says which groups each query
    verifies."""

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

    def _bounds(self, queries: Sequence[np.ndarray]) -> np.ndarray:
        """``ubs[qid, g]``: the TGM upper bound of every group per query."""
        ubs = [self.tgm.upper_bounds(q, self.measure) for q in queries]
        return np.array(ubs, dtype=np.float64).reshape(len(queries), self.tgm.n_groups)

    def _scored(self, queries: Sequence[np.ndarray], mask: np.ndarray) -> DataFrame:
        """``(qid, sid, sim)`` of every member of the groups in ``mask``."""
        qdf = query_frame(self.spark, queries, [np.flatnonzero(m) for m in mask])
        joined = self.data.join(F.broadcast(qdf), "gid")
        return joined.select("qid", "sid", sim_expr(self.measure).alias("sim"))

    def _stats(self, queries: Sequence[np.ndarray], mask: np.ndarray, out: pd.DataFrame) -> BatchStats:
        """Each query's ``SearchStats`` from the groups it verified and its answer rows."""
        n_candidates = mask @ self.tgm.group_sizes
        n_groups = mask.sum(axis=1)
        n_results = np.bincount(out["qid"].to_numpy(dtype=np.int64), minlength=len(queries))
        return BatchStats([
            SearchStats(
                n_candidates=int(n_candidates[qid]),
                n_groups_verified=int(n_groups[qid]),
                index_elems=self.tgm.n_groups * len(np.unique(q)),
                n_results=int(n_results[qid]),
            )
            for qid, q in enumerate(queries)
        ])

    # -- range -------------------------------------------------------------
    def range_batch(
        self, queries: Sequence[np.ndarray], delta: float
    ) -> Tuple[pd.DataFrame, BatchStats]:
        """One Spark job answers the whole query batch exactly: every
        group with ``UB >= delta`` is verified."""
        mask = self._bounds(queries) >= delta
        out = pd.DataFrame(columns=["qid", "sid", "sim"])
        if mask.any():
            out = answer(self._scored(queries, mask), delta=float(delta))
        return out, self._stats(queries, mask, out)

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
        Both passes collect their scored rows as they are; the top k are
        taken on the driver.
        """
        check_k(k)
        ubs = self._bounds(queries)
        order = np.argsort(-ubs, axis=1, kind="stable")
        held = np.cumsum(self.tgm.group_sizes[order], axis=1)
        # seed groups: UB-best first, up to the first whose running size reaches k
        need = (held < k).sum(axis=1) + 1
        seed = np.zeros_like(ubs, dtype=bool)
        np.put_along_axis(seed, order, np.arange(ubs.shape[1]) < need[:, None], axis=1)
        rows = self._scored(queries, seed).toPandas().sort_values(["qid", "sim"], ascending=[True, False])
        kth = rows.groupby("qid").nth(k - 1)
        t = np.zeros(len(queries))  # 0 where pass 1 found fewer than k rows
        t[kth["qid"].to_numpy(dtype=np.int64)] = kth["sim"].to_numpy()
        rest = (ubs >= t[:, None]) & ~seed
        if rest.any():
            rows = pd.concat([rows, self._scored(queries, rest).toPandas()], ignore_index=True)
        out = (
            rows.sort_values(["qid", "sim", "sid"], ascending=[True, False, True])
            .groupby("qid")
            .head(k)
            .reset_index(drop=True)
        )
        return out, self._stats(queries, seed | rest, out)
