"""Every engine and helper that needs pyspark, Spark being this
reproduction's distributed substitution for the paper's single-node
engines (DESIGN.md §2).

The database is a DataFrame ``(sid, tokens [, gid])`` (:func:`sets_df`,
:func:`attach_groups`, or TPC-H-style :func:`orders_as_sets`). An engine
broadcast-joins a small query frame against it, scores ``(qid, sid,
sim)`` rows with :func:`.core.similarity.sim_expr` and ends in
:func:`answer`: ``sim >= δ`` is kept in Spark, the rows are collected,
and one numpy sort on the driver ranks them by ``(qid, -sim, sid)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from .baselines.invidx import prefix, rarest_first
from .core.search import SearchStats, check_k
from .core.similarity import sim_expr
from .core.tgm import TGM
from .synth_data import SetDB

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000


def sets_df(spark: SparkSession, db: SetDB) -> DataFrame:
    """Lift a :class:`SetDB` into a Spark DataFrame ``(sid, tokens)``."""
    pdf = pd.DataFrame(
        {"sid": np.arange(len(db.sets), dtype=np.int64),
         "tokens": [s.tolist() for s in db.sets]}
    )
    return spark.createDataFrame(pdf, schema="sid bigint, tokens array<bigint>")


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


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """A TPC-H-style ``lineitem`` table at scale factor ``sf``."""
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders_as_sets(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    """TPC-H tie-in: each order becomes the set of part keys it touches.

    This is the classic dedup-similarity framing of relational data (near
    duplicate orders share parts) and lets the provided DuckDB oracle
    exercise the full pipeline on TPC-H-lite input.
    """
    li = lineitem(spark, sf=sf, seed=seed)
    return (
        li.groupBy(F.col("l_orderkey").alias("sid"))
        .agg(F.array_sort(F.collect_set("l_partkey")).alias("tokens"))
    )


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
            "gid": np.concatenate([np.empty(0, dtype=np.int64), *groups]).astype(np.int64),
        }
    pdf = pd.DataFrame({**cols, "q_tokens": [toks[i] for i in cols["qid"]]})
    schema = "".join(f"{c} bigint, " for c in cols) + "q_tokens array<bigint>"
    return spark.createDataFrame(pdf, schema=schema)


def rank_rows(rows: pd.DataFrame, k: int | None = None) -> pd.DataFrame:
    """Collected ``(qid, sid, sim)`` rows in ``(qid, -sim, sid)`` order,
    cut to each query's first k when ``k`` is given."""
    qid = rows["qid"].to_numpy(dtype=np.int64)
    sid = rows["sid"].to_numpy(dtype=np.int64)
    sim = rows["sim"].to_numpy(dtype=np.float64)
    by = np.lexsort((sid, -sim, qid))
    if k is not None:
        # a row's place within its query: its position less the query's first
        q = qid[by]
        by = by[np.arange(len(by)) - np.searchsorted(q, q) < k]
    return pd.DataFrame({"qid": qid[by], "sid": sid[by], "sim": sim[by]})


def answer(scored: DataFrame, *, delta: float | None = None, k: int | None = None) -> pd.DataFrame:
    """The one answer stage of every Spark engine: from a scored
    ``(qid, sid, sim)`` frame keep ``sim >= delta`` in Spark (range),
    collect, and rank on the driver with :func:`rank_rows`."""
    if delta is not None:
        scored = scored.where(F.col("sim") >= delta)
    return rank_rows(scored.toPandas(), k)


@dataclass
class BatchStats:
    per_query: List[SearchStats]


class SparkLES3:
    """Distributed LES³: TGM-driven candidate groups broadcast-joined
    against the group-partitioned database, verified with
    :func:`.core.similarity.sim_expr` under any of the three measures.

    A batch is planned on the driver from two query × group matrices of
    upper bounds, Equation (2) and the size-windowed bound (DESIGN.md
    §6); a boolean mask over them says which groups each query verifies.
    Each verify stage labels its Spark jobs (``spark.job.description``).
    """

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
        """``(eq2, sized)``: every group's Equation (2) and size-windowed
        bounds per query, two query × group matrices."""
        ubs = [self.tgm.upper_bounds(q, self.measure, sized=True) for q in queries]
        return np.array(ubs, dtype=np.float64).reshape(len(queries), 2, -1).transpose(1, 0, 2)

    def _verify(self, label: str, queries: Sequence[np.ndarray], mask: np.ndarray, **cut) -> pd.DataFrame:
        """:func:`answer` over ``(qid, sid, sim)`` of every member of the
        groups in ``mask``, with its Spark jobs described as ``label``."""
        sc = self.spark.sparkContext
        prev = sc.getLocalProperty("spark.job.description")
        sc.setLocalProperty("spark.job.description", label)
        try:
            qdf = query_frame(self.spark, queries, [np.flatnonzero(m) for m in mask])
            joined = self.data.join(F.broadcast(qdf), "gid")
            return answer(joined.select("qid", "sid", sim_expr(self.measure).alias("sim")), **cut)
        finally:
            sc.setLocalProperty("spark.job.description", prev)

    def _stats(self, queries: Sequence[np.ndarray], mask: np.ndarray, eq2: np.ndarray, out: pd.DataFrame) -> BatchStats:
        """Each query's ``SearchStats`` from the groups it verified, those
        Equation (2) alone would verify (``eq2``) and its answer rows."""
        n_candidates = mask @ self.tgm.group_sizes
        tgm_candidates = eq2 @ self.tgm.group_sizes
        n_groups = mask.sum(axis=1)
        n_results = np.bincount(out["qid"].to_numpy(dtype=np.int64), minlength=len(queries))
        return BatchStats([
            SearchStats(
                n_candidates=int(n_candidates[qid]),
                n_groups_verified=int(n_groups[qid]),
                index_elems=self.tgm.n_groups * len(np.unique(q)),
                n_results=int(n_results[qid]),
                tgm_candidates=int(tgm_candidates[qid]),
            )
            for qid, q in enumerate(queries)
        ])

    def range_batch(
        self, queries: Sequence[np.ndarray], delta: float
    ) -> Tuple[pd.DataFrame, BatchStats]:
        """One Spark job answers the whole query batch exactly: every
        group whose Equation (2) and size-windowed bounds reach
        ``delta`` is verified."""
        eq2, sized = self._bounds(queries)
        passed = eq2 >= delta
        mask = passed & (sized >= delta)
        out = rank_rows(pd.DataFrame(columns=["qid", "sid", "sim"]))
        if mask.any():
            out = self._verify("les3 range verify", queries, mask, delta=float(delta))
        return out, self._stats(queries, mask, passed, out)

    def knn_batch(
        self, queries: Sequence[np.ndarray], k: int
    ) -> Tuple[pd.DataFrame, BatchStats]:
        """Exact batched kNN in two verification passes, by the
        size-windowed bounds.

        Pass 1 verifies every group whose bound reaches the cut: the
        bound of the group at which the running size, best first, reaches
        k. Its k-th row, sim t_q, is one actually found. Pass 2 verifies
        every other group that row does not dominate (as
        :meth:`.core.search.TopK.dominates`). A set outside both passes
        has ``Sim <= bound <= t_q``, with a larger sid than the k-th's at
        equality, so the first k of both passes' rows are exact, whatever
        groups pass 1 took.
        """
        check_k(k)
        eq2, sized = self._bounds(queries)
        order = np.argsort(-sized, axis=1, kind="stable")
        held = np.cumsum(self.tgm.group_sizes[order], axis=1)
        # the best-first place where the running size reaches k (or the last)
        at = np.minimum((held < k).sum(axis=1), sized.shape[1] - 1)
        cut = np.take_along_axis(sized, order, axis=1)[np.arange(len(queries)), at]
        seed = sized >= cut[:, None]
        out = self._verify("les3 knn pass 1", queries, seed, k=k)
        t, sid = _kth(out, len(queries), k)
        first = np.array([m[0] if m else -1 for m in self.tgm.group_members], dtype=np.int64)
        rest = ~seed & ((sized > t[:, None]) | ((sized == t[:, None]) & (first < sid[:, None])))
        if rest.any():
            more = self._verify("les3 knn pass 2", queries, rest)
            out = rank_rows(pd.concat([out, more], ignore_index=True), k)
        # Equation (2) alone verifies every group it does not place below
        # the final k-th similarity
        return out, self._stats(queries, seed | rest, eq2 >= _kth(out, len(queries), k)[0][:, None], out)


def _kth(out: pd.DataFrame, n_queries: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each query's k-th row of a ranked answer, its similarity and sid;
    0 and the largest sid where the query has fewer than k rows."""
    n = np.bincount(out["qid"].to_numpy(dtype=np.int64), minlength=n_queries)
    full, at = n == k, np.cumsum(n)[n == k] - 1
    sims, sids = np.zeros(n_queries), np.full(n_queries, np.iinfo(np.int64).max)
    sims[full], sids[full] = out["sim"].to_numpy(dtype=np.float64)[at], out["sid"].to_numpy(dtype=np.int64)[at]
    return sims, sids


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
        """Each query's first k are taken in Spark by a window, since
        collecting every scored row would collect |Q|·|D| of them."""
        check_k(k)
        w = Window.partitionBy("qid").orderBy(F.desc("sim"), "sid")
        top = self._scored(queries).withColumn("rn", F.row_number().over(w))
        return answer(top.where(F.col("rn") <= k).drop("rn"))


class SparkInvIdx:
    """Distributed prefix-filter search over a postings DataFrame.

    Jaccard only: the prefix and size filters are Jaccard's."""

    def __init__(self, spark: SparkSession, data: DataFrame, n_tokens: int):
        self.spark = spark
        self.data = data.select("sid", "tokens")
        freq_pdf = (
            self.data.select(F.explode("tokens").alias("token"))
            .groupBy("token")
            .count()
            .toPandas()
        )
        freq = np.zeros(n_tokens, dtype=np.int64)
        freq[freq_pdf["token"].to_numpy()] = freq_pdf["count"].to_numpy()
        self.rank = rarest_first(freq)
        self.postings = (
            self.data.select(
                "sid", F.size("tokens").alias("sz"), F.explode("tokens").alias("token")
            )
        ).cache()
        self.postings.count()

    def _prefix_df(self, queries: Sequence[np.ndarray], delta: float) -> DataFrame:
        prefixes = [prefix(q, self.rank, delta) for q in queries]
        lens = [len(p) for p in prefixes]
        pdf = pd.DataFrame({
            "qid": np.repeat(np.arange(len(queries)), lens),
            "token": np.concatenate([np.empty(0, dtype=np.int64), *prefixes]),
            "qsz": np.repeat([len(np.unique(q)) for q in queries], lens),
        })
        return self.spark.createDataFrame(pdf, schema="qid bigint, token bigint, qsz bigint")

    def range_batch(self, queries: Sequence[np.ndarray], delta: float) -> pd.DataFrame:
        """At ``delta <= 0`` every set qualifies, including those sharing
        no token with the query, so the batch is answered by a full scan."""
        if delta <= 0:
            return SparkBrute(self.spark, self.data).range_batch(queries, delta)
        pref = self._prefix_df(queries, delta)
        cands = (
            self.postings.join(F.broadcast(pref), "token")
            .where(
                (F.col("sz") >= delta * F.col("qsz"))
                & (F.col("sz") <= F.col("qsz") / delta)
            )
            .select("qid", "sid")
            .distinct()
        )
        scored = (
            cands.join(self.data, "sid")
            .join(F.broadcast(query_frame(self.spark, queries)), "qid")
            .select("qid", "sid", sim_expr("jaccard").alias("sim"))
        )
        return answer(scored, delta=delta)

    def knn_batch(
        self, queries: Sequence[np.ndarray], k: int, *, z: float = 0.1
    ) -> pd.DataFrame:
        """δ-descent over the whole batch. A range answer at δ holds every
        set with ``Sim >= δ``, so a query with at least k rows there is
        answered by its first k; the others go on to ``δ - z``, down to
        δ = 0, where every set is in the range answer."""
        check_k(k)
        remaining = np.arange(len(queries))
        answers = []
        delta = 1.0
        while len(remaining):
            out = self.range_batch([queries[i] for i in remaining], delta)
            sub_qid = out["qid"].to_numpy()
            done = (np.bincount(sub_qid, minlength=len(remaining)) >= k) | (delta <= 0.0)
            out = out[done[sub_qid]]
            answers.append(out.assign(qid=remaining[out["qid"].to_numpy()]))
            remaining = remaining[~done]
            delta = max(0.0, delta - z)
        return rank_rows(pd.concat(answers, ignore_index=True), k)
