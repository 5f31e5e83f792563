"""Inverted-index baseline (paper §7.6, after Wang et al. [67]).

Standard prefix-filter search over a full token inverted index:

- Tokens are globally ordered by ascending frequency (rarest first) and
  every set's token list is kept in that order.
- Range(δ): a set with ``J(Q,S) >= δ`` must share ``>= ceil(δ|Q|)``
  tokens with Q, hence at least one token in Q's prefix of length
  ``|Q| - ceil(δ|Q|) + 1``; candidates are the union of those postings,
  trimmed by the size filter ``δ|Q| <= |S| <= |Q|/δ``, then verified.
- kNN: the paper's δ-descent adaptation — start at δ=1.0, fetch and
  verify candidates, and lower δ by ``z`` until the running k-th
  similarity reaches δ, which certifies exactness.

The Spark variant generates candidates with a distributed token join
(exploded query prefixes against the postings DataFrame) and verifies
with the shared built-in Jaccard expression; it is Jaccard-only.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pandas as pd

from ..core.packed import PackedSets
from ..core.search import SearchStats
from ..core.similarity import sim_expr
from .brute import SparkBrute


class LocalInvIdx:
    """Driver-resident inverted index with prefix + size filtering."""

    def __init__(self, sets: Sequence[np.ndarray], n_tokens: int):
        self.sets = sets
        self.packed = PackedSets(sets)
        freq = np.zeros(n_tokens, dtype=np.int64)
        for s in sets:
            freq[s] += 1
        # rank[t): position of token t in the rarest-first global order
        order = np.argsort(freq, kind="stable")
        self.rank = np.empty(n_tokens, dtype=np.int64)
        self.rank[order] = np.arange(n_tokens)
        self.postings: Dict[int, List[int]] = {}
        for sid, s in enumerate(sets):
            for t in s:
                self.postings.setdefault(int(t), []).append(sid)
        self.sizes = np.array([len(s) for s in sets], dtype=np.int64)

    def _prefix(self, q: np.ndarray, delta: float) -> np.ndarray:
        qs = np.unique(q)
        qs = qs[np.argsort(self.rank[qs], kind="stable")]
        plen = len(qs) - int(np.ceil(delta * len(qs))) + 1
        return qs[: max(1, plen)]

    def _candidates(self, q: np.ndarray, delta: float, st: SearchStats) -> np.ndarray:
        qs = np.unique(q)
        cand: set[int] = set()
        for t in self._prefix(qs, delta):
            plist = self.postings.get(int(t), [])
            st.index_elems += len(plist)
            st.n_probes += 1
            cand.update(plist)
        if not cand:
            return np.empty(0, dtype=np.int64)
        ids = np.fromiter(cand, dtype=np.int64)
        sz = self.sizes[ids]
        keep = (sz >= delta * len(qs)) & (sz <= len(qs) / max(delta, 1e-9))
        return ids[keep]

    def range(self, q: np.ndarray, delta: float) -> Tuple[List[Tuple[int, float]], SearchStats]:
        st = SearchStats()
        ids = self._candidates(q, delta, st)
        sims = self.packed.sims_subset(q, ids)
        st.n_candidates = len(ids)
        out = sorted(
            ((int(i), float(v)) for i, v in zip(ids, sims) if v >= delta),
            key=lambda t: (-t[1], t[0]),
        )
        st.n_results = len(out)
        return out, st

    def knn(
        self, q: np.ndarray, k: int, *, z: float = 0.1
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        st = SearchStats()
        seen: Dict[int, float] = {}
        delta = 1.0
        while True:
            ids = self._candidates(q, delta, st)
            new = np.array([i for i in ids if i not in seen], dtype=np.int64)
            sims = self.packed.sims_subset(q, new)
            st.n_candidates += len(new)
            seen.update({int(i): float(v) for i, v in zip(new, sims)})
            top = sorted(seen.items(), key=lambda t: (-t[1], t[0]))[:k]
            kth = top[-1][1] if len(top) >= k else -1.0
            if kth >= delta or delta <= 0.0:
                if len(top) < k:
                    # fewer than k sets share any token with Q: pad the
                    # answer with similarity-0 sets (Definition 2.1 asks
                    # for exactly k results)
                    for sid in range(len(self.sets)):
                        if len(top) >= k:
                            break
                        if sid not in seen:
                            top.append((sid, 0.0))
                            st.n_candidates += 1
                st.n_results = len(top)
                return top, st
            delta = max(0.0, delta - z)

    def index_bytes(self) -> int:
        """Postings entries at 8 bytes each plus the per-set size table."""
        return 8 * sum(len(p) for p in self.postings.values()) + 8 * len(self.sets)


from pyspark.sql import DataFrame, SparkSession  # noqa: E402
from pyspark.sql import functions as F  # noqa: E402
from pyspark.sql import types as T  # noqa: E402


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
        order = np.argsort(freq, kind="stable")
        self.rank = np.empty(n_tokens, dtype=np.int64)
        self.rank[order] = np.arange(n_tokens)
        self.postings = (
            self.data.select(
                "sid", F.size("tokens").alias("sz"), F.explode("tokens").alias("token")
            )
        ).cache()
        self.postings.count()

    def _prefix_df(self, queries: Sequence[np.ndarray], delta: float) -> DataFrame:
        rows = []
        for qid, q in enumerate(queries):
            qs = np.unique(q)
            qs = qs[np.argsort(self.rank[qs], kind="stable")]
            plen = max(1, len(qs) - int(np.ceil(delta * len(qs))) + 1)
            for t in qs[:plen]:
                rows.append((qid, int(t), len(qs)))
        pdf = pd.DataFrame(rows, columns=["qid", "token", "qsz"])
        return self.spark.createDataFrame(pdf, schema="qid bigint, token bigint, qsz bigint")

    def range_batch(self, queries: Sequence[np.ndarray], delta: float) -> pd.DataFrame:
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
        qpdf = pd.DataFrame(
            {
                "qid": np.arange(len(queries), dtype=np.int64),
                "q_tokens": [[int(t) for t in np.unique(q)] for q in queries],
            }
        )
        schema = T.StructType(
            [
                T.StructField("qid", T.LongType(), False),
                T.StructField("q_tokens", T.ArrayType(T.LongType()), False),
            ]
        )
        qdf = self.spark.createDataFrame(qpdf, schema=schema)
        return (
            cands.join(self.data, "sid")
            .join(F.broadcast(qdf), "qid")
            .select("qid", "sid", sim_expr("jaccard").alias("sim"))
            .where(F.col("sim") >= delta)
            .orderBy("qid", F.desc("sim"), "sid")
            .toPandas()
        )

    def knn_batch(
        self, queries: Sequence[np.ndarray], k: int, *, z: float = 0.1
    ) -> pd.DataFrame:
        """δ-descent over the whole batch; a query leaves the loop once its
        running k-th similarity certifies exactness at the current δ."""
        remaining = list(range(len(queries)))
        best: Dict[int, pd.DataFrame] = {}
        delta = 1.0
        while remaining:
            sub = [queries[i] for i in remaining]
            if delta > 0:
                out = self.range_batch(sub, max(delta, 1e-9))
            else:
                out = SparkBrute(self.spark, self.data).range_batch(sub, 0.0)
            out["qid"] = out["qid"].map({i: q for i, q in enumerate(remaining)})
            for qid in list(remaining):
                mine = out[out["qid"] == qid]
                prev = best.get(qid)
                allr = pd.concat([prev, mine]) if prev is not None else mine
                allr = allr.drop_duplicates("sid").sort_values(
                    ["sim", "sid"], ascending=[False, True]
                )
                best[qid] = allr.head(max(k, 1))
                kth = allr["sim"].iloc[k - 1] if len(allr) >= k else -1.0
                if kth >= delta or delta <= 0.0:
                    remaining.remove(qid)
            delta = max(0.0, delta - z) if delta > 0 else -1.0
        frames = []
        for qid, df in best.items():
            d = df.copy()
            d["qid"] = qid
            frames.append(d)
        return (
            pd.concat(frames, ignore_index=True)
            .sort_values(["qid", "sim", "sid"], ascending=[True, False, True])
            .reset_index(drop=True)
        )
