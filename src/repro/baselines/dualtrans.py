"""DualTrans baseline — transformation-based kNN/range set search [73].

Zhang et al. transform each set into a ``d``-dimensional count vector:
tokens are ranked by global frequency and dealt round-robin into ``d``
buckets; dimension ``i`` of a set's vector counts its tokens in bucket
``i``. For two sets with vectors ``u, v``:

    |A ∩ B| <= Σ_i min(u_i, v_i)      |A ∪ B| >= Σ_i max(u_i, v_i)

so ``Σmin / Σmax`` upper-bounds Jaccard; the same bound extends to
R-tree MBRs (use the per-dimension ``hi`` against the query for the
intersection and ``lo`` for the union), enabling branch-and-bound over
an R-tree of the vectors. kNN is best-first on node bound; range is a
DFS prune. Verification computes true Jaccard on the original sets.
"""
from __future__ import annotations

import heapq
from itertools import count
from typing import List, Sequence, Tuple

import numpy as np

from ..core.packed import PackedSets
from ..core.search import SearchStats, TopK, ranked
from .rtree import RNode, RTree


def token_buckets(sets: Sequence[np.ndarray], n_tokens: int, d: int) -> np.ndarray:
    """token -> dimension map: frequency-ranked round-robin assignment."""
    freq = np.zeros(n_tokens, dtype=np.int64)
    for s in sets:
        freq[s] += 1
    rank = np.argsort(-freq, kind="stable")
    bucket = np.empty(n_tokens, dtype=np.int64)
    bucket[rank] = np.arange(n_tokens) % d
    return bucket


def transform(sets: Sequence[np.ndarray], bucket: np.ndarray, d: int) -> np.ndarray:
    """Count vectors of all sets under the bucket map."""
    out = np.zeros((len(sets), d), dtype=np.float64)
    for i, s in enumerate(sets):
        np.add.at(out[i], bucket[s], 1)
    return out


def _pair_ub(q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    inter = np.minimum(q, hi).sum()
    union = np.maximum(q, lo).sum()
    return float(inter / union) if union > 0 else 0.0


class DualTransEngine:
    """R-tree branch-and-bound over transformed sets (Jaccard only)."""

    def __init__(
        self,
        sets: Sequence[np.ndarray],
        n_tokens: int,
        *,
        d: int = 16,
        fanout: int = 32,
    ):
        self.sets = sets
        self.packed = PackedSets(sets)
        self.bucket = token_buckets(sets, n_tokens, d)
        self.vectors = transform(sets, self.bucket, d)
        self.tree = RTree(self.vectors, fanout=fanout)
        self.d = d

    def _query_vec(self, q: np.ndarray) -> np.ndarray:
        v = np.zeros(self.d, dtype=np.float64)
        qs = np.unique(q)
        np.add.at(v, self.bucket[qs], 1)
        return v

    def range(self, q: np.ndarray, delta: float) -> Tuple[List[Tuple[int, float]], SearchStats]:
        st = SearchStats()
        qv = self._query_vec(q)
        prepared = self.packed.prepare(q)
        sims, sids = [np.empty(0)], [np.empty(0, dtype=np.int64)]
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            st.index_elems += 1  # R-tree nodes inspected
            if _pair_ub(qv, node.lo, node.hi) < delta:
                continue
            if node.is_leaf:
                got = self.packed.sims_subset(prepared, node.point_ids)
                keep = got >= delta
                sims.append(got[keep])
                sids.append(node.point_ids[keep])
                st.n_candidates += len(got)
                st.n_groups_verified += 1
            else:
                stack.extend(node.children)
        out = ranked(np.concatenate(sims), np.concatenate(sids))
        st.n_results = len(out)
        return out, st

    def knn(self, q: np.ndarray, k: int) -> Tuple[List[Tuple[int, float]], SearchStats]:
        top = TopK(k)
        st = SearchStats()
        qv = self._query_vec(q)
        prepared = self.packed.prepare(q)
        # max-heap on node UB via negation; ties go to the earlier push. A
        # node whose bound ties the k-th similarity is skipped once it
        # cannot hold a sid smaller than the k-th's.
        tick = count()
        pq: List[Tuple[float, int, RNode]] = [(-1.0, next(tick), self.tree.root)]
        while pq:
            neg_ub, _, node = heapq.heappop(pq)
            if top.dominates(-neg_ub):
                break
            if top.dominates(-neg_ub, node.min_sid):
                continue
            st.index_elems += 1
            if node.is_leaf:
                top.merge(self.packed.sims_subset(prepared, node.point_ids), node.point_ids)
                st.n_candidates += len(node.point_ids)
                st.n_groups_verified += 1
            else:
                for c in node.children:
                    ub = _pair_ub(qv, c.lo, c.hi)
                    if not top.dominates(ub, c.min_sid):
                        heapq.heappush(pq, (-ub, next(tick), c))
        return top.answer(st)

    def index_bytes(self) -> int:
        """R-tree plus the materialized vectors — what Figure 11 reports.

        This is the paper's point about DualTrans: the transformed data
        plus tree dwarf the TGM bitmap.
        """
        return self.tree.index_bytes() + self.vectors.nbytes
