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

At ``δ <= 0`` every set qualifies, sharing a token with Q or not, so
range verifies them all. The Spark variant, ``SparkInvIdx``, lives in
:mod:`repro.spark_backend`.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.packed import PackedSets
from ..core.search import SearchStats, TopK, ranked


def rarest_first(freq: np.ndarray) -> np.ndarray:
    """``rank[t]``: the position of token t in the global order of
    ascending frequency (rarest first, ties by token id)."""
    rank = np.empty(len(freq), dtype=np.int64)
    rank[np.argsort(freq, kind="stable")] = np.arange(len(freq))
    return rank


def prefix(q: np.ndarray, rank: np.ndarray, delta: float) -> np.ndarray:
    """Q's distinct tokens rarest first, cut to the prefix every set with
    ``J(Q, S) >= delta`` shares a token with: ``|Q| - ceil(delta|Q|) + 1``
    tokens, at least one."""
    qs = np.unique(q)
    qs = qs[np.argsort(rank[qs], kind="stable")]
    return qs[: max(1, len(qs) - int(np.ceil(delta * len(qs))) + 1)]


class LocalInvIdx:
    """Driver-resident inverted index with prefix + size filtering."""

    def __init__(self, sets: Sequence[np.ndarray], n_tokens: int):
        self.sets = sets
        self.packed = PackedSets(sets)
        freq = np.zeros(n_tokens, dtype=np.int64)
        for s in sets:
            freq[s] += 1
        self.rank = rarest_first(freq)
        self.postings: Dict[int, List[int]] = {}
        for sid, s in enumerate(sets):
            for t in s:
                self.postings.setdefault(int(t), []).append(sid)
        self.sizes = np.array([len(s) for s in sets], dtype=np.int64)

    def _candidates(self, q: np.ndarray, delta: float, st: SearchStats) -> np.ndarray:
        qs = np.unique(q)
        cand: set[int] = set()
        for t in prefix(qs, self.rank, delta):
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
        ids = self._candidates(q, delta, st) if delta > 0 else np.arange(len(self.sets))
        sims = self.packed.sims_subset(self.packed.prepare(q), ids)
        st.n_candidates = len(ids)
        keep = sims >= delta
        out = ranked(sims[keep], ids[keep])
        st.n_results = len(out)
        return out, st

    def knn(
        self, q: np.ndarray, k: int, *, z: float = 0.1
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        top = TopK(k)
        st = SearchStats()
        seen = np.zeros(len(self.sets), dtype=bool)
        prepared = self.packed.prepare(q)
        delta = 1.0
        while True:
            ids = self._candidates(q, delta, st)
            new = ids[~seen[ids]]
            seen[new] = True
            top.merge(self.packed.sims_subset(prepared, new), new)
            st.n_candidates += len(new)
            if (len(top.sims) >= k and top.sims[-1] >= delta) or delta <= 0.0:
                break
            delta = max(0.0, delta - z)
        # fewer than k sets share any token with Q: pad the answer with
        # the smallest unseen sids at similarity 0 (Definition 2.1 asks
        # for exactly k results)
        pad = np.flatnonzero(~seen)[: k - len(top.sims)]
        top.merge(np.zeros(len(pad)), pad)
        st.n_candidates += len(pad)
        return top.answer(st)

    def index_bytes(self) -> int:
        """Postings entries at 8 bytes each plus the per-set size table."""
        return 8 * sum(len(p) for p in self.postings.values()) + 8 * len(self.sets)
