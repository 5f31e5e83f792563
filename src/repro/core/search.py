"""LES³ query processing (paper §3.1, §6): range and kNN search over TGM.

:class:`LocalLES3` is driver-resident filter-and-verify with exact
bookkeeping (candidates verified, similarity computations, matrix
elements accessed). It serves the latency micro-benchmarks, the HTGM
cost experiment (§7.7) and the disk I/O model (§7.6) — the role the
paper's single-node C++ engine plays. :func:`ranked` and :class:`TopK`
give every local engine its one answer order, ``(-sim, sid)``.

``SparkLES3`` lives in :mod:`repro.spark_backend` with all pyspark code.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, count
from typing import List, Sequence, Tuple

import numpy as np

from .packed import PackedSets, PreparedQuery
from .tgm import HTGM, TGM


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


class LocalLES3:
    """Filter-and-verify over a driver-resident database.

    The index is a list of TGM levels, coarse to fine: an HTGM's levels
    and child maps, or a TGM, which is the one-level case.
    The sets are stored group by group in the order of the finest level,
    so group ``g`` is the run ``gstart[g]:gstart[g + 1]`` of stored
    positions in the shared verify kernel (see core/packed.py), which
    every engine uses so that constant factors are comparable.

    Groups are pruned and ordered by the TGM bound evaluated over each
    level's size windows (``TGM.smin``, ``TGM.smax``), which is never
    above the TGM bound (Equation 2) and never below a member's
    similarity (:func:`.similarity.group_upper_bounds`).
    ``tgm_candidates`` in the stats counts what Equation (2) alone would
    verify.
    """

    def __init__(self, sets: Sequence[np.ndarray], index: TGM | HTGM, measure: str = "jaccard"):
        self.measure = measure
        hier = isinstance(index, HTGM)
        self.levels, self.children = (index.tgms, index.children) if hier else ([index], [])
        members = self.levels[-1].group_members
        self.gsize = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        self.gstart = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(self.gsize, out=self.gstart[1:])
        order = np.fromiter(chain.from_iterable(members), dtype=np.int64, count=int(self.gstart[-1]))
        self.packed = PackedSets(sets, order)

    def _bounds(self, q: np.ndarray) -> List[np.ndarray]:
        """Per level, coarse to fine, the bounds of every group from one
        read of the level's match counts: row 0 is Equation (2), row 1
        the size-windowed bound. ``q`` is sorted and distinct."""
        return [tgm.upper_bounds(q, self.measure, sized=True) for tgm in self.levels]

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
        """All sets with ``Sim(Q, S) >= delta`` (Definition 2.2): the
        finest groups whose Equation (2) bound and size-windowed bound
        both clear ``delta`` are verified.

        HTGM levels nest, so a finest group's token union lies inside each
        of its ancestors' and no ancestor's Equation (2) bound is below
        its own: pruning coarse to fine keeps exactly the finest groups
        whose own Equation (2) bound clears ``delta``. ``index_elems``
        counts the matrix cells that walk reads, ``|Q|`` per group of the
        first level and per child of each coarser group it keeps.
        """
        st = SearchStats()
        prep = self.packed.prepare(query)
        ubs = self._bounds(prep.tokens)
        eq2, sized = ubs[-1]
        passed = eq2 >= delta
        st.tgm_candidates = int(self.gsize[passed].sum())
        groups = np.flatnonzero(passed & (sized >= delta))
        read = len(ubs[0][0])
        for kids, (u, _) in zip(self.children, ubs):
            read += sum(len(kids[g]) for g in np.flatnonzero(u >= delta).tolist())
        st.index_elems = read * len(prep.tokens)
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
        smaller sids: a finest group tied with the k-th is skipped when
        its first, smallest, sid follows the k-th's, and a later tied
        group may still be verified.
        """
        top = TopK(k)
        members = self.levels[-1].group_members
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
                if not (members[g] and top.dominates(-neg_ub, members[g][0])):
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


def __getattr__(name: str):
    """Lazy re-exports from :mod:`repro.spark_backend` for the
    benchmark, which imports these two names from here."""
    if name in ("SparkLES3", "attach_groups"):
        from .. import spark_backend

        return getattr(spark_backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
