"""TGM — the token-group matrix bitmap index (paper §3) — and HTGM (§5.2).

``M[g, t] = 1`` iff some set in group ``g`` contains token ``t``
(Equation 1). The matrix is deliberately tiny (one bit per group/token
pair); we store it as a numpy boolean matrix and report its size packed
to bits (the paper additionally Roaring-compresses it — a constant
factor, see DESIGN.md).

The class also implements the update rules of §6: inserting new sets
under a closed universe and under an open universe (previously unseen
tokens grow the matrix).

Construction happens either driver-side from a partitioning, or from a
Spark DataFrame ``(sid, tokens, gid)`` via ``explode → distinct`` — the
distributed path used by the Spark search engine.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .similarity import group_upper_bounds

try:  # Spark is optional at import time so numpy-only tools can use TGM.
    from pyspark.sql import DataFrame
    from pyspark.sql import functions as F
except ImportError:  # pragma: no cover
    DataFrame = None  # type: ignore


class TGM:
    """Bitmap index over ``n`` groups and a (growable) token universe."""

    def __init__(self, n_groups: int, n_tokens_hint: int = 16):
        self.n_groups = n_groups
        self._cols: Dict[int, int] = {}
        self._matrix = np.zeros((n_groups, max(16, n_tokens_hint)), dtype=bool)
        self.group_sizes = np.zeros(n_groups, dtype=np.int64)
        self.group_members: List[List[int]] = [[] for _ in range(n_groups)]

    # -- construction ------------------------------------------------------
    @classmethod
    def from_partition(
        cls, sets: Sequence[np.ndarray], groups: np.ndarray, n_tokens: int | None = None
    ) -> "TGM":
        """Build from a driver-resident database and its group labels.

        Columns are numbered in token order, and one fancy-index
        assignment sets every (group, token) bit. The columns come from
        ``searchsorted``, and the token array is freed before the row
        index is built: on livej-lite that holds 2.7× fewer temporary
        bytes than ``unique(..., return_inverse=True)``.
        """
        labels, gi = np.unique(groups, return_inverse=True)
        lens = [len(s) for s in sets]
        concat = np.concatenate([np.empty(0, dtype=np.int64), *sets]).astype(np.int64, copy=False)
        toks = np.unique(concat)
        cols = np.searchsorted(toks, concat)
        del concat
        tgm = cls(len(labels), max(n_tokens or 16, len(toks)))
        tgm._cols = dict(zip(toks.tolist(), range(len(toks))))
        tgm._matrix[np.repeat(gi, lens), cols] = True
        tgm.group_sizes = np.bincount(gi, minlength=len(labels))
        order = np.argsort(gi, kind="stable")
        tgm.group_members = [m.tolist() for m in np.split(order, np.cumsum(tgm.group_sizes))[:-1]]
        return tgm

    @classmethod
    def from_spark(cls, df: "DataFrame") -> "TGM":
        """Build from a Spark DataFrame ``(sid, tokens, gid)``.

        The bitmap content comes from ``explode(tokens) → distinct`` — a
        full shuffle over the data — and only the (tiny) distinct
        ``(gid, token)`` pairs plus per-group membership lists are
        collected to the driver.
        """
        pairs = (
            df.select("gid", F.explode("tokens").alias("t")).distinct().toPandas()
        )
        members = (
            df.groupBy("gid").agg(F.collect_list("sid").alias("sids")).toPandas()
        )
        gids = np.sort(members["gid"].to_numpy())
        remap = {g: i for i, g in enumerate(gids)}
        tgm = cls(len(gids))
        for _, row in members.iterrows():
            gi = remap[row["gid"]]
            tgm.group_members[gi] = [int(s) for s in row["sids"]]
            tgm.group_sizes[gi] = len(row["sids"])
        for g, t in zip(pairs["gid"].to_numpy(), pairs["t"].to_numpy()):
            tgm._set_bits(remap[int(g)], np.array([int(t)]))
        return tgm

    # -- bit plumbing ------------------------------------------------------
    def _col_of(self, t: int, *, create: bool) -> int | None:
        c = self._cols.get(int(t))
        if c is None and create:
            c = len(self._cols)
            if c >= self._matrix.shape[1]:
                grown = np.zeros((self.n_groups, self._matrix.shape[1] * 2), dtype=bool)
                grown[:, : self._matrix.shape[1]] = self._matrix
                self._matrix = grown
            self._cols[int(t)] = c
        return c

    def _set_bits(self, g: int, toks: np.ndarray) -> None:
        for t in toks:
            # _col_of may grow (rebind) self._matrix; resolve it first.
            c = self._col_of(int(t), create=True)
            self._matrix[g, c] = True

    # -- queries -----------------------------------------------------------
    @property
    def n_tokens(self) -> int:
        return len(self._cols)

    def match_counts(self, query: np.ndarray) -> np.ndarray:
        """Per-group ``|Q ∩ GS_g|`` — the Σ_t M[g,t] of Equation (2)."""
        cols = [self._cols[t] for t in map(int, np.unique(query)) if t in self._cols]
        if not cols:
            return np.zeros(self.n_groups, dtype=np.int64)
        return self._matrix[:, cols].sum(axis=1)

    def match_counts_rows(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``|Q ∩ GS_g|`` for a subset of groups only — the HTGM expansion
        path, which must not touch other groups' rows."""
        cols = [self._cols[t] for t in map(int, np.unique(query)) if t in self._cols]
        rows = np.asarray(rows, dtype=np.int64)
        if not cols:
            return np.zeros(len(rows), dtype=np.int64)
        return self._matrix[np.ix_(rows, cols)].sum(axis=1)

    def upper_bounds(self, query: np.ndarray, measure: str = "jaccard") -> np.ndarray:
        """``UB(Q, G_g)`` for every group (Equation 2 generalized)."""
        q = np.unique(query)
        return group_upper_bounds(self.match_counts(q), len(q), measure)

    # -- updates (paper §6) ------------------------------------------------
    def insert(self, tokens: np.ndarray, sid: int, measure: str = "jaccard") -> int:
        """Insert a set, returning its group.

        Known tokens (``PS = S ∩ T``) vote for the group with the highest
        similarity upper bound; ties break toward the smallest group, in
        line with the balance property of §4. If no token is known, the
        smallest group wins outright. Unseen tokens then grow the matrix
        (open-universe rule) and all of S's bits are set in that group.
        """
        toks = np.unique(tokens)
        known = np.array([t for t in toks if int(t) in self._cols], dtype=np.int64)
        if len(known):
            ubs = group_upper_bounds(self.match_counts(known), len(known), measure)
            best = ubs.max()
            tied = np.flatnonzero(ubs == best)
        else:
            tied = np.arange(self.n_groups)
        g = int(tied[np.argmin(self.group_sizes[tied])])
        self._set_bits(g, toks)
        self.group_sizes[g] += 1
        self.group_members[g].append(sid)
        return g

    # -- accounting --------------------------------------------------------
    def index_bytes(self) -> int:
        """Size of the bitmap packed to bits (what Figure 11 reports)."""
        used = self._matrix[:, : max(1, self.n_tokens)]
        return int(np.packbits(used, axis=None).nbytes)


class HTGM:
    """Hierarchical TGM (paper §5.2): one TGM per cascade level.

    ``levels`` must be coarse→fine label arrays over the same sets (e.g.
    ``L2PResult.levels`` picked at two or more depths). A group pruned at
    a coarse level removes all its fine-level children from
    consideration; :meth:`candidate_groups` returns surviving fine
    groups plus the number of matrix elements consulted (the
    index-access cost measure of §7.7).
    """

    def __init__(self, sets: Sequence[np.ndarray], levels: Sequence[np.ndarray]):
        assert len(levels) >= 1
        self.levels = [np.asarray(l) for l in levels]
        self.tgms = [TGM.from_partition(sets, l) for l in self.levels]
        # child map between consecutive levels, via each level's remap order
        self._children: List[Dict[int, List[int]]] = []
        for a, b in zip(self.levels[:-1], self.levels[1:]):
            la, lb = np.unique(a), np.unique(b)
            ra = {g: i for i, g in enumerate(la)}
            rb = {g: i for i, g in enumerate(lb)}
            ch: Dict[int, List[int]] = {i: [] for i in range(len(la))}
            seen = set()
            for ga, gb in zip(a, b):
                key = (ra[ga], rb[gb])
                if key not in seen:
                    seen.add(key)
                    ch[ra[ga]].append(rb[gb])
            self._children.append(ch)

    @property
    def fine(self) -> TGM:
        return self.tgms[-1]

    def candidate_groups(
        self, query: np.ndarray, threshold: float, measure: str = "jaccard"
    ) -> tuple[np.ndarray, int]:
        """Fine-level groups whose bound survives every level, plus the
        count of matrix elements accessed along the way."""
        q = np.unique(query)
        alive = np.arange(self.tgms[0].n_groups)
        accessed = 0
        for li, tgm in enumerate(self.tgms):
            if li > 0:
                kids: List[int] = []
                for g in alive:
                    kids.extend(self._children[li - 1][int(g)])
                alive = np.asarray(sorted(set(kids)), dtype=np.int64)
            if len(alive) == 0:
                return alive, accessed
            counts = tgm.match_counts(q)[alive]
            accessed += len(alive) * len(q)
            ubs = group_upper_bounds(counts, len(q), measure)
            alive = alive[ubs >= threshold]
        return alive, accessed

    def index_bytes(self) -> int:
        return sum(t.index_bytes() for t in self.tgms)
