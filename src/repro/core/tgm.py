"""TGM — the token-group matrix bitmap index (paper §3) — and HTGM (§5.2).

``M[g, t] = 1`` iff some set in group ``g`` contains token ``t``
(Equation 1). The matrix is stored token-major: ``row_of`` maps each
token present to a row of the boolean array ``bits``, which has one
column per group, so ``M[g, t] = bits[row_of[t], g]``. It holds only the
tokens that occur, never the whole universe, and a query reads one row
per known token. Its size is reported packed to bits (the paper
additionally Roaring-compresses it — a constant factor, see DESIGN.md).

The class also implements the update rules of §6: inserting new sets
under a closed universe and under an open universe (previously unseen
tokens take the next rows, and ``bits`` doubles when they do not fit).
The index is built driver-side from a partitioning; the Spark engine
uses the same group labels.

A group lists its members in sid order (``insert`` is given increasing
sids), and keeps a window of member sizes, ``smin[g]`` to ``smax[g]``,
counted in distinct tokens (``[0, 0]`` while empty), over which both
engines bound it as well as by Equation (2) (DESIGN.md §6).
"""
from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .packed import sorted_distinct
from .similarity import group_upper_bounds


class TGM:
    """Bitmap index over ``n`` groups and a growable set of token rows."""

    def __init__(self, n_groups: int):
        self.n_groups = n_groups
        self.row_of: Dict[int, int] = {}
        self.bits = np.zeros((0, n_groups), dtype=bool)
        self.group_sizes = np.zeros(n_groups, dtype=np.int64)
        self.group_members: List[List[int]] = [[] for _ in range(n_groups)]
        self.smin = np.zeros(n_groups, dtype=np.int64)
        self.smax = np.zeros(n_groups, dtype=np.int64)

    @classmethod
    def from_partition(cls, sets: Sequence[np.ndarray], groups: np.ndarray) -> "TGM":
        """Build from a driver-resident database and its group labels.

        Rows are numbered in token order, and one fancy-index assignment
        sets every (token, group) bit. The rows come from
        ``searchsorted``, and the token array is freed before the group
        index is built: on livej-lite that holds 2.7× fewer temporary
        bytes than ``unique(..., return_inverse=True)``. A set that is
        unsorted or repeats a token is made distinct first, so that the
        size windows count distinct tokens.
        """
        labels, gi = np.unique(groups, return_inverse=True)
        lens = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        concat = np.concatenate([np.empty(0, dtype=np.int64), *sets]).astype(np.int64, copy=False)
        concat, lens = sorted_distinct(concat, lens)
        toks = np.unique(concat)
        rows = np.searchsorted(toks, concat)
        del concat
        tgm = cls(len(labels))
        tgm.row_of = dict(zip(toks.tolist(), range(len(toks))))
        tgm.bits = np.zeros((len(toks), len(labels)), dtype=bool)
        tgm.bits[rows, np.repeat(gi, lens)] = True
        tgm.group_sizes = np.bincount(gi, minlength=len(labels))
        order = np.argsort(gi, kind="stable")
        ends = np.cumsum(tgm.group_sizes)
        tgm.group_members = [m.tolist() for m in np.split(order, ends)[:-1]]
        # every label has a member, so each group is a nonempty run of order
        tgm.smin = np.minimum.reduceat(lens[order], ends - tgm.group_sizes)
        tgm.smax = np.maximum.reduceat(lens[order], ends - tgm.group_sizes)
        return tgm

    @property
    def n_tokens(self) -> int:
        return len(self.row_of)

    def match_counts(self, query: np.ndarray) -> np.ndarray:
        """Per-group ``|Q ∩ GS_g|`` — the Σ_t M[g,t] of Equation (2).
        Tokens outside the index count zero (§3.1)."""
        return self._counts(np.unique(query).tolist())

    def _counts(self, distinct: List[int]) -> np.ndarray:
        """:meth:`match_counts` of tokens already distinct."""
        rows = [r for r in map(self.row_of.get, distinct) if r is not None]
        return self.bits[rows].sum(axis=0)

    def upper_bounds(self, query: np.ndarray, measure: str = "jaccard", sized: bool = False) -> np.ndarray:
        """``UB(Q, G_g)`` for every group (Equation 2 generalized), or
        with ``sized``, two rows from one read of the match counts: row 0
        is Equation (2) and row 1 the bound over each group's size window
        (:func:`.similarity.group_upper_bounds`)."""
        q = np.unique(query).tolist()
        window = (self.smin, self.smax) if sized else None
        return group_upper_bounds(self._counts(q), len(q), measure, window)

    def insert(self, tokens: np.ndarray, sid: int, measure: str = "jaccard") -> int:
        """Insert a set (paper §6), returning its group.

        Known tokens (``PS = S ∩ T``) vote for the group with the highest
        similarity upper bound; ties break toward the smallest group, in
        line with the balance property of §4. If no token is known, the
        smallest group wins outright. Unseen tokens then take the next
        rows (open-universe rule) and all of S's bits are set in that
        group, whose size window widens to take ``|S|`` (a first member
        sets both ends).
        """
        toks = np.unique(tokens).tolist()
        known = [t for t in toks if t in self.row_of]
        if known:
            ubs = group_upper_bounds(self._counts(known), len(known), measure)
            tied = np.flatnonzero(ubs == ubs.max())
        else:
            tied = np.arange(self.n_groups)
        g = int(tied[np.argmin(self.group_sizes[tied])])
        rows = [self.row_of.setdefault(t, len(self.row_of)) for t in toks]
        if self.n_tokens > len(self.bits):
            grown = np.zeros((2 * self.n_tokens, self.n_groups), dtype=bool)
            grown[: len(self.bits)] = self.bits
            self.bits = grown
        self.bits[rows, g] = True
        self.smin[g] = min(self.smin[g], len(toks)) if self.group_sizes[g] else len(toks)
        self.smax[g] = max(self.smax[g], len(toks))
        self.group_sizes[g] += 1
        self.group_members[g].append(sid)
        return g

    def index_bytes(self) -> int:
        """Size of the bitmap packed to bits (what Figure 11 reports)."""
        return (self.n_groups * max(1, self.n_tokens) + 7) // 8


class HTGM:
    """Hierarchical TGM (paper §5.2): one TGM per cascade level.

    ``levels`` are coarse→fine label arrays over the same sets (e.g.
    ``L2PResult.levels`` picked at two or more depths), and they must
    nest: every group of a finer level lies inside one group of the level
    above, as a cascade's levels do. ``children[i][g]`` are the sorted
    level-(i+1) groups under level-i group ``g``. Because a child's token
    union lies inside its parent's, no child's TGM bound (Equation 2)
    exceeds its parent's.
    """

    def __init__(self, sets: Sequence[np.ndarray], levels: Sequence[np.ndarray]):
        assert len(levels) >= 1
        levels = [np.asarray(l) for l in levels]
        self.tgms = [TGM.from_partition(sets, l) for l in levels]
        self.children: List[List[np.ndarray]] = []
        for a, b in zip(levels[:-1], levels[1:]):
            la, ia = np.unique(a, return_inverse=True)
            lb, ib = np.unique(b, return_inverse=True)
            pairs = np.unique(ia * len(lb) + ib)
            if len(pairs) > len(lb):
                raise ValueError(
                    "HTGM levels must nest: a group has members under two groups of the level above"
                )
            per_parent = np.bincount(pairs // len(lb), minlength=len(la))
            self.children.append(np.split(pairs % len(lb), np.cumsum(per_parent)[:-1]))

    def index_bytes(self) -> int:
        return sum(t.index_bytes() for t in self.tgms)
