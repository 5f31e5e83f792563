"""PackedSets — the shared vectorized verification kernel.

All engines verify candidates through this structure so their constant
factors are comparable (the paper's engines are all C++; a per-candidate
Python loop would penalize whichever engine verifies at group
granularity).

Layout: the sets are stored one after another in a chosen ``order`` —
sid order by default; :class:`.search.LocalLES3` stores them group by
group, so a group is one run of stored positions, as the paper lays
groups out on disk (§7.6). ``ids[p]`` is the sid stored at position
``p``. Each stored set is sorted and distinct, and its tokens are
replaced by their dense ids into ``vocab``, the sorted tokens of all
stored sets: set ``p`` is ``vocab[rows[offsets[p]:offsets[p + 1]]]``.

Kernel: a query is prepared once (:meth:`PackedSets.prepare`): its
sorted distinct tokens, and the tokens of them that occur in ``vocab``
marked in one boolean array over ``vocab``. Every verify of that query
reads the same mark. Over a run of stored sets, the running count of
marked tokens in ``mark[rows]``, taken at the set boundaries, gives
every ``|Q∩S|`` as a difference (0 for an empty set). The count at a
boundary is the number of marked positions before it, one
``searchsorted`` of the boundaries into the marked positions, which is
nearly twice as fast as a ``cumsum`` over every token of a group. The
measure follows from ``|Q∩S|``, ``|Q|`` and ``|S|`` through
:func:`.similarity.sim_from_counts`.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .similarity import sim_from_counts


def sorted_distinct(concat: np.ndarray, lens: np.ndarray):
    """The sets ``concat`` holds one after another, ``lens[i]`` tokens
    each, with each set sorted and distinct: the new ``(concat, lens)``,
    or the arrays given when every set already is."""
    # every token must exceed its predecessor, except at a set's start
    ok = concat[1:] > concat[:-1]
    starts = np.cumsum(lens)[:-1]
    ok[starts[(starts > 0) & (starts < len(concat))] - 1] = True
    if ok.all():
        return concat, lens
    set_of = np.repeat(np.arange(len(lens)), lens)
    by = np.lexsort((concat, set_of))
    concat, set_of = concat[by], set_of[by]
    new = np.ones(len(concat), dtype=bool)
    new[1:] = (concat[1:] != concat[:-1]) | (set_of[1:] != set_of[:-1])
    return concat[new], np.bincount(set_of[new], minlength=len(lens))


class PreparedQuery(NamedTuple):
    """A query as every verify against one :class:`PackedSets` reads it."""

    tokens: np.ndarray  # sorted and distinct
    mark: np.ndarray  # bool over ``vocab``: the tokens of the query


class PackedSets:
    """Distinct-token sets stored in a chosen order as dense vocabulary ids."""

    def __init__(self, sets: Sequence[np.ndarray], order: np.ndarray | None = None):
        n = len(sets) if order is None else len(order)
        self.ids = np.arange(n, dtype=np.int64) if order is None else np.asarray(order, dtype=np.int64)
        parts = [sets[i] for i in self.ids.tolist()]
        lens = np.fromiter(map(len, parts), dtype=np.int64, count=n)
        concat = np.concatenate([np.empty(0, dtype=np.int64), *parts]).astype(np.int64, copy=False)
        del parts
        concat, lens = sorted_distinct(concat, lens)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        self.lens = lens
        self.offsets = offsets
        self.vocab = np.unique(concat)
        self.rows = np.searchsorted(self.vocab, concat)

    def __len__(self) -> int:
        return len(self.lens)

    def prepare(self, query: np.ndarray) -> PreparedQuery:
        """``query``'s distinct tokens and their mark over ``vocab``."""
        q = np.unique(query)
        mark = np.zeros(len(self.vocab), dtype=bool)
        if len(self.vocab):
            at = np.minimum(np.searchsorted(self.vocab, q), len(self.vocab) - 1)
            mark[at[self.vocab[at] == q]] = True
        return PreparedQuery(q, mark)

    def sims(self, query: np.ndarray, measure: str = "jaccard") -> np.ndarray:
        """Similarity of ``query`` to the set at every stored position."""
        return self.sims_subset(self.prepare(query), slice(0, len(self)), measure)

    def sims_subset(
        self, query: PreparedQuery, positions: slice | np.ndarray, measure: str = "jaccard"
    ) -> np.ndarray:
        """Similarity of a prepared query to the sets at ``positions``: a
        unit-step ``slice`` of stored positions, read in place, or an
        array of them, whose tokens are gathered first. Positions are sids
        when the sets are stored in sid order."""
        if isinstance(positions, slice):
            lo, hi, step = positions.indices(len(self))
            if step != 1:
                raise ValueError("a slice of stored positions must have step 1")
            toks = self.rows[self.offsets[lo] : self.offsets[hi]]
            bounds = self.offsets[lo : hi + 1] - self.offsets[lo]
            lens = self.lens[lo:hi]
        else:
            pos = np.asarray(positions, dtype=np.int64)
            lens = self.lens[pos]
            bounds = np.zeros(len(pos) + 1, dtype=np.int64)
            np.cumsum(lens, out=bounds[1:])
            toks = self.rows[np.repeat(self.offsets[pos] - bounds[:-1], lens) + np.arange(bounds[-1])]
        # marked tokens before each boundary: a running count, read off
        # the marked positions without summing over every token
        before = np.searchsorted(np.flatnonzero(query.mark[toks]), bounds)
        return sim_from_counts(before[1:] - before[:-1], len(query.tokens), lens, measure)
