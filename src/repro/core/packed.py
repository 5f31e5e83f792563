"""PackedSets — the shared vectorized verification kernel.

All engines verify candidates through this structure so their constant
factors are comparable (the paper's engines are all C++; a per-candidate
Python loop would penalize whichever engine verifies at group
granularity). Sets are stored as one concatenated token array plus
offsets; intersection sizes against a query are computed with one
``searchsorted`` over the concatenation and a segmented sum, and the
measure follows from ``|A∩B|``, ``|A|`` and ``|B|`` through
:func:`.similarity.sim_from_counts`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .similarity import sim_from_counts


class PackedSets:
    """Column-packed storage of deduplicated token sets."""

    def __init__(self, sets: Sequence[np.ndarray]):
        uniq = [np.unique(s) for s in sets]
        self.lens = np.array([len(s) for s in uniq], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.lens)])
        self.concat = (
            np.concatenate(uniq) if uniq else np.empty(0, dtype=np.int64)
        )

    def __len__(self) -> int:
        return len(self.lens)

    # -- kernels -----------------------------------------------------------
    def _inter_counts(self, q: np.ndarray, concat: np.ndarray, starts: np.ndarray) -> np.ndarray:
        if len(q) == 0 or len(concat) == 0:
            return np.zeros(max(len(starts) - 1, 0), dtype=np.int64)
        idx = np.searchsorted(q, concat)
        idx_c = np.minimum(idx, len(q) - 1)
        mask = (q[idx_c] == concat).astype(np.int64)
        # clip segment starts into range (trailing empty sets would point
        # one past the end) and zero out genuinely empty segments after
        starts_c = np.minimum(starts[:-1], len(mask) - 1)
        return np.add.reduceat(mask, starts_c) * (np.diff(starts) > 0)

    def sims(self, query: np.ndarray, measure: str = "jaccard") -> np.ndarray:
        """Similarity of ``query`` to every stored set."""
        q = np.unique(query)
        c = self._inter_counts(q, self.concat, self.offsets)
        return sim_from_counts(c, len(q), self.lens, measure)

    def sims_subset(
        self, query: np.ndarray, ids: np.ndarray, measure: str = "jaccard"
    ) -> np.ndarray:
        """Similarity of ``query`` to the sets in ``ids`` only, without a
        Python loop: a vectorized multi-segment gather."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return np.empty(0, dtype=np.float64)
        q = np.unique(query)
        l = self.lens[ids]
        cum = np.cumsum(l)
        total = int(cum[-1])
        starts_out = np.concatenate([[0], cum])
        if total == 0:
            return np.zeros(len(ids), dtype=np.float64)
        first = np.repeat(self.offsets[ids] - starts_out[:-1], l)
        concat = self.concat[first + np.arange(total)]
        c = self._inter_counts(q, concat, starts_out)
        return sim_from_counts(c, len(q), l, measure)

