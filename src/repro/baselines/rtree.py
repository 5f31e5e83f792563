"""A minimal STR bulk-loaded R-tree over integer count vectors.

Substrate for the DualTrans baseline [73]: sets are transformed into
d-dimensional count vectors and organized in an R-tree whose node MBRs
drive branch-and-bound search. Sort-Tile-Recursive bulk loading packs
points by recursively sorting one dimension per level; fanout-sized runs
become leaves and parents are built bottom-up.

The tree is deliberately ordinary — the paper's finding is precisely
that R-tree MBRs over set transforms overlap heavily and prune poorly,
so a standard construction reproduces the behaviour being compared.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class RNode:
    lo: np.ndarray
    hi: np.ndarray
    children: List["RNode"] = field(default_factory=list)
    point_ids: Optional[np.ndarray] = None  # leaf payload
    min_sid: int = 0  # the smallest point id in the subtree

    @property
    def is_leaf(self) -> bool:
        return self.point_ids is not None


class RTree:
    """STR-packed R-tree with configurable fanout."""

    def __init__(self, points: np.ndarray, fanout: int = 32):
        self.points = np.asarray(points, dtype=np.float64)
        self.fanout = fanout
        n, d = self.points.shape
        ids = self._str_order(np.arange(n), dim=0)
        leaves = []
        for s in range(0, n, fanout):
            pid = ids[s : s + fanout]
            pts = self.points[pid]
            leaves.append(
                RNode(lo=pts.min(axis=0), hi=pts.max(axis=0), point_ids=pid, min_sid=int(pid.min()))
            )
        self.n_nodes = len(leaves)
        level = leaves
        while len(level) > 1:
            nxt = []
            for s in range(0, len(level), fanout):
                ch = level[s : s + fanout]
                nxt.append(
                    RNode(
                        lo=np.min([c.lo for c in ch], axis=0),
                        hi=np.max([c.hi for c in ch], axis=0),
                        children=ch,
                        min_sid=min(c.min_sid for c in ch),
                    )
                )
            self.n_nodes += len(nxt)
            level = nxt
        self.root = level[0]

    def _str_order(self, ids: np.ndarray, dim: int) -> np.ndarray:
        """Recursive STR: sort by ``dim``, slice, recurse on next dim."""
        d = self.points.shape[1]
        n = len(ids)
        if n <= self.fanout or dim >= d - 1:
            return ids[np.argsort(self.points[ids, dim % d], kind="stable")]
        order = ids[np.argsort(self.points[ids, dim], kind="stable")]
        n_slabs = max(1, int(np.ceil((n / self.fanout) ** (1.0 / (d - dim)))))
        slab = int(np.ceil(n / n_slabs))
        out = [self._str_order(order[s : s + slab], dim + 1) for s in range(0, n, slab)]
        return np.concatenate(out)

    def index_bytes(self) -> int:
        """8 bytes per MBR coordinate, two corners per node, plus leaf ids."""
        d = self.points.shape[1]
        return self.n_nodes * 2 * d * 8 + len(self.points) * 8
