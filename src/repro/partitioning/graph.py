"""PAR-G: graph-cut partitioning (paper §4.3.1).

Two stages, as in the paper:

1. **Similarity graph construction** — for kNN workloads, vertex per
   set, edge to each of its k nearest neighbours; for range workloads,
   edge when ``Sim >= δ``. Built here either by brute-force pairwise
   similarity (exact, used at the baseline's modest scales) or
   accelerated by an existing LES³ index, mirroring the paper's note
   that PAR-G's kNN graph is built with LES³'s help.
2. **Balanced min-cut** — the paper uses PaToH (closed source); we use
   the standard core of multilevel partitioners: greedy BFS region
   growing to near-equal parts followed by boundary refinement passes
   that move a vertex to the neighbouring part holding more of its
   edges when balance (±``slack``) permits. Same objective, see
   DESIGN.md Substitutions.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..core.packed import PackedSets
from .algorithmic import PartitionRun


def knn_graph(
    sets: Sequence[np.ndarray], k: int, *, engine=None
) -> Dict[int, Set[int]]:
    """Undirected kNN similarity graph (self excluded)."""
    n = len(sets)
    packed = PackedSets(sets)
    adj: Dict[int, Set[int]] = defaultdict(set)
    for i in range(n):
        if engine is not None:
            res, _ = engine.knn(sets[i], k + 1)
            nbrs = [s for s, _ in res if s != i][:k]
        else:
            sims = packed.sims(sets[i])
            sims[i] = -np.inf
            nbrs = np.argsort(-sims, kind="stable")[:k]
        for j in nbrs:
            adj[i].add(int(j))
            adj[int(j)].add(i)
    return adj


def range_graph(sets: Sequence[np.ndarray], delta: float) -> Dict[int, Set[int]]:
    """Edge between every pair with ``Sim >= δ``."""
    n = len(sets)
    packed = PackedSets(sets)
    adj: Dict[int, Set[int]] = defaultdict(set)
    for i in range(n):
        sims = packed.sims(sets[i])[i + 1 :]
        for off in np.flatnonzero(sims >= delta):
            j = i + 1 + int(off)
            adj[i].add(j)
            adj[j].add(i)
    return adj


def balanced_cut(
    adj: Dict[int, Set[int]],
    n_vertices: int,
    n_parts: int,
    *,
    slack: float = 0.1,
    refine_rounds: int = 2,
    seed: int = 0,
) -> np.ndarray:
    """Greedy region growing + boundary refinement balanced min-cut."""
    rng = np.random.default_rng(seed)
    target = n_vertices / n_parts
    cap = int(np.ceil(target * (1 + slack)))
    labels = np.full(n_vertices, -1, dtype=np.int64)
    degree = np.array([len(adj.get(v, ())) for v in range(n_vertices)])
    order = np.argsort(-degree, kind="stable")
    part = 0
    sizes = np.zeros(n_parts, dtype=np.int64)
    for start in order:
        if labels[start] != -1:
            continue
        if part >= n_parts - 1:
            break
        # grow a region from `start` up to the target size
        frontier = [int(start)]
        labels[start] = part
        sizes[part] += 1
        while frontier and sizes[part] < int(target):
            gains: List[Tuple[int, int]] = []
            for v in frontier:
                for u in adj.get(v, ()):
                    if labels[u] == -1:
                        gains.append((len([w for w in adj[u] if labels[w] == part]), u))
            if not gains:
                break
            gains.sort(reverse=True)
            added = []
            for _, u in gains:
                if labels[u] == -1 and sizes[part] < int(target):
                    labels[u] = part
                    sizes[part] += 1
                    added.append(u)
            frontier = added
        part += 1
    # everything unassigned goes to the lightest parts
    for v in np.flatnonzero(labels == -1):
        p = int(np.argmin(sizes))
        labels[v] = p
        sizes[p] += 1
    # boundary refinement
    for _ in range(refine_rounds):
        moved = 0
        for v in rng.permutation(n_vertices):
            nbr_parts = defaultdict(int)
            for u in adj.get(int(v), ()):
                nbr_parts[int(labels[u])] += 1
            if not nbr_parts:
                continue
            cur = int(labels[v])
            best = max(nbr_parts, key=lambda p: (nbr_parts[p], -p))
            if best != cur and nbr_parts[best] > nbr_parts.get(cur, 0) and sizes[best] < cap:
                sizes[cur] -= 1
                sizes[best] += 1
                labels[v] = best
                moved += 1
        if moved == 0:
            break
    return labels


def cut_size(adj: Dict[int, Set[int]], labels: np.ndarray) -> int:
    """Number of edges crossing parts (the PAR-G objective)."""
    c = 0
    for v, nbrs in adj.items():
        for u in nbrs:
            if u > v and labels[u] != labels[v]:
                c += 1
    return c


def par_g(
    sets: Sequence[np.ndarray],
    n_groups: int,
    *,
    k: int = 10,
    delta: float | None = None,
    engine=None,
    seed: int = 0,
) -> PartitionRun:
    """Full PAR-G pipeline: graph build + balanced cut (§4.3.1)."""
    t0 = time.perf_counter()
    if delta is not None:
        adj = range_graph(sets, delta)
    else:
        adj = knn_graph(sets, k, engine=engine)
    labels = balanced_cut(adj, len(sets), n_groups, seed=seed)
    n_edges = sum(len(v) for v in adj.values()) // 2
    return PartitionRun(
        groups=labels,
        seconds=time.perf_counter() - t0,
        peak_items=n_edges + len(sets),  # whole graph resident, paper §7.4
    )
