"""Algorithmic partitioning baselines PAR-C, PAR-D, PAR-A (paper §4.3).

All three greedily optimize GPO (Equation 13) and all three carry the
paper's stated simplifications: first-improvement relocation (PAR-C),
random split seeds (PAR-D), smallest-group merging (PAR-A), and sampled
``φ(G)`` estimates (§4.3 footnote 2) since exact intra-group pair sums
are prohibitive.

Pairwise Jaccard here runs on pre-built Python ``frozenset``s — for the
small sets these baselines handle, hash-set intersection is several
times faster than numpy set ops, and these baselines are the slow side
of the comparison already. The counts go through the shared formula
table (:func:`..core.similarity.pair_sim_from_counts`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.similarity import pair_sim_from_counts


@dataclass
class PartitionRun:
    """A partitioning plus its cost accounting (for Figure 9)."""

    groups: np.ndarray
    seconds: float
    peak_items: int  # resident pairwise/intermediate items (space proxy)


def _dist(a: frozenset, b: frozenset) -> float:
    return 1.0 - pair_sim_from_counts(len(a & b), len(a), len(b))


def _avg_dist_to_group(
    s: frozenset,
    members: List[int],
    fsets: List[frozenset],
    rng: np.random.Generator,
    sample: int,
) -> float:
    """Sampled mean distance from ``s`` to a group (φ contribution)."""
    if not members:
        return 0.0
    if len(members) > sample:
        idx = rng.choice(len(members), size=sample, replace=False)
        chosen = [members[i] for i in idx]
    else:
        chosen = members
    return float(np.mean([_dist(s, fsets[m]) for m in chosen]))


def par_c(
    sets: Sequence[np.ndarray],
    n_groups: int,
    *,
    sample: int = 16,
    max_rounds: int = 4,
    seed: int = 0,
) -> PartitionRun:
    """Centroid-style first-improvement relocation (§4.3.2).

    Moving S from G_i to G_j decreases GPO iff its mean distance to G_j
    is below its mean distance to the rest of G_i (group sizes enter via
    the sums; we compare sampled sums). The loop takes the first
    improving group, per the paper's simplification, and stops when a
    full pass moves nothing or ``max_rounds`` passes elapse.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    fsets = [frozenset(map(int, s)) for s in sets]
    n = len(fsets)
    labels = rng.integers(0, n_groups, size=n)
    members: List[List[int]] = [[] for _ in range(n_groups)]
    for i, g in enumerate(labels):
        members[g].append(i)
    for _ in range(max_rounds):
        moved = 0
        for i in range(n):
            gi = int(labels[i])
            rest = [m for m in members[gi] if m != i]
            di = _avg_dist_to_group(fsets[i], rest, fsets, rng, sample) * len(rest)
            for gj in rng.permutation(n_groups):
                gj = int(gj)
                if gj == gi:
                    continue
                dj = _avg_dist_to_group(
                    fsets[i], members[gj], fsets, rng, sample
                ) * len(members[gj])
                if dj < di:  # first improvement
                    members[gi].remove(i)
                    members[gj].append(i)
                    labels[i] = gj
                    moved += 1
                    break
        if moved == 0:
            break
    return PartitionRun(
        groups=labels.astype(np.int64),
        seconds=time.perf_counter() - t0,
        peak_items=n * n_groups,  # per-set-per-group distance estimates held
    )


def par_d(
    sets: Sequence[np.ndarray],
    n_groups: int,
    *,
    sample: int = 16,
    seed: int = 0,
) -> PartitionRun:
    """Divisive clustering (§4.3.3): split the max-φ group around a
    random seed until ``n_groups`` groups exist."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    fsets = [frozenset(map(int, s)) for s in sets]
    n = len(fsets)
    groups: List[List[int]] = [list(range(n))]
    while len(groups) < n_groups:
        # sampled φ(G) ≈ mean pair distance * |G|^2
        phis = []
        for g in groups:
            if len(g) < 2:
                phis.append(0.0)
                continue
            xs = rng.choice(g, size=min(sample, len(g)))
            ys = rng.choice(g, size=min(sample, len(g)))
            est = np.mean([_dist(fsets[x], fsets[y]) for x, y in zip(xs, ys) if x != y] or [0.0])
            phis.append(est * len(g) * len(g))
        gi = int(np.argmax(phis))
        src = groups[gi]
        if len(src) < 2:
            break
        seed_idx = src[int(rng.integers(len(src)))]
        new = [seed_idx]
        src.remove(seed_idx)
        for s in list(src):
            d_old = _avg_dist_to_group(fsets[s], [m for m in src if m != s], fsets, rng, sample) * (len(src) - 1)
            d_new = _avg_dist_to_group(fsets[s], new, fsets, rng, sample) * len(new)
            if d_new < d_old:
                src.remove(s)
                new.append(s)
        groups.append(new)
    labels = np.empty(n, dtype=np.int64)
    for g, mem in enumerate(groups):
        labels[mem] = g
    return PartitionRun(
        groups=labels, seconds=time.perf_counter() - t0, peak_items=n * len(groups)
    )


def par_a(
    sets: Sequence[np.ndarray],
    n_groups: int,
    *,
    sample: int = 4,
    seed: int = 0,
) -> PartitionRun:
    """Agglomerative clustering (§4.3.4): repeatedly merge the smallest
    group with the partner minimizing sampled ``φ(G1 ∪ G2)``."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    fsets = [frozenset(map(int, s)) for s in sets]
    n = len(fsets)
    groups: List[np.ndarray] = [np.array([i]) for i in range(n)]
    # cached sampled φ(G) per group (ordered-pair sum estimate)
    phis: List[float] = [0.0] * n

    def draw(g: np.ndarray) -> np.ndarray:
        # the draws ``rng.choice(g, size)`` makes, without its per-call cost
        return g[rng.integers(0, len(g), size=min(sample, len(g)))]

    def est_phi(g: np.ndarray) -> float:
        if len(g) < 2:
            return 0.0
        xs, ys = draw(g), draw(g)
        d = [_dist(fsets[x], fsets[y]) for x, y in zip(xs, ys) if x != y]
        return float(np.mean(d or [0.0])) * len(g) * len(g)

    while len(groups) > n_groups:
        sizes = np.array([len(g) for g in groups])
        gi = int(np.argmin(sizes))
        g1 = groups[gi]
        best_j, best_score = -1, np.inf
        for j, g2 in enumerate(groups):
            if j == gi:
                continue
            xs, ys = draw(g1), draw(g2)
            cross = float(np.mean([_dist(fsets[x], fsets[y]) for x in xs for y in ys]))
            # φ(G1∪G2) = φ(G1) + φ(G2) + 2|G1||G2|·cross; φ(G1) is constant
            score = phis[j] + 2 * len(g1) * len(g2) * cross
            if score < best_score:
                best_score, best_j = score, j
        merged = np.concatenate((g1, groups[best_j]))
        keep = [idx for idx in range(len(groups)) if idx not in (gi, best_j)]
        groups = [groups[idx] for idx in keep]
        phis = [phis[idx] for idx in keep]
        groups.append(merged)
        phis.append(est_phi(merged))
    labels = np.empty(n, dtype=np.int64)
    for g, mem in enumerate(groups):
        labels[mem] = g
    return PartitionRun(
        groups=labels, seconds=time.perf_counter() - t0, peak_items=n * n
    )
