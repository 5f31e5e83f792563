"""L2P: the cascade-of-Siamese-networks partitioning framework (paper §5.2).

Level 0 starts from an *initialization* partitioning (paper §7.1): sets
are sorted by their minimal token and chopped into ``n_init`` equal
chunks (the paper uses 128; scaled configurations use fewer). Each
subsequent level trains one Siamese network per group to split it in
two, so after ``i`` levels there are up to ``n_init * 2^i`` groups.
Groups smaller than ``min_group`` (paper: 50) are not split further.

The per-level label arrays are retained — they are exactly the
partitionings the Hierarchical TGM (§5.2) indexes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .siamese import SiameseMLP, TrainStats
from .similarity import pair_sims, sim_fn


@dataclass
class L2PResult:
    """Output of the cascade: per-level labels plus bookkeeping."""

    levels: List[np.ndarray]  # levels[i]: group label per set after level i
    n_models: int
    train_seconds: float
    loss_curves: List[List[float]] = field(default_factory=list)

    @property
    def groups(self) -> np.ndarray:
        """Final (finest) partitioning."""
        return self.levels[-1]

    def n_groups(self, level: int = -1) -> int:
        return int(len(np.unique(self.levels[level])))


def init_partition(sets: Sequence[np.ndarray], n_init: int) -> np.ndarray:
    """Sort by minimal token, chunk into ``n_init`` equal runs (§7.1)."""
    min_tok = np.array([s[0] if len(s) else -1 for s in sets])
    order = np.argsort(min_tok, kind="stable")
    labels = np.empty(len(sets), dtype=np.int64)
    chunks = np.array_split(order, n_init)
    for g, idx in enumerate(chunks):
        labels[idx] = g
    return labels


def sample_pairs(
    n: int, n_pairs: int, rng: np.random.Generator
) -> np.ndarray:
    """Random ordered pairs (i != j) of indices in [0, n)."""
    xs = rng.integers(0, n, size=n_pairs)
    ys = rng.integers(0, n, size=n_pairs)
    bad = xs == ys
    ys[bad] = (ys[bad] + 1) % n
    return np.stack([xs, ys], axis=1)


def l2p_partition(
    reps: np.ndarray,
    sets: Sequence[np.ndarray],
    *,
    n_groups: int = 64,
    n_init: int = 8,
    min_group: int = 50,
    n_pairs: int = 4000,
    epochs: int = 3,
    batch_size: int = 256,
    lr: float = 0.05,
    measure: str = "jaccard",
    seed: int = 0,
    use_init: bool = True,
) -> L2PResult:
    """Run the cascade until at least ``n_groups`` groups exist.

    ``reps`` are the vector representations fed to the networks (PTR in
    the full system; §7.3 swaps in alternatives); ``sets`` provide the
    pairwise similarities for the loss. Groups stop splitting below
    ``min_group`` members, so fewer than ``n_groups`` groups can result
    on tiny databases, matching the paper's level-``i`` bound ``<= 2^i``.
    """
    reps = np.atleast_2d(np.asarray(reps, dtype=np.float64))
    n = len(sets)
    sim_fn(measure)  # rejects an unknown measure before any work
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()

    if use_init and n_init > 1 and n >= 2 * n_init:
        labels = init_partition(sets, n_init)
    else:
        labels = np.zeros(n, dtype=np.int64)

    levels = [labels.copy()]
    loss_curves: List[List[float]] = []
    n_models = 0

    while len(np.unique(labels)) < n_groups:
        new_labels = np.empty(n, dtype=np.int64)
        next_id = 0
        split_any = False
        for g in np.unique(labels):
            members = np.flatnonzero(labels == g)
            if len(members) < max(2, min_group):
                new_labels[members] = next_id
                next_id += 1
                continue
            model = SiameseMLP(reps.shape[1], seed=int(rng.integers(1 << 31)))
            pr = sample_pairs(len(members), min(n_pairs, len(members) ** 2), rng)
            dists = 1.0 - pair_sims(sets, members[pr[:, 0]], members[pr[:, 1]], measure)
            stats = model.train(
                reps[members],
                pr,
                dists,
                epochs=epochs,
                batch_size=batch_size,
                lr=lr,
                seed=int(rng.integers(1 << 31)),
            )
            loss_curves.append(stats.epoch_losses)
            half = model.assign(reps[members])
            new_labels[members] = next_id + half
            next_id += 2
            n_models += 1
            split_any = True
        labels = new_labels
        levels.append(labels.copy())
        if not split_any:
            break

    return L2PResult(
        levels=levels,
        n_models=n_models,
        train_seconds=time.perf_counter() - t0,
        loss_curves=loss_curves,
    )
