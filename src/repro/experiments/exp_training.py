"""§7.2 (Figure 7) — model convergence and training cost.

(a) Learning curves: per-epoch training loss of a level-0 Siamese model
    on each dataset — the paper reports convergence in ~2 epochs.
(b) Training cost: total L2P time as the target number of groups grows —
    the paper reports linear growth in the number of groups.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.l2p import init_partition, sample_pairs
from ..core.ptr import ptr
from ..core.siamese import SiameseMLP
from ..core.similarity import pair_sims
from ..synth_data import dataset
from .common import build_les3

DATASETS = ("kosarak", "livej", "dblp", "aol")


def learning_curves(
    *, scale: float = 0.0005, epochs: int = 6, n_pairs: int = 4000, seed: int = 0
) -> pd.DataFrame:
    """Loss per epoch of one level-0 model per dataset (Figure 7a)."""
    rows = []
    for name in DATASETS:
        db = dataset(name, scale=scale, seed=seed)
        reps = ptr(db.sets, db.n_tokens)
        # level-0 model trains on one init chunk, as in the paper
        labels = init_partition(db.sets, 8)
        members = np.flatnonzero(labels == 0)
        rng = np.random.default_rng(seed)
        pairs = sample_pairs(len(members), n_pairs, rng)
        dists = 1.0 - pair_sims(db.sets, members[pairs[:, 0]], members[pairs[:, 1]])
        model = SiameseMLP(reps.shape[1], seed=seed)
        stats = model.train(reps[members], pairs, dists, epochs=epochs)
        for e, loss in enumerate(stats.epoch_losses):
            rows.append({"dataset": name, "epoch": e + 1, "loss": loss})
    return pd.DataFrame(rows)


def training_cost(
    *,
    name: str = "kosarak",
    scale: float = 0.002,
    group_counts: tuple = (16, 32, 64, 128),
    seed: int = 0,
) -> pd.DataFrame:
    """L2P wall-clock versus target group count (Figure 7b)."""
    rows = []
    db = dataset(name, scale=scale, seed=seed)
    for n in group_counts:
        b = build_les3(db, n_groups=n, seed=seed)
        rows.append(
            {
                "dataset": name,
                "n_groups": b.n_groups,
                "train_seconds": round(b.partition_seconds, 3),
                "n_models": b.l2p.n_models,
            }
        )
    return pd.DataFrame(rows)


def run(seed: int = 0) -> dict:
    return {
        "curves": learning_curves(seed=seed),
        "cost": training_cost(seed=seed),
    }
