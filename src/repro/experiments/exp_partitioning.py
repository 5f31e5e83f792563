"""§7.4 (Figure 9) — L2P vs algorithmic partitioning approaches.

kosarak-lite is partitioned into the same number of groups by L2P,
PAR-G, PAR-C, PAR-D, and PAR-A; we report partitioning time, a resident
-space proxy, the achieved GPO, and kNN(k=10) query time over the
resulting TGM. Expected shape: L2P gives the fastest search at a small
fraction of partitioning time/space; PAR-G is the closest but pays a
huge graph cost (its kNN graph is built with LES³'s help, as in the
paper). ``knn_pe`` reads ``tgm_candidates``, the candidates of the
paper's TGM bound (Equation 2); ``knn_ms`` times the engine as it runs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.gpo import balance_stats, gpo
from ..core.search import LocalLES3
from ..core.tgm import TGM
from ..partitioning.algorithmic import PartitionRun, par_a, par_c, par_d
from ..partitioning.graph import par_g
from ..synth_data import dataset, sample_queries
from .common import build_les3, mean_pe, timed_queries


def run(
    *,
    scale: float = 0.001,
    n_groups: int = 32,
    n_queries: int = 50,
    k: int = 10,
    seed: int = 0,
) -> pd.DataFrame:
    db = dataset("kosarak", scale=scale, seed=seed)
    queries = sample_queries(db, n=n_queries, seed=seed + 1)
    rows = []

    b = build_les3(db, n_groups=n_groups, n_pairs=4000, seed=seed)
    # §7.4: only one model's parameters plus a single minibatch are
    # resident during L2P training; dim(PTR) = 2⌈log2|T|⌉, hidden = 8
    dim = 2 * int(np.ceil(np.log2(max(db.n_tokens, 2))))
    l2p_space = (dim * 8 + 8 * 8 + 8 + 8 + 8 + 1) + 256 * (2 * dim + 1)
    runs = {
        "L2P": PartitionRun(
            groups=b.l2p.groups,
            seconds=b.partition_seconds,
            peak_items=l2p_space,
        )
    }
    runs["PAR-G"] = par_g(db.sets, n_groups, k=k, engine=b.engine, seed=seed)
    runs["PAR-C"] = par_c(db.sets, n_groups, seed=seed)
    runs["PAR-D"] = par_d(db.sets, n_groups, seed=seed)
    runs["PAR-A"] = par_a(db.sets, n_groups, seed=seed)

    for name, r in runs.items():
        tgm = TGM.from_partition(db.sets, r.groups)
        eng = LocalLES3(db.sets, tgm)
        knn_s, stats, _ = timed_queries(lambda q: eng.knn(q, k), queries)
        rows.append(
            {
                "method": name,
                "partition_seconds": round(r.seconds, 3),
                "space_items": r.peak_items,
                "gpo": round(gpo(db.sets, r.groups, sample=4000, seed=seed), 1),
                "knn_ms": round(knn_s * 1e3, 3),
                "knn_pe": round(mean_pe(stats, len(db.sets), [k] * len(queries)), 4),
                "balance_std": round(balance_stats(r.groups)["std"], 1),
            }
        )
    return pd.DataFrame(rows)
