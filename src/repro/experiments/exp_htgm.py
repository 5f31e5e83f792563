"""§7.7 (Figure 14) — TGM vs HTGM across similarity distributions.

Synthetic databases whose pairwise-similarity tail follows a power law
``P[sim=v] ~ v^-α`` (the paper: 20,000 sets / 20,000 tokens, TGM on the
256-group level, HTGM on the 32- and 256-group levels; scaled here).
We report the HTGM/TGM ratio of (a) index elements accessed and (b)
similarity computations for kNN queries. Expected shape: HTGM pays off
(ratio < 1) for large α — most sets dissimilar, coarse level prunes
early — and overhead dominates (ratio > 1) for small α. The
similarity computations are ``tgm_candidates``, what the paper's TGM
bound (Equation 2) verifies; index accesses are ``index_elems``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.ptr import ptr
from ..core.l2p import l2p_partition
from ..core.search import LocalLES3
from ..core.tgm import HTGM
from ..synth_data import powerlaw_sim_db, sample_queries


def run(
    *,
    alphas: tuple = (1.0, 1.5, 2.0, 3.0, 4.0),
    n_sets: int = 4000,
    n_tokens: int = 4000,
    coarse_groups: int = 8,
    fine_groups: int = 64,
    n_queries: int = 40,
    k: int = 10,
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for alpha in alphas:
        db = powerlaw_sim_db(
            n_sets=n_sets, n_tokens=n_tokens, alpha=alpha, seed=seed
        )
        reps = ptr(db.sets, db.n_tokens)
        # fully learned cascade (no min-token init): the paper's HTGM uses
        # learned partitionings at both levels (e.g. level 5 and level 8)
        part = l2p_partition(
            reps, db.sets, n_groups=fine_groups, use_init=False,
            min_group=10, n_pairs=2000, seed=seed,
        )
        coarse = next(
            l for l in part.levels if len(np.unique(l)) >= coarse_groups
        )
        fine = part.levels[-1]
        htgm = HTGM(db.sets, [coarse, fine])
        flat = LocalLES3(db.sets, htgm.fine)
        hier = LocalLES3(db.sets, htgm.fine, htgm=htgm)
        queries = sample_queries(db, n=n_queries, seed=seed + 1)
        res_flat, st_flat = zip(*(flat.knn(q, k) for q in queries))
        res_hier, st_hier = zip(*(hier.knn(q, k) for q in queries))
        for a, b in zip(res_flat, res_hier):
            assert sorted(round(v, 9) for _, v in a) == sorted(
                round(v, 9) for _, v in b
            ), "HTGM must return the same kNN results as TGM"
        access_ratio = sum(s.index_elems for s in st_hier) / max(
            1, sum(s.index_elems for s in st_flat)
        )
        sim_ratio = sum(s.tgm_candidates for s in st_hier) / max(
            1, sum(s.tgm_candidates for s in st_flat)
        )
        rows.append(
            {
                "alpha": alpha,
                "access_ratio": round(access_ratio, 4),
                "sim_ratio": round(sim_ratio, 4),
                "n_coarse": int(len(np.unique(coarse))),
                "n_fine": int(len(np.unique(fine))),
            }
        )
    return pd.DataFrame(rows)
