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

from ..core.search import LocalLES3
from ..core.tgm import HTGM
from ..synth_data import powerlaw_sim_db, sample_queries
from .common import build_les3


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
        # fully learned cascade (no min-token init): the paper's HTGM uses
        # learned partitionings at both levels (e.g. level 5 and level 8)
        b = build_les3(db, n_groups=fine_groups, seed=seed)
        coarse = next(
            l for l in b.l2p.levels if len(np.unique(l)) >= coarse_groups
        )
        fine = b.l2p.groups
        flat = b.engine
        hier = LocalLES3(db.sets, HTGM(db.sets, [coarse, fine]))
        queries = sample_queries(db, n=n_queries, seed=seed + 1)
        res_flat, st_flat = zip(*(flat.knn(q, k) for q in queries))
        res_hier, st_hier = zip(*(hier.knn(q, k) for q in queries))
        assert res_flat == res_hier, "HTGM must return the same kNN results as TGM"
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
