"""§7.5 (Figure 10) — sensitivity to the number of groups n and to k.

Sweep n and k on a dataset and measure mean kNN time and PE. Expected
shape: query time falls as n grows, with diminishing returns (and an
eventual uptick from TGM scan cost); time grows with k. The paper's
rule of thumb puts the sweet spot near n ≈ 0.5% |D|.

``pe`` and ``mean_candidates`` read ``tgm_candidates``, the candidates
of the paper's TGM bound (Equation 2); ``knn_ms`` times the engine as it
runs, with its tighter size-windowed bound.
"""
from __future__ import annotations

import pandas as pd

from ..synth_data import dataset, sample_queries
from .common import build_les3, mean_candidates, mean_pe, timed_queries


def run(
    *,
    name: str = "kosarak",
    scale: float = 0.002,
    group_counts: tuple = (4, 8, 16, 32, 64, 128),
    ks: tuple = (1, 10, 50),
    n_queries: int = 40,
    seed: int = 0,
) -> pd.DataFrame:
    db = dataset(name, scale=scale, seed=seed)
    queries = sample_queries(db, n=n_queries, seed=seed + 1)
    rows = []
    for n in group_counts:
        b = build_les3(db, n_groups=n, seed=seed)
        for k in ks:
            t, stats, _ = timed_queries(lambda q: b.engine.knn(q, k), queries)
            rows.append(
                {
                    "dataset": name,
                    "n_groups": b.n_groups,
                    "k": k,
                    "knn_ms": round(t * 1e3, 3),
                    "pe": round(mean_pe(stats, len(db.sets), [k] * len(queries)), 4),
                    "mean_candidates": round(mean_candidates(stats), 1),
                    "index_elems": round(
                        sum(s.index_elems for s in stats) / len(stats), 1
                    ),
                }
            )
    return pd.DataFrame(rows)
