"""§7.3 (Figure 8) — PTR vs other set representation techniques.

On a sampled kosarak-lite database (the paper samples KOSARAK at 5%
because PCA/MDS cannot scale), each representation is timed, fed to the
same L2P cascade, and the resulting partitioning's query performance is
measured for kNN (k=10) and range (δ=0.7). Expected shape: PTR embeds
orders of magnitude faster than PCA/MDS at similar search time, and
searches faster than Binary Encoding / PTR-half. PE reads
``tgm_candidates``, the candidates of the paper's TGM bound (Equation 2).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from ..core.ptr import represent
from ..embeddings.classic import mds_embed, pca_embed
from ..synth_data import dataset, sample_queries
from .common import build_les3, mean_pe, timed_queries

METHODS = ("ptr", "ptr-half", "binary", "pca", "mds")


def embed(db, method: str, d: int = 16):
    if method in ("ptr", "ptr-half", "binary"):
        return represent(db.sets, db.n_tokens, method)
    if method == "pca":
        return pca_embed(db.sets, db.n_tokens, d)
    if method == "mds":
        return mds_embed(db.sets, d)
    raise ValueError(method)


def run(
    *,
    scale: float = 0.0008,
    token_scale: float = 0.02,
    n_groups: int = 32,
    n_queries: int = 50,
    k: int = 10,
    delta: float = 0.7,
    seed: int = 0,
) -> pd.DataFrame:
    # row-sampled KOSARAK: few sets, near-full token universe (paper §7.3)
    db = dataset("kosarak", scale=scale, token_scale=token_scale, seed=seed)
    queries = sample_queries(db, n=n_queries, seed=seed + 1)
    rows = []
    for method in METHODS:
        t0 = time.perf_counter()
        reps = embed(db, method)
        embed_s = time.perf_counter() - t0
        b = build_les3(db, n_groups=n_groups, reps=reps, seed=seed)
        knn_s, knn_stats, _ = timed_queries(lambda q: b.engine.knn(q, k), queries)
        rng_s, rng_stats, rng_res = timed_queries(
            lambda q: b.engine.range(q, delta), queries
        )
        rows.append(
            {
                "method": method,
                "embed_seconds": round(embed_s, 4),
                "knn_ms": round(knn_s * 1e3, 3),
                "range_ms": round(rng_s * 1e3, 3),
                "knn_pe": round(mean_pe(knn_stats, len(db.sets), [k] * len(queries)), 4),
                "range_pe": round(
                    mean_pe(
                        rng_stats, len(db.sets), [len(r) for r in rng_res]
                    ),
                    4,
                ),
            }
        )
    return pd.DataFrame(rows)
