"""Synthetic set databases and query workloads.

- :func:`gen_sets` draws Zipfian-token sets, optionally around shared
  cluster cores (near duplicates); :func:`dataset` scales one of the
  paper's Table-2 datasets (:data:`SET_PRESETS`) down to that shape.
- :func:`powerlaw_sim_db` controls the pairwise-similarity tail for the
  TGM-vs-HTGM experiment (§7.7).
- :func:`sample_queries` draws a query workload from a database (§7.1).

The Spark frames, ``sets_df`` among them, live in :mod:`repro.spark_backend`.

Every generator is deterministic in ``seed``, so engines and the DuckDB
oracle see identical input.
"""
from dataclasses import dataclass
from typing import Dict, List

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# The paper evaluates on KOSARAK / LIVEJ / DBLP / AOL / FS / PMC (Table 2).
# Offline, we generate synthetic databases matching each dataset's *shape*:
# number of sets |D|, token-universe size |T|, set-size min/max/avg, and a
# Zipfian token-frequency distribution, scaled down by `scale`. See
# DESIGN.md (Substitutions) for the rationale.
@dataclass
class SetDB:
    """A driver-resident set database: ``sets[i]`` is a sorted int64 array."""

    sets: List[np.ndarray]
    n_tokens: int
    name: str = "synthetic"

    def __len__(self) -> int:
        return len(self.sets)

    def stats(self) -> Dict[str, float]:
        """Table-2-style statistics for this database."""
        sizes = np.array([len(s) for s in self.sets])
        universe = np.unique(np.concatenate(self.sets)) if self.sets else np.array([])
        return {
            "n_sets": len(self.sets),
            "max_size": int(sizes.max()) if len(sizes) else 0,
            "min_size": int(sizes.min()) if len(sizes) else 0,
            "avg_size": float(sizes.mean()) if len(sizes) else 0.0,
            "n_tokens": int(len(universe)),
        }


# Table 2 of the paper, recorded as (|D|, |T|, max, min, avg). `scale`
# multiplies |D| and |T|; set sizes are never scaled (the paper's point
# about set size vs candidate count survives scaling |D| only).
SET_PRESETS = {
    "kosarak": dict(n_sets=990_002, n_tokens=41_270, max_size=2_498, min_size=1, avg_size=8.1),
    "livej": dict(n_sets=3_201_202, n_tokens=7_489_073, max_size=300, min_size=1, avg_size=35.1),
    "dblp": dict(n_sets=5_875_251, n_tokens=3_720_067, max_size=462, min_size=2, avg_size=8.7),
    "aol": dict(n_sets=10_154_742, n_tokens=3_849_555, max_size=245, min_size=1, avg_size=3.0),
    "fs": dict(n_sets=65_608_366, n_tokens=65_608_366, max_size=3_615, min_size=1, avg_size=27.5),
    "pmc": dict(n_sets=787_220_474, n_tokens=22_923_401, max_size=2_597, min_size=1, avg_size=8.8),
}


def _zipf_weights(n_tokens: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n_tokens + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def gen_sets(
    *,
    n_sets: int,
    n_tokens: int,
    avg_size: float,
    min_size: int = 1,
    max_size: int | None = None,
    alpha: float = 1.0,
    cluster_frac: float = 0.0,
    n_clusters: int | None = None,
    seed: int = 7,
) -> SetDB:
    """Generate ``n_sets`` sets over a Zipfian token universe.

    Set sizes follow a lognormal clipped to [min_size, max_size] with the
    requested mean; tokens are drawn Zipf(``alpha``) and deduplicated per
    set (so realized avg size is slightly under ``avg_size`` when the
    universe is small — matching real data where popular tokens collide).

    ``cluster_frac > 0`` adds near-duplicate structure: each set draws
    that fraction of its tokens from an assigned cluster's core pool.
    Real set-similarity corpora (click streams, friend lists, queries)
    are full of near duplicates — without this structure, exact kNN is
    information-theoretically unprunable (the k-th neighbour is no more
    similar than a random set) and no index, the paper's included, can
    help. Dataset presets therefore enable it; see DESIGN.md.
    """
    g = _rng(seed)
    max_size = max_size or max(int(avg_size * 20), min_size + 1)
    sigma = 1.0
    mu = np.log(max(avg_size, 1.001)) - sigma**2 / 2
    sizes = np.clip(
        np.round(g.lognormal(mu, sigma, n_sets)).astype(np.int64), min_size, max_size
    )
    weights = _zipf_weights(n_tokens, alpha)
    draws = g.choice(n_tokens, size=int(sizes.sum()), p=weights)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if cluster_frac <= 0:
        sets = [
            np.unique(draws[offsets[i] : offsets[i + 1]]) for i in range(n_sets)
        ]
        return SetDB(sets=sets, n_tokens=n_tokens)
    n_clusters = n_clusters or max(4, n_sets // 200)
    # each cluster owns a *template* token sequence drawn from its own
    # contiguous slice of the universe; members copy a prefix of it, so
    # two same-cluster members share min(|prefix_i|, |prefix_j|) tokens —
    # the near-duplicate, community-vocabulary semantics of click
    # streams and friend lists (real corpora have both heavy overlap
    # among near duplicates and per-community token locality)
    slice_w = max(8, n_tokens // n_clusters)
    cores = [
        (c * slice_w + g.permutation(slice_w)) % n_tokens
        for c in range(n_clusters)
    ]
    # cluster popularity is itself skewed, like real communities
    c_weights = _zipf_weights(n_clusters, 1.0)
    cluster_of = g.choice(n_clusters, size=n_sets, p=c_weights)
    sets = []
    for i in range(n_sets):
        raw = draws[offsets[i] : offsets[i + 1]]
        core = cores[cluster_of[i]]
        n_core = min(int(round(len(raw) * cluster_frac)), len(core))
        sets.append(np.unique(np.concatenate([core[:n_core], raw[n_core:]])))
    return SetDB(sets=sets, n_tokens=n_tokens)


def dataset(
    name: str,
    *,
    scale: float = 0.001,
    token_scale: float | None = None,
    alpha: float = 1.0,
    seed: int = 7,
) -> SetDB:
    """A scaled synthetic stand-in for one of the paper's Table-2 datasets.

    ``scale`` shrinks |D|; ``token_scale`` (default ``min(1, 50*scale)``)
    shrinks |T| much less aggressively. This mirrors the paper's own
    row-sampling methodology: sampling sets leaves the token universe
    (and hence each group's *union coverage* — the quantity TGM pruning
    depends on) close to the original. Scaling |T| by the same factor as
    |D| would inflate coverage by 1/scale and destroy index selectivity
    for every method, see DESIGN.md.
    """
    p = SET_PRESETS[name]
    ts = min(1.0, 50.0 * scale) if token_scale is None else token_scale
    db = gen_sets(
        n_sets=max(50, int(p["n_sets"] * scale)),
        n_tokens=max(16, int(p["n_tokens"] * ts)),
        avg_size=p["avg_size"],
        min_size=p["min_size"],
        max_size=p["max_size"],
        alpha=alpha,
        cluster_frac=0.5,  # near-duplicate structure of real corpora
        seed=seed,
    )
    db.name = name
    return db


def powerlaw_sim_db(
    *, n_sets: int = 2000, n_tokens: int = 2000, alpha: float = 2.0,
    avg_size: float = 12.0, n_clusters: int | None = None, seed: int = 11,
) -> SetDB:
    """Synthetic DB whose pairwise-similarity tail follows ``P[sim=v] ~ v^-a``.

    Used by the TGM-vs-HTGM experiment (§7.7). Larger a concentrates the
    similarity mass near 0 — most pairs dissimilar — which we realize
    with cleanly separated cluster vocabularies: a fraction
    ``1 - 1/a`` of each set comes from its cluster's private core, the
    rest from a shared Zipfian pool. Small a (a -> 1) therefore makes
    sets draw mostly from the shared pool, producing the heavy tail of
    moderate similarities in which no coarse level can prune. The knob
    controls the dissimilarity mass directly rather than fitting the
    power law pointwise — sufficient for the ratio experiment, see
    DESIGN.md.
    """
    g = _rng(seed)
    share = max(0.0, 1.0 - 1.0 / max(alpha, 1.0))  # cluster-core fraction
    n_clusters = n_clusters or max(4, n_sets // 64)
    core_size = max(2, int(avg_size))
    # disjoint cluster vocabularies: cluster c owns an exclusive token slice
    slice_w = n_tokens // max(n_clusters, 1)
    cores = np.stack(
        [c * slice_w + g.choice(max(slice_w, core_size), size=core_size, replace=False) % max(slice_w, 1)
         for c in range(n_clusters)]
    )
    pool_w = _zipf_weights(n_tokens, 1.2)  # shared pool: popular tokens collide
    cluster_of = g.integers(0, n_clusters, size=n_sets)
    sets = []
    for i in range(n_sets):
        sz = max(2, int(g.poisson(avg_size)))
        n_core = min(int(round(sz * share)), core_size)
        core = g.choice(cores[cluster_of[i]], size=n_core, replace=False)
        noise = g.choice(n_tokens, size=sz - n_core, p=pool_w)
        sets.append(np.unique(np.concatenate([core, noise])))
    return SetDB(sets=sets, n_tokens=n_tokens, name=f"powerlaw(a={alpha})")


def sample_queries(db: SetDB, *, n: int = 100, seed: int = 13) -> List[np.ndarray]:
    """Random query workload drawn from the database (paper §7.1)."""
    g = _rng(seed)
    idx = g.choice(len(db.sets), size=min(n, len(db.sets)), replace=False)
    return [db.sets[i] for i in idx]


def __getattr__(name: str):
    """A lazy re-export from :mod:`repro.spark_backend` for the
    benchmark, which imports ``sets_df`` from here."""
    if name == "sets_df":
        from . import spark_backend

        return spark_backend.sets_df
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
