"""§7.8 (Figure 15) — handling updates.

Starting from an L2P partitioning of the base database, insert new sets
via the TGM update rule of §6 under (1) a closed universe and (2) an
open universe (half of the inserted tokens previously unseen), at
insertion ratios in [0, 1]. Report the percentage decrease in kNN
pruning efficiency relative to re-running L2P from scratch on the
enlarged database. Expected shape: PE degrades gently (≤ ~8% at ratio
1.0 in the paper; more slack here at 1/300 scale), with open-universe
insertions hurting more than closed ones. PE reads ``tgm_candidates``,
the candidates of the paper's TGM bound (Equation 2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.search import LocalLES3
from ..core.tgm import TGM
from ..synth_data import SET_PRESETS, SetDB, gen_sets, sample_queries
from .common import build_les3, mean_pe


def _base_params(scale: float) -> dict:
    """kosarak-shaped generator parameters at `scale` (same rules as
    synth_data.dataset, spelled out so the insert batches can reuse the
    exact same universe)."""
    p = SET_PRESETS["kosarak"]
    return dict(
        n_sets=max(50, int(p["n_sets"] * scale)),
        n_tokens=max(16, int(p["n_tokens"] * min(1.0, 50.0 * scale))),
        avg_size=p["avg_size"],
        max_size=p["max_size"],
        cluster_frac=0.5,
    )


def _new_sets(params: dict, n_new: int, *, open_universe: bool, seed: int) -> list:
    """New sets from the same shape and universe; the open-universe case
    swaps ~half of each set's tokens for previously-unseen ids."""
    extra = gen_sets(**{**params, "n_sets": max(1, n_new)}, seed=seed + 100).sets
    if not open_universe:
        return extra
    rng = np.random.default_rng(seed + 200)
    n_tokens = params["n_tokens"]
    out = []
    for s in extra:
        n_half = len(s) // 2
        fresh = n_tokens + rng.integers(0, n_tokens, size=n_half)
        keep = rng.choice(s, size=len(s) - n_half, replace=False)
        out.append(np.unique(np.concatenate([keep, fresh])))
    return out


def run(
    *,
    scale: float = 0.003,
    n_groups: int | None = None,
    ratios: tuple = (0.0, 0.25, 0.5, 0.75, 1.0),
    k: int = 10,
    n_queries: int = 40,
    seed: int = 0,
) -> pd.DataFrame:
    params = _base_params(scale)
    base = gen_sets(**params, seed=seed)
    # fix the group count for incremental AND re-build: TGM insertion
    # cannot create groups, so giving the re-build more of them would
    # conflate the insertion penalty with a group-count advantage
    n_groups = n_groups or max(16, int(0.01 * len(base.sets)))
    b = build_les3(base, n_groups=n_groups, seed=seed)
    # one fixed query workload (drawn from the base) across all ratios,
    # so PE differences reflect the index state, not the query sample
    queries = sample_queries(base, n=n_queries, seed=seed + 3)
    rows = []
    for universe in ("closed", "open"):
        for r in ratios:
            n_new = int(len(base.sets) * r)
            extra = (
                _new_sets(params, n_new, open_universe=universe == "open", seed=seed)
                if n_new
                else []
            )
            all_sets = list(base.sets) + list(extra)
            # open-universe ids extend to 2x the base universe (see _new_sets)
            universe_size = params["n_tokens"] * (2 if universe == "open" else 1)
            full = SetDB(sets=all_sets, n_tokens=universe_size)

            # incremental: copy the trained TGM and insert the new sets
            tgm = TGM.from_partition(base.sets, b.l2p.groups)
            for i, s in enumerate(extra):
                tgm.insert(s, len(base.sets) + i)
            eng = LocalLES3(all_sets, tgm)
            stats = [eng.knn(q, k)[1] for q in queries]
            pe_inc = mean_pe(stats, len(all_sets), [k] * len(queries))

            # re-build: L2P from scratch on the enlarged database,
            # averaged over two seeds (partitioning variance at this
            # scale would otherwise swamp the insertion effect)
            pes = []
            for off in (7, 8):
                rb = build_les3(full, n_groups=n_groups, seed=seed + off)
                stats_rb = [rb.engine.knn(q, k)[1] for q in queries]
                pes.append(mean_pe(stats_rb, len(all_sets), [k] * len(queries)))
            pe_rb = float(np.mean(pes))

            rows.append(
                {
                    "universe": universe,
                    "ratio": r,
                    "pe_incremental": round(pe_inc, 4),
                    "pe_rebuild": round(pe_rb, 4),
                    "pe_drop_pct": round(100.0 * (pe_rb - pe_inc) / max(pe_rb, 1e-9), 2),
                }
            )
    return pd.DataFrame(rows)
