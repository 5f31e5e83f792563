"""Shared harness pieces for the evaluation experiments."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..core.l2p import L2PResult, l2p_partition
from ..core.ptr import represent
from ..core.search import LocalLES3, SearchStats
from ..core.tgm import TGM
from ..synth_data import SetDB


@dataclass
class Les3Build:
    """An LES³ instance over a driver-resident database."""

    db: SetDB
    l2p: L2PResult
    tgm: TGM
    engine: LocalLES3
    rep_seconds: float
    partition_seconds: float

    @property
    def n_groups(self) -> int:
        return self.tgm.n_groups


def default_groups(n_sets: int) -> int:
    """The paper's empirical rule (§7.5): n ≈ 0.5% |D|, floored for the
    small scales used here."""
    return max(8, int(round(0.005 * n_sets)))


def build_les3(
    db: SetDB,
    *,
    n_groups: int | None = None,
    rep: str = "ptr",
    reps: np.ndarray | None = None,
    min_group: int = 10,
    n_pairs: int = 2000,
    measure: str = "jaccard",
    use_init: bool = False,
    n_init: int = 8,
    seed: int = 0,
) -> Les3Build:
    """PTR → L2P → TGM → local engine, with each stage timed.

    ``use_init`` defaults to the fully learned cascade: the paper's
    min-token initialization is an efficiency shortcut for its real
    datasets, but on synthetic data the minimal token is usually a
    popular noise token, so the init chunks mix clusters and measurably
    hurt pruning (see DESIGN.md); §7.2 covers the init path explicitly.
    """
    t0 = time.perf_counter()
    if reps is None:
        reps = represent(db.sets, db.n_tokens, rep)
    rep_seconds = time.perf_counter() - t0
    l2p = l2p_partition(
        reps,
        db.sets,
        n_groups=n_groups or default_groups(len(db.sets)),
        n_init=min(n_init, max(1, len(db.sets) // (2 * min_group))),
        use_init=use_init,
        min_group=min_group,
        n_pairs=n_pairs,
        measure=measure,
        seed=seed,
    )
    tgm = TGM.from_partition(db.sets, l2p.groups)
    return Les3Build(
        db=db,
        l2p=l2p,
        tgm=tgm,
        engine=LocalLES3(db.sets, tgm, measure),
        rep_seconds=rep_seconds,
        partition_seconds=l2p.train_seconds,
    )


def timed_queries(
    fn: Callable[[np.ndarray], Tuple[list, SearchStats]],
    queries: Sequence[np.ndarray],
) -> Tuple[float, List[SearchStats], List[list]]:
    """Run ``fn`` per query; return (mean seconds, stats, results)."""
    stats: List[SearchStats] = []
    results: List[list] = []
    t0 = time.perf_counter()
    for q in queries:
        res, st = fn(q)
        stats.append(st)
        results.append(res)
    total = time.perf_counter() - t0
    return total / max(1, len(queries)), stats, results


def mean_pe(stats: List[SearchStats], n_db: int, k_or_res: List[int]) -> float:
    return float(
        np.mean([s.pruning_efficiency(n_db, r) for s, r in zip(stats, k_or_res)])
    )
