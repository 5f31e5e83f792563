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
    reps: np.ndarray | None = None,
    n_pairs: int = 2000,
    seed: int = 0,
) -> Les3Build:
    """PTR → L2P → TGM → Jaccard local engine, with each stage timed.

    The cascade is fully learned, with groups of fewer than 10 sets left
    unsplit. The paper's min-token initialization is an efficiency
    shortcut for its real datasets, but on synthetic data the minimal
    token is usually a popular noise token, so the init chunks mix
    clusters and measurably hurt pruning (see DESIGN.md); §7.2 and the
    tests cover the init path through :func:`.l2p.l2p_partition`.
    """
    t0 = time.perf_counter()
    if reps is None:
        reps = represent(db.sets, db.n_tokens)
    rep_seconds = time.perf_counter() - t0
    l2p = l2p_partition(
        reps,
        db.sets,
        n_groups=n_groups or default_groups(len(db.sets)),
        use_init=False,
        min_group=10,
        n_pairs=n_pairs,
        seed=seed,
    )
    tgm = TGM.from_partition(db.sets, l2p.groups)
    return Les3Build(
        db=db,
        l2p=l2p,
        tgm=tgm,
        engine=LocalLES3(db.sets, tgm),
        rep_seconds=rep_seconds,
        partition_seconds=l2p.train_seconds,
    )


# One pass over a query batch moved a harness's ``ms`` by up to 1.8×
# between runs; the median of this many passes is what it reports.
PASSES = 5


def timed_queries(
    fn: Callable[[np.ndarray], Tuple[list, SearchStats]],
    queries: Sequence[np.ndarray],
) -> Tuple[float, List[SearchStats], List[list]]:
    """Run ``fn`` per query, ``PASSES`` times over the batch; return
    (seconds per query, median over the passes, then the stats and
    results of the last pass)."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        out = [fn(q) for q in queries]
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) / max(1, len(queries)), [st for _, st in out], [res for res, _ in out]


def mean_pe(stats: List[SearchStats], n_db: int, k_or_res: List[int]) -> float:
    """The paper's PE (Definition 2.3) of LES³ queries, over the
    candidates of its TGM bound (``tgm_candidates``)."""
    return float(np.mean([(n_db - (s.tgm_candidates - r)) / n_db for s, r in zip(stats, k_or_res)]))


def mean_candidates(stats: List[SearchStats]) -> float:
    """Mean candidates of LES³'s TGM bound, the count the paper's PE reads."""
    return float(np.mean([s.tgm_candidates for s in stats]))
