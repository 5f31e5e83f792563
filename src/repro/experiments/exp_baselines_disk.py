"""§7.6 (Figure 13) — disk-based comparison via the analytical I/O model.

Per-query simulated disk time (DiskModel over each engine's actual
access counts) plus measured CPU time, on the two large presets (fs,
pmc — the paper's disk-resident datasets) scaled down. Expected shape:
LES³ wins by 2–10×; DualTrans and InvIdx fall behind brute force over a
wide range of k and δ because their random probes dominate, while LES³
reads few contiguous groups. The model reads the accesses each engine
makes as it runs: for LES³ the groups and sets its size-windowed bound
verifies (``n_groups_verified``, ``n_candidates``).
"""
from __future__ import annotations

import pandas as pd

from ..baselines.brute import LocalBrute
from ..baselines.dualtrans import DualTransEngine
from ..baselines.invidx import LocalInvIdx
from ..storage.diskmodel import DiskModel
from ..synth_data import dataset, sample_queries
from .common import build_les3, timed_queries

DUAL_D = 16
DUAL_FANOUT = 32


def run(
    *,
    datasets: tuple = ("fs", "pmc"),
    scales: dict | None = None,
    n_groups: int | None = None,
    n_queries: int = 30,
    deltas: tuple = (0.9, 0.7, 0.5),
    ks: tuple = (1, 10, 100),
    seed: int = 0,
) -> pd.DataFrame:
    scales = scales or {"fs": 0.0005, "pmc": 0.00005}
    disk = DiskModel()
    rows = []
    for name in datasets:
        db = dataset(name, scale=scales[name], seed=seed)
        avg_bytes = 8.0 * sum(len(s) for s in db.sets) / len(db.sets)
        queries = sample_queries(db, n=n_queries, seed=seed + 1)
        b = build_les3(db, n_groups=n_groups, seed=seed)
        dt = DualTransEngine(db.sets, db.n_tokens, d=DUAL_D, fanout=DUAL_FANOUT)
        inv = LocalInvIdx(db.sets, db.n_tokens)
        bf = LocalBrute(db.sets)

        def io(engine, st):
            if engine == "LES3":
                return disk.les3(st, avg_bytes)
            if engine == "DualTrans":
                return disk.dualtrans(st, avg_bytes, DUAL_D, DUAL_FANOUT)
            if engine == "InvIdx":
                return disk.invidx(st, avg_bytes)
            return disk.brute(len(db.sets), avg_bytes)

        sweeps = [("range", d) for d in deltas] + [("knn", k) for k in ks]
        for ename, eng in (
            ("LES3", b.engine),
            ("DualTrans", dt),
            ("InvIdx", inv),
            ("Brute", bf),
        ):
            for qtype, param in sweeps:
                fn = (
                    (lambda q, p=param: eng.range(q, p))
                    if qtype == "range"
                    else (lambda q, p=param: eng.knn(q, p))
                )
                cpu_s, stats, _ = timed_queries(fn, queries)
                io_s = sum(io(ename, s) for s in stats) / len(stats)
                rows.append(
                    {
                        "dataset": name,
                        "engine": ename,
                        "query": qtype,
                        "param": param,
                        "io_ms": round(io_s * 1e3, 3),
                        "cpu_ms": round(cpu_s * 1e3, 3),
                        "total_ms": round((io_s + cpu_s) * 1e3, 3),
                    }
                )
    return pd.DataFrame(rows)
