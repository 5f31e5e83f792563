"""Independent answer checker for the benchmark.

Exact answers come from DuckDB over an exploded ``(sid, token)`` table,
and single similarities from plain Python sets. Neither path touches
the program's ``PackedSets``, ``TGM`` or similarity code, so a fault in
those cannot hide itself. The program's TGM is read only for what it is
checked on: the Theorem 3.1 property ``UB(Q, group of S) >= Sim(Q, S)``,
with its upper bounds and group membership.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import duckdb
import numpy as np
import pandas as pd

TOL = 1e-9

# Similarity of Q and S from c = |Q ∩ S|, nq = |Q| and ns = |S|.
_SQL_SIM = {
    "jaccard": "c::DOUBLE / (nq + ns - c)",
    "dice": "2.0 * c / (nq + ns)",
    "cosine": "c::DOUBLE / sqrt(nq::DOUBLE * ns)",
}


def py_sim(q: Iterable[int], s: Iterable[int], measure: str) -> float:
    """Set similarity computed with Python sets (0 when either set is empty)."""
    a, b = set(q), set(s)
    if not a or not b:
        return 0.0
    c = len(a & b)
    if measure == "jaccard":
        return c / len(a | b)
    if measure == "dice":
        return 2.0 * c / (len(a) + len(b))
    if measure == "cosine":
        return c / math.sqrt(len(a) * len(b))
    raise ValueError(f"unknown measure {measure!r}")


def _exploded(sets: Sequence[Iterable[int]], id_col: str) -> pd.DataFrame:
    uniq = [np.unique(np.asarray(list(s), dtype=np.int64)) for s in sets]
    lens = np.array([len(u) for u in uniq], dtype=np.int64)
    return pd.DataFrame(
        {
            id_col: np.repeat(np.arange(len(uniq), dtype=np.int64), lens),
            "token": np.concatenate(uniq) if len(uniq) else np.empty(0, np.int64),
        }
    )


def positive_sims(
    sets: Sequence[Iterable[int]],
    queries: Sequence[Iterable[int]],
    measure: str,
    *,
    min_sim: float = 0.0,
    top: int | None = None,
) -> pd.DataFrame:
    """``(qid, sid, sim)`` for every pair with ``sim > 0`` and ``sim >= min_sim``;
    with ``top`` set, only each query's ``top`` most similar sets."""
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 2")
        con.register("d", _exploded(sets, "sid"))
        con.register("q", _exploded(queries, "qid"))
        rank = (
            f"QUALIFY row_number() OVER (PARTITION BY qid ORDER BY sim DESC, sid) <= {int(top)}"
            if top is not None
            else ""
        )
        sql = f"""
            WITH inter AS (
                SELECT q.qid, d.sid, count(*) AS c
                FROM q JOIN d ON q.token = d.token
                GROUP BY q.qid, d.sid),
            ql AS (SELECT qid, count(*) AS nq FROM q GROUP BY qid),
            dl AS (SELECT sid, count(*) AS ns FROM d GROUP BY sid),
            scored AS (
                SELECT inter.qid, inter.sid, {_SQL_SIM[measure]} AS sim
                FROM inter JOIN ql USING (qid) JOIN dl USING (sid))
            SELECT qid, sid, sim FROM scored
            WHERE sim >= {float(min_sim)!r}
            {rank}
        """
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def group_of(tgm, n_sets: int) -> np.ndarray:
    """Group id of every set, read from the index under test."""
    out = np.full(n_sets, -1, dtype=np.int64)
    for g, members in enumerate(tgm.group_members):
        out[np.asarray(members, dtype=np.int64)] = g
    return out


class Checker:
    """Judges single answers; each method returns what was wrong, if anything.
    ``tgm`` and ``groups`` are the index under test and each set's group."""

    def __init__(self, sets: Sequence[Iterable[int]], measure: str, tgm, groups):
        self.sets = sets
        self.measure = measure
        self.tgm = tgm
        self.groups = groups
        self._ub_cache: Dict[int, np.ndarray] = {}

    def _true(self, q, sid: int) -> float:
        return py_sim(q, self.sets[sid], self.measure)

    def _unknown(self, answer) -> List[str]:
        bad = [sid for sid, _ in answer if not 0 <= sid < len(self.sets)]
        return [f"unknown sids {bad[:5]}"] if bad else []

    def _ub_ok(self, qkey: int, q, answer, errors: List[str]) -> None:
        ubs = self._ub_cache.get(qkey)
        if ubs is None:
            ubs = self._ub_cache[qkey] = self.tgm.upper_bounds(
                np.asarray(sorted(set(q)), dtype=np.int64), self.measure
            )
        for sid, _ in answer:
            s = self._true(q, sid)
            if ubs[self.groups[sid]] < s - TOL:
                errors.append(f"UB {ubs[self.groups[sid]]:.6f} < Sim {s:.6f} for sid {sid}")

    def range(self, qkey: int, q, answer: List[Tuple[int, float]], delta: float,
              expected: Dict[int, float]) -> List[str]:
        """``expected``: every sid with true sim >= delta - TOL, with that sim."""
        errors = self._unknown(answer)
        if errors:
            return errors
        got = {}
        for sid, v in answer:
            if sid in got:
                errors.append(f"sid {sid} returned twice")
            got[sid] = v
        must = {s for s, v in expected.items() if v >= delta + TOL}
        missing = must - got.keys()
        extra = got.keys() - expected.keys()
        if missing:
            errors.append(f"missing sids {sorted(missing)[:5]}")
        if extra:
            errors.append(f"sids below delta {sorted(extra)[:5]}")
        for sid, v in got.items():
            t = expected.get(sid)
            if t is None:
                t = self._true(q, sid)
            if abs(t - v) > TOL:
                errors.append(f"sid {sid}: reported {v:.9f}, true {t:.9f}")
                break
        self._ub_ok(qkey, q, answer, errors)
        return errors

    def knn(self, qkey: int, q, answer: List[Tuple[int, float]], k: int,
            top_values: np.ndarray) -> List[str]:
        """``top_values``: the true k largest similarities, descending."""
        errors = self._unknown(answer)
        if errors:
            return errors
        want = min(k, len(self.sets))
        if len(answer) != want:
            errors.append(f"{len(answer)} results, expected {want}")
        sids = [s for s, _ in answer]
        if len(set(sids)) != len(sids):
            errors.append("duplicate sids")
        for sid, v in answer:
            t = self._true(q, sid)
            if abs(t - v) > TOL:
                errors.append(f"sid {sid}: reported {v:.9f}, true {t:.9f}")
                break
        exp = np.zeros(want)
        exp[: min(want, len(top_values))] = top_values[:want]
        got = np.sort(np.array([v for _, v in answer], dtype=np.float64))[::-1]
        if len(got) == want and np.max(np.abs(got - exp), initial=0.0) > TOL:
            errors.append("top-k similarity values differ from the oracle")
        self._ub_ok(qkey, q, answer, errors)
        return errors


def range_expectations(sets, queries, measure: str, delta: float) -> List[Dict[int, float]]:
    """Per query, every sid with true sim >= delta - TOL, with that sim."""
    df = positive_sims(sets, queries, measure, min_sim=delta - TOL)
    out: List[Dict[int, float]] = [{} for _ in queries]
    for qid, sid, sim in df.itertuples(index=False):
        out[int(qid)][int(sid)] = float(sim)
    return out


def knn_expectations(sets, queries, measure: str, k: int) -> List[np.ndarray]:
    """Per query, the true k largest positive similarities, descending."""
    df = positive_sims(sets, queries, measure, top=k)
    out: List[List[float]] = [[] for _ in queries]
    for qid, _, sim in df.itertuples(index=False):
        out[int(qid)].append(float(sim))
    return [np.sort(np.array(v))[::-1] for v in out]
