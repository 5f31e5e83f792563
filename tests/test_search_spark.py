"""SparkLES3: the distributed broadcast-join search engine must agree
exactly with the local engine and the DuckDB oracle, under every measure.

Each test loops over ``MEASURES`` inside one Spark session, so one engine
per measure shares the cached group-partitioned data."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core.search import LocalLES3
from repro.core.similarity import MEASURES, sim_fn, tokens
from repro.core.tgm import TGM
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr
from repro.spark_backend import SparkLES3, attach_groups, sets_df

# Sim(Q, S) over the oracle's per-pair tables: c = |Q∩S|, ds.sz = |S|,
# qs.sz = |Q| (written apart from the program's own formula table)
ORACLE_SIM = {
    "jaccard": "CAST(i.c AS DOUBLE) / (ds.sz + qs.sz - i.c)",
    "dice": "CAST(2 * i.c AS DOUBLE) / (ds.sz + qs.sz)",
    "cosine": "CAST(i.c AS DOUBLE) / SQRT(CAST(ds.sz * qs.sz AS DOUBLE))",
}


@pytest.fixture(scope="module")
def small_db():
    db = sd.gen_sets(n_sets=600, n_tokens=400, avg_size=8, seed=3)
    reps = ptr(db.sets, db.n_tokens)
    part = l2p_partition(reps, db.sets, n_groups=16, n_init=4, min_group=10, n_pairs=800)
    tgm = TGM.from_partition(db.sets, part.groups)
    return db, part.groups, tgm


def _engines(spark, db, groups, tgm):
    data = attach_groups(spark, sets_df(spark, db), groups).cache()
    data.count()
    return {m: SparkLES3(spark, data, tgm, measure=m) for m in MEASURES}


@pytest.fixture(scope="module")
def spark_engines(spark, small_db):
    return _engines(spark, *small_db)


def _brute_range(db, q, delta, measure):
    f = sim_fn(measure)
    return sorted(i for i, s in enumerate(db.sets) if f(q, s) >= delta)


@pytest.mark.parametrize("delta", [0.9, 0.7, 0.5])
def test_range_batch_matches_brute_force(spark_engines, small_db, delta):
    """The same sids as a brute-force scan, in the local engine's
    ``(-sim, sid)`` order with the same similarities."""
    db, _, tgm = small_db
    queries = sd.sample_queries(db, n=8, seed=21)
    for measure, engine in spark_engines.items():
        local = LocalLES3(db.sets, tgm, measure)
        out, stats = engine.range_batch(queries, delta)
        for qid, q in enumerate(queries):
            got = out.loc[out["qid"] == qid]
            exp, local_st = local.range(q, delta)
            assert sorted(got["sid"]) == _brute_range(db, q, delta, measure), (measure, qid)
            assert list(zip(got["sid"], got["sim"])) == exp, (measure, qid)
            assert stats.per_query[qid].n_results == len(got)
            assert stats.per_query[qid].tgm_candidates == local_st.tgm_candidates, (measure, qid)
            assert stats.per_query[qid].n_candidates <= stats.per_query[qid].tgm_candidates
        assert len(stats.per_query) == len(queries)


@pytest.mark.parametrize("k", [1, 5, 20, 700])
def test_knn_batch_matches_local_engine(spark_engines, small_db, k):
    """k = 700 exceeds |D| = 600: every set is returned, and counted.
    ``tgm_candidates`` is the local engine's. ``n_candidates`` may exceed
    it: pass 2 verifies groups whose bound reaches pass 1's k-th
    similarity, which can lie below the final k-th."""
    db, _, tgm = small_db
    queries = sd.sample_queries(db, n=6, seed=22)
    for measure, engine in spark_engines.items():
        local = LocalLES3(db.sets, tgm, measure)
        out, stats = engine.knn_batch(queries, k)
        for qid, q in enumerate(queries):
            got = out.loc[out["qid"] == qid]
            exp, local_st = local.knn(q, k)
            assert list(zip(got["sid"], got["sim"])) == exp, (measure, qid)
            assert len(got) == min(k, len(db.sets)), measure
            assert stats.per_query[qid].n_results == len(got), measure
            assert stats.per_query[qid].tgm_candidates == local_st.tgm_candidates, (measure, qid)


@pytest.mark.parametrize("k", [0, -1])
def test_knn_batch_rejects_k_below_one(spark_engines, small_db, k):
    db, _, _ = small_db
    queries = sd.sample_queries(db, n=2, seed=22)
    with pytest.raises(ValueError):
        spark_engines["jaccard"].knn_batch(queries, k)


def test_range_batch_against_duckdb_oracle(spark, spark_engines, small_db):
    """Ground truth via relational SQL over the exploded token table."""
    from repro.oracle import assert_equivalent

    db, _, _ = small_db
    queries = sd.sample_queries(db, n=4, seed=23)
    delta = 0.6
    d_tokens = pd.DataFrame(
        [(i, int(t)) for i, s in enumerate(db.sets) for t in s],
        columns=["sid", "token"],
    )
    q_tokens = pd.DataFrame(
        [(qid, int(t)) for qid, q in enumerate(queries) for t in np.unique(q)],
        columns=["qid", "token"],
    )
    for measure, engine in spark_engines.items():
        out, _ = engine.range_batch(queries, delta)
        got_df = spark.createDataFrame(
            out[["qid", "sid"]] if len(out) else pd.DataFrame({"qid": [], "sid": []}),
            schema="qid bigint, sid bigint",
        )
        sql = f"""
            WITH ds AS (SELECT sid, COUNT(*) sz FROM d_tokens GROUP BY sid),
                 qs AS (SELECT qid, COUNT(*) sz FROM q_tokens GROUP BY qid),
                 inter AS (
                   SELECT q.qid, d.sid, COUNT(*) c
                   FROM d_tokens d JOIN q_tokens q USING (token)
                   GROUP BY q.qid, d.sid)
            SELECT i.qid AS qid, i.sid AS sid
            FROM inter i JOIN ds ON ds.sid = i.sid JOIN qs ON qs.qid = i.qid
            WHERE {ORACLE_SIM[measure]} >= {delta}
        """
        assert_equivalent(got_df, sql, d_tokens=d_tokens, q_tokens=q_tokens)


def test_empty_set_and_empty_query_at_delta_zero(spark):
    """δ = 0 verifies every pair, including an empty query against an
    empty set, where every measure's denominator is 0 (ANSI-mode Spark
    raises on an unguarded division)."""
    db = sd.SetDB(
        sets=[tokens(s) for s in ([], [1, 2], [2, 3, 4], [5], [1, 5, 6])],
        n_tokens=10,
    )
    groups = np.array([0, 0, 1, 1, 1])
    tgm = TGM.from_partition(db.sets, groups)
    queries = [tokens([]), tokens([1, 2]), tokens([5, 9])]
    for measure, engine in _engines(spark, db, groups, tgm).items():
        local = LocalLES3(db.sets, tgm, measure)
        out, _ = engine.range_batch(queries, 0.0)
        for qid, q in enumerate(queries):
            got = out.loc[out["qid"] == qid]
            exp = local.range(q, 0.0)[0]
            assert list(zip(got["sid"], got["sim"])) == exp, (measure, qid)


def test_multisets_match_local_engine(spark):
    """Sets that repeat tokens or are unsorted: the TGM's size windows and
    ``sim_expr``'s ``array_distinct`` both count distinct tokens, so
    range and kNN agree with the local engine under every measure. Group
    6 holds multisets only, whose raw lengths (4 and 5) lie outside their
    distinct sizes (1 and 2)."""
    rng = np.random.default_rng(3)
    sets = [rng.integers(0, 25, rng.integers(1, 9)) for _ in range(60)]
    sets[5] = np.array([9, 9, 9, 9])
    sets[6] = np.array([4, 1, 4, 1, 4])
    groups = np.arange(len(sets)) % 6
    groups[[5, 6]] = 6
    db = sd.SetDB(sets=sets, n_tokens=25)
    tgm = TGM.from_partition(sets, groups)
    queries = [np.array([9]), np.array([4, 4, 1]), sets[0], sets[11], np.array([3, 7, 7, 20])]
    for measure, engine in _engines(spark, db, groups, tgm).items():
        local = LocalLES3(sets, tgm, measure)
        ranged, _ = engine.range_batch(queries, 0.5)
        nearest, _ = engine.knn_batch(queries, 4)
        for qid, q in enumerate(queries):
            got = ranged.loc[ranged["qid"] == qid]
            assert list(zip(got["sid"], got["sim"])) == local.range(q, 0.5)[0], (measure, qid)
            got = nearest.loc[nearest["qid"] == qid]
            assert list(zip(got["sid"], got["sim"])) == local.knn(q, 4)[0], (measure, qid)
