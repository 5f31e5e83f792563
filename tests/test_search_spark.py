"""SparkLES3: the distributed broadcast-join search engine must agree
exactly with the local engine and the DuckDB oracle, under every measure.

Each test loops over ``MEASURES`` inside one Spark session, so one engine
per measure shares the cached group-partitioned data."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core.search import LocalLES3, SparkLES3, attach_groups
from repro.core.similarity import MEASURES, sim_fn, tokens
from repro.core.tgm import TGM
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr

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
    data = attach_groups(spark, sd.sets_df(spark, db), groups).cache()
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
    db, _, _ = small_db
    queries = sd.sample_queries(db, n=8, seed=21)
    for measure, engine in spark_engines.items():
        out, stats = engine.range_batch(queries, delta)
        for qid, q in enumerate(queries):
            got = sorted(out.loc[out["qid"] == qid, "sid"].tolist())
            assert got == _brute_range(db, q, delta, measure), (measure, qid)
            assert stats.per_query[qid].n_results == len(got)
        assert len(stats.per_query) == len(queries)


@pytest.mark.parametrize("k", [1, 5, 20, 700])
def test_knn_batch_matches_local_engine(spark_engines, small_db, k):
    """k = 700 exceeds |D| = 600: every set is returned, and counted."""
    db, _, tgm = small_db
    queries = sd.sample_queries(db, n=6, seed=22)
    for measure, engine in spark_engines.items():
        local = LocalLES3(db.sets, tgm, measure)
        out, stats = engine.knn_batch(queries, k)
        for qid, q in enumerate(queries):
            got = out.loc[out["qid"] == qid].sort_values(
                ["sim", "sid"], ascending=[False, True]
            )
            exp, _ = local.knn(q, k)
            assert len(got) == min(k, len(db.sets)), measure
            assert stats.per_query[qid].n_results == len(got), measure
            # similarity multiset must match exactly (ties may permute sids)
            np.testing.assert_allclose(
                np.sort(got["sim"].to_numpy()),
                np.sort([v for _, v in exp]),
                atol=1e-12,
                err_msg=measure,
            )


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
            got = out.loc[out["qid"] == qid].sort_values("sid")
            exp = sorted(local.range(q, 0.0)[0])
            assert list(zip(got["sid"], got["sim"])) == exp, (measure, qid)
