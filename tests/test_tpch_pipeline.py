"""End-to-end LES³ over TPC-H-lite relational data.

Orders become sets of part keys (`orders_as_sets`); the full pipeline —
PTR, L2P, TGM, Spark broadcast-join search — runs on them, and range
results are checked against DuckDB SQL over the *relational* lineitem
table via the provided oracle.
"""
import numpy as np
import pandas as pd
import pytest

from repro import spark_backend as sb
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr
from repro.core.tgm import TGM
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def pipeline(spark):
    sf, seed = 0.002, 0
    li = sb.lineitem(spark, sf=sf, seed=seed)
    odf = sb.orders_as_sets(spark, sf=sf, seed=seed)
    pdf = odf.orderBy("sid").toPandas()
    sets = [np.array(t, dtype=np.int64) for t in pdf["tokens"]]
    sids = pdf["sid"].to_numpy()
    n_tokens = int(max(t.max() for t in sets)) + 1
    reps = ptr(sets, n_tokens)
    part = l2p_partition(
        reps, sets, n_groups=16, n_init=4, min_group=20, n_pairs=800, seed=0
    )
    # attach groups keyed by the *order key* sid
    gdf = spark.createDataFrame(
        pd.DataFrame({"sid": sids.astype("int64"), "gid": part.groups.astype("int64")})
    )
    data = odf.join(gdf, "sid").repartition("gid").cache()
    data.count()
    tgm = TGM.from_partition(sets, part.groups)
    # remap TGM member lists from positional ids to order keys
    for g in range(tgm.n_groups):
        tgm.group_members[g] = [int(sids[i]) for i in tgm.group_members[g]]
    return li, sets, sids, sb.SparkLES3(spark, data, tgm)


def test_range_search_on_orders_matches_relational_oracle(spark, pipeline):
    li, sets, sids, engine = pipeline
    rng = np.random.default_rng(0)
    q_idx = rng.choice(len(sets), size=3, replace=False)
    queries = [sets[i] for i in q_idx]
    delta = 0.5
    out, _ = engine.range_batch(queries, delta)
    got = spark.createDataFrame(
        out[["qid", "sid"]] if len(out) else pd.DataFrame({"qid": [], "sid": []}),
        schema="qid bigint, sid bigint",
    )
    q_rows = [
        (int(qid), int(t)) for qid, i in enumerate(q_idx) for t in sets[i]
    ]
    qt = pd.DataFrame(q_rows, columns=["qid", "l_partkey"])
    sql = f"""
        WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
             ds AS (SELECT l_orderkey, COUNT(*) sz FROM d GROUP BY l_orderkey),
             qs AS (SELECT qid, COUNT(*) sz FROM q_tokens GROUP BY qid),
             inter AS (
               SELECT q.qid, d.l_orderkey, COUNT(*) c
               FROM d JOIN q_tokens q USING (l_partkey)
               GROUP BY q.qid, d.l_orderkey)
        SELECT i.qid AS qid, i.l_orderkey AS sid
        FROM inter i
        JOIN ds ON ds.l_orderkey = i.l_orderkey
        JOIN qs ON qs.qid = i.qid
        WHERE CAST(i.c AS DOUBLE) / (ds.sz + qs.sz - i.c) >= {delta}
    """
    assert_equivalent(got, sql, lineitem=li, q_tokens=qt)


def test_knn_on_orders_self_match(pipeline):
    _, sets, sids, engine = pipeline
    queries = [sets[0], sets[1]]
    out, _ = engine.knn_batch(queries, 1)
    sid_to_set = {int(s): sets[i] for i, s in enumerate(sids)}
    for qid in (0, 1):
        top = out[out["qid"] == qid].iloc[0]
        # the top hit has similarity 1.0 — itself or an identical order
        assert top["sim"] == pytest.approx(1.0)
        np.testing.assert_array_equal(
            np.unique(sid_to_set[int(top["sid"])]), np.unique(queries[qid])
        )
