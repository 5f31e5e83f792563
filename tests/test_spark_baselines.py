"""Distributed baseline engines must agree with the local references."""
import pytest

from repro import synth_data as sd
from repro.baselines.brute import LocalBrute
from repro.baselines.invidx import LocalInvIdx
from repro.spark_backend import SparkBrute, SparkInvIdx, sets_df


@pytest.fixture(scope="module")
def db():
    return sd.gen_sets(n_sets=300, n_tokens=250, avg_size=7, seed=20)


@pytest.fixture(scope="module")
def data(spark, db):
    d = sets_df(spark, db).cache()
    d.count()
    return d


@pytest.fixture(scope="module")
def queries(db):
    return sd.sample_queries(db, n=6, seed=21)


def _answer(out, qid):
    """Query ``qid``'s ``(sid, sim)`` rows of a batch answer, in its order."""
    got = out.loc[out["qid"] == qid]
    return list(zip(got["sid"], got["sim"]))


class TestSparkBrute:
    @pytest.mark.parametrize("delta", [0.8, 0.5, 0.0])
    def test_range_matches_local(self, spark, db, data, queries, delta):
        out = SparkBrute(spark, data).range_batch(queries, delta)
        local = LocalBrute(db.sets)
        for qid, q in enumerate(queries):
            assert _answer(out, qid) == local.range(q, delta)[0]

    def test_knn_matches_local(self, spark, db, data, queries):
        out = SparkBrute(spark, data).knn_batch(queries, 5)
        local = LocalBrute(db.sets)
        for qid, q in enumerate(queries):
            assert _answer(out, qid) == local.knn(q, 5)[0]

    @pytest.mark.parametrize("k", [0, -1])
    def test_knn_rejects_k_below_one(self, spark, data, queries, k):
        with pytest.raises(ValueError):
            SparkBrute(spark, data).knn_batch(queries, k)


class TestSparkInvIdx:
    @pytest.fixture(scope="class")
    def engine(self, spark, data, db):
        return SparkInvIdx(spark, data, db.n_tokens)

    @pytest.mark.parametrize("delta", [0.8, 0.5, 0.0])
    def test_range_matches_local(self, db, engine, queries, delta):
        out = engine.range_batch(queries, delta)
        local = LocalInvIdx(db.sets, db.n_tokens)
        for qid, q in enumerate(queries):
            assert _answer(out, qid) == local.range(q, delta)[0]

    def test_knn_delta_descent_matches_brute(self, db, engine, queries):
        out = engine.knn_batch(queries, 5, z=0.2)
        local = LocalInvIdx(db.sets, db.n_tokens)
        brute = LocalBrute(db.sets)
        for qid, q in enumerate(queries):
            assert _answer(out, qid) == local.knn(q, 5, z=0.2)[0] == brute.knn(q, 5)[0]

    @pytest.mark.parametrize("k", [0, -1])
    def test_knn_rejects_k_below_one(self, engine, queries, k):
        with pytest.raises(ValueError):
            engine.knn_batch(queries, k)
