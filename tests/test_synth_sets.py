"""Set-database generators: shape fidelity and determinism."""
import numpy as np
import pytest

from repro import spark_backend as sb
from repro import synth_data as sd


class TestGenSets:
    def test_deterministic(self):
        a = sd.gen_sets(n_sets=100, n_tokens=80, avg_size=6, seed=3)
        b = sd.gen_sets(n_sets=100, n_tokens=80, avg_size=6, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.sets, b.sets))

    def test_different_seed_differs(self):
        a = sd.gen_sets(n_sets=50, n_tokens=80, avg_size=6, seed=3)
        b = sd.gen_sets(n_sets=50, n_tokens=80, avg_size=6, seed=4)
        assert any(not np.array_equal(x, y) for x, y in zip(a.sets, b.sets))

    def test_size_bounds_respected(self):
        db = sd.gen_sets(
            n_sets=300, n_tokens=500, avg_size=8, min_size=2, max_size=20, seed=1
        )
        sizes = [len(s) for s in db.sets]
        assert min(sizes) >= 1  # dedup can only shrink, min_size pre-dedup
        assert max(sizes) <= 20

    def test_avg_size_near_target_when_universe_large(self):
        db = sd.gen_sets(n_sets=500, n_tokens=50_000, avg_size=10, seed=1)
        assert db.stats()["avg_size"] == pytest.approx(10, rel=0.25)

    def test_sets_sorted_unique(self):
        db = sd.gen_sets(n_sets=50, n_tokens=100, avg_size=6, seed=2)
        for s in db.sets:
            assert np.all(np.diff(s) > 0)

    def test_zipf_skew(self):
        """Token 0 must be much more frequent than the median token."""
        db = sd.gen_sets(n_sets=500, n_tokens=200, avg_size=8, alpha=1.0, seed=5)
        freq = np.zeros(200)
        for s in db.sets:
            freq[s] += 1
        assert freq[0] > 5 * np.median(freq[freq > 0])


class TestPresets:
    @pytest.mark.parametrize("name", list(sd.SET_PRESETS))
    def test_all_presets_generate(self, name):
        db = sd.dataset(name, scale=0.00005 if name != "pmc" else 0.0000005, seed=1)
        st = db.stats()
        assert st["n_sets"] >= 50
        assert st["min_size"] >= 1

    def test_scaled_counts(self):
        db = sd.dataset("kosarak", scale=0.001, seed=1)
        assert len(db.sets) == int(sd.SET_PRESETS["kosarak"]["n_sets"] * 0.001)

    def test_token_scale_override(self):
        small = sd.dataset("kosarak", scale=0.0005, token_scale=0.001, seed=1)
        big = sd.dataset("kosarak", scale=0.0005, token_scale=0.01, seed=1)
        assert big.n_tokens > small.n_tokens

    def test_token_scale_default_is_larger_than_scale(self):
        """The default keeps the universe ~50x less scaled than |D| —
        union-coverage fidelity, see the dataset() docstring."""
        db = sd.dataset("kosarak", scale=0.0005, seed=1)
        assert db.n_tokens == int(sd.SET_PRESETS["kosarak"]["n_tokens"] * 0.025)

    def test_avg_sizes_track_paper(self):
        """AOL sets (avg 3.0) must come out far smaller than LIVEJ (35.1)."""
        aol = sd.dataset("aol", scale=0.0002, seed=1).stats()["avg_size"]
        livej = sd.dataset("livej", scale=0.0002, seed=1).stats()["avg_size"]
        assert aol < 6 < 15 < livej


class TestPowerlawSimDB:
    def test_dissimilar_mass_increases_with_alpha(self):
        """Larger α ⇒ more near-zero-similarity pairs (the §7.7 knob)."""
        fracs = []
        for a in (1.0, 2.0, 4.0):
            db = sd.powerlaw_sim_db(n_sets=300, n_tokens=600, alpha=a, seed=2)
            rng = np.random.default_rng(0)
            xs, ys = rng.integers(0, 300, 1500), rng.integers(0, 300, 1500)
            sims = [
                len(np.intersect1d(db.sets[x], db.sets[y]))
                / len(np.union1d(db.sets[x], db.sets[y]))
                for x, y in zip(xs, ys)
                if x != y
            ]
            fracs.append(np.mean(np.array(sims) < 0.05))
        assert fracs[0] < fracs[1] < fracs[2]

    def test_basic_shape(self):
        db = sd.powerlaw_sim_db(n_sets=100, n_tokens=200, alpha=2.0, seed=1)
        assert len(db.sets) == 100
        assert all(len(s) >= 1 for s in db.sets)


class TestQueries:
    def test_sample_queries_from_db(self):
        db = sd.gen_sets(n_sets=100, n_tokens=80, avg_size=6, seed=3)
        qs = sd.sample_queries(db, n=10, seed=1)
        assert len(qs) == 10
        ids = {tuple(q) for q in qs}
        pool = {tuple(s) for s in db.sets}
        assert ids <= pool

    def test_sample_more_than_db_clamps(self):
        db = sd.gen_sets(n_sets=20, n_tokens=50, avg_size=4, seed=3)
        assert len(sd.sample_queries(db, n=100)) == 20


class TestSparkIntegration:
    def test_sets_df_roundtrip(self, spark):
        db = sd.gen_sets(n_sets=40, n_tokens=60, avg_size=5, seed=6)
        pdf = sb.sets_df(spark, db).orderBy("sid").toPandas()
        assert len(pdf) == 40
        for i, row in pdf.iterrows():
            np.testing.assert_array_equal(np.array(row["tokens"]), db.sets[row["sid"]])

    def test_orders_as_sets_matches_oracle(self, spark):
        """TPC-H tie-in: the per-order part sets agree with a DuckDB
        groupBy over the same lineitem input."""
        from repro.oracle import assert_equivalent
        from pyspark.sql import functions as F

        li = sb.lineitem(spark, sf=0.002, seed=0)
        got = sb.orders_as_sets(spark, sf=0.002, seed=0).select(
            "sid", F.size("tokens").alias("n_parts")
        )
        assert_equivalent(
            got,
            """
            SELECT l_orderkey AS sid, COUNT(DISTINCT l_partkey) AS n_parts
            FROM lineitem GROUP BY l_orderkey
            """,
            lineitem=li,
        )
