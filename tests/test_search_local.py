"""LocalLES3 query processing: exactness against brute force across
measures, datasets, and query parameters (paper §3.1, Definitions 2.1-2.3)."""
import numpy as np
import pytest

from repro.baselines.brute import LocalBrute
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr
from repro.core.search import LocalLES3, SearchStats
from repro.core.similarity import cosine, sim_fn, tokens
from repro.core.tgm import HTGM, TGM
from repro.synth_data import dataset, gen_sets, powerlaw_sim_db, sample_queries


def build(db, n_groups=12, seed=0, measure="jaccard"):
    reps = ptr(db.sets, db.n_tokens)
    part = l2p_partition(
        reps, db.sets, n_groups=n_groups, n_init=4, min_group=10,
        n_pairs=600, measure=measure, seed=seed,
    )
    tgm = TGM.from_partition(db.sets, part.groups, db.n_tokens)
    return part, tgm, LocalLES3(db.sets, tgm, measure)


DBS = {
    "kosarak": lambda: dataset("kosarak", scale=0.0004, seed=1),
    "aol": lambda: dataset("aol", scale=0.00005, seed=1),
    "powerlaw": lambda: powerlaw_sim_db(n_sets=400, n_tokens=500, alpha=3.0, seed=1),
    "uniform": lambda: gen_sets(n_sets=400, n_tokens=300, avg_size=8, seed=1),
}


@pytest.fixture(scope="module", params=list(DBS))
def built(request):
    db = DBS[request.param]()
    part, tgm, eng = build(db)
    return db, part, tgm, eng, LocalBrute(db.sets)


class TestRangeExactness:
    @pytest.mark.parametrize("delta", [0.9, 0.7, 0.5, 0.3])
    def test_matches_brute(self, built, delta):
        db, _, _, eng, brute = built
        for q in sample_queries(db, n=8, seed=11):
            got, _ = eng.range(q, delta)
            exp, _ = brute.range(q, delta)
            assert got == exp

    def test_empty_result_at_impossible_threshold(self, built):
        db, _, _, eng, _ = built
        q = np.array([10**6])  # token outside every set
        got, st = eng.range(q, 0.5)
        assert got == [] and st.n_candidates == 0


class TestKnnExactness:
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_matches_brute_sims(self, built, k):
        db, _, _, eng, brute = built
        for q in sample_queries(db, n=8, seed=12):
            got, _ = eng.knn(q, k)
            exp, _ = brute.knn(q, k)
            assert len(got) == len(exp) == min(k, len(db.sets))
            np.testing.assert_allclose(
                sorted(v for _, v in got), sorted(v for _, v in exp), atol=1e-12
            )

    def test_k_larger_than_db(self):
        db = gen_sets(n_sets=20, n_tokens=30, avg_size=4, seed=2)
        _, _, eng = build(db, n_groups=2)
        got, _ = eng.knn(db.sets[0], 50)
        assert len(got) == 20


class TestStatsAccounting:
    def test_candidates_equal_verified_group_sizes(self, built):
        db, part, tgm, eng, _ = built
        q = db.sets[0]
        _, st = eng.range(q, 0.5)
        ubs = tgm.upper_bounds(q)
        cand_groups = np.flatnonzero(ubs >= 0.5)
        nonempty = [g for g in cand_groups if tgm.group_members[int(g)]]
        assert st.n_groups_verified == len(nonempty)
        assert st.n_candidates == int(tgm.group_sizes[cand_groups].sum())
        assert st.index_elems == tgm.n_groups * len(np.unique(q))

    def test_pruning_efficiency_definition(self):
        st = SearchStats(n_candidates=30, n_results=5)
        # Definition 2.3: (|D| - (|S_Q| - k)) / |D|
        assert st.pruning_efficiency(100, 5) == pytest.approx((100 - 25) / 100)

    def test_knn_prunes_something_on_clustered_data(self):
        db = powerlaw_sim_db(n_sets=600, n_tokens=800, alpha=4.0, seed=3)
        _, _, eng = build(db, n_groups=16)
        pes = []
        for q in sample_queries(db, n=10, seed=4):
            _, st = eng.knn(q, 5)
            pes.append(st.pruning_efficiency(len(db.sets), 5))
        # clustered data must allow nontrivial pruning on average (the
        # small scale keeps this threshold modest)
        assert np.mean(pes) > 0.15


class TestMeasures:
    @pytest.mark.parametrize("measure", ["jaccard", "dice", "cosine"])
    def test_exact_under_other_measures(self, measure):
        db = gen_sets(n_sets=300, n_tokens=250, avg_size=7, seed=6)
        _, _, eng = build(db, n_groups=8, measure=measure)
        f = sim_fn(measure)
        brute_sims = lambda q: np.array([f(q, s) for s in db.sets])
        for q in sample_queries(db, n=5, seed=13):
            got, _ = eng.knn(q, 5)
            exp = np.sort(brute_sims(q))[::-1][:5]
            np.testing.assert_allclose(
                sorted((v for _, v in got), reverse=True), exp, atol=1e-12
            )
            got_r, _ = eng.range(q, 0.4)
            exp_ids = np.flatnonzero(brute_sims(q) >= 0.4)
            assert sorted(i for i, _ in got_r) == sorted(exp_ids.tolist())

    def test_cosine_range_at_a_tight_bound(self):
        """A member equal to Q ∩ GS has similarity equal to its group's
        bound. With δ set to that similarity the group must survive the
        filter: sqrt(1/3) lies one ulp below 1/sqrt(3)."""
        sets = [tokens([1]), tokens([7, 8, 9])]
        tgm = TGM.from_partition(sets, np.array([0, 1]))
        q = tokens([1, 2, 3])
        delta = cosine(q, sets[0])
        got, _ = LocalLES3(sets, tgm, "cosine").range(q, delta)
        exp, _ = LocalBrute(sets, "cosine").range(q, delta)
        assert got == exp == [(0, delta)]


class TestHierarchicalSearch:
    @pytest.fixture(scope="class")
    def hier_built(self):
        db = powerlaw_sim_db(n_sets=500, n_tokens=600, alpha=3.0, seed=7)
        reps = ptr(db.sets, db.n_tokens)
        part = l2p_partition(
            reps, db.sets, n_groups=16, use_init=False, min_group=10,
            n_pairs=600, seed=0,
        )
        coarse = next(l for l in part.levels if len(np.unique(l)) >= 4)
        tgm = TGM.from_partition(db.sets, part.groups, db.n_tokens)
        flat = LocalLES3(db.sets, tgm)
        hier = LocalLES3(db.sets, tgm, htgm=HTGM(db.sets, [coarse, part.groups]))
        return db, flat, hier

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_hierarchical_knn_equals_flat(self, hier_built, k):
        db, flat, hier = hier_built
        for q in sample_queries(db, n=8, seed=14):
            a, _ = flat.knn(q, k)
            b, _ = hier.knn(q, k)
            np.testing.assert_allclose(
                sorted(v for _, v in a), sorted(v for _, v in b), atol=1e-12
            )

    @pytest.mark.parametrize("delta", [0.8, 0.5])
    def test_hierarchical_range_equals_flat(self, hier_built, delta):
        db, flat, hier = hier_built
        for q in sample_queries(db, n=8, seed=15):
            a, _ = flat.range(q, delta)
            b, _ = hier.range(q, delta)
            assert a == b
