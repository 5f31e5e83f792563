"""L2P cascade framework (paper §5.2, §7.1 Initialization)."""
import numpy as np
import pytest

from repro.core import gpo, l2p
from repro.core.l2p import init_partition, l2p_partition, sample_pairs
from repro.core.ptr import ptr
from repro.core.similarity import sim_fn
from repro.synth_data import gen_sets


@pytest.fixture(scope="module")
def db():
    return gen_sets(n_sets=400, n_tokens=300, avg_size=8, seed=2)


@pytest.fixture(scope="module")
def reps(db):
    return ptr(db.sets, db.n_tokens)


@pytest.fixture(scope="module")
def result(db, reps):
    return l2p_partition(
        reps, db.sets, n_groups=16, n_init=4, min_group=10, n_pairs=600, seed=0
    )


class TestInitPartition:
    def test_chunks_are_balanced(self, db):
        labels = init_partition(db.sets, 8)
        _, counts = np.unique(labels, return_counts=True)
        assert counts.max() - counts.min() <= 1

    def test_sorted_by_min_token(self, db):
        """Sets in chunk g all have min tokens <= those in chunk g+1 (the
        §7.1 sequential-constraint initialization)."""
        labels = init_partition(db.sets, 4)
        mins = np.array([s[0] for s in db.sets])
        for g in range(3):
            assert mins[labels == g].max() <= mins[labels == g + 1].min() + 0


class TestSamplePairs:
    def test_no_self_pairs(self):
        rng = np.random.default_rng(0)
        pairs = sample_pairs(50, 500, rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])
        assert pairs.min() >= 0 and pairs.max() < 50


class TestCascade:
    def test_reaches_target_group_count(self, result):
        assert result.n_groups() >= 16

    def test_levels_double_at_most(self, result):
        for a, b in zip(result.levels[:-1], result.levels[1:]):
            na, nb = len(np.unique(a)), len(np.unique(b))
            assert nb <= 2 * na

    def test_levels_are_nested_refinements(self, result):
        """Each finer group must sit inside exactly one coarser group —
        the property HTGM relies on."""
        for a, b in zip(result.levels[:-1], result.levels[1:]):
            for g in np.unique(b):
                parents = np.unique(a[b == g])
                assert len(parents) == 1

    def test_min_group_respected(self, db, reps):
        res = l2p_partition(
            reps, db.sets, n_groups=1024, n_init=4, min_group=40, n_pairs=200, seed=0
        )
        # groups below min_group are never split further, so the cascade
        # stalls well before 1024 groups on 400 sets
        _, counts = np.unique(res.groups, return_counts=True)
        assert res.n_groups() < 1024
        # a group smaller than min_group/2 can only arise from a split of
        # a >= min_group parent — sizes below min_group//2 are possible,
        # but nothing should have been split once below the floor:
        for lvl_a, lvl_b in zip(res.levels[:-1], res.levels[1:]):
            for g in np.unique(lvl_a):
                members = np.flatnonzero(lvl_a == g)
                if len(members) < 40:
                    assert len(np.unique(lvl_b[members])) == 1

    def test_deterministic_given_seed(self, db, reps):
        a = l2p_partition(reps, db.sets, n_groups=8, n_init=2, min_group=10, n_pairs=300, seed=5)
        b = l2p_partition(reps, db.sets, n_groups=8, n_init=2, min_group=10, n_pairs=300, seed=5)
        np.testing.assert_array_equal(a.groups, b.groups)

    @pytest.mark.parametrize("measure", ["jaccard", "cosine"])
    def test_same_levels_as_scalar_pair_loop(self, db, reps, monkeypatch, measure):
        kw = dict(n_groups=16, n_init=4, min_group=10, n_pairs=600, measure=measure, seed=0)
        batched = l2p_partition(reps, db.sets, **kw)

        def per_pair(sets, xs, ys, measure):
            f = sim_fn(measure)
            return np.array([f(sets[x], sets[y]) for x, y in zip(xs, ys)])

        monkeypatch.setattr(l2p, "pair_sims", per_pair)
        looped = l2p_partition(reps, db.sets, **kw)
        assert batched.n_models == looped.n_models
        assert len(batched.levels) == len(looped.levels)
        for a, b in zip(batched.levels, looped.levels):
            np.testing.assert_array_equal(a, b)

    def test_unknown_measure_raises(self, db, reps):
        with pytest.raises(ValueError):
            l2p_partition(reps, db.sets, n_groups=8, measure="nope")

    def test_beats_random_partitioning_on_gpo(self, db, result):
        rng = np.random.default_rng(0)
        rand = rng.integers(0, result.n_groups(), len(db.sets))
        g_l2p = gpo.gpo(db.sets, result.groups, sample=4000, seed=1)
        g_rand = gpo.gpo(db.sets, rand, sample=4000, seed=1)
        assert g_l2p < g_rand

    def test_all_sets_assigned(self, db, result):
        assert len(result.groups) == len(db.sets)
        assert result.groups.min() >= 0

    def test_loss_curves_recorded(self, result):
        assert result.n_models == len(result.loss_curves)
        assert all(len(c) == 3 for c in result.loss_curves)

    def test_no_init_mode(self, db, reps):
        res = l2p_partition(
            reps, db.sets, n_groups=8, use_init=False, min_group=10, n_pairs=300, seed=0
        )
        assert len(np.unique(res.levels[0])) == 1
        assert res.n_groups() >= 8
