"""Similarity measures and TGM upper bounds (paper §2, §3.2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import similarity as sim
from repro.core.packed import PackedSets

TOKENS = st.lists(st.integers(0, 50), min_size=0, max_size=20)


def t(xs, multiset=False):
    return sim.tokens(xs, multiset=multiset)


class TestPairwiseMeasures:
    def test_jaccard_known_value(self):
        assert sim.jaccard(t([1, 2, 3]), t([2, 3, 4])) == pytest.approx(2 / 4)

    def test_dice_known_value(self):
        assert sim.dice(t([1, 2, 3]), t([2, 3, 4])) == pytest.approx(4 / 6)

    def test_cosine_known_value(self):
        assert sim.cosine(t([1, 2, 3]), t([2, 3, 4])) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_self_similarity_is_one(self, measure):
        f = sim.sim_fn(measure)
        assert f(t([1, 5, 9]), t([1, 5, 9])) == pytest.approx(1.0)

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_disjoint_similarity_is_zero(self, measure):
        f = sim.sim_fn(measure)
        assert f(t([1, 2]), t([3, 4])) == 0.0

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_empty_sets(self, measure):
        f = sim.sim_fn(measure)
        assert f(t([]), t([])) == 0.0
        assert f(t([]), t([1])) == 0.0

    @pytest.mark.parametrize("measure", sim.MEASURES)
    @settings(max_examples=50, deadline=None)
    @given(a=TOKENS, b=TOKENS)
    def test_symmetry_and_range(self, measure, a, b):
        f = sim.sim_fn(measure)
        v = f(t(a), t(b))
        assert v == pytest.approx(f(t(b), t(a)))
        assert 0.0 <= v <= 1.0 + 1e-12

    def test_unknown_measure_raises(self):
        with pytest.raises(ValueError):
            sim.sim_fn("nope")
        with pytest.raises(ValueError):
            sim.group_upper_bounds(np.array([1]), 2, "nope")


class TestTokensNormalization:
    def test_dedupes_sets(self):
        assert list(t([3, 1, 3, 2])) == [1, 2, 3]

    def test_multiset_keeps_duplicates(self):
        assert list(t([3, 1, 3], multiset=True)) == [1, 3, 3]

    def test_intersection_size_multiset(self):
        a = t([1, 1, 2], multiset=True)
        b = t([1, 2, 2], multiset=True)
        assert sim.intersection_size(a, b) == 2  # {1, 2}


class TestGroupUpperBound:
    """Theorem 3.1: Sim(Q, Q ∩ GS) bounds Sim(Q, S) for any S in the group."""

    def test_jaccard_closed_form_matches_paper_example(self):
        # Q = {t1,t2,t3}, Q∩S = {t1,t2}: Jaccard bound 2/3, cosine ~0.82
        assert sim.group_upper_bounds([2], 3, "jaccard")[0] == pytest.approx(2 / 3)
        assert sim.group_upper_bounds([2], 3, "cosine")[0] == pytest.approx(2 / np.sqrt(6))

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_closed_form_equals_direct_sim_of_intersection(self, measure):
        """UB(c, |Q|) is bit-identical to Sim(Q, R) for R ⊆ Q with |R| = c.
        Sim(Q, R) depends on R only through |R| when R ⊆ Q, so one R per
        size covers every subset."""
        f = sim.sim_fn(measure)
        for n in range(1, 65):
            q = t(range(n))
            ubs = sim.group_upper_bounds(np.arange(n + 1), n, measure)
            for c in range(n + 1):
                assert ubs[c] == f(q, q[:c]), (n, c)

    @pytest.mark.parametrize("measure", sim.MEASURES)
    @settings(max_examples=60, deadline=None)
    @given(
        q=st.lists(st.integers(0, 30), min_size=1, max_size=15),
        group=st.lists(
            st.lists(st.integers(0, 30), min_size=1, max_size=15),
            min_size=1,
            max_size=6,
        ),
    )
    def test_bound_dominates_every_member(self, measure, q, group):
        qa = t(q)
        sets = [t(s) for s in group]
        gs = np.unique(np.concatenate(sets))
        c = np.count_nonzero(np.isin(qa, gs, assume_unique=True))
        ub = sim.group_upper_bounds([c], len(qa), measure)[0]
        f = sim.sim_fn(measure)
        for s in sets:
            assert ub >= f(qa, s)

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_bound_is_tight_when_group_contains_intersection(self, measure):
        q = t([1, 2, 3, 4])
        member = t([1, 2])  # member IS the intersection
        gs = member
        c = np.count_nonzero(np.isin(q, gs, assume_unique=True))
        f = sim.sim_fn(measure)
        assert sim.group_upper_bounds([c], len(q), measure)[0] == f(q, member)

    def test_zero_query_size(self):
        assert list(sim.group_upper_bounds(np.array([0]), 0)) == [0.0]
        assert list(sim.group_upper_bounds(np.array([1.0, 2.0]), 0)) == [0.0, 0.0]


class TestVectorizedKernels:
    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_packed_sims_match_scalar(self, measure):
        rng = np.random.default_rng(0)
        q = t(rng.integers(0, 40, 10))
        cands = [t(rng.integers(0, 40, rng.integers(1, 12))) for _ in range(20)]
        cands.append(t([]))
        f = sim.sim_fn(measure)
        packed = PackedSets(cands)
        exp = [f(q, c) for c in cands]
        assert list(packed.sims(q, measure)) == exp
        ids = np.array([20, 3, 0, 7])
        assert list(packed.sims_subset(q, ids, measure)) == [exp[i] for i in ids]

    def test_group_upper_bounds_vectorized_matches_scalar(self):
        counts = np.array([0, 1, 3, 5])
        q = t([1, 2, 3, 4, 5])
        for m in sim.MEASURES:
            got = sim.group_upper_bounds(counts, 5, m)
            exp = [sim.sim_fn(m)(q, q[:c]) for c in counts]
            assert list(got) == exp


class TestPairSims:
    """``pair_sims`` against the scalar ``sim_fn``, to the last bit."""

    @staticmethod
    def scalar(sets, xs, ys, measure):
        f = sim.sim_fn(measure)
        return [f(sets[x], sets[y]) for x, y in zip(xs, ys)]

    @pytest.fixture
    def sets(self):
        rng = np.random.default_rng(3)
        out = [rng.integers(0, 60, rng.integers(1, 15)) for _ in range(40)]  # unsorted, duplicates
        out += [np.empty(0, dtype=np.int64), np.array([5, 5, 5]), np.array([9, 2, 7])]
        return out

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_matches_scalar_over_several_blocks(self, sets, measure):
        rng = np.random.default_rng(4)
        n = 3 * sim._PAIR_BLOCK + 17
        xs, ys = rng.integers(0, len(sets), n), rng.integers(0, len(sets), n)
        xs[:3], ys[:3] = [40, 40, 41], [40, 0, 42]  # empty-empty, empty-set, multisets
        got = sim.pair_sims(sets, xs, ys, measure)
        assert got.tolist() == self.scalar(sets, xs, ys, measure)

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_all_empty_and_zero_pairs(self, measure):
        sets = [np.empty(0, dtype=np.int64), np.array([], dtype=np.float64)]
        assert sim.pair_sims(sets, [0, 1], [1, 0], measure).tolist() == [0.0, 0.0]
        assert sim.pair_sims(sets, [], [], measure).tolist() == []

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_tokens_too_far_apart_for_pair_keys(self, measure):
        sets = [np.array([0, 1 << 61, 3]), np.array([1 << 61, 3, -(1 << 61)]), np.array([3])]
        xs, ys = [0, 1, 2, 0], [1, 2, 0, 0]
        assert sim.pair_sims(sets, xs, ys, measure).tolist() == self.scalar(sets, xs, ys, measure)

    def test_unknown_measure_raises(self):
        with pytest.raises(ValueError):
            sim.pair_sims([np.array([1])], [], [], "nope")
