"""Similarity measures and TGM upper bounds (paper §2, §3.2)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import similarity as sim
from repro.core.packed import PackedSets
from repro.core.search import LocalLES3
from repro.core.tgm import TGM

TOKENS = st.lists(st.integers(0, 50), min_size=0, max_size=20)


t = sim.tokens


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
        assert list(packed.sims_subset(packed.prepare(q), ids, measure)) == [exp[i] for i in ids]

    def test_group_upper_bounds_vectorized_matches_scalar(self):
        counts = np.array([0, 1, 3, 5])
        q = t([1, 2, 3, 4, 5])
        for m in sim.MEASURES:
            got = sim.group_upper_bounds(counts, 5, m)
            exp = [sim.sim_fn(m)(q, q[:c]) for c in counts]
            assert list(got) == exp


class TestPackedSetsLayout:
    """``PackedSets`` against scalar ``sim_fn``, to the last bit, on the
    inputs its one-pass build and dense-id kernel must handle."""

    @pytest.fixture
    def raw(self):
        rng = np.random.default_rng(7)
        out = [rng.integers(0, 60, rng.integers(1, 15)) for _ in range(30)]  # unsorted, duplicates
        out[4] = np.array([9, 9, 9])
        out[11] = np.array([5, 2, 2, 8, 5])
        out[0] = out[17] = out[29] = np.empty(0, dtype=np.int64)  # empty, first and last
        return out

    @staticmethod
    def expected(query, sets, positions, measure):
        f = sim.sim_fn(measure)
        return [f(np.asarray(query, dtype=np.int64), sets[i]) for i in positions]

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_unsorted_duplicate_and_empty_sets(self, raw, measure):
        packed = PackedSets(raw)
        rng = np.random.default_rng(8)
        for q in [raw[11], raw[4], rng.integers(0, 60, 9), [59, 3, 3, 0]]:
            assert packed.sims(q, measure).tolist() == self.expected(q, raw, range(len(raw)), measure)
        assert packed.lens.tolist() == [len(np.unique(x)) for x in raw]

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_custom_storage_order(self, raw, measure):
        order = np.random.default_rng(9).permutation(len(raw))[:25]
        packed = PackedSets(raw, order)
        assert packed.ids.tolist() == order.tolist()
        q = raw[5]
        exp = self.expected(q, raw, order, measure)
        assert packed.sims(q, measure).tolist() == exp
        prep = packed.prepare(q)
        for lo, hi in [(0, 25), (3, 9), (7, 7), (24, 25)]:
            assert packed.sims_subset(prep, slice(lo, hi), measure).tolist() == exp[lo:hi]
        pos = np.array([24, 0, 13, 13])
        assert packed.sims_subset(prep, pos, measure).tolist() == [exp[p] for p in pos]

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_query_tokens_outside_vocab_and_empty_query(self, raw, measure):
        packed = PackedSets(raw)
        everywhere = range(len(raw))
        for q in [[-5, 2, 61, 1000], [1000], [-1], [], [60, 61], [0, 59]]:
            assert packed.sims(q, measure).tolist() == self.expected(q, raw, everywhere, measure)

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_no_tokens_stored(self, measure):
        empties = [np.empty(0, dtype=np.int64)] * 3
        packed = PackedSets(empties)
        assert len(packed.vocab) == 0
        for q in [[1, 2], []]:
            assert packed.sims(q, measure).tolist() == [0.0, 0.0, 0.0]
        assert PackedSets([]).sims([1], measure).tolist() == []

    @pytest.mark.parametrize("measure", sim.MEASURES)
    def test_tgm_group_with_no_members(self, measure):
        sets = [t([1, 2, 3]), t([7, 8]), t([2, 3, 9]), t([1, 3])]
        tgm = TGM(4)
        for sid, s in enumerate(sets):
            tgm.insert(s, sid, measure)
        empty = [g for g in range(4) if not tgm.group_members[g]]
        assert empty == [2, 3]
        eng = LocalLES3(sets, tgm, measure)
        for g in range(4):
            lo, hi = eng.gstart[g], eng.gstart[g + 1]
            assert eng.packed.ids[lo:hi].tolist() == tgm.group_members[g]
        for g in empty:
            prep = eng.packed.prepare(sets[0])
            assert eng.packed.sims_subset(prep, slice(eng.gstart[g], eng.gstart[g + 1]), measure).size == 0
        f = sim.sim_fn(measure)
        for q in sets + [t([3, 9, 40])]:
            ranked = sorted(((s, f(q, x)) for s, x in enumerate(sets)), key=lambda p: (-p[1], p[0]))
            assert eng.knn(q, 2)[0] == ranked[:2]
            assert eng.range(q, 0.0)[0] == ranked


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
