"""TGM bitmap index (paper §3, Equation 1/2; updates §6; HTGM §5.2)."""
import numpy as np
import pytest

from repro.core.gpo import group_token_union
from repro.core.search import LocalLES3
from repro.core.similarity import jaccard
from repro.core.tgm import HTGM, TGM
from repro.synth_data import gen_sets

# Figure 1: T = {A,B,C,D}; G0 = sets with A-ish tokens, G1 without A
A, B, C, D = 0, 1, 2, 3


@pytest.fixture
def fig1_tgm():
    sets = [
        np.array([A, B]),
        np.array([A, C]),
        np.array([A]),  # group 0
        np.array([B, C]),
        np.array([C, D]),
        np.array([D]),  # group 1
    ]
    groups = np.array([0, 0, 0, 1, 1, 1])
    return sets, TGM.from_partition(sets, groups, 4)


class TestConstruction:
    def test_equation_1_bits(self, fig1_tgm):
        sets, tgm = fig1_tgm
        # group 0 contains A, B, C; group 1 contains B, C, D
        assert tgm.match_counts(np.array([A])).tolist() == [1, 0]
        assert tgm.match_counts(np.array([D])).tolist() == [0, 1]
        assert tgm.match_counts(np.array([B, C])).tolist() == [2, 2]

    def test_paper_figure_1_bounds(self, fig1_tgm):
        """Query {A}: UB(G0) = 1, UB(G1) = 0."""
        _, tgm = fig1_tgm
        ubs = tgm.upper_bounds(np.array([A]))
        assert ubs.tolist() == [1.0, 0.0]

    def test_group_bookkeeping(self, fig1_tgm):
        _, tgm = fig1_tgm
        assert tgm.group_sizes.tolist() == [3, 3]
        assert tgm.group_members[0] == [0, 1, 2]
        assert tgm.n_tokens == 4

    def test_unknown_query_token_counts_zero(self, fig1_tgm):
        """§3.1: M[*, t'] = 0 for t' outside the universe."""
        _, tgm = fig1_tgm
        ubs = tgm.upper_bounds(np.array([A, 99]))
        assert ubs.tolist() == [0.5, 0.0]

    def test_match_counts_rows_subset(self, fig1_tgm):
        _, tgm = fig1_tgm
        q = np.array([B, C, D])
        full = tgm.match_counts(q)
        np.testing.assert_array_equal(
            tgm.match_counts_rows(q, np.array([1])), full[[1]]
        )

    def test_noncontiguous_group_labels_are_remapped(self):
        sets = [np.array([0]), np.array([1])]
        tgm = TGM.from_partition(sets, np.array([7, 3]), 2)
        assert tgm.n_groups == 2
        assert sorted(tgm.group_sizes.tolist()) == [1, 1]

    def test_matrix_growth_beyond_hint(self):
        sets = [np.arange(100, dtype=np.int64)]
        tgm = TGM.from_partition(sets, np.array([0]), 4)  # tiny hint
        assert tgm.match_counts(np.arange(100))[0] == 100


    def test_from_partition_matches_per_set_build(self):
        """The vectorized build sets the bits and bookkeeping that setting
        each set's bits one by one would."""
        db = gen_sets(n_sets=150, n_tokens=90, avg_size=6, seed=4)
        sets = db.sets + [np.empty(0, dtype=np.int64), np.array([88, 3, 88])]
        groups = np.random.default_rng(0).choice([9, 2, 5, 40], len(sets))
        tgm = TGM.from_partition(sets, groups, db.n_tokens)
        labels = np.unique(groups)
        for g, label in enumerate(labels):
            union = group_token_union(sets, np.flatnonzero(groups == label))
            for s in sets:
                assert tgm.match_counts(s)[g] == len(np.intersect1d(s, union))

        ref = TGM(len(labels), db.n_tokens)
        for sid, (s, label) in enumerate(zip(sets, groups)):
            g = int(np.searchsorted(labels, label))
            ref._set_bits(g, s)
            ref.group_sizes[g] += 1
            ref.group_members[g].append(sid)
        assert tgm.group_members == ref.group_members
        assert tgm.group_sizes.tolist() == ref.group_sizes.tolist()
        assert tgm.index_bytes() == ref.index_bytes()
        assert tgm.n_tokens == ref.n_tokens

    def test_from_partition_of_no_sets(self):
        tgm = TGM.from_partition([], np.array([], dtype=np.int64))
        assert tgm.n_groups == 0 and tgm.group_members == []


class TestBoundValidity:
    def test_ub_dominates_members_random_db(self):
        db = gen_sets(n_sets=100, n_tokens=80, avg_size=6, seed=1)
        groups = np.arange(100) % 8
        tgm = TGM.from_partition(db.sets, groups, db.n_tokens)
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = db.sets[rng.integers(100)]
            ubs = tgm.upper_bounds(q)
            for sid, s in enumerate(db.sets):
                assert ubs[groups[sid]] >= jaccard(q, s) - 1e-12


class TestUpdates:
    def test_closed_universe_insert_best_group(self, fig1_tgm):
        sets, tgm = fig1_tgm
        # {A} matches group 0 fully (UB 1.0) vs group 1 (0.0)
        g = tgm.insert(np.array([A]), sid=6)
        assert g == 0
        assert tgm.group_sizes[0] == 4
        assert 6 in tgm.group_members[0]

    def test_tie_breaks_to_smallest_group(self):
        sets = [np.array([0]), np.array([0]), np.array([0])]
        tgm = TGM.from_partition(sets, np.array([0, 0, 1]), 2)
        # token 0 in both groups: UB ties at 1.0; group 1 is smaller
        assert tgm.insert(np.array([0]), sid=3) == 1

    def test_open_universe_new_tokens_added(self, fig1_tgm):
        _, tgm = fig1_tgm
        g = tgm.insert(np.array([A, 10, 11]), sid=6)
        assert g == 0  # PS = {A} votes for group 0
        assert tgm.n_tokens == 6
        assert tgm.match_counts(np.array([10]))[g] == 1

    def test_all_new_tokens_goes_to_smallest(self):
        sets = [np.array([0]), np.array([1]), np.array([2])]
        tgm = TGM.from_partition(sets, np.array([0, 0, 1]), 3)
        g = tgm.insert(np.array([50, 51]), sid=3)
        assert g == 1  # no known token: smallest group
        assert tgm.match_counts(np.array([50])).tolist() == [0, 1]

    def test_queries_after_open_insert(self):
        """End to end: an unseen-token set is inserted, then found."""
        db = gen_sets(n_sets=50, n_tokens=40, avg_size=5, seed=4)
        groups = np.arange(50) % 4
        tgm = TGM.from_partition(db.sets, groups, db.n_tokens)
        new = np.array([100, 101, 102])
        tgm.insert(new, sid=50)
        eng = LocalLES3(db.sets + [new], tgm)
        res, _ = eng.knn(new, 1)
        assert res[0] == (50, 1.0)


class TestSizeAccounting:
    def test_index_bytes_is_bit_packed(self):
        sets = [np.arange(16, dtype=np.int64)]
        tgm = TGM.from_partition(sets, np.array([0]), 16)
        assert tgm.index_bytes() == 2  # 16 bits = 2 bytes


class TestHTGM:
    @pytest.fixture
    def hier(self):
        db = gen_sets(n_sets=120, n_tokens=100, avg_size=6, seed=5)
        coarse = np.arange(120) % 4
        fine = np.arange(120) % 12
        # make fine a strict refinement of coarse: fine % 4 == coarse
        return db, HTGM(db.sets, [fine % 4, fine])

    def test_children_partition_fine_groups(self, hier):
        _, h = hier
        all_kids = sorted(sum(h._children[0].values(), []))
        assert all_kids == list(range(h.fine.n_groups))

    def test_candidate_groups_conservative(self, hier):
        """Every fine group that the flat TGM keeps must also survive
        HTGM pruning (coarse bounds dominate child bounds)."""
        db, h = hier
        for q in db.sets[:10]:
            for thr in (0.3, 0.6, 0.9):
                flat_ubs = h.fine.upper_bounds(q)
                flat_keep = set(np.flatnonzero(flat_ubs >= thr).tolist())
                hier_keep, accessed = h.candidate_groups(q, thr)
                assert flat_keep == set(hier_keep.tolist())
                assert accessed > 0

    def test_index_bytes_sums_levels(self, hier):
        _, h = hier
        assert h.index_bytes() == sum(t.index_bytes() for t in h.tgms)
