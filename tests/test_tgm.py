"""TGM bitmap index (paper §3, Equation 1/2; updates §6; HTGM §5.2)."""
import numpy as np
import pytest

from repro.core.gpo import group_token_union
from repro.core.search import LocalLES3
from repro.core.similarity import jaccard, sim_fn
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
    return sets, TGM.from_partition(sets, groups)


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

    def test_noncontiguous_group_labels_are_remapped(self):
        sets = [np.array([0]), np.array([1])]
        tgm = TGM.from_partition(sets, np.array([7, 3]))
        assert tgm.n_groups == 2
        assert sorted(tgm.group_sizes.tolist()) == [1, 1]

    def test_from_partition_matches_per_set_build(self):
        """The vectorized build against independent references: group
        token unions for the bits, the label array for the bookkeeping."""
        db = gen_sets(n_sets=150, n_tokens=90, avg_size=6, seed=4)
        sets = db.sets + [np.empty(0, dtype=np.int64), np.array([88, 3, 88])]
        groups = np.random.default_rng(0).choice([9, 2, 5, 40], len(sets))
        tgm = TGM.from_partition(sets, groups)
        labels = np.unique(groups)
        for g, label in enumerate(labels):
            members = np.flatnonzero(groups == label)
            union = group_token_union(sets, members)
            for s in sets:
                assert tgm.match_counts(s)[g] == len(np.intersect1d(s, union))
            assert tgm.group_members[g] == members.tolist()
            assert tgm.group_sizes[g] == len(members)
        n_tokens = len(set(np.concatenate(sets).tolist()))
        assert tgm.n_tokens == n_tokens
        assert tgm.index_bytes() == -(-len(labels) * n_tokens // 8)

    def test_resident_size_follows_tokens_present(self):
        """Tokens near 10^12 cost one row each, not a universe-wide
        allocation."""
        base = 10**12
        sets = [np.array([base, base + 7]), np.array([3, base + 7]), np.array([base - 5])]
        tgm = TGM.from_partition(sets, np.array([0, 1, 1]))
        assert tgm.n_tokens == 4
        assert tgm.bits.nbytes == tgm.n_tokens * tgm.n_groups
        assert tgm.match_counts(np.array([base + 7, base - 5, 3])).tolist() == [1, 3]

    def test_from_partition_of_no_sets(self):
        tgm = TGM.from_partition([], np.array([], dtype=np.int64))
        assert tgm.n_groups == 0 and tgm.group_members == []


class TestBoundValidity:
    def test_ub_dominates_members_random_db(self):
        db = gen_sets(n_sets=100, n_tokens=80, avg_size=6, seed=1)
        groups = np.arange(100) % 8
        tgm = TGM.from_partition(db.sets, groups)
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
        tgm = TGM.from_partition(sets, np.array([0, 0, 1]))
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
        tgm = TGM.from_partition(sets, np.array([0, 0, 1]))
        g = tgm.insert(np.array([50, 51]), sid=3)
        assert g == 1  # no known token: smallest group
        assert tgm.match_counts(np.array([50])).tolist() == [0, 1]

    def test_growth_on_insert_of_unseen_tokens(self):
        """300 inserts of unseen tokens into a 4-row TGM: each grows the
        rows and is found by ``match_counts`` in the group it joined."""
        sets = [np.array([0, 1]), np.array([2, 3])]
        tgm = TGM.from_partition(sets, np.array([0, 1]))
        assert tgm.n_tokens == 4
        placed = []
        for i in range(300):
            t = 1000 + i
            placed.append((t, tgm.insert(np.array([t]), sid=2 + i)))
        assert tgm.n_tokens == 304
        for t, g in placed:
            counts = tgm.match_counts(np.array([t]))
            assert counts[g] == 1 and counts.sum() == 1
        assert tgm.match_counts(np.arange(4)).tolist() == [2, 2]

    def test_queries_after_open_insert(self):
        """End to end: an unseen-token set is inserted, then found."""
        db = gen_sets(n_sets=50, n_tokens=40, avg_size=5, seed=4)
        groups = np.arange(50) % 4
        tgm = TGM.from_partition(db.sets, groups)
        new = np.array([100, 101, 102])
        tgm.insert(new, sid=50)
        eng = LocalLES3(db.sets + [new], tgm)
        res, _ = eng.knn(new, 1)
        assert res[0] == (50, 1.0)


def windows_of(sets, tgm):
    """Each group's smallest and largest distinct-token member size, one
    set at a time; ``[0, 0]`` for an empty group."""
    sizes = [[len(np.unique(sets[s])) for s in m] for m in tgm.group_members]
    return [min(z, default=0) for z in sizes], [max(z, default=0) for z in sizes]


class TestSizeWindows:
    """Each group's window of distinct-token member sizes, as
    ``from_partition`` builds it and ``insert`` widens it."""

    def test_from_partition_windows(self):
        sets = [
            np.array([1, 2, 3]), np.array([4]),  # group 0: sizes 3, 1
            np.array([5, 5, 6, 5, 2]), np.array([7, 8]),  # group 1: a multiset of size 3, and 2
            np.empty(0, dtype=np.int64),  # group 2: only the empty set
            np.array([9, 8, 7, 6]),  # group 3: unsorted, size 4
        ]
        tgm = TGM.from_partition(sets, np.array([0, 0, 1, 1, 2, 3]))
        assert (tgm.smin.tolist(), tgm.smax.tolist()) == ([1, 2, 0, 4], [3, 3, 0, 4])
        db = gen_sets(n_sets=200, n_tokens=90, avg_size=7, seed=6)
        big = TGM.from_partition(db.sets, np.arange(200) % 9)
        assert (big.smin.tolist(), big.smax.tolist()) == windows_of(db.sets, big)

    def test_new_tgm_windows_are_empty(self):
        tgm = TGM(3)
        assert tgm.smin.tolist() == tgm.smax.tolist() == [0, 0, 0]

    def test_insert_widens_the_window(self):
        tgm = TGM(3)
        sets = [
            np.array([0, 1, 2]),  # no known token: the first member of group 0
            np.array([10, 11]),  # no known token: the first member of group 1
            np.array([0, 1]),  # known tokens: group 0, below its smallest
            np.array([10, 11, 12, 13, 13, 14]),  # unseen tokens too: group 1, size 5
            np.array([50, 51, 52, 53, 54, 55, 56]),  # no known token: the empty group 2
            np.array([3, 2, 1, 0]),  # known and unseen: group 0, above its largest
        ]
        placed = []
        for sid, s in enumerate(sets):
            placed.append(tgm.insert(s, sid))
            if sid == 1:
                assert (tgm.smin.tolist(), tgm.smax.tolist()) == ([3, 2, 0], [3, 2, 0])
        assert placed == [0, 1, 0, 1, 2, 0]
        assert (tgm.smin.tolist(), tgm.smax.tolist()) == ([2, 2, 7], [4, 5, 7])
        assert (tgm.smin.tolist(), tgm.smax.tolist()) == windows_of(sets, tgm)
        for measure in ("jaccard", "dice", "cosine"):
            f = sim_fn(measure)
            for q in sets + [np.array([0, 1, 2, 3, 10, 99]), np.array([13])]:
                eq2, sized = tgm.upper_bounds(q, measure, sized=True)
                assert (sized <= eq2).all()
                for g, members in enumerate(tgm.group_members):
                    assert all(sized[g] >= f(q, sets[sid]) for sid in members)

    def test_coarse_windows_span_their_children(self):
        db = gen_sets(n_sets=150, n_tokens=100, avg_size=6, seed=7)
        fine = np.arange(150) % 12
        h = HTGM(db.sets, [fine % 2, fine % 4, fine])
        for level, kids in enumerate(h.children):
            coarse, finer = h.tgms[level], h.tgms[level + 1]
            assert coarse.smin.tolist() == [finer.smin[c].min() for c in kids]
            assert coarse.smax.tolist() == [finer.smax[c].max() for c in kids]


class TestSizeAccounting:
    def test_index_bytes_is_bit_packed(self):
        sets = [np.arange(16, dtype=np.int64)]
        tgm = TGM.from_partition(sets, np.array([0]))
        assert tgm.index_bytes() == 2  # 16 bits = 2 bytes


def surviving_groups(bounds, children, threshold, q_size):
    """The HTGM level walk of paper §5.2, the reference for range
    pruning: given each level's bounds coarse to fine and the child maps,
    the finest groups whose bound clears ``threshold`` at every level,
    plus ``|Q|`` matrix elements per group the walk reads."""
    alive = np.arange(len(bounds[0]))
    accessed = 0
    for li, ub in enumerate(bounds):
        if li > 0:
            kids = [children[li - 1][g] for g in alive]
            alive = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *kids]))
        if len(alive) == 0:
            return alive, accessed
        accessed += len(alive) * q_size
        alive = alive[ub[alive] >= threshold]
    return alive, accessed


class TestHTGM:
    @pytest.fixture
    def hier(self):
        db = gen_sets(n_sets=120, n_tokens=100, avg_size=6, seed=5)
        fine = np.arange(120) % 12
        # fine % 4 is coarse, so fine refines it
        return db, HTGM(db.sets, [fine % 4, fine])

    def test_children_partition_fine_groups(self, hier):
        _, h = hier
        all_kids = sorted(np.concatenate(h.children[0]).tolist())
        assert all_kids == list(range(h.tgms[-1].n_groups))

    def test_candidate_groups_conservative(self, hier):
        """The level walk keeps exactly the fine groups the flat TGM
        keeps: no child's bound exceeds its parent's."""
        db, h = hier
        for q in db.sets[:10]:
            for thr in (0.3, 0.6, 0.9):
                flat_ubs = h.tgms[-1].upper_bounds(q)
                flat_keep = set(np.flatnonzero(flat_ubs >= thr).tolist())
                ubs = [t.upper_bounds(q) for t in h.tgms]
                hier_keep, accessed = surviving_groups(ubs, h.children, thr, len(np.unique(q)))
                assert flat_keep == set(hier_keep.tolist())
                assert accessed > 0

    def test_rejects_levels_that_do_not_nest(self):
        db = gen_sets(n_sets=24, n_tokens=30, avg_size=4, seed=5)
        n = len(db.sets)
        with pytest.raises(ValueError, match="nest"):
            HTGM(db.sets, [np.arange(n) % 3, np.arange(n) % 4])
        with pytest.raises(ValueError, match="nest"):
            HTGM(db.sets, [np.zeros(n), np.arange(n) % 2, np.arange(n) % 3])
        assert len(HTGM(db.sets, [np.arange(n) % 2, np.arange(n) % 4]).children[0]) == 2

    def test_index_bytes_sums_levels(self, hier):
        _, h = hier
        assert h.index_bytes() == sum(t.index_bytes() for t in h.tgms)
