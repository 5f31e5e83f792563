"""LocalLES3 query processing: exactness against brute force across
measures, datasets, and query parameters (paper §3.1, Definitions 2.1-2.3)."""
import heapq

import numpy as np
import pytest

from repro.baselines.brute import LocalBrute
from repro.core.l2p import l2p_partition
from repro.core.ptr import ptr
from repro.core.search import LocalLES3, SearchStats
from repro.core.similarity import (
    MEASURES, cosine, group_upper_bounds, pair_sim_from_counts, sim_fn, tokens,
)
from repro.core.tgm import HTGM, TGM
from repro.synth_data import dataset, gen_sets, powerlaw_sim_db, sample_queries

from tests.test_tgm import surviving_groups


def build(db, n_groups=12, seed=0, measure="jaccard"):
    reps = ptr(db.sets, db.n_tokens)
    part = l2p_partition(
        reps, db.sets, n_groups=n_groups, n_init=4, min_group=10,
        n_pairs=600, measure=measure, seed=seed,
    )
    tgm = TGM.from_partition(db.sets, part.groups)
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


def size_window(sets, tgm):
    """Each group's smallest and largest distinct-token member size, read
    off the sets one at a time; ``(0, 0)`` for an empty group."""
    sizes = [[len(np.unique(sets[s])) for s in m] for m in tgm.group_members]
    return (np.array([min(z, default=0) for z in sizes]), np.array([max(z, default=0) for z in sizes]))


class TestStatsAccounting:
    def test_candidates_equal_verified_group_sizes(self, built):
        db, part, tgm, eng, _ = built
        q = db.sets[0]
        _, st = eng.range(q, 0.5)
        assert tuple(w.tolist() for w in size_window(db.sets, tgm)) == (tgm.smin.tolist(), tgm.smax.tolist())
        ubs = tgm.upper_bounds(q, sized=True)[1]
        cand_groups = np.flatnonzero(ubs >= 0.5)
        nonempty = [g for g in cand_groups if tgm.group_members[int(g)]]
        assert st.n_groups_verified == len(nonempty)
        assert st.n_candidates == int(tgm.group_sizes[cand_groups].sum())
        tgm_groups = np.flatnonzero(tgm.upper_bounds(q) >= 0.5)
        assert st.tgm_candidates == int(tgm.group_sizes[tgm_groups].sum())
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
        tgm = TGM.from_partition(db.sets, part.groups)
        flat = LocalLES3(db.sets, tgm)
        hier = LocalLES3(db.sets, HTGM(db.sets, [coarse, part.groups]))
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


# -- the verify loop before group-contiguous storage ------------------------
def _ref_levels(index):
    """An index's TGM levels, coarse to fine, and its child maps."""
    return (index.tgms, index.children) if isinstance(index, HTGM) else ([index], [])


def _ref_verify(sets, measure, tgm, g, q, st):
    """Group ``g``'s member sids and their scalar similarities, counted
    as the per-candidate loop counted them."""
    sids = tgm.group_members[g]
    if sids:
        st.n_candidates += len(sids)
        st.n_groups_verified += 1
    f = sim_fn(measure)
    return [(s, f(q, sets[s])) for s in sids]


def _ref_windows(sets, index):
    """Per level, coarse to fine, each group's size window as scalars: a
    finest group's from its members' distinct tokens, a coarse group's
    spanning its children's."""
    tgms, children = _ref_levels(index)
    lo, hi = size_window(sets, tgms[-1])
    wins = [list(zip(lo.tolist(), hi.tolist()))]
    for kids in reversed(children):
        finer = wins[0]
        wins.insert(0, [(min(finer[c][0] for c in ks), max(finer[c][1] for c in ks)) for ks in kids])
    return wins


def _ref_ubs(tgm, measure, q, wins):
    """Every group's bound in ``tgm``: Equation (2), or with the level's
    windows ``wins`` the size-windowed bound, one scalar at a time."""
    counts = tgm.match_counts(q)
    if wins is None:
        return group_upper_bounds(counts, len(q), measure)
    out = []
    for c, (lo, hi) in zip(counts.tolist(), wins):
        s = min(max(c, lo), hi)
        out.append(pair_sim_from_counts(min(c, s), len(q), s, measure))
    return np.array(out)


def ref_range(sets, index, measure, query, delta, windowed=True):
    """Range by the HTGM level walk under Equation (2), then, with
    ``windowed``, the finest groups' size-windowed bounds."""
    st = SearchStats()
    q = np.unique(query)
    tgms, children = _ref_levels(index)
    ubs = [t.upper_bounds(q, measure) for t in tgms]
    cand_groups, st.index_elems = surviving_groups(ubs, children, delta, len(q))
    st.tgm_candidates = sum(len(tgms[-1].group_members[g]) for g in cand_groups)
    if windowed:
        ub = _ref_ubs(tgms[-1], measure, q, _ref_windows(sets, index)[-1])
        cand_groups = [g for g in cand_groups if ub[g] >= delta]
    pairs = (p for g in cand_groups for p in _ref_verify(sets, measure, tgms[-1], int(g), q, st))
    out = [(s, v) for s, v in pairs if v >= delta]
    st.n_results = len(out)
    return sorted(out, key=lambda t: (-t[1], t[0])), st


def _ref_push(heap, pairs, k):
    """Keep the best k pairs as ``(sim, -sid)``, so ties keep smaller sids
    and ``heap[0]`` is the k-th in ``(-sim, sid)`` order."""
    for s, v in pairs:
        if len(heap) < k:
            heapq.heappush(heap, (v, -s))
        elif (v, -s) > heap[0]:
            heapq.heapreplace(heap, (v, -s))


def ref_knn(sets, index, measure, query, k, windowed=True):
    """kNN by the per-candidate heap loop, best-first over the levels.
    With ``windowed``, a finest group whose bound ties the k-th similarity
    is skipped when its smallest sid follows the k-th's."""
    st = SearchStats()
    q = np.unique(query)
    heap = []  # min-heap of (sim, -sid)
    tgms, children = _ref_levels(index)
    wins = _ref_windows(sets, index) if windowed else [None] * len(tgms)
    st.index_elems = tgms[0].n_groups * len(q)
    ubs0 = _ref_ubs(tgms[0], measure, q, wins[0])
    pq = [(-float(ub), g, 0, g) for g, ub in enumerate(ubs0)]
    heapq.heapify(pq)
    counter, last = len(pq), len(tgms) - 1
    while pq:
        neg_ub, _, level, g = heapq.heappop(pq)
        if len(heap) >= k and -neg_ub < heap[0][0]:
            break
        if level == last:
            members = tgms[-1].group_members[g]
            tied = len(heap) >= k and -neg_ub == heap[0][0]
            if not (windowed and tied and members and min(members) > -heap[0][1]):
                _ref_push(heap, _ref_verify(sets, measure, tgms[-1], g, q, st), k)
            continue
        kids = children[level][g]
        st.index_elems += len(kids) * len(q)
        ubs = _ref_ubs(tgms[level + 1], measure, q, wins[level + 1])
        for c in kids:
            heapq.heappush(pq, (-float(ubs[c]), counter, level + 1, int(c)))
            counter += 1
    res = sorted(((-s, v) for v, s in heap), key=lambda t: (-t[1], t[0]))
    st.n_results = len(res)
    # what the same loop verifies under Equation (2) alone
    eq2 = ref_knn(sets, index, measure, query, k, windowed=False)[1] if windowed else st
    st.tgm_candidates = eq2.n_candidates
    return res, st


def _stats(st):
    return (st.n_candidates, st.n_groups_verified, st.index_elems, st.n_results, st.tgm_candidates)


class TestSameWorkAsHeapLoop:
    """The group-contiguous verify and the numpy top-k merge verify the
    same groups as the per-candidate heap loop they replace, under the
    same size-windowed bounds, and answer the same; where the k-th
    similarity is tied, the answer holds the smallest sids of that
    similarity, as brute force ranks them. ``tgm_candidates`` equals
    what the loop verifies under Equation (2) alone. Range reads the
    finest level only, so it must verify what the level walk verifies
    over a flat TGM and over two- and three-level HTGMs."""

    @pytest.fixture(scope="class", params=["jaccard", "dice", "cosine"])
    def engines(self, request):
        measure = request.param
        db = powerlaw_sim_db(n_sets=500, n_tokens=600, alpha=3.0, seed=8)
        reps = ptr(db.sets, db.n_tokens)
        part = l2p_partition(
            reps, db.sets, n_groups=16, use_init=False, min_group=10,
            n_pairs=600, measure=measure, seed=0,
        )
        coarser = [next(l for l in part.levels if len(np.unique(l)) >= n) for n in (2, 4)]
        depths = [len(np.unique(l)) for l in coarser + [part.groups]]
        assert depths == sorted(set(depths))
        indexes = [
            TGM.from_partition(db.sets, part.groups),
            HTGM(db.sets, [coarser[1], part.groups]),
            HTGM(db.sets, coarser + [part.groups]),
        ]
        queries = sample_queries(db, n=12, seed=16) + [db.sets[3][:1], np.array([10**6])]
        return db, measure, [(ix, LocalLES3(db.sets, ix, measure)) for ix in indexes], queries

    @pytest.mark.parametrize("delta", [0.9, 0.6, 0.3, 0.0])
    def test_range(self, engines, delta):
        db, measure, engs, queries = engines
        for index, eng in engs:
            for q in queries:
                got, st = eng.range(q, delta)
                exp, ref_st = ref_range(db.sets, index, measure, q, delta)
                assert got == exp
                assert _stats(st) == _stats(ref_st)

    @pytest.mark.parametrize("k", [1, 5, 20, 600])
    def test_knn(self, engines, k):
        db, measure, engs, queries = engines
        f = sim_fn(measure)
        for q in queries:
            ranked = sorted(((s, f(q, x)) for s, x in enumerate(db.sets)), key=lambda t: (-t[1], t[0]))
            for index, eng in engs:
                got, st = eng.knn(q, k)
                exp, ref_st = ref_knn(db.sets, index, measure, q, k)
                assert _stats(st) == _stats(ref_st)
                assert [v for _, v in got] == [v for _, v in exp]
                kth = exp[-1][1]
                assert [p for p in got if p[1] > kth] == [p for p in exp if p[1] > kth]
                assert got == ranked[:k]

    def test_empty_query_skips_groups_of_larger_sids(self):
        """An empty query ties every bound with the k-th similarity, 0: a
        group is verified only if its smallest sid precedes the k-th's,
        so not every set is verified."""
        db = gen_sets(n_sets=200, n_tokens=300, avg_size=6, seed=3)
        _, tgm, eng = build(db, n_groups=8)
        q = np.empty(0, dtype=np.int64)
        for k in (1, 10, 50):
            got, st = eng.knn(q, k)
            assert got == [(sid, 0.0) for sid in range(k)]
            assert st.n_candidates < len(db.sets)
            assert _stats(st) == _stats(ref_knn(db.sets, tgm, "jaccard", q, k)[1])

    def test_tied_kth_similarity_keeps_smallest_sids(self):
        q = tokens([1, 2, 3, 4])
        sets = [tokens(s) for s in (
            [7, 8], [2, 3, 4], [2, 3, 4], [50, 51], [60],  # sids 0-4
            [1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3, 4],  # sids 5-8
        )]
        groups = np.array([1, 2, 2, 2, 1, 0, 0, 0, 1])
        tgm = TGM.from_partition(sets, groups)
        htgm = HTGM(sets, [np.zeros(len(sets), dtype=int), groups])
        # the heap loop keeps the smallest tied sids it has met
        assert [s for s, _ in ref_knn(sets, tgm, "jaccard", q, 3)[0]] == [8, 1, 2]
        for index in (tgm, htgm):
            got, st = LocalLES3(sets, index).knn(q, 3)
            assert got == [(8, 1.0), (1, 0.75), (2, 0.75)]
            assert _stats(st) == _stats(ref_knn(sets, index, "jaccard", q, 3)[1])


class TestSizeWindow:
    """The size-windowed group bound: never below a member's similarity,
    never above Equation (2), and exact at the window's edges."""

    @staticmethod
    def check_bounds(sets, tgm, eng, queries, measure):
        assert (tgm.smin.tolist(), tgm.smax.tolist()) == tuple(w.tolist() for w in size_window(sets, tgm))
        for q in queries:
            prep = eng.packed.prepare(q)
            eq2, ub = tgm.upper_bounds(q, measure, sized=True)
            assert eq2.tolist() == tgm.upper_bounds(q, measure).tolist()
            assert (ub <= eq2).all()
            for g in range(tgm.n_groups):
                lo, hi = eng.gstart[g], eng.gstart[g + 1]
                assert (eng.packed.sims_subset(prep, slice(lo, hi), measure) <= ub[g]).all()

    @pytest.mark.parametrize("measure", MEASURES)
    def test_bound_between_member_sims_and_eq2(self, measure):
        db = gen_sets(n_sets=300, n_tokens=120, avg_size=9, seed=4)
        sets = db.sets + [np.empty(0, dtype=np.int64)]
        groups = np.arange(len(sets)) % 7
        tgm = TGM.from_partition(sets, groups)
        queries = sample_queries(db, n=20, seed=5) + [np.array([0]), np.arange(60), np.empty(0, dtype=np.int64)]
        self.check_bounds(sets, tgm, LocalLES3(sets, tgm, measure), queries, measure)

    def test_cosine_members_of_equal_similarity_and_different_size(self):
        """c²/s equal across sizes: with |Q| = 3, 1/sqrt(3·1), 2/sqrt(3·4)
        and 3/sqrt(3·9) are the same real number, and the last rounds one
        ulp below the others. Each sits alone at its group's bound, two
        of them with Q∩GS below ``smin``, so the bound is the
        ``smin`` member's similarity, and must equal its kernel ``Sim``
        bit for bit for range at that δ to keep it."""
        q = tokens([1, 2, 3])
        sets = [
            tokens([1]), tokens([2]),  # group 0: c = 2 above smax = 1
            tokens([1, 2, 8, 9]), tokens([2, *range(20, 30)]),  # group 1: c = 2 below smin = 4
            tokens([1, 2, 3, *range(7, 13)]), tokens([3, *range(30, 42)]),  # group 2: c = 3 below smin = 9
        ]
        groups = np.array([0, 0, 1, 1, 2, 2])
        tgm = TGM.from_partition(sets, groups)
        flat = LocalLES3(sets, tgm, "cosine")
        hier = LocalLES3(sets, HTGM(sets, [groups // 2, groups]), "cosine")
        tied = [0, 2, 4]  # the smin member of each group
        sims = [cosine(q, sets[s]) for s in tied]
        assert sims[0] == sims[1] > sims[2]
        ub = tgm.upper_bounds(q, "cosine", sized=True)[1]
        kernel = flat.packed.sims_subset(flat.packed.prepare(q), slice(0, len(sets)), "cosine")
        by_sid = dict(zip(flat.packed.ids.tolist(), kernel.tolist()))
        assert ub.tolist() == [by_sid[s] for s in tied] == sims
        assert (ub[1:] < tgm.upper_bounds(q, "cosine")[1:]).all()
        self.check_bounds(sets, tgm, flat, [q, tokens([1, 2]), tokens([1])], "cosine")
        brute = LocalBrute(sets, "cosine")
        for eng in (flat, hier):
            for delta in sorted(set(sims)):
                assert eng.range(q, delta)[0] == brute.range(q, delta)[0]
            for k in range(1, len(sets) + 1):
                assert eng.knn(q, k)[0] == brute.knn(q, k)[0]
        assert [s for s, _ in flat.range(q, sims[2])[0]] == [0, 1, 2, 4]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_range_at_a_member_on_the_window_edge(self, measure):
        """δ equal to the bound, met by a member of size ``smin`` (Q∩GS
        smaller than every member) or ``smax`` (Q∩GS larger)."""
        f = sim_fn(measure)
        cases = [
            (tokens([1, 2, 3]), [tokens([1, 2, 3, 10, 11, 12]), tokens([3, *range(20, 28)])], 0),
            (tokens(range(1, 7)), [tokens([1, 2]), tokens([3]), tokens([4, 5, 6])], 2),
        ]
        for q, members, edge in cases:
            sets = [tokens([90, 91])] + members
            groups = np.array([0] + [1] * len(members))
            tgm = TGM.from_partition(sets, groups)
            eng = LocalLES3(sets, tgm, measure)
            delta = f(q, members[edge])
            assert tgm.upper_bounds(q, measure, sized=True)[1][1] == delta
            got, st = eng.range(q, delta)
            assert (1 + edge, delta) in got
            assert got == LocalBrute(sets, measure).range(q, delta)[0]
            assert eng.knn(q, 1)[0] == LocalBrute(sets, measure).knn(q, 1)[0]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_empty_groups_bound_zero(self, measure):
        sets = [tokens([1, 2, 3]), tokens([7, 8]), tokens([2, 3, 9])]
        tgm = TGM(5)
        for sid, s in enumerate(sets):
            tgm.insert(s, sid, measure)
        empty = [g for g in range(5) if not tgm.group_members[g]]
        assert empty
        eng = LocalLES3(sets, tgm, measure)
        for q in sets + [tokens([1, 2, 3, 7, 8, 9])]:
            assert (tgm.upper_bounds(q, measure, sized=True)[1][empty] == 0).all()
        self.check_bounds(sets, tgm, eng, sets, measure)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_edge_cases_match_brute(self, measure):
        """Repeated tokens (sizes are distinct-token counts), an empty
        query, k > |D| and δ = 0, on a flat and a two-level index."""
        rng = np.random.default_rng(3)
        sets = [rng.integers(0, 25, rng.integers(1, 9)) for _ in range(60)]
        sets[5] = np.array([9, 9, 9, 9])
        sets[6] = np.array([4, 1, 4, 1, 4])
        sets[7] = np.empty(0, dtype=np.int64)
        groups = np.arange(len(sets)) % 6
        groups[[5, 6]] = 6  # a group of multisets only: raw lengths 4-5, sizes 1-2
        tgm = TGM.from_partition(sets, groups)
        flat = LocalLES3(sets, tgm, measure)
        hier = LocalLES3(sets, HTGM(sets, [groups % 2, groups]), measure)
        brute = LocalBrute(sets, measure)
        self.check_bounds(sets, tgm, flat, sets[:10], measure)
        queries = [np.array([9]), np.array([1, 4]), np.array([4, 4, 1]), sets[0], np.empty(0, dtype=np.int64)]
        for eng in (flat, hier):
            for q in queries:
                for delta in (1.0, 0.5, 0.0):
                    assert eng.range(q, delta)[0] == brute.range(q, delta)[0]
                for k in (1, 3, len(sets), len(sets) + 5):
                    assert eng.knn(q, k)[0] == brute.knn(q, k)[0]
