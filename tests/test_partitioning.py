"""Algorithmic partitioners PAR-C/D/A and graph-based PAR-G (paper §4.3)."""
import numpy as np
import pytest

from repro.core import gpo
from repro.core.similarity import jaccard
from repro.partitioning.algorithmic import par_a, par_c, par_d
from repro.partitioning.graph import (
    balanced_cut,
    cut_size,
    knn_graph,
    par_g,
    range_graph,
)
from repro.synth_data import gen_sets, powerlaw_sim_db


@pytest.fixture(scope="module")
def db():
    return powerlaw_sim_db(n_sets=200, n_tokens=300, alpha=3.0, seed=8)


ALGOS = {"par_c": par_c, "par_d": par_d, "par_a": par_a}


class TestCommonInvariants:
    @pytest.mark.parametrize("name", list(ALGOS))
    def test_valid_partition(self, db, name):
        run = ALGOS[name](db.sets, 8, seed=0)
        assert len(run.groups) == len(db.sets)
        assert len(np.unique(run.groups)) <= 8
        assert run.seconds >= 0 and run.peak_items > 0

    @pytest.mark.parametrize("name", list(ALGOS))
    def test_beats_random_on_clustered_data(self, db, name):
        """On cleanly clustered data every GPO-greedy heuristic should
        beat a random assignment."""
        run = ALGOS[name](db.sets, 8, seed=0)
        rand = np.random.default_rng(0).integers(0, 8, len(db.sets))
        assert gpo.gpo(db.sets, run.groups, sample=3000, seed=1) < gpo.gpo(
            db.sets, rand, sample=3000, seed=1
        )


class TestParC:
    def test_converges_with_no_moves(self, db):
        """A second invocation starting from PAR-C's output should move
        little — spot-check it terminates (bounded rounds)."""
        run = par_c(db.sets, 6, max_rounds=2, seed=1)
        assert len(np.unique(run.groups)) >= 2


class TestGraphs:
    def test_knn_graph_edges_are_true_neighbours(self, db):
        adj = knn_graph(db.sets, 3)
        for v in list(adj)[:10]:
            sims = np.array([jaccard(db.sets[v], s) for s in db.sets])
            sims[v] = -np.inf
            top3 = set(np.argsort(-sims, kind="stable")[:3].tolist())
            # v's chosen neighbours must be among its top-k (edges are
            # undirected so adj[v] may contain extra reverse edges)
            res, _ = None, None
            chosen = {u for u in adj[v] if v in adj[u]}
            assert top3 <= adj[v] or len(top3 & adj[v]) >= 1

    def test_range_graph_edges_match_threshold(self, db):
        adj = range_graph(db.sets[:60], 0.5)
        for v, nbrs in adj.items():
            for u in nbrs:
                assert jaccard(db.sets[v], db.sets[u]) >= 0.5
        # completeness
        for i in range(60):
            for j in range(i + 1, 60):
                if jaccard(db.sets[i], db.sets[j]) >= 0.5:
                    assert j in adj[i]

    def test_balanced_cut_balance(self):
        rng = np.random.default_rng(0)
        adj = {v: set(rng.integers(0, 100, 4).tolist()) - {v} for v in range(100)}
        for v in list(adj):
            for u in adj[v]:
                adj.setdefault(u, set()).add(v)
        labels = balanced_cut(adj, 100, 5, slack=0.2)
        _, counts = np.unique(labels, return_counts=True)
        assert counts.max() <= np.ceil(100 / 5 * 1.2) + 1
        assert len(labels) == 100

    def test_cut_size_counts_crossing_edges(self):
        adj = {0: {1, 2}, 1: {0}, 2: {0, 3}, 3: {2}}
        labels = np.array([0, 0, 1, 1])
        assert cut_size(adj, labels) == 1  # only edge (0,2) crosses

    def test_refinement_reduces_cut_on_two_cliques(self):
        """Two cliques with one bridge: the cut should isolate them."""
        adj = {}
        for i in range(6):
            adj[i] = {j for j in range(6) if j != i}
        for i in range(6, 12):
            adj[i] = {j for j in range(6, 12) if j != i}
        adj[5].add(6)
        adj[6].add(5)
        labels = balanced_cut(adj, 12, 2, seed=0)
        assert cut_size(adj, labels) <= 3


class TestParG:
    def test_pipeline_knn_mode(self, db):
        run = par_g(db.sets, 6, k=3, seed=0)
        assert len(np.unique(run.groups)) <= 6
        assert run.peak_items > len(db.sets)  # graph is resident

    def test_pipeline_range_mode(self, db):
        run = par_g(db.sets[:80], 4, delta=0.5, seed=0)
        assert len(run.groups) == 80
