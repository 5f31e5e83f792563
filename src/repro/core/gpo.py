"""Partitioning objectives from paper §4.

- ``F`` (Equation 8): the quantity whose minimization maximizes expected
  pruning efficiency under the uniform-token assumption.
- ``U`` (Property 2 / Equation 10): sum over groups of the group token
  coverage ``|∪_{S∈G_g} S|``.
- ``GPO`` (Equation 13): sum of intra-group pairwise distances
  ``1 - Sim``, the general-case heuristic objective.
- ``gpo_matrix_form`` (Equation 14): the 0-1 ILP objective
  ``e · [A·Aᵀ ⊙ D] · eᵀ`` — used in tests to confirm the NP-hardness
  reduction computes the same number as GPO (up to the diagonal and
  double-counting conventions, which we align explicitly).
- ``expected_pe`` (Equation 3/5): expected pruning efficiency of a
  partitioning over a query workload.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .packed import PackedSets
from .similarity import group_upper_bounds, pair_sims, sim_fn


def group_token_union(sets: Sequence[np.ndarray], members: Sequence[int]) -> np.ndarray:
    """``GS_g = ∪_{S∈G_g} S`` as a sorted unique token array."""
    if not len(members):
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([sets[i] for i in members]))


def u_value(sets: Sequence[np.ndarray], groups: np.ndarray) -> int:
    """Property 2 objective: ``Σ_g |∪_{S∈G_g} S|`` (Equation 10)."""
    total = 0
    for g in np.unique(groups):
        total += len(group_token_union(sets, np.flatnonzero(groups == g)))
    return int(total)


def f_value(
    sets: Sequence[np.ndarray],
    groups: np.ndarray,
    queries: Sequence[np.ndarray] | None = None,
) -> float:
    """Equation (8): ``Σ_g |G_g| Σ_Q |GS_g ∩ Q| / |Q|``.

    ``queries`` defaults to the database itself, as in the paper's
    derivation (Q follows the same distribution as D).
    """
    queries = sets if queries is None else queries
    total = 0.0
    for g in np.unique(groups):
        members = np.flatnonzero(groups == g)
        gs = group_token_union(sets, members)
        inner = 0.0
        for q in queries:
            if len(q):
                inner += np.count_nonzero(np.isin(np.unique(q), gs, assume_unique=True)) / len(
                    np.unique(q)
                )
        total += len(members) * inner
    return total


def gpo(
    sets: Sequence[np.ndarray],
    groups: np.ndarray,
    measure: str = "jaccard",
    *,
    sample: int | None = None,
    seed: int = 0,
) -> float:
    """Equation (13): ordered-pair sum of intra-group ``1 - Sim``.

    The paper's double sum ranges over ordered pairs including ``x = y``
    (whose distance is 0), so each unordered pair counts twice. With
    ``sample`` set, each group's sum is estimated from that many random
    ordered pairs scaled up — the same approximation the paper applies to
    ``φ(G)`` for large data (§4.3 footnote 2).
    """
    sim_fn(measure)  # rejects an unknown measure before any work
    packed = PackedSets(sets)
    rng = np.random.default_rng(seed)
    total = 0.0
    for g in np.unique(groups):
        members = np.flatnonzero(groups == g)
        m = len(members)
        if m < 2:
            continue
        if sample is not None and m * (m - 1) > sample:
            xs = rng.choice(members, size=sample)
            ys = rng.choice(members, size=sample)
            est = np.mean(np.where(xs == ys, 0.0, 1.0 - pair_sims(sets, xs, ys, measure)))
            total += est * m * m
        else:
            for i, x in enumerate(members):
                sims = packed.sims_subset(sets[x], members, measure)
                total += np.sum(1.0 - sims) - (1.0 - sims[i])
    return float(total)


def gpo_matrix_form(dist: np.ndarray, groups: np.ndarray) -> float:
    """Equation (14) objective: ``e · [A·Aᵀ ⊙ D] · eᵀ`` with zero diagonal.

    ``dist[x, y] = 1 - Sim(S_x, S_y)`` must have a zero diagonal; the
    result then equals :func:`gpo` computed from the same distances.
    """
    n = len(groups)
    labels = np.unique(groups)
    a = np.zeros((n, len(labels)))
    for j, g in enumerate(labels):
        a[groups == g, j] = 1.0
    mask = a @ a.T
    return float(np.sum(mask * dist))


def phi(sets: Sequence[np.ndarray], members: Sequence[int], measure: str = "jaccard") -> float:
    """``φ(G)``: sum of all intra-group ordered-pair distances (§4.3.2)."""
    idx = np.asarray(list(members))
    groups = np.zeros(len(idx), dtype=np.int64)
    return gpo([sets[i] for i in idx], groups, measure)


def expected_pe(
    sets: Sequence[np.ndarray],
    groups: np.ndarray,
    queries: Sequence[np.ndarray],
    measure: str = "jaccard",
) -> float:
    """Equations (3)/(5): mean over queries of ``Σ_g |G_g|(1 - UB)/|D|``."""
    labels = np.unique(groups)
    unions = [group_token_union(sets, np.flatnonzero(groups == g)) for g in labels]
    sizes = np.array([np.count_nonzero(groups == g) for g in labels], dtype=np.float64)
    n = float(len(sets))
    acc = 0.0
    for q in queries:
        qu = np.unique(q)
        counts = np.array(
            [np.count_nonzero(np.isin(qu, gs, assume_unique=True)) for gs in unions]
        )
        ubs = group_upper_bounds(counts, len(qu), measure)
        acc += float(np.sum(sizes * (1.0 - ubs))) / n
    return acc / len(queries)


def balance_stats(groups: np.ndarray) -> dict:
    """Group-size balance summary used across partitioner experiments."""
    _, counts = np.unique(groups, return_counts=True)
    return {
        "n_groups": int(len(counts)),
        "min": int(counts.min()),
        "max": int(counts.max()),
        "std": float(counts.std()),
    }
