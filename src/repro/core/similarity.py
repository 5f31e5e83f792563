"""Set similarity measures and TGM group upper bounds (paper §2, §3.2).

A set is represented as a sorted ``np.ndarray`` of int64 token ids.
Multisets keep duplicate entries; plain sets are deduplicated. All
measures here satisfy the TGM Applicability Property (Theorem 3.1):

  1. ``Sim(Q, Q∩S) >= Sim(Q, S)``
  2. ``R' ⊂ R ⊆ Q  =>  Sim(Q, R) >= Sim(Q, R')``

so ``Sim(Q, Q ∩ GS_g)`` upper-bounds the similarity between ``Q`` and
every member of group ``g`` (Equation 2 generalized beyond Jaccard).

Each measure is written once, in :data:`_FORMULAS`, as a function of
``c = |Q∩S|``, ``q = |Q|`` and ``s = |S|``. The scalar functions, the
vectorized verify kernel (:mod:`.packed`), the group upper bounds and the
Spark verify expression all evaluate that same formula, so they agree to
the last bit; a zero denominator gives similarity 0 everywhere.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

MEASURES = ("jaccard", "dice", "cosine")

# measure -> (c, q, s, sqrt) -> (numerator, denominator). ``sqrt`` comes
# from the backend evaluating the formula (math, numpy or Spark).
_FORMULAS = {
    "jaccard": lambda c, q, s, sqrt: (c, q + s - c),
    "dice": lambda c, q, s, sqrt: (2 * c, q + s),
    "cosine": lambda c, q, s, sqrt: (c, sqrt(q * s)),
}


def _formula(measure: str):
    try:
        return _FORMULAS[measure]
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")


def tokens(xs: Iterable[int], *, multiset: bool = False) -> np.ndarray:
    """Normalize an iterable of token ids into the canonical array form."""
    a = np.asarray(sorted(xs), dtype=np.int64)
    if not multiset:
        a = np.unique(a)
    return a


def intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| of the distinct tokens: duplicates count once, so
    ``[1, 1, 2] ∩ [1, 1, 3]`` has size 1."""
    return len(np.intersect1d(a, b, assume_unique=False))


def sim_from_counts(c, q, s, measure: str = "jaccard") -> np.ndarray:
    """Vectorized ``Sim`` from ``|Q∩S|``, ``|Q|`` and ``|S|`` (broadcast).

    A denominator is 0 only where ``c`` is 0, and is at least 1 anywhere
    else, so dividing by ``max(den, 1)`` scores an empty set 0 and leaves
    every other quotient unchanged.
    """
    num, den = _formula(measure)(np.asarray(c, dtype=np.float64), q, s, np.sqrt)
    return num / np.maximum(den, 1)


# Pairs per block of :func:`pair_sims`, which bounds the key arrays held
# at once. Unblocked, L2P on livej-lite raised the benchmark's peak RSS
# from 192 to 201 MB; 256-pair blocks leave it at 192 MB and run as fast.
_PAIR_BLOCK = 256


def pair_sims(
    sets: Sequence[np.ndarray], xs: np.ndarray, ys: np.ndarray, measure: str = "jaccard"
) -> np.ndarray:
    """``Sim(sets[xs[i]], sets[ys[i]])`` for every ``i``, without a Python
    call per pair; bit-identical to :func:`sim_fn`.

    Each token is tagged with its pair as the key ``pair * span + token``.
    One ``np.unique`` per side deduplicates the keys, ``bincount`` of the
    pairs gives ``|X|`` and ``|Y|``, and the keys the two sides share
    give ``|X∩Y|``.
    """
    _formula(measure)
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    out = np.empty(len(xs), dtype=np.float64)
    for lo in range(0, len(xs), _PAIR_BLOCK):
        hi = lo + _PAIR_BLOCK
        out[lo:hi] = sim_from_counts(*_pair_counts(sets, xs[lo:hi], ys[lo:hi]), measure)
    return out


def _pair_counts(sets, xs, ys):
    """``(|X∩Y|, |X|, |Y|)`` per pair of one block."""
    n = len(xs)
    parts = [sets[i] for i in np.concatenate([xs, ys]).tolist()]
    lens = np.fromiter(map(len, parts), dtype=np.int64, count=2 * n)
    toks = np.concatenate(parts).astype(np.int64, copy=False)
    if len(toks) == 0:
        return np.zeros(n), lens[:n], lens[n:]
    lo, hi = int(toks.min()), int(toks.max())
    if (hi - lo + 1) * n < 1 << 62:
        toks, span = toks - lo, hi - lo + 1
    else:  # keys would overflow int64: rank the tokens first
        uniq, toks = np.unique(toks, return_inverse=True)
        span = len(uniq)
    keys = np.repeat(np.tile(np.arange(n), 2) * span, lens) + toks
    n_x = int(lens[:n].sum())
    kx, ky = np.unique(keys[:n_x]), np.unique(keys[n_x:])
    common = np.intersect1d(kx, ky, assume_unique=True)
    return tuple(np.bincount(k // span, minlength=n) for k in (common, kx, ky))


def pair_sim_from_counts(c: int, q: int, s: int, measure: str = "jaccard") -> float:
    """Scalar :func:`sim_from_counts`, with the same rounding."""
    num, den = _formula(measure)(float(c), float(q), float(s), math.sqrt)
    return num / max(den, 1.0)


def _pair_sim(a: np.ndarray, b: np.ndarray, measure: str) -> float:
    a, b = np.unique(a), np.unique(b)
    c = len(np.intersect1d(a, b, assume_unique=True))
    return pair_sim_from_counts(c, len(a), len(b), measure)


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """|a∩b| / |a∪b|; 0 for two empty sets by convention."""
    return _pair_sim(a, b, "jaccard")


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|a∩b| / (|a| + |b|)."""
    return _pair_sim(a, b, "dice")


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """|a∩b| / sqrt(|a| * |b|) (set cosine similarity)."""
    return _pair_sim(a, b, "cosine")


def sim_fn(measure: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Look up a pairwise similarity function by name."""
    _formula(measure)
    return {"jaccard": jaccard, "dice": dice, "cosine": cosine}[measure]


def group_upper_bounds(
    counts: np.ndarray, q_size: int, measure: str = "jaccard"
) -> np.ndarray:
    """``Sim(Q, R)`` with ``R = Q ∩ GS_g``, ``|R| = counts[g]``, ``|Q| = q_size``.

    This is Equation (2) for Jaccard and its analogue for the other
    measures: ``R ⊆ Q`` gives ``|Q∩R| = |R|``, so the bound is the
    measure's formula at ``s = c``. It equals ``Sim(Q, S)`` exactly for a
    member ``S = R``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if q_size == 0:
        return np.zeros_like(counts)
    return sim_from_counts(counts, q_size, counts, measure)


def sim_expr(measure: str):
    """Spark Column: ``Sim(q_tokens, tokens)`` from built-in array functions.

    ``q_tokens`` must hold distinct tokens. Every denominator is guarded,
    since ANSI-mode Spark raises on division by zero.
    """
    from pyspark.sql import functions as F

    c = F.size(F.array_intersect("q_tokens", "tokens")).cast("double")
    q = F.size("q_tokens").cast("double")
    s = F.size(F.array_distinct("tokens")).cast("double")
    num, den = _formula(measure)(c, q, s, F.sqrt)
    return F.when(den > 0, num / den).otherwise(0.0)
