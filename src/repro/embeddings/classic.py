"""Classical embedding baselines for the representation study (§7.3).

- :func:`pca_embed` — linear PCA [32] over the n-hot token matrix,
  via SVD of the centered matrix.
- :func:`mds_embed` — classical (Torgerson) multidimensional scaling
  [12] on the full ``1 - Jaccard`` distance matrix: double-center the
  squared distances and take the top eigenvectors.

Both are quadratic-or-worse in the data and exist to quantify the
paper's claim that PTR is 10–20,000× cheaper to compute; they run on
sampled databases only, exactly as §7.3 samples KOSARAK.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.packed import PackedSets


def one_hot(sets: Sequence[np.ndarray], n_tokens: int) -> np.ndarray:
    m = np.zeros((len(sets), n_tokens), dtype=np.float64)
    for i, s in enumerate(sets):
        m[i, s] = 1.0
    return m


def pca_embed(sets: Sequence[np.ndarray], n_tokens: int, d: int) -> np.ndarray:
    """Project n-hot set vectors onto the top ``d`` principal axes."""
    x = one_hot(sets, n_tokens)
    x -= x.mean(axis=0)
    # economy SVD; V columns are principal directions
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    return x @ vt[:d].T


def distance_matrix(sets: Sequence[np.ndarray]) -> np.ndarray:
    n = len(sets)
    packed = PackedSets(sets)
    dm = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        dm[i, i + 1 :] = 1.0 - packed.sims(sets[i])[i + 1 :]
    return dm + dm.T


def mds_embed(sets: Sequence[np.ndarray], d: int) -> np.ndarray:
    """Classical MDS of the full pairwise Jaccard-distance matrix."""
    dm = distance_matrix(sets)
    n = len(dm)
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (dm**2) @ j
    w, v = np.linalg.eigh(b)
    idx = np.argsort(-w)[:d]
    lam = np.clip(w[idx], 0, None)
    return v[:, idx] * np.sqrt(lam)
