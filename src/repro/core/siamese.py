"""Siamese network for learning binary partitions (paper §5.1, §7.1).

The paper trains a pair of weight-sharing MLPs (two hidden layers of
eight sigmoid neurons, one sigmoid output) with the surrogate loss of
Equation (18):

    loss'(Sx, Sy) = (0.5 - |Ox - Oy|) * (1 - Sim(Sx, Sy))   if same side
                  = 0                                        otherwise

where "same side" means both outputs fall on the same side of 0.5. An
input lands in group 0 when its output is < 0.5 and group 1 otherwise.

The paper implements this in PyTorch; offline we have no torch, so the
network, backprop, and the Adam optimizer are written directly in numpy
(identical math — see DESIGN.md Substitutions). Inputs are z-scored per
model; the raw PTR coordinates scale with set size and would saturate
the sigmoid units otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


@dataclass
class TrainStats:
    """Per-epoch mean training loss, as reported in Figure 7(a)."""

    epoch_losses: List[float] = field(default_factory=list)


class SiameseMLP:
    """Weight-sharing MLP ``d -> 8 -> 8 -> 1``, all-sigmoid activations."""

    def __init__(self, dim: int, hidden: int = 8, seed: int = 0):
        g = np.random.default_rng(seed)
        # Xavier-style init keeps the sigmoids in their linear regime.
        self.w1 = g.normal(0, np.sqrt(1.0 / dim), (hidden, dim))
        self.b1 = np.zeros(hidden)
        self.w2 = g.normal(0, np.sqrt(1.0 / hidden), (hidden, hidden))
        self.b2 = np.zeros(hidden)
        self.w3 = g.normal(0, np.sqrt(1.0 / hidden), (1, hidden))
        self.b3 = np.zeros(1)
        self._mu = np.zeros(dim)
        self._sd = np.ones(dim)
        self._adam_m = [np.zeros_like(p) for p in self._params()]
        self._adam_v = [np.zeros_like(p) for p in self._params()]
        self._adam_t = 0

    # -- forward / backward ------------------------------------------------
    def _params(self) -> List[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def _norm(self, x: np.ndarray) -> np.ndarray:
        return (x - self._mu) / self._sd

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """Outputs in (0,1) for a batch ``x`` plus the backprop cache."""
        xn = self._norm(np.atleast_2d(x))
        a1 = _sigmoid(xn @ self.w1.T + self.b1)
        a2 = _sigmoid(a1 @ self.w2.T + self.b2)
        o = _sigmoid(a2 @ self.w3.T + self.b3)[:, 0]
        return o, (xn, a1, a2, o)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def _backward(self, cache: tuple, dout: np.ndarray) -> List[np.ndarray]:
        xn, a1, a2, o = cache
        dz3 = (dout * o * (1 - o))[:, None]
        gw3 = dz3.T @ a2
        gb3 = dz3.sum(axis=0)
        da2 = dz3 @ self.w3
        dz2 = da2 * a2 * (1 - a2)
        gw2 = dz2.T @ a1
        gb2 = dz2.sum(axis=0)
        da1 = dz2 @ self.w2
        dz1 = da1 * a1 * (1 - a1)
        gw1 = dz1.T @ xn
        gb1 = dz1.sum(axis=0)
        return [gw1, gb1, gw2, gb2, gw3, gb3]

    def _adam_step(self, grads: List[np.ndarray], lr: float) -> None:
        b1, b2, eps = 0.9, 0.999, 1e-8
        self._adam_t += 1
        for p, g, m, v in zip(self._params(), grads, self._adam_m, self._adam_v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mh = m / (1 - b1**self._adam_t)
            vh = v / (1 - b2**self._adam_t)
            p -= lr * mh / (np.sqrt(vh) + eps)

    # -- the surrogate loss (Equation 18) ----------------------------------
    @staticmethod
    def pair_loss(ox: np.ndarray, oy: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Vectorized Equation (18) over a batch of pairs."""
        same = (ox >= 0.5) == (oy >= 0.5)
        w = 0.5 - np.abs(ox - oy)
        return np.where(same, w * dist, 0.0)

    def train(
        self,
        x: np.ndarray,
        pairs: np.ndarray,
        dists: np.ndarray,
        *,
        epochs: int = 3,
        batch_size: int = 256,
        lr: float = 0.05,
        seed: int = 0,
    ) -> TrainStats:
        """Train on sampled pairs ``(i, j)`` with distances ``1 - Sim``.

        Mirrors the paper's recipe: batch 256, Adam, 3 epochs. Returns
        per-epoch mean loss for the Figure-7(a) learning curves.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._mu = x.mean(axis=0)
        sd = x.std(axis=0)
        self._sd = np.where(sd > 1e-12, sd, 1.0)
        g = np.random.default_rng(seed)
        stats = TrainStats()
        n = len(pairs)
        for _ in range(epochs):
            order = g.permutation(n)
            losses = []
            for s in range(0, n, batch_size):
                b = order[s : s + batch_size]
                xi, yi = pairs[b, 0], pairs[b, 1]
                d = dists[b]
                ox, cx = self.forward(x[xi])
                oy, cy = self.forward(x[yi])
                losses.append(float(np.mean(self.pair_loss(ox, oy, d))))
                # dL/dOx = -sign(Ox-Oy) * d on same-side pairs, 0 otherwise.
                same = (ox >= 0.5) == (oy >= 0.5)
                sgn = np.sign(ox - oy)
                dox = np.where(same, -sgn * d, 0.0) / len(b)
                doy = np.where(same, sgn * d, 0.0) / len(b)
                gx = self._backward(cx, dox)
                gy = self._backward(cy, doy)
                self._adam_step([a + b_ for a, b_ in zip(gx, gy)], lr)
            stats.epoch_losses.append(float(np.mean(losses)))
        return stats

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Binary group labels: 0 if output < 0.5 else 1 (paper §7.1).

        If the learned split is degenerate (everything on one side), fall
        back to thresholding at the median output so the cascade always
        makes progress — an implementation safeguard the tiny 8-unit nets
        occasionally need; documented in DESIGN.md.
        """
        o = self.predict(x)
        lab = (o >= 0.5).astype(np.int64)
        if lab.min() == lab.max() and len(lab) > 1:
            lab = (o > np.median(o)).astype(np.int64)
            if lab.min() == lab.max():  # all outputs identical: split evenly
                lab = (np.arange(len(lab)) % 2).astype(np.int64)
        return lab
