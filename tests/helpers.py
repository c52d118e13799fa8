"""Shared synthetic-data builders and reference loops for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from csomtex import Dataset, Image

# derandomized, so a run draws the same examples every time
FUZZ = settings(max_examples=300, derandomize=True, deadline=None)


def gaussian_blobs(
    n_per_class,
    dim: int = 6,
    separation: float = 10.0,
    std: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Labeled draws from one isotropic Gaussian per class.

    Class means sit at separation * e_k along distinct axes (wrapping with an
    offset when classes outnumber dimensions), so consecutive means are at
    least ``separation`` apart while cluster std stays ``std``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for cls, n in enumerate(n_per_class):
        mean = np.zeros(dim)
        mean[cls % dim] = separation * (1 + cls // dim)
        if cls // dim:
            mean[(cls + 1) % dim] = separation
        rows.append(rng.normal(mean, std, size=(n, dim)))
        labels.extend([cls] * n)
    return Dataset(np.vstack(rows), np.array(labels, dtype=np.int64))


def image_from(rows, max_value: int = 255) -> Image:
    return Image(np.array(rows, dtype=np.int64), max_value)


def random_image(rng: np.random.Generator, h: int, w: int, levels: int) -> Image:
    return Image(rng.integers(0, levels, size=(h, w)), levels - 1)


def train_oracle(som, data, sched):
    """Reference online loop: one map, one step at a time, as ``train`` ran
    before the lockstep engine.  The engine must match it bitwise."""
    X = data.X if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    order = np.random.default_rng(sched.seed).permutation(X.shape[0])
    weights = som.weights.copy()
    positions = som.positions()
    for t in range(sched.iterations):
        x = X[order[t % X.shape[0]]]
        alpha, sigma = sched.alpha_at(t), sched.sigma_at(t)
        d = np.linalg.norm(weights - x, axis=1)
        winner = int(np.argmin(d))
        g2 = ((positions - positions[winner]) ** 2).sum(axis=1)
        h = np.exp(-g2 / (2.0 * sigma * sigma))
        weights += (alpha * h)[:, None] * (x - weights)
    return weights


def knn_oracle(train, x, k: int = 1) -> int:
    """Reference one-query k-NN, as ``knn_predict`` ran before it became
    the one-row case of ``knn_predict_batch``: majority label among the k
    nearest training rows, distance ties to the lower row index, vote ties
    to the lowest class id.  The batch form must match it exactly."""
    labels = train.labels
    x = np.asarray(x, dtype=np.float64)
    d = np.linalg.norm(train.X - x, axis=1)
    nearest = np.argsort(d, kind="stable")[:k]
    votes, counts = np.unique(labels[nearest], return_counts=True)
    return int(votes[int(np.argmax(counts))])


def bits(a: np.ndarray) -> np.ndarray:
    """The raw float64 bits, so equality is bitwise (-0.0 != 0.0)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
