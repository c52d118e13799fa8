"""Self-organizing map: prototype grid, BMU search, and online training."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import ShapeError


@dataclass(eq=False)
class SomMap:
    """2-D grid of prototype vectors; unit i sits at (i // cols, i % cols)."""

    rows: int
    cols: int
    weights: np.ndarray  # (rows * cols, dim) float64

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape[0] != self.rows * self.cols or self.weights.ndim != 2:
            raise ValueError("weights must be a (rows*cols, dim) matrix")
        if not np.isfinite(self.weights).all():
            raise ValueError("prototype components must be finite")

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def unit_position(self, unit: int) -> tuple[int, int]:
        return unit // self.cols, unit % self.cols

    def positions(self) -> np.ndarray:
        """(n_units, 2) array of grid coordinates in unit order."""
        idx = np.arange(self.n_units)
        return np.stack([idx // self.cols, idx % self.cols], axis=1).astype(np.float64)

    def copy(self) -> "SomMap":
        return SomMap(self.rows, self.cols, self.weights.copy())


@dataclass
class TrainingSchedule:
    """Step count plus linearly interpolated learning-rate/radius endpoints."""

    iterations: int
    alpha0: float = 0.5
    alpha_final: float = 0.01
    sigma0: float = 1.0
    sigma_final: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.alpha_final <= self.alpha0 <= 1.0:
            raise ValueError("need 0 <= alpha_final <= alpha0 <= 1")
        if not 0.0 < self.sigma_final <= self.sigma0:
            raise ValueError("need 0 < sigma_final <= sigma0")

    def alpha_at(self, t: int) -> float:
        if self.iterations == 1:
            return self.alpha0
        return self.alpha0 + (self.alpha_final - self.alpha0) * t / (self.iterations - 1)

    def sigma_at(self, t: int) -> float:
        if self.iterations == 1:
            return self.sigma0
        return self.sigma0 + (self.sigma_final - self.sigma0) * t / (self.iterations - 1)


def _data_matrix(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.X
    return np.asarray(data, dtype=np.float64)


def init_map(rows: int, cols: int, dim: int, seed: int = 0, data=None) -> SomMap:
    """Random prototypes, uniform per dimension over the data range (or [0,1)).

    Draws consume a seeded generator in unit-major, component-minor order,
    so identical arguments give bitwise-identical maps.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((rows * cols, dim))
    if data is not None:
        X = _data_matrix(data)
        if X.shape[1] != dim:
            raise ShapeError(f"data dimension {X.shape[1]} != map dimension {dim}")
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        u = lo + u * (hi - lo)
    return SomMap(rows, cols, u)


def _check_vector(som: SomMap, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (som.dim,):
        raise ShapeError(f"input dimension {x.shape} != map dimension ({som.dim},)")
    return x


def bmu(som: SomMap, x) -> tuple[int, float]:
    """Best matching unit: index of the Euclidean-nearest prototype and its
    distance.  Ties go to the lowest unit index."""
    x = _check_vector(som, x)
    d = np.linalg.norm(som.weights - x, axis=1)
    winner = int(np.argmin(d))
    return winner, float(d[winner])


def bmu_indices(som: SomMap, X: np.ndarray) -> np.ndarray:
    """Vectorized BMU lookup for a batch of row vectors."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ShapeError(f"batch shape {X.shape} incompatible with map dim {som.dim}")
    d = np.linalg.norm(X[:, None, :] - som.weights[None, :, :], axis=2)
    return np.argmin(d, axis=1)


def neighborhood(som: SomMap, winner: int, unit: int, sigma: float) -> float:
    """Gaussian kernel exp(-||r_w - r_i||^2 / (2 sigma^2)) over grid positions."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    for u in (winner, unit):
        if not 0 <= u < som.n_units:
            raise ValueError(f"unit {u} outside grid of {som.n_units} units")
    wr, wc = som.unit_position(winner)
    ur, uc = som.unit_position(unit)
    d2 = (wr - ur) ** 2 + (wc - uc) ** 2
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def _update_inplace(
    weights: np.ndarray, positions: np.ndarray, x: np.ndarray, alpha: float, sigma: float
) -> int:
    """One online step: move every unit toward x by alpha * h(winner, unit)."""
    d = np.linalg.norm(weights - x, axis=1)
    winner = int(np.argmin(d))
    g2 = ((positions - positions[winner]) ** 2).sum(axis=1)
    h = np.exp(-g2 / (2.0 * sigma * sigma))
    weights += (alpha * h)[:, None] * (x - weights)
    return winner


def train_step(som: SomMap, x, alpha: float, sigma: float) -> SomMap:
    """Apply one update W += alpha * h * (x - W) and return the new map."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    x = _check_vector(som, x)
    out = som.copy()
    _update_inplace(out.weights, som.positions(), x, alpha, sigma)
    return out


def train(som: SomMap, data, sched: TrainingSchedule) -> SomMap:
    """Run the full online loop for sched.iterations steps.

    The samples are shuffled once with sched.seed and then cycled; alpha and
    sigma interpolate linearly between their endpoints, so both decrease
    monotonically over the run.
    """
    X = _data_matrix(data)
    if X.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ShapeError(f"data shape {X.shape} incompatible with map dim {som.dim}")
    order = np.random.default_rng(sched.seed).permutation(X.shape[0])
    out = som.copy()
    positions = out.positions()
    weights = out.weights
    n = X.shape[0]
    for t in range(sched.iterations):
        x = X[order[t % n]]
        _update_inplace(weights, positions, x, sched.alpha_at(t), sched.sigma_at(t))
    return out


def quantization_error(som: SomMap, data) -> float:
    """Mean BMU distance over the dataset rows."""
    X = _data_matrix(data)
    if X.shape[0] == 0:
        raise ValueError("data must be non-empty")
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ShapeError(f"data shape {X.shape} incompatible with map dim {som.dim}")
    d = np.linalg.norm(X[:, None, :] - som.weights[None, :, :], axis=2)
    return float(d.min(axis=1).mean())


def replace_with_prototypes(som: SomMap, data: Dataset) -> Dataset:
    """Quantize every row to its BMU prototype (labels pass through)."""
    idx = bmu_indices(som, data.X)
    return Dataset(som.weights[idx].copy(), None if data.labels is None else data.labels.copy())


def append_prototypes(som: SomMap, data: Dataset) -> Dataset:
    """Concatenate each row with its BMU prototype (labels pass through)."""
    idx = bmu_indices(som, data.X)
    X = np.hstack([data.X, som.weights[idx]])
    return Dataset(X, None if data.labels is None else data.labels.copy())


def derive_schedule(sched: TrainingSchedule, iterations: int, seed: int | None = None) -> TrainingSchedule:
    """Same endpoints, different step budget (and optionally seed)."""
    return replace(
        sched,
        iterations=max(1, iterations),
        seed=sched.seed if seed is None else seed,
    )
