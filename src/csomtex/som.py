"""Self-organizing map: prototype grid, BMU search, and online training."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DataError, ShapeError


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

    def alpha_at(self, t):
        """The learning rate at step t (an int, or an integer array of steps)."""
        if self.iterations == 1:
            return self.alpha0
        return self.alpha0 + (self.alpha_final - self.alpha0) * t / (self.iterations - 1)

    def sigma_at(self, t):
        """The kernel width at step t (an int, or an integer array of steps)."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(som.weights - x, axis=1)
    winner = int(np.argmin(check_finite(d)))
    return winner, float(d[winner])


def distances(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(n, m) Euclidean distances from each row of X to each row of W.  Each
    sums its squares along the contiguous component axis, so row i is
    bitwise ``np.linalg.norm(W - X[i], axis=1)``.  Rows far enough from a
    map overflow them: compute map distances under
    ``np.errstate(over="ignore", invalid="ignore")`` and pass what is used
    through ``check_finite``."""
    return np.linalg.norm(X[:, None, :] - W[None, :, :], axis=2)


def check_finite(d: np.ndarray) -> np.ndarray:
    """``d`` itself, unless a map distance in it overflowed (a DataError)."""
    if not np.isfinite(d).all():
        raise DataError("feature magnitudes overflow the map distances; rescale the features")
    return d


def bmu_indices(som: SomMap, X: np.ndarray) -> np.ndarray:
    """Vectorized BMU lookup for a batch of row vectors."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ShapeError(f"batch shape {X.shape} incompatible with map dim {som.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        d = distances(X, som.weights)
    return np.argmin(check_finite(d), axis=1)


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


# train_maps builds its per-step tables (learning rates, kernel widths and
# sample rows) this many steps at a time, so their memory stays fixed
# however long the schedules run.
STEP_CHUNK = 512


def train_step(som: SomMap, x, alpha: float, sigma: float) -> SomMap:
    """Apply one update W += alpha * h * (x - W) and return the new map."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    x = _check_vector(som, x)
    return train(som, x[None, :], TrainingSchedule(1, alpha, alpha, sigma, sigma))


def train(som: SomMap, data, sched: TrainingSchedule) -> SomMap:
    """Run the full online loop for sched.iterations steps.

    The samples are shuffled once with sched.seed and then cycled; alpha and
    sigma interpolate linearly between their endpoints, so both decrease
    monotonically over the run.
    """
    return train_maps([som], [data], [sched])[0]


def _training_matrix(som: SomMap, data) -> np.ndarray:
    X = _data_matrix(data)
    if X.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ShapeError(f"data shape {X.shape} incompatible with map dim {som.dim}")
    return X


def train_maps(maps, datas, scheds) -> list[SomMap]:
    """Train ``maps[j]`` on ``datas[j]`` under ``scheds[j]``, all maps in one
    online loop; the input maps are left unchanged.

    Each map keeps its own run: its rows shuffled once with its own seed and
    then cycled, its own step budget and its own rate and width ramps.
    Every step does one BMU search, one Gaussian neighbourhood and one update
    for a stack of the maps that share a grid and dimension, with the
    per-map arithmetic of a map trained alone, so each result is bitwise the
    same whichever maps share the call.
    """
    maps, datas, scheds = list(maps), list(datas), list(scheds)
    if not len(maps) == len(datas) == len(scheds):
        raise ValueError("train_maps needs one data set and one schedule per map")
    Xs = [_training_matrix(som, data) for som, data in zip(maps, datas)]
    stacks = {}
    for j, som in enumerate(maps):
        stacks.setdefault((som.rows, som.cols, som.dim), []).append(j)
    out = [None] * len(maps)
    for (rows, cols, _), members in stacks.items():
        members.sort(key=lambda j: -scheds[j].iterations)  # stable: ties keep call order
        # component-major (n_maps, dim, units) in memory, so each numpy call
        # of a step runs along the units
        W = np.ascontiguousarray(np.stack([maps[j].weights.T for j in members]))
        _train_stack(W, cols, [Xs[j] for j in members], [scheds[j] for j in members])
        for j, weights in zip(members, W):
            out[j] = SomMap(rows, cols, weights.T.copy())
    return out


def _train_stack(W: np.ndarray, cols: int, Xs: list, scheds: list) -> None:
    """The online loop over a (n_maps, dim, units) stack, in place.

    Budgets must not increase along the stack, so the maps still training
    at step t are always the leading ones, W[:k]; a finished map is never
    touched again.
    """
    _, dim, units = W.shape
    rows = units // cols
    budgets = np.array([s.iterations for s in scheds])
    # every map's rows in one pool; a map's shuffled order indexes its part
    pool = np.concatenate(Xs)[:, :, None]
    starts = np.cumsum([0] + [X.shape[0] for X in Xs])
    orders = [
        start + np.random.default_rng(s.seed).permutation(X.shape[0])
        for start, X, s in zip(starts, Xs, scheds)
    ]
    # unit i sits at (i // cols, i % cols); its squared grid distance to the
    # winner is a row term plus a column term, both exact in float64
    r = np.arange(rows, dtype=np.float64)
    c = np.arange(cols, dtype=np.float64)
    neg_r2 = -((r[:, None] - r) ** 2)[:, :, None]  # (rows, rows, 1)
    neg_c2 = -((c[:, None] - c) ** 2)[:, None, :]  # (cols, 1, cols)
    for t0 in range(0, int(budgets[0]), STEP_CHUNK):
        steps = np.arange(t0, min(t0 + STEP_CHUNK, int(budgets[0])))
        active = int(np.count_nonzero(budgets > t0))
        alpha = np.empty((steps.size, active, 1, 1))
        width = np.empty((steps.size, active, 1, 1))  # 2 sigma^2
        sample = np.empty((steps.size, active), dtype=np.int64)
        for j in range(active):
            t = steps[steps < budgets[j]]
            alpha[: t.size, j, 0, 0] = scheds[j].alpha_at(t)
            sigma = scheds[j].sigma_at(t)
            width[: t.size, j, 0, 0] = 2.0 * sigma * sigma
            sample[: t.size, j] = orders[j][t % orders[j].size]
        training = (budgets[:active, None] > steps).sum(axis=0)
        for i, k in enumerate(training.tolist()):
            w = W[:k]
            diff = pool.take(sample[i, :k], axis=0) - w  # x - W
            sq = diff * diff
            # Sum the squares in the order np.linalg.norm sums a unit's
            # components along its contiguous axis: fewer than 8 terms one
            # after another, as a sum over the component axis here adds
            # them; 8 or more in pairwise blocks, which only a sum along a
            # contiguous copy reproduces.
            if dim < 8:
                d2 = np.add.reduce(sq, axis=1)
            else:
                d2 = np.add.reduce(np.ascontiguousarray(sq.transpose(0, 2, 1)), axis=2)
            # the root keeps ties as np.linalg.norm leaves them
            wr, wc = np.divmod(np.sqrt(d2).argmin(axis=1), cols)
            h = np.exp((neg_r2.take(wr, axis=0) + neg_c2.take(wc, axis=0)) / width[i, :k])
            w += (alpha[i, :k] * h).reshape(k, 1, units) * diff


def quantization_error(som: SomMap, data) -> float:
    """Mean BMU distance over the dataset rows."""
    X = _data_matrix(data)
    if X.shape[0] == 0:
        raise ValueError("data must be non-empty")
    if X.ndim != 2 or X.shape[1] != som.dim:
        raise ShapeError(f"data shape {X.shape} incompatible with map dim {som.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        d = distances(X, som.weights)
    return float(check_finite(d).min(axis=1).mean())


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
