"""Self-organizing map: prototype grid, nearest-unit query, winning-prototype lookup, online training."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import UNLABELED, Dataset, check_vector
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
        # the kernel divides by 2 sigma^2, which must neither underflow to 0
        # nor overflow to inf.  sigma_final is checked where the ramp ends,
        # which rounds to 0 when sigma_final is below half an ulp of sigma0;
        # sigma0 first, as the ramp from an infinite sigma0 is NaN
        for name in ("sigma0", "sigma_final"):
            last = max(self.iterations - 1, 1)
            sigma = self.sigma0 if name == "sigma0" else float(self.sigma_at(last))
            if not 0.0 < 2.0 * sigma * sigma < math.inf:
                value = getattr(self, name)
                raise ValueError(f"{name} {value!r} is out of range: 2*{name}**2 must be a positive finite double")

    def alpha_at(self, t):
        """The learning rate at step t (an int, or an integer array of steps)."""
        return _ramp(self.alpha0, self.alpha_final, t, self.iterations)

    def sigma_at(self, t):
        """The kernel width at step t (an int, or an integer array of steps)."""
        return _ramp(self.sigma0, self.sigma_final, t, self.iterations)


def _ramp(start, end, t, iterations):
    """The linear ramp from ``start`` at step 0 to ``end`` at step
    ``iterations - 1``, at step t; a one-step schedule stays at ``start``.
    Every argument may be an array, so one call gives many schedules' values
    at many steps, each bitwise its scalar one."""
    return start + (end - start) * t / np.maximum(iterations - 1, 1)


def _map_rows(data, dim: int) -> np.ndarray:
    """The rows of ``data`` for a map of dimension ``dim``.  A matrix is
    made a Dataset first, so its values are checked as a Dataset's are."""
    X = (data if isinstance(data, Dataset) else Dataset(data)).X
    if X.shape[0] == 0:
        raise ValueError("data must be non-empty")
    if X.shape[1] != dim:
        raise ShapeError(f"data shape {X.shape} incompatible with map dim {dim}")
    return X


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
        X = _map_rows(data, dim)
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        u = lo + u * (hi - lo)
    return SomMap(rows, cols, u)


def distances(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Euclidean distances from each row of X to each row of W, a (units,
    dim) matrix or a (maps, units, dim) stack: (n, units) or (n, maps,
    units).  Each sums its squares along the contiguous component axis, so
    row i is bitwise ``np.linalg.norm(W - X[i], axis=-1)``."""
    d = X.reshape(X.shape[:1] + (1,) * (W.ndim - 1) + X.shape[1:]) - W
    d *= d  # in place: a second temporary made large batches slower
    d = np.add.reduce(d, axis=-1)
    return np.sqrt(d, out=d)


# Map queries, k-NN and Gaussian NB take their query rows in chunks whose
# (rows, map units or training rows or classes, components) float64
# temporary holds at most this many bytes; the training engine's per-segment
# sample rows and kernel values do too.
BATCH_BYTES = 1 << 22


def _query_chunks(n_queries: int, bytes_per_query: int):
    step = max(1, BATCH_BYTES // max(1, bytes_per_query))
    return (slice(lo, lo + step) for lo in range(0, n_queries, step))


def nearest_units(maps, X: np.ndarray, pick=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's nearest unit of each of ``maps`` (grids may differ):
    ``(unit, nearest, farthest)``, each (n, len(maps)), holding the index of
    the nearest unit (ties to the lowest), its distance and the distance of
    the map's farthest unit.  A row with ``pick[i] >= 0`` searches only map
    ``pick[i]``, any other row every map; the entries of a map a row does not
    search are unset.  Maps of one weight shape are stacked and searched
    together, one group of same-shape maps and one chunk of rows at a time
    (see ``BATCH_BYTES``, which counts every map of the group); a picked
    map is a stack of one.  Each distance is bitwise that of
    ``distances``.  Rows far enough from a map overflow its distances,
    which are left inf: pass what is used through ``check_finite``."""
    n = X.shape[0]
    unit = np.empty((n, len(maps)), dtype=np.int64)
    nearest, farthest = np.empty((2, n, len(maps)))
    free = np.arange(n) if pick is None else np.flatnonzero(pick < 0)
    groups = {}
    for m, som in enumerate(maps if free.size else ()):
        groups.setdefault(som.weights.shape, []).append(m)
    # (rows, maps) jobs: the free rows against each group, and the rows
    # that pick a map against that one map
    jobs = [(free, np.array(members)) for members in groups.values()]
    if pick is not None:
        jobs += [(np.flatnonzero(pick == m), np.array([m])) for m in np.unique(pick[pick >= 0])]
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, members in jobs:
            W = np.array([maps[m].weights for m in members])
            for chunk in _query_chunks(rows.size, 8 * W.size):
                r = rows[chunk]
                d = distances(X[r], W)
                cells = r[:, None], members
                unit[cells] = d.argmin(axis=2)
                nearest[cells] = d.min(axis=2)
                farthest[cells] = d.max(axis=2)
    return unit, nearest, farthest


def check_finite(d: np.ndarray) -> np.ndarray:
    """``d`` itself, unless a map distance in it overflowed (a DataError)."""
    if not np.isfinite(d).all():
        raise DataError("feature magnitudes overflow the map distances; rescale the features")
    return d


def bmu(som: SomMap, x) -> tuple[int, float]:
    """Best matching unit: index of the Euclidean-nearest prototype and its
    distance.  Ties go to the lowest unit index."""
    x = check_vector(x, som.dim)
    unit, nearest, farthest = nearest_units([som], x[None, :])
    check_finite(farthest)
    return int(unit[0, 0]), float(nearest[0, 0])


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


# train_maps builds its per-step tables (learning rates times kernel values
# and gathered sample rows, for every map still training) at most this many
# steps at a time, and fewer where the sample rows and kernel values would
# pass BATCH_BYTES, so their memory stays fixed however long the schedules
# run and however many maps train together.
STEP_CHUNK = 128


def train_step(som: SomMap, x, alpha: float, sigma: float) -> SomMap:
    """Apply one update W += alpha * h * (x - W) and return the new map."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    x = check_vector(x, som.dim)
    return train(som, x[None, :], TrainingSchedule(1, alpha, alpha, sigma, sigma))


def train(som: SomMap, data, sched: TrainingSchedule) -> SomMap:
    """Run the full online loop for sched.iterations steps.

    The samples are shuffled once with sched.seed and then cycled; alpha and
    sigma interpolate linearly between their endpoints, so both decrease
    monotonically over the run.
    """
    return train_maps([som], [data], [sched])[0]


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
    Xs = [_map_rows(data, som.dim) for som, data in zip(maps, datas)]
    stacks = {}
    for j, som in enumerate(maps):
        stacks.setdefault((som.rows, som.cols, som.dim), []).append(j)
    out = [None] * len(maps)
    for (rows, cols, _), members in stacks.items():
        members.sort(key=lambda j: -scheds[j].iterations)  # stable: ties keep call order
        # component-major (dim, n_maps, units) in memory, so each numpy call
        # of a step runs along the contiguous maps x units planes
        W = np.ascontiguousarray(np.stack([maps[j].weights for j in members]).transpose(2, 0, 1))
        _train_stack(W, cols, [Xs[j] for j in members], [scheds[j] for j in members])
        for j, weights in zip(members, W.transpose(1, 2, 0)):
            out[j] = SomMap(rows, cols, weights.copy())
    return out


def _train_stack(W: np.ndarray, cols: int, Xs: list, scheds: list) -> None:
    """The online loop over a (dim, n_maps, units) stack, in place.

    Budgets must not increase along the stack, so the maps still training
    at step t are always the leading ones, W[:, :k].  They train in a
    contiguous copy, made afresh whenever maps finish (at most once per
    distinct budget); a finished map is written back to W and never touched
    again.
    """
    dim, _, units = W.shape
    budgets = np.array([s.iterations for s in scheds])
    sizes = np.array([X.shape[0] for X in Xs])
    # every map's rows in one pool; a map's shuffled order indexes its part
    pool = np.concatenate(Xs)
    firsts = np.cumsum(sizes) - sizes
    orders = np.concatenate(
        [first + np.random.default_rng(s.seed).permutation(size) for first, size, s in zip(firsts, sizes, scheds)]
    )
    ramps = _ramps(scheds)
    cls, neg_g2 = _grid_classes(units // cols, cols)
    # the same k maps train from one budget edge to the next, in segments
    # whose sample rows and kernel values hold at most BATCH_BYTES
    edges = sorted(set(budgets.tolist()) | {0})
    counts = [int(np.count_nonzero(budgets > e)) for e in edges[:-1]]
    spans = [min(STEP_CHUNK, max(1, BATCH_BYTES // (8 * k * (dim + neg_g2.size)))) for k in counts]
    # one buffer holds every segment's kernel values: a fresh array of each
    # segment's size fragmented the heap and raised a long run's peak RSS
    buf = np.empty(max(span * k for span, k in zip(spans, counts)) * neg_g2.size)
    live = W
    for e0, e1, k, span in zip(edges, edges[1:], counts, spans):
        if k < live.shape[1]:
            W[:, k : live.shape[1]] = live[:, k:]
            live = live[:, :k].copy()
        for t0 in range(e0, e1, span):
            steps = np.arange(t0, min(t0 + span, e1))[:, None]
            xs = pool[orders[firsts[:k] + steps % sizes[:k]]]  # (steps, k, dim)
            alpha, width = _schedule_tables(ramps[:, :k], steps)
            # each step's alpha * exp(-g^2 / (2 sigma^2)) per map and class;
            # a quotient past the doubles is -inf, a kernel of 0
            kern = buf[: len(steps) * k * neg_g2.size].reshape(len(steps), k, 1, neg_g2.size)
            with np.errstate(over="ignore"):
                np.divide(neg_g2, width, out=kern)
            np.exp(kern, out=kern)
            kern *= alpha
            _train_segment(live, xs.transpose(0, 2, 1)[..., None], kern.reshape(len(steps), -1), cls)
    W[:, : live.shape[1]] = live


def _train_segment(w, xs, kern, cls) -> None:
    """The steps of one segment for the (dim, k, units) maps ``w`` in place,
    given each step's (dim, k, 1) sample rows and its (k * classes) learning
    rates times kernel values, map-major."""
    dim, k, _ = w.shape
    offsets = np.arange(k)[:, None] * (kern.shape[1] // k)
    for x, ak in zip(xs, kern):
        diff = x - w
        sq = diff * diff
        # Sum the squares in the order np.linalg.norm sums a unit's
        # components along its contiguous axis: fewer than 8 terms one
        # after another, as a sum over the outer component axis adds
        # them; 8 or more in pairwise blocks, which only a sum along a
        # contiguous copy reproduces.
        if dim < 8:
            d2 = np.add.reduce(sq, axis=0)
        else:
            d2 = np.add.reduce(np.ascontiguousarray(sq.transpose(1, 2, 0)), axis=2)
        # the root keeps ties as np.linalg.norm leaves them; the winner's
        # row of the class table picks each unit's kernel value
        diff *= ak.take(cls.take(np.sqrt(d2).argmin(axis=1), axis=0) + offsets)
        w += diff


def _grid_classes(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid-distance classes of a rows x cols grid: a (units, units)
    table of each (winner, unit) pair's class, in the smallest unsigned
    type that holds it, and each class's -(squared grid distance) as a
    float64."""
    r2 = np.arange(rows) ** 2
    c2 = np.arange(cols) ** 2
    values, classes = np.unique((r2[:, None] + c2).ravel(), return_inverse=True)
    classes = classes.astype(np.min_scalar_type(values.size - 1)).reshape(rows, cols)
    # the classes of every row and column offset from -(rows-1), -(cols-1)
    # on; the window at (rows-1-wr, cols-1-wc) is winner (wr, wc)'s row of
    # the table, so a reversed window view, copied once into a contiguous
    # table (which take needs), builds it with no units^2-sized temporary
    offsets = classes[abs(np.arange(1 - rows, rows))[:, None], abs(np.arange(1 - cols, cols))]
    windows = np.lib.stride_tricks.sliding_window_view(offsets, (rows, cols))[::-1, ::-1]
    table = np.ascontiguousarray(windows.reshape(rows * cols, rows * cols))
    return table, (-values).astype(np.float64)


def _ramps(scheds: list) -> np.ndarray:
    """The (5, maps, 1, 1) start and end rates, start and end widths and
    step budgets of ``scheds``, shaped to broadcast against a step table."""
    return np.array(
        [[s.alpha0, s.alpha_final, s.sigma0, s.sigma_final, s.iterations] for s in scheds]
    ).T.reshape(5, len(scheds), 1, 1)


def _schedule_tables(ramps: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each schedule's learning rate and 2 sigma^2 at each of ``steps`` (a
    column of step numbers), as (steps, maps, 1, 1) tables bitwise equal to
    ``alpha_at`` and ``2.0 * sigma * sigma`` of ``sigma_at``."""
    alpha0, alpha_final, sigma0, sigma_final, iterations = ramps
    t = steps[:, :, None, None]
    sigma = _ramp(sigma0, sigma_final, t, iterations)
    return _ramp(alpha0, alpha_final, t, iterations), 2.0 * sigma * sigma


def quantization_error(som: SomMap, data) -> float:
    """Mean BMU distance over the dataset rows."""
    _, nearest, farthest = nearest_units([som], _map_rows(data, som.dim))
    check_finite(farthest)
    return float(nearest[:, 0].mean())


def winning_prototypes(maps, data: Dataset, class_ids=None) -> np.ndarray:
    """Each row's winner-take-all prototype among ``maps``.  Given the maps'
    ``class_ids``, a labeled row takes the nearest unit of its class's map;
    any other row that of the map whose nearest unit is closest, ties going
    to the lower map and unit.  A row's distances to a map are computed
    once; one that overflows is a DataError if it lies in the map the row
    takes, or is the nearest distance to a map the row compares."""
    if data.dim != maps[0].dim:
        raise ShapeError(f"input dimension {data.dim} != model dimension {maps[0].dim}")
    n = data.n
    pick = np.full(n, -1)
    if class_ids is not None:
        labeled = data.labels != UNLABELED
        missing = sorted(set(data.labels[labeled].tolist()) - set(class_ids.tolist()))
        if missing:
            raise DataError(f"no class map for labeled rows of class(es) {missing}")
        pick[labeled] = np.searchsorted(class_ids, data.labels[labeled])
    free = pick < 0
    unit, nearest, farthest = nearest_units(maps, data.X, pick)
    pick[free] = check_finite(nearest[free]).argmin(axis=1)
    taken = np.arange(n), pick
    check_finite(farthest[taken])
    first_unit = np.cumsum([0] + [som.n_units for som in maps])
    return np.concatenate([som.weights for som in maps])[first_unit[pick] + unit[taken]]


def compose(data: Dataset, prototypes, mode: str) -> Dataset:
    """Each row replaced by its prototype (``mode`` "replace") or followed by
    it ("append"), labels passed through; without prototypes, ``data``."""
    if prototypes is None:
        return data
    X = prototypes if mode == "replace" else np.hstack([data.X, prototypes])
    return Dataset(X, data.labels.copy())
