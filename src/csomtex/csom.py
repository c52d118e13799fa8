"""Per-class SOM ensemble: training, winner-take-all classification, and the
prototype feature transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNLABELED, Dataset, require_labels
from .errors import DataError, ShapeError
from .som import (
    SomMap,
    TrainingSchedule,
    bmu_indices,
    check_finite,
    derive_schedule,
    distances,
    init_map,
    train,
)


@dataclass(eq=False)
class CsomModel:
    """One independently trained map per class, ordered by ascending class id."""

    entries: list  # [(class_id, SomMap), ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a model needs at least one class map")
        ids = [int(cid) for cid, _ in self.entries]
        if ids != sorted(set(ids)):
            raise ValueError("class ids must be strictly ascending")
        dims = {som.dim for _, som in self.entries}
        if len(dims) != 1:
            raise ValueError("all class maps must share one prototype dimension")
        self.entries = [(int(cid), som) for cid, som in self.entries]

    @property
    def class_ids(self) -> np.ndarray:
        return np.array([cid for cid, _ in self.entries], dtype=np.int64)

    @property
    def n_classes(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return self.entries[0][1].dim

    def map_for(self, class_id: int) -> SomMap:
        for cid, som in self.entries:
            if cid == class_id:
                return som
        raise DataError(f"model has no map for class {class_id}")


def split_by_class(data: Dataset) -> list[tuple[int, Dataset]]:
    """Partition a fully labeled dataset by class, ascending class id,
    preserving within-class row order."""
    labels = require_labels(data)
    return [
        (int(cid), data.subset(np.flatnonzero(labels == cid)))
        for cid in np.unique(labels)
    ]


def class_maps(data: Dataset, rows: int, cols: int, sched: TrainingSchedule) -> list[tuple]:
    """The training jobs of a per-class model, ascending class id: one
    ``(class_id, initial map, class rows, schedule)`` per class.

    Each map is initialized with seed ``sched.seed + class_id`` and receives
    a share of ``sched.iterations`` proportional to its class size, so the
    total step budget matches a single pooled map trained with the same
    schedule.
    """
    groups = split_by_class(data)
    total = sum(sub.n for _, sub in groups)
    return [
        (
            cid,
            init_map(rows, cols, sub.dim, seed=sched.seed + cid, data=sub),
            sub,
            derive_schedule(sched, max(1, round(sched.iterations * sub.n / total))),
        )
        for cid, sub in groups
    ]


def train_csom(data: Dataset, rows: int, cols: int, sched: TrainingSchedule) -> CsomModel:
    """Train one map per class on that class's rows only (see class_maps)."""
    jobs = class_maps(data, rows, cols, sched)
    return CsomModel([(cid, train(som, sub, s)) for cid, som, sub, s in jobs])


def _check_dim(model: CsomModel, dim: int) -> None:
    if dim != model.dim:
        raise ShapeError(f"input dimension {dim} != model dimension {model.dim}")


def _error_matrix(model: CsomModel, X: np.ndarray) -> np.ndarray:
    """(n, n_classes) matrix of per-map BMU distances."""
    with np.errstate(over="ignore", invalid="ignore"):
        cols = [distances(X, som.weights).min(axis=1) for _, som in model.entries]
    return check_finite(np.stack(cols, axis=1))


def classify(model: CsomModel, x) -> tuple[int, np.ndarray]:
    """Winner-take-all decision: the class whose map quantizes x best.

    Returns the winning class id and the full vector of per-class BMU
    distances (ordered by ascending class id).  Ties break toward the lowest
    class id.
    """
    if model.n_classes < 2:
        raise DataError("classification needs a model with at least 2 class maps")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ShapeError(f"input dimension {x.shape} != model dimension ({model.dim},)")
    errors = _error_matrix(model, x[None, :])[0]
    return int(model.class_ids[int(np.argmin(errors))]), errors


def classify_dataset(model: CsomModel, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Batch classify: (predicted labels, per-class error matrix)."""
    if model.n_classes < 2:
        raise DataError("classification needs a model with at least 2 class maps")
    _check_dim(model, data.dim)
    errors = _error_matrix(model, data.X)
    preds = model.class_ids[np.argmin(errors, axis=1)]
    return preds, errors


def _winning_prototypes(model: CsomModel, data: Dataset) -> np.ndarray:
    """Winner prototype per row: the row's own class map when it is labeled,
    otherwise the map with least quantization error."""
    _check_dim(model, data.dim)
    out = np.empty_like(data.X)
    labels = data.labels
    if labels is None:
        unlabeled = np.arange(data.n)
    else:
        known = set(int(c) for c in model.class_ids)
        present = set(int(c) for c in np.unique(labels[labels != UNLABELED]))
        missing = sorted(present - known)
        if missing:
            raise DataError(f"no class map for labeled rows of class(es) {missing}")
        unlabeled = np.flatnonzero(labels == UNLABELED)
        for cid, som in model.entries:
            idx = np.flatnonzero(labels == cid)
            if idx.size:
                out[idx] = som.weights[bmu_indices(som, data.X[idx])]
    if unlabeled.size:
        X = data.X[unlabeled]
        errors = _error_matrix(model, X)
        best_map = np.argmin(errors, axis=1)
        for mi, (_, som) in enumerate(model.entries):
            sel = np.flatnonzero(best_map == mi)
            if sel.size:
                out[unlabeled[sel]] = som.weights[bmu_indices(som, X[sel])]
    return out


def transform_replace(model: CsomModel, data: Dataset) -> Dataset:
    """Replace every row with its winner prototype (labels and order kept)."""
    protos = _winning_prototypes(model, data)
    return Dataset(protos, None if data.labels is None else data.labels.copy())


def transform_append(model: CsomModel, data: Dataset) -> Dataset:
    """Concatenate each row with its winner prototype, doubling the dimension."""
    protos = _winning_prototypes(model, data)
    X = np.hstack([data.X, protos])
    return Dataset(X, None if data.labels is None else data.labels.copy())
