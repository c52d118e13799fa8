"""Per-class SOM ensemble: training, winner-take-all classification, and the
prototype feature transforms."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, check_vector, require_labels
from .errors import DataError, ShapeError
from .som import (
    TrainingSchedule,
    check_finite,
    compose,
    init_map,
    nearest_units,
    train,
    winning_prototypes,
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
    def maps(self) -> list:
        return [som for _, som in self.entries]

    @property
    def n_classes(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return self.entries[0][1].dim


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
            replace(sched, iterations=max(1, round(sched.iterations * sub.n / total))),
        )
        for cid, sub in groups
    ]


def train_csom(data: Dataset, rows: int, cols: int, sched: TrainingSchedule) -> CsomModel:
    """Train one map per class on that class's rows only (see class_maps)."""
    jobs = class_maps(data, rows, cols, sched)
    return CsomModel([(cid, train(som, sub, s)) for cid, som, sub, s in jobs])


def classify(model: CsomModel, x) -> tuple[int, np.ndarray]:
    """Winner-take-all decision: the class whose map quantizes x best.

    Returns the winning class id and the full vector of per-class BMU
    distances (ordered by ascending class id).  Ties break toward the lowest
    class id.  It is the one-row case of classify_dataset.
    """
    _require_classes(model)
    preds, errors = _winner_take_all(model, check_vector(x, model.dim, "model")[None, :])
    return int(preds[0]), errors[0]


def _require_classes(model: CsomModel) -> None:
    if model.n_classes < 2:
        raise DataError("classification needs a model with at least 2 class maps")


def classify_dataset(model: CsomModel, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Batch classify: (predicted labels, per-class error matrix)."""
    _require_classes(model)
    if data.dim != model.dim:
        raise ShapeError(f"input dimension {data.dim} != model dimension {model.dim}")
    return _winner_take_all(model, data.X)


def _winner_take_all(model: CsomModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """classify_dataset of checked rows ``X``."""
    errors = check_finite(nearest_units(model.maps, X)[1])
    return model.class_ids[np.argmin(errors, axis=1)], errors


def transform_replace(model: CsomModel, data: Dataset) -> Dataset:
    """Replace every row with its winner prototype (labels and order kept)."""
    return compose(data, winning_prototypes(model.maps, data, model.class_ids), "replace")


def transform_append(model: CsomModel, data: Dataset) -> Dataset:
    """Concatenate each row with its winner prototype, doubling the dimension."""
    return compose(data, winning_prototypes(model.maps, data, model.class_ids), "append")
