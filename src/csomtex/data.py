"""Feature datasets, their CSV serialization, and the package's file I/O.

A dataset is a dense (n, dim) float matrix plus optional integer class
labels.  The CSV layout is ``f0,...,f{dim-1},label`` with values written at
17 significant digits so doubles round-trip exactly; an empty label field
marks an unlabeled row.
"""

from __future__ import annotations

import csv
import io
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError

UNLABELED = -1


@dataclass(eq=False)
class Dataset:
    X: np.ndarray  # (n, dim) float64
    labels: np.ndarray | None = None  # (n,) int64, UNLABELED marks a missing label

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[1] < 1:
            raise ValueError("X must be a (n, dim) matrix with dim >= 1")
        if not np.isfinite(self.X).all():
            raise ValueError("feature values must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.X.shape[0],):
                raise ValueError("labels must be one integer per row")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def class_ids(self) -> np.ndarray:
        """Distinct labels present, ascending (unlabeled rows excluded)."""
        if self.labels is None:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.labels[self.labels != UNLABELED])

    def is_fully_labeled(self) -> bool:
        return self.labels is not None and bool((self.labels != UNLABELED).all())

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        labels = None if self.labels is None else self.labels[idx]
        return Dataset(self.X[idx], labels)

    def without_labels(self) -> "Dataset":
        return Dataset(self.X)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if not np.array_equal(self.X, other.X):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


def require_labels(data: Dataset) -> np.ndarray:
    """Return the label vector, rejecting datasets with any unlabeled row."""
    if data.labels is None or (data.labels == UNLABELED).any():
        raise DataError("operation requires a fully labeled dataset")
    return data.labels


def format_value(v: float) -> str:
    return format(float(v), ".17g")


def dataset_to_csv(data: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"f{i}" for i in range(data.dim)] + ["label"])
    for i in range(data.n):
        row = [format_value(v) for v in data.X[i]]
        if data.labels is not None and data.labels[i] != UNLABELED:
            row.append(str(int(data.labels[i])))
        else:
            row.append("")
        writer.writerow(row)
    return buf.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    bare_cr = re.search(r"\r(?!\n)", text)
    if bare_cr:
        line = text.count("\n", 0, bare_cr.start()) + 1
        raise FormatError(f"dataset CSV line {line} has a bare carriage return")
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [r for r in reader if r]
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise FormatError(f"dataset CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError("dataset CSV is empty")
    header = rows[0]
    if len(header) < 2 or header[-1] != "label":
        raise FormatError("dataset CSV header must be f0,...,label")
    dim = len(header) - 1
    if header[:dim] != [f"f{i}" for i in range(dim)]:
        raise FormatError("dataset CSV feature columns must be named f0..f{dim-1}")
    X = np.empty((len(rows) - 1, dim), dtype=np.float64)
    labels = np.full(len(rows) - 1, UNLABELED, dtype=np.int64)
    any_label = False
    for i, row in enumerate(rows[1:]):
        if len(row) != dim + 1:
            raise FormatError(f"dataset CSV row {i + 1} has {len(row)} fields, expected {dim + 1}")
        try:
            X[i] = [float(v) for v in row[:dim]]
        except ValueError:
            raise FormatError(f"non-numeric feature in dataset CSV row {i + 1}") from None
        if row[dim] != "":
            try:
                labels[i] = int(row[dim])
            except ValueError:
                raise FormatError(f"non-integer label in dataset CSV row {i + 1}") from None
            any_label = True
    try:
        return Dataset(X, labels if any_label else None)
    except ValueError as exc:
        raise FormatError(f"invalid dataset CSV: {exc}") from exc


def read_text(path, encoding: str, newline: str | None = None) -> str:
    """A whole text file.  Bytes the encoding cannot decode raise FormatError:
    they are bad data, not the usage error their UnicodeDecodeError (a
    ValueError) would stand for."""
    try:
        with open(path, "r", encoding=encoding, newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not {encoding} text: {exc}") from None


def write_atomic(path, text: str) -> None:
    """Write ascii text whole or not at all: into a temporary file beside the
    target, then renamed over it.  A replaced file keeps its permission bits;
    a new one gets those a plain open() gives.  Nothing is fsynced.  Symlinks
    and special files (``/dev/null``, ``/dev/stdout``) are written through
    with a plain open(), as a rename would replace them."""
    path = os.fspath(path)
    data = text.encode("ascii")
    try:
        old = os.lstat(path)
    except OSError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None  # name the target
        raise


def write_dataset(path, data: Dataset) -> None:
    write_atomic(path, dataset_to_csv(data))


def read_dataset(path) -> Dataset:
    return dataset_from_csv(read_text(path, "ascii", newline=""))
