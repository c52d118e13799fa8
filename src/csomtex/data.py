"""Feature datasets, their CSV serialization, and the package's file I/O.

A dataset is a dense (n, dim) float matrix plus one integer class label
per row, ``UNLABELED`` where a row has none.  The CSV layout is
``f0,...,f{dim-1},label`` with values written at 17 significant digits so
doubles round-trip exactly; an empty label field marks an unlabeled row.
"""

from __future__ import annotations

import csv
import io
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, ShapeError

UNLABELED = -1
# Integer fields of input files (class ids, counts) are stored as int64.
INT_LIMIT = 2**63


@dataclass(eq=False)
class Dataset:
    X: np.ndarray  # (n, dim) float64
    # (n,) int64, UNLABELED marks a missing label; None is made all UNLABELED
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[1] < 1:
            raise ValueError("X must be a (n, dim) matrix with dim >= 1")
        if not np.isfinite(self.X).all():
            raise ValueError("feature values must be finite")
        if self.labels is None:
            self.labels = np.full(self.X.shape[0], UNLABELED, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.X.shape[0],):
            raise ValueError("labels must be one integer per row")
        if (self.labels < UNLABELED).any():
            raise ValueError(f"labels must be >= 0, or UNLABELED ({UNLABELED}) for none")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def class_ids(self) -> np.ndarray:
        """Distinct labels present, ascending (unlabeled rows excluded)."""
        return np.unique(self.labels[self.labels != UNLABELED])

    def is_fully_labeled(self) -> bool:
        """Some row, and every row, has a label."""
        return self.n > 0 and bool((self.labels != UNLABELED).all())

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.labels[idx])

    def without_labels(self) -> "Dataset":
        return Dataset(self.X)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.X, other.X) and np.array_equal(self.labels, other.labels)


def check_vector(x, dim: int, owner: str = "map") -> np.ndarray:
    """``x`` as a float64 vector of ``dim`` finite components."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ShapeError(f"input dimension {x.shape} != {owner} dimension ({dim},)")
    if not np.isfinite(x).all():
        raise ValueError("feature values must be finite")
    return x


def plain_int(text: str | bytes) -> int | None:
    """``text`` as an integer if it is plain ASCII digits (no sign, space,
    underscore or other numeral), else None.  A value of ``INT_LIMIT`` or
    more, which no int64 field holds, comes back as ``INT_LIMIT``, however
    many digits it has, and leading zeros count for nothing."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = (text.decode("ascii") if isinstance(text, bytes) else text).lstrip("0")
    if len(digits) > 19:  # 19 digits hold every value below 2**63
        return INT_LIMIT
    return min(int(digits or "0"), INT_LIMIT)


def int_field(text: str | bytes, bad: str, too_large: str | None = None, error=FormatError, /,
              **where) -> int:
    """``text`` as an int64 field of an input: plain ASCII digits (see
    ``plain_int``) of a value below 2**63.  Otherwise ``error`` of the
    message template ``bad``, or for a value of 2**63 or more of
    ``too_large`` if given, formatted with ``where``."""
    value = plain_int(text)
    if value is None:
        raise error(bad.format(**where))
    if value >= INT_LIMIT:
        raise error((too_large or bad).format(**where))
    return value


def float_fields(cells: list[str]) -> tuple[np.ndarray | None, int | None]:
    """``cells`` as float64 fields and None, or None and the position of the
    first cell that is not a field: a token that ``float()`` reads and that
    is printable ASCII with no space or ``_`` (so ``nan``, ``inf`` and
    ``1e400`` are read, for a finite check to reject, and ``1_0``, `` 2``,
    a tab and ``٠`` are not).  Valid cells make one numpy conversion."""
    text = "".join(cells)
    if text.isascii() and text.isprintable() and " " not in text and "_" not in text:
        try:
            return np.array(cells, dtype=np.float64), None
        except ValueError:
            pass
    if len(cells) > 1:  # the first cell that fails alone
        return None, next(i for i, cell in enumerate(cells) if float_fields([cell])[0] is None)
    return None, 0


def class_id(text: str, bad: str, negative: str, too_large: str, /, **where) -> int:
    """``text`` as a class id: an int64 field (see ``int_field``) that may
    start with ``-`` before a value of zero only.  So ``-0`` is class 0, and
    ``-5`` is a FormatError of ``negative``."""
    minus = text.startswith("-")
    value = plain_int(text[minus:])
    if value is None:
        message = bad
    elif minus and value:
        message = negative
    elif value >= INT_LIMIT:
        message = too_large
    else:
        return value
    raise FormatError(message.format(**where))


def require_labels(data: Dataset) -> np.ndarray:
    """Return the label vector, rejecting datasets with any unlabeled row
    (or none at all)."""
    if not data.is_fully_labeled():
        raise DataError("operation requires a fully labeled dataset")
    return data.labels


def format_rows(m: np.ndarray, sep: str) -> list[str]:
    """Each row of the float64 matrix ``m`` as one line of its values joined
    by ``sep``, each at 17 significant digits, so it reads back exactly, by
    one ``"%.17g"`` template ``%`` per row.  The one float writer of every
    text output."""
    template = sep.join(["%.17g"] * m.shape[1])
    return [template % row for row in map(tuple, m.tolist())]


def dataset_to_csv(data: Dataset) -> str:
    """The CSV text of ``data``.  No field needs quoting: a 17-digit double
    holds no comma, quote or newline."""
    labels = ["" if label == UNLABELED else str(label) for label in data.labels.tolist()]
    lines = [",".join([f"f{i}" for i in range(data.dim)] + ["label"])]
    lines += [f"{row},{label}" for row, label in zip(format_rows(data.X, ","), labels)]
    return "\n".join(lines) + "\n"


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
    header, *body = rows
    if len(header) < 2 or header[-1] != "label":
        raise FormatError("dataset CSV header must be f0,...,label")
    dim = len(header) - 1
    if header[:dim] != [f"f{i}" for i in range(dim)]:
        raise FormatError("dataset CSV feature columns must be named f0..f{dim-1}")
    # the features in one call, then each row checked in turn: field count, features, label
    whole = next((i for i, row in enumerate(body) if len(row) != dim + 1), len(body))
    X, bad = float_fields([cell for row in body[:whole] for cell in row[:dim]])
    labels = np.full(len(body), UNLABELED, dtype=np.int64)
    for i, row in enumerate(body):
        if len(row) != dim + 1:
            raise FormatError(f"dataset CSV row {i + 1} has {len(row)} fields, expected {dim + 1}")
        if bad is not None and i == bad // dim:
            raise FormatError(f"non-numeric feature in dataset CSV row {i + 1}")
        if row[dim] != "":
            labels[i] = class_id(
                row[dim],
                "non-integer label in dataset CSV row {row}",
                "negative label in dataset CSV row {row}; class ids must be >= 0",
                "label too large in dataset CSV row {row}; class ids must be < 2**63",
                row=i + 1,
            )
    try:
        return Dataset(X.reshape(whole, dim), labels)
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


def read_dataset(path) -> Dataset:
    return dataset_from_csv(read_text(path, "ascii", newline=""))
