"""Shared synthetic-data builders and reference loops for the test suite."""

from __future__ import annotations

import csv
import io
import re

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from csomtex import Dataset, FormatError, Image, TruncationError, fnv1a64
from csomtex.data import UNLABELED, class_id
from csomtex.imaging import MAX_MAXVAL

# derandomized, so a run draws the same examples every time
FUZZ = settings(max_examples=300, derandomize=True, deadline=None)


def _edit(base, edits):
    """``base`` with each (kind, position, chunk) edit applied in turn:
    r replaces, i inserts, d deletes len(chunk) items at the position."""
    for kind, pos, chunk in edits:
        pos %= len(base) + 1
        if kind == "r":
            base = base[:pos] + chunk + base[pos + len(chunk):]
        elif kind == "i":
            base = base[:pos] + chunk + base[pos:]
        else:
            base = base[:pos] + base[pos + len(chunk):]
    return base


def mutations(base, chunks):
    """``base`` (bytes or str) with one to four edits whose chunks ``chunks`` draws."""
    edit = st.tuples(st.sampled_from("rid"), st.integers(0, 10**6), chunks)
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _edit(base, edits))


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


def fnv_oracle(data) -> int:
    """Reference FNV-1a 64: the byte loop of draft-eastlake-fnv.  The numpy
    ``fnv1a64`` must match it bit for bit."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def reseal(text: str) -> str:
    """Recompute the trailing checksum after editing the body, hashing a
    non-ascii character as parse_model does, as one "?"."""
    body = text[: text.index("[checksum]\n")] if "[checksum]\n" in text else text
    digest = fnv1a64(body.encode("ascii", errors="replace"))
    return body + "[checksum]\n" + f"fnv1a64 {digest:016x}\n"


def format_value(v: float) -> str:
    """Reference float writer: one value at 17 significant digits, as every
    text output wrote it before ``format_rows``, which must match it."""
    return format(float(v), ".17g")


def bits(a: np.ndarray) -> np.ndarray:
    """The raw float64 bits, so equality is bitwise (-0.0 != 0.0)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


_WHITESPACE = b" \t\r\n\v\f"
_COMMENT = ord("#")  # a comment runs to the end of its line
_TOKEN_END = _WHITESPACE + b"#"


class _Cursor:
    """Byte-level token reader for PGM headers."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _skip_filler(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            b = data[self.pos]
            if b == _COMMENT:
                nl = data.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif b in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self) -> bytes:
        self._skip_filler()
        if self.pos >= len(self.data):
            raise TruncationError("PGM data ends inside the header")
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos] not in _TOKEN_END:
            self.pos += 1
        return data[start : self.pos]

    def next_int(self, what: str, part: str = "header") -> int:
        tok = self.next_token()
        if not tok.isdigit():  # ASCII digits only: no sign, "_" or other digits
            raise FormatError(f"invalid {what} token {tok!r} in PGM {part}")
        return int(tok.lstrip(b"0") or b"0")  # leading zeros count for nothing


def pgm_oracle(data: bytes) -> Image:
    """Reference PGM reader, as ``load_pgm`` ran before it scanned with one
    regular expression: a byte-at-a-time cursor and one ``next_int`` per P2
    sample.  ``load_pgm`` must agree with it on every input, apart from
    integers too large for int64, which this reader lets escape as
    OverflowError or as Python's digit-limit ValueError.
    """
    cur = _Cursor(data)
    if len(data) < 2:
        raise FormatError("not a PGM: data too short for a magic number")
    magic = cur.next_token()
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM: bad magic {magic!r} (expected P2 or P5)")
    width = cur.next_int("width")
    height = cur.next_int("height")
    maxval = cur.next_int("maxval")
    if width < 1 or height < 1:
        raise FormatError(f"invalid PGM dimensions {width}x{height}")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise FormatError(f"PGM maxval {maxval} outside [1, {MAX_MAXVAL}]")

    count = width * height
    if magic == b"P2":
        values = []
        while len(values) < count:
            try:
                values.append(cur.next_int("pixel", "body"))
            except TruncationError:
                raise TruncationError(
                    f"P2 body has {len(values)} of {count} pixel values"
                ) from None
        cur._skip_filler()
        if cur.pos != len(data):
            raise FormatError("trailing data after P2 pixel values")
        pixels = np.array(values, dtype=np.int64).reshape(height, width)
    else:
        # Exactly one whitespace byte separates the maxval token from the raster.
        if cur.pos >= len(data) or data[cur.pos] not in _WHITESPACE:
            raise FormatError("P5 maxval must be followed by one whitespace byte")
        body = data[cur.pos + 1 :]
        nbytes = count * (1 if maxval < 256 else 2)
        if len(body) < nbytes:
            raise TruncationError(f"P5 body has {len(body)} of {nbytes} bytes")
        if len(body) > nbytes:
            raise FormatError("trailing data after P5 pixel bytes")
        if maxval < 256:
            pixels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
        else:
            pixels = np.frombuffer(body, dtype=">u2").astype(np.int64)
        pixels = pixels.reshape(height, width)

    if pixels.max() > maxval:
        raise FormatError("PGM contains pixel values above the declared maxval")
    return Image(pixels, maxval)


def csv_oracle(text: str) -> Dataset:
    """Reference features-CSV reader, as ``dataset_from_csv`` ran before it
    read all features in one conversion: a row at a time, its field count,
    then each feature through ``float()``, then its label.  On every CSV
    whose feature cells are printable ASCII with no space or ``_``,
    ``dataset_from_csv`` must read the same bits or raise the same message.
    """
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
    for i, row in enumerate(rows[1:]):
        if len(row) != dim + 1:
            raise FormatError(f"dataset CSV row {i + 1} has {len(row)} fields, expected {dim + 1}")
        try:
            X[i] = [float(v) for v in row[:dim]]
        except ValueError:
            raise FormatError(f"non-numeric feature in dataset CSV row {i + 1}") from None
        if row[dim] != "":
            labels[i] = class_id(
                row[dim],
                "non-integer label in dataset CSV row {row}",
                "negative label in dataset CSV row {row}; class ids must be >= 0",
                "label too large in dataset CSV row {row}; class ids must be < 2**63",
                row=i + 1,
            )
    try:
        return Dataset(X, labels)
    except ValueError as exc:
        raise FormatError(f"invalid dataset CSV: {exc}") from exc
