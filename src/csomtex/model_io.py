"""Checksummed text persistence for trained models.

The file is line oriented: ``#`` starts a comment, ``[...]`` lines open
sections, and numeric payloads are one matrix row per line with ``.17g``
floats (so every value round-trips exactly and save(load(f)) reproduces f
byte for byte).  The final two lines are::

    [checksum]
    fnv1a64 <16 hex digits>

where the digest is FNV-1a 64 over every byte that precedes the
``[checksum]`` line.  A digest mismatch raises IntegrityError; structural
problems raise FormatError.
"""

from __future__ import annotations

import numpy as np

from .csom import CsomModel
from .data import INT_LIMIT, format_value, plain_int, read_text, write_atomic
from .errors import FormatError, IntegrityError
from .evaluation import MODES, FittedPipeline
from .fisher import FisherProjection
from .som import SomMap

FORMAT_VERSION = 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

POOLED = "pooled"


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def _matrix_lines(name: str, m: np.ndarray) -> list[str]:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    lines = [f"[matrix {name} {m.shape[0]} {m.shape[1]}]"]
    lines.extend(" ".join(format_value(v) for v in row) for row in m)
    return lines


def serialize_model(model: FittedPipeline) -> str:
    if model.som is not None:
        entries = [(POOLED, model.som)]
    elif model.csom is not None:
        entries = [(str(cid), som) for cid, som in model.csom.entries]
    else:
        raise ValueError("a model file needs per-class maps or a pooled map")
    lines = ["# texture map model"]
    lines.append("[model]")
    lines.append(f"version {FORMAT_VERSION}")
    lines.append(f"mode {model.mode}")
    lines.append(f"single_som {int(model.single_som)}")
    if model.echo:
        lines.append("[pipeline]")
        lines.extend(f"{k} {v}" for k, v in model.echo)
    lines.extend(_matrix_lines("mean", model.fisher.mean))
    lines.extend(_matrix_lines("pca", model.fisher.pca_basis))
    lines.extend(_matrix_lines("lda", model.fisher.lda_basis))
    for tag, som in entries:
        lines.append(f"[som {tag} {som.rows} {som.cols}]")
        lines.extend(" ".join(format_value(v) for v in row) for row in som.weights)
    body = "\n".join(lines) + "\n"
    digest = fnv1a64(body.encode("ascii"))
    return body + "[checksum]\n" + f"fnv1a64 {digest:016x}\n"


class _Lines:
    """Sequential reader that skips comments and blank lines."""

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.lines):
            stripped = self.lines[self.pos].strip()
            if stripped and not stripped.startswith("#"):
                return stripped
            self.pos += 1
        return None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise FormatError("unexpected end of model file")
        self.pos += 1
        return line


def _parse_floats(line: str, want: int, context: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != want:
        raise FormatError(f"{context}: expected {want} values, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}") from exc


def _section(header: str, kind: str, name: str = "...") -> tuple[str, int, int]:
    """The (name, rows, cols) of a ``[kind name rows cols]`` header; ``name``
    is only for the message.  The sizes are plain digits, closed by one ``]``."""
    parts = header.split()
    if len(parts) != 4 or parts[0] != f"[{kind}" or not header.endswith("]"):
        raise FormatError(f"expected [{kind} {name}] section, got {header!r}")
    rows, cols = plain_int(parts[2]), plain_int(parts[3][:-1])
    if rows is None or cols is None or max(rows, cols) >= INT_LIMIT:
        raise FormatError(f"bad {kind} header {header!r}")
    return parts[1], rows, cols


def _read_matrix(reader: _Lines, name: str) -> np.ndarray:
    header = reader.take()
    tag, rows, cols = _section(header, "matrix", f"{name} ...")
    if tag != name:
        raise FormatError(f"expected [matrix {name} ...] section, got {header!r}")
    if rows < 1 or cols < 1:
        raise FormatError(f"matrix {name} must have positive shape, got {rows}x{cols}")
    # one row a line, each parsed before it is stored: a declared size the
    # file does not hold fails on its lines, not on an allocation
    return np.array(
        [_parse_floats(reader.take(), cols, f"matrix {name} row {r}") for r in range(rows)]
    )


def _read_keyword(reader: _Lines, key: str) -> str:
    line = reader.take()
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"expected '{key} <value>', got {line!r}")
    return parts[1]


def parse_model(text: str) -> FittedPipeline:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3 or lines[-2] != "[checksum]":
        raise FormatError("model file must end with a [checksum] section")
    stated = lines[-1].split()
    if len(stated) != 2 or stated[0] != "fnv1a64":
        raise FormatError(f"bad checksum line {lines[-1]!r}")
    try:
        stated_digest = int(stated[1], 16)
    except ValueError as exc:
        raise FormatError(f"bad checksum digest {stated[1]!r}") from exc
    if len(stated[1]) != 16:
        raise FormatError("checksum digest must be 16 hex digits")
    body = "\n".join(lines[:-2]) + "\n"
    actual = fnv1a64(body.encode("ascii", errors="replace"))
    if actual != stated_digest:
        raise IntegrityError(
            f"checksum mismatch: file says {stated_digest:016x}, content hashes to {actual:016x}"
        )

    reader = _Lines(lines[:-2])
    if reader.take() != "[model]":
        raise FormatError("model file must start with a [model] section")
    stated_version = _read_keyword(reader, "version")
    version = plain_int(stated_version)
    if version is None or version >= INT_LIMIT:
        raise FormatError(f"bad version value {stated_version!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported model version {version}")
    mode = _read_keyword(reader, "mode")
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r}")
    single = _read_keyword(reader, "single_som")
    if single not in ("0", "1"):
        raise FormatError(f"single_som must be 0 or 1, got {single!r}")

    echo = []
    if reader.peek() == "[pipeline]":
        reader.take()
        while True:
            line = reader.peek()
            if line is None or line.startswith("["):
                break
            key, _, value = reader.take().partition(" ")
            if not key or not value:
                raise FormatError(f"pipeline echo needs 'key value' lines, got {line!r}")
            echo.append((key, value))

    mean = _read_matrix(reader, "mean")
    if mean.shape[0] != 1:
        raise FormatError("mean must be a single row")
    pca = _read_matrix(reader, "pca")
    lda = _read_matrix(reader, "lda")

    entries = []
    while reader.peek() is not None:
        tag, rows, cols = _section(reader.take(), "som")
        if rows < 1 or cols < 1:
            raise FormatError(f"som grid must be positive, got {rows}x{cols}")
        dim = lda.shape[1]
        weights = [
            _parse_floats(reader.take(), dim, f"som {tag} unit {u}") for u in range(rows * cols)
        ]
        entries.append((tag, SomMap(rows, cols, np.array(weights))))
    if not entries:
        raise FormatError("model file has no map sections")

    try:
        fisher = FisherProjection(mean[0], pca, lda)
        if single == "1":
            if len(entries) != 1 or entries[0][0] != POOLED:
                raise FormatError("single_som file must contain exactly one pooled map")
            return FittedPipeline(fisher, som=entries[0][1], mode=mode, echo=tuple(echo))
        class_entries = []
        for tag, som in entries:
            if tag == POOLED:
                raise FormatError("per-class file cannot contain a pooled map")
            class_id = plain_int(tag)
            if class_id is None or class_id >= INT_LIMIT:
                raise FormatError(f"bad class id {tag!r}")
            class_entries.append((class_id, som))
        return FittedPipeline(
            fisher, csom=CsomModel(class_entries), mode=mode, echo=tuple(echo)
        )
    except ValueError as exc:
        raise FormatError(f"inconsistent model contents: {exc}") from exc


def save_model(path, model: FittedPipeline) -> None:
    write_atomic(path, serialize_model(model))


def load_model(path) -> FittedPipeline:
    return parse_model(read_text(path, "ascii", newline=""))
