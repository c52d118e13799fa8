"""Checksummed text persistence for trained models.

The file is line oriented: ``#`` starts a comment, ``[...]`` lines open
sections, and numeric payloads are one matrix row per line with ``.17g``
floats (so every value round-trips exactly and save(load(f)) reproduces f
byte for byte).  The final two lines are::

    [checksum]
    fnv1a64 <16 lower-case hex digits>

where the digest is FNV-1a 64 over every byte that precedes the
``[checksum]`` line.  A digest mismatch raises IntegrityError; structural
problems raise FormatError.
"""

from __future__ import annotations

import functools
import re
from collections import deque

import numpy as np

from .csom import CsomModel
from .data import float_fields, int_field, read_text, write_atomic
from .errors import FormatError, IntegrityError
from .evaluation import MODES, FittedPipeline
from .fisher import FisherProjection
from .som import SomMap

FORMAT_VERSION = 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# bytes hashed per numpy pass, so the work arrays stay about 20 bytes per
# block byte (a few hundred KB) whatever the input's size
FNV_BLOCK = 1 << 14

POOLED = "pooled"


@functools.cache
def _prime_powers() -> np.ndarray:
    """P**FNV_BLOCK, ..., P**2, P mod 2**64, so a block of n bytes reads the last n."""
    powers = np.multiply.accumulate(np.full(FNV_BLOCK, FNV_PRIME, dtype=np.uint64))[::-1].copy()
    powers.flags.writeable = False
    return powers


def _prefix_xor(plane: np.ndarray) -> np.ndarray:
    """Running XOR of a uint8 array of whole 8-byte words, in place: within
    each word by three shift-XORs, then each word's carry from those before."""
    words = plane.view("<u8")
    words ^= words << 8
    words ^= words << 16
    words ^= words << 32
    carry = np.bitwise_xor.accumulate(words >> 56)
    words[1:] ^= carry[:-1] * 0x0101010101010101
    return plane


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64 (draft-eastlake-fnv) of a bytes-like object, exactly as the
    byte loop ``h = ((h ^ b) * FNV_PRIME) mod 2**64``, in numpy blocks.

    The low byte runs its own chain l_i = ((l_{i-1} ^ b_i) * 0xB3) mod 256.
    As 0xB3 is odd, bit k of l_i is bit k of l_{i-1} XOR a bit that reads
    only lower bits, so the chain is 8 prefix XORs, one per bit plane.  Then
    h ^ b_i = h + d_i with d_i = (l_{i-1} ^ b_i) - l_{i-1}, and a block of n
    bytes takes h to h*P**n + sum(d_i * P**(n-i+1)): one uint64 dot product.
    """
    data = np.frombuffer(data, dtype=np.uint8)
    powers = _prime_powers()
    h = FNV_OFFSET
    for start in range(0, data.size, FNV_BLOCK):
        block = data[start : start + FNV_BLOCK]
        n = block.size
        if n % 8:  # whole words for the prefix XOR; the zeros after byte n are never read
            block = np.concatenate((block, np.zeros(-n % 8, dtype=np.uint8)))
        low = np.zeros(block.size + 1, dtype=np.uint8)  # l_0 .. l_n, one bit plane at a time
        low[0] = h & 0xFF
        prev = low[:-1]
        for k in range(8):
            # bit k of low is still 0 past l_0, so bit k of u is b_i's, and l_0's seeds plane k
            u = prev ^ block
            low[1:] |= _prefix_xor((((u & ((1 << k) - 1)) * (FNV_PRIME & 0xFF)) ^ u) & (1 << k))
        # |d_i| < 256; the cast to uint64 wraps a negative d_i mod 2**64
        d = ((prev[:n] ^ block[:n]).astype(np.int16) - prev[:n]).astype(np.uint64)
        h = (h * int(powers[-n]) + int(np.dot(d, powers[-n:]))) & _MASK64
    return h


def _row_lines(m: np.ndarray) -> list[str]:
    """Each row of the float64 matrix ``m`` as one line of space-separated
    values, each as ``format_value`` writes it, by one ``%`` per row."""
    template = " ".join(["%.17g"] * m.shape[1])
    return [template % row for row in map(tuple, m.tolist())]


def _matrix_lines(name: str, m: np.ndarray) -> list[str]:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return [f"[matrix {name} {m.shape[0]} {m.shape[1]}]"] + _row_lines(m)


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
        lines.extend(_row_lines(som.weights))
    body = "\n".join(lines) + "\n"
    digest = fnv1a64(body.encode("ascii"))
    return body + "[checksum]\n" + f"fnv1a64 {digest:016x}\n"


def _take(lines: deque) -> str:
    if not lines:
        raise FormatError("unexpected end of model file")
    return lines.popleft()


def _read_section(lines: deque, kind: str, name: str | None = None, dim: int | None = None):
    """The next ``[kind name rows cols]`` section, its sizes plain digits
    closed by one ``]``, and its lines of floats: ``(name, rows, cols,
    values)``.  A matrix (no ``dim``) must be named ``name`` and holds rows
    lines of cols values; a som map holds a line of ``dim`` values per unit."""
    header = _take(lines)
    parts = header.split()
    shown = "..." if name is None else f"{name} ..."
    wanted = f"expected [{kind} {shown}] section, got {header!r}"
    if len(parts) != 4 or parts[0] != f"[{kind}" or not header.endswith("]"):
        raise FormatError(wanted)
    bad = "bad {kind} header {header!r}"
    rows, cols = (int_field(n, bad, kind=kind, header=header) for n in (parts[2], parts[3][:-1]))
    if name not in (None, parts[1]):
        raise FormatError(wanted)
    name = parts[1]
    if rows < 1 or cols < 1:
        if dim is None:
            raise FormatError(f"matrix {name} must have positive shape, got {rows}x{cols}")
        raise FormatError(f"som grid must be positive, got {rows}x{cols}")
    # one line at a time, each parsed before it is stored: a declared size
    # the file does not hold fails on its lines, not on an allocation
    count, width, item = (rows, cols, "row") if dim is None else (rows * cols, dim, "unit")
    values = []
    for i in range(count):
        where = f"{kind} {name} {item} {i}"
        parts = _take(lines).split()
        if len(parts) != width:
            raise FormatError(f"{where}: expected {width} values, got {len(parts)}")
        row, bad = float_fields(parts)
        if bad is not None:
            raise FormatError(f"{where}: could not convert string to float: {parts[bad]!r}")
        values.append(row)
    return name, rows, cols, np.array(values)


def _read_keyword(lines: deque, key: str) -> str:
    line = _take(lines)
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
    if not re.fullmatch("[0-9a-f]+", stated[1]):
        raise FormatError(f"bad checksum digest {stated[1]!r}")
    if len(stated[1]) != 16:
        raise FormatError("checksum digest must be 16 hex digits")
    stated_digest = int(stated[1], 16)
    body = "\n".join(lines[:-2]) + "\n"
    actual = fnv1a64(body.encode("ascii", errors="replace"))
    if actual != stated_digest:
        raise IntegrityError(
            f"checksum mismatch: file says {stated_digest:016x}, content hashes to {actual:016x}"
        )

    lines = deque(line for line in map(str.strip, lines[:-2]) if line and line[0] != "#")
    if _take(lines) != "[model]":
        raise FormatError("model file must start with a [model] section")
    stated_version = _read_keyword(lines, "version")
    version = int_field(stated_version, "bad version value {text!r}", text=stated_version)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported model version {version}")
    mode = _read_keyword(lines, "mode")
    if mode not in MODES:
        raise FormatError(f"unknown mode {mode!r}")
    single = _read_keyword(lines, "single_som")
    if single not in ("0", "1"):
        raise FormatError(f"single_som must be 0 or 1, got {single!r}")

    echo = []
    if lines and lines[0] == "[pipeline]":
        lines.popleft()
        while lines and not lines[0].startswith("["):
            line = lines.popleft()
            key, _, value = line.partition(" ")
            if not key or not value:
                raise FormatError(f"pipeline echo needs 'key value' lines, got {line!r}")
            echo.append((key, value))

    mean = _read_section(lines, "matrix", "mean")[3]
    if mean.shape[0] != 1:
        raise FormatError("mean must be a single row")
    pca = _read_section(lines, "matrix", "pca")[3]
    lda = _read_section(lines, "matrix", "lda")[3]

    sections = []
    while lines:
        sections.append(_read_section(lines, "som", dim=lda.shape[1]))
    if not sections:
        raise FormatError("model file has no map sections")

    try:
        fisher = FisherProjection(mean[0], pca, lda)
        entries = [(tag, SomMap(rows, cols, weights)) for tag, rows, cols, weights in sections]
        if single == "1":
            if len(entries) != 1 or entries[0][0] != POOLED:
                raise FormatError("single_som file must contain exactly one pooled map")
            return FittedPipeline(fisher, som=entries[0][1], mode=mode, echo=tuple(echo))
        class_entries = []
        for tag, som in entries:
            if tag == POOLED:
                raise FormatError("per-class file cannot contain a pooled map")
            class_entries.append((int_field(tag, "bad class id {tag!r}", tag=tag), som))
        return FittedPipeline(
            fisher, csom=CsomModel(class_entries), mode=mode, echo=tuple(echo)
        )
    except ValueError as exc:
        raise FormatError(f"inconsistent model contents: {exc}") from exc


def save_model(path, model: FittedPipeline) -> None:
    write_atomic(path, serialize_model(model))


def load_model(path) -> FittedPipeline:
    return parse_model(read_text(path, "ascii", newline=""))
