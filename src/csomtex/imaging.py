"""Loading, preprocessing, and gray-level quantization of PGM rasters.

Reader and writer follow the Netpbm convention: whitespace-separated header
tokens with ``#`` comments allowed between them, then either ASCII sample
values (P2) or a binary body (P5, one byte per sample when maxval < 256,
two big-endian bytes otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyForegroundError, FormatError, TruncationError

MAX_MAXVAL = 65535

_WHITESPACE = b" \t\r\n\v\f"
_COMMENT = ord("#")  # a comment runs to the end of its line
_TOKEN_END = _WHITESPACE + b"#"


@dataclass(eq=False)
class Image:
    """Rectangular grid of integer gray levels plus the declared maximum value."""

    pixels: np.ndarray  # (height, width), row-major
    max_value: int = 255

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.int64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must form a non-empty 2-D grid")
        if not 1 <= int(self.max_value) <= MAX_MAXVAL:
            raise ValueError(f"max_value out of range: {self.max_value}")
        self.max_value = int(self.max_value)
        if self.pixels.min() < 0 or self.pixels.max() > self.max_value:
            raise ValueError("pixel values must lie in [0, max_value]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.max_value == other.max_value and np.array_equal(
            self.pixels, other.pixels
        )


@dataclass
class PreprocessConfig:
    """Stand-in preprocessing: optional foreground crop, optional rescale.

    ``crop`` keeps the bounding box of pixels strictly above ``threshold``;
    ``rescale`` stretches the result to [0, max_value] by an integer
    min-max mapping (a constant image maps to all zeros).
    """

    crop: bool = True
    threshold: int = 0
    rescale: bool = True

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")


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

    def next_int(self, what: str) -> int:
        tok = self.next_token()
        if not tok.isdigit():  # ASCII digits only: no sign, "_" or other digits
            raise FormatError(f"invalid {what} token {tok!r} in PGM header")
        return int(tok)


def load_pgm(data: bytes) -> Image:
    """Parse P2 (ASCII) or P5 (binary) PGM bytes into an Image.

    Raises FormatError for a bad magic or out-of-range header values and
    TruncationError when the pixel body is shorter than declared.
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
                values.append(cur.next_int("pixel"))
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


def save_pgm(img: Image, binary: bool = True) -> bytes:
    """Serialize an Image as P5 (binary) or P2 (ASCII) bytes."""
    header = f"P{'5' if binary else '2'}\n{img.width} {img.height}\n{img.max_value}\n"
    if binary:
        if img.max_value < 256:
            body = img.pixels.astype(np.uint8).tobytes()
        else:
            body = img.pixels.astype(">u2").tobytes()
        return header.encode("ascii") + body
    lines = [" ".join(str(v) for v in row) for row in img.pixels]
    return header.encode("ascii") + ("\n".join(lines) + "\n").encode("ascii")


def preprocess(img: Image, cfg: PreprocessConfig) -> Image:
    """Crop to the foreground bounding box, then min-max rescale.

    Cropping keeps rows and columns containing at least one pixel strictly
    above cfg.threshold; an all-background image raises EmptyForegroundError.
    Rescaling maps v to floor(max_value * (v - min) / (max - min)), with a
    constant image mapping to all zeros.
    """
    arr = img.pixels
    if cfg.crop:
        fg = arr > cfg.threshold
        if not fg.any():
            raise EmptyForegroundError(
                f"no pixel above threshold {cfg.threshold}; nothing to crop"
            )
        rows = np.flatnonzero(fg.any(axis=1))
        cols = np.flatnonzero(fg.any(axis=0))
        arr = arr[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    if cfg.rescale:
        lo = int(arr.min())
        hi = int(arr.max())
        if hi == lo:
            arr = np.zeros_like(arr)
        else:
            arr = (img.max_value * (arr - lo)) // (hi - lo)
    return Image(arr, img.max_value)


def quantize(img: Image, levels: int) -> Image:
    """Reduce to ``levels`` equal-width gray bins: v -> floor(v*L/(max+1)).

    Output values lie in [0, levels-1] and the result's max_value is
    levels-1, as expected by the co-occurrence computation.
    """
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    out = (img.pixels * levels) // (img.max_value + 1)
    return Image(out, levels - 1)
