"""Loading, preprocessing, and gray-level quantization of PGM rasters.

Reader and writer follow the Netpbm convention: whitespace-separated header
tokens with ``#`` comments allowed between them, then either ASCII sample
values (P2) or a binary body (P5, one byte per sample when maxval < 256,
two big-endian bytes otherwise).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .data import int_field, plain_int
from .errors import EmptyForegroundError, FormatError, TruncationError

MAX_MAXVAL = 65535

# One comment, which runs to the end of its line, or one token, which ends
# at ASCII whitespace or "#".  Neither branch nests a quantifier, so a scan
# takes linear time on any input.
_SCANNER = re.compile(rb"#[^\n]*|[^ \t\r\n\v\f#]+")
_COMMENTS = re.compile(rb"#[^\n]*")
# The bytes of a P2 body that needs no message: ASCII digits and whitespace.
_P2_CLEAN = b"0123456789 \t\r\n\v\f"


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


def load_pgm(data: bytes) -> Image:
    """Parse P2 (ASCII) or P5 (binary) PGM bytes into an Image.

    Raises FormatError for a bad magic or out-of-range header values and
    TruncationError when the pixel body is shorter than declared.  A clean
    P2 body, only ASCII digits and whitespace with exactly the declared
    samples, all within maxval, is one numpy conversion; any other body is
    read token by token, which names what is wrong with it.
    """
    if len(data) < 2:
        raise FormatError("not a PGM: data too short for a magic number")
    tokens = (m for m in _SCANNER.finditer(data) if not m[0].startswith(b"#"))
    header = list(islice(tokens, 4))
    if not header:
        raise TruncationError("PGM data ends inside the header")
    magic = header[0][0]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM: bad magic {magic!r} (expected P2 or P5)")
    values = [
        int_field(m[0], "invalid {what} token {token!r} in PGM header",
                  "PGM {what} value too large", what=what, token=m[0])
        for m, what in zip(header[1:], ("width", "height", "maxval"))
    ]
    if len(values) < 3:
        raise TruncationError("PGM data ends inside the header")
    width, height, maxval = values
    if width < 1 or height < 1:
        raise FormatError(f"invalid PGM dimensions {width}x{height}")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise FormatError(f"PGM maxval {maxval} outside [1, {MAX_MAXVAL}]")

    count = width * height
    end = header[3].end()
    if magic == b"P2":
        body = _COMMENTS.sub(b" ", data[end:])
        if not body.translate(None, _P2_CLEAN) and not body.isspace():
            pixels = np.fromstring(body, dtype=np.int64, sep=" ")
            # fromstring clamps a value of 2**63 or more to int64 max, so a
            # result of the wrong size or above maxval is read again by tokens
            if pixels.size == count and pixels.max() <= maxval:
                return Image(pixels.reshape(height, width), maxval)
        samples = body.split()
        if samples and not b"".join(samples[:count]).isdigit():
            bad = next(tok for tok in samples if not tok.isdigit())
            raise FormatError(f"invalid pixel token {bad!r} in PGM body")
        if len(samples) < count:
            raise TruncationError(f"P2 body has {len(samples)} of {count} pixel values")
        if len(samples) > count:
            raise FormatError("trailing data after P2 pixel values")
        try:
            pixels = np.array(samples, dtype=np.int64)
        except (OverflowError, ValueError):  # ValueError: past Python's digit limit
            try:  # plain_int drops any number of leading zeros, as the header reads them
                pixels = np.array([plain_int(s) for s in samples], dtype=np.int64)
            except OverflowError:
                raise FormatError("PGM pixel value too large") from None
    else:
        # Exactly one whitespace byte separates the maxval token from the raster.
        if not data[end : end + 1].isspace():
            raise FormatError("P5 maxval must be followed by one whitespace byte")
        body = data[end + 1 :]
        nbytes = count * (1 if maxval < 256 else 2)
        if len(body) < nbytes:
            raise TruncationError(f"P5 body has {len(body)} of {nbytes} bytes")
        if len(body) > nbytes:
            raise FormatError("trailing data after P5 pixel bytes")
        pixels = np.frombuffer(body, dtype=np.uint8 if maxval < 256 else ">u2")
    pixels = pixels.astype(np.int64, copy=False).reshape(height, width)

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
