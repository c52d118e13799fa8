"""Region-of-interest selection: pixelwise intensity segments and fixed blocks.

A selection is one int label image; boolean masks are a per-region view of
it for the single-region API and the RLE text form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import int_field
from .errors import FormatError, ShapeError
from .imaging import Image

KMEANS_MAX_ITER = 100

PIXELWISE = "pixelwise"
BLOCKWISE = "blockwise"


@dataclass(eq=False)
class RegionMask:
    """Boolean membership grid with the same dimensions as the source image."""

    member: np.ndarray  # (height, width) bool

    def __post_init__(self) -> None:
        self.member = np.asarray(self.member, dtype=bool)
        if self.member.ndim != 2 or self.member.size == 0:
            raise ValueError("mask must be a non-empty 2-D grid")
        if not self.member.any():
            raise ValueError("empty masks are never emitted")

    @property
    def height(self) -> int:
        return self.member.shape[0]

    @property
    def width(self) -> int:
        return self.member.shape[1]

    @property
    def size(self) -> int:
        return int(self.member.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionMask):
            return NotImplemented
        return np.array_equal(self.member, other.member)


@dataclass
class RoiConfig:
    """Selection mode plus its knobs: segment count (pixelwise) or block side."""

    mode: str = PIXELWISE
    sn: int = 6
    block_size: int = 8
    min_region_pixels: int = 4

    def __post_init__(self) -> None:
        if self.mode not in (PIXELWISE, BLOCKWISE):
            raise ValueError(f"unknown roi mode {self.mode!r}")
        if self.sn < 1:
            raise ValueError("sn must be >= 1")
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")
        if self.min_region_pixels < 1:
            raise ValueError("min_region_pixels must be >= 1")


def pixelwise_labels(img: Image, sn: int, min_region_pixels: int = 1) -> np.ndarray:
    """Cluster pixel intensities into at most ``sn`` segments, as a label image.

    Runs 1-D k-means with centroids initialized at evenly spaced quantiles of
    the distinct intensity values, iterated to an assignment fixpoint (or 100
    iterations).  Regions are numbered by ascending cluster centroid;
    segments smaller than ``min_region_pixels`` (and empty ones) are dropped,
    their pixels labeled -1.  Fewer than ``sn`` distinct intensities yield
    correspondingly fewer regions.  The quantile start makes the result
    deterministic without a seed.
    """
    if sn < 1:
        raise ValueError("sn must be >= 1")
    values = img.pixels.ravel().astype(np.float64)
    distinct = np.unique(values)
    k = min(sn, distinct.size)
    centroids = np.quantile(distinct, (np.arange(k) + 0.5) / k)

    # Initial centroids are strictly increasing and 1-D k-means keeps them
    # that way, so nearest-centroid assignment (equidistant pixels going to
    # the lower cluster index) reduces to a sorted boundary search.
    assign = np.full(values.shape, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        bounds = (centroids[:-1] + centroids[1:]) / 2.0
        new_assign = np.searchsorted(bounds, values, side="left")
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = values[assign == j]
            if members.size:
                centroids[j] = members.mean()

    keep = np.bincount(assign, minlength=k) >= max(min_region_pixels, 1)
    region_of = np.full(k, -1, dtype=np.int64)
    region_of[keep] = np.arange(int(keep.sum()))
    return region_of[assign].reshape(img.pixels.shape)


def blockwise_labels(img: Image, block_size: int) -> np.ndarray:
    """Tile the image with non-overlapping square blocks, as a label image.

    Blocks are numbered from the top-left in row-major order; pixels of the
    partial blocks at the right and bottom edges are labeled -1.  An image
    smaller than one block is bad data (ShapeError), a block_size below 2 a
    bad setting (ValueError).
    """
    if block_size < 2:
        raise ValueError("block_size must be >= 2")
    if img.height < block_size or img.width < block_size:
        raise ShapeError(
            f"image {img.width}x{img.height} smaller than one "
            f"{block_size}x{block_size} block"
        )
    block_rows, block_cols = img.height // block_size, img.width // block_size
    row = np.arange(img.height) // block_size
    col = np.arange(img.width) // block_size
    labels = row[:, None] * block_cols + col[None, :]
    labels[row >= block_rows, :] = -1
    labels[:, col >= block_cols] = -1
    return labels


def region_labels(img: Image, cfg: RoiConfig) -> np.ndarray:
    """The configured selection as one (height, width) int64 label image.

    Region i holds the pixels labeled i, numbered 0.. in selection order
    with no gaps; -1 marks pixels that belong to no region.
    """
    if cfg.mode == PIXELWISE:
        return pixelwise_labels(img, cfg.sn, min_region_pixels=cfg.min_region_pixels)
    return blockwise_labels(img, cfg.block_size)


def region_masks(labels: np.ndarray):
    """Yield a label image's regions as masks, one at a time, in label order."""
    for i in range(int(labels.max()) + 1):
        yield RegionMask(labels == i)


def mask_to_rle(mask: RegionMask) -> str:
    """Run-length encode a mask as one text line: ``width height run0 run1 ...``.

    Runs alternate starting with the non-member count (possibly 0) over the
    row-major flattening.
    """
    flat = mask.member.ravel()
    changes = np.flatnonzero(np.diff(flat)) + 1
    edges = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(edges).tolist()
    if flat[0]:
        runs = [0] + runs
    return " ".join([str(mask.width), str(mask.height)] + [str(r) for r in runs])


def mask_from_rle(line: str) -> RegionMask:
    """Inverse of mask_to_rle.  Every token is an int64 field of plain ASCII
    digits, and a line that is not a non-empty mask is a FormatError."""
    parts = line.split()
    if len(parts) < 3:
        raise FormatError(f"RLE mask line needs width, height and runs: {line!r}")
    width, height, *runs = (
        int_field(p, "non-integer token in RLE mask line: {line!r}",
                  "RLE mask value too large in line {line!r}", line=line)
        for p in parts
    )
    if sum(runs) != width * height:
        raise FormatError("RLE runs do not cover the declared mask size")
    flat = np.zeros(width * height, dtype=bool)
    pos = 0
    inside = False
    for run in runs:
        if inside:
            flat[pos : pos + run] = True
        pos += run
        inside = not inside
    try:
        return RegionMask(flat.reshape(height, width))
    except ValueError as exc:
        raise FormatError(f"RLE mask line {line!r}: {exc}") from None
