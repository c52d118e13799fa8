"""Gray-level co-occurrence matrices and the four derived texture features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .imaging import Image
from .roi import BLOCKWISE, PIXELWISE, RegionMask, RoiConfig, region_labels

DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))

FEATURES_PER_GLCM = 4  # energy, contrast, entropy, homogeneity

# extract_features counts regions in chunks of at most this many GLCM cells
# (but at least one region), so a chunk holds max(levels**2, MAX_GLCM_BINS)
# counts: no more than one region's matrix once that is the larger.
MAX_GLCM_BINS = 1 << 16

# An 8-bit image has at most 256 gray values, and GLCM work grows as
# levels**2 per region, so more levels only cost time and memory.
MAX_LEVELS = 256


@dataclass(eq=False)
class Glcm:
    """Normalized co-occurrence probabilities over an L-level image region."""

    levels: int
    p: np.ndarray  # (levels, levels) float64, sums to 1 when pair_count > 0
    pair_count: int

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.shape != (self.levels, self.levels):
            raise ValueError("p must be a levels x levels matrix")
        if self.pair_count < 0 or (self.p < 0).any():
            raise ValueError("co-occurrence entries must be non-negative")


@dataclass
class TextureConfig:
    levels: int = 3
    offsets: tuple = DEFAULT_OFFSETS
    symmetric: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"texture levels must lie in [2, {MAX_LEVELS}], got {self.levels}")
        self.offsets = tuple((int(dr), int(dc)) for dr, dc in self.offsets)
        if not self.offsets:
            raise ValueError("at least one offset is required")
        if any(off == (0, 0) for off in self.offsets):
            raise ValueError("the zero offset is not a displacement")


def cooccurrence(
    img: Image, mask: RegionMask, offset: tuple[int, int], symmetric: bool = False
) -> Glcm:
    """Count gray-level pairs at the given (dr, dc) displacement within a mask.

    A pair is counted when both endpoints fall inside the image and the mask.
    With ``symmetric`` each pair also increments the transposed cell, and
    pair_count counts both increments.  Zero qualifying pairs produce an
    all-zero matrix with pair_count 0.
    """
    levels = img.max_value + 1
    if (mask.height, mask.width) != (img.height, img.width):
        raise ShapeError(
            f"mask {mask.width}x{mask.height} does not match "
            f"image {img.width}x{img.height}"
        )
    dr, dc = int(offset[0]), int(offset[1])
    if (dr, dc) == (0, 0):
        raise ValueError("offset must be non-zero")

    h, w = img.height, img.width
    r0, r1 = max(0, -dr), min(h, h - dr)
    c0, c1 = max(0, -dc), min(w, w - dc)
    counts = np.zeros((levels, levels), dtype=np.int64)
    if r0 < r1 and c0 < c1:
        src = img.pixels[r0:r1, c0:c1]
        dst = img.pixels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        both = mask.member[r0:r1, c0:c1] & mask.member[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        pairs = src[both] * levels + dst[both]
        counts = np.bincount(pairs, minlength=levels * levels).reshape(levels, levels)
    if symmetric:
        counts = counts + counts.T
    total = int(counts.sum())
    p = counts / total if total else np.zeros((levels, levels), dtype=np.float64)
    return Glcm(levels, p, total)


def haralick4(g: Glcm) -> tuple[float, float, float, float]:
    """Energy, contrast, entropy (natural log), and homogeneity of a GLCM.

    An empty matrix (pair_count 0) yields (0, 0, 0, 0).
    """
    p = g.p
    idx = np.arange(g.levels)
    diff2 = (idx[:, None] - idx[None, :]) ** 2
    energy = float((p * p).sum())
    contrast = float((diff2 * p).sum())
    nz = p > 0
    entropy = float(np.sum(-p[nz] * np.log(p[nz])))
    homogeneity = float((p / (1.0 + diff2)).sum())
    return energy, contrast, entropy, homogeneity


def feature_length(roi_cfg: RoiConfig, tex_cfg: TextureConfig) -> int:
    """Output dimension of extract_features, fixed by configuration alone."""
    per_region = FEATURES_PER_GLCM * len(tex_cfg.offsets)
    if roi_cfg.mode == PIXELWISE:
        return roi_cfg.sn * per_region
    return per_region


def _region_counts(
    img: Image, labels: np.ndarray, lo: int, hi: int, offset: tuple[int, int], symmetric: bool
) -> np.ndarray:
    """Co-occurrence counts of regions lo..hi-1 of a label image at one offset.

    Returns a (hi - lo, L, L) int64 array; entry i is what cooccurrence
    counts for the mask of region lo + i.
    """
    levels = img.max_value + 1
    h, w = img.height, img.width
    dr, dc = offset
    r0, r1 = max(0, -dr), min(h, h - dr)
    c0, c1 = max(0, -dc), min(w, w - dc)
    n = hi - lo
    counts = np.zeros((n, levels, levels), dtype=np.int64)
    if r0 < r1 and c0 < c1:
        region = labels[r0:r1, c0:c1]
        both = region == labels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        both &= (region >= lo) & (region < hi)
        src = img.pixels[r0:r1, c0:c1][both]
        dst = img.pixels[r0 + dr : r1 + dr, c0 + dc : c1 + dc][both]
        cells = ((region[both] - lo) * levels + src) * levels + dst
        counts = np.bincount(cells, minlength=n * levels * levels).reshape(n, levels, levels)
    if symmetric:
        counts = counts + counts.transpose(0, 2, 1)
    return counts


def _haralick_rows(counts: np.ndarray, diff2: np.ndarray) -> np.ndarray:
    """haralick4 of each region's counts as an (n, 4) matrix, bit for bit.

    ``diff2`` is the flattened (i - j)**2 of the L x L cells.  Row sums over
    the flattened matrices add the cells in haralick4's order.  The entropy
    sums only the non-zero cells, and numpy's pairwise summation groups them
    by their number, so rows are summed in groups with equal non-zero counts.
    """
    n = counts.shape[0]
    flat = counts.reshape(n, -1)
    total = flat.sum(axis=1)
    p = flat / np.maximum(total, 1)[:, None]  # all-zero rows stay zero
    out = np.zeros((n, FEATURES_PER_GLCM), dtype=np.float64)
    out[:, 0] = (p * p).sum(axis=1)
    out[:, 1] = (diff2 * p).sum(axis=1)
    out[:, 3] = (p / (1.0 + diff2)).sum(axis=1)
    nz = p > 0
    per_row = nz.sum(axis=1)
    vals = p[nz]  # row-major, so each row's cells are contiguous
    terms = -vals * np.log(vals)
    starts = np.cumsum(per_row) - per_row
    for k in np.unique(per_row[per_row > 0]):
        rows = np.flatnonzero(per_row == k)
        out[rows, 2] = terms[starts[rows, None] + np.arange(k)].sum(axis=1)
    return out


def extract_features(
    img: Image,
    roi_cfg: RoiConfig,
    tex_cfg: TextureConfig,
    name: str = "",
    labels: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble one texture vector for a quantized image.

    The image must already be quantized to tex_cfg.levels gray levels.  For
    each region (in selection order) and each offset (in configured order)
    the four co-occurrence features of haralick4 and cooccurrence are
    computed, every region of an offset in one count.  Pixelwise mode
    concatenates the per-region blocks, zero-padded to exactly ``sn``
    regions; blockwise mode averages each feature across blocks.
    ``labels`` is ``region_labels(img, roi_cfg)`` when the caller has it.
    """
    if img.max_value != tex_cfg.levels - 1:
        raise ShapeError(
            f"image has max_value {img.max_value}; expected a quantized image "
            f"with {tex_cfg.levels} levels"
        )
    if labels is None:
        labels = region_labels(img, roi_cfg)
    n_regions = int(labels.max()) + 1
    if n_regions == 0:
        raise DataError(f"no usable regions in image {name or f'{img.width}x{img.height}'}")

    levels = tex_cfg.levels
    idx = np.arange(levels)
    diff2 = ((idx[:, None] - idx[None, :]) ** 2).ravel()
    chunk = max(1, MAX_GLCM_BINS // (levels * levels))
    per_region = FEATURES_PER_GLCM * len(tex_cfg.offsets)
    blocks = np.zeros((n_regions, per_region), dtype=np.float64)
    for lo in range(0, n_regions, chunk):
        hi = min(lo + chunk, n_regions)
        for j, off in enumerate(tex_cfg.offsets):
            counts = _region_counts(img, labels, lo, hi, off, tex_cfg.symmetric)
            cols = slice(j * FEATURES_PER_GLCM, (j + 1) * FEATURES_PER_GLCM)
            blocks[lo:hi, cols] = _haralick_rows(counts, diff2)

    if roi_cfg.mode == BLOCKWISE:
        return blocks.mean(axis=0)
    out = np.zeros(roi_cfg.sn * per_region, dtype=np.float64)
    out[: blocks.size] = blocks.ravel()
    return out
