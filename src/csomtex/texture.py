"""Gray-level co-occurrence matrices and the four derived texture features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .imaging import Image
from .roi import BLOCKWISE, RegionMask, RoiConfig, region_labels

DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))

FEATURES_PER_GLCM = 4  # energy, contrast, entropy, homogeneity

# extract_features counts its (offset, region) rows in chunks of at most
# this many GLCM cells (but at least one row), so a chunk holds
# max(levels**2, MAX_GLCM_BINS) counts: no more than one region's matrix
# once that is the larger.  A chunk may hold rows of several offsets; one
# that held every offset of a large image was slower than one per offset.
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
    all-zero matrix with pair_count 0.  The mask is counted as region 0 of a
    label image, as extract_features counts its regions.
    """
    if (mask.height, mask.width) != (img.height, img.width):
        raise ShapeError(
            f"mask {mask.width}x{mask.height} does not match "
            f"image {img.width}x{img.height}"
        )
    dr, dc = int(offset[0]), int(offset[1])
    if (dr, dc) == (0, 0):
        raise ValueError("offset must be non-zero")
    levels = img.max_value + 1
    p, totals = _region_glcms(img, mask.member - 1, [((dr, dc), 0, 1)], symmetric)
    return Glcm(levels, p.reshape(levels, levels), int(totals[0]))


def haralick4(g: Glcm) -> tuple[float, float, float, float]:
    """Energy, contrast, entropy (natural log), and homogeneity of a GLCM.

    An empty matrix (pair_count 0) yields (0, 0, 0, 0).
    """
    return tuple(_haralick_rows(g.p.reshape(1, -1), _diff2(g.levels))[0].tolist())


def _diff2(levels: int) -> np.ndarray:
    """The flattened (i - j)**2 of the L x L cells."""
    idx = np.arange(levels)
    return ((idx[:, None] - idx[None, :]) ** 2).ravel()


def _region_glcms(
    img: Image, labels: np.ndarray, spans, symmetric: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Co-occurrence matrices of spans of regions of a label image, in one count.

    Each span ``(offset, lo, hi)`` stands for regions lo..hi-1 at one (dr,
    dc) offset, and its matrices follow those of the spans before it.  A
    pair is counted when both endpoints fall inside the image and in the
    same region.  Returns ``(p, totals)``: p is (rows, L*L) float64, each
    row's flattened counts over its pair total (all zero without pairs),
    and totals the (rows,) int64 pair totals.
    """
    levels = img.max_value + 1
    h, w = img.height, img.width
    pixels = img.pixels
    # a pair's cell is (label * L + src) * L + dst, shifted by the rows of
    # the spans before its own; the first two terms are one array per call
    code = (labels * levels + pixels) * levels
    cells, n = [], 0
    for (dr, dc), lo, hi in spans:
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r0 < r1 and c0 < c1:
            region = labels[r0:r1, c0:c1]
            both = region == labels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
            both &= (region >= lo) & (region < hi)  # also drops the -1 pixels
            cell = code[r0:r1, c0:c1][both]
            cell += pixels[r0 + dr : r1 + dr, c0 + dc : c1 + dc][both]
            if n != lo:
                cell += (n - lo) * levels * levels
            cells.append(cell)
        n += hi - lo
    counts = np.bincount(
        np.concatenate(cells) if cells else np.empty(0, dtype=np.int64),
        minlength=n * levels * levels,
    ).reshape(n, levels, levels)
    if symmetric:
        counts = counts + counts.transpose(0, 2, 1)
    flat = counts.reshape(n, -1)
    totals = flat.sum(axis=1)
    # the probabilities overwrite the counts in place: a second (n, L*L)
    # array made extract-blockwise's 1024-region count measurably slower
    p = np.divide(flat, np.maximum(totals, 1)[:, None], out=flat.view(np.float64))
    return p, totals


def _haralick_rows(p: np.ndarray, diff2: np.ndarray) -> np.ndarray:
    """haralick4 of each row of ``p``, a flattened GLCM, as an (n, 4) matrix.

    ``diff2`` is ``_diff2(L)``.  The entropy sums only the non-zero cells,
    and numpy's pairwise summation groups them by their number, so the rows
    are stably sorted by non-zero count once and their terms gathered in
    that order: each group of equal counts is then one contiguous (rows, k)
    slice, summed along its rows, and each row's sum is the one a lone row
    would make.  A row without non-zero cells sums nothing, to +0.0.
    """
    n = p.shape[0]
    out = np.zeros((n, FEATURES_PER_GLCM), dtype=np.float64)
    out[:, 0] = (p * p).sum(axis=1)
    out[:, 1] = (diff2 * p).sum(axis=1)
    out[:, 3] = (p / (1.0 + diff2)).sum(axis=1)
    nz = p > 0
    per_row = nz.sum(axis=1)
    order = np.argsort(per_row, kind="stable")
    terms = p[order][nz[order]]  # row by row in count order
    terms *= np.log(terms)
    np.negative(terms, out=terms)
    sizes = np.bincount(per_row)
    ent = np.empty(n)
    r = t = 0
    ks = np.flatnonzero(sizes)
    for k, m in zip(ks.tolist(), sizes[ks].tolist()):
        np.add.reduce(terms[t : t + m * k].reshape(m, k), axis=1, out=ent[r : r + m])
        r += m
        t += m * k
    out[order, 2] = ent
    return out


def extract_features(
    img: Image,
    roi_cfg: RoiConfig,
    tex_cfg: TextureConfig,
    name: str = "",
    regions: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble one texture vector for a quantized image.

    The image must already be quantized to tex_cfg.levels gray levels.  For
    each region (in selection order) and each offset (in configured order)
    the four co-occurrence features of haralick4 and cooccurrence are
    computed.  The (offset, region) rows go offset-major in chunks of at
    most MAX_GLCM_BINS GLCM cells, each chunk in one count and one Haralick
    pass, so a small image takes every offset at once.  Pixelwise mode
    concatenates the per-region blocks, zero-padded to exactly ``sn``
    regions; blockwise mode averages each feature across blocks.
    ``regions`` is ``region_labels(img, roi_cfg)`` when the caller has it.
    """
    if img.max_value != tex_cfg.levels - 1:
        raise ShapeError(
            f"image has max_value {img.max_value}; expected a quantized image "
            f"with {tex_cfg.levels} levels"
        )
    if regions is None:
        regions = region_labels(img, roi_cfg)
    n_regions = int(regions.max()) + 1
    if n_regions == 0:
        raise DataError(f"no usable regions in image {name or f'{img.width}x{img.height}'}")

    levels = tex_cfg.levels
    diff2 = _diff2(levels)
    chunk = max(1, MAX_GLCM_BINS // (levels * levels))
    offsets = tex_cfg.offsets
    # row k is offset k // n_regions of region k % n_regions
    feats = np.empty((len(offsets), n_regions, FEATURES_PER_GLCM), dtype=np.float64)
    rows = feats.reshape(-1, FEATURES_PER_GLCM)
    for k0 in range(0, len(rows), chunk):
        k1 = min(k0 + chunk, len(rows))
        spans = [
            (offsets[j], max(k0 - j * n_regions, 0), min(k1 - j * n_regions, n_regions))
            for j in range(k0 // n_regions, (k1 - 1) // n_regions + 1)
        ]
        p, _ = _region_glcms(img, regions, spans, tex_cfg.symmetric)
        rows[k0:k1] = _haralick_rows(p, diff2)
    # region-major, each region's offsets in configured order
    blocks = np.ascontiguousarray(feats.transpose(1, 0, 2)).reshape(n_regions, -1)

    if roi_cfg.mode == BLOCKWISE:
        return blocks.mean(axis=0)
    out = np.zeros(roi_cfg.sn * blocks.shape[1], dtype=np.float64)
    out[: blocks.size] = blocks.ravel()
    return out
