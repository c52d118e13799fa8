"""Gray-level co-occurrence matrices and the four derived texture features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .imaging import Image
from .roi import BLOCKWISE, PIXELWISE, RegionMask, RoiConfig, select_regions

DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))

FEATURES_PER_GLCM = 4  # energy, contrast, entropy, homogeneity


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
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
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


def extract_features(
    img: Image,
    roi_cfg: RoiConfig,
    tex_cfg: TextureConfig,
    name: str = "",
) -> np.ndarray:
    """Assemble one texture vector for a quantized image.

    The image must already be quantized to tex_cfg.levels gray levels.  For
    each region (in selection order) and each offset (in configured order)
    the four co-occurrence features are computed.  Pixelwise mode
    concatenates the per-region blocks, zero-padded to exactly ``sn``
    regions; blockwise mode averages each feature across blocks.
    """
    if img.max_value != tex_cfg.levels - 1:
        raise ShapeError(
            f"image has max_value {img.max_value}; expected a quantized image "
            f"with {tex_cfg.levels} levels"
        )
    masks = select_regions(img, roi_cfg)
    if not masks:
        raise DataError(f"no usable regions in image {name or f'{img.width}x{img.height}'}")

    per_region = FEATURES_PER_GLCM * len(tex_cfg.offsets)
    blocks = np.zeros((len(masks), per_region), dtype=np.float64)
    for mi, mask in enumerate(masks):
        feats = []
        for off in tex_cfg.offsets:
            feats.extend(haralick4(cooccurrence(img, mask, off, tex_cfg.symmetric)))
        blocks[mi] = feats

    if roi_cfg.mode == BLOCKWISE:
        return blocks.mean(axis=0)
    out = np.zeros(roi_cfg.sn * per_region, dtype=np.float64)
    out[: blocks.size] = blocks.ravel()
    return out
