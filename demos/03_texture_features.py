"""Co-occurrence matrices and the four texture features derived from them.

A GLCM entry p[i, j] is the probability that a pixel of level i has a
neighbor of level j at a fixed displacement.  Energy, contrast, entropy,
and homogeneity compress that matrix into four numbers; textures that look
different produce visibly different quadruples.
"""

import numpy as np

from csomtex import Image, RegionMask, RoiConfig, TextureConfig, cooccurrence, extract_features, haralick4

FEATURES = ("energy", "contrast", "entropy", "homogeneity")


def full_mask(img):
    return RegionMask(np.ones(img.pixels.shape, dtype=bool))


def describe(name, img, offset=(0, 1)):
    g = cooccurrence(img, full_mask(img), offset, symmetric=True)
    print(f"{name}, offset {offset}, symmetric ({g.pair_count} pairs):")
    for row in g.p:
        print("  " + " ".join(f"{v:5.3f}" for v in row))
    for label, value in zip(FEATURES, haralick4(g)):
        print(f"  {label:12s} {value:.4f}")
    print()


checker = Image(np.indices((6, 6)).sum(axis=0) % 2, 1)
stripes = Image(np.tile([0, 0, 1, 1], (6, 2))[:, :6], 1)
noise = Image(np.random.default_rng(7).integers(0, 2, size=(6, 6)), 1)

describe("checkerboard", checker)
describe("stripes (period 4)", stripes)
describe("iid noise", noise)

# extract_features computes the same quadruple for every selected region and
# every offset (all regions of an offset in one count); blockwise mode
# averages the quadruples over the blocks into one vector per image.
roi = RoiConfig(mode="blockwise", block_size=3)
tex = TextureConfig(levels=2, offsets=((0, 1), (1, 0)))
vec = extract_features(checker, roi, tex)
print(f"blockwise feature vector for the checkerboard ({vec.size} values):")
print("  " + " ".join(f"{v:.3f}" for v in vec))
