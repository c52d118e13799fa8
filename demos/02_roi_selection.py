"""Two ways to pick the regions that texture statistics are computed over.

Pixelwise mode clusters the intensity histogram with 1-D k-means and emits
one mask per cluster, so each region collects pixels of similar brightness
wherever they sit.  Blockwise mode tiles the image with fixed squares.  Both
produce one label image, region i holding the pixels labeled i; its regions
viewed one at a time are binary masks, which run-length encoding makes
printable and diffable.
"""

import numpy as np

from csomtex import Image, RoiConfig, mask_to_rle, region_labels, region_masks


def show_regions(title, labels):
    print(title)
    for i, mask in enumerate(region_masks(labels)):
        print(f"  region {i}: {mask.member.sum()} pixels, rle: {mask_to_rle(mask)}")
        for row in mask.member:
            print("    " + "".join("#" if v else "." for v in row))
    print()


rng = np.random.default_rng(0)

# A bimodal image: dark left half, bright right half, plus noise.
dark = rng.integers(10, 60, size=(6, 4))
bright = rng.integers(180, 250, size=(6, 4))
img = Image(np.hstack([dark, bright]), 255)

print("intensities:")
for row in img.pixels:
    print("  " + " ".join(f"{v:3d}" for v in row))
print()

pixelwise = region_labels(img, RoiConfig(mode="pixelwise", sn=2))
show_regions("pixelwise (2 intensity clusters):", pixelwise)

blockwise = region_labels(img, RoiConfig(mode="blockwise", block_size=4))
show_regions("blockwise (4x4 tiles, row-major):", blockwise)
