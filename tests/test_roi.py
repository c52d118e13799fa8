"""Region selection: intensity segments, block tiling, RLE masks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csomtex import (
    FormatError,
    Image,
    RegionMask,
    RoiConfig,
    ShapeError,
    mask_from_rle,
    mask_to_rle,
    region_labels,
    region_masks,
)
from csomtex.roi import blockwise_labels, pixelwise_labels
from helpers import image_from


def kmeans2_oracle(values: np.ndarray) -> np.ndarray:
    """Best 2-means assignment of scalar values by scanning all thresholds.

    1-D k-means fixpoints are threshold splits of the sorted values; the
    global optimum minimizes within-cluster sum of squares over all splits.
    """
    v = np.sort(values.astype(np.float64))
    best, best_cost = None, np.inf
    for cut in range(1, v.size):
        lo, hi = v[:cut], v[cut:]
        cost = ((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum()
        if cost < best_cost:
            best_cost, best = cost, v[cut]
    return values >= best


class TestPixelwise:
    def test_two_valued_image_splits_exactly(self):
        img = image_from([[0, 255, 0], [255, 0, 255]])
        masks = list(region_masks(pixelwise_labels(img, 2)))
        assert len(masks) == 2
        assert np.array_equal(masks[0].member, img.pixels == 0)
        assert np.array_equal(masks[1].member, img.pixels == 255)

    def test_uniform_ramp_boundary(self):
        # 0..99 uniform: the optimal 2-means split is at 50.
        img = Image(np.arange(100).reshape(10, 10), 255)
        masks = list(region_masks(pixelwise_labels(img, 2)))
        assert len(masks) == 2
        assert np.array_equal(masks[0].member, img.pixels <= 49)
        assert np.array_equal(masks[1].member, img.pixels >= 50)

    def test_matches_2means_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vals = np.concatenate(
                [rng.integers(0, 60, size=30), rng.integers(120, 256, size=34)]
            )
            img = Image(vals.reshape(8, 8), 255)
            masks = list(region_masks(pixelwise_labels(img, 2)))
            oracle_hi = kmeans2_oracle(vals).reshape(8, 8)
            assert np.array_equal(masks[1].member, oracle_hi)

    def test_single_intensity_gives_one_mask(self):
        img = image_from([[9, 9], [9, 9]])
        masks = list(region_masks(pixelwise_labels(img, 6)))
        assert len(masks) == 1
        assert masks[0].member.all()

    def test_masks_ordered_by_centroid(self):
        rng = np.random.default_rng(5)
        img = Image(rng.integers(0, 256, size=(16, 16)), 255)
        masks = list(region_masks(pixelwise_labels(img, 4)))
        means = [img.pixels[m.member].mean() for m in masks]
        assert means == sorted(means)

    def test_min_region_pixels_drops_small_segments(self):
        vals = np.full((6, 6), 10)
        vals[0, 0] = 250
        img = Image(vals, 255)
        assert len(list(region_masks(pixelwise_labels(img, 2, min_region_pixels=1)))) == 2
        assert len(list(region_masks(pixelwise_labels(img, 2, min_region_pixels=2)))) == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), sn=st.integers(1, 8))
    def test_partition_property(self, seed, sn):
        rng = np.random.default_rng(seed)
        img = Image(rng.integers(0, 32, size=(9, 7)), 31)
        masks = list(region_masks(pixelwise_labels(img, sn, min_region_pixels=1)))
        total = np.zeros((9, 7), dtype=int)
        for m in masks:
            total += m.member
        assert (total == 1).all()

    def test_sn_below_one_rejected(self):
        with pytest.raises(ValueError):
            pixelwise_labels(image_from([[1]]), 0)


class TestBlockwise:
    def test_row_major_tiling_discards_partials(self):
        img = Image(np.zeros((5, 7), dtype=np.int64), 255)
        masks = list(region_masks(blockwise_labels(img, 2)))
        assert len(masks) == 2 * 3
        # first block is the top-left 2x2, next moves right
        assert masks[0].member[:2, :2].all() and masks[0].size == 4
        assert masks[1].member[:2, 2:4].all()
        assert masks[3].member[2:4, :2].all()
        union = np.zeros((5, 7), dtype=int)
        for m in masks:
            union += m.member
        assert union.max() == 1
        assert union[:4, :6].all() and union[4, :].sum() == 0 and union[:, 6].sum() == 0

    def test_image_smaller_than_block(self):
        with pytest.raises(ShapeError, match="smaller"):
            blockwise_labels(Image(np.zeros((3, 9), dtype=np.int64), 255), 4)

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            blockwise_labels(image_from([[1]]), 1)


class TestSelectRegions:
    def test_dispatch(self):
        img = Image(np.arange(64).reshape(8, 8) * 4, 255)
        pix = region_labels(img, RoiConfig(mode="pixelwise", sn=2, min_region_pixels=1))
        blk = region_labels(img, RoiConfig(mode="blockwise", block_size=4))
        assert len(list(region_masks(pix))) == 2
        assert len(list(region_masks(blk))) == 4

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            RoiConfig(mode="voronoi")


class TestRle:
    def test_known_encoding(self):
        mask = RegionMask(np.array([[True, True, False], [False, True, False]]))
        line = mask_to_rle(mask)
        assert line == "3 2 0 2 2 1 1"
        assert mask_from_rle(line) == mask

    def test_leading_zero_run_when_first_pixel_set(self):
        mask = RegionMask(np.array([[True, False]]))
        assert mask_to_rle(mask).split()[2] == "0"

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), h=st.integers(1, 9), w=st.integers(1, 9))
    def test_round_trip_property(self, seed, h, w):
        rng = np.random.default_rng(seed)
        member = rng.random((h, w)) < 0.5
        if not member.any():
            member[0, 0] = True
        mask = RegionMask(member)
        assert mask_from_rle(mask_to_rle(mask)) == mask

    def test_bad_lines_rejected(self):
        big = str(2**63)
        cases = {
            "3 2": "RLE mask line needs width, height and runs: '3 2'",
            "2 2 1 x": "non-integer token in RLE mask line: '2 2 1 x'",
            "2 2 1 1": "RLE runs do not cover the declared mask size",  # 2 of 4 pixels
            "2 2 5 -1": "non-integer token in RLE mask line: '2 2 5 -1'",
            # every token is plain ASCII digits, as in every other reader
            "+2 1_0 1_9 +1": "non-integer token in RLE mask line: '+2 1_0 1_9 +1'",
            "2 ٢ 1 3": "non-integer token in RLE mask line: '2 ٢ 1 3'",
            f"{big} 1 1": f"RLE mask value too large in line '{big} 1 1'",
            # lines that add up but are no mask
            "0 0 0": "RLE mask line '0 0 0': mask must be a non-empty 2-D grid",
            "1 1 1": "RLE mask line '1 1 1': empty masks are never emitted",
        }
        for line, message in cases.items():
            with pytest.raises(FormatError) as info:
                mask_from_rle(line)
            assert str(info.value) == message, line
        assert mask_from_rle("2 1 01 1") == RegionMask(np.array([[False, True]]))
