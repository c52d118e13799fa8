"""Co-occurrence matrices, Haralick features, and feature assembly."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csomtex import (
    DataError,
    Glcm,
    Image,
    RegionMask,
    RoiConfig,
    ShapeError,
    TextureConfig,
    cooccurrence,
    extract_features,
    haralick4,
    region_labels,
    region_masks,
)
from csomtex.texture import _diff2, _haralick_rows, _region_glcms
from helpers import bits, image_from, random_image

FULL = lambda img: RegionMask(np.ones(img.pixels.shape, dtype=bool))  # noqa: E731


def glcm_oracle(img: Image, mask: RegionMask, offset, symmetric: bool):
    """Independent pair enumerator: walk every pixel of the mask, count its
    neighbor when that is in the image and the mask too."""
    levels = img.max_value + 1
    dr, dc = offset
    counts = np.zeros((levels, levels), dtype=np.int64)
    h, w = img.pixels.shape
    pixels, member = img.pixels.tolist(), mask.member.tolist()
    for r, c in zip(*np.nonzero(mask.member)):
        r2, c2 = r + dr, c + dc
        if not (0 <= r2 < h and 0 <= c2 < w and member[r2][c2]):
            continue
        counts[pixels[r][c], pixels[r2][c2]] += 1
        if symmetric:
            counts[pixels[r2][c2], pixels[r][c]] += 1
    total = counts.sum()
    p = counts / total if total else counts.astype(np.float64)
    return counts, p, int(total)


def haralick_oracle(g: Glcm) -> tuple[float, float, float, float]:
    """Reference Haralick features of one matrix, as ``haralick4`` computed
    them before it became the one-matrix case of the region batch."""
    p = g.p
    idx = np.arange(g.levels)
    diff2 = (idx[:, None] - idx[None, :]) ** 2
    energy = float((p * p).sum())
    contrast = float((diff2 * p).sum())
    nz = p > 0
    entropy = float(np.sum(-p[nz] * np.log(p[nz])))
    homogeneity = float((p / (1.0 + diff2)).sum())
    return energy, contrast, entropy, homogeneity


class TestCooccurrence:
    def test_horizontal_pairs_hand_case(self):
        img = image_from([[0, 0], [1, 1]], max_value=1)
        g = cooccurrence(img, FULL(img), (0, 1))
        assert g.pair_count == 2
        assert g.p.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_vertical_columns_hand_case(self):
        img = image_from([[0, 1], [0, 1]], max_value=1)
        g = cooccurrence(img, FULL(img), (0, 1))
        assert g.pair_count == 2
        assert g.p.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_single_pixel_has_no_pairs(self):
        img = image_from([[0]], max_value=1)
        g = cooccurrence(img, FULL(img), (1, 1))
        assert g.pair_count == 0
        assert not g.p.any()

    def test_mask_restricts_both_endpoints(self):
        img = image_from([[0, 1, 0]], max_value=1)
        mask = RegionMask(np.array([[True, True, False]]))
        g = cooccurrence(img, mask, (0, 1))
        assert g.pair_count == 1
        assert g.p[0, 1] == 1.0

    def test_symmetric_doubles_pair_count(self):
        img = image_from([[0, 1], [1, 0]], max_value=1)
        plain = cooccurrence(img, FULL(img), (1, 0))
        sym = cooccurrence(img, FULL(img), (1, 0), symmetric=True)
        assert sym.pair_count == 2 * plain.pair_count
        np.testing.assert_allclose(sym.p, (plain.p + plain.p.T) / 2.0, atol=1e-15)

    def test_negative_column_offset(self):
        img = image_from([[0, 1, 2]], max_value=2)
        g = cooccurrence(img, FULL(img), (0, -1))
        fwd = cooccurrence(img, FULL(img), (0, 1))
        assert g.pair_count == fwd.pair_count
        np.testing.assert_array_equal(g.p, fwd.p.T)

    def test_mask_shape_mismatch(self):
        img = image_from([[0, 1]], max_value=1)
        with pytest.raises(ShapeError):
            cooccurrence(img, RegionMask(np.ones((2, 2), dtype=bool)), (0, 1))

    def test_zero_offset_rejected(self):
        img = image_from([[0, 1]], max_value=1)
        with pytest.raises(ValueError):
            cooccurrence(img, FULL(img), (0, 0))

    def test_offset_larger_than_image(self):
        img = image_from([[0, 1]], max_value=1)
        g = cooccurrence(img, FULL(img), (5, 0))
        assert g.pair_count == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        levels=st.sampled_from([2, 3, 4]),
        offset=st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1)]),
        symmetric=st.booleans(),
    )
    def test_matches_bruteforce_oracle(self, seed, levels, offset, symmetric):
        rng = np.random.default_rng(seed)
        img = random_image(rng, 8, 8, levels)
        mask = RegionMask(rng.random((8, 8)) < 0.7) if seed % 2 else FULL(img)
        if not mask.member.any():
            mask = FULL(img)
        g = cooccurrence(img, mask, offset, symmetric=symmetric)
        counts, p, total = glcm_oracle(img, mask, offset, symmetric)
        assert g.pair_count == total
        np.testing.assert_array_equal(np.rint(g.p * total).astype(np.int64), counts)
        np.testing.assert_array_equal(bits(g.p), bits(p))


class TestHaralick:
    def test_diagonal_glcm(self):
        g = Glcm(2, np.array([[0.5, 0.0], [0.0, 0.5]]), 2)
        energy, contrast, entropy, homogeneity = haralick4(g)
        assert abs(energy - 0.5) < 1e-12
        assert contrast == 0.0
        assert abs(entropy - math.log(2)) < 1e-12
        assert abs(homogeneity - 1.0) < 1e-12

    def test_single_cell_glcm(self):
        g = Glcm(2, np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
        assert haralick4(g) == (1.0, 1.0, 0.0, 0.5)

    def test_empty_glcm_is_all_zero(self):
        g = Glcm(2, np.zeros((2, 2)), 0)
        assert haralick4(g) == (0.0, 0.0, 0.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        levels=st.integers(2, 64),
        density=st.sampled_from([0.02, 0.3, 1.0]),
    )
    def test_bitwise_equal_to_oracle(self, seed, levels, density):
        # arbitrary non-negative matrices, sparse or dense, summing to 1 or not
        rng = np.random.default_rng(seed)
        p = rng.random((levels, levels)) * (rng.random((levels, levels)) < density)
        if seed % 2:
            p /= max(p.sum(), 1.0)
        g = Glcm(levels, p, int(rng.integers(0, 1000)))
        got = haralick4(g)
        assert all(type(v) is float for v in got)
        assert np.array_equal(bits(np.array(got)), bits(np.array(haralick_oracle(g))))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        levels=st.integers(2, 256),
        kinds=st.lists(
            st.sampled_from(["zero", "one", "unit", "few", "half", "dense"]), min_size=1, max_size=12
        ),
        normalized=st.booleans(),
    )
    @example(seed=0, levels=2, kinds=["zero", "unit", "zero"], normalized=True)
    def test_rows_bitwise_equal_to_oracle_alone(self, seed, levels, kinds, normalized):
        # rows of every non-zero count kind, shuffled so that equal counts
        # interleave with others; each row must get the bits it gets alone,
        # sign of zero included: +0.0 for a row without non-zero cells, and
        # for a lone 1.0 whatever numpy's sum of its one -0.0 term gives
        rng = np.random.default_rng(seed)
        cells = levels * levels
        counts = {"zero": 0, "one": 1, "few": 3, "half": cells // 2, "dense": cells}
        p = np.zeros((len(kinds), cells))
        for row, kind in zip(p, kinds):
            if kind == "unit":
                row[rng.integers(cells)] = 1.0
                continue
            hit = rng.choice(cells, counts[kind], replace=False)
            row[hit] = rng.random(len(hit)) + 1e-9
            if normalized:
                row /= max(row.sum(), 1.0)
            else:
                row *= rng.uniform(1.0, 1000.0)
        p = p[rng.permutation(len(kinds))]
        got = _haralick_rows(p, _diff2(levels))
        for row, feats in zip(p, got):
            want = haralick_oracle(Glcm(levels, row.reshape(levels, levels), 0))
            assert np.array_equal(bits(feats), bits(np.array(want)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), levels=st.sampled_from([2, 3, 4]))
    def test_ranges_when_nonempty(self, seed, levels):
        rng = np.random.default_rng(seed)
        img = random_image(rng, 8, 8, levels)
        g = cooccurrence(img, FULL(img), (0, 1))
        energy, contrast, entropy, homogeneity = haralick4(g)
        assert 0.0 < energy <= 1.0
        assert 0.0 < homogeneity <= 1.0
        assert contrast >= 0.0
        assert 0.0 <= entropy <= 2.0 * math.log(levels)


class TestExtractFeatures:
    def test_blockwise_single_block_is_its_features(self):
        rng = np.random.default_rng(1)
        img = random_image(rng, 4, 4, 3)
        roi = RoiConfig(mode="blockwise", block_size=4)
        tex = TextureConfig(levels=3, offsets=((0, 1),))
        vec = extract_features(img, roi, tex)
        g = cooccurrence(img, FULL(img), (0, 1))
        np.testing.assert_allclose(vec, haralick4(g), atol=1e-15)

    def test_blockwise_identical_blocks_average_to_one_block(self):
        tile = np.array([[0, 1], [2, 0]])
        img = Image(np.tile(tile, (1, 2)), 2)
        roi = RoiConfig(mode="blockwise", block_size=2)
        tex = TextureConfig(levels=3, offsets=((1, 0),))
        two = extract_features(img, roi, tex)
        one = extract_features(Image(tile, 2), roi, tex)
        np.testing.assert_allclose(two, one, atol=1e-15)

    def test_pixelwise_pads_missing_segments(self):
        img = image_from([[1, 1], [1, 1]], max_value=2)
        roi = RoiConfig(mode="pixelwise", sn=2, min_region_pixels=1)
        tex = TextureConfig(levels=3, offsets=((0, 1),))
        vec = extract_features(img, roi, tex)
        assert vec.shape == (8,)
        assert vec[4:].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert vec[:4].tolist() == list(haralick4(cooccurrence(img, FULL(img), (0, 1))))

    def test_lengths_fixed_by_config(self):
        pix = RoiConfig(mode="pixelwise", sn=6)
        blk = RoiConfig(mode="blockwise", block_size=8)
        tex = TextureConfig(levels=3)  # four default offsets
        rng = np.random.default_rng(7)
        for height, width in [(16, 16), (24, 40)]:
            img = random_image(rng, height, width, 3)
            assert extract_features(img, pix, tex).size == 6 * 4 * 4
            assert extract_features(img, blk, tex).size == 4 * 4

    def test_unquantized_input_rejected(self):
        img = image_from([[0, 128], [255, 3]], max_value=255)
        with pytest.raises(ShapeError):
            extract_features(img, RoiConfig(), TextureConfig(levels=3))

    def test_no_masks_error_names_image(self):
        img = image_from([[0, 1], [2, 0]], max_value=2)
        roi = RoiConfig(mode="pixelwise", sn=3, min_region_pixels=99)
        with pytest.raises(DataError, match="probe.pgm"):
            extract_features(img, roi, TextureConfig(levels=3), name="probe.pgm")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TextureConfig(levels=1)
        with pytest.raises(ValueError):
            TextureConfig(offsets=())
        with pytest.raises(ValueError):
            TextureConfig(offsets=((0, 0),))


def features_oracle(img: Image, roi: RoiConfig, tex: TextureConfig) -> np.ndarray:
    """extract_features composed per region: one glcm_oracle +
    haralick_oracle per mask and offset, then the blockwise mean or the
    pixelwise padding."""
    masks = list(region_masks(region_labels(img, roi)))
    per_region = 4 * len(tex.offsets)
    blocks = np.zeros((len(masks), per_region), dtype=np.float64)
    for mi, mask in enumerate(masks):
        feats = []
        for off in tex.offsets:
            _, p, total = glcm_oracle(img, mask, off, tex.symmetric)
            feats.extend(haralick_oracle(Glcm(img.max_value + 1, p, total)))
        blocks[mi] = feats
    if roi.mode == "blockwise":
        return blocks.mean(axis=0)
    out = np.zeros(roi.sn * per_region, dtype=np.float64)
    out[: blocks.size] = blocks.ravel()
    return out


# (1, -1) runs against the grain; the long ones outreach small blocks, so
# some regions have empty matrices.
OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1), (0, -2), (-1, 2), (2, -3), (0, 7), (9, 0), (6, 6))


class TestBatchedMatchesPerRegion:
    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("mode", ["blockwise", "pixelwise"])
    def test_bitwise_equal_on_random_images(self, mode, symmetric):
        rng = np.random.default_rng(1000 + 2 * (mode == "pixelwise") + symmetric)
        for _ in range(40):
            levels = int(rng.integers(2, 17))
            h, w = (int(v) for v in rng.integers(4, 23, size=2))
            # skewed level frequencies leave some pixelwise segments tiny
            weights = rng.dirichlet(np.full(levels, 0.5))
            img = Image(rng.choice(levels, size=(h, w), p=weights), levels - 1)
            picks = rng.choice(len(OFFSETS), size=int(rng.integers(1, 5)), replace=False)
            tex = TextureConfig(levels, tuple(OFFSETS[i] for i in picks), symmetric)
            if mode == "blockwise":
                # sides are rarely multiples of the block: partial edge blocks
                roi = RoiConfig(mode, block_size=int(rng.integers(2, min(h, w, 7) + 1)))
            else:
                # sn above the distinct levels, or dropped segments, pads with zeros
                roi = RoiConfig(mode, sn=int(rng.integers(1, 9)),
                                min_region_pixels=int(rng.integers(1, 25)))
                if region_labels(img, roi).max() < 0:  # no region kept
                    with pytest.raises(DataError):
                        extract_features(img, roi, tex)
                    continue
            got = extract_features(img, roi, tex)
            assert np.array_equal(bits(got), bits(features_oracle(img, roi, tex))), (roi, tex)

    @pytest.mark.parametrize("levels", [64, 256])
    def test_many_blocks_at_high_levels(self, levels):
        # 256 blocks, counted in chunks of MAX_GLCM_BINS // levels**2 regions
        rng = np.random.default_rng(levels)
        img = random_image(rng, 66, 64, levels)
        roi = RoiConfig(mode="blockwise", block_size=4)  # 256 blocks
        tex = TextureConfig(levels, symmetric=levels == 256)
        got = extract_features(img, roi, tex)
        assert np.array_equal(bits(got), bits(features_oracle(img, roi, tex)))

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_chunks_that_straddle_offsets(self, symmetric):
        # 64 levels make 16-row chunks, and 100 blocks make 400 offset-major
        # rows, so chunks end partway through an offset's regions
        rng = np.random.default_rng(50 + symmetric)
        img = random_image(rng, 50, 50, 64)
        roi = RoiConfig(mode="blockwise", block_size=5)
        tex = TextureConfig(64, symmetric=symmetric)
        assert region_labels(img, roi).max() + 1 == 100
        got = extract_features(img, roi, tex)
        assert np.array_equal(bits(got), bits(features_oracle(img, roi, tex)))


# the 8 unit offsets; each example adds one longer than its image
UNIT_OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]


class TestRegionGlcms:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_spans_match_pair_loop(self, data):
        """Each span's rows of ``_region_glcms`` on an arbitrary label image
        are glcm_oracle's loop over that region's pixel pairs: counts and
        totals exactly, p bitwise.  Spans start past region 0 and skip
        regions, and -1 pixels belong to none."""
        h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        levels = data.draw(st.integers(2, 256))
        n_regions = data.draw(st.integers(1, 6))
        labels = np.array(
            data.draw(st.lists(st.integers(-1, n_regions - 1), min_size=h * w, max_size=h * w)),
            dtype=np.int64,
        ).reshape(h, w)
        img = Image(
            np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=h * w,
                                        max_size=h * w))).reshape(h, w),
            levels - 1,
        )
        offsets = st.sampled_from(UNIT_OFFSETS + [(h, -w)])
        span = st.integers(0, n_regions - 1).flatmap(
            lambda lo: st.tuples(offsets, st.just(lo), st.integers(lo + 1, n_regions))
        )
        spans = data.draw(st.lists(span, min_size=1, max_size=4))
        symmetric = data.draw(st.booleans())

        p, totals = _region_glcms(img, labels, spans, symmetric)
        want = [
            glcm_oracle(img, RegionMask(labels == region), offset, symmetric)
            if (labels == region).any()
            else (np.zeros((levels, levels), np.int64), np.zeros((levels, levels)), 0)
            for offset, lo, hi in spans
            for region in range(lo, hi)
        ]
        assert p.shape == (len(want), levels * levels)
        assert totals.tolist() == [total for _, _, total in want]
        for row, total, (counts, p_want, _) in zip(p, totals, want):
            assert np.array_equal(np.rint(row * total).astype(np.int64), counts.ravel())
            assert np.array_equal(bits(row), bits(p_want.ravel()))
