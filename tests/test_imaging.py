"""PGM parsing, preprocessing, and quantization."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csomtex import (
    EmptyForegroundError,
    FormatError,
    Image,
    PreprocessConfig,
    TruncationError,
    load_pgm,
    preprocess,
    quantize,
    save_pgm,
)
from helpers import FUZZ, image_from, mutations, pgm_oracle


class TestLoadPgm:
    def test_p2_basic(self):
        img = load_pgm(b"P2\n3 2\n255\n0 1 2\n253 254 255\n")
        assert img.width == 3 and img.height == 2
        assert img.max_value == 255
        assert img.pixels.tolist() == [[0, 1, 2], [253, 254, 255]]

    def test_p2_comments_and_odd_whitespace(self):
        data = b"P2 # magic\n# a comment line\n 2#w\n2\t\n15 # maxval\n0 1\r\n2 3\n"
        img = load_pgm(data)
        assert img.pixels.tolist() == [[0, 1], [2, 3]]
        assert img.max_value == 15

    def test_p5_8bit(self):
        img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 10, 20, 255]))
        assert img.pixels.tolist() == [[0, 10], [20, 255]]

    def test_p5_16bit_big_endian(self):
        body = (256).to_bytes(2, "big") + (65535).to_bytes(2, "big")
        img = load_pgm(b"P5\n2 1\n65535\n" + body)
        assert img.pixels.tolist() == [[256, 65535]]

    def test_p5_single_separator_byte_then_raster(self):
        # The byte right after the separator belongs to the raster even if
        # it looks like whitespace.
        img = load_pgm(b"P5\n2 1\n255\n" + bytes([0x20, 0x0A]))
        assert img.pixels.tolist() == [[32, 10]]

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            load_pgm(b"P6\n1 1\n255\n\x00")

    def test_empty_and_tiny_input(self):
        with pytest.raises(FormatError):
            load_pgm(b"")
        with pytest.raises(FormatError):
            load_pgm(b"P")

    def test_truncated_header(self):
        with pytest.raises(TruncationError):
            load_pgm(b"P2\n3 2\n")

    def test_truncated_p2_body(self):
        with pytest.raises(TruncationError, match="3 of 4"):
            load_pgm(b"P2\n2 2\n255\n1 2 3\n")

    def test_truncated_p5_body(self):
        with pytest.raises(TruncationError):
            load_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            load_pgm(b"P2\n1 1\n255\n7\n8\n")
        with pytest.raises(FormatError, match="trailing"):
            load_pgm(b"P5\n1 1\n255\n" + bytes([7, 8]))

    def test_bad_dimensions_and_maxval(self):
        with pytest.raises(FormatError):
            load_pgm(b"P2\n0 2\n255\n")
        with pytest.raises(FormatError):
            load_pgm(b"P2\n2 2\n0\n1 1 1 1\n")
        with pytest.raises(FormatError):
            load_pgm(b"P2\n1 1\n65536\n1\n")

    def test_non_integer_token(self):
        with pytest.raises(FormatError, match="width"):
            load_pgm(b"P2\nx 2\n255\n1 1\n")

    @pytest.mark.parametrize("token", [b"-1", b"+9", b"1_0", b"0x1", b"\xd9\xa3"])
    def test_p2_sample_is_ascii_digits_only(self, token):
        with pytest.raises(FormatError, match="invalid pixel token"):
            load_pgm(b"P2\n2 1\n255\n1 " + token + b"\n")

    def test_signed_header_token_rejected(self):
        with pytest.raises(FormatError, match="width"):
            load_pgm(b"P2\n+2 1\n255\n1 1\n")

    def test_p2_leading_zeros_are_digits(self):
        assert load_pgm(b"P2\n2 1\n0255\n007 255\n").pixels.tolist() == [[7, 255]]

    def test_pixel_above_maxval_rejected(self):
        with pytest.raises(FormatError, match="above"):
            load_pgm(b"P2\n1 1\n10\n11\n")

    def test_p5_missing_separator(self):
        with pytest.raises(FormatError, match="whitespace"):
            load_pgm(b"P5\n1 1\n255")


class TestSavePgm:
    def test_round_trip_both_formats(self):
        img = image_from([[0, 128], [255, 7]])
        assert load_pgm(save_pgm(img, binary=True)) == img
        assert load_pgm(save_pgm(img, binary=False)) == img

    def test_round_trip_16bit(self):
        img = image_from([[0, 300], [65535, 12]], max_value=65535)
        assert load_pgm(save_pgm(img, binary=True)) == img
        assert load_pgm(save_pgm(img, binary=False)) == img

    @settings(max_examples=50, deadline=None)
    @given(
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        maxval=st.sampled_from([1, 3, 255, 256, 65535]),
        binary=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_property(self, h, w, maxval, binary, seed):
        rng = np.random.default_rng(seed)
        img = Image(rng.integers(0, maxval + 1, size=(h, w)), maxval)
        assert load_pgm(save_pgm(img, binary=binary)) == img


class TestImageType:
    def test_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 3), dtype=np.int64), 255)
        with pytest.raises(ValueError):
            Image(np.zeros(4, dtype=np.int64), 255)
        with pytest.raises(ValueError):
            Image(np.array([[-1]]), 255)
        with pytest.raises(ValueError):
            Image(np.array([[256]]), 255)
        with pytest.raises(ValueError):
            Image(np.array([[0]]), 0)


class TestPreprocess:
    def test_crop_keeps_foreground_bbox(self):
        img = image_from(
            [
                [0, 0, 0, 0],
                [0, 5, 9, 0],
                [0, 0, 3, 0],
                [0, 0, 0, 0],
            ]
        )
        out = preprocess(img, PreprocessConfig(crop=True, threshold=0, rescale=False))
        assert out.pixels.tolist() == [[5, 9], [0, 3]]

    def test_crop_strictly_above_threshold(self):
        img = image_from([[2, 2, 2], [2, 3, 2], [2, 2, 2]])
        out = preprocess(img, PreprocessConfig(crop=True, threshold=2, rescale=False))
        assert out.pixels.tolist() == [[3]]

    def test_empty_foreground(self):
        img = image_from([[0, 0], [0, 0]])
        with pytest.raises(EmptyForegroundError):
            preprocess(img, PreprocessConfig(crop=True, threshold=0, rescale=False))

    def test_rescale_spans_full_range(self):
        img = image_from([[10, 20, 30]])
        out = preprocess(img, PreprocessConfig(crop=False, rescale=True))
        assert out.pixels.tolist() == [[0, 127, 255]]
        assert out.max_value == 255

    def test_rescale_constant_image_goes_to_zero(self):
        img = image_from([[42, 42], [42, 42]])
        out = preprocess(img, PreprocessConfig(crop=False, rescale=True))
        assert out.pixels.tolist() == [[0, 0], [0, 0]]

    def test_no_op_config(self):
        img = image_from([[1, 2], [3, 4]])
        out = preprocess(img, PreprocessConfig(crop=False, rescale=False))
        assert out == img

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            PreprocessConfig(threshold=-1)


class TestQuantize:
    def test_boundary_at_l3(self):
        img = image_from([[85, 86, 170, 171, 255, 0]])
        out = quantize(img, 3)
        assert out.pixels.tolist() == [[0, 1, 1, 2, 2, 0]]
        assert out.max_value == 2

    def test_surjective_when_input_covers_range(self):
        img = image_from([list(range(256))])
        out = quantize(img, 4)
        assert sorted(set(out.pixels.ravel().tolist())) == [0, 1, 2, 3]

    def test_levels_below_two_rejected(self):
        with pytest.raises(ValueError):
            quantize(image_from([[1]]), 1)

    @settings(max_examples=50, deadline=None)
    @given(
        levels=st.integers(2, 16),
        maxval=st.sampled_from([1, 100, 255, 65535]),
        seed=st.integers(0, 10_000),
    )
    def test_monotone_and_in_range(self, levels, maxval, seed):
        rng = np.random.default_rng(seed)
        vals = np.sort(rng.integers(0, maxval + 1, size=32))
        out = quantize(Image(vals[None, :], maxval), levels)
        q = out.pixels[0]
        assert (np.diff(q) >= 0).all()
        assert q.min() >= 0 and q.max() <= levels - 1


# Bytes the reader gives meaning to, 2**63 - 1 and 2**63, and digit runs
# past int64 and past Python's 4300-digit limit for int().
_PGM_CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.sampled_from(
        [b"#", b"\r", b"\v", b"\f", b"\n", b" ", b"\t", b"\r\n", b"# c\n", b"0", b"007", b"255",
         b"256", b"65535", b"65536", b"-", b"+", b"_", b"P2", b"P5", b"9223372036854775807",
         b"9223372036854775808", b"9" * 20, b"0" * 30 + b"7", b"1" * 4301]
    ),
)
_PGM_BASES = [
    save_pgm(Image([[1, 2, 3], [4, 255, 6]], 255)),
    save_pgm(Image([[0, 300], [65535, 12]], 65535)),
    save_pgm(Image([[1, 2, 3], [4, 255, 6]], 255), binary=False),
    b"P2 # magic\n# a comment line\n 2#w\n2\t\n15 # maxval\n0 1\r\n2 3\n",
]
_PGM_EDITS = st.one_of(*[mutations(base, _PGM_CHUNKS) for base in _PGM_BASES])


def _outcome(read, data: bytes):
    try:
        img = read(data)
    except Exception as exc:
        return type(exc), str(exc)
    return img.max_value, img.pixels.tolist()


class TestPgmOracle:
    @settings(FUZZ, max_examples=1000)
    @given(_PGM_EDITS)
    @example(b"P2\n2 1\n255\n1 " + b"9" * 20 + b"\n")
    @example(b"P2\n2 2\n255\n1 " + b"9" * 20 + b"\n")
    @example(b"P2\n" + b"9" * 20 + b" 1\n255\n1\n")
    @example(b"P5\n2 1\n" + b"1" * 4301 + b"\n\x00\x01")
    @example(b"P2\n2 1\n255\n" + b"0" * 30 + b"7 1\n")
    @example(b"P2\n2 1\n255\n1 " + b"0" * 5000 + b"7\n")
    @example(b"P2\n" + b"0" * 5000 + b"2 1\n255\n1 7\n")
    @example(b"P2\n2 1\n255\n1 # a comment ends at LF, not CR\r2\n")
    @example(b"P2\n1 1\n255\n7 x\n")  # trailing data, not a bad sample
    @example(b"P5\n2 1\n255\v\x00\x01")  # \v and \f are whitespace too
    # bodies of only digits and whitespace that the one-conversion read
    # must hand back to the token read, or read as the token read does
    @example(b"P2\n1 1\n255\n \n")  # blank, which numpy reads as [0]
    @example(b"P2\n3 1\n255\n1\v2\f3\n")
    @example(b"P2\n2 1\n255\n1 9223372036854775807\n")
    @example(b"P2\n2 1\n255\n1 9223372036854775808\n")  # numpy clamps it to 2**63 - 1
    @example(b"P2\n2 1\n255\n1 2 3\n")
    @example(b"P2\n2 1\n255\n1\n")
    @example(b"P2\n2 1\n255\n1 " + b"0" * 29 + b"7\n")
    def test_load_pgm_agrees_with_oracle(self, data):
        """``load_pgm`` and ``pgm_oracle`` agree on the pixels and max_value,
        or on the error and its message.  The one difference allowed is a
        token of 2**63 or more, which ``load_pgm`` reports as a FormatError
        where the oracle raised OverflowError or Python's digit-limit
        ValueError, or met it later as a short body or an out-of-range
        maxval."""
        got, want = _outcome(load_pgm, data), _outcome(pgm_oracle, data)
        if got == want:
            return
        assert got[0] in (FormatError, TruncationError) and isinstance(want[0], type)
        if want[0] not in (OverflowError, ValueError):
            assert got[1].endswith("value too large") and re.search(rb"[0-9]{19}", data)
