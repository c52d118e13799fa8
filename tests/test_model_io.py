"""Checksummed model files: hashing, round-trips, and corruption handling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csomtex import (
    CsomModel,
    FittedPipeline,
    FormatError,
    IntegrityError,
    SomMap,
    TrainingSchedule,
    classify,
    fit_fisher,
    fnv1a64,
    init_map,
    load_model,
    parse_model,
    project_dataset,
    save_model,
    serialize_model,
    train,
    train_csom,
    transform_replace,
)
from csomtex.data import format_rows
from csomtex.model_io import FNV_BLOCK
from helpers import fnv_oracle, format_value, gaussian_blobs, reseal

ECHO = (("roi_mode", "blockwise"), ("texture_levels", "4"))


def small_model(pooled: bool = False, echo: tuple = ECHO):
    data = gaussian_blobs([8, 8, 8], dim=5, seed=3)
    proj = fit_fisher(data)
    z = project_dataset(proj, data)
    sched = TrainingSchedule(
        iterations=200, alpha0=0.5, alpha_final=0.01, sigma0=1.0, sigma_final=0.5, seed=0
    )
    if pooled:
        som = train(init_map(2, 2, z.dim, seed=0, data=z), z, sched)
        return FittedPipeline(proj, som=som, mode="append", echo=echo), z
    return FittedPipeline(proj, csom=train_csom(z, 2, 2, sched), echo=echo), z


class TestFnv1a64:
    def test_published_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_order_sensitive(self):
        assert fnv1a64(b"ab") != fnv1a64(b"ba")

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.binary(max_size=3 * FNV_BLOCK))
    # at and across the 8-byte words of the prefix XOR and the hashing blocks
    @example(b"")
    @example(b"\xa7")
    @example(np.random.default_rng(7).bytes(7))
    @example(np.random.default_rng(8).bytes(8))
    @example(np.random.default_rng(9).bytes(9))
    @example(np.random.default_rng(1).bytes(FNV_BLOCK - 1))
    @example(np.random.default_rng(2).bytes(FNV_BLOCK))
    @example(np.random.default_rng(3).bytes(FNV_BLOCK + 1))
    @example(np.random.default_rng(4).bytes(2 * FNV_BLOCK + 5))
    @example(bytes(2 * FNV_BLOCK + 5))
    @example(b"\xff" * (2 * FNV_BLOCK + 5))
    def test_matches_byte_loop(self, data):
        assert fnv1a64(data) == fnv_oracle(data)

    def test_any_bytes_like(self):
        data = np.random.default_rng(5).bytes(FNV_BLOCK + 9)
        digest = fnv_oracle(data)
        assert fnv1a64(data) == fnv1a64(bytearray(data)) == fnv1a64(memoryview(data)) == digest

    def test_memory_is_bounded_by_blocks(self):
        data = np.random.default_rng(6).bytes(4 << 20)
        fnv1a64(b"x")  # the powers table is built once, on the first call
        tracemalloc.start()
        try:
            fnv1a64(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's work arrays; a whole-input pass would need 8 bytes per byte
        assert peak < 32 * FNV_BLOCK

    def test_multi_block_model(self, tmp_path):
        data = gaussian_blobs([8, 8, 8, 8, 8], dim=6, seed=4)
        proj = fit_fisher(data)
        z = project_dataset(proj, data)
        model = FittedPipeline(proj, som=init_map(64, 64, z.dim, seed=0, data=z), mode="append")
        p = tmp_path / "big.model"
        save_model(p, model)
        text = p.read_text()
        body = text[: text.index("[checksum]\n")].encode("ascii")
        assert len(body) > 10 * FNV_BLOCK
        assert text.endswith(f"fnv1a64 {fnv_oracle(body):016x}\n")
        assert serialize_model(load_model(p)) == text
        pos = len(body) - 2  # the last digit of the last weight, in the last block
        edited = body[:pos] + (b"1" if body[pos:pos + 1] != b"1" else b"2") + body[pos + 1:]
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            parse_model(edited.decode("ascii") + text[len(body):])


class TestRoundTrip:
    @pytest.mark.parametrize("pooled", [False, True])
    def test_save_load_save_is_identity(self, pooled):
        model, _ = small_model(pooled)
        text = serialize_model(model)
        assert serialize_model(parse_model(text)) == text

    def test_no_echo(self):
        model, _ = small_model(echo=())
        text = serialize_model(model)
        assert "[pipeline]" not in text
        assert serialize_model(parse_model(text)) == text

    def test_fields_survive(self):
        model, _ = small_model()
        back = parse_model(serialize_model(model))
        assert back.mode == model.mode
        assert back.echo == ECHO
        assert not back.single_som
        np.testing.assert_array_equal(back.fisher.mean, model.fisher.mean)
        np.testing.assert_array_equal(back.fisher.pca_basis, model.fisher.pca_basis)
        np.testing.assert_array_equal(back.fisher.lda_basis, model.fisher.lda_basis)
        for (cid_a, som_a), (cid_b, som_b) in zip(back.csom.entries, model.csom.entries):
            assert cid_a == cid_b
            assert (som_a.rows, som_a.cols) == (som_b.rows, som_b.cols)
            np.testing.assert_array_equal(som_a.weights, som_b.weights)

    def test_file_io(self, tmp_path):
        model, _ = small_model(pooled=True)
        p = tmp_path / "m.model"
        save_model(p, model)
        assert serialize_model(load_model(p)) == serialize_model(model)

    def test_classifications_survive_persistence(self, tmp_path):
        model, z = small_model()
        p = tmp_path / "m.model"
        save_model(p, model)
        back = load_model(p)
        before = [classify(model.csom, x)[0] for x in z.X]
        after = [classify(back.csom, x)[0] for x in z.X]
        assert before == after
        np.testing.assert_array_equal(
            transform_replace(model.csom, z.without_labels()).X,
            transform_replace(back.csom, z.without_labels()).X,
        )

    def test_comments_and_blanks_ignored(self):
        model, _ = small_model()
        text = serialize_model(model)
        noisy = reseal(text.replace("[model]\n", "# a note\n\n[model]\n\n", 1))
        assert serialize_model(parse_model(noisy)) == text


class TestRowLines:
    def test_rows_match_per_value_format(self):
        # one "%.17g" template per row writes what format_value writes for
        # each value, signed zeros, subnormals and the extremes included,
        # with the model file's space and the CSV's comma alike
        rng = np.random.default_rng(5)
        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 1.0, 0.1, 1 / 3])
        for sep in (" ", ","):
            for cols in (1, 2, 6, 9):
                m = rng.normal(size=(40, cols)) * 10.0 ** rng.integers(-300, 300, size=(40, cols))
                m.flat[rng.choice(m.size, size=min(m.size, 30), replace=False)] = rng.choice(special, size=min(m.size, 30))
                expected = [sep.join(format_value(v) for v in row) for row in m]
                assert format_rows(m, sep) == expected
            assert format_rows(special[None, :], sep) == [sep.join(format_value(v) for v in special)]
            assert format_rows(special[None, :], sep)[0].split(sep)[:3] == ["-0", "0", "4.9406564584124654e-324"]


class TestCorruption:
    def test_tampered_payload(self):
        model, _ = small_model()
        text = serialize_model(model)
        line = text.splitlines()[6]  # somewhere inside the numeric payload
        tampered = text.replace(line, line + " ", 1)
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            parse_model(tampered)

    def test_missing_checksum(self):
        model, _ = small_model()
        body = serialize_model(model).rsplit("[checksum]", 1)[0]
        with pytest.raises(FormatError, match="checksum"):
            parse_model(body)

    def test_bad_digest_lines(self):
        model, _ = small_model()
        text = serialize_model(model)
        good = text.splitlines()[-1]
        for bad in ("fnv1a64 xyz", "md5 0123456789abcdef", "fnv1a64 abc"):
            with pytest.raises(FormatError):
                parse_model(text.replace(good, bad))

    def test_unsupported_version(self):
        model, _ = small_model()
        text = reseal(serialize_model(model).replace("version 1", "version 7", 1))
        with pytest.raises(FormatError, match="version"):
            parse_model(text)

    @pytest.mark.parametrize(
        "bad", ["+1", "1_0", "-1", "1.0", "\u0661", pytest.param("1" * 5000, id="5000_digits")]
    )
    def test_version_is_plain_digits(self, bad):
        model, _ = small_model()
        text = reseal(serialize_model(model).replace("version 1", f"version {bad}", 1))
        with pytest.raises(FormatError, match=r"^bad version value "):
            parse_model(text)

    @pytest.mark.parametrize(
        "kind, good, bad",
        [
            ("som", "[som 0 2 2]", "[som 0 2 2]]]"),
            ("som", "[som 0 2 2]", "[som 0 +2 2]"),
            ("som", "[som 0 2 2]", "[som 0 2 2_0]"),
            ("som", "[som 0 2 2]", "[som 0 2 \u0662]"),
            ("matrix", "[matrix mean 1 5]", "[matrix mean 1 5]]"),
            ("matrix", "[matrix mean 1 5]", "[matrix mean +1 5]"),
            ("matrix", "[matrix mean 1 5]", "[matrix mean 1 0x5]"),
            ("matrix", "[matrix mean 1 5]", "[matrix mean 9223372036854775808 5]"),
            pytest.param("som", "[som 0 2 2]", "[som 0 2 " + "9" * 5000 + "]", id="som-5000_digits"),
        ],
    )
    def test_section_sizes_are_plain_digits_closed_once(self, kind, good, bad):
        text = serialize_model(small_model()[0])
        assert good in text
        with pytest.raises(FormatError, match=rf"^bad {kind} header "):
            parse_model(reseal(text.replace(good, bad, 1)))

    def test_unknown_mode(self):
        model, _ = small_model()
        text = reseal(serialize_model(model).replace("mode replace", "mode shuffle", 1))
        with pytest.raises(FormatError, match="mode"):
            parse_model(text)

    def test_bad_single_som_flag(self):
        model, _ = small_model()
        text = reseal(serialize_model(model).replace("single_som 0", "single_som 2", 1))
        with pytest.raises(FormatError, match="single_som"):
            parse_model(text)

    def test_junk_float(self):
        model, _ = small_model()
        lines = serialize_model(model).splitlines(keepends=True)
        row = next(i for i, l in enumerate(lines) if l.startswith("[matrix mean")) + 1
        lines[row] = lines[row].replace(lines[row].split()[0], "spam", 1)
        with pytest.raises(FormatError):
            parse_model(reseal("".join(lines)))

    def test_wrong_value_count(self):
        model, _ = small_model()
        lines = serialize_model(model).splitlines(keepends=True)
        row = next(i for i, l in enumerate(lines) if l.startswith("[matrix mean")) + 1
        lines[row] = lines[row].rstrip("\n") + " 0.5\n"
        with pytest.raises(FormatError, match="expected"):
            parse_model(reseal("".join(lines)))

    def test_pooled_tag_mismatches(self):
        percls = serialize_model(small_model()[0])
        pooled = serialize_model(small_model(pooled=True)[0])
        with pytest.raises(FormatError, match="pooled"):
            parse_model(reseal(percls.replace("single_som 0", "single_som 1", 1)))
        with pytest.raises(FormatError, match="pooled"):
            parse_model(reseal(pooled.replace("single_som 1", "single_som 0", 1)))

    def test_bad_class_tag(self):
        model, _ = small_model()
        text = reseal(serialize_model(model).replace("[som 0 ", "[som x ", 1))
        with pytest.raises(FormatError, match="class id"):
            parse_model(text)

    @pytest.mark.parametrize(
        "tag", ["+2", "2_0", "-5", "\u0662", "9223372036854775808", "99999999999999999999"]
    )
    def test_class_tag_is_plain_digits_below_2_63(self, tag):
        text = serialize_model(small_model()[0])
        with pytest.raises(FormatError, match=r"^bad class id "):
            parse_model(reseal(text.replace("[som 2 ", f"[som {tag} ", 1)))

    def test_largest_class_tag_loads(self):
        text = serialize_model(small_model()[0]).replace("[som 2 ", "[som 9223372036854775807 ", 1)
        assert parse_model(reseal(text)).csom.class_ids.tolist() == [0, 1, 2**63 - 1]

    def test_truncated_body(self):
        model, _ = small_model()
        lines = serialize_model(model).splitlines(keepends=True)
        with pytest.raises(FormatError):
            parse_model(reseal("".join(lines[:8])))

    def test_non_ascii_file(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_bytes("[model]\n# caf\xe9\n".encode("latin-1"))
        with pytest.raises(FormatError, match="ascii"):
            load_model(p)


# A small per-class model written by hand, so that every message below,
# digests included, is fixed text.
_BASE = """# texture map model
[model]
version 1
mode replace
single_som 0
[pipeline]
roi_mode blockwise
[matrix mean 1 3]
0.5 -1 2
[matrix pca 3 2]
1 0
0 1
0 0
[matrix lda 2 2]
1 0
0 0.5
[som 0 1 2]
0 1
2 3
[som 4 2 1]
-1 -2
-3 -4
"""

# (id, text replaced in _BASE, its replacement, the exact message); the
# edited body is resealed, so each parse gets past the checksum
_RESEALED = [
    ("end_in_header", _BASE[_BASE.index("mode replace") :], "", "unexpected end of model file"),
    ("end_in_som", "-3 -4\n", "", "unexpected end of model file"),
    ("matrix_row_width", "0.5 -1 2", "0.5 -1 2 3", "matrix mean row 0: expected 3 values, got 4"),
    ("matrix_row_float", "0.5 -1 2", "0.5 spam 2",
     "matrix mean row 0: could not convert string to float: 'spam'"),
    ("som_unit_width", "2 3\n", "2\n", "som 0 unit 1: expected 2 values, got 1"),
    ("som_unit_float", "-3 -4", "-3 0x4", "som 4 unit 1: could not convert string to float: '0x4'"),
    ("matrix_unclosed", "[matrix mean 1 3]", "[matrix mean 1 3",
     "expected [matrix mean ...] section, got '[matrix mean 1 3'"),
    ("matrix_fields", "[matrix pca 3 2]", "[matrix pca 3]",
     "expected [matrix pca ...] section, got '[matrix pca 3]'"),
    ("matrix_name", "[matrix lda 2 2]", "[matrix LDA 2 2]",
     "expected [matrix lda ...] section, got '[matrix LDA 2 2]'"),
    ("matrix_kind", "[matrix mean 1 3]", "[som mean 1 3]",
     "expected [matrix mean ...] section, got '[som mean 1 3]'"),
    ("matrix_closed_twice", "[matrix mean 1 3]", "[matrix mean 1 3]]",
     "bad matrix header '[matrix mean 1 3]]'"),
    ("matrix_sizes_before_name", "[matrix mean 1 3]", "[matrix avg +1 3]",
     "bad matrix header '[matrix avg +1 3]'"),
    ("matrix_empty", "[matrix pca 3 2]", "[matrix pca 0 2]",
     "matrix pca must have positive shape, got 0x2"),
    ("mean_rows", "[matrix mean 1 3]\n0.5 -1 2\n", "[matrix mean 2 3]\n0.5 -1 2\n1 1 1\n",
     "mean must be a single row"),
    ("lda_missing", "[matrix lda 2 2]\n1 0\n0 0.5\n", "",
     "expected [matrix lda ...] section, got '[som 0 1 2]'"),
    ("som_unclosed", "[som 4 2 1]", "[som 4 2 1", "expected [som ...] section, got '[som 4 2 1'"),
    ("som_fields", "[som 4 2 1]", "[som 4 2]", "expected [som ...] section, got '[som 4 2]'"),
    ("som_kind", "[som 4 2 1]", "[map 4 2 1]", "expected [som ...] section, got '[map 4 2 1]'"),
    ("som_sizes", "[som 4 2 1]", "[som 4 2 -1]", "bad som header '[som 4 2 -1]'"),
    ("som_empty", "[som 4 2 1]", "[som 4 0 1]", "som grid must be positive, got 0x1"),
    ("stray_line", "-3 -4\n", "-3 -4\njunk\n", "expected [som ...] section, got 'junk'"),
    ("no_maps", _BASE[_BASE.index("[som 0") :], "", "model file has no map sections"),
    ("no_model", "[model]", "[models]", "model file must start with a [model] section"),
    ("version_key", "version 1", "versions 1", "expected 'version <value>', got 'versions 1'"),
    ("version_value", "version 1", "version +1", "bad version value '+1'"),
    ("version_unsupported", "version 1", "version 0002", "unsupported model version 2"),
    ("mode_value_missing", "mode replace", "mode", "expected 'mode <value>', got 'mode'"),
    ("mode_value", "mode replace", "mode shuffle", "unknown mode 'shuffle'"),
    ("single_som_value", "single_som 0", "single_som 00", "single_som must be 0 or 1, got '00'"),
    ("echo_line", "roi_mode blockwise", "roi_mode",
     "pipeline echo needs 'key value' lines, got 'roi_mode'"),
    ("single_som_with_class_maps", "single_som 0", "single_som 1",
     "single_som file must contain exactly one pooled map"),
    ("pooled_map_per_class", "[som 4 ", "[som pooled ", "per-class file cannot contain a pooled map"),
    ("class_id", "[som 4 ", "[som four ", "bad class id 'four'"),
    ("class_ids_descending", "[som 0 ", "[som 5 ",
     "inconsistent model contents: class ids must be strictly ascending"),
    ("pca_rows", "[matrix pca 3 2]\n1 0\n0 1\n0 0\n", "[matrix pca 2 2]\n1 0\n0 1\n",
     "inconsistent model contents: pca_basis rows must match the input dimension"),
    ("mean_nan", "0.5 -1 2", "0.5 nan 2",
     "inconsistent model contents: projection mean and bases must be finite"),
    ("lda_inf", "0 0.5", "0 -inf",
     "inconsistent model contents: projection mean and bases must be finite"),
    ("matrix_row_underscore", "0.5 -1 2", "0.5 -1 2_0",
     "matrix mean row 0: could not convert string to float: '2_0'"),
    ("som_unit_non_ascii", "-3 -4", "-3 \u0664",
     "som 4 unit 1: could not convert string to float: '\u0664'"),
    ("som_weight_nan", "2 3\n", "2 nan\n",
     "inconsistent model contents: prototype components must be finite"),
    ("som_weight_inf", "-3 -4", "-inf -4",
     "inconsistent model contents: prototype components must be finite"),
]

# (id, whole file, the exact message) for the checksum lines themselves
_SEALED = reseal(_BASE)
# a body whose digest, 02a7b44dd100a40b, starts with a zero
_ZERO_LED = reseal(_BASE.replace("# texture map model", "# texture map model 20"))
_CHECKSUMS = [
    ("no_checksum", _BASE, "model file must end with a [checksum] section"),
    ("checksum_line", _SEALED.replace("fnv1a64 ", "md5 "), "bad checksum line 'md5 297bf9b58df67fc1'"),
    ("digest_hex", _SEALED.replace("fc1\n", "fcz\n"), "bad checksum digest '297bf9b58df67fcz'"),
    ("digest_length", _SEALED.replace("fc1\n", "fc\n"), "checksum digest must be 16 hex digits"),
    # int(..., 16) reads each of these spellings as the file's own digest
    ("digest_sign", _ZERO_LED.replace(" 02a7b", " +2a7b"), "bad checksum digest '+2a7b44dd100a40b'"),
    ("digest_underscore", _ZERO_LED.replace(" 02a7b", " 2_a7b"),
     "bad checksum digest '2_a7b44dd100a40b'"),
    ("digest_non_ascii", _ZERO_LED.replace(" 02a7b", " \u06602a7b"),
     "bad checksum digest '\u06602a7b44dd100a40b'"),
    # only the lower-case digest that serialize_model writes is the file's own
    ("digest_upper_case", _SEALED.replace("297bf9b58df67fc1", "297BF9B58DF67FC1"),
     "bad checksum digest '297BF9B58DF67FC1'"),
    ("digest_upper_case_short", _SEALED.replace("297bf9b58df67fc1", "297BF9B58DF67FC"),
     "bad checksum digest '297BF9B58DF67FC'"),
]


class TestReaderMessages:
    """Every message the model reader raises, word for word."""

    def test_base_model_loads(self):
        model = parse_model(_SEALED)
        assert model.csom.class_ids.tolist() == [0, 4]
        assert serialize_model(model).startswith(_BASE)
        assert _ZERO_LED.endswith("fnv1a64 02a7b44dd100a40b\n")
        assert serialize_model(parse_model(_ZERO_LED)) == _SEALED

    @pytest.mark.parametrize(
        "old, new, message", [case[1:] for case in _RESEALED], ids=[case[0] for case in _RESEALED]
    )
    def test_resealed_edit(self, old, new, message):
        assert _BASE.count(old) >= 1
        with pytest.raises(FormatError) as info:
            parse_model(reseal(_BASE.replace(old, new, 1)))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message", [case[1:] for case in _CHECKSUMS], ids=[case[0] for case in _CHECKSUMS]
    )
    def test_checksum_lines(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_model(text)
        assert str(info.value) == message

    def test_digest_mismatch(self):
        with pytest.raises(IntegrityError) as info:
            parse_model(_SEALED.replace("0.5 -1 2", "0.5 -1 3"))
        assert str(info.value) == (
            "checksum mismatch: file says 297bf9b58df67fc1, content hashes to 48d35e358060b0c0"
        )


class TestSavedModelValidation:
    def test_exactly_one_map_group(self):
        model, _ = small_model()
        pooled, _ = small_model(pooled=True)
        with pytest.raises(ValueError):
            FittedPipeline(model.fisher, csom=model.csom, som=pooled.som)
        # a map-less (raw) pipeline exists for evaluation but has no model file
        with pytest.raises(ValueError, match="map"):
            serialize_model(FittedPipeline(model.fisher))

    def test_dim_mismatch(self):
        model, _ = small_model()
        wrong = SomMap(1, 2, np.zeros((2, model.fisher.dim + 1)))
        with pytest.raises(ValueError, match="dimension"):
            FittedPipeline(model.fisher, som=wrong)

    def test_bad_mode(self):
        model, _ = small_model()
        with pytest.raises(ValueError, match="mode"):
            FittedPipeline(model.fisher, csom=model.csom, mode="swap")

    def test_bad_echo_entries(self):
        model, _ = small_model()
        for echo in [(("two words", "v"),), (("k", ""),), (("", "v"),), (("k", "a\nb"),)]:
            with pytest.raises(ValueError, match="pipeline echo"):
                FittedPipeline(model.fisher, csom=model.csom, echo=echo)
