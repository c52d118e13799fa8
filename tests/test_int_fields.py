"""One grammar for the integer fields of every input file.

A PGM header value or P2 sample, a model-file version, a features-CSV label, a manifest
class id and a config holdout key each accept a token exactly when
``plain_int`` reads it as a value below 2**63.  The two class-id fields of
data files, the CSV label and the manifest id, also take ``-`` before a
value of zero, so ``-0`` is class 0.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csomtex import FormatError, load_pgm, parse_model
from csomtex.cli import read_manifest
from csomtex.config import config_from_dict
from csomtex.data import dataset_from_csv, plain_int
from helpers import FUZZ, reseal

# pieces of a token: signs, separators, another script's numeral, leading
# zeros past Python's 4300-digit limit for int(), and 2**63 - 1 and 2**63
_PIECES = st.sampled_from(
    ["0", "1", "7", "-", "+", "_", " ", "٢", "000", "0" * 4400, "9" * 20,
     "9223372036854775807", "9223372036854775808"]
)
_TOKENS = st.lists(_PIECES, min_size=1, max_size=4).map("".join)


def _plain(token: str) -> int | None:
    """The value a field takes, or None where it must be rejected."""
    value = plain_int(token)
    return value if value is not None and value < 2**63 else None


def _class_id(token: str) -> int | None:
    if token.startswith("-"):
        return 0 if plain_int(token[1:]) == 0 else None
    return _plain(token)


def _pgm_width(token: str) -> int | None:
    """The width ``load_pgm`` reads from a header token, or None if it
    rejects the token itself."""
    try:
        return load_pgm(b"P2 " + token.encode() + b" 1 255\n0\n").width
    except FormatError as exc:
        if str(exc).startswith("invalid width token") or str(exc) == "PGM width value too large":
            return None
        return plain_int(token)  # a size the body does not match


def _pgm_sample(token: str) -> int | None:
    """The sample ``load_pgm`` reads from a P2 body token, or None if it
    rejects the token itself."""
    try:
        return int(load_pgm(b"P2 1 1 255\n" + token.encode() + b"\n").pixels[0, 0])
    except FormatError as exc:
        if str(exc).startswith("invalid pixel token") or str(exc) == "PGM pixel value too large":
            return None
        assert str(exc) == "PGM contains pixel values above the declared maxval"
        return plain_int(token)


def _model_version(token: str) -> int | None:
    try:
        parse_model(reseal(f"[model]\nversion {token}\n"))
    except FormatError as exc:
        message = str(exc)
        if message.startswith("bad version value"):
            return None
        if message.startswith("unsupported model version "):
            return int(message.rsplit(" ", 1)[1])
        assert message == "unexpected end of model file"
        return 1


def _csv_label(token: str) -> int | None:
    try:
        return int(dataset_from_csv(f"f0,label\n1,{token}\n").labels[0])
    except FormatError:
        return None


def _manifest_id(path, token: str) -> int | None:
    path.write_text(f"a.pgm,{token}\n", encoding="utf-8")
    try:
        return read_manifest(path)[0][1]
    except FormatError:
        return None


def _holdout_key(token: str) -> int | None:
    settings_ = {"evaluate": {"mode": "holdout", "holdout_counts": {token: 1}}}
    try:
        return next(iter(config_from_dict(settings_).holdout_counts))
    except ValueError as exc:
        assert "set_int_max_str_digits" not in str(exc)
        return None


@settings(FUZZ, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(token=_TOKENS)
@example(token="9223372036854775807")
@example(token="9223372036854775808")
@example(token="0" * 4400 + "7")
@example(token="-0")
@example(token="-" + "0" * 4400)
@example(token="-5")
@example(token="+1")
@example(token="1_0")
@example(token="٢")
def test_every_integer_field_reads_a_token_as_plain_int_does(token, tmp_path):
    want = _plain(token)
    assert _csv_label(token) == _class_id(token)
    stripped = token.strip(" ")  # a manifest strips the spaces around its id
    assert _manifest_id(tmp_path / "m.txt", token) == (_class_id(stripped) if stripped else -1)
    assert _holdout_key(token) == want
    if " " not in token:  # whitespace separates PGM and model-file tokens
        assert _pgm_width(token) == want
        assert _pgm_sample(token) == want
        assert _model_version(token) == want


class TestMessages:
    def test_bad_p2_sample_names_the_body(self):
        with pytest.raises(FormatError) as info:
            load_pgm(b"P2\n2 1\n255\n1 +2\n")
        assert str(info.value) == "invalid pixel token b'+2' in PGM body"

    def test_p2_sample_with_many_leading_zeros_reads_as_the_header_does(self):
        assert load_pgm(b"P2\n2 1\n255\n1 " + b"0" * 5000 + b"7\n").pixels.tolist() == [[1, 7]]

    @pytest.mark.parametrize(
        "sample, message",
        [
            (b"0" * 5000 + b"256", "PGM contains pixel values above the declared maxval"),
            (b"9" * 5000, "PGM pixel value too large"),
            (b"9223372036854775808", "PGM pixel value too large"),
        ],
        ids=["padded_256", "5000_nines", "2**63"],
    )
    def test_p2_sample_with_many_digits(self, sample, message):
        with pytest.raises(FormatError) as info:
            load_pgm(b"P2\n2 1\n255\n1 " + sample + b"\n")
        assert str(info.value) == message

    def test_bad_header_value_names_the_header(self):
        with pytest.raises(FormatError) as info:
            load_pgm(b"P2\n2 1_0\n255\n1 2\n")
        assert str(info.value) == "invalid height token b'1_0' in PGM header"

    @pytest.mark.parametrize(
        "key, message",
        [
            ("9" * 5000, "names a class id too large; class ids must be < 2**63"),
            ("9223372036854775808", "names a class id too large; class ids must be < 2**63"),
            ("1_0", "must map class ids (ASCII digits) to integer counts, got '1_0'"),
        ],
        ids=["5000_digits", "2**63", "underscore"],
    )
    def test_holdout_key(self, key, message):
        raw = {"evaluate": {"mode": "holdout", "holdout_counts": {key: 1}}}
        with pytest.raises(ValueError) as info:
            config_from_dict(raw)
        assert str(info.value) == f"config key 'holdout_counts' {message}"
