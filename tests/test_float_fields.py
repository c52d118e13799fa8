"""One grammar for the float fields of every input.

A features-CSV cell, a ``classify --vector`` component and a model-file
value each accept a token exactly when ``float_fields`` does: a token that
``float()`` reads and that is printable ASCII with no space or ``_``.  Each
reads it to the same bits, and ``nan``, ``inf`` and ``1e400`` fail the
finite check that follows, not the grammar.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csomtex import FormatError, parse_model
from csomtex import cli as cli_mod
from csomtex.data import dataset_from_csv, float_fields
from helpers import FUZZ, bits, csv_oracle, reseal

# pieces of a token: digits, a point, an exponent, signs, a separator,
# whitespace, another script's zero, the non-finite words and a value
# past the float64 range
_PIECES = st.sampled_from(["1", ".", "e", "-", "+", "_", " ", "٠", "nan", "inf", "9" * 400])
_TOKENS = st.lists(_PIECES, min_size=1, max_size=4).map("".join)

# a one-dimensional per-class model whose projection is the identity, so a
# model value and a --vector component reach the code unchanged
_MODEL = """[model]
version 1
mode replace
single_som 0
[matrix mean 1 1]
{mean}
[matrix pca 1 1]
1
[matrix lda 1 1]
1
[som 0 1 1]
0
[som 1 1 1]
1
"""

_NOT_FINITE = "feature values must be finite"


def _spec(token: str) -> float | None:
    """The value the grammar gives ``token``, or None where it rejects it."""
    if not token.isascii() or not token.isprintable() or " " in token or "_" in token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def _field(token: str) -> float | None:
    values, bad = float_fields([token])
    assert (values is None) == (bad == 0)
    return None if values is None else float(values[0])


def _same(got, want: float) -> bool:
    return bits(np.array([got])) == bits(np.array([want]))


def _csv_cell(token: str):
    """The value a features-CSV cell reads to, None if the cell is rejected
    as non-numeric, or the finite check's message."""
    try:
        return float(dataset_from_csv(f"f0,label\n{token},\n").X[0, 0])
    except FormatError as exc:
        if str(exc) == "non-numeric feature in dataset CSV row 1":
            return None
        return str(exc)


def _vector(path, token: str, monkeypatch):
    """The value ``classify --vector`` projects, None if the component is a
    usage error of its own, or the finite check's message."""
    projected = []

    def spy(proj, data):
        projected.append(float(data.X[0, 0]))
        return project(proj, data)

    project = cli_mod.project_dataset
    err = io.StringIO()
    with (
        monkeypatch.context() as patch,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        patch.setattr(cli_mod, "project_dataset", spy)
        code = cli_mod.main(["classify", str(path), f"--vector={token}"])
    if code == 0:
        return projected[0]
    assert code == 1 and not projected
    message = err.getvalue()
    if message in (f"error: --vector component 1 is not a number: {token!r}\n",
                   "error: --vector component 1 is empty\n"):
        return None
    return message


def _model_value(token: str):
    """The value a model-file value reads to, None if the value is
    rejected, or the message of the check that follows."""
    try:
        return float(parse_model(reseal(_MODEL.format(mean=token))).fisher.mean[0])
    except FormatError as exc:
        if str(exc) == f"matrix mean row 0: could not convert string to float: {token!r}":
            return None
        return str(exc)


@settings(FUZZ, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(token=_TOKENS)
@example(token="1_0")
@example(token=" 2")
@example(token="٠")
@example(token="nan")
@example(token="-inf")
@example(token="1e400")
@example(token="9" * 400)
@example(token="+.1e-1")
@example(token="1.e1")
@example(token="--")  # which argparse hands over as an empty list
def test_every_float_field_reads_a_token_as_float_fields_does(token, tmp_path, monkeypatch):
    want = _field(token)
    spec = _spec(token)
    assert want == spec or (want is not None and math.isnan(want) and math.isnan(spec))
    finite = want is not None and math.isfinite(want)

    cell = _csv_cell(token)
    if want is None:
        assert cell is None
    elif finite:
        assert _same(cell, want)
    else:
        assert cell == f"invalid dataset CSV: {_NOT_FINITE}"

    path = tmp_path / "model.txt"
    path.write_text(reseal(_MODEL.format(mean="0")), encoding="ascii")
    component = _vector(path, token, monkeypatch)
    if want is None:
        assert component is None
    elif finite:
        assert _same(component, want)
    else:
        assert component == f"error: {_NOT_FINITE}\n"

    if token.split() == [token]:  # whitespace separates model-file values
        value = _model_value(token)
        if want is None:
            assert value is None
        elif finite:
            assert _same(value, want)
        else:
            assert value == "inconsistent model contents: projection mean and bases must be finite"


@FUZZ
@given(st.lists(_TOKENS, max_size=6))
def test_float_fields_reads_every_cell_or_names_the_first_bad_one(cells):
    values, bad = float_fields(cells)
    singles = [_field(cell) for cell in cells]
    if None in singles:
        assert values is None and bad == singles.index(None)
    else:
        assert bad is None
        np.testing.assert_array_equal(bits(values), bits(np.array(singles, dtype=np.float64)))


# cells of a features CSV whose feature cells obey the grammar's character
# rule, so that the old reader and the new must agree on every one of them
_CELLS = st.sampled_from(["0.5", "-2", "1e-3", "1e400", "nan", "x", "", "1e", "-0", "7", "+1"])
_LABELS = st.sampled_from(["", "0", "3", "-0", "-1", "x", "9" * 20])


@st.composite
def _csvs(draw):
    dim = draw(st.integers(1, 3))
    rows = [",".join([f"f{i}" for i in range(dim)] + ["label"])]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        cells = draw(st.lists(_CELLS, min_size=width, max_size=width))
        rows.append(",".join(cells + [draw(_LABELS)]))
    return "\n".join(rows) + "\n"


def _outcome(read, text: str):
    try:
        data = read(text)
    except FormatError as exc:
        return str(exc)
    return bits(data.X).tobytes(), data.X.shape, data.labels.tolist()


@FUZZ
@given(_csvs())
@example("f0,f1,label\n1,x,0\n2,3\n")
@example("f0,f1,label\n1,2,x\n3,x,0\n")
@example("f0,f1,label\n1,x,x\n")
@example("f0,label\n1,0\n2\nx,0\n")
@example("f0,label\nnan,0\n1,x\n")
@example("f0,label\n")
def test_dataset_from_csv_agrees_with_the_row_at_a_time_reader(text):
    assert _outcome(dataset_from_csv, text) == _outcome(csv_oracle, text)


@pytest.mark.parametrize("cell", ["1_0", " 2", "2 ", "٠", "\t1", "1 "])
def test_cells_the_old_reader_took_are_non_numeric(cell):
    assert csv_oracle(f"f0,label\n{cell},0\n").X.shape == (1, 1)
    with pytest.raises(FormatError) as info:
        dataset_from_csv(f"f0,label\n{cell},0\n")
    assert str(info.value) == "non-numeric feature in dataset CSV row 1"
