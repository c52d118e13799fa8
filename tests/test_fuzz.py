"""Property-based fuzzing of the input parsers.

Malformed PGM bytes, features CSV text, model files and manifests may only
raise the package's own errors or ValueError, which the CLI maps to its
documented exit codes; anything else would reach the user as a traceback.
Runs are derandomized, so the suite gives the same result every time.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csomtex import ExperimentConfig, FittedPipeline, Image, load_pgm, save_pgm
from csomtex.cli import read_manifest
from csomtex.data import dataset_from_csv
from csomtex.errors import Error
from csomtex.model_io import fnv1a64, parse_model, serialize_model
from helpers import gaussian_blobs

FUZZ = settings(max_examples=300, derandomize=True, deadline=None)


def _must_not_escape(fn, *args) -> None:
    try:
        fn(*args)
    except (Error, ValueError):
        pass


def _edit(base, edits):
    """``base`` with each (kind, position, chunk) edit applied in turn:
    r replaces, i inserts, d deletes len(chunk) items at the position."""
    for kind, pos, chunk in edits:
        pos %= len(base) + 1
        if kind == "r":
            base = base[:pos] + chunk + base[pos + len(chunk):]
        elif kind == "i":
            base = base[:pos] + chunk + base[pos:]
        else:
            base = base[:pos] + base[pos + len(chunk):]
    return base


def mutations(base, chunks):
    """``base`` (bytes or str) with one to four edits whose chunks ``chunks`` draws."""
    edit = st.tuples(st.sampled_from("rid"), st.integers(0, 10**6), chunks)
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _edit(base, edits))


# tokens the parsers give meaning to, so edits make near-valid inputs
_TEXT_CHUNKS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(
        ["\r", "\n", "\r\n", ",", " ", "#", "-", ".", "e308", "e-320", "nan", "inf",
         "0", "9", "99999999", '"', "label", "[", "]", "[som", "[matrix", "pooled"]
    ),
)

_IMAGE = Image([[1, 2, 3], [4, 255, 6]], 255)


@FUZZ
@given(st.one_of(
    st.binary(max_size=64),
    mutations(save_pgm(_IMAGE), st.binary(min_size=1, max_size=4)),
    mutations(save_pgm(_IMAGE, binary=False), st.binary(min_size=1, max_size=4)),
    mutations(save_pgm(_IMAGE, binary=False), _TEXT_CHUNKS.map(str.encode)),
))
@example(b"P5 3 2 65535\n\x00\x01")
@example(b"P2 99999999999 99999999999 255\n1 2 3")
def test_load_pgm(data):
    _must_not_escape(load_pgm, data)


_CSV = "f0,f1,label\n0.5,1e-3,0\n-2,3.25,1\n4,5,\n"


@FUZZ
@given(st.one_of(st.text(max_size=64), mutations(_CSV, _TEXT_CHUNKS)))
@example("f0,f1,label\n1\r2,3,0\n")
@example("f0,label\n" + "1" * 200_000 + ",0\n")
@example('f0,label\n"1\n2",0\n')
def test_dataset_from_csv(text):
    _must_not_escape(dataset_from_csv, text)


def _model_text() -> str:
    data = gaussian_blobs([4, 4, 4], dim=3, seed=1)
    cfg = ExperimentConfig(map_rows=1, map_cols=2, steps_per_sample=2)
    return serialize_model(FittedPipeline.fit(data, cfg, None))


_MODEL = _model_text()


def _reseal(text: str) -> str:
    """A mutated model body under a checksum that matches it, so that the
    parse gets past the digest."""
    body = text.rpartition("[checksum]")[0]
    if not body.endswith("\n"):
        body += "\n"
    digest = fnv1a64(body.encode("ascii", errors="replace"))
    return body + f"[checksum]\nfnv1a64 {digest:016x}\n"


@FUZZ
@given(st.one_of(
    mutations(_MODEL, _TEXT_CHUNKS),
    mutations(_MODEL, _TEXT_CHUNKS).map(_reseal),
))
@example(_reseal(_MODEL.replace("[matrix pca 3 ", "[matrix pca 999999999999 ", 1)))
@example(_reseal(_MODEL.replace("[som 0 1 2]", "[som 0 99999 999999]", 1)))
def test_parse_model(text):
    _must_not_escape(parse_model, text)


_MANIFEST = b"# corpus\nimgs/a.pgm,0\nb,c.pgm , 1\nunlabeled.pgm\n"


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.binary(max_size=64),
    mutations(_MANIFEST, st.binary(min_size=1, max_size=4)),
    mutations(_MANIFEST, _TEXT_CHUNKS.map(str.encode)),
))
@example(b"a.pgm,-1\n")
@example(b"\xff\xfe,0\n")
def test_read_manifest(tmp_path, data):
    path = tmp_path / "manifest.txt"
    path.write_bytes(data)
    _must_not_escape(read_manifest, path)
