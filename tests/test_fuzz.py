"""Property-based fuzzing of the input parsers and of the command line.

Malformed PGM bytes, features CSV text, model files and manifests may only
raise the package's own errors, which the CLI maps to its documented exit
codes; anything else would reach the user as a traceback, or as exit 1 (a
usage error) for a ValueError.  Only a manifest that lists no image is a
usage error.
Mutated command lines and input files must end every subcommand with one
of those exit codes and, when it fails, leave the files as they were.
Runs are derandomized, so the suite gives the same result every time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csomtex import ExperimentConfig, FittedPipeline, Image, load_pgm, save_pgm
from csomtex.cli import main, read_manifest
from csomtex.data import dataset_from_csv, dataset_to_csv
from csomtex.errors import Error
from csomtex.model_io import fnv1a64, parse_model, serialize_model
from helpers import FUZZ, gaussian_blobs, mutations


def _must_not_escape(fn, *args, allowed=Error):
    try:
        return fn(*args)
    except allowed:
        return None


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
@example(b"P2\n2 1\n255\n1 " + b"9" * 20 + b"\n")
@example(b"P2\n" + b"9" * 5000 + b" 1\n255\n1\n")
@example(b"P2\n2 1\n255\n1 " + b"9" * 5000 + b"\n")
def test_load_pgm(data):
    _must_not_escape(load_pgm, data)


_CSV = "f0,f1,label\n0.5,1e-3,0\n-2,3.25,1\n4,5,\n"


@FUZZ
@given(st.one_of(st.text(max_size=64), mutations(_CSV, _TEXT_CHUNKS)))
@example("f0,f1,label\n1\r2,3,0\n")
@example("f0,label\n" + "1" * 200_000 + ",0\n")
@example('f0,label\n"1\n2",0\n')
@example("f0,label\n1,99999999999999999999\n")
@example("f0,label\n1,+1\n2,1_0\n")
@example("f0,label\n1,\u0662\n")
@example("f0,label\n1,-0\n2, 1\n")
@example("f0,label\n1," + "9" * 5000 + "\n")
@example("f0,label\n1,-" + "9" * 5000 + "\n")
@example("f0,label\n1_0,0\n")
@example("f0,label\n 2,0\n")
@example("f0,label\n\u0660,0\n")
def test_dataset_from_csv(text):
    _must_not_escape(dataset_from_csv, text)


def _model_text() -> str:
    data = gaussian_blobs([4, 4, 4], dim=3, seed=1)
    cfg = ExperimentConfig(map_rows=1, map_cols=2, steps_per_sample=2)
    return serialize_model(FittedPipeline.fit(data, cfg))


_MODEL = _model_text()


def _reseal(text: str) -> str:
    """A mutated model body under a checksum that matches it, so that the
    parse gets past the digest."""
    body = text.rpartition("[checksum]")[0]
    if not body.endswith("\n"):
        body += "\n"
    digest = fnv1a64(body.encode("ascii", errors="replace"))
    return body + f"[checksum]\nfnv1a64 {digest:016x}\n"


def _with_value(text: str, line: int, col: int, token: str) -> str:
    """``text`` with one whole value of a numeric line (matrix row or map
    unit; both indexes taken modulo their counts) replaced by ``token``."""
    lines = text.split("\n")
    rows = [i for i, row in enumerate(lines) if row[:1] in tuple("-0123456789")]
    i = rows[line % len(rows)]
    values = lines[i].split()
    values[col % len(values)] = token
    lines[i] = " ".join(values)
    return "\n".join(lines)


# resealed models with a nan or inf where a finite value was
_NON_FINITE_MODELS = st.builds(
    _with_value,
    st.just(_MODEL),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "NaN", "Infinity", "1e999"]),
).map(_reseal)


@FUZZ
@given(st.one_of(
    mutations(_MODEL, _TEXT_CHUNKS),
    mutations(_MODEL, _TEXT_CHUNKS).map(_reseal),
    _NON_FINITE_MODELS,
))
@example(_reseal(_MODEL.replace("[matrix pca 3 ", "[matrix pca 999999999999 ", 1)))
@example(_reseal(_MODEL.replace("[som 0 1 2]", "[som 0 99999 999999]", 1)))
@example(_reseal(_MODEL.replace("[som 0 1 2]", "[som 0 1 " + "9" * 5000 + "]", 1)))
@example(_reseal(_MODEL.replace("version 1", "version " + "1" * 5000, 1)))
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
@example(b"a.pgm,99999999999999999999\n")
@example(b"a.pgm,+1\nb.pgm,1_0\n")
@example("a.pgm,\u0662\n".encode())
@example(b"a.pgm,-0\n")
@example(b"a.pgm," + b"9" * 5000 + b"\n")
@example(b"a.pgm,-" + b"9" * 5000 + b"\n")
def test_read_manifest(tmp_path, data):
    path = tmp_path / "manifest.txt"
    path.write_bytes(data)
    entries = _must_not_escape(read_manifest, path, allowed=(Error, ValueError))
    if entries:  # extract keeps the class ids as int64 labels
        np.array([label for _, label in entries], dtype=np.int64)


# The command-line fuzz: every subcommand on small valid inputs, then one to
# four edits to its argument list and at most one input file.  Inputs live
# in in/, and the command runs in work/, so a relative output path lands
# there; generated tokens hold no "/", so nothing is written elsewhere.
_CONFIG = {
    "roi": {"mode": "blockwise", "block_size": 4},
    "texture": {"levels": 4},
    "map": {"rows": 1, "cols": 2},
    "folds": 2,
    "schedule": {"steps_per_sample": 2},
}
_PGMS = {
    f"c{c}_{i}.pgm": save_pgm(Image(np.random.default_rng(i).integers(0, 16 * c + 16, (8, 8)), 255))
    for c in range(3)
    for i in range(2)
}
_INPUTS = {
    "config.json": json.dumps(_CONFIG).encode(),
    "feats.csv": dataset_to_csv(gaussian_blobs([4, 4, 4], dim=3, seed=1)).encode(),
    "model.txt": _MODEL.encode(),
    "manifest.txt": "".join(f"{name},{name[1]}\n" for name in _PGMS).encode(),
    **_PGMS,
}
_ARGVS = [
    ["extract", "{in}/manifest.txt", "-o", "feats.csv", "--config", "{in}/config.json",
     "--dump-masks", "masks"],
    ["train", "{in}/feats.csv", "-o", "model.txt", "--config", "{in}/config.json",
     "--mode", "append", "--seed", "3"],
    ["train", "{in}/feats.csv", "-o", "model.txt", "--config", "{in}/config.json", "--single-som"],
    ["transform", "{in}/model.txt", "{in}/feats.csv", "-o", "out.csv", "--mode", "append"],
    ["classify", "{in}/model.txt", "{in}/feats.csv", "-o", "out.csv", "--errors"],
    ["classify", "{in}/model.txt", "--vector=0.5,-1,2", "--errors"],
    ["evaluate", "{in}/feats.csv", "-o", "out.csv", "--config", "{in}/config.json"],
]
_ARGV_TOKENS = st.one_of(
    st.sampled_from(
        ["extract", "train", "transform", "classify", "evaluate", "-o", "--output", "--config",
         "--seed", "--mode", "--single-som", "--errors", "--vector", "--dump-masks", "--help",
         "--version", "--", "-", "", "append", "replace", "-1", "0", "7", "1,2,3", "1e308,1,1",
         "nan,0,0", "{in}/feats.csv", "{in}/model.txt", "{in}/config.json", "{in}/manifest.txt",
         "{in}/c0_0.pgm", "{in}", "{in}/absent", "out.csv", "masks", "work/deeper.csv"]
    ),
    st.text(st.characters(blacklist_characters="/"), max_size=6),
)
# JSON tokens without digits, so no edit can ask for a long training run
_CONFIG_CHUNKS = st.one_of(
    st.text(st.characters(blacklist_categories=["Nd"]), max_size=4),
    st.sampled_from(
        ['"', ":", ",", "{", "}", "[", "]", "null", "true", "-", "1e999", ".5", '"folds"',
         '"fisher_dim"', '"map"', '"rows"', '"knn_k"', '"evaluate"', '"mode"', '"holdout"']
    ),
)
_DATA_FILES = [
    ("feats.csv", _TEXT_CHUNKS.map(str.encode)),
    ("model.txt", _TEXT_CHUNKS.map(str.encode)),
    ("manifest.txt", _TEXT_CHUNKS.map(str.encode)),
    ("c0_0.pgm", st.binary(min_size=1, max_size=4)),
]


def _file_edits(name, chunks):
    return mutations(_INPUTS[name], chunks).map(lambda data: (name, data))


# model edits under a matching checksum, so that the parse gets past it
_RESEALED_EDITS = st.one_of(
    mutations(_MODEL, _TEXT_CHUNKS).map(_reseal), _NON_FINITE_MODELS
).map(lambda text: ("model.txt", text.encode()))
_FILE_EDITS = st.one_of(
    st.none(),
    _file_edits("config.json", _CONFIG_CHUNKS.map(str.encode)),
    *[_file_edits(name, chunks) for name, chunks in _DATA_FILES],
    _RESEALED_EDITS,
)


def _lists_no_image(data: bytes) -> bool:
    """Whether a manifest decodes to blank and comment lines only: a usage
    error (exit 1), as test_empty_manifest_is_usage_error pins."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return all(not line.strip() or line.strip().startswith("#") for line in lines)


# one edited input file that is not the config: whatever the edit, the
# fault is the data's, so an unedited command line exits 0, 2 or 3
_DATA_EDITS = st.one_of(
    *[_file_edits(name, chunks) for name, chunks in _DATA_FILES], _RESEALED_EDITS
).filter(lambda edit: not (edit[0] == "manifest.txt" and _lists_no_image(edit[1])))


def _snapshot(root: str) -> dict:
    """Every directory and file under ``root``, with the files' bytes."""
    found = {}
    for path, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.join(path, name)] = None
        for name in files:
            with open(os.path.join(path, name), "rb") as fh:
                found[os.path.join(path, name)] = fh.read()
    return found


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(_ARGVS).flatmap(
        lambda argv: st.one_of(st.just(argv), mutations(argv, st.lists(_ARGV_TOKENS, max_size=2)))
    ),
    _FILE_EDITS,
)
def test_cli_main(argv, edit):
    assert _run_main(argv, edit) in (0, 1, 2, 3)


# the two model-reader faults the blame property was written for: a map
# weight of nan exited 1, and an upper-case digest loaded (its model then
# saved to other bytes)
_NAN_WEIGHT = _reseal(_with_value(_MODEL, -1, 0, "nan"))
_UPPER_DIGEST = _MODEL[:-17] + _MODEL[-17:].upper()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(_ARGVS), _DATA_EDITS)
@example(_ARGVS[4], ("model.txt", _NAN_WEIGHT.encode()))
@example(_ARGVS[4], ("model.txt", _UPPER_DIGEST.encode()))
# an image smaller than one 4x4 block exited 1
@example(_ARGVS[0], ("c0_0.pgm", save_pgm(Image(np.full((3, 8), 9), 255))))
def test_exit_code_blames_the_data(argv, edit):
    assert _run_main(argv, edit) in (0, 2, 3)


def _run_main(argv, edit) -> int:
    """``main(argv)`` in a fresh directory of the inputs, ``edit`` (a file
    name and its new bytes, or None) applied; checks that it printed no
    traceback and that a failure left every file as it was."""
    with tempfile.TemporaryDirectory() as root:
        inputs, work = os.path.join(root, "in"), os.path.join(root, "work")
        os.mkdir(inputs)
        os.mkdir(work)
        files = dict(_INPUTS)
        if edit:
            files[edit[0]] = edit[1]
        for name, data in files.items():
            with open(os.path.join(inputs, name), "wb") as fh:
                fh.write(data)
        before = _snapshot(root)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([token.replace("{in}", inputs) for token in argv])
        finally:
            os.chdir(cwd)
        after = _snapshot(root)
    assert "Traceback" not in err.getvalue()
    assert not [path for path in after if path.endswith(".tmp")]
    if code != 0:
        assert after == before
    return code
