"""End-to-end command-line behavior, in-process via cli.main."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csomtex
from csomtex import (
    Dataset,
    FormatError,
    Image,
    classify,
    gnb_fit,
    load_model,
    load_pgm,
    mask_to_rle,
    preprocess,
    project,
    quantize,
    read_dataset,
    region_labels,
    region_masks,
    save_pgm,
)
from csomtex.cli import main, read_manifest
from csomtex.config import ToolConfig, load_config
from csomtex.data import dataset_to_csv
from csomtex.evaluation import MAX_MAP_UNITS
from helpers import gaussian_blobs, reseal

CLASSES = 3
PER_CLASS = 6


def _image(cls: int, idx: int) -> Image:
    """16x16 texture with class-specific structure and per-image jitter."""
    rng = np.random.default_rng(1000 * cls + idx)
    if cls == 0:
        px = rng.integers(1, 256, size=(16, 16))
    elif cls == 1:
        rows = np.where(np.arange(16) % 2 == 0, 20, 235)
        px = rows[:, None] + rng.integers(0, 21, size=(16, 16))
    else:
        cols = np.where(np.arange(16) % 2 == 0, 20, 235)
        px = cols[None, :] + rng.integers(0, 21, size=(16, 16))
    return Image(np.clip(px, 1, 255), 255)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    (root / "imgs").mkdir()
    labeled = []
    for cls in range(CLASSES):
        for idx in range(PER_CLASS):
            name = f"imgs/c{cls}_{idx}.pgm"
            (root / name).write_bytes(save_pgm(_image(cls, idx)))
            labeled.append(f"{name},{cls}")
    (root / "manifest.txt").write_text(
        "# synthetic corpus\n\n" + "\n".join(labeled) + "\n"
    )
    (root / "unlabeled.txt").write_text(
        "\n".join(line.rpartition(",")[0] for line in labeled[:4]) + "\n"
    )
    (root / "config.json").write_text(
        json.dumps(
            {
                "roi": {"mode": "blockwise", "block_size": 8},
                "texture": {"levels": 3},
                "map": {"rows": 2, "cols": 2},
                "folds": 3,
                "evaluate": {
                    "columns": [
                        {"pipeline": "raw", "label": "raw"},
                        {"pipeline": "csom-replace", "rows": 2, "cols": 2, "label": "csom2x2"},
                    ],
                    "classifiers": ["knn", "gnb"],
                    "seeds": [0, 1],
                },
            }
        )
    )
    return root


@pytest.fixture(scope="module")
def features_csv(corpus):
    out = corpus / "feats.csv"
    assert main(
        ["extract", str(corpus / "manifest.txt"), "-o", str(out),
         "--config", str(corpus / "config.json")]
    ) == 0
    return out


@pytest.fixture(scope="module")
def model_file(corpus, features_csv):
    out = corpus / "model.txt"
    assert main(
        ["train", str(features_csv), "-o", str(out), "--config", str(corpus / "config.json")]
    ) == 0
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestManifest:
    def test_parsing(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# c\n\na.pgm,0\nwith,commas.pgm,3\nplain.pgm\n")
        assert read_manifest(p) == [("a.pgm", 0), ("with,commas.pgm", 3), ("plain.pgm", -1)]

    def test_errors(self, tmp_path):
        p = tmp_path / "m.txt"
        for text, exc in [
            ("# only comments\n", ValueError),
            ("a.pgm,x\n", Exception),
            ("a.pgm,-2\n", Exception),
            (",3\n", Exception),
        ]:
            p.write_text(text)
            with pytest.raises(exc):
                read_manifest(p)


    @pytest.mark.parametrize(
        "text, exc, message",
        [
            ("# only comments\n\n", ValueError, "manifest {path} lists no images"),
            ("a.pgm,0\n,3\n", FormatError, "{path}:2: missing filename"),
            ("a.pgm,0\n , 3\n", FormatError, "{path}:2: missing filename"),
            ("a.pgm,x\n", FormatError, "{path}:1: bad class id 'x'"),
            ("a.pgm,-2\n", FormatError, "{path}:1: class ids must be >= 0"),
            ("a.pgm,9223372036854775808\n", FormatError,
             "{path}:1: class id too large; class ids must be < 2**63"),
        ],
        ids=["no_images", "missing_filename", "blank_filename", "class_id", "negative",
             "too_large"],
    )
    def test_error_messages(self, text, exc, message, tmp_path):
        """Every message the manifest reader raises, word for word."""
        p = tmp_path / "m.txt"
        p.write_text(text)
        with pytest.raises(exc) as info:
            read_manifest(p)
        assert type(info.value) is exc
        assert str(info.value) == message.format(path=p)


class TestExtract:
    def test_csv_shape(self, features_csv):
        lines = features_csv.read_text().splitlines()
        assert lines[0] == ",".join([f"f{i}" for i in range(16)] + ["label"])
        assert len(lines) == 1 + CLASSES * PER_CLASS
        assert lines[1].endswith(",0") and lines[-1].endswith(f",{CLASSES - 1}")

    def test_rerun_is_byte_identical(self, corpus, features_csv, tmp_path):
        out = tmp_path / "again.csv"
        assert main(
            ["extract", str(corpus / "manifest.txt"), "-o", str(out),
             "--config", str(corpus / "config.json")]
        ) == 0
        assert out.read_bytes() == features_csv.read_bytes()

    def test_unlabeled_manifest_leaves_label_cells_empty(self, corpus, tmp_path):
        out = tmp_path / "u.csv"
        assert main(
            ["extract", str(corpus / "unlabeled.txt"), "-o", str(out),
             "--config", str(corpus / "config.json")]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",label")
        assert len(lines) == 5
        assert all(line.endswith(",") for line in lines[1:])

    def test_dump_masks(self, corpus, tmp_path):
        out = tmp_path / "f.csv"
        masks = tmp_path / "masks"
        assert main(
            ["extract", str(corpus / "manifest.txt"), "-o", str(out),
             "--config", str(corpus / "config.json"), "--dump-masks", str(masks)]
        ) == 0
        files = sorted(masks.iterdir())
        assert len(files) == CLASSES * PER_CLASS
        assert files[0].name == "c0_0.masks.txt"
        # 16x16 image, 8x8 blocks: four regions, one RLE line each
        assert len(files[0].read_text().splitlines()) == 4
        cfg = load_config(corpus / "config.json")
        for f in files:
            img = load_pgm((corpus / "imgs" / f.name.replace(".masks.txt", ".pgm")).read_bytes())
            img = quantize(preprocess(img, cfg.preprocess), cfg.texture.levels)
            expected = [mask_to_rle(m) for m in region_masks(region_labels(img, cfg.roi))]
            assert f.read_text().splitlines() == expected, f.name

    @pytest.mark.parametrize("dump, output, keep", [
        ("masks", "masks", []),  # the CSV cannot replace the mask directory
        ("a/b", "a", []),  # nor a parent this run made
        ("masks", "masks", ["masks"]),  # an existing mask directory stays
    ])
    def test_failed_write_removes_dumped_masks(self, corpus, tmp_path, capsys, dump, output, keep):
        for name in keep:
            (tmp_path / name).mkdir()
        code, _, err = run(capsys, [
            "extract", str(corpus / "manifest.txt"), "-o", str(tmp_path / output),
            "--config", str(corpus / "config.json"), "--dump-masks", str(tmp_path / dump),
        ])
        assert code == 2
        assert "error:" in err
        # no mask files, no temporary files, only the directories there before
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == keep

    def test_missing_image_leaves_no_output(self, corpus, tmp_path, capsys):
        bad = tmp_path / "m.txt"
        bad.write_text("imgs/c0_0.pgm,0\nimgs/nope.pgm,1\n")
        out = tmp_path / "f.csv"
        code, _, err = run(capsys, [
            "extract", str(bad), "-o", str(out), "--config", str(corpus / "config.json"),
        ])
        # the manifest paths resolve against the manifest's own directory
        assert code == 2
        assert "error:" in err
        assert not out.exists()

    def test_signed_p2_sample_is_data_error(self, tmp_path, capsys):
        (tmp_path / "neg.pgm").write_bytes(b"P2\n2 1\n255\n1 -1\n")
        (tmp_path / "m.txt").write_text("neg.pgm,0\n")
        out = tmp_path / "f.csv"
        code, _, err = run(capsys, ["extract", str(tmp_path / "m.txt"), "-o", str(out)])
        assert code == 2
        assert "invalid pixel token b'-1'" in err
        assert not out.exists()

    @pytest.mark.parametrize("pixels, size", [
        (np.arange(1, 17).reshape(4, 4), "4x4"),
        # a 64x64 image whose foreground crops to 40x6
        (np.pad(np.full((6, 40), 200), ((29, 29), (12, 12))), "40x6"),
    ], ids=["small_image", "small_foreground"])
    def test_image_smaller_than_block_is_data_error(self, corpus, tmp_path, capsys, pixels,
                                                     size):
        (tmp_path / "s.pgm").write_bytes(save_pgm(Image(pixels, 255), binary=False))
        (tmp_path / "m.txt").write_text("s.pgm,0\n")
        out = tmp_path / "f.csv"
        code, _, err = run(capsys, [
            "extract", str(tmp_path / "m.txt"), "-o", str(out),
            "--config", str(corpus / "config.json"),
        ])
        assert code == 2
        assert err == (
            f"error: image 's.pgm' is {size} after preprocessing, smaller than one 8x8 block\n"
        )
        assert not out.exists()

    def test_levels_above_256_fail_before_any_image_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"texture": {"levels": 257}}))
        manifest = tmp_path / "m.txt"
        manifest.write_text("absent.pgm,0\n")
        code, _, err = run(capsys, [
            "extract", str(manifest), "-o", str(tmp_path / "f.csv"), "--config", str(cfg),
        ])
        assert code == 1
        assert "texture levels must lie in [2, 256], got 257" in err
        assert "absent.pgm" not in err
        assert not (tmp_path / "f.csv").exists()

    def test_empty_manifest_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("# nothing here\n")
        code, _, err = run(capsys, ["extract", str(p), "-o", str(tmp_path / "f.csv")])
        assert code == 1
        assert "no images" in err


class TestTrain:
    def test_model_contents(self, model_file):
        text = model_file.read_text()
        assert text.startswith("# texture map model\n[model]\n")
        assert "[pipeline]\nroi_mode blockwise\n" in text
        assert "texture_levels 3" in text
        for cid in range(CLASSES):
            assert f"[som {cid} 2 2]\n" in text
        assert "[som pooled" not in text

    def test_rerun_is_byte_identical(self, corpus, features_csv, model_file, tmp_path):
        out = tmp_path / "m2.txt"
        assert main(
            ["train", str(features_csv), "-o", str(out), "--config", str(corpus / "config.json")]
        ) == 0
        assert out.read_bytes() == model_file.read_bytes()

    def test_single_som(self, corpus, features_csv, tmp_path):
        out = tmp_path / "pooled.txt"
        assert main(
            ["train", str(features_csv), "-o", str(out),
             "--config", str(corpus / "config.json"), "--single-som"]
        ) == 0
        text = out.read_text()
        assert text.count("[som ") == 1
        assert "[som pooled 2 2]\n" in text

    def test_unlabeled_features_rejected(self, corpus, tmp_path, capsys):
        feats = tmp_path / "u.csv"
        main(["extract", str(corpus / "unlabeled.txt"), "-o", str(feats),
              "--config", str(corpus / "config.json")])
        code, _, err = run(capsys, ["train", str(feats), "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert "label" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_features_are_data_error(self, tmp_path, capsys):
        data = gaussian_blobs([10, 10, 10], dim=4)
        feats = tmp_path / "f.csv"
        feats.write_text(dataset_to_csv(Dataset(data.X * 1e200, data.labels)))
        code, _, err = run(capsys, ["train", str(feats), "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert err == (
            "error: feature magnitudes overflow the scatter matrix; rescale the features\n"
        )
        assert not (tmp_path / "m.txt").exists()


class TestTransform:
    def test_replace_width_and_prototypes(self, features_csv, model_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["transform", str(model_file), str(features_csv), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f0,f1,label"
        assert len(lines) == 1 + CLASSES * PER_CLASS
        model = load_model(model_file)
        prototypes = {
            tuple(w) for _, som in model.csom.entries for w in som.weights
        }
        for line in lines[1:]:
            *vals, label = line.split(",")
            assert tuple(float(v) for v in vals) in prototypes

    def test_append_mode_doubles_width(self, features_csv, model_file, tmp_path, capsys):
        code, out, _ = run(capsys, [
            "transform", str(model_file), str(features_csv), "--mode", "append",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "f0,f1,f2,f3,label"

    def test_stdout_default(self, features_csv, model_file, capsys):
        code, out, _ = run(capsys, ["transform", str(model_file), str(features_csv)])
        assert code == 0
        assert out.startswith("f0,f1,label\n")

    def test_output_through_symlink_and_to_devnull(self, features_csv, model_file, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        argv = ["transform", str(model_file), str(features_csv), "-o"]
        assert main(argv + [str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("f0,f1,label\n")
        assert main(argv + [os.devnull]) == 0


class TestClassify:
    def test_batch(self, features_csv, model_file, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, err = run(capsys, [
            "classify", str(model_file), str(features_csv), "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,label,predicted"
        assert len(lines) == 1 + CLASSES * PER_CLASS
        assert [l.split(",")[0] for l in lines[1:]] == [
            str(i) for i in range(CLASSES * PER_CLASS)
        ]
        assert err.startswith("accuracy ")

    def test_training_data_classifies_perfectly(self, features_csv, model_file, capsys):
        code, out, err = run(capsys, ["classify", str(model_file), str(features_csv)])
        assert code == 0
        assert f"({CLASSES * PER_CLASS}/{CLASSES * PER_CLASS})" in err
        for line in out.splitlines()[1:]:
            _, label, predicted = line.split(",")
            assert label == predicted

    def test_errors_columns(self, features_csv, model_file, capsys):
        code, out, _ = run(capsys, ["classify", str(model_file), str(features_csv), "--errors"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row,label,predicted,err_0,err_1,err_2"
        row = lines[1].split(",")
        errors = [float(v) for v in row[3:]]
        assert min(errors) == errors[int(row[2])]

    def test_vector(self, features_csv, model_file, capsys):
        first = features_csv.read_text().splitlines()[1]
        vec = ",".join(first.split(",")[:-1])
        code, out, _ = run(capsys, ["classify", str(model_file), "--vector", vec])
        assert code == 0
        assert out.strip() == "0"
        code, out, _ = run(capsys, ["classify", str(model_file), "--vector", vec, "--errors"])
        parts = out.split()
        assert parts[0] == "0" and len(parts) == 1 + CLASSES

    def test_vector_prints_the_cells_of_its_features_row(self, features_csv, model_file, capsys):
        code, out, _ = run(capsys, ["classify", str(model_file), str(features_csv), "--errors"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for line, cells in zip(features_csv.read_text().splitlines()[1:], rows, strict=True):
            vec = ",".join(line.split(",")[:-1])
            code, out, _ = run(capsys, ["classify", str(model_file), "--vector=" + vec, "--errors"])
            assert code == 0
            assert out.split() == cells[2:]  # predicted, then err_*

    def test_vector_with_a_negative_first_component(self, features_csv, model_file, capsys):
        # argparse reads a word that starts with "-" as an option, so such a
        # vector is passed as --vector=-1.5,...
        parts = features_csv.read_text().splitlines()[1].split(",")[:-1]
        vec = ",".join(["-1.5"] + parts[1:])
        code, out, err = run(capsys, ["classify", str(model_file), "--vector=" + vec])
        assert code == 0 and err == ""
        assert int(out) in range(CLASSES)
        code, out, err = run(capsys, ["classify", str(model_file), "--vector", vec])
        assert code == 1 and out == ""
        assert "argument --vector: expected one argument" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_vector_components_must_be_finite(self, features_csv, model_file, capsys, bad):
        parts = features_csv.read_text().splitlines()[1].split(",")[:-1]
        parts[0] = bad
        code, out, err = run(capsys, ["classify", str(model_file), "--vector=" + ",".join(parts)])
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "vec, message",
        [
            ("1,,2", "--vector component 2 is empty"),
            ("1,2,", "--vector component 3 is empty"),
            ("1, ,2", "--vector component 2 is empty"),
            ("1 2", "--vector component 1 is not a number: '1 2'"),
            ("1,x", "--vector component 2 is not a number: 'x'"),
        ],
        ids=["doubled_comma", "trailing_comma", "blank", "space_separated", "word"],
    )
    def test_vector_components_are_comma_separated_numbers(
        self, model_file, vec, message, capsys
    ):
        # a --vector reads as the cells of one features-CSV row: split on
        # commas only, each cell a number, none left empty
        code, out, err = run(capsys, ["classify", str(model_file), "--vector=" + vec])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_pooled_model_rejected(self, corpus, features_csv, tmp_path, capsys):
        pooled = tmp_path / "p.txt"
        main(["train", str(features_csv), "-o", str(pooled),
              "--config", str(corpus / "config.json"), "--single-som"])
        code, _, err = run(capsys, ["classify", str(pooled), str(features_csv)])
        assert code == 2
        assert "pooled" in err

    def test_vector_xor_features(self, features_csv, model_file, capsys):
        code, _, _ = run(capsys, [
            "classify", str(model_file), str(features_csv), "--vector", "1,2",
        ])
        assert code == 1
        code, _, _ = run(capsys, ["classify", str(model_file)])
        assert code == 1

    def test_tampered_model_is_integrity_error(self, model_file, tmp_path, capsys):
        text = model_file.read_text()
        line = text.splitlines()[8]
        (tmp_path / "bad.txt").write_text(text.replace(line, line + " ", 1))
        code, _, err = run(capsys, [
            "classify", str(tmp_path / "bad.txt"), "--vector", "1,2",
        ])
        assert code == 3
        assert "checksum" in err

    @pytest.mark.parametrize("command", ["classify", "transform"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("nan_weight", "inconsistent model contents: prototype components must be finite"),
            ("upper_case_digest", "bad checksum digest"),
        ],
    )
    def test_bad_model_is_data_error(
        self, model_file, features_csv, command, defect, message, tmp_path, capsys
    ):
        lines = model_file.read_text().split("\n")
        if defect == "nan_weight":
            unit = next(i for i, line in enumerate(lines) if line.startswith("[som ")) + 1
            lines[unit] = " ".join(["nan"] + lines[unit].split()[1:])
            text = reseal("\n".join(lines))
        else:
            key, digest = lines[-2].split()  # the text ends in a newline
            lines[-2] = f"{key} {digest.upper()}"
            text = "\n".join(lines)
        assert text != model_file.read_text()
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run(capsys, [command, str(bad), str(features_csv)])
        assert code == 2
        assert message in err
        assert out == ""


class TestLibraryQueries:
    """The one-row library calls a client makes on a saved model and its
    features, which no subcommand makes."""

    def test_classify_a_projected_vector_as_the_cli_does(self, features_csv, model_file, capsys):
        code, out, _ = run(capsys, ["classify", str(model_file), str(features_csv), "--errors"])
        assert code == 0
        model = load_model(model_file)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for x, cells in zip(read_dataset(features_csv).X, rows, strict=True):
            cid, errors = classify(model.csom, project(model.fisher, x))
            assert cid == int(cells[2])
            assert errors.tolist() == [float(v) for v in cells[3:]]

    def test_gnb_predicts_one_row_as_the_batch_does(self, features_csv):
        data = read_dataset(features_csv)
        gnb = gnb_fit(data)
        want = gnb.predict_batch(data.X).tolist()
        assert [gnb.predict(x) for x in data.X] == want
        assert want == data.labels.tolist()


class TestHugeFeatures:
    """Features far larger than the training data overflow the projection or
    the map distances: a data error, never a RuntimeWarning or a guess."""

    @pytest.fixture
    def huge_csv(self, features_csv, tmp_path):
        data = csomtex.read_dataset(features_csv)
        out = tmp_path / "huge.csv"
        out.write_text(dataset_to_csv(Dataset(data.X * 1e200, data.labels)))
        return out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["classify", "--errors"], ["transform"], ["transform", "--mode", "append"]],
        ids=["classify", "classify_errors", "transform", "transform_append"],
    )
    def test_file(self, model_file, huge_csv, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, stdout, err = run(
            capsys, argv[:1] + [str(model_file), str(huge_csv), "-o", str(out)] + argv[1:]
        )
        assert code == 2
        assert stdout == ""
        assert err == (
            "error: feature magnitudes overflow the map distances; rescale the features\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale, cause", [(1e300, "map distances"), (1.7e308, "projection")]
    )
    def test_vector(self, features_csv, model_file, scale, cause, capsys):
        dim = len(features_csv.read_text().splitlines()[0].split(",")) - 1
        vec = ",".join([repr(scale)] * dim)
        code, out, err = run(capsys, ["classify", str(model_file), "--vector", vec])
        assert code == 2
        assert out == ""
        assert err == f"error: feature magnitudes overflow the {cause}; rescale the features\n"


class TestBareCarriageReturn:
    @pytest.mark.parametrize("command", ["classify", "transform", "evaluate", "train"])
    def test_is_data_error(self, model_file, command, tmp_path, capsys):
        feats = tmp_path / "cr.csv"
        feats.write_bytes(b"f0,f1,label\n0,1,0\n1\r2,3,0\n")
        argv = {
            "classify": ["classify", str(model_file), str(feats)],
            "transform": ["transform", str(model_file), str(feats)],
            "evaluate": ["evaluate", str(feats)],
            "train": ["train", str(feats), "-o", str(tmp_path / "m.txt")],
        }[command]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: dataset CSV line 3 has a bare carriage return\n"


class TestEvaluate:
    def test_table_and_csv(self, corpus, features_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code, table, _ = run(capsys, [
            "evaluate", str(features_csv), "--config", str(corpus / "config.json"),
            "-o", str(out),
        ])
        assert code == 0
        lines = table.splitlines()
        assert lines[0].split() == ["classifier", "raw", "csom2x2"]
        assert lines[1].split()[0] == "knn" and lines[2].split()[0] == "gnb"
        float(lines[1].split()[1])  # cells are numeric means
        rows = out.read_text().splitlines()
        assert rows[0] == "classifier,column,pipeline,map,seed,fold,accuracy"
        # 2 classifiers x 2 columns x 2 seeds x 3 folds
        assert len(rows) == 1 + 24
        assert rows[1].startswith("knn,raw,raw,2x2,0,0,")

    def test_rerun_is_byte_identical(self, corpus, features_csv, tmp_path, capsys):
        argv = ["evaluate", str(features_csv), "--config", str(corpus / "config.json")]
        code1, out1, _ = run(capsys, argv + ["-o", str(tmp_path / "a.csv")])
        code2, out2, _ = run(capsys, argv + ["-o", str(tmp_path / "b.csv")])
        assert code1 == code2 == 0
        assert out1 == out2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_flag_overrides_seed_list(self, corpus, features_csv, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, [
            "evaluate", str(features_csv), "--config", str(corpus / "config.json"),
            "--seed", "7", "-o", str(out),
        ])
        assert code == 0
        seeds = {line.split(",")[4] for line in out.read_text().splitlines()[1:]}
        assert seeds == {"7"}


    @pytest.mark.parametrize(
        "counts, code, message",
        [
            ({"0": 2, "1": 1}, 0, ""),
            ({"0": 2, "1": 2, "2": 2, "1_0": 5, "-1": 3}, 1, "class ids (ASCII digits)"),
            ({"0": 2, "1": 2, "2": 2, "7": 1}, 2, "class(es) [7] absent from the data"),
            ({"0": 2, "1": 6}, 2, "class 1 must leave at least one training row of 6"),
        ],
        ids=["class_2_left_out", "non_digit_keys", "absent_class", "count_takes_a_whole_class"],
    )
    def test_holdout_counts(self, corpus, features_csv, counts, code, message, tmp_path, capsys):
        settings = json.loads((corpus / "config.json").read_text())
        settings["evaluate"].update(mode="holdout", holdout_counts=counts)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(settings))
        got, out, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert got == code, err
        assert message in err and "Traceback" not in err
        assert (out != "") == (code == 0)


class TestConfigErrors:
    def test_unknown_key(self, features_csv, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"mapp": {"rows": 2}}')
        code, _, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 1
        assert "mapp" in err

    def test_unknown_classifier_lists_valid_names(self, features_csv, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"evaluate": {"classifiers": ["svm"]}}')
        code, _, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 1
        assert "svm" in err and "knn, gnb" in err

    def test_unknown_pipeline_lists_valid_names(self, features_csv, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"evaluate": {"pipelines": ["pca"]}}')
        code, _, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 1
        assert "raw" in err and "csom-replace" in err

    def test_invalid_json_is_data_error(self, features_csv, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 2
        assert "JSON" in err

    @pytest.mark.parametrize(
        "text",
        ['{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"seed": 1' + "0" * 5000 + "}"],
        ids=["deeply_nested", "5001_digit_integer"],
    )
    def test_json_the_decoder_cannot_read_is_data_error(self, text, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code, _, err = run(capsys, ["evaluate", str(tmp_path / "absent.csv"), "--config", str(cfg)])
        assert code == 2
        assert "invalid JSON" in err and "c.json" in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "setting",
        [
            {"schedule": {"steps_per_sample": 0}},
            {"knn_k": 0},
            {"folds": 1},
            {"schedule": {"alpha0": 1.5}},
            {"schedule": {"sigma_final": 0}},
            {"fisher_dim": 0},
            {"seed": -1},
            {"evaluate": {"seeds": [0, -2]}},
            {"evaluate": {"holdout_counts": {"0": 1}}},
            {"texture": {"levels": 257}},
            {"evaluate": {"mode": "holdout", "holdout_counts": {"0": 2, "1": -1}}},
            {"map": {"rows": MAX_MAP_UNITS + 1, "cols": 1}},
            {"evaluate": {"columns": [{"pipeline": "raw", "rows": 1, "cols": MAX_MAP_UNITS + 1}]}},
            {"schedule": {"sigma0": 1.0, "sigma_final": 1e-200}},
            {"schedule": {"sigma0": 1e200, "sigma_final": 1e200}},
        ],
        ids=["steps_per_sample", "knn_k", "folds", "alpha0", "sigma_final", "fisher_dim",
             "seed", "evaluate_seeds", "holdout_counts_under_cv", "texture_levels",
             "negative_holdout_count", "map_units", "evaluate_column_map_units",
             "sigma_width_underflows", "sigma_width_overflows"],
    )
    def test_bad_setting_fails_before_features_are_read(self, command, setting, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(setting))
        # the features file does not exist: reading it first would exit 2
        argv = [command, str(tmp_path / "absent.csv"), "--config", str(cfg)]
        if command == "train":
            argv += ["-o", str(tmp_path / "m.txt")]
        code, _, err = run(capsys, argv)
        assert code == 1, err
        assert "absent.csv" not in err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "schedule, name",
        [({"sigma0": 1.0, "sigma_final": 1e-200}, "sigma_final"), ({"sigma0": 1e200, "sigma_final": 1e200}, "sigma0")],
    )
    def test_kernel_width_out_of_range_names_the_setting(self, schedule, name, tmp_path, capsys):
        # a sigma whose 2 sigma^2 underflows or overflows fails as a usage
        # error naming it, before training, with no numpy warning
        features = tmp_path / "f.csv"
        features.write_text("f0,f1,label\n0,1,0\n1,0,0\n5,6,1\n6,5,1\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schedule": schedule}))
        code, out, err = run(capsys, ["train", str(features), "--config", str(cfg), "-o", str(tmp_path / "m.txt")])
        assert code == 1 and out == ""
        assert f"{name} " in err and "must be a positive finite double" in err
        assert "Warning" not in err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "setting",
        [
            {"roi": {"sn": None}},
            {"knn_k": None},
            {"schedule": {"alpha0": None}},
            {"seed": None},
            {"folds": None},
            {"preprocess": {"threshold": None}},
            {"texture": {"levels": None}},
            {"map": {"rows": None}},
            {"schedule": {"sigma_final": None}},
            {"roi": None},
            {"evaluate": None},
        ],
        ids=lambda s: json.dumps(s),
    )
    def test_null_setting_loads_its_default(self, setting, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(setting))
        assert repr(load_config(cfg)) == repr(ToolConfig())
        # the config loads, so the missing features file is what fails
        code, _, err = run(capsys, ["evaluate", str(tmp_path / "absent.csv"), "--config", str(cfg)])
        assert code == 2
        assert "absent.csv" in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "extract"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"roi": 5}, "config section 'roi' must be a JSON object"),
            ({"roi": []}, "config section 'roi' must be a JSON object"),
            ({"schedule": "fast"}, "config section 'schedule' must be a JSON object"),
            ({"texture": {"offsets": [[True, 0]]}}, "integer pairs"),
            ({"evaluate": {"mode": "holdout", "holdout_counts": {"0": 1.7}}}, "integer counts"),
            ({"evaluate": {"mode": "holdout", "holdout_counts": {"0": True}}}, "integer counts"),
            ({"evaluate": {"mode": "holdout", "holdout_counts": {"0": "2"}}}, "integer counts"),
        ],
        ids=["roi_int", "roi_list", "schedule_str", "bool_offset", "count_float", "count_bool",
             "count_str"],
    )
    def test_badly_typed_setting_is_usage_error(self, command, setting, message, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(setting))
        argv = [command, str(tmp_path / "absent.csv"), "--config", str(cfg)]
        if command != "evaluate":
            argv += ["-o", str(tmp_path / "out.txt")]
        code, _, err = run(capsys, argv)
        assert code == 1, err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize(
        "evaluate, message",
        [
            ({"classifiers": ["knn", "knn"]}, "evaluate classifiers must be unique"),
            ({"seeds": [1, 0, 1]}, "evaluate seeds must be unique"),
            ({"holdout_counts": {"0": 1}}, "holdout_counts needs eval_mode 'holdout'"),
        ],
        ids=["classifiers", "seeds", "holdout_counts"],
    )
    def test_duplicate_or_unused_evaluate_setting(self, features_csv, evaluate, message,
                                                  tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"evaluate": evaluate}))
        code, out, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_negative_seed_flag_fails_before_features_are_read(self, command, tmp_path, capsys):
        argv = [command, str(tmp_path / "absent.csv"), "--seed", "-1"]
        if command == "train":
            argv += ["-o", str(tmp_path / "m.txt")]
        code, _, err = run(capsys, argv)
        assert code == 1, err
        assert "seed must be >= 0" in err
        assert "absent.csv" not in err
        assert not (tmp_path / "m.txt").exists()

    def test_classifier_key_is_unknown(self, features_csv, tmp_path, capsys):
        # no command reads a top-level classifier; evaluate scores evaluate.classifiers
        cfg = tmp_path / "c.json"
        cfg.write_text('{"classifier": "knn"}')
        code, _, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 1
        assert "unknown top-level config keys: classifier" in err

    def test_evaluate_failure_leaves_no_output(self, corpus, tmp_path, capsys):
        # a features file with one row per class cannot be cross-validated:
        # too few rows for the folds is a data error
        feats = tmp_path / "tiny.csv"
        feats.write_text("f0,f1,label\n0,0,0\n1,1,1\n")
        out = tmp_path / "r.csv"
        got = run(capsys, [
            "evaluate", str(feats), "--config", str(corpus / "config.json"), "-o", str(out),
        ])
        assert got == (2, "", "error: cannot make 3 folds from 2 rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_fisher_dim_above_the_class_count_is_data_error(
        self, command, corpus, features_csv, tmp_path, capsys
    ):
        # the corpus has 3 classes, so at most 2 discriminant components
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(json.loads((corpus / "config.json").read_text()),
                                       fisher_dim=5)))
        out = tmp_path / "out.txt"
        argv = [command, str(features_csv), "--config", str(cfg), "-o", str(out)]
        code, _, err = run(capsys, argv)
        fold = "fold 0: " if command == "evaluate" else ""
        assert (code, err) == (2, f"error: {fold}fisher_dim 5 needs at least 6 classes, got 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_negative_label_is_data_error(self, command, tmp_path, capsys):
        # classes 0, 1, 2, with class 0 written as -2
        lines = dataset_to_csv(gaussian_blobs([6, 6, 6], dim=3, seed=1)).splitlines()
        feats = tmp_path / "f.csv"
        feats.write_text("\n".join(ln[:-2] + ",-2" if ln.endswith(",0") else ln for ln in lines))
        out = tmp_path / "out.txt"
        got = run(capsys, [command, str(feats), "-o", str(out)])
        assert got == (
            2, "", "error: negative label in dataset CSV row 1; class ids must be >= 0\n"
        )
        assert not out.exists()


class TestOversizedIntegers:
    """An integer too large for its int64 field is a data error (exit 2) that
    names the field, never a traceback or a usage error (exit 1)."""

    @pytest.mark.parametrize(
        "pgm, field",
        [
            (b"P2\n2 1\n255\n1 " + b"9" * 20 + b"\n", "pixel"),
            (b"P2\n2 1\n255\n1 " + b"9" * 5000 + b"\n", "pixel"),
            (b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00", "width"),
            (b"P5\n2 " + b"9" * 20 + b"\n255\n\x00\x00", "height"),
        ],
        ids=["sample_20_digits", "sample_5000_digits", "width_5000_digits", "height_20_digits"],
    )
    def test_pgm(self, pgm, field, tmp_path, capsys):
        (tmp_path / "big.pgm").write_bytes(pgm)
        (tmp_path / "m.txt").write_text("big.pgm,0\n")
        out = tmp_path / "f.csv"
        got = run(capsys, ["extract", str(tmp_path / "m.txt"), "-o", str(out)])
        assert got == (2, "", f"error: PGM {field} value too large\n")
        assert not out.exists()

    def test_manifest_class_id(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{corpus}/imgs/c0_0.pgm,99999999999999999999\n")
        out = tmp_path / "f.csv"
        got = run(capsys, ["extract", str(manifest), "-o", str(out)])
        assert got == (
            2, "", f"error: {manifest}:1: class id too large; class ids must be < 2**63\n"
        )
        assert not out.exists()

    def test_features_label(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("f0,label\n0.5,0\n1.5,99999999999999999999\n")
        out = tmp_path / "m.txt"
        got = run(capsys, ["train", str(feats), "-o", str(out)])
        assert got == (
            2, "", "error: label too large in dataset CSV row 2; class ids must be < 2**63\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "good, bad, message",
        [
            ("[som 2 2 2]", "[som 99999999999999999999 2 2]",
             "bad class id '99999999999999999999'"),
            ("[som 0 2 2]", "[som 0 2 " + "9" * 5000 + "]", "bad som header '[som 0 2 "),
        ],
        ids=["class_tag", "grid_5000_digits"],
    )
    def test_model(self, model_file, features_csv, good, bad, message, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text(reseal(model_file.read_text().replace(good, bad, 1)))
        code, out, err = run(capsys, ["classify", str(model), str(features_csv)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


class TestPlainDigitClassIds:
    """A features-CSV label and a manifest class id are plain ASCII digits
    below 2**63, as model-file integers are: a sign, a space, an underscore
    or another numeral is a data error (exit 2), and so is a long number,
    however many digits it has."""

    @pytest.mark.parametrize(
        "label, message",
        [
            ("+1", "non-integer label in dataset CSV row 2"),
            ("1_0", "non-integer label in dataset CSV row 2"),
            (" 1", "non-integer label in dataset CSV row 2"),
            ("1 ", "non-integer label in dataset CSV row 2"),
            ("9" * 5000, "label too large in dataset CSV row 2; class ids must be < 2**63"),
            ("-" + "9" * 5000, "negative label in dataset CSV row 2; class ids must be >= 0"),
        ],
        ids=["plus", "underscore", "leading_space", "trailing_space", "5000_digits",
             "minus_5000_digits"],
    )
    def test_features_label(self, label, message, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text(f"f0,label\n0.5,0\n1.5,{label}\n2.5,1\n")
        out = tmp_path / "m.txt"
        got = run(capsys, ["train", str(feats), "-o", str(out)])
        assert got == (2, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "cls, message",
        [
            ("+1", "bad class id '+1'"),
            ("1_0", "bad class id '1_0'"),
            ("٢", "bad class id '٢'"),
            ("9" * 5000, "class id too large; class ids must be < 2**63"),
            ("-" + "9" * 5000, "class ids must be >= 0"),
        ],
        ids=["plus", "underscore", "arabic_indic_two", "5000_digits", "minus_5000_digits"],
    )
    def test_manifest_class_id(self, cls, message, corpus, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{corpus}/imgs/c0_0.pgm,{cls}\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        got = run(capsys, ["extract", str(manifest), "-o", str(out)])
        assert got == (2, "", f"error: {manifest}:1: {message}\n")
        assert not out.exists()

    def test_minus_zero_stays_class_zero(self, corpus, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{corpus}/imgs/c0_0.pgm,0\n{corpus}/imgs/c0_1.pgm,-0\n")
        out = tmp_path / "f.csv"
        assert run(capsys, ["extract", str(manifest), "-o", str(out)])[0] == 0
        assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]] == ["0", "0"]


class TestSettingIntegers:
    """A config holdout key and ``--seed`` are plain ASCII digits below 2**63
    too.  Anything else is a usage error (exit 1), reported before any input
    is read and without Python's own digit-limit text."""

    @pytest.mark.parametrize(
        "keys, message",
        [
            (["9" * 5000], "names a class id too large; class ids must be < 2**63"),
            (["1" * 25, "2" * 25], "names a class id too large; class ids must be < 2**63"),
            (["9223372036854775808"], "names a class id too large; class ids must be < 2**63"),
        ],
        ids=["5000_digits", "two_25_digit_keys", "2**63"],
    )
    def test_holdout_key(self, keys, message, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        counts = {key: 1 for key in keys}
        cfg.write_text(json.dumps({"evaluate": {"mode": "holdout", "holdout_counts": counts}}))
        argv = ["evaluate", str(tmp_path / "absent.csv"), "--config", str(cfg)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: config {cfg}: config key 'holdout_counts' {message}\n"
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "seed, message",
        [
            ("1_0", "invalid int value: '1_0'"),
            (" 7", "invalid int value: ' 7'"),
            ("+3", "invalid int value: '+3'"),
            ("\u0662", "invalid int value: '\u0662'"),
            ("1" * 30, "seed too large; seeds must be < 2**63"),
            ("9223372036854775808", "seed too large; seeds must be < 2**63"),
            ("9" * 5000, "seed too large; seeds must be < 2**63"),
        ],
        ids=["underscore", "leading_space", "plus", "arabic_indic_two", "30_digits", "2**63",
             "5000_digits"],
    )
    def test_seed_flag(self, command, seed, message, tmp_path, capsys):
        argv = [command, str(tmp_path / "absent.csv"), f"--seed={seed}"]
        if command == "train":
            argv += ["-o", str(tmp_path / "m.txt")]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument --seed: {message}\n")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize(
        "seed, same_as", [("007", "7"), ("-0", "0"), ("9223372036854775807", None)]
    )
    def test_seed_flag_takes_plain_digits(self, seed, same_as, features_csv, corpus, tmp_path,
                                          capsys):
        models = []
        for flag in (seed, same_as or seed):
            out = tmp_path / f"m{len(models)}.txt"
            argv = ["train", str(features_csv), "--config", str(corpus / "config.json")]
            assert run(capsys, argv + ["-o", str(out), f"--seed={flag}"])[0] == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]


class TestUndecodableInput:
    def test_non_ascii_features(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_bytes("f0,label\n1,0\n2,1\n# caf\xe9\n".encode("latin-1"))
        code, _, err = run(capsys, ["train", str(feats), "-o", str(tmp_path / "m.txt")])
        assert code == 2
        assert "ascii" in err

    def test_non_utf8_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"caf\xe9.pgm,0\n")
        code, _, err = run(capsys, ["extract", str(manifest), "-o", str(tmp_path / "f.csv")])
        assert code == 2
        assert "utf-8" in err
        assert not (tmp_path / "f.csv").exists()

    def test_non_utf8_config(self, features_csv, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"seed": 0} \xff')
        code, _, err = run(capsys, ["evaluate", str(features_csv), "--config", str(cfg)])
        assert code == 2
        assert "utf-8" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "m.txt", "-o", "f.csv", "--seed", "1"],
            ["transform", "m.txt", "f.csv", "--seed", "1"],
            ["transform", "m.txt", "f.csv", "--config", "c.json"],
            ["classify", "m.txt", "f.csv", "--seed", "1"],
            ["classify", "m.txt", "f.csv", "--config", "c.json"],
            ["classify", "m.txt", "f.csv", "--jobs", "2"],
            ["train", "f.csv", "-o", "m.txt", "--jobs", "2"],
            ["evaluate", "f.csv", "--jobs", "2"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert run(capsys, argv)[0] == 1

    def test_no_arguments(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1

    def test_version(self, capsys):
        assert run(capsys, ["--version"])[0] == 0

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, ["train", str(tmp_path / "nope.csv"),
                                    "-o", str(tmp_path / "m.txt")])
        assert code == 2

    def test_repeated_calls_match_a_fresh_process(
        self, features_csv, model_file, tmp_path, capsys, monkeypatch
    ):
        # main() builds its parser once per process; every call must still
        # behave as the first call of a fresh process does
        monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
        calls = [
            ["train"],
            ["--version"],
            ["classify", str(model_file), str(features_csv), "--errors"],
            ["classify", str(model_file), "--jobs", "2"],
            ["--version"],
            ["classify", str(model_file), str(features_csv), "--errors"],
        ]
        for argv in calls:
            code = f"import sys, csomtex.cli\nsys.exit(csomtex.cli.main({argv!r}))"
            proc = _python(code, tmp_path)
            assert run(capsys, argv) == (proc.returncode, proc.stdout, proc.stderr)


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this csomtex."""
    src = str(Path(csomtex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


class TestNumpyOnlyRuntime:
    """scipy is a test dependency only: the package must never import it."""

    def test_import_loads_no_scipy(self, tmp_path):
        proc = _python("import sys, csomtex, csomtex.cli; print('scipy' in sys.modules)", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_commands_run_with_scipy_unimportable(self, corpus, features_csv, tmp_path):
        feats, cfg, model = str(features_csv), str(corpus / "config.json"), str(tmp_path / "m")
        runs = [
            ["train", feats, "-o", model, "--config", cfg],
            ["classify", model, feats],
            ["evaluate", feats, "--config", cfg],
        ]
        proc = _python(
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "import csomtex.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert csomtex.cli.main(argv) == 0, argv\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
