"""Command-line interface: extract, train, transform, classify, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 integrity error.
Outputs are built in memory and written only after a command has fully
succeeded, each file atomically, so a failing run never leaves partial
files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from collections import defaultdict
from dataclasses import replace as dc_replace

import numpy as np

from . import __version__
from .config import EvalColumn, ToolConfig, load_config
from .csom import classify_dataset
from .data import (
    UNLABELED,
    Dataset,
    check_vector,
    class_id,
    dataset_to_csv,
    float_fields,
    format_rows,
    int_field,
    read_dataset,
    read_text,
    write_atomic,
)
from .errors import DataError, FormatError, IntegrityError, ShapeError
from .evaluation import MODES, FittedPipeline, run_experiments
from .fisher import project_dataset
from .imaging import load_pgm, preprocess, quantize
from .model_io import load_model, save_model
from .roi import mask_to_rle, region_labels, region_masks
from .texture import extract_features


def read_manifest(path) -> list[tuple[str, int]]:
    """Parse ``filename,class_id`` lines; an absent id marks the row unlabeled.

    Blank lines and ``#`` comments are skipped.  Filenames are taken verbatim
    up to the last comma, so they may themselves contain commas.
    """
    entries = []
    for lineno, line in enumerate(read_text(path, "utf-8").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, cls = line.rpartition(",")
        if not sep:
            name, cls = line, ""
        name = name.strip()
        cls = cls.strip()
        if not name:
            raise FormatError(f"{path}:{lineno}: missing filename")
        label = UNLABELED
        if cls:
            label = class_id(
                cls,
                "{path}:{line}: bad class id {text!r}",
                "{path}:{line}: class ids must be >= 0",
                "{path}:{line}: class id too large; class ids must be < 2**63",
                path=path, line=lineno, text=cls,
            )
        entries.append((name, label))
    if not entries:
        raise ValueError(f"manifest {path} lists no images")
    return entries


def _load_tool_config(args) -> ToolConfig:
    return load_config(args.config) if args.config else ToolConfig()


def _emit(path, text: str) -> None:
    if path:
        write_atomic(path, text)
    else:
        sys.stdout.write(text)


def cmd_extract(args) -> int:
    cfg = _load_tool_config(args)
    entries = read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    rows = []
    labels = []
    mask_dumps = []
    for name, label in entries:
        img_path = name if os.path.isabs(name) else os.path.join(base, name)
        try:
            with open(img_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read image {name!r}: {exc}") from exc
        img = load_pgm(raw)
        img = preprocess(img, cfg.preprocess)
        img = quantize(img, cfg.texture.levels)
        try:
            regions = region_labels(img, cfg.roi)
        except ShapeError:  # the one kind: an image smaller than one block
            raise ShapeError(
                f"image {name!r} is {img.width}x{img.height} after preprocessing, smaller "
                f"than one {cfg.roi.block_size}x{cfg.roi.block_size} block"
            ) from None
        rows.append(extract_features(img, cfg.roi, cfg.texture, name=name, regions=regions))
        labels.append(label)
        if args.dump_masks:
            text = "".join(mask_to_rle(m) + "\n" for m in region_masks(regions))
            stem = os.path.splitext(os.path.basename(name))[0]
            mask_dumps.append((f"{stem}.masks.txt", text))
    csv_text = dataset_to_csv(Dataset(np.array(rows), labels))
    # what this run makes, removed again if a later write fails
    made_dirs, made_files = [], []
    try:
        if args.dump_masks:
            head = os.path.abspath(args.dump_masks)
            while not os.path.lexists(head):
                made_dirs.append(head)
                head = os.path.dirname(head)
            os.makedirs(args.dump_masks, exist_ok=True)
            for fname, text in mask_dumps:
                path = os.path.join(args.dump_masks, fname)
                if not os.path.lexists(path):
                    made_files.append(path)
                write_atomic(path, text)
        write_atomic(args.output, csv_text)
    except BaseException:
        for path in made_files:
            with contextlib.suppress(OSError):
                os.unlink(path)
        for path in made_dirs:  # deepest first
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    return 0


def _pipeline_echo(cfg: ToolConfig, fisher_dim: int) -> tuple:
    offsets = ",".join(f"{dr}:{dc}" for dr, dc in cfg.texture.offsets)
    return (
        ("roi_mode", cfg.roi.mode),
        ("roi_sn", str(cfg.roi.sn)),
        ("roi_block_size", str(cfg.roi.block_size)),
        ("roi_min_region_pixels", str(cfg.roi.min_region_pixels)),
        ("texture_levels", str(cfg.texture.levels)),
        ("texture_offsets", offsets),
        ("texture_symmetric", str(int(cfg.texture.symmetric))),
        ("fisher_dim", str(fisher_dim)),
    )


def cmd_train(args) -> int:
    cfg = _load_tool_config(args)
    kind = "som" if args.single_som else "csom"
    seed = cfg.seed if args.seed is None else args.seed
    column = EvalColumn(f"{kind}-{args.mode}", cfg.map_rows, cfg.map_cols)
    settings = cfg.experiment(column, cfg.classifier, seed)
    model = FittedPipeline.fit(read_dataset(args.features), settings)
    save_model(args.output, dc_replace(model, echo=_pipeline_echo(cfg, model.fisher.dim)))
    return 0


def cmd_transform(args) -> int:
    model = load_model(args.model)
    _emit(args.output, dataset_to_csv(model.transform(read_dataset(args.features), args.mode)))
    return 0


def cmd_classify(args) -> int:
    if (args.features is None) == (args.vector is None):
        raise ValueError("classify needs a features file or --vector, not both")
    model = load_model(args.model)
    if model.csom is None:
        raise DataError(
            "this model holds a single pooled map; classification needs per-class maps"
        )
    if args.vector is None:
        data = read_dataset(args.features)
    else:
        # argparse hands --vector=-- over as an empty list, not as "--"
        parts = (args.vector if isinstance(args.vector, str) else "--").split(",")
        x, bad = float_fields(parts)
        if bad is not None:
            problem = "is empty" if not parts[bad].strip() else f"is not a number: {parts[bad]!r}"
            raise ValueError(f"--vector component {bad + 1} {problem}")
        data = Dataset(check_vector(x, model.fisher.input_dim, "projection")[None, :])
    feats = project_dataset(model.fisher, data)
    preds, errors = classify_dataset(model.csom, feats.without_labels())
    if args.vector is not None:
        print(" ".join([str(int(preds[0]))] + (format_rows(errors, " ") if args.errors else [])))
        return 0

    labeled = data.labels != UNLABELED
    header, columns = ["row"], [map(str, range(data.n))]
    if labeled.any():
        header.append("label")
        columns.append(["" if label == UNLABELED else str(label) for label in data.labels.tolist()])
    header.append("predicted")
    columns.append(map(str, preds.tolist()))
    if args.errors:
        header += [f"err_{cid}" for cid in model.csom.class_ids]
        columns.append(format_rows(errors, ","))
    lines = [",".join(header)] + [",".join(cells) for cells in zip(*columns)]
    _emit(args.output, "\n".join(lines) + "\n")
    if labeled.any():
        hits = (preds == data.labels)[labeled]
        print(f"accuracy {hits.mean():.4f} ({hits.sum()}/{hits.size})", file=sys.stderr)
    return 0


def _format_table(column_labels, classifiers, cell) -> str:
    headers = ["classifier"] + list(column_labels)
    rows = [[clf] + [cell(clf, lbl) for lbl in column_labels] for clf in classifiers]
    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
    out = []
    for r in [headers] + rows:
        out.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


def cmd_evaluate(args) -> int:
    cfg = _load_tool_config(args)
    seeds = cfg.eval_seeds if args.seed is None else (args.seed,)
    cells = [(clf, col, seed) for clf in cfg.classifiers for col in cfg.columns for seed in seeds]
    settings = [cfg.experiment(col, clf, seed) for clf, col, seed in cells]
    reports = run_experiments(read_dataset(args.features), settings)
    per_seed = defaultdict(list)
    csv_lines = ["classifier,column,pipeline,map,seed,fold,accuracy"]
    for (clf, col, seed), report in zip(cells, reports):
        per_seed[clf, col.label].append(report.mean_accuracy)
        for fold, acc in enumerate(report.fold_accuracies):
            csv_lines.append(
                f"{clf},{col.label},{col.pipeline},"
                f"{col.rows}x{col.cols},{seed},{fold},{acc:.6f}"
            )
    labels = [c.label for c in cfg.columns]
    table = _format_table(
        labels, cfg.classifiers, lambda c, lbl: format(float(np.mean(per_seed[c, lbl])), ".4f")
    )
    sys.stdout.write(table)
    if args.output:
        write_atomic(args.output, "\n".join(csv_lines) + "\n")
    return 0


def _seed(text: str) -> int:
    """A --seed value: plain digits below 2**63, as the config ``seed`` key
    takes.  A leading ``-`` is kept, for the settings check to reject."""
    minus = text.startswith("-")
    bad, too_large = "invalid int value: {text!r}", "seed too large; seeds must be < 2**63"
    seed = int_field(text[minus:], bad, too_large, argparse.ArgumentTypeError, text=text)
    return -seed if minus else seed


@functools.cache  # parsing leaves no state on the parser, so one serves every main()
def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, help="override the config seed (evaluate: seed list)")

    parser = argparse.ArgumentParser(
        prog="csomtex",
        description="texture features and per-class self-organizing maps",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[config], help="images to feature vectors")
    p.add_argument("manifest", help="text file of 'filename,class_id' lines")
    p.add_argument("-o", "--output", required=True, help="features CSV to write")
    p.add_argument("--dump-masks", metavar="DIR", help="also write region masks as RLE text")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[config, seed], help="fit projection and maps")
    p.add_argument("features", help="labeled features CSV")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--single-som", action="store_true", help="one pooled map, not per-class")
    p.add_argument("--mode", choices=MODES, default="replace", help="stored transform mode")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transform", help="map features to prototypes")
    p.add_argument("model", help="model file from train")
    p.add_argument("features", help="features CSV")
    p.add_argument("-o", "--output", help="output CSV (default: stdout)")
    p.add_argument("--mode", choices=MODES, help="override the stored transform mode")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("classify", help="winner-take-all class labels")
    p.add_argument("model", help="model file from train")
    p.add_argument("features", nargs="?", help="features CSV")
    p.add_argument(
        "--vector",
        help="classify one comma-separated raw feature vector; write --vector=-1.5,0.2,... "
        "when the first component is negative, or it is taken for an option",
    )
    p.add_argument("-o", "--output", help="output CSV (default: stdout)")
    p.add_argument("--errors", action="store_true", help="include per-class map errors")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", parents=[config, seed], help="cross-validated pipeline grid")
    p.add_argument("features", help="labeled features CSV")
    p.add_argument("-o", "--output", help="per-fold accuracies CSV")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help/--version
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
