"""JSON tool configuration shared by the command-line entry points.

Every setting has a default, so ``{}`` is a valid config.  Unknown keys
raise ValueError: silent typos in an experiment file are worse than a
hard stop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .data import read_text
from .errors import DataError
from .evaluation import CLASSIFIERS, PIPELINES, ExperimentConfig
from .imaging import PreprocessConfig
from .roi import RoiConfig
from .texture import TextureConfig


@dataclass(frozen=True)
class EvalColumn:
    """One column of the comparison table: a pipeline at a map size.  The
    pipeline and grid are checked with the rest of the ToolConfig."""

    pipeline: str
    rows: int
    cols: int
    label: str


@dataclass
class ToolConfig(ExperimentConfig):
    """Settings of every command: extraction, the model and the evaluate grid.

    The model and evaluation settings are ExperimentConfig's, checked there;
    ``pipeline`` and ``classifier`` are not settable (``train`` names its
    own pipeline, ``evaluate`` scores every grid cell).  Every grid cell is
    checked on construction, so a setting ``evaluate`` rejects fails every
    command before any input is read.
    """

    pipeline: str = field(default="csom-replace", init=False, repr=False)
    classifier: str = field(default="knn", init=False, repr=False)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    roi: RoiConfig = field(default_factory=RoiConfig)
    texture: TextureConfig = field(default_factory=TextureConfig)
    columns: tuple | None = None  # None: every pipeline at the config map size
    classifiers: tuple = CLASSIFIERS
    eval_seeds: tuple = (0,)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.columns is None:
            self.columns = tuple(
                EvalColumn(p, self.map_rows, self.map_cols, p) for p in PIPELINES
            )
        if not self.columns or not self.classifiers or not self.eval_seeds:
            raise ValueError("columns, classifiers and eval_seeds must be non-empty")
        if any(s < 0 for s in self.eval_seeds):
            raise ValueError(f"evaluate seeds must be >= 0, got {list(self.eval_seeds)}")
        labels = [c.label for c in self.columns]
        if not all(labels):
            raise ValueError("column label must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("evaluate column labels must be unique")
        for column in self.columns:
            for classifier in self.classifiers:
                self.experiment(column, classifier, self.seed)

    def experiment(self, column: EvalColumn, classifier: str, seed: int) -> ExperimentConfig:
        """The settings of one grid cell."""
        shared = {f.name: getattr(self, f.name) for f in fields(ExperimentConfig)}
        shared.update(
            pipeline=column.pipeline,
            classifier=classifier,
            map_rows=column.rows,
            map_cols=column.cols,
            seed=seed,
        )
        return ExperimentConfig(**shared)


def _check_keys(section: str, given: dict, allowed: tuple) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} config keys: {', '.join(unknown)}")


def _opt_int(d: dict, key: str, default):
    v = d.get(key, default)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"config key {key!r} must be an integer")
    return v


def _opt_num(d: dict, key: str, default):
    v = d.get(key, default)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"config key {key!r} must be a number")
    return float(v)


def _opt_bool(d: dict, key: str, default: bool) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ValueError(f"config key {key!r} must be a boolean")
    return v


def _opt_str(d: dict, key: str, default: str) -> str:
    v = d.get(key, default)
    if not isinstance(v, str):
        raise ValueError(f"config key {key!r} must be a string")
    return v


def _str_list(d: dict, key: str, default: tuple) -> tuple:
    v = d.get(key)
    if v is None:
        return default
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise ValueError(f"config key {key!r} must be a list of strings")
    return tuple(v)


def config_from_dict(raw: dict) -> ToolConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    _check_keys(
        "top-level",
        raw,
        (
            "seed",
            "preprocess",
            "roi",
            "texture",
            "fisher_dim",
            "map",
            "schedule",
            "knn_k",
            "folds",
            "evaluate",
        ),
    )
    pre_raw = raw.get("preprocess", {})
    _check_keys("preprocess", pre_raw, ("crop", "threshold", "rescale"))
    preprocess = PreprocessConfig(
        crop=_opt_bool(pre_raw, "crop", True),
        threshold=_opt_int(pre_raw, "threshold", 0),
        rescale=_opt_bool(pre_raw, "rescale", True),
    )
    roi_raw = raw.get("roi", {})
    _check_keys("roi", roi_raw, ("mode", "sn", "block_size", "min_region_pixels"))
    roi = RoiConfig(
        mode=_opt_str(roi_raw, "mode", "pixelwise"),
        sn=_opt_int(roi_raw, "sn", 6),
        block_size=_opt_int(roi_raw, "block_size", 8),
        min_region_pixels=_opt_int(roi_raw, "min_region_pixels", 4),
    )
    tex_raw = raw.get("texture", {})
    _check_keys("texture", tex_raw, ("levels", "offsets", "symmetric"))
    offsets = tex_raw.get("offsets")
    if offsets is not None:
        if not isinstance(offsets, list) or not all(
            isinstance(o, list) and len(o) == 2 and all(isinstance(d, int) for d in o)
            for o in offsets
        ):
            raise ValueError("texture offsets must be a list of [dr, dc] integer pairs")
        offsets = tuple(tuple(o) for o in offsets)
    texture = TextureConfig(
        levels=_opt_int(tex_raw, "levels", 3),
        offsets=offsets if offsets is not None else TextureConfig().offsets,
        symmetric=_opt_bool(tex_raw, "symmetric", False),
    )
    map_raw = raw.get("map", {})
    _check_keys("map", map_raw, ("rows", "cols"))
    sched_raw = raw.get("schedule", {})
    _check_keys(
        "schedule",
        sched_raw,
        ("steps_per_sample", "alpha0", "alpha_final", "sigma0", "sigma_final"),
    )
    eval_raw = raw.get("evaluate", {})
    _check_keys(
        "evaluate",
        eval_raw,
        ("pipelines", "columns", "classifiers", "seeds", "mode", "holdout_counts"),
    )
    map_rows = _opt_int(map_raw, "rows", 5)
    map_cols = _opt_int(map_raw, "cols", 5)
    if "pipelines" in eval_raw and "columns" in eval_raw:
        raise ValueError("evaluate takes either pipelines or columns, not both")
    columns = None
    if "pipelines" in eval_raw:
        names = _str_list(eval_raw, "pipelines", ())
        columns = tuple(EvalColumn(p, map_rows, map_cols, p) for p in names)
    elif "columns" in eval_raw:
        cols_raw = eval_raw["columns"]
        if not isinstance(cols_raw, list) or not all(isinstance(c, dict) for c in cols_raw):
            raise ValueError("evaluate columns must be a list of objects")
        parsed = []
        for c in cols_raw:
            _check_keys("evaluate column", c, ("pipeline", "rows", "cols", "label"))
            pipeline = _opt_str(c, "pipeline", "")
            rows = _opt_int(c, "rows", map_rows)
            cols = _opt_int(c, "cols", map_cols)
            label = _opt_str(c, "label", f"{pipeline}@{rows}x{cols}")
            parsed.append(EvalColumn(pipeline, rows, cols, label))
        columns = tuple(parsed)
    seeds = eval_raw.get("seeds")
    if seeds is None:
        seeds = (0,)
    elif isinstance(seeds, list) and all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        seeds = tuple(seeds)
    else:
        raise ValueError("evaluate seeds must be a list of integers")
    holdout_counts = eval_raw.get("holdout_counts")
    if holdout_counts is not None:
        if not isinstance(holdout_counts, dict):
            raise ValueError("holdout_counts must map class ids to counts")
        try:
            holdout_counts = {int(k): int(v) for k, v in holdout_counts.items()}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"holdout_counts must map class ids to counts: {exc}") from exc
    return ToolConfig(
        seed=_opt_int(raw, "seed", 0),
        preprocess=preprocess,
        roi=roi,
        texture=texture,
        fisher_dim=_opt_int(raw, "fisher_dim", None),
        map_rows=map_rows,
        map_cols=map_cols,
        steps_per_sample=_opt_int(sched_raw, "steps_per_sample", 100),
        alpha0=_opt_num(sched_raw, "alpha0", 0.5),
        alpha_final=_opt_num(sched_raw, "alpha_final", 0.01),
        sigma0=_opt_num(sched_raw, "sigma0", None),
        sigma_final=_opt_num(sched_raw, "sigma_final", 0.5),
        knn_k=_opt_int(raw, "knn_k", 1),
        folds=_opt_int(raw, "folds", 10),
        columns=columns,
        classifiers=_str_list(eval_raw, "classifiers", CLASSIFIERS),
        eval_seeds=seeds,
        eval_mode=_opt_str(eval_raw, "mode", "cv"),
        holdout_counts=holdout_counts,
    )


def load_config(path) -> ToolConfig:
    """Read a JSON config file.  Undecodable bytes and malformed JSON are data
    problems; invalid settings are usage problems (ValueError)."""
    text = read_text(path, "utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path}: invalid JSON: {exc}") from exc
    try:
        return config_from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc
