"""JSON tool configuration shared by the command-line entry points.

Every key is declared once, in the key tables below, with the settings
field it sets and the kind of value it takes.  Defaults live only on the
settings dataclasses: ``{}`` is a valid config, and JSON null at any key
means "not set".  Unknown keys and wrongly typed values raise ValueError:
silent typos in an experiment file are worse than a hard stop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .data import read_text
from .errors import DataError
from .evaluation import CLASSIFIERS, PIPELINES, ExperimentConfig
from .imaging import PreprocessConfig
from .roi import RoiConfig
from .texture import TextureConfig


@dataclass(frozen=True)
class EvalColumn:
    """One column of the comparison table: a pipeline at a map size.  A size
    left None is the config map size and a label left None is
    ``pipeline@ROWSxCOLS``; ToolConfig fills both in.  The pipeline and grid
    are checked with the rest of the ToolConfig."""

    pipeline: str
    rows: int | None = None
    cols: int | None = None
    label: str | None = None


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
            self.columns = tuple(EvalColumn(p, label=p) for p in PIPELINES)
        self.columns = tuple(self._sized(c) for c in self.columns)
        if not self.columns or not self.classifiers or not self.eval_seeds:
            raise ValueError("columns, classifiers and eval_seeds must be non-empty")
        if any(s < 0 for s in self.eval_seeds):
            raise ValueError(f"evaluate seeds must be >= 0, got {list(self.eval_seeds)}")
        for what, values in (("classifiers", self.classifiers), ("seeds", self.eval_seeds)):
            if len(set(values)) != len(values):
                raise ValueError(f"evaluate {what} must be unique, got {list(values)}")
        labels = [c.label for c in self.columns]
        if not all(labels):
            raise ValueError("column label must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError("evaluate column labels must be unique")
        for column in self.columns:
            for classifier in self.classifiers:
                self.experiment(column, classifier, self.seed)

    def _sized(self, column: EvalColumn) -> EvalColumn:
        rows = self.map_rows if column.rows is None else column.rows
        cols = self.map_cols if column.cols is None else column.cols
        label = f"{column.pipeline}@{rows}x{cols}" if column.label is None else column.label
        return EvalColumn(column.pipeline, rows, cols, label)

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


# Value kinds.  A reader takes (JSON key, value), checks the value and
# returns the setting; JSON null never reaches one (it means "not set").

_INT64 = range(-(2**63), 2**63)


def _is_int(value) -> bool:
    """A JSON integer that fits in 64 bits; a bool is not one."""
    return type(value) is int and value in _INT64


def _kind(what: str, test, convert=None):
    def read(key: str, value):
        if not test(value):
            raise ValueError(f"config key {key!r} must be {what}")
        return value if convert is None else convert(value)

    return read


_INT = _kind("an integer", _is_int)
_NUMBER = _kind(
    "a number", lambda v: _is_int(v) or (type(v) is float and math.isfinite(v)), float
)
_BOOL = _kind("a boolean", lambda v: isinstance(v, bool))
_STR = _kind("a string", lambda v: isinstance(v, str))
_STRINGS = _kind(
    "a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), tuple
)
_INTS = _kind("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)), tuple)
_OFFSETS = _kind(
    "a list of [dr, dc] integer pairs",
    lambda v: isinstance(v, list)
    and all(isinstance(o, list) and len(o) == 2 and all(map(_is_int, o)) for o in v),
    lambda v: tuple(tuple(o) for o in v),
)


def _holdout_counts(key: str, value) -> dict:
    if not isinstance(value, dict) or not all(map(_is_int, value.values())):
        raise ValueError(f"config key {key!r} must map class ids to integer counts")
    bad = [k for k in value if not (k.isascii() and k.isdigit())]
    if bad:
        raise ValueError(
            f"config key {key!r} must map class ids (ASCII digits) to integer counts, "
            f"got {bad[0]!r}"
        )
    counts = {int(k): v for k, v in value.items()}
    if len(counts) != len(value):
        raise ValueError(f"config key {key!r} names a class id twice")
    return counts


def _fields(section: str, given, keys: dict) -> dict:
    """The settings that the JSON object ``given`` sets, read by ``keys``
    (JSON key -> (settings field, reader)).  Keys absent or null are left
    out, so the settings dataclass's default holds.  A reader whose field is
    None returns a dict of fields (a section flattened into ToolConfig)."""
    if not isinstance(given, dict):
        raise ValueError(f"config section {section!r} must be a JSON object")
    unknown = sorted(given.keys() - keys.keys())
    if unknown:
        raise ValueError(f"unknown {section} config keys: {', '.join(unknown)}")
    out = {}
    for key, value in given.items():
        if value is not None:
            name, read = keys[key]
            if name is None:
                out.update(read(key, value))
            else:
                out[name] = read(key, value)
    return out


def _section(make, keys: dict):
    return lambda key, value: make(**_fields(key, value, keys))


def _same(**kinds) -> dict:
    """Key table entries whose JSON key is the settings field's name."""
    return {key: (key, read) for key, read in kinds.items()}


_COLUMN = _same(pipeline=_STR, rows=_INT, cols=_INT, label=_STR)


def _columns(key: str, value) -> tuple:
    if not isinstance(value, list) or not all(isinstance(c, dict) for c in value):
        raise ValueError(f"config key {key!r} must be a list of objects")
    # a column without a pipeline fails ExperimentConfig's name check
    return tuple(
        EvalColumn(**{"pipeline": "", **_fields("evaluate column", c, _COLUMN)}) for c in value
    )


def _pipelines(key: str, value) -> tuple:
    return tuple(EvalColumn(p, label=p) for p in _STRINGS(key, value))


_EVALUATE = {
    "pipelines": ("columns", _pipelines),
    "columns": ("columns", _columns),
    "classifiers": ("classifiers", _STRINGS),
    "seeds": ("eval_seeds", _INTS),
    "mode": ("eval_mode", _STR),
    "holdout_counts": ("holdout_counts", _holdout_counts),
}


def _evaluate(key: str, value) -> dict:
    settings = _fields(key, value, _EVALUATE)
    if value.get("pipelines") is not None and value.get("columns") is not None:
        raise ValueError("evaluate takes either pipelines or columns, not both")
    return settings


_SCHEDULE = _same(
    steps_per_sample=_INT, alpha0=_NUMBER, alpha_final=_NUMBER, sigma0=_NUMBER, sigma_final=_NUMBER
)

_TOP = {
    **_same(
        seed=_INT,
        fisher_dim=_INT,
        knn_k=_INT,
        folds=_INT,
        preprocess=_section(PreprocessConfig, _same(crop=_BOOL, threshold=_INT, rescale=_BOOL)),
        roi=_section(RoiConfig, _same(mode=_STR, sn=_INT, block_size=_INT, min_region_pixels=_INT)),
        texture=_section(TextureConfig, _same(levels=_INT, offsets=_OFFSETS, symmetric=_BOOL)),
    ),
    # these sections set ToolConfig fields directly
    "map": (None, _section(dict, {"rows": ("map_rows", _INT), "cols": ("map_cols", _INT)})),
    "schedule": (None, _section(dict, _SCHEDULE)),
    "evaluate": (None, _evaluate),
}


def config_from_dict(raw: dict) -> ToolConfig:
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    return ToolConfig(**_fields("top-level", raw, _TOP))


def load_config(path) -> ToolConfig:
    """Read a JSON config file.  Undecodable bytes and malformed JSON are data
    problems, as is JSON nested too deeply or with an integer too long for
    the decoder; invalid settings are usage problems (ValueError)."""
    text = read_text(path, "utf-8")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"config {path}: invalid JSON: {exc}") from exc
    try:
        return config_from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc
