"""Reading the JSON tool configuration: key tables, null and defaults."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csomtex.config import EvalColumn, ToolConfig, config_from_dict
from csomtex.errors import Error
from csomtex.evaluation import MAX_MAP_UNITS

SECTION_KEYS = {
    "preprocess": ["crop", "threshold", "rescale"],
    "roi": ["mode", "sn", "block_size", "min_region_pixels"],
    "texture": ["levels", "offsets", "symmetric"],
    "map": ["rows", "cols"],
    "schedule": ["steps_per_sample", "alpha0", "alpha_final", "sigma0", "sigma_final"],
    "evaluate": ["pipelines", "columns", "classifiers", "seeds", "mode", "holdout_counts"],
}
SCALAR_KEYS = ["seed", "fisher_dim", "knn_k", "folds"]
COLUMN_KEYS = ["pipeline", "rows", "cols", "label"]
NAMES = ["knn", "gnb", "raw", "csom-replace", "som-append", "cv", "holdout", "blockwise", "x"]

# Any JSON value, with small integers and setting names common enough that
# many draws pass the type checks and reach the range checks behind them.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats()
    | st.sampled_from(NAMES)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "a"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _object(keys, values):
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))


evaluate_values = json_values | st.lists(_object(COLUMN_KEYS, json_values), max_size=3)
sections = {
    name: json_values | _object(keys, evaluate_values if name == "evaluate" else json_values)
    for name, keys in SECTION_KEYS.items()
}
configs = st.fixed_dictionaries(
    {}, optional={**sections, **{key: json_values for key in SCALAR_KEYS + ["classifier"]}}
) | json_values


@given(raw=configs)
@settings(max_examples=400, deadline=None)
def test_any_json_value_at_any_key_is_a_setting_or_a_usage_error(raw):
    try:
        cfg = config_from_dict(raw)
    except (ValueError, Error):
        return
    assert isinstance(cfg, ToolConfig)


def _without_nulls(value):
    if isinstance(value, dict):
        return {k: _without_nulls(v) for k, v in value.items() if v is not None}
    if isinstance(value, list):
        return [_without_nulls(v) for v in value]
    return value


@pytest.mark.parametrize(
    "raw",
    [{key: None} for key in SCALAR_KEYS]
    + [{section: None} for section in SECTION_KEYS]
    + [{section: {key: None}} for section, keys in SECTION_KEYS.items() for key in keys]
    + [{"evaluate": {"columns": [{"pipeline": "raw", key: None}]}} for key in COLUMN_KEYS[1:]],
    ids=repr,
)
def test_null_is_not_set(raw):
    assert repr(config_from_dict(raw)) == repr(config_from_dict(_without_nulls(raw)))


def test_column_sizes_default_to_the_map_section():
    columns = [{"pipeline": "raw"}, {"pipeline": "som-replace", "cols": 4}]
    cfg = config_from_dict({"map": {"rows": 3}, "evaluate": {"columns": columns}})
    assert cfg.columns == (
        EvalColumn("raw", 3, 5, "raw@3x5"),
        EvalColumn("som-replace", 3, 4, "som-replace@3x4"),
    )
    cfg = config_from_dict({"map": {"cols": 2}, "evaluate": {"pipelines": ["raw"]}})
    assert cfg.columns == (EvalColumn("raw", 5, 2, "raw"),)


def test_defaults_come_from_the_settings_dataclasses():
    assert repr(config_from_dict({})) == repr(ToolConfig())
    cfg = config_from_dict({"schedule": {"alpha0": 1, "sigma0": 2}})
    assert (cfg.alpha0, cfg.sigma0) == (1.0, 2.0)
    assert type(cfg.alpha0) is float


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"roi": {"sn": True}}, "config key 'sn' must be an integer"),
        ({"map": {"rows": 2**63}}, "config key 'rows' must be an integer"),
        ({"schedule": {"alpha0": float("nan")}}, "config key 'alpha0' must be a number"),
        ({"schedule": {"sigma0": 10**400}}, "config key 'sigma0' must be a number"),
        ({"evaluate": {"seeds": [0, False]}}, "config key 'seeds' must be a list of integers"),
        ({"evaluate": {"mode": "holdout", "holdout_counts": {"a": 2}}}, "integer counts"),
        ({"evaluate": {"pipelines": ["raw"], "columns": []}}, "either pipelines or columns"),
        ({"evaluate": {"columns": [{"rows": 2}]}}, "unknown pipeline ''"),
        ({"evaluate": {"columns": [{"pipeline": "raw", "size": 2}]}},
         "unknown evaluate column config keys: size"),
        ({"evaluate": {"mode": "holdout", "holdout_counts": {"1_0": 5}}}, "got '1_0'"),
        ({"evaluate": {"mode": "holdout", "holdout_counts": {"-1": 3}}}, "got '-1'"),
        ({"evaluate": {"mode": "holdout", "holdout_counts": {" 1": 3}}}, "got ' 1'"),
        ({"evaluate": {"mode": "holdout", "holdout_counts": {"\u0661": 3}}}, "(ASCII digits)"),
        ({"evaluate": {"mode": "holdout", "holdout_counts": {"1": 2, "01": 3}}},
         "names a class id twice"),
        ({"texture": {"levels": 257}}, "texture levels must lie in [2, 256], got 257"),
        ({"map": {"rows": MAX_MAP_UNITS + 1, "cols": 1}}, f"more than {MAX_MAP_UNITS} units"),
        ({"map": {"rows": 2},
          "evaluate": {"columns": [{"pipeline": "raw", "cols": MAX_MAP_UNITS // 2 + 1}]}},
         f"map grid 2x{MAX_MAP_UNITS // 2 + 1} has more than {MAX_MAP_UNITS} units"),
    ],
)
def test_bad_values_are_value_errors(raw, message):
    with pytest.raises(ValueError) as info:
        config_from_dict(raw)
    assert message in str(info.value)
