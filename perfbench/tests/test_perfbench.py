"""Self-tests of the benchmark harness: inputs, tracing wrappers, metric names."""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for _p in (BENCH, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


GENERATORS = (
    inputs.extract_corpus,
    inputs.train_corpus,
    inputs.query_pool,
    inputs.eval_features,
)


@pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
def test_inputs_are_byte_deterministic_per_seed(gen):
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_inputs_are_valid_program_inputs():
    from csomtex.data import dataset_from_csv
    from csomtex.imaging import load_pgm

    large, small = inputs.extract_corpus(0)
    for data, cls in large + small + inputs.query_pool(0)[:2]:
        img = load_pgm(data)
        assert img.pixels.min() >= 1 and 0 <= cls < inputs.N_CLASSES
    ds = dataset_from_csv(inputs.eval_features(0))
    assert ds.dim == inputs.EVAL_DIM
    assert np.bincount(ds.labels).tolist() == list(inputs.EVAL_CLASS_SIZES)


def _bindings():
    return {
        (name, key): value
        for name, mod in sorted(sys.modules.items())
        if name == "csomtex" or name.startswith("csomtex.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_is_transparent_and_restores_originals():
    import csomtex.cli  # noqa: F401  (binds the functions in every module)
    from csomtex import csom, evaluation, som
    from csomtex.data import Dataset

    before = _bindings()
    predict = evaluation.GaussianNbModel.predict
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(12, 3)), np.repeat([0, 1, 2], 4))
    sched = som.TrainingSchedule(iterations=60, sigma0=1.0, seed=3)

    def work():
        model = csom.train_csom(data, 2, 2, sched)
        gnb = evaluation.gnb_fit(data)
        return model, [gnb.predict(x) for x in data.X]

    plain_model, plain_pred = work()
    tracer = layers.Tracer()
    with tracer:
        assert hasattr(som.train, "__wrapped__")
        assert csom.train is som.train and evaluation.train is som.train
        traced_model, traced_pred = work()
    assert _bindings() == before
    assert evaluation.GaussianNbModel.predict is predict

    assert traced_pred == plain_pred
    for (_, a), (_, b) in zip(plain_model.entries, traced_model.entries):
        assert np.array_equal(a.weights, b.weights)

    m = layers.layer_metrics(tracer)
    assert m["som.train.calls"] == 3 and m["som.train.steps"] == sum(
        max(1, round(60 * 4 / 12)) for _ in range(3)
    )
    assert m["som.train.unique_ratio"] == 1.0
    assert m["evaluation.gnb.busy_s"] > 0
    # train_csom's children are its init_map and train spans
    (outer,) = [s for s in tracer.spans if s[2] == "csom.train_csom"]
    children = [s for s in tracer.spans if s[1] == outer[0]]
    assert {s[2] for s in children} == {"som.init_map", "som.train"}
    assert outer[5] == pytest.approx(sum(s[4] - s[3] for s in children))
    assert 0 <= m["csom.train_csom.self_s"] <= outer[4] - outer[3]


def test_unique_ratio_counts_repeated_inputs():
    from csomtex import fisher
    from csomtex.data import Dataset

    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(9, 3)), np.repeat([0, 1, 2], 3))
    with layers.Tracer() as tracer:
        for _ in range(4):
            fisher.fit_fisher(data)
    assert layers.layer_metrics(tracer)["fisher.fit_fisher.unique_ratio"] == 0.25


def test_metric_names_and_counts_match_the_spec():
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    for name in e2e + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)
    assert e2e == list(run.E2E_UNITS)
    assert per_layer == list(layers.METRIC_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert run.tail(values) == (89.0, 90.0)
    assert run.tail(values[:10]) == (9.0, 100.0)


def test_compare_uses_tolerance_for_floats_only():
    assert workloads.compare({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}) is None
    assert workloads.compare({"a": [1.0, 2]}, {"a": [1.0, 3]})
    assert workloads.compare({"a": [1.0]}, {"a": [1.001]})
    assert workloads.compare("table", "table ")
