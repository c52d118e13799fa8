"""Per-layer timing taken from outside the program.

`Tracer.install()` rebinds each listed public function of the csomtex
package to a timing wrapper, in every csomtex module namespace that holds
it (``som.train`` is bound in ``csom``, ``evaluation`` and ``cli`` too), and
`Tracer.remove()` puts the originals back.  The program itself is not
edited.  A function the package no longer defines is skipped, and its
metrics read 0.

Spans are kept in memory as tuples and written as JSONL at the end.  A
span's self time is its duration minus the durations of its direct child
spans.  Counts come from arguments and return values.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  An attribute "Class.method" is rebound on the class.
TARGETS = (
    ("imaging", "load_pgm", "imaging.load_pgm"),
    ("imaging", "preprocess", "imaging.preprocess"),
    ("imaging", "quantize", "imaging.quantize"),
    ("roi", "select_regions", "roi.select_regions"),
    ("texture", "extract_features", "texture.extract_features"),
    ("texture", "cooccurrence", "texture.cooccurrence"),
    ("texture", "haralick4", "texture.haralick4"),
    ("fisher", "fit_fisher", "fisher.fit_fisher"),
    ("fisher", "project", "fisher.project"),
    ("fisher", "project_dataset", "fisher.project_dataset"),
    ("som", "init_map", "som.init_map"),
    ("som", "train", "som.train"),
    ("som", "replace_with_prototypes", "som.replace_with_prototypes"),
    ("som", "append_prototypes", "som.append_prototypes"),
    ("csom", "train_csom", "csom.train_csom"),
    ("csom", "classify", "csom.classify"),
    ("csom", "classify_dataset", "csom.classify_dataset"),
    ("csom", "transform_replace", "csom.transform_replace"),
    ("csom", "transform_append", "csom.transform_append"),
    ("evaluation", "run_experiment", "evaluation.run_experiment"),
    ("evaluation", "knn_predict", "evaluation.knn_predict"),
    ("evaluation", "gnb_fit", "evaluation.gnb_fit"),
    ("evaluation", "GaussianNbModel.predict", "evaluation.gnb_predict"),
    ("data", "read_dataset", "data.read_dataset"),
    ("data", "dataset_to_csv", "data.dataset_to_csv"),
    ("model_io", "save_model", "model_io.save_model"),
    ("model_io", "load_model", "model_io.load_model"),
    ("model_io", "fnv1a64", "model_io.fnv1a64"),
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str((p.dtype, p.shape)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def _matrix(data) -> np.ndarray:
    return data.X if hasattr(data, "X") else np.asarray(data)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Argument keys for the unique-input ratios, taken before the call.
def _key_fit_fisher(args, kwargs):
    data = args[0]
    dim = args[1] if len(args) > 1 else kwargs.get("dim")
    return _digest(data.X, data.labels, dim)


def _key_som_train(args, kwargs):
    som, data, sched = args[:3]
    return _digest(som.weights, _matrix(data), repr(sched))


KEYS = {"fisher.fit_fisher": _key_fit_fisher, "som.train": _key_som_train}


def _count(name: str, args, ret, counts) -> None:
    """Work counts derived from arguments and return values."""
    if name == "imaging.load_pgm":
        counts["imaging.load_pgm.bytes"] += len(args[0])
    elif name == "roi.select_regions":
        counts["roi.regions"] += len(ret)
    elif name == "texture.cooccurrence":
        counts["texture.pairs"] += int(ret.pair_count)
    elif name == "som.train":
        counts["som.train.steps"] += int(args[2].iterations)
    elif name == "data.read_dataset":
        counts["data.csv_bytes"] += _file_size(args[0])
    elif name == "data.dataset_to_csv":
        counts["data.csv_bytes"] += len(ret)
    elif name in ("model_io.save_model", "model_io.load_model"):
        counts["model_io.bytes"] += _file_size(args[0])


class Tracer:
    """Span recorder plus the rebinding of the package's functions."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, child_s)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, list[str]] = defaultdict(list)
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.keys = defaultdict(list)

    def _wrap(self, name: str, fn):
        tracer = self
        keyfn = KEYS.get(name)

        def traced(*args, **kwargs):
            if keyfn is not None:
                tracer.keys[name].append(keyfn(args, kwargs))
            stack = tracer._stack
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.spans.append((frame[0], parent, name, t0, t1, frame[1]))
            _count(name, args, ret, tracer.counts)
            return ret

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every target in every csomtex module that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "csomtex" or n.startswith("csomtex.")]
        for mod_name, attr, span in TARGETS:
            home = sys.modules.get(f"csomtex.{mod_name}")
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(span, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        """Restore every original binding, last rebinding first."""
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, t0, t1, child in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "self_s": t1 - t0 - child,
                }) + "\n")


def _busy(spans, *names) -> float:
    return sum(t1 - t0 for _, _, n, t0, t1, _ in spans if n in names)


def _self(spans, *names) -> float:
    return sum(t1 - t0 - child for _, _, n, t0, t1, child in spans if n in names)


def _calls(spans, *names) -> int:
    return sum(1 for s in spans if s[2] in names)


def _unique_ratio(keys: list[str]) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced unit of work."""
    s, c = tracer.spans, tracer.counts
    return {
        "imaging.load_pgm.busy_s": _busy(s, "imaging.load_pgm"),
        "imaging.load_pgm.calls": _calls(s, "imaging.load_pgm"),
        "imaging.load_pgm.bytes": c["imaging.load_pgm.bytes"],
        "imaging.preprocess_quantize.busy_s": _busy(s, "imaging.preprocess", "imaging.quantize"),
        "roi.select_regions.busy_s": _busy(s, "roi.select_regions"),
        "roi.regions": c["roi.regions"],
        "texture.extract_features.self_s": _self(s, "texture.extract_features"),
        "texture.cooccurrence.busy_s": _busy(s, "texture.cooccurrence"),
        "texture.cooccurrence.calls": _calls(s, "texture.cooccurrence"),
        "texture.pairs": c["texture.pairs"],
        "texture.haralick4.busy_s": _busy(s, "texture.haralick4"),
        "fisher.fit_fisher.busy_s": _busy(s, "fisher.fit_fisher"),
        "fisher.fit_fisher.calls": _calls(s, "fisher.fit_fisher"),
        "fisher.fit_fisher.unique_ratio": _unique_ratio(tracer.keys["fisher.fit_fisher"]),
        "fisher.project.busy_s": _busy(s, "fisher.project", "fisher.project_dataset"),
        "som.init_map.busy_s": _busy(s, "som.init_map"),
        "som.train.busy_s": _busy(s, "som.train"),
        "som.train.calls": _calls(s, "som.train"),
        "som.train.steps": c["som.train.steps"],
        "som.train.unique_ratio": _unique_ratio(tracer.keys["som.train"]),
        "som.transform.busy_s": _busy(s, "som.replace_with_prototypes", "som.append_prototypes"),
        "csom.train_csom.self_s": _self(s, "csom.train_csom"),
        "csom.classify.busy_s": _busy(s, "csom.classify", "csom.classify_dataset"),
        "csom.classify.calls": _calls(s, "csom.classify", "csom.classify_dataset"),
        "csom.transform.busy_s": _busy(s, "csom.transform_replace", "csom.transform_append"),
        "evaluation.run_experiment.self_s": _self(s, "evaluation.run_experiment"),
        "evaluation.knn_predict.busy_s": _busy(s, "evaluation.knn_predict"),
        "evaluation.knn_predict.calls": _calls(s, "evaluation.knn_predict"),
        "evaluation.gnb.busy_s": _busy(s, "evaluation.gnb_fit", "evaluation.gnb_predict"),
        "data.csv_read.busy_s": _busy(s, "data.read_dataset"),
        "data.csv_write.busy_s": _busy(s, "data.dataset_to_csv"),
        "data.csv_bytes": c["data.csv_bytes"],
        "model_io.save_model.busy_s": _busy(s, "model_io.save_model"),
        "model_io.load_model.busy_s": _busy(s, "model_io.load_model"),
        "model_io.fnv1a64.busy_s": _busy(s, "model_io.fnv1a64"),
        "model_io.bytes": c["model_io.bytes"],
        "cli.main.self_s": _self(s, "cli.main"),
        "config.load_config.busy_s": _busy(s, "config.load_config"),
    }


METRIC_NAMES = tuple(layer_metrics(Tracer())) + ("trace.overhead_s",)
