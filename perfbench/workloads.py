"""The benchmark's workloads and their output checks.

Each workload has a *batch*, one whole CLI job (time to a complete result),
and a cycle of *items*, the smallest request of the same kind, sent one
after another by a single client (closed loop).  The program sees only the
files and bytes made by ``inputs``; the CLI runs in-process through
``csomtex.cli.main`` and the classify queries through the public library.

Every output is checked.  The first batch of a run is the run's own
reference: later batches must repeat it exactly and every item must agree
with it.  On the default seed the first batch is also compared with the
outputs stored in ``reference/seed0.json``: labels, accuracies and the
evaluate table exactly, float features and map errors at ``RTOL``/``ATOL``.

Functions of the package are always looked up on their module at call time,
so the wrappers that ``layers.Tracer`` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time

import inputs

RTOL = 1e-9
ATOL = 1e-12
DEFAULT_SEED = 0
# A classify run below this accuracy on the generated textures is a broken
# program, not an unlucky seed: every seed tried scores 1.0.
MIN_ACCURACY = 0.5


class CliError(RuntimeError):
    pass


def cli(argv: list[str]) -> str:
    """Run ``csomtex.cli.main`` in-process and return what it printed."""
    from csomtex import cli as cli_mod

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    if code != 0:
        raise CliError(f"csomtex {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _read(path) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write(path, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def csv_matrix(text: str) -> tuple[list[list[float]], list[int]]:
    """Features and labels of a features CSV, parsed by the benchmark."""
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    return [[float(v) for v in r[:-1]] for r in rows], [int(r[-1]) for r in rows]


def compare(ref, got, path: str = "") -> str | None:
    """First difference between a stored reference and an output, or None.

    Floats compare at RTOL/ATOL, everything else exactly.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{path}: keys differ"
        for k in ref:
            problem = compare(ref[k], got[k], f"{path}.{k}")
            if problem:
                return problem
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: length differs"
        for i, (r, g) in enumerate(zip(ref, got)):
            problem = compare(r, g, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if isinstance(ref, float):
        if isinstance(got, (int, float)) and math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL):
            return None
        return f"{path}: {got!r} != {ref!r}"
    return None if ref == got else f"{path}: {got!r} != {ref!r}"


class Workload:
    """Base: subclasses write inputs in ``prepare`` and define batch and items."""

    name = ""
    cycles_per_round = 1  # item cycles after each batch; batches get most of a run

    def __init__(self, work_dir: str, seed: int) -> None:
        self.dir = work_dir
        self.seed = seed
        self.ref = None  # first batch output of this run

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def prepare(self) -> None:
        raise NotImplementedError

    def batch(self):
        raise NotImplementedError

    @property
    def n_items(self) -> int:
        raise NotImplementedError

    def item(self, i: int):
        raise NotImplementedError

    def check_item(self, i: int, out) -> str | None:
        raise NotImplementedError

    def first_batch(self, out) -> str | None:
        """Hook run once on the first batch output; returns a problem or None."""
        return None

    def reference_view(self) -> dict:
        """JSON-able outputs of the first batch, compared on the default seed."""
        raise NotImplementedError

    def load(self) -> None:
        """Set-up a user pays before the first item, after a batch; none by default."""

    def extra_setup_s(self) -> float:
        """Median time of five ``load`` calls; counted in ``setup_s``."""
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            self.load()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def check_batch(self, out) -> str | None:
        if self.ref is None:
            self.ref = out
            return self.first_batch(out)
        return None if out == self.ref else f"{self.name}: batch output differs from the first batch"


class ExtractBlockwise(Workload):
    """CLI `extract` of a 256x256 P5 texture, blockwise ROI, 8 levels.

    The batch holds one large image and the seven small item images; an item
    is one small image extracted alone, which must equal its batch row.
    """

    name = "extract-blockwise"
    cycles_per_round = 2

    def prepare(self) -> None:
        _write(self.path("extract.json"), inputs.config_json(inputs.EXTRACT_CONFIG))
        large, small = inputs.extract_corpus(self.seed)
        entries = []
        for i, (data, cls) in enumerate(large + small):
            name = f"tex{i}.pgm"
            _write(self.path(name), data)
            entries.append((name, cls))
        _write(self.path("batch.txt"), inputs.manifest(entries))
        self.first_item = len(large)
        for i, entry in enumerate(entries[len(large):]):
            _write(self.path(f"one{i}.txt"), inputs.manifest([entry]))
        self.classes = [c for _, c in entries]

    def _extract(self, manifest: str, out: str) -> str:
        cli(["extract", self.path(manifest), "-o", self.path(out), "--config", self.path("extract.json")])
        return _read(self.path(out))

    def batch(self) -> str:
        return self._extract("batch.txt", "batch.csv")

    def first_batch(self, out) -> str | None:
        _, labels = csv_matrix(out)
        return None if labels == self.classes else "extract: labels do not follow the manifest"

    @property
    def n_items(self) -> int:
        return len(self.classes) - self.first_item

    def item(self, i: int) -> str:
        return self._extract(f"one{i}.txt", f"one{i}.csv")

    def check_item(self, i: int, out) -> str | None:
        lines = out.strip().split("\n")
        ref_lines = self.ref.strip().split("\n")
        if lines != [ref_lines[0], ref_lines[self.first_item + i + 1]]:
            return f"extract: image {i} alone differs from its row in the batch"
        return None

    def reference_view(self) -> dict:
        X, labels = csv_matrix(self.ref)
        return {"features": X, "labels": labels}


class TrainClassify(Workload):
    """CLI `train` on 32x32 texture features, then single P2 queries via the library."""

    name = "train-classify"

    def prepare(self) -> None:
        cfg = self.path("train.json")
        _write(cfg, inputs.config_json(inputs.TRAIN_CONFIG))
        self.queries = inputs.query_pool(self.seed)
        for prefix, corpus in (("train", inputs.train_corpus(self.seed)), ("query", self.queries)):
            entries = []
            for i, (data, cls) in enumerate(corpus):
                name = f"{prefix}{i}.pgm"
                _write(self.path(name), data)
                entries.append((name, cls))
            _write(self.path(f"{prefix}.txt"), inputs.manifest(entries))
            cli(["extract", self.path(f"{prefix}.txt"), "-o", self.path(f"{prefix}.csv"), "--config", cfg])
        from csomtex import config

        self.cfg = config.load_config(cfg)

    def batch(self) -> bytes:
        model = self.path("model.txt")
        cli(["train", self.path("train.csv"), "-o", model, "--config", self.path("train.json")])
        with open(model, "rb") as fh:
            return fh.read()

    def first_batch(self, out) -> str | None:
        """Classify the query features with the CLI: the reference for the items."""
        text = cli(["classify", self.path("model.txt"), self.path("query.csv"), "--errors"])
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        truth = [int(r[1]) for r in rows]
        self.predicted = [int(r[2]) for r in rows]
        self.errors = [[float(v) for v in r[3:]] for r in rows]
        self.load()
        hits = sum(p == t for p, t in zip(self.predicted, truth))
        self.accuracy = f"{hits}/{len(rows)}"
        if hits < MIN_ACCURACY * len(rows):
            return f"classify: accuracy {self.accuracy} below {MIN_ACCURACY}"
        return None

    def load(self) -> None:
        from csomtex import model_io

        self.model = model_io.load_model(self.path("model.txt"))

    @property
    def n_items(self) -> int:
        return len(self.queries)

    def item(self, i: int):
        from csomtex import csom, fisher, imaging, texture

        cfg = self.cfg
        img = imaging.load_pgm(self.queries[i][0])
        img = imaging.quantize(imaging.preprocess(img, cfg.preprocess), cfg.texture.levels)
        feats = texture.extract_features(img, cfg.roi, cfg.texture)
        cid, errors = csom.classify(self.model.csom, fisher.project(self.model.fisher, feats))
        return cid, [float(e) for e in errors]

    def check_item(self, i: int, out) -> str | None:
        cid, errors = out
        if cid != self.predicted[i]:
            return f"classify: query {i} predicted {cid}, CLI classify said {self.predicted[i]}"
        return compare(self.errors[i], errors, f"classify: query {i} errors")

    def reference_view(self) -> dict:
        X, labels = csv_matrix(_read(self.path("train.csv")))
        return {
            "train_features": X,
            "train_labels": labels,
            "predicted": self.predicted,
            "errors": self.errors,
            "accuracy": self.accuracy,
        }


class EvaluateGrid(Workload):
    """CLI `evaluate -o` over the default grid on Gaussian feature rows.

    An item is one grid cell on a single holdout split.  Its rows must equal
    those of the whole grid run once on the holdout split after the first batch.
    """

    name = "evaluate-grid"

    PIPELINES = ("raw", "som-replace", "som-append", "csom-replace", "csom-append")
    CLASSIFIERS = ("knn", "gnb")

    def prepare(self) -> None:
        _write(self.path("eval.csv"), inputs.eval_features(self.seed))
        _write(self.path("grid.json"), inputs.config_json(inputs.EVAL_CONFIG))
        holdout = dict(inputs.EVAL_CONFIG, evaluate={"mode": "holdout"})
        _write(self.path("holdout.json"), inputs.config_json(holdout))
        self.cells = [(c, p) for c in self.CLASSIFIERS for p in self.PIPELINES]
        for k, (clf, pipe) in enumerate(self.cells):
            cell = dict(holdout, evaluate={"mode": "holdout", "classifiers": [clf], "pipelines": [pipe]})
            _write(self.path(f"cell{k}.json"), inputs.config_json(cell))

    def _evaluate(self, config: str, out: str) -> tuple[str, str]:
        table = cli(["evaluate", self.path("eval.csv"), "-o", self.path(out), "--config", self.path(config)])
        return table, _read(self.path(out))

    def batch(self) -> tuple[str, str]:
        return self._evaluate("grid.json", "grid.csv")

    def first_batch(self, out) -> str | None:
        self.holdout = self._evaluate("holdout.json", "holdout.csv")
        return None

    @property
    def n_items(self) -> int:
        return len(self.cells)

    def item(self, k: int) -> str:
        return self._evaluate(f"cell{k}.json", f"cell{k}.csv")[1]

    def check_item(self, k: int, out) -> str | None:
        clf, pipe = self.cells[k]
        lines = self.holdout[1].strip().split("\n")
        want = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[:2] == [clf, pipe]]
        if len(want) < 2 or out.strip().split("\n") != want:
            return f"evaluate: cell {clf}/{pipe} alone differs from its rows in the holdout grid"
        return None

    def reference_view(self) -> dict:
        return {
            "table": self.ref[0],
            "csv": self.ref[1],
            "holdout_table": self.holdout[0],
            "holdout_csv": self.holdout[1],
        }


WORKLOADS = {w.name: w for w in (ExtractBlockwise, TrainClassify, EvaluateGrid)}


def command_metrics(wl: Workload, values: dict, facts: dict) -> list[str]:
    """The end-to-end metrics under their per-command names, one per line."""
    named = []
    if wl.name == "extract-blockwise":
        images = len(wl.classes)
        named.append(("extract.images_per_s", images / values["batch_s"], f"1/s (1 at 256x256 + {images - 1} at 64x64)"))
    elif wl.name == "train-classify":
        named += [
            ("train.wall_s", values["batch_s"], "s"),
            ("classify.images_per_s", facts["items_per_s"], "1/s"),
            ("classify.latency_p50_ms", values["item_p50_ms"], "ms"),
            ("classify.latency_tail_ms", values["item_tail_ms"],
             f"ms p{facts['item_tail_percentile']} of {facts['items']} queries' best"),
        ]
    else:
        named.append(("evaluate.wall_s", values["batch_s"], "s"))
    named += [("setup_s", values["setup_s"], "s"), ("peak_rss_mb", values["peak_rss_mb"], "MB")]
    return [f"metric {name} {value:.6g} {unit}" for name, value, unit in named]
