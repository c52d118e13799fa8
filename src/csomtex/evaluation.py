"""Fitted pipelines and their cross-validated comparison.

A pipeline is a Fisher projection followed by per-class maps, one pooled
map, or no map (``raw``).  Every fold fits its own projection and map(s) on
the training split only, transforms both splits, then scores a k-NN or
Gaussian naive Bayes classifier on the test split.  Test rows are
transformed without their labels, mirroring how unseen data would flow
through the model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .csom import CsomModel, class_maps, transform_append, transform_replace
from .data import Dataset, require_labels
from .errors import DataError
from .fisher import FisherProjection, fit_fisher, project_dataset
from .som import (
    SomMap,
    TrainingSchedule,
    append_prototypes,
    distances,
    init_map,
    replace_with_prototypes,
    train,  # not called here; perfbench's tracer test checks evaluation.train is som.train
    train_maps,
)

PIPELINES = ("raw", "som-replace", "som-append", "csom-replace", "csom-append")
CLASSIFIERS = ("knn", "gnb")
EVAL_MODES = ("cv", "holdout")
MODES = ("replace", "append")

HOLDOUT_FRACTION = 0.22

# Units of one map grid.  The training engine's grid-distance tables grow as
# the square of the longer side, so a 4096x1 map already takes 128 MiB; the
# paper's maps are a few units a side.
MAX_MAP_UNITS = 4096


@dataclass
class ExperimentConfig:
    """Settings of one pipeline/classifier run, each checked here once."""

    pipeline: str = "csom-replace"
    classifier: str = "knn"
    knn_k: int = 1
    map_rows: int = 5
    map_cols: int = 5
    fisher_dim: int | None = None  # None: n_classes - 1
    folds: int = 10
    seed: int = 0
    steps_per_sample: int = 100
    alpha0: float = 0.5
    alpha_final: float = 0.01
    sigma0: float | None = None  # None: max(rows, cols) / 2
    sigma_final: float = 0.5
    eval_mode: str = "cv"
    holdout_counts: dict | None = None

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; valid names: {', '.join(PIPELINES)}"
            )
        if self.classifier not in CLASSIFIERS:
            raise ValueError(
                f"unknown classifier {self.classifier!r}; valid names: {', '.join(CLASSIFIERS)}"
            )
        if self.eval_mode not in EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {EVAL_MODES}, got {self.eval_mode!r}")
        if self.holdout_counts is not None and self.eval_mode != "holdout":
            raise ValueError(f"holdout_counts needs eval_mode 'holdout', got {self.eval_mode!r}")
        if self.holdout_counts is not None and min(self.holdout_counts.values(), default=0) < 0:
            raise ValueError(f"holdout counts must be >= 0, got {self.holdout_counts}")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.map_rows < 1 or self.map_cols < 1:
            raise ValueError("map grid dimensions must be >= 1")
        if self.map_rows * self.map_cols > MAX_MAP_UNITS:
            raise ValueError(
                f"map grid {self.map_rows}x{self.map_cols} has more than "
                f"{MAX_MAP_UNITS} units"
            )
        if self.fisher_dim is not None and self.fisher_dim < 1:
            raise ValueError("fisher_dim must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.steps_per_sample < 1:
            raise ValueError("steps_per_sample must be >= 1")
        self.schedule(1)  # TrainingSchedule checks the alpha and sigma endpoints

    def schedule(self, n_samples: int) -> TrainingSchedule:
        """The training schedule for n_samples rows: steps_per_sample * n steps,
        sigma0 defaulting to half the larger grid side (at least sigma_final)."""
        sigma0 = self.sigma0
        if sigma0 is None:
            sigma0 = max(max(self.map_rows, self.map_cols) / 2.0, self.sigma_final)
        return TrainingSchedule(
            iterations=max(1, self.steps_per_sample * n_samples),
            alpha0=self.alpha0,
            alpha_final=self.alpha_final,
            sigma0=sigma0,
            sigma_final=self.sigma_final,
            seed=self.seed,
        )


@dataclass(eq=False)
class FittedPipeline:
    """A Fisher projection followed by per-class maps, one pooled map, or no map.

    ``mode`` is the transform applied when none is asked for.  ``echo`` is an
    ordered (key, value) record of the extraction settings the pipeline was
    trained under; model files carry it verbatim for provenance.
    """

    fisher: FisherProjection
    csom: CsomModel | None = None
    som: SomMap | None = None
    mode: str = "replace"
    echo: tuple = ()

    def __post_init__(self) -> None:
        if self.csom is not None and self.som is not None:
            raise ValueError("a pipeline holds per-class maps or one pooled map, not both")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        self.echo = tuple((str(k), str(v)) for k, v in self.echo)
        for k, v in self.echo:
            if not k or " " in k or "\n" in k or not v or "\n" in v:
                raise ValueError(f"bad pipeline echo entry {(k, v)!r}")
        maps = self.som if self.som is not None else self.csom
        if maps is not None and maps.dim != self.fisher.dim:
            raise ValueError(
                f"map dimension {maps.dim} does not match projection output {self.fisher.dim}"
            )

    @property
    def single_som(self) -> bool:
        return self.som is not None

    @classmethod
    def fit(
        cls, data: Dataset, cfg: ExperimentConfig, fisher: FisherProjection | None = None
    ) -> "FittedPipeline":
        """Fit the projection (unless one is given) and the map(s) that
        ``cfg.pipeline`` names on a labeled dataset."""
        if fisher is None:
            fisher = fit_fisher(data, cfg.fisher_dim)
        return fit_pipelines([(data, cfg, fisher)])[0]

    def transform(self, data: Dataset, mode: str | None = None) -> Dataset:
        """Project, then replace each row by its winning prototype or append
        the prototype to it (``mode``, by default the stored one).  Labeled
        rows take their own class map; without a map the projection is all."""
        z = project_dataset(self.fisher, data)
        replace = (mode or self.mode) == "replace"
        if self.som is not None:
            return (replace_with_prototypes if replace else append_prototypes)(self.som, z)
        if self.csom is not None:
            return (transform_replace if replace else transform_append)(self.csom, z)
        return z


def fit_pipelines(tasks) -> list[FittedPipeline]:
    """One pipeline per ``(labeled split, config, projection of that split)``
    task, as ``FittedPipeline.fit`` would make it.  The maps of every task
    train together in one ``train_maps`` call, and none is made when no task
    has a map."""
    tasks = list(tasks)
    jobs = []  # (task index, class id or None, initial map, its rows, schedule)
    for i, (split, cfg, fisher) in enumerate(tasks):
        kind = cfg.pipeline.partition("-")[0]
        if kind == "raw":
            continue
        z = project_dataset(fisher, split)
        sched = cfg.schedule(z.n)
        if kind == "csom":
            jobs += [(i, *job) for job in class_maps(z, cfg.map_rows, cfg.map_cols, sched)]
        else:
            som = init_map(cfg.map_rows, cfg.map_cols, z.dim, seed=cfg.seed, data=z)
            jobs.append((i, None, som, z, sched))
    trained = []
    if jobs:
        trained = train_maps([j[2] for j in jobs], [j[3] for j in jobs], [j[4] for j in jobs])
    entries = [[] for _ in tasks]
    for (i, cid, *_), som in zip(jobs, trained):
        entries[i].append((cid, som))
    pipelines = []
    for (_, cfg, fisher), maps in zip(tasks, entries):
        kind, _, mode = cfg.pipeline.partition("-")
        if kind == "raw":
            pipelines.append(FittedPipeline(fisher))
        elif kind == "csom":
            pipelines.append(FittedPipeline(fisher, csom=CsomModel(maps), mode=mode))
        else:
            pipelines.append(FittedPipeline(fisher, som=maps[0][1], mode=mode))
    return pipelines


@dataclass(eq=False)
class EvaluationReport:
    pipeline: str
    classifier: str
    eval_mode: str
    class_ids: np.ndarray
    fold_accuracies: list
    confusion: np.ndarray  # rows: true class, cols: predicted class
    config: dict = field(default_factory=dict)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))


def kfold_split(data: Dataset, k: int, seed: int = 0) -> list[tuple[Dataset, Dataset]]:
    """Stratified k-fold: per class, shuffle rows and deal them round-robin.

    The deal position carries over between classes so every fold receives a
    test share whenever k <= n.  Test folds are disjoint and union to the
    whole dataset.  More folds than rows is a DataError.
    """
    labels = require_labels(data)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > data.n:
        raise DataError(f"cannot make {k} folds from {data.n} rows")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(data.n, dtype=np.int64)
    start = 0
    for cid in np.unique(labels):
        idx = np.flatnonzero(labels == cid)
        idx = idx[rng.permutation(idx.size)]
        for j, row in enumerate(idx):
            fold_of[row] = (start + j) % k
        start = (start + idx.size) % k
    splits = []
    for f in range(k):
        test_idx = np.flatnonzero(fold_of == f)
        train_idx = np.flatnonzero(fold_of != f)
        splits.append((data.subset(train_idx), data.subset(test_idx)))
    return splits


def holdout_split(
    data: Dataset, counts: dict | None = None, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Per-class holdout: reserve ``counts[class]`` rows of each class for
    testing (default: 22% of the class, at least one row).  A class the
    counts leave out keeps all its rows for training.  A class they name
    that the data lacks, or a count that leaves a class no training row, is
    a DataError."""
    labels = require_labels(data)
    absent = sorted(set(counts or ()) - set(np.unique(labels).tolist()))
    if absent:
        raise DataError(f"holdout counts name class(es) {absent} absent from the data")
    rng = np.random.default_rng(seed)
    test_rows = []
    for cid in np.unique(labels):
        idx = np.flatnonzero(labels == cid)
        if counts is not None:
            want = int(counts.get(int(cid), 0))
        else:
            want = max(1, round(HOLDOUT_FRACTION * idx.size))
        if want < 0:
            raise ValueError(f"holdout count {want} for class {cid} must be >= 0")
        if want >= idx.size:
            raise DataError(
                f"holdout count {want} for class {cid} must leave at least one "
                f"training row of {idx.size}"
            )
        idx = idx[rng.permutation(idx.size)]
        test_rows.extend(idx[:want].tolist())
    test_idx = np.array(sorted(test_rows), dtype=np.int64)
    train_mask = np.ones(data.n, dtype=bool)
    train_mask[test_idx] = False
    return data.subset(np.flatnonzero(train_mask)), data.subset(test_idx)


def knn_predict(train: Dataset, x, k: int = 1) -> int:
    """Majority label among the k nearest training rows.

    Distance ties resolve by lower row index; vote ties by lowest class id.
    """
    labels = _check_knn(train, k)
    x = np.asarray(x, dtype=np.float64)
    d = np.linalg.norm(train.X - x, axis=1)
    nearest = np.argsort(d, kind="stable")[:k]
    votes, counts = np.unique(labels[nearest], return_counts=True)
    return int(votes[int(np.argmax(counts))])


def _check_knn(train: Dataset, k: int) -> np.ndarray:
    labels = require_labels(train)
    if train.n == 0:
        raise ValueError("training set must be non-empty")
    if not 1 <= k <= train.n:
        raise ValueError(f"k must lie in [1, {train.n}], got {k}")
    return labels


# The batched classifiers hold at most this many bytes of per-query
# temporaries at once: (queries, training rows or classes, components).
BATCH_BYTES = 1 << 22


def _query_chunks(n_queries: int, bytes_per_query: int):
    step = max(1, BATCH_BYTES // max(1, bytes_per_query))
    return (slice(lo, lo + step) for lo in range(0, n_queries, step))


def knn_predict_batch(train: Dataset, X, k: int = 1) -> np.ndarray:
    """``knn_predict`` for every row of ``X`` (n, dim): the same distances
    bit for bit, and the same ties broken the same way."""
    labels = _check_knn(train, k)
    X = np.asarray(X, dtype=np.float64)
    classes, pos = np.unique(labels, return_inverse=True)
    out = np.empty(X.shape[0], dtype=np.int64)
    for rows in _query_chunks(X.shape[0], 8 * train.n * train.dim):
        q = X[rows]
        nearest = np.argsort(distances(q, train.X), axis=1, kind="stable")[:, :k]
        cells = np.arange(q.shape[0])[:, None] * classes.size + pos[nearest]
        votes = np.bincount(cells.ravel(), minlength=q.shape[0] * classes.size)
        # argmax takes the first of tied counts: the lowest class id
        out[rows] = classes[votes.reshape(q.shape[0], classes.size).argmax(axis=1)]
    return out


@dataclass(eq=False)
class GaussianNbModel:
    class_ids: np.ndarray
    log_priors: np.ndarray
    means: np.ndarray  # (n_classes, dim)
    variances: np.ndarray  # (n_classes, dim), floored

    def predict(self, x) -> int:
        x = np.asarray(x, dtype=np.float64)
        ll = self.log_priors + (
            -0.5 * (np.log(2.0 * np.pi * self.variances) + (x - self.means) ** 2 / self.variances)
        ).sum(axis=1)
        return int(self.class_ids[int(np.argmax(ll))])

    def _log_likelihoods(self, X: np.ndarray) -> np.ndarray:
        """(n, classes) log-likelihoods.  One (n, classes, dim) array summed
        along its contiguous last axis, so row i is bitwise the one-row sum
        ``predict`` makes for X[i]."""
        diff = X[:, None, :] - self.means
        terms = np.log(2.0 * np.pi * self.variances) + diff**2 / self.variances
        return self.log_priors + (-0.5 * terms).sum(axis=2)

    def predict_batch(self, X) -> np.ndarray:
        """``predict`` for every row of ``X`` (n, dim), from the same
        log-likelihoods bit for bit."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        for rows in _query_chunks(X.shape[0], 8 * self.means.size):
            out[rows] = self.class_ids[self._log_likelihoods(X[rows]).argmax(axis=1)]
        return out


def gnb_fit(train: Dataset) -> GaussianNbModel:
    """Per-class, per-dimension Gaussian fit with a relative variance floor."""
    labels = require_labels(train)
    classes, counts = np.unique(labels, return_counts=True)
    if counts.min() < 2:
        raise DataError("Gaussian naive Bayes needs at least two rows per class")
    global_var = train.X.var(axis=0)
    floor = np.maximum(1e-9 * global_var, 1e-12)
    means = np.empty((classes.size, train.dim))
    variances = np.empty((classes.size, train.dim))
    for i, cid in enumerate(classes):
        rows = train.X[labels == cid]
        means[i] = rows.mean(axis=0)
        variances[i] = np.maximum(rows.var(axis=0), floor)
    log_priors = np.log(counts / train.n)
    return GaussianNbModel(classes, log_priors, means, variances)


@dataclass(eq=False)
class FoldModels:
    """Everything fitted on one training split."""

    pipeline: FittedPipeline
    train_features: Dataset  # transformed training split (classifier input)
    gnb: GaussianNbModel | None

    @property
    def fisher(self) -> FisherProjection:
        return self.pipeline.fisher

    @property
    def csom(self) -> CsomModel | None:
        return self.pipeline.csom

    @property
    def som(self) -> SomMap | None:
        return self.pipeline.som


def fit_fold(train_split: Dataset, cfg: ExperimentConfig) -> FoldModels:
    """Fit Fisher, the configured map(s), and the classifier on one split."""
    pipeline = FittedPipeline.fit(train_split, cfg)
    features = pipeline.transform(train_split, cfg.pipeline.partition("-")[2])
    return FoldModels(pipeline, features, gnb_fit(features) if cfg.classifier == "gnb" else None)


def _classify(train_features: Dataset, gnb, X: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    if cfg.classifier == "knn":
        return knn_predict_batch(train_features, X, cfg.knn_k)
    return gnb.predict_batch(X)


def predict_fold(models: FoldModels, test_split: Dataset, cfg: ExperimentConfig) -> np.ndarray:
    """Predict test labels; the transform never sees them."""
    feats = models.pipeline.transform(test_split.without_labels(), cfg.pipeline.partition("-")[2])
    return _classify(models.train_features, models.gnb, feats.X, cfg)


def _score(
    class_ids: np.ndarray, truth: np.ndarray, preds: np.ndarray, confusion: np.ndarray
) -> float:
    np.add.at(confusion, (np.searchsorted(class_ids, truth), np.searchsorted(class_ids, preds)), 1)
    return float((truth == preds).mean())


def _shared(store: dict, key: tuple, make, *args):
    """``make(*args)``, made once per run under ``key`` in ``store``.  A step
    that fails stores its error, raised again to every config that reaches
    it."""
    if key not in store:
        try:
            store[key] = make(*args)
        except (DataError, ValueError) as exc:
            store[key] = exc
    if isinstance(store[key], Exception):
        raise store[key]
    return store[key]


def _splits(data: Dataset, cfg: ExperimentConfig) -> list:
    if cfg.eval_mode == "holdout":
        return [holdout_split(data, cfg.holdout_counts, seed=cfg.seed)]
    return kfold_split(data, cfg.folds, seed=cfg.seed)


def _split_key(cfg: ExperimentConfig) -> tuple:
    return ("split", cfg.eval_mode, cfg.folds, repr(cfg.holdout_counts), cfg.seed)


def _fit_key(cfg: ExperimentConfig) -> tuple:
    """The settings each fold's pipeline is fitted under; the first names
    the projection.  Configs that agree on them share the fits."""
    kind = cfg.pipeline.partition("-")[0]
    fisher = (_split_key(cfg), cfg.fisher_dim)
    return (fisher, kind, cfg.map_rows, cfg.map_cols, repr(cfg.schedule(1)))


def _projection(store: dict, fit: tuple, fold: int, train_split: Dataset, cfg: ExperimentConfig):
    return _shared(store, ("fisher", fit[0], fold), fit_fisher, train_split, cfg.fisher_dim)


def _evaluate(
    store: dict, data: Dataset, class_ids: np.ndarray, cfg: ExperimentConfig
) -> EvaluationReport:
    """Score ``cfg`` alone, fold by fold, from the fits in ``store``, sharing
    each fold's features and GNB model with the configs scored before it.
    Raises at the first failing fold."""
    confusion = np.zeros((class_ids.size, class_ids.size), dtype=np.int64)
    accuracies = []
    fit = _fit_key(cfg)
    mode = cfg.pipeline.partition("-")[2]
    splits = _shared(store, _split_key(cfg), _splits, data, cfg)
    for fold, (train_split, test_split) in enumerate(splits):
        if test_split.n == 0:
            raise DataError(f"fold {fold} has an empty test split")
        step = (fit, fold, mode)
        # a lone run's steps: projection, training features, GNB fit, test
        # features, prediction
        try:
            _projection(store, fit, fold, train_split, cfg)
            pipeline = store["fit", fit, fold]
            train_feats = _shared(store, ("train", *step), pipeline.transform, train_split, mode)
            gnb = None
            if cfg.classifier == "gnb":
                gnb = _shared(store, ("gnb", *step), gnb_fit, train_feats)
            test_feats = _shared(
                store, ("test", *step), pipeline.transform, test_split.without_labels(), mode
            )
            preds = _classify(train_feats, gnb, test_feats.X, cfg)
        except (DataError, ValueError) as exc:
            raise DataError(f"fold {fold}: {exc}") from exc
        accuracies.append(_score(class_ids, test_split.labels, preds, confusion))
    return EvaluationReport(
        pipeline=cfg.pipeline,
        classifier=cfg.classifier,
        eval_mode=cfg.eval_mode,
        class_ids=class_ids,
        fold_accuracies=accuracies,
        confusion=confusion,
        config=asdict(cfg),
    )


def run_experiments(data: Dataset, cfgs) -> list[EvaluationReport]:
    """Evaluate several pipeline/classifier configurations on one dataset.

    Every split, projection and pipeline is made once per run under the
    settings that make it, and configurations that share those settings
    share it.  All pipelines are fitted first, every map of the run in one
    engine call; then each configuration is scored alone, in order, as
    ``run_experiment`` would score it, so the reports and the first error
    raised are those of running each configuration by itself.  Transformed
    rows and GNB models are kept for the whole run.
    """
    require_labels(data)
    cfgs = list(cfgs)
    store = {}
    tasks = {}  # pipeline key -> (training split, config, projection), in first-use order
    for cfg in cfgs:
        try:
            splits = _shared(store, _split_key(cfg), _splits, data, cfg)
        except (DataError, ValueError):
            continue  # raised again when cfg is scored
        fit = _fit_key(cfg)
        for fold, (train_split, _) in enumerate(splits):
            try:
                fisher = _projection(store, fit, fold, train_split, cfg)
            except (DataError, ValueError):
                continue
            tasks.setdefault(("fit", fit, fold), (train_split, cfg, fisher))
    store.update(zip(tasks, fit_pipelines(tasks.values())))
    class_ids = data.class_ids
    return [_evaluate(store, data, class_ids, cfg) for cfg in cfgs]


def run_experiment(data: Dataset, cfg: ExperimentConfig) -> EvaluationReport:
    """Evaluate one pipeline/classifier combination on a labeled dataset.

    ``cv`` mode runs stratified k-fold cross-validation; ``holdout`` mode
    reserves per-class counts (HOLDOUT_FRACTION by default) for a single
    train/test split.  Deterministic given the config.
    """
    return run_experiments(data, [cfg])[0]
