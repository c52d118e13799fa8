"""Splitters, reference classifiers, and the fold harness."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from csomtex import (
    DataError,
    Dataset,
    ExperimentConfig,
    FittedPipeline,
    HOLDOUT_FRACTION,
    fit_fold,
    gnb_fit,
    holdout_split,
    kfold_split,
    knn_predict,
    predict_fold,
    run_experiment,
)
from csomtex import evaluation
from csomtex.evaluation import run_experiments
from helpers import gaussian_blobs


class TestKfoldSplit:
    def test_partition(self):
        data = gaussian_blobs([9, 6, 5], dim=2, seed=1)
        splits = kfold_split(data, 4, seed=3)
        assert len(splits) == 4
        seen = []
        for train, test in splits:
            assert train.n + test.n == data.n
            assert test.n > 0
            seen.extend(map(tuple, test.X))
        # test folds are disjoint and union to the dataset
        assert sorted(seen) == sorted(map(tuple, data.X))

    def test_stratified(self):
        data = gaussian_blobs([10, 20], dim=2, seed=0)
        for train, test in kfold_split(data, 5, seed=0):
            assert (test.labels == 0).sum() == 2
            assert (test.labels == 1).sum() == 4

    def test_uneven_classes_spread_over_folds(self):
        # 3 classes of 5 rows, 4 folds: the deal offset carries between
        # classes, so all 15 rows spread as evenly as 15 over 4 can.
        data = gaussian_blobs([5, 5, 5], dim=2, seed=0)
        sizes = sorted(test.n for _, test in kfold_split(data, 4, seed=0))
        assert sizes == [3, 4, 4, 4]

    def test_deterministic(self):
        data = gaussian_blobs([7, 8], dim=3, seed=2)
        a = kfold_split(data, 3, seed=9)
        b = kfold_split(data, 3, seed=9)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert tr1 == tr2 and te1 == te2

    def test_validation(self):
        data = gaussian_blobs([2, 2], dim=2)
        with pytest.raises(ValueError):
            kfold_split(data, 1)
        with pytest.raises(ValueError):
            kfold_split(data, 5)
        with pytest.raises(DataError):
            kfold_split(data.without_labels(), 2)


class TestHoldoutSplit:
    def test_counts(self):
        data = gaussian_blobs([10, 6], dim=2, seed=0)
        train, test = holdout_split(data, {0: 3, 1: 2}, seed=1)
        assert (test.labels == 0).sum() == 3
        assert (test.labels == 1).sum() == 2
        assert train.n == 11
        both = sorted(map(tuple, np.vstack([train.X, test.X])))
        assert both == sorted(map(tuple, data.X))

    def test_default_fraction(self):
        data = gaussian_blobs([10, 3], dim=2, seed=0)
        _, test = holdout_split(data, None, seed=0)
        assert (test.labels == 0).sum() == round(HOLDOUT_FRACTION * 10)
        assert (test.labels == 1).sum() == 1  # max(1, round(.22 * 3))

    def test_bad_counts(self):
        data = gaussian_blobs([4, 4], dim=2)
        with pytest.raises(ValueError):
            holdout_split(data, {0: 4, 1: 1})
        with pytest.raises(ValueError):
            holdout_split(data, {0: -1, 1: 1})


class TestKnn:
    def test_nearest_wins(self):
        train = Dataset(np.array([[0.0], [10.0], [11.0]]), np.array([1, 2, 2]))
        assert knn_predict(train, [1.0], k=1) == 1
        assert knn_predict(train, [9.0], k=3) == 2

    def test_distance_tie_prefers_lower_row(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([5, 3]))
        assert knn_predict(train, [1.0], k=1) == 5

    def test_vote_tie_prefers_lowest_class(self):
        train = Dataset(np.array([[0.0], [2.0]]), np.array([7, 3]))
        assert knn_predict(train, [1.0], k=2) == 3

    def test_validation(self):
        train = Dataset(np.array([[0.0]]), np.array([0]))
        with pytest.raises(ValueError):
            knn_predict(train, [0.0], k=2)
        with pytest.raises(ValueError):
            knn_predict(train, [0.0], k=0)
        with pytest.raises(DataError):
            knn_predict(train.without_labels(), [0.0])


class TestGaussianNb:
    def test_matches_scipy_posterior(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (8, 3)), rng.normal(2, 1.5, (12, 3))])
        data = Dataset(X, np.array([0] * 8 + [1] * 12))
        model = gnb_fit(data)
        for x in rng.normal(1, 2, (25, 3)):
            scores = []
            for i in range(2):
                ll = float(model.log_priors[i])
                ll += stats.norm.logpdf(
                    x, model.means[i], np.sqrt(model.variances[i])
                ).sum()
                scores.append(ll)
            assert model.predict(x) == int(np.argmax(scores))

    def test_priors(self):
        data = gaussian_blobs([3, 9], dim=2, seed=0)
        model = gnb_fit(data)
        np.testing.assert_allclose(model.log_priors, np.log([0.25, 0.75]))

    def test_variance_floor(self):
        X = np.array([[0.0, 1.0], [0.0, 2.0], [5.0, 3.0], [5.0, 4.0]])
        data = Dataset(X, np.array([0, 0, 1, 1]))
        model = gnb_fit(data)
        floor = np.maximum(1e-9 * X.var(axis=0), 1e-12)
        # first feature is constant within each class
        assert model.variances[0, 0] == floor[0]
        assert model.variances[1, 0] == floor[0]
        assert (model.variances > 0).all()

    def test_needs_two_rows_per_class(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]))
        with pytest.raises(DataError):
            gnb_fit(data)

    def test_fit_predict(self):
        data = gaussian_blobs([5, 5], dim=3, separation=8.0, seed=1)
        for x, y in zip(data.X, data.labels):
            assert gnb_fit(data).predict(x) == y


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(pipeline="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(classifier="svm")
        with pytest.raises(ValueError):
            ExperimentConfig(eval_mode="loocv")
        with pytest.raises(ValueError):
            ExperimentConfig(knn_k=0)
        with pytest.raises(ValueError):
            ExperimentConfig(folds=1)
        with pytest.raises(ValueError):
            ExperimentConfig(steps_per_sample=0)
        # the schedule endpoints are checked up front, not at the first fit
        with pytest.raises(ValueError):
            ExperimentConfig(alpha0=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(sigma_final=0.0)

    def test_schedule_defaults(self):
        cfg = ExperimentConfig(map_rows=7, map_cols=3, steps_per_sample=50, seed=11)
        sched = cfg.schedule(20)
        assert sched.iterations == 1000
        assert sched.sigma0 == 3.5
        assert sched.seed == 11
        assert ExperimentConfig(map_rows=1, map_cols=1).schedule(1).sigma0 == 0.5


class TestFolds:
    def test_test_labels_never_influence_predictions(self):
        data = gaussian_blobs([12, 12, 12], dim=4, separation=3.0, seed=5)
        cfg = ExperimentConfig(pipeline="csom-replace", map_rows=2, map_cols=2, folds=3)
        train_split, test_split = kfold_split(data, 3, seed=0)[0]
        models = fit_fold(train_split, cfg)
        preds = predict_fold(models, test_split, cfg)
        scrambled = Dataset(test_split.X, test_split.labels[::-1].copy())
        np.testing.assert_array_equal(preds, predict_fold(models, scrambled, cfg))

    def test_pipeline_widths(self):
        data = gaussian_blobs([10, 10, 10], dim=5, seed=3)
        train_split, test_split = kfold_split(data, 5, seed=0)[0]
        for pipeline, width in [
            ("raw", 2),
            ("som-replace", 2),
            ("csom-replace", 2),
            ("som-append", 4),
            ("csom-append", 4),
        ]:
            cfg = ExperimentConfig(pipeline=pipeline, map_rows=2, map_cols=2, folds=5)
            models = fit_fold(train_split, cfg)
            assert models.train_features.dim == width
            feats_n = predict_fold(models, test_split, cfg)
            assert feats_n.shape == (test_split.n,)


class TestFittedPipeline:
    def test_fit_kinds_and_modes(self):
        data = gaussian_blobs([8, 8, 8], dim=5, seed=2)
        raw = FittedPipeline.fit(data, ExperimentConfig(pipeline="raw"))
        assert raw.csom is None and raw.som is None
        np.testing.assert_array_equal(raw.transform(data).X, raw.transform(data, "append").X)
        pooled = FittedPipeline.fit(
            data, ExperimentConfig(pipeline="som-append", map_rows=2, map_cols=2), raw.fisher
        )
        assert pooled.single_som and pooled.mode == "append" and pooled.fisher is raw.fisher
        assert pooled.transform(data).dim == 4
        assert pooled.transform(data, "replace").dim == 2
        per_class = FittedPipeline.fit(data, ExperimentConfig(map_rows=2, map_cols=2))
        assert per_class.csom.n_classes == 3 and per_class.mode == "replace"


class TestRunExperiments:
    def _grid(self):
        return [
            ExperimentConfig(
                pipeline=p, classifier=c, map_rows=2, map_cols=2, folds=3,
                steps_per_sample=10, seed=s,
            )
            for c in ("knn", "gnb")
            for p in ("raw", "som-replace", "som-append", "csom-replace", "csom-append")
            for s in (0, 1)
        ]

    def test_matches_one_run_per_config(self):
        data = gaussian_blobs([9, 8, 7], dim=4, separation=2.5, seed=6)
        cfgs = self._grid()
        for cfg, report in zip(cfgs, run_experiments(data, cfgs)):
            alone = run_experiment(data, cfg)
            assert report.fold_accuracies == alone.fold_accuracies
            np.testing.assert_array_equal(report.confusion, alone.confusion)

    def test_fits_each_fold_once(self, monkeypatch):
        data = gaussian_blobs([9, 8, 7], dim=4, seed=6)
        calls = {"fit_fisher": 0, "train": 0, "train_csom": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
        run_experiments(data, self._grid())
        # 2 seeds x 3 folds: one projection, one pooled map and one set of
        # per-class maps each, shared by both modes and both classifiers
        assert calls == {"fit_fisher": 6, "train": 6, "train_csom": 6}


class TestRunExperiment:
    def test_separated_data_scores_perfectly(self):
        data = gaussian_blobs([10, 10, 10], dim=6, separation=10.0, seed=0)
        for pipeline in ("raw", "csom-replace"):
            cfg = ExperimentConfig(
                pipeline=pipeline, map_rows=2, map_cols=2, folds=5, steps_per_sample=40
            )
            report = run_experiment(data, cfg)
            assert report.mean_accuracy == 1.0
            assert len(report.fold_accuracies) == 5

    def test_confusion_counts_every_row_once(self):
        data = gaussian_blobs([8, 12], dim=3, separation=2.0, seed=7)
        cfg = ExperimentConfig(pipeline="raw", classifier="gnb", folds=4)
        report = run_experiment(data, cfg)
        assert report.confusion.sum() == data.n
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [8, 12])

    def test_deterministic(self):
        data = gaussian_blobs([9, 9], dim=4, separation=2.5, seed=2)
        cfg = ExperimentConfig(pipeline="csom-append", map_rows=2, map_cols=2, folds=3)
        a = run_experiment(data, cfg)
        b = run_experiment(data, cfg)
        assert a.fold_accuracies == b.fold_accuracies
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_holdout_mode(self):
        data = gaussian_blobs([10, 10], dim=3, separation=8.0, seed=1)
        cfg = ExperimentConfig(
            pipeline="raw", eval_mode="holdout", holdout_counts={0: 2, 1: 3}
        )
        report = run_experiment(data, cfg)
        assert len(report.fold_accuracies) == 1
        assert report.confusion.sum() == 5

    def test_fold_errors_name_the_fold(self):
        # class 1 has one row per training split of a 2-fold CV under gnb
        data = Dataset(
            np.arange(12, dtype=float).reshape(6, 2),
            np.array([0, 0, 0, 0, 1, 1]),
        )
        cfg = ExperimentConfig(pipeline="raw", classifier="gnb", folds=2)
        with pytest.raises(DataError, match="fold 0"):
            run_experiment(data, cfg)
