"""Splitters, reference classifiers, and the fold harness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from csomtex import (
    DataError,
    Dataset,
    ExperimentConfig,
    FittedPipeline,
    HOLDOUT_FRACTION,
    UNLABELED,
    fit_fold,
    gnb_fit,
    holdout_split,
    kfold_split,
    knn_predict,
    init_map,
    predict_fold,
    project_dataset,
    run_experiment,
    split_by_class,
)
from csomtex import evaluation
from csomtex.evaluation import MAX_MAP_UNITS, run_experiments
from csomtex.som import distances
from helpers import bits, gaussian_blobs, knn_oracle, train_oracle


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

    @pytest.mark.parametrize(
        "k, seed, want",
        [
            (3, 0, [0, 1, 1, 2, 2, 2, 1, 1, 0, 0, 0]),
            (4, 7, [2, 0, 0, 1, 2, 2, 3, 1, 1, 3, 0]),
        ],
    )
    def test_recorded_fold_assignment(self, k, seed, want):
        # each row's test fold, as the per-row deal loop assigned them
        data = Dataset(np.arange(11.0)[:, None], np.array([2, 0, 2, 1, 0, 2, 1, 2, 0, 2, 1]))
        fold_of = np.empty(data.n, dtype=np.int64)
        for f, (_, test) in enumerate(kfold_split(data, k, seed=seed)):
            fold_of[test.X[:, 0].astype(np.int64)] = f
        assert fold_of.tolist() == want

    def test_validation(self):
        data = gaussian_blobs([2, 2], dim=2)
        with pytest.raises(ValueError):
            kfold_split(data, 1)
        with pytest.raises(DataError, match="^cannot make 5 folds from 4 rows$"):
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

    def test_class_absent_from_the_data_is_data_error(self):
        data = gaussian_blobs([4, 4], dim=2)
        with pytest.raises(DataError, match=r"class\(es\) \[2, 10\] absent"):
            holdout_split(data, {0: 1, 2: 1, 10: 1})

    def test_bad_counts(self):
        data = gaussian_blobs([4, 4], dim=2)
        with pytest.raises(DataError, match="must leave at least one training row of 4$"):
            holdout_split(data, {0: 4, 1: 1})
        with pytest.raises(DataError, match="for class 1 must leave"):
            holdout_split(gaussian_blobs([4, 1], dim=2))  # the default count takes 1 of 1
        with pytest.raises(ValueError, match="must be >= 0"):
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


DIMS = (1, 2, 7, 8, 9, 16, 48)


def _tie_heavy(rng, n, dim, n_classes):
    """Small-integer rows (so distances tie exactly), every third row
    duplicated under another label."""
    X = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    labels = rng.integers(0, n_classes, size=n)
    X = np.vstack([X, X[::3]])
    labels = np.concatenate([labels, (labels[::3] + 1) % n_classes])
    return Dataset(X, 2 * labels + 3)  # class ids 3, 5, 7, ...


def _gnb_log_likelihoods(gnb, queries) -> np.ndarray:
    """Each query's per-class log-likelihoods, one query at a time."""
    return np.array([
        gnb.log_priors + (
            -0.5 * (np.log(2.0 * np.pi * gnb.variances) + (q - gnb.means) ** 2 / gnb.variances)
        ).sum(axis=1)
        for q in queries
    ])


class TestBatchedClassifiers:
    """knn_predict_batch and GaussianNbModel.predict_batch, and their
    one-query forms, against one-query reference computations."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_knn_matches_one_query_calls(self, dim):
        rng = np.random.default_rng(dim)
        for train in (_tie_heavy(rng, 30, dim, 4), gaussian_blobs([9, 7, 8], dim=dim, seed=dim)):
            queries = np.vstack([
                train.X[:10],  # zero distance to a row and to its duplicates
                rng.integers(0, 3, size=(20, dim)).astype(np.float64),
                rng.normal(size=(20, dim)),
            ])
            want_d = [np.linalg.norm(train.X - q, axis=1) for q in queries]
            np.testing.assert_array_equal(
                bits(distances(queries, train.X)), bits(np.array(want_d))
            )
            for k in range(1, 6):
                want = [knn_oracle(train, q, k) for q in queries]
                got = evaluation.knn_predict_batch(train, queries, k)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
                assert [knn_predict(train, q, k) for q in queries] == want

    def test_knn_ties(self):
        # distance ties go to the lower row, vote ties to the lowest class id
        train = Dataset(np.array([[0.0], [2.0], [2.0], [0.0]]), np.array([5, 3, 9, 1]))
        got = evaluation.knn_predict_batch(train, np.array([[1.0], [1.0], [2.0]]), 1)
        np.testing.assert_array_equal(got, [5, 5, 3])
        got = evaluation.knn_predict_batch(train, np.array([[1.0], [3.0]]), 2)
        np.testing.assert_array_equal(got, [3, 3])
        got = evaluation.knn_predict_batch(train, np.array([[1.0]]), 4)
        np.testing.assert_array_equal(got, [1])

    def test_queries_span_several_chunks(self, monkeypatch):
        rng = np.random.default_rng(1)
        train = _tie_heavy(rng, 40, 9, 3)
        gnb = gnb_fit(gaussian_blobs([6, 5, 7], dim=9, seed=2))
        queries = rng.integers(0, 3, size=(101, 9)).astype(np.float64)
        want_knn = [knn_oracle(train, q, 3) for q in queries]
        want_gnb = gnb.class_ids[_gnb_log_likelihoods(gnb, queries).argmax(axis=1)]
        # 7 queries a chunk, then one query a chunk
        for limit in (7 * 8 * train.n * train.dim, 1):
            monkeypatch.setattr("csomtex.som.BATCH_BYTES", limit)
            np.testing.assert_array_equal(
                evaluation.knn_predict_batch(train, queries, 3), want_knn
            )
            np.testing.assert_array_equal(gnb.predict_batch(queries), want_gnb)

    def test_knn_validation(self):
        train = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
        for k in (0, 3):
            with pytest.raises(ValueError, match=rf"^k must lie in \[1, 2\], got {k}$"):
                evaluation.knn_predict_batch(train, np.zeros((4, 1)), k)
        with pytest.raises(DataError):
            evaluation.knn_predict_batch(train.without_labels(), np.zeros((4, 1)))
        assert evaluation.knn_predict_batch(train, np.zeros((0, 1))).shape == (0,)

    @pytest.mark.parametrize("dim", DIMS)
    def test_gnb_matches_one_row_calls(self, dim):
        rng = np.random.default_rng(dim)
        train = gaussian_blobs([9, 7, 8, 6], dim=dim, separation=1.5, seed=dim)
        gnb = gnb_fit(train)
        queries = np.vstack([train.X, rng.normal(0.0, 3.0, size=(40, dim))])
        want_ll = _gnb_log_likelihoods(gnb, queries)
        np.testing.assert_array_equal(bits(gnb._log_likelihoods(queries)), bits(want_ll))
        want = gnb.class_ids[want_ll.argmax(axis=1)]
        got = gnb.predict_batch(queries)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert [gnb.predict(q) for q in queries] == want.tolist()

    def test_gnb_tie_goes_to_the_lowest_class(self):
        train = Dataset(np.array([[-2.0], [-1.0], [1.0], [2.0]]), np.array([4, 4, 2, 2]))
        gnb = gnb_fit(train)
        np.testing.assert_array_equal(gnb.predict_batch(np.array([[0.0], [-3.0]])), [2, 4])
        assert gnb.predict([0.0]) == 2


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

    def test_map_units_are_capped(self):
        side = int(MAX_MAP_UNITS**0.5)
        ExperimentConfig(map_rows=side, map_cols=MAX_MAP_UNITS // side)  # at the cap
        for rows, cols in ((MAX_MAP_UNITS + 1, 1), (1, MAX_MAP_UNITS + 1), (side + 1, side)):
            with pytest.raises(ValueError, match=f"more than {MAX_MAP_UNITS} units"):
                ExperimentConfig(map_rows=rows, map_cols=cols)

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

    def test_evaluate_folds_are_fit_fold_then_predict_fold(self):
        # run_experiment scores each fold as predict_fold(fit_fold(...))
        # does: the same accuracy per fold and the same summed confusion
        data = gaussian_blobs([9, 8, 7], dim=4, separation=1.5, seed=3)
        class_ids = data.class_ids
        for pipeline in evaluation.PIPELINES:
            for classifier in evaluation.CLASSIFIERS:
                for seed in (0, 1):
                    cfg = ExperimentConfig(
                        pipeline=pipeline, classifier=classifier, knn_k=3, map_rows=2,
                        map_cols=2, folds=3, steps_per_sample=10, seed=seed,
                    )
                    report = run_experiment(data, cfg)
                    confusion = np.zeros_like(report.confusion)
                    for f, (train_split, test_split) in enumerate(kfold_split(data, 3, seed)):
                        preds = predict_fold(fit_fold(train_split, cfg), test_split, cfg)
                        truth = test_split.labels
                        assert report.fold_accuracies[f] == float((preds == truth).mean())
                        cells = np.searchsorted(class_ids, truth), np.searchsorted(class_ids, preds)
                        np.add.at(confusion, cells, 1)
                    np.testing.assert_array_equal(report.confusion, confusion)

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
        pooled = evaluation.fit_pipelines(
            [(data, ExperimentConfig(pipeline="som-append", map_rows=2, map_cols=2), raw.fisher)]
        )[0]
        assert pooled.single_som and pooled.mode == "append" and pooled.fisher is raw.fisher
        assert pooled.transform(data).dim == 4
        assert pooled.transform(data, "replace").dim == 2
        per_class = FittedPipeline.fit(data, ExperimentConfig(map_rows=2, map_cols=2))
        assert per_class.csom.n_classes == 3 and per_class.mode == "replace"

    def test_maps_match_the_reference_loop(self):
        # fit_pipelines trains every map of every split and config in one
        # engine call; each map is bitwise the one-map reference loop's,
        # and fit's
        data = gaussian_blobs([9, 6, 4], dim=5, seed=8)
        splits = [train_split for train_split, _ in kfold_split(data, 3, seed=1)]
        cfgs = [
            ExperimentConfig(
                pipeline=pipeline, map_rows=2, map_cols=3, steps_per_sample=15,
                alpha_final=0.0, seed=4,
            )
            for pipeline in ("csom-replace", "som-append")
        ]
        tasks = [(s, cfg, evaluation.fit_fisher(s)) for cfg in cfgs for s in splits]
        for (split, cfg, _), fitted in zip(tasks, evaluation.fit_pipelines(tasks)):
            alone = FittedPipeline.fit(split, cfg)
            z = project_dataset(fitted.fisher, split)
            sched = cfg.schedule(z.n)
            if fitted.single_som:
                init = init_map(2, 3, z.dim, seed=cfg.seed, data=z)
                cases = [(fitted.som, alone.som, train_oracle(init, z, sched))]
            else:
                cases = []
                for (cid, som), (_, som_alone), (_, sub) in zip(
                    fitted.csom.entries, alone.csom.entries, split_by_class(z)
                ):
                    budget = max(1, round(sched.iterations * sub.n / z.n))
                    share = replace(sched, iterations=budget)
                    init = init_map(2, 3, z.dim, seed=cfg.seed + cid, data=sub)
                    cases.append((som, som_alone, train_oracle(init, sub, share)))
            for som, som_alone, expect in cases:
                np.testing.assert_array_equal(bits(som.weights), bits(expect))
                np.testing.assert_array_equal(bits(som_alone.weights), bits(expect))


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
        fishers = []
        engine_calls = []  # the maps of each train_maps call, as (weights, rows, schedule)
        fit_fisher, train_maps = evaluation.fit_fisher, evaluation.train_maps

        def counted_fisher(*args, **kwargs):
            fishers.append(args)
            return fit_fisher(*args, **kwargs)

        def counted_engine(maps, datas, scheds):
            engine_calls.append([
                (m.weights.tobytes(), d.X.tobytes(), repr(s))
                for m, d, s in zip(maps, datas, scheds)
            ])
            return train_maps(maps, datas, scheds)

        lookups = []  # (rows, labeled) of each FittedPipeline.lookup call
        lookup = FittedPipeline.lookup

        def counted_lookup(self, split):
            lookups.append((split.X.tobytes(), not (split.labels == UNLABELED).all()))
            return lookup(self, split)

        gnb_fits = []
        gnb = evaluation.gnb_fit

        def counted_gnb(train_features):
            gnb_fits.append(train_features)
            return gnb(train_features)

        composed = []  # whether the rows of each compose call are labeled
        compose = evaluation.compose

        def counted_compose(data, prototypes, mode):
            composed.append(not (data.labels == UNLABELED).all())
            return compose(data, prototypes, mode)

        monkeypatch.setattr(evaluation, "fit_fisher", counted_fisher)
        monkeypatch.setattr(evaluation, "train_maps", counted_engine)
        monkeypatch.setattr(FittedPipeline, "lookup", counted_lookup)
        monkeypatch.setattr(evaluation, "gnb_fit", counted_gnb)
        monkeypatch.setattr(evaluation, "compose", counted_compose)
        # a second gnb config per grid cell, differing only in knn_k (which
        # GNB ignores), shares every fit of its twin
        twins = [replace(c, knn_k=3) for c in self._grid() if c.classifier == "gnb"]
        run_experiments(data, self._grid() + twins)
        # 2 seeds x 3 folds: one projection each.  One engine call trains
        # every map of the run: per seed and fold the pooled map and the 3
        # class maps, shared by both modes and all classifiers.
        assert len(fishers) == 6
        assert [len(maps) for maps in engine_calls] == [24]
        every_map = [m for maps in engine_calls for m in maps]
        assert len(set(every_map)) == len(every_map) == 24
        # per seed, fold and fit (raw, pooled, per-class): one training and
        # one test lookup, shared by both modes and all classifiers; per
        # seed, fold and pipeline (a fit and a mode): one GNB fit, shared
        # by the twins
        assert len(lookups) == 36
        assert len(gnb_fits) == 30
        # per seed, fold and pipeline: one composed training split, shared
        # by k-NN, GNB and the twins; per config and fold: one composed test
        # split (30 configs)
        assert composed.count(True) == 30
        assert composed.count(False) == 90
        test_rows = {te.X.tobytes() for s in (0, 1) for _, te in kfold_split(data, 3, seed=s)}
        tested = [labeled for rows, labeled in lookups if rows in test_rows]
        assert len(tested) == 18 and not any(tested)

    def test_raw_grid_trains_no_map(self, monkeypatch):
        data = gaussian_blobs([9, 8, 7], dim=4, seed=6)
        calls = []
        monkeypatch.setattr(evaluation, "train_maps", lambda *a: calls.append(a))
        cfgs = [ExperimentConfig(pipeline="raw", classifier=c, folds=3) for c in ("knn", "gnb")]
        run_experiments(data, cfgs)
        assert calls == []

    def test_first_error_precedes_a_later_split_error(self):
        # the second config's splits cannot be made (3 folds of 2 rows, or
        # a holdout class the data lacks), but the first config fails first
        data = gaussian_blobs([5, 5], dim=3, seed=1)
        bad_k = ExperimentConfig(pipeline="som-replace", knn_k=9, folds=2, map_rows=2, map_cols=2)
        later = [
            ExperimentConfig(pipeline="csom-replace", folds=11, map_rows=2, map_cols=2),
            ExperimentConfig(pipeline="raw", eval_mode="holdout", holdout_counts={4: 1}),
        ]
        for cfg in later:
            with pytest.raises(DataError, match=r"^fold 0: k must lie in \[1, 5\], got 9$"):
                run_experiments(data, [bad_k, cfg])
        with pytest.raises(DataError, match="^cannot make 11 folds from 10 rows$"):
            run_experiments(data, [later[0], bad_k])
        with pytest.raises(DataError, match=r"absent from the data$"):
            run_experiments(data, [later[1], bad_k])

    def test_first_error_follows_config_order(self):
        # the two raw configs share their transforms and are scored before
        # the som one, yet the error raised is the som config's: it comes
        # first in config order
        data = gaussian_blobs([5, 5], dim=3, seed=1)
        cfgs = [
            ExperimentConfig(pipeline="raw", classifier="gnb", folds=2),
            ExperimentConfig(pipeline="som-replace", knn_k=7, folds=2, map_rows=2, map_cols=2),
            ExperimentConfig(pipeline="raw", knn_k=6, folds=2),
        ]
        with pytest.raises(DataError, match=r"^fold 0: k must lie in \[1, 5\], got 7$"):
            run_experiments(data, cfgs)
        with pytest.raises(DataError, match=r"^fold 0: k must lie in \[1, 5\], got 6$"):
            run_experiments(data, cfgs[::-1])

    def test_first_error_is_the_sequential_one(self):
        # 2 folds: fold 0 fails in its k-NN predictions (k = 5 > its 4
        # training rows), after its fits; fold 1's Fisher fit fails too
        # (one row of class 1), and all folds are fitted before fold 0
        # predicts, yet the error raised is fold 0's
        data = Dataset(
            np.random.default_rng(0).normal(size=(8, 3)), np.array([0] * 5 + [1] * 3)
        )
        with pytest.raises(DataError, match="every class needs at least two rows"):
            evaluation.fit_fisher(kfold_split(data, 2, seed=0)[1][0])
        for pipeline in ("raw", "som-replace", "csom-append"):
            cfg = ExperimentConfig(pipeline=pipeline, knn_k=5, folds=2, map_rows=2, map_cols=2)
            with pytest.raises(DataError, match=r"^fold 0: k must lie in \[1, 4\], got 5$"):
                run_experiment(data, cfg)


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_features_name_the_cause(self):
        data = gaussian_blobs([10, 10, 10], dim=4)
        cfg = ExperimentConfig(pipeline="csom-replace", map_rows=2, map_cols=2, folds=3)
        with pytest.raises(
            DataError, match="^fold 0: feature magnitudes overflow the scatter matrix"
        ):
            run_experiment(Dataset(data.X * 1e200, data.labels), cfg)
