"""Per-class maps: training, winner-take-all decisions, feature transforms."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csomtex import (
    CsomModel,
    DataError,
    Dataset,
    ShapeError,
    SomMap,
    TrainingSchedule,
    UNLABELED,
    class_maps,
    classify,
    classify_dataset,
    init_map,
    split_by_class,
    train,
    train_csom,
    transform_append,
    transform_replace,
)
from csomtex.som import BATCH_BYTES, compose, winning_prototypes
from helpers import bits, gaussian_blobs, train_oracle


def two_class_model(dim: int = 2) -> CsomModel:
    a = SomMap(1, 2, np.array([[0.0] * dim, [1.0] * dim]))
    b = SomMap(1, 2, np.array([[10.0] * dim, [11.0] * dim]))
    return CsomModel([(0, a), (1, b)])


class TestModelType:
    def test_requires_ascending_unique_ids(self):
        m = SomMap(1, 1, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            CsomModel([(1, m), (0, m)])
        with pytest.raises(ValueError):
            CsomModel([(0, m), (0, m)])
        with pytest.raises(ValueError):
            CsomModel([])

    def test_requires_shared_dim(self):
        with pytest.raises(ValueError):
            CsomModel([(0, SomMap(1, 1, np.zeros((1, 2)))), (1, SomMap(1, 1, np.zeros((1, 3))))])

    def test_entries_give_each_class_its_map(self):
        model = two_class_model()
        assert dict(model.entries)[1].weights[0, 0] == 10.0


class TestSplitByClass:
    def test_groups_ascending_and_order_preserving(self):
        X = np.arange(10, dtype=np.float64).reshape(5, 2)
        data = Dataset(X, np.array([2, 0, 2, 0, 5]))
        groups = split_by_class(data)
        assert [cid for cid, _ in groups] == [0, 2, 5]
        np.testing.assert_array_equal(groups[0][1].X, X[[1, 3]])
        np.testing.assert_array_equal(groups[1][1].X, X[[0, 2]])

    def test_unlabeled_rows_rejected(self):
        data = Dataset(np.zeros((2, 2)), np.array([0, UNLABELED]))
        with pytest.raises(DataError):
            split_by_class(data)


class TestTrainCsom:
    def test_one_map_per_class_trained_on_own_rows(self):
        data = gaussian_blobs([12, 18], dim=3, seed=4)
        sched = TrainingSchedule(iterations=300, sigma0=1.0, seed=7)
        model = train_csom(data, 2, 2, sched)
        assert model.class_ids.tolist() == [0, 1]
        groups = dict(split_by_class(data))
        for cid, _ in model.entries:
            sub = groups[cid]
            share = max(1, round(sched.iterations * sub.n / data.n))
            som = init_map(2, 2, 3, seed=sched.seed + cid, data=sub)
            expect = train(som, sub, replace(sched, iterations=share))
            np.testing.assert_array_equal(dict(model.entries)[cid].weights, expect.weights)

    def test_iteration_budget_is_conserved(self):
        data = gaussian_blobs([30, 10, 20], dim=2, seed=1)
        sched = TrainingSchedule(iterations=6000, seed=0)
        shares = [
            max(1, round(sched.iterations * n / 60)) for n in (30, 10, 20)
        ]
        assert sum(shares) == sched.iterations
        model = train_csom(data, 1, 2, sched)
        assert model.n_classes == 3

    def test_class_maps_jobs_train_like_the_reference_loop(self):
        data = gaussian_blobs([7, 1, 12], dim=3, seed=2)  # class 1 has one row
        sched = TrainingSchedule(iterations=200, alpha_final=0.0, sigma0=1.5, seed=3)
        jobs = class_maps(data, 2, 3, sched)
        assert [cid for cid, *_ in jobs] == [0, 1, 2]
        assert [s.iterations for *_, s in jobs] == [70, 10, 120]
        model = train_csom(data, 2, 3, sched)
        for (cid, som, sub, s), (model_cid, trained) in zip(jobs, model.entries):
            assert model_cid == cid and s.seed == sched.seed
            assert sub == dict(split_by_class(data))[cid]
            np.testing.assert_array_equal(
                som.weights, init_map(2, 3, 3, seed=sched.seed + cid, data=sub).weights
            )
            np.testing.assert_array_equal(bits(trained.weights), bits(train_oracle(som, sub, s)))



class TestClassify:
    def test_least_error_map_wins(self):
        model = two_class_model()
        cid, errors = classify(model, [0.9, 0.9])
        assert cid == 0
        assert errors.shape == (2,)
        assert errors[0] < errors[1]
        assert classify(model, [10.6, 10.6])[0] == 1

    def test_prototype_hit_gives_zero_error(self):
        a = SomMap(1, 1, np.array([[5.0, 5.0]]))
        b = SomMap(1, 1, np.array([[1.0, 1.0]]))
        c = SomMap(1, 1, np.array([[-3.0, 4.0]]))
        model = CsomModel([(1, a), (2, b), (3, c)])
        cid, errors = classify(model, [-3.0, 4.0])
        assert cid == 3
        assert errors[2] == 0.0

    def test_tie_breaks_to_lowest_class_id(self):
        a = SomMap(1, 1, np.array([[1.0, 0.0]]))
        b = SomMap(1, 1, np.array([[-1.0, 0.0]]))
        model = CsomModel([(3, a), (8, b)])
        assert classify(model, [0.0, 0.0])[0] == 3

    def test_needs_two_classes(self):
        model = CsomModel([(0, SomMap(1, 1, np.zeros((1, 2))))])
        with pytest.raises(DataError):
            classify(model, [0.0, 0.0])

    def test_dimension_check(self):
        with pytest.raises(ShapeError):
            classify(two_class_model(), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            classify(two_class_model(3), [bad, 0.0, 0.0])

    def test_batch_matches_single(self):
        model = two_class_model()
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 12, size=(40, 2))
        preds, errors = classify_dataset(model, Dataset(X, None))
        for i, x in enumerate(X):
            cid, err = classify(model, x)
            assert preds[i] == cid
            np.testing.assert_allclose(errors[i], err, atol=1e-12)

    def test_separated_gaussians_high_accuracy(self):
        train_data = gaussian_blobs([40, 40, 40], dim=4, separation=10.0, seed=0)
        test_data = gaussian_blobs([40, 40, 40], dim=4, separation=10.0, seed=1)
        sched = TrainingSchedule(iterations=100 * train_data.n, sigma0=1.0, seed=0)
        model = train_csom(train_data, 2, 2, sched)
        preds, _ = classify_dataset(model, test_data.without_labels())
        assert (preds == test_data.labels).mean() >= 0.98


class TestTransforms:
    def test_labeled_rows_use_their_class_map(self):
        model = two_class_model()
        data = Dataset(np.array([[10.2, 10.2], [0.4, 0.4]]), np.array([0, 1]))
        out = transform_replace(model, data)
        # each row snaps to its own class map even when the other class's
        # prototypes are nearer
        np.testing.assert_array_equal(out.X[0], [1.0, 1.0])
        np.testing.assert_array_equal(out.X[1], [10.0, 10.0])
        np.testing.assert_array_equal(out.labels, data.labels)

    def test_unlabeled_rows_use_least_error_map(self):
        model = two_class_model()
        data = Dataset(np.array([[10.2, 10.2], [0.4, 0.4]]), None)
        out = transform_replace(model, data)
        np.testing.assert_array_equal(out.X[0], [10.0, 10.0])
        np.testing.assert_array_equal(out.X[1], [0.0, 0.0])
        assert (out.labels == UNLABELED).all()

    def test_mixed_labels(self):
        model = two_class_model()
        data = Dataset(
            np.array([[10.2, 10.2], [10.2, 10.2]]), np.array([0, UNLABELED])
        )
        out = transform_replace(model, data)
        np.testing.assert_array_equal(out.X[0], [1.0, 1.0])
        np.testing.assert_array_equal(out.X[1], [10.0, 10.0])

    def test_replace_idempotent_bitwise(self):
        data = gaussian_blobs([20, 20], dim=3, seed=2)
        model = train_csom(data, 2, 2, TrainingSchedule(iterations=800, seed=1))
        once = transform_replace(model, data)
        twice = transform_replace(model, once)
        assert (once.X == twice.X).all()

    def test_append_prefix_and_width(self):
        data = gaussian_blobs([10, 10], dim=3, seed=6)
        model = train_csom(data, 2, 2, TrainingSchedule(iterations=400, seed=0))
        out = transform_append(model, data)
        assert out.X.shape == (20, 6)
        assert (out.X[:, :3] == data.X).all()
        replaced = transform_replace(model, data)
        assert (out.X[:, 3:] == replaced.X).all()

    def test_labeled_row_without_map_rejected(self):
        model = two_class_model()
        data = Dataset(np.zeros((1, 2)), np.array([9]))
        with pytest.raises(DataError, match="9"):
            transform_replace(model, data)

    def test_matches_a_per_row_reference(self, monkeypatch):
        # small-integer prototypes and rows, so distances tie across units
        # and maps; a labeled row searches its own map, any other row every
        # map, the lowest map and unit winning ties.  The last model's maps
        # have three different grids, and the second pass takes the rows a
        # few at a time (one a chunk at dimension 9)
        rng = np.random.default_rng(4)
        cases = [(dim, [(2, 2)] * 3) for dim in (1, 3, 9)] + [(3, [(2, 2), (1, 3), (3, 1)])]
        for dim, grids in cases:
            model = CsomModel([
                (cid, SomMap(r, c, rng.integers(0, 3, size=(r * c, dim)).astype(np.float64)))
                for cid, (r, c) in zip((0, 2, 5), grids)
            ])
            X = rng.integers(0, 3, size=(40, dim)).astype(np.float64)
            labels = rng.choice([UNLABELED, 0, 2, 5], size=40)
            errors = np.array([
                [np.linalg.norm(som.weights - x, axis=1).min() for som in model.maps] for x in X
            ])
            expects = []
            for data in (Dataset(X, labels), Dataset(X, None)):
                expect = []
                for x, label in zip(X, data.labels):
                    maps = [dict(model.entries)[label]] if label != UNLABELED else model.maps
                    d = [np.linalg.norm(som.weights - x, axis=1) for som in maps]
                    best = int(np.argmin([di.min() for di in d]))
                    expect.append(maps[best].weights[int(np.argmin(d[best]))])
                expects.append((data, np.array(expect)))
            for batch_bytes in (BATCH_BYTES, 200):
                monkeypatch.setattr("csomtex.som.BATCH_BYTES", batch_bytes)
                preds, got = classify_dataset(model, Dataset(X, None))
                np.testing.assert_array_equal(bits(got), bits(errors))
                np.testing.assert_array_equal(preds, model.class_ids[errors.argmin(axis=1)])
                for data, expect in expects:
                    replaced = transform_replace(model, data).X
                    np.testing.assert_array_equal(bits(replaced), bits(expect))
                    appended = transform_append(model, data).X
                    np.testing.assert_array_equal(bits(appended), bits(np.hstack([X, expect])))

    def test_queries_hold_bounded_temporaries(self):
        # one 64x64 map: a (rows, units, components) distance temporary of
        # all 300 rows would take 59 MB
        rng = np.random.default_rng(0)
        model = CsomModel([
            (0, SomMap(64, 64, rng.random((4096, 6)))),
            (1, SomMap(1, 1, rng.random((1, 6)))),
        ])
        data = Dataset(rng.random((300, 6)), None)
        for query in (classify_dataset, transform_replace):
            tracemalloc.start()
            try:
                query(model, data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * BATCH_BYTES, (query.__name__, peak)

    def test_grouped_maps_hold_bounded_temporaries(self):
        # seven 64x64 maps searched as one stack and a 1x1 map alone: a
        # chunk of rows must count every map of the stack
        rng = np.random.default_rng(1)
        model = CsomModel(
            [(cid, SomMap(64, 64, rng.random((4096, 6)))) for cid in range(7)]
            + [(7, SomMap(1, 1, rng.random((1, 6))))]
        )
        X = rng.random((300, 6))
        for query, labels in (
            (classify_dataset, None),
            (transform_replace, None),
            (transform_replace, rng.integers(0, 8, size=300)),
        ):
            data = Dataset(X, labels)
            tracemalloc.start()
            try:
                query(model, data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * BATCH_BYTES, (query.__name__, labels is None, peak)

    def test_grouped_maps_match_a_per_row_reference(self, monkeypatch):
        # maps 0, 2 and 3 share a weight shape across two grids, as do maps
        # 1 and 4; every row labeled, then none, in chunks of all rows and
        # of one row or two
        rng = np.random.default_rng(9)
        grids = [(2, 2), (1, 3), (2, 2), (1, 4), (3, 1)]
        model = CsomModel([
            (cid, SomMap(r, c, rng.integers(0, 3, size=(r * c, 3)).astype(np.float64)))
            for cid, (r, c) in zip((1, 2, 4, 6, 9), grids)
        ])
        X = rng.integers(0, 3, size=(30, 3)).astype(np.float64)
        labels = rng.choice(model.class_ids, size=30)
        errors = np.array([[np.linalg.norm(m.weights - x, axis=1).min() for m in model.maps] for x in X])

        def prototype(x, maps):
            d = [np.linalg.norm(m.weights - x, axis=1) for m in maps]
            best = int(np.argmin([di.min() for di in d]))
            return maps[best].weights[int(np.argmin(d[best]))]

        own = np.array([prototype(x, [dict(model.entries)[c]]) for x, c in zip(X, labels)])
        nearest = np.array([prototype(x, model.maps) for x in X])
        for batch_bytes in (BATCH_BYTES, 200):
            monkeypatch.setattr("csomtex.som.BATCH_BYTES", batch_bytes)
            preds, got = classify_dataset(model, Dataset(X, None))
            np.testing.assert_array_equal(bits(got), bits(errors))
            np.testing.assert_array_equal(preds, model.class_ids[errors.argmin(axis=1)])
            for i, x in enumerate(X[:3]):
                cid, err = classify(model, x)
                assert cid == preds[i]
                np.testing.assert_array_equal(bits(err), bits(errors[i]))
            for data, expect in ((Dataset(X, labels), own), (Dataset(X, None), nearest)):
                np.testing.assert_array_equal(bits(transform_replace(model, data).X), bits(expect))

    def test_overflow_follows_the_map_a_row_takes(self):
        # map 0's second unit is so far out that its distance overflows, but
        # its first is the nearest unit to x: winner-take-all compares the
        # maps' nearest distances, a prototype lookup every distance of the
        # map it takes
        model = CsomModel([
            (0, SomMap(1, 2, np.array([[0.0, 0.0], [1e300, 0.0]]))),
            (1, SomMap(1, 2, np.array([[5.0, 5.0], [6.0, 6.0]]))),
        ])
        x = np.array([0.5, 0.0])
        assert classify(model, x)[0] == 0
        assert classify_dataset(model, Dataset(x[None], None))[0].tolist() == [0]
        for labels in (None, [UNLABELED], [0]):
            with pytest.raises(DataError, match="overflow the map distances"):
                transform_replace(model, Dataset(x[None], labels))
        out = transform_append(model, Dataset(x[None], np.array([1])))
        np.testing.assert_array_equal(out.X, [[0.5, 0.0, 5.0, 5.0]])
        row = Dataset(x[None], None)
        with pytest.raises(DataError, match="overflow the map distances"):
            compose(row, winning_prototypes([dict(model.entries)[0]], row), "replace")
        np.testing.assert_array_equal(
            compose(row, winning_prototypes([dict(model.entries)[1]], row), "replace").X, [[5.0, 5.0]]
        )
        # a map out of reach altogether: a row that compares the maps
        # overflows, one labeled with the other class does not
        far = CsomModel([model.entries[1], (3, SomMap(1, 1, np.array([[-1e300, 0.0]])))])
        with pytest.raises(DataError, match="overflow the map distances"):
            transform_replace(far, Dataset(x[None], np.array([UNLABELED])))
        np.testing.assert_array_equal(
            transform_replace(far, Dataset(x[None], np.array([1]))).X, [[5.0, 5.0]]
        )

    def test_replaced_rows_are_prototypes(self):
        data = gaussian_blobs([15, 15], dim=3, seed=8)
        model = train_csom(data, 2, 2, TrainingSchedule(iterations=600, seed=2))
        out = transform_replace(model, data)
        protos = {tuple(w) for _, som in model.entries for w in som.weights}
        assert all(tuple(row) in protos for row in out.X)
