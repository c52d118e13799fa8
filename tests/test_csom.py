"""Per-class maps: training, winner-take-all decisions, feature transforms."""

from __future__ import annotations

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
from csomtex.som import derive_schedule
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

    def test_map_for(self):
        model = two_class_model()
        assert model.map_for(1).weights[0, 0] == 10.0
        with pytest.raises(DataError):
            model.map_for(7)


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
            expect = train(som, sub, derive_schedule(sched, share))
            np.testing.assert_array_equal(model.map_for(cid).weights, expect.weights)

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
        assert out.labels is None

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

    def test_replaced_rows_are_prototypes(self):
        data = gaussian_blobs([15, 15], dim=3, seed=8)
        model = train_csom(data, 2, 2, TrainingSchedule(iterations=600, seed=2))
        out = transform_replace(model, data)
        protos = {tuple(w) for _, som in model.entries for w in som.weights}
        assert all(tuple(row) in protos for row in out.X)
