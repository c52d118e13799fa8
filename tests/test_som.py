"""Self-organizing map mechanics: BMU, kernel, update law, training."""

from __future__ import annotations

import math

import numpy as np
import pytest

from csomtex import (
    DataError,
    Dataset,
    ExperimentConfig,
    ShapeError,
    SomMap,
    TrainingSchedule,
    append_prototypes,
    bmu,
    init_map,
    neighborhood,
    quantization_error,
    replace_with_prototypes,
    train,
    train_maps,
    train_step,
)
from csomtex.som import STEP_CHUNK
from helpers import bits, gaussian_blobs, train_oracle


def update_oracle(som: SomMap, x, alpha: float, sigma: float) -> np.ndarray:
    """Scalar reference: loop over units and components explicitly."""
    units, dim = som.weights.shape
    dists = [
        math.sqrt(sum((som.weights[u, j] - x[j]) ** 2 for j in range(dim)))
        for u in range(units)
    ]
    winner = dists.index(min(dists))
    wr, wc = som.unit_position(winner)
    out = som.weights.copy()
    for u in range(units):
        ur, uc = som.unit_position(u)
        h = math.exp(-((wr - ur) ** 2 + (wc - uc) ** 2) / (2.0 * sigma * sigma))
        for j in range(dim):
            out[u, j] = som.weights[u, j] + alpha * h * (x[j] - som.weights[u, j])
    return out


class TestBmu:
    def test_exhaustive_scan_agreement(self):
        rng = np.random.default_rng(0)
        som = SomMap(4, 5, rng.random((20, 3)))
        for _ in range(50):
            x = rng.random(3)
            winner, dist = bmu(som, x)
            scan = [np.linalg.norm(som.weights[u] - x) for u in range(20)]
            assert winner == int(np.argmin(scan))
            assert abs(dist - min(scan)) < 1e-12

    def test_tie_breaks_to_lowest_index(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        som = SomMap(1, 3, weights)
        winner, dist = bmu(som, [1.0, 0.0])
        assert winner == 0 and dist == 0.0
        # equidistant from both orthogonal prototypes
        winner, _ = bmu(som, [0.5, 0.5])
        assert winner == 0

    def test_dimension_mismatch(self):
        som = SomMap(1, 2, np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            bmu(som, [1.0, 2.0])

    def test_overflowing_distances_are_data_errors(self):
        som = SomMap(2, 2, np.zeros((4, 3)))
        with pytest.raises(DataError, match="overflow the map distances"):
            bmu(som, np.full(3, 1e200))


class TestNeighborhood:
    def test_self_distance_is_exactly_one(self):
        som = SomMap(3, 3, np.zeros((9, 2)))
        for sigma in (0.1, 1.0, 7.5):
            assert neighborhood(som, 4, 4, sigma) == 1.0

    def test_known_value_at_distance_two(self):
        som = SomMap(1, 5, np.zeros((5, 1)))
        # grid distance 2, sigma sqrt(2): exp(-4 / (2*2)) = 1/e
        h = neighborhood(som, 0, 2, math.sqrt(2.0))
        assert abs(h - math.exp(-1.0)) < 1e-12

    def test_monotone_in_grid_distance(self):
        som = SomMap(15, 15, np.zeros((225, 1)))
        center = 7 * 15 + 7
        pos = som.positions()
        d2 = ((pos - pos[center]) ** 2).sum(axis=1)
        h = np.array([neighborhood(som, center, u, 2.5) for u in range(225)])
        order = np.argsort(d2, kind="stable")
        assert (np.diff(h[order]) <= 1e-15).all()

    def test_invalid_arguments(self):
        som = SomMap(2, 2, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            neighborhood(som, 0, 1, 0.0)
        with pytest.raises(ValueError):
            neighborhood(som, 0, 4, 1.0)


class TestTrainStep:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            som = SomMap(rows, cols, rng.normal(size=(rows * cols, dim)))
            x = rng.normal(size=dim)
            alpha = float(rng.uniform(0.0, 1.0))
            sigma = float(rng.uniform(0.1, 4.0))
            stepped = train_step(som, x, alpha, sigma)
            np.testing.assert_allclose(
                stepped.weights, update_oracle(som, x, alpha, sigma), atol=1e-12
            )

    def test_alpha_one_moves_winner_onto_input(self):
        som = SomMap(1, 2, np.array([[0.0, 0.0], [10.0, 10.0]]))
        out = train_step(som, [1.0, 2.0], alpha=1.0, sigma=0.5)
        np.testing.assert_array_equal(out.weights[0], [1.0, 2.0])

    def test_input_map_unchanged(self):
        som = SomMap(2, 2, np.ones((4, 2)))
        before = som.weights.copy()
        train_step(som, [0.0, 0.0], 0.5, 1.0)
        np.testing.assert_array_equal(som.weights, before)

    def test_parameter_validation(self):
        som = SomMap(1, 1, np.zeros((1, 1)))
        with pytest.raises(ValueError):
            train_step(som, [0.0], alpha=1.5, sigma=1.0)
        with pytest.raises(ValueError):
            train_step(som, [0.0], alpha=0.5, sigma=0.0)


class TestSchedule:
    def test_linear_endpoints(self):
        s = TrainingSchedule(iterations=101, alpha0=0.5, alpha_final=0.01, sigma0=3.0, sigma_final=0.5)
        assert s.alpha_at(0) == 0.5
        assert abs(s.alpha_at(100) - 0.01) < 1e-15
        assert s.sigma_at(0) == 3.0
        assert abs(s.sigma_at(100) - 0.5) < 1e-15
        mid_alpha = s.alpha_at(50)
        assert abs(mid_alpha - (0.5 + 0.01) / 2.0) < 1e-12

    def test_single_step_schedule_is_constant(self):
        s = TrainingSchedule(iterations=1, alpha0=0.4, sigma0=2.0)
        assert s.alpha_at(0) == 0.4
        assert s.sigma_at(0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingSchedule(iterations=0)
        with pytest.raises(ValueError):
            TrainingSchedule(iterations=10, alpha0=0.1, alpha_final=0.5)
        with pytest.raises(ValueError):
            TrainingSchedule(iterations=10, sigma0=1.0, sigma_final=2.0)
        with pytest.raises(ValueError):
            TrainingSchedule(iterations=10, sigma0=0.0, sigma_final=0.0)
        # alpha_final = 0 is allowed (training freezes at the end)
        TrainingSchedule(iterations=10, alpha_final=0.0)

    def test_default_schedule_shape(self):
        # every training schedule comes from ExperimentConfig.schedule; here its defaults
        s = ExperimentConfig(map_rows=5, map_cols=5, seed=3).schedule(40)
        assert s.iterations == 4000
        assert (s.alpha0, s.alpha_final) == (0.5, 0.01)
        assert (s.sigma0, s.sigma_final) == (2.5, 0.5)
        assert s.seed == 3


class TestInitMap:
    def test_deterministic_unit_major_draws(self):
        m = init_map(2, 3, 4, seed=9)
        expected = np.random.default_rng(9).random((6, 4))
        np.testing.assert_array_equal(m.weights, expected)

    def test_data_range_scaling(self):
        X = np.array([[0.0, 10.0], [4.0, 30.0]])
        m = init_map(3, 3, 2, seed=1, data=X)
        assert (m.weights[:, 0] >= 0.0).all() and (m.weights[:, 0] <= 4.0).all()
        assert (m.weights[:, 1] >= 10.0).all() and (m.weights[:, 1] <= 30.0).all()

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            init_map(2, 2, 0)
        with pytest.raises(ShapeError):
            init_map(2, 2, 3, data=np.zeros((4, 2)))


class TestTrain:
    def test_returns_new_map_and_is_deterministic(self):
        data = gaussian_blobs([10, 10], dim=4, seed=0)
        som = init_map(3, 3, 4, seed=1, data=data)
        before = som.weights.copy()
        sched = TrainingSchedule(iterations=500, sigma0=1.5, seed=2)
        a = train(som, data, sched)
        b = train(som, data, sched)
        np.testing.assert_array_equal(som.weights, before)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a is not b

    def test_two_cloud_convergence(self):
        # two tight clouds far apart: prototypes end up near the two centroids
        rng = np.random.default_rng(5)
        X = np.vstack(
            [rng.normal(0.0, 0.05, (30, 2)), rng.normal(8.0, 0.05, (30, 2))]
        )
        som = init_map(1, 2, 2, seed=0, data=X)
        # narrow kernel so the cross-unit pull (exp(-1/2s^2)) is negligible
        sched = TrainingSchedule(iterations=6000, sigma0=0.3, sigma_final=0.3, seed=0)
        out = train(som, X, sched)
        got = np.sort(out.weights[:, 0])
        assert abs(got[0] - 0.0) < 0.1
        assert abs(got[1] - 8.0) < 0.1

    def test_quantization_error_halves(self):
        data = gaussian_blobs([20, 20, 20], dim=6, separation=10.0, seed=3)
        som = init_map(2, 2, 6, seed=3, data=data)
        sched = ExperimentConfig(map_rows=2, map_cols=2, seed=3).schedule(data.n)
        out = train(som, data, sched)
        assert quantization_error(out, data) <= 0.5 * quantization_error(som, data)

    def test_empty_data_rejected(self):
        som = init_map(2, 2, 3)
        with pytest.raises(ValueError):
            train(som, np.zeros((0, 3)), TrainingSchedule(iterations=10))


class TestTrainMaps:
    """The lockstep engine against the one-map reference loop, bit for bit."""

    def check(self, maps, datas, scheds):
        before = [bits(m.weights).copy() for m in maps]
        out = train_maps(maps, datas, scheds)
        assert len(out) == len(maps)
        for som, init, X, sched, b in zip(out, maps, datas, scheds, before):
            assert (som.rows, som.cols) == (init.rows, init.cols)
            np.testing.assert_array_equal(bits(som.weights), bits(train_oracle(init, X, sched)))
            np.testing.assert_array_equal(bits(init.weights), b)

    def test_mixed_stacks_match_oracle(self):
        # unequal budgets from 1 step to past two chunks, 1x1 grids, 1-row
        # data, alpha_final 0 and dims on both sides of 8, all in one call
        rng = np.random.default_rng(7)
        budgets = [1, 2, 3, STEP_CHUNK - 1, STEP_CHUNK, STEP_CHUNK + 1, 2 * STEP_CHUNK + 3]
        maps, datas, scheds = [], [], []
        for j in range(36):
            rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            dim = int(rng.choice([1, 2, 6, 8, 11]))
            X = rng.normal(size=(int(rng.integers(1, 9)), dim))
            maps.append(init_map(rows, cols, dim, seed=j, data=X))
            datas.append(X)
            scheds.append(
                TrainingSchedule(
                    iterations=budgets[j % len(budgets)] if j % 3 else int(rng.integers(1, 200)),
                    alpha0=float(rng.uniform(0.2, 1.0)),
                    alpha_final=float(rng.choice([0.0, 0.01])),
                    sigma0=2.0,
                    sigma_final=float(rng.choice([0.3, 2.0])),
                    seed=j,
                )
            )
        self.check(maps, datas, scheds)

    def test_one_map_and_empty_call(self):
        data = gaussian_blobs([6, 5], dim=3, seed=1)
        som = init_map(2, 3, 3, seed=4, data=data)
        sched = TrainingSchedule(iterations=90, sigma0=1.5, seed=5)
        self.check([som], [data], [sched])
        np.testing.assert_array_equal(
            bits(train(som, data, sched).weights), bits(train_oracle(som, data, sched))
        )
        assert train_maps([], [], []) == []

    @pytest.mark.parametrize("dim", [2, 8])
    def test_distances_tied_by_the_root(self, dim):
        # unit 1 is nearer in squared distance, but both roots round to the
        # same double, so the tie goes to unit 0 as in np.linalg.norm
        near = np.zeros((2, dim))
        near[0, :2] = 0.9495678358060772, 1.1340308317964878
        near[1, 0] = 1.4790892475650246
        sq = (near**2).sum(axis=1)
        assert sq[1] < sq[0] and np.sqrt(sq[0]) == np.sqrt(sq[1])
        som = SomMap(1, 2, near)
        zero = np.zeros((1, dim))
        sched = TrainingSchedule(iterations=1, alpha0=0.5, sigma0=0.5, sigma_final=0.5)
        self.check([som, som], [zero, zero], [sched, sched])
        assert train(som, zero, sched).weights[0, 0] == near[0, 0] / 2

    def test_distances_summed_in_numpy_order(self):
        # 16 components: numpy's pairwise sum keeps unit 0's 15 tiny squares,
        # so its distance rounds above unit 1's, while a running sum drops
        # them and ties the two, which would hand the win to unit 0
        near = np.zeros((2, 16))
        near[:, 0] = 1.0
        near[0, 1:] = 2.0**-27
        d = np.linalg.norm(near, axis=1)
        assert d[0] > d[1] == 1.0
        running = sum(near[:, j] ** 2 for j in range(16))
        assert running[0] == running[1]
        som = SomMap(1, 2, near)
        zero = np.zeros((1, 16))
        sched = TrainingSchedule(iterations=1, alpha0=1.0, sigma0=0.1, sigma_final=0.1)
        self.check([som, som], [zero, zero], [sched, sched])
        assert (train(som, zero, sched).weights[1] == 0.0).all()  # unit 1 won

    def test_exactly_equal_distances(self):
        # every unit at the same distance from every row: ties to unit 0
        som = SomMap(2, 2, np.zeros((4, 3)))
        X = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        self.check([som, som.copy()], [X, X[::-1]], [TrainingSchedule(7), TrainingSchedule(5)])

    def test_validation(self):
        som = init_map(2, 2, 3)
        sched = TrainingSchedule(iterations=10)
        with pytest.raises(ValueError):
            train_maps([som, som], [np.zeros((2, 3))], [sched, sched])
        with pytest.raises(ValueError):
            train_maps([som], [np.zeros((0, 3))], [sched])
        with pytest.raises(ShapeError):
            train_maps([som], [np.zeros((2, 4))], [sched])


class TestQuantizationError:
    def test_mean_bmu_distance_oracle(self):
        rng = np.random.default_rng(8)
        som = SomMap(2, 3, rng.random((6, 4)))
        X = rng.random((25, 4))
        per_row = [min(np.linalg.norm(som.weights[u] - x) for u in range(6)) for x in X]
        assert abs(quantization_error(som, X) - np.mean(per_row)) < 1e-12

    def test_overflowing_distances_are_data_errors(self):
        som = SomMap(2, 2, np.zeros((4, 3)))
        with pytest.raises(DataError, match="overflow the map distances"):
            quantization_error(som, np.full((2, 3), 1e200))


class TestPrototypeTransforms:
    def test_replace_yields_prototype_rows(self):
        rng = np.random.default_rng(2)
        som = SomMap(2, 2, rng.random((4, 3)))
        data = Dataset(rng.random((10, 3)), np.arange(10) % 2)
        out = replace_with_prototypes(som, data)
        assert out.X.shape == (10, 3)
        proto_set = {tuple(w) for w in som.weights}
        assert all(tuple(row) in proto_set for row in out.X)
        np.testing.assert_array_equal(out.labels, data.labels)

    def test_append_keeps_original_prefix(self):
        rng = np.random.default_rng(2)
        som = SomMap(2, 2, rng.random((4, 3)))
        data = Dataset(rng.random((10, 3)), None)
        out = append_prototypes(som, data)
        assert out.X.shape == (10, 6)
        np.testing.assert_array_equal(out.X[:, :3], data.X)
        assert out.labels is None
