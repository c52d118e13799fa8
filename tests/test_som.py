"""Self-organizing map mechanics: BMU, kernel, update law, training."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csomtex import (
    DataError,
    Dataset,
    ExperimentConfig,
    ShapeError,
    SomMap,
    TrainingSchedule,
    UNLABELED,
    bmu,
    init_map,
    neighborhood,
    quantization_error,
    train,
    train_maps,
    train_step,
)
from csomtex.evaluation import MAX_MAP_UNITS
from csomtex.som import (
    BATCH_BYTES,
    STEP_CHUNK,
    _grid_classes,
    _ramps,
    _schedule_tables,
    _train_segment,
    compose,
    winning_prototypes,
)
from helpers import FUZZ, bits, gaussian_blobs, train_oracle


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        som = SomMap(2, 2, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            bmu(som, [bad, 0.0, 0.0])


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

    @pytest.mark.parametrize(
        "sigma0, sigma_final, name",
        [
            (1.0, 1e-200, "sigma_final"),
            (1e200, 1e200, "sigma0"),
            (math.inf, 0.5, "sigma0"),
            # sigma_final below half an ulp of sigma0: the ramp's last step rounds to 0
            (1.0, 1e-17, "sigma_final"),
            (3.0, 2e-16, "sigma_final"),
        ],
        ids=["width_underflows", "width_overflows", "infinite", "ramp_ends_at_zero", "ramp_ends_at_zero_from_3"],
    )
    def test_kernel_width_must_be_a_positive_finite_double(self, sigma0, sigma_final, name):
        with pytest.raises(ValueError, match=rf"^{name} .* 2\*{name}\*\*2 must be a positive finite double$"):
            TrainingSchedule(iterations=10, sigma0=sigma0, sigma_final=sigma_final)
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(sigma0=sigma0, sigma_final=sigma_final)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        # a raw matrix is checked as a Dataset is, not blamed on the prototypes
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            init_map(2, 2, 3, data=np.array([[bad, 0.0, 0.0], [1.0, 1.0, 1.0]]))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        som = init_map(2, 2, 3)
        X = np.array([[0.5, 0.5, 0.5], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            train(som, X, TrainingSchedule(iterations=10))


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
        # numpy's pairwise sum keeps unit 0's tiny squares, so its distance
        # rounds above unit 1's, while a running sum drops them and leaves
        # unit 0 no farther, which would hand it the win; 8 is the fewest
        # components numpy sums pairwise
        for dim, first, rest, other in [(16, 1.0, 2.0**-27, 1.0), (8, 1.5, 2.0**-26, 1.5 + 2.0**-52)]:
            near = np.zeros((2, dim))
            near[:, 0] = first, other
            near[0, 1:] = rest
            d = np.linalg.norm(near, axis=1)
            assert d[0] > d[1]
            running = np.sqrt(sum(near[:, j] ** 2 for j in range(dim)))
            assert running[0] <= running[1]
            som = SomMap(1, 2, near)
            zero = np.zeros((1, dim))
            sched = TrainingSchedule(iterations=1, alpha0=1.0, sigma0=0.1, sigma_final=0.1)
            self.check([som, som], [zero, zero], [sched, sched])
            assert (train(som, zero, sched).weights[1] == 0.0).all()  # unit 1 won

    def test_exactly_equal_distances(self):
        # every unit at the same distance from every row: ties to unit 0
        som = SomMap(2, 2, np.zeros((4, 3)))
        X = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        self.check([som, som.copy()], [X, X[::-1]], [TrainingSchedule(7), TrainingSchedule(5)])

    @FUZZ
    @given(st.data())
    def test_random_stacks_match_oracle(self, data):
        # budgets of 1 and ending about STEP_CHUNK multiples, so the number
        # of maps still training drops mid-chunk and at chunk edges; grids
        # up to 4x6 and dims on both sides of the dim-8 summation switch
        shapes = data.draw(
            st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 11)), min_size=1, max_size=2)
        )
        edges = [m * STEP_CHUNK + d for m in (1, 2) for d in (-1, 0, 1)]
        budget = st.one_of(st.just(1), st.sampled_from(edges), st.integers(1, 2 * STEP_CHUNK + 1))
        maps, datas, scheds = [], [], []
        for j in range(data.draw(st.integers(1, 5))):
            rows, cols, dim = data.draw(st.sampled_from(shapes))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            X = rng.normal(size=(int(rng.integers(1, 9)), dim))
            alpha0 = data.draw(st.floats(0.0, 1.0))
            sigma0 = data.draw(st.floats(0.1, 4.0))
            maps.append(init_map(rows, cols, dim, seed=j, data=X))
            datas.append(X)
            scheds.append(
                TrainingSchedule(
                    iterations=data.draw(budget),
                    alpha0=alpha0,
                    alpha_final=data.draw(st.one_of(st.just(0.0), st.floats(0.0, alpha0))),
                    sigma0=sigma0,
                    sigma_final=data.draw(st.one_of(st.just(sigma0), st.floats(0.1, sigma0))),
                    seed=j,
                )
            )
        self.check(maps, datas, scheds)

    @pytest.mark.parametrize("rows, cols", [(64, 64), (1, MAX_MAP_UNITS)])
    def test_grids_at_the_unit_cap(self, rows, cols):
        assert rows * cols == MAX_MAP_UNITS
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 2))
        som = init_map(rows, cols, 2, seed=1, data=X)
        sched = TrainingSchedule(iterations=3, sigma0=40.0, sigma_final=2.0, seed=2)
        self.check([som, som], [X, X[::-1]], [sched, TrainingSchedule(2, sigma0=3.0)])

    def test_segments_cut_by_batch_bytes(self, monkeypatch):
        # 40 maps of 24x24 hold more sample rows and kernel values per step
        # than BATCH_BYTES takes STEP_CHUNK steps of, so the 99 steps that
        # 32 maps train together run as one byte-capped segment and a
        # shorter one that the budget of 100 ends
        segments = []

        def spy(w, xs, kern, cls):
            segments.append((w.shape[1], len(kern)))
            _train_segment(w, xs, kern, cls)

        monkeypatch.setattr("csomtex.som._train_segment", spy)
        rng = np.random.default_rng(11)
        budgets = [1, 100, 101, 230, 231]
        maps, datas, scheds = [], [], []
        for j in range(40):
            X = rng.normal(size=(int(rng.integers(1, 9)), 3))
            maps.append(init_map(24, 24, 3, seed=j, data=X))
            datas.append(X)
            scheds.append(TrainingSchedule(budgets[j % len(budgets)], sigma0=6.0, sigma_final=0.7, seed=j))
        self.check(maps, datas, scheds)
        classes = _grid_classes(24, 24)[1].size
        cap = {k: BATCH_BYTES // (8 * k * (3 + classes)) for k, _ in segments}
        assert all(steps <= min(STEP_CHUNK, cap[k]) for k, steps in segments)
        assert (32, cap[32]) in segments and cap[32] < 99 < STEP_CHUNK
        assert sum(steps for _, steps in segments) == max(budgets)

    def test_kernel_below_the_doubles_is_zero(self):
        # 2 sigma^2 is subnormal, so -g^2 / (2 sigma^2) overflows to -inf
        # for every unit off the winner: a kernel of 0, with no warning
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        som = init_map(3, 3, 3, seed=1, data=X)
        sched = TrainingSchedule(iterations=9, sigma0=2e-160, sigma_final=1e-160, seed=3)
        with np.errstate(over="ignore"):
            oracle = train_oracle(som, X, sched)
        out = train(som, X, sched)  # a RuntimeWarning fails the test (pyproject)
        np.testing.assert_array_equal(bits(out.weights), bits(oracle))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (6, 1), (3, 4), (5, 5)])
    def test_class_table_matches_the_kernel(self, rows, cols):
        som = SomMap(rows, cols, np.zeros((rows * cols, 1)))
        cls, neg_g2 = _grid_classes(rows, cols)
        assert cls.shape == (rows * cols, rows * cols) and cls.dtype == np.uint8
        assert neg_g2.dtype == np.float64 and neg_g2[0] == 0.0
        for sigma in (0.4, 1.0, 2.5):
            width = 2.0 * sigma * sigma
            for w in range(rows * cols):
                for u in range(rows * cols):
                    assert math.exp(neg_g2[cls[w, u]] / width) == neighborhood(som, w, u, sigma)

    @pytest.mark.parametrize("rows, cols, classes", [(64, 64, 1576), (1, MAX_MAP_UNITS, MAX_MAP_UNITS)])
    def test_class_table_at_the_unit_cap(self, rows, cols, classes):
        cls, neg_g2 = _grid_classes(rows, cols)
        assert neg_g2.size == classes
        assert cls.dtype == np.uint16 and cls.nbytes == 2 * MAX_MAP_UNITS**2
        assert cls.flags.c_contiguous  # take copies any other table at every step

    def test_schedule_tables_match_the_schedules(self):
        scheds = [
            TrainingSchedule(iterations=n, alpha0=0.7, alpha_final=af, sigma0=2.5, sigma_final=sf)
            for n, af, sf in [(1, 0.01, 0.5), (2, 0.0, 2.5), (101, 0.01, 0.5), (STEP_CHUNK + 1, 0.3, 1.7)]
        ]
        steps = np.arange(STEP_CHUNK + 1)[:, None]
        alpha, width = _schedule_tables(_ramps(scheds), steps)
        assert alpha.shape == width.shape == (steps.size, len(scheds), 1, 1)
        for j, s in enumerate(scheds):
            for t in range(s.iterations):
                sigma = s.sigma_at(t)
                assert bits(alpha[t, j, 0, 0]) == bits(s.alpha_at(t))
                assert bits(width[t, j, 0, 0]) == bits(2.0 * sigma * sigma)
        assert (alpha[0, 0, 0, 0], width[0, 0, 0, 0]) == (0.7, 12.5)  # one step: the start

    def test_validation(self):
        som = init_map(2, 2, 3)
        sched = TrainingSchedule(iterations=10)
        with pytest.raises(ValueError):
            train_maps([som, som], [np.zeros((2, 3))], [sched, sched])
        with pytest.raises(ValueError):
            train_maps([som], [np.zeros((0, 3))], [sched])
        with pytest.raises(ShapeError):
            train_maps([som], [np.zeros((2, 4))], [sched])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        som = init_map(2, 2, 3)
        good, bad_rows = np.zeros((2, 3)), np.array([[0.5, 0.5, 0.5], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            train_maps([som, som], [good, bad_rows], [TrainingSchedule(iterations=10)] * 2)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        som = SomMap(2, 2, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            quantization_error(som, np.array([[bad, 0.0, 0.0]]))


class TestPrototypeTransforms:
    def test_replace_yields_prototype_rows(self):
        rng = np.random.default_rng(2)
        som = SomMap(2, 2, rng.random((4, 3)))
        data = Dataset(rng.random((10, 3)), np.arange(10) % 2)
        out = compose(data, winning_prototypes([som], data), "replace")
        assert out.X.shape == (10, 3)
        proto_set = {tuple(w) for w in som.weights}
        assert all(tuple(row) in proto_set for row in out.X)
        for x, row in zip(data.X, out.X):
            np.testing.assert_array_equal(row, som.weights[bmu(som, x)[0]])
        np.testing.assert_array_equal(out.labels, data.labels)

    def test_append_keeps_original_prefix(self):
        rng = np.random.default_rng(2)
        som = SomMap(2, 2, rng.random((4, 3)))
        data = Dataset(rng.random((10, 3)), None)
        out = compose(data, winning_prototypes([som], data), "append")
        assert out.X.shape == (10, 6)
        np.testing.assert_array_equal(out.X[:, :3], data.X)
        assert (out.labels == UNLABELED).all()
