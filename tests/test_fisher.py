"""Fisher (PCA then LDA) projection against a dense generalized-eig oracle."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from csomtex import (
    DataError,
    Dataset,
    FisherProjection,
    ShapeError,
    fisher_criteria,
    fit_fisher,
    project,
    project_dataset,
)
from csomtex.fisher import generalized_eigh, scatter_matrices
from helpers import FUZZ, gaussian_blobs


def three_class_5d(seed: int = 0, n_per: int = 30) -> Dataset:
    """Three overlapping 5-D Gaussians with distinct means and a shared
    anisotropic covariance, full-rank in every direction."""
    rng = np.random.default_rng(seed)
    means = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [4.0, 1.0, 0.0, -1.0, 0.5],
            [1.0, 5.0, -2.0, 0.0, 1.0],
        ]
    )
    cov_root = rng.normal(size=(5, 5)) * 0.4 + np.eye(5)
    rows, labels = [], []
    for cid, mu in enumerate(means):
        rows.append(rng.normal(size=(n_per, 5)) @ cov_root.T + mu)
        labels.extend([cid] * n_per)
    return Dataset(np.vstack(rows), np.array(labels, dtype=np.int64))


def lda_oracle_subspace(data: Dataset, dim: int) -> np.ndarray:
    """Top discriminant directions from inv(Sw) Sb via a dense eig solve."""
    sb, sw = scatter_matrices(data.X - data.X.mean(axis=0), data.labels)
    evals, evecs = np.linalg.eig(np.linalg.inv(sw) @ sb)
    order = np.argsort(evals.real)[::-1]
    return evecs.real[:, order[:dim]]


class TestFitFisher:
    def test_matches_dense_oracle_subspace(self):
        data = three_class_5d()
        proj = fit_fisher(data, dim=2)
        fitted = proj.matrix()
        oracle = lda_oracle_subspace(data, 2)
        angles = scipy.linalg.subspace_angles(fitted, oracle)
        assert angles.max() <= 1e-6

    def test_default_dim_is_classes_minus_one(self):
        data = three_class_5d()
        assert fit_fisher(data).dim == 2
        assert fit_fisher(gaussian_blobs([10, 10], dim=4)).dim == 1

    def test_pca_orthonormal_lda_unit_norm(self):
        proj = fit_fisher(three_class_5d(), dim=2)
        p = proj.pca_basis
        np.testing.assert_allclose(p.T @ p, np.eye(p.shape[1]), atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(proj.lda_basis, axis=0), 1.0, atol=1e-12
        )

    def test_sign_convention(self):
        proj = fit_fisher(three_class_5d(), dim=2)
        for basis in (proj.pca_basis, proj.lda_basis):
            for j in range(basis.shape[1]):
                col = basis[:, j]
                assert col[int(np.argmax(np.abs(col)))] > 0

    def test_deterministic(self):
        a = fit_fisher(three_class_5d(), dim=2)
        b = fit_fisher(three_class_5d(), dim=2)
        assert (a.mean == b.mean).all()
        assert (a.pca_basis == b.pca_basis).all()
        assert (a.lda_basis == b.lda_basis).all()

    def test_criteria_nonincreasing(self):
        data = three_class_5d()
        proj = fit_fisher(data, dim=2)
        crit = fisher_criteria(proj, data)
        assert crit.shape == (2,)
        assert (np.diff(crit) <= 1e-9).all()

    def test_separation_improves_over_first_raw_axis(self):
        data = three_class_5d()
        proj = fit_fisher(data, dim=1)
        sb_r, sw_r = scatter_matrices(data.X[:, :1], data.labels)
        raw_ratio = sb_r[0, 0] / sw_r[0, 0]
        assert fisher_criteria(proj, data)[0] > raw_ratio

    def test_single_class_rejected(self):
        data = Dataset(np.random.default_rng(0).random((6, 3)), np.zeros(6, dtype=np.int64))
        with pytest.raises(DataError, match="two classes"):
            fit_fisher(data)

    def test_singleton_class_rejected(self):
        data = Dataset(np.random.default_rng(0).random((3, 3)), np.array([0, 0, 1]))
        with pytest.raises(DataError, match="two rows"):
            fit_fisher(data)

    def test_dim_out_of_range(self):
        data = three_class_5d()
        # more than n_classes - 1 depends on the data; below 1 is misuse
        with pytest.raises(DataError, match=r"^fisher_dim 3 needs at least 4 classes, got 3$"):
            fit_fisher(data, dim=3)
        with pytest.raises(ValueError):
            fit_fisher(data, dim=0)

    def test_zero_variance_rejected(self):
        data = Dataset(np.ones((8, 3)), np.array([0] * 4 + [1] * 4))
        with pytest.raises(DataError, match="variance"):
            fit_fisher(data)

    def test_rank_deficit_cannot_reach_dim(self):
        # all rows on a line: total-scatter rank 1 < requested dim 2
        t = np.arange(12, dtype=np.float64)
        X = np.outer(t, [1.0, 2.0, 3.0, 0.0, 1.0])
        data = Dataset(X, np.array([0, 1, 2] * 4))
        with pytest.raises(DataError, match="PCA keeps only"):
            fit_fisher(data, dim=2)

    def test_constant_classes_make_within_scatter_singular(self):
        # each class is one repeated row: after PCA the within-class scatter,
        # ridge included, is all zeros
        X = np.array([[0.0, 0.0]] * 3 + [[1.0, 2.0]] * 3)
        data = Dataset(X, np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(DataError, match="^within-class scatter is singular"):
            fit_fisher(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e152, 1e154, 1e200, 1e307])
    def test_overflowing_scatter_is_data_error(self, scale):
        data = gaussian_blobs([10, 10, 10], dim=4)
        with pytest.raises(DataError, match="^feature magnitudes overflow the scatter matrix"):
            fit_fisher(Dataset(data.X * scale, data.labels))

    @pytest.mark.filterwarnings("error")
    def test_large_finite_scatter_still_fits(self):
        data = gaussian_blobs([10, 10, 10], dim=4)
        small = fit_fisher(data)
        large = fit_fisher(Dataset(data.X * 1e150, data.labels))
        np.testing.assert_allclose(large.lda_basis, small.lda_basis, atol=1e-12)


def _random_spd(rng: np.random.Generator, k: int, cond: float) -> np.ndarray:
    """A k x k symmetric positive definite matrix with condition number cond."""
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    m = q @ np.diag(np.logspace(0.0, np.log10(cond), k)) @ q.T
    return (m + m.T) / 2.0


class TestGeneralizedEigh:
    # Both solvers reduce by the Cholesky factor of b, so they agree to
    # about cond(b) * eps; at cond 1e4 the worst of these draws is 7e-12.
    @pytest.mark.parametrize("cond", [10.0, 1e4], ids=["well", "ill"])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_scipy(self, k, cond):
        rng = np.random.default_rng([k, int(cond)])
        for _ in range(5):
            a = _random_spd(rng, k, 10.0)
            b = _random_spd(rng, k, cond)
            evals, evecs = generalized_eigh(a, b)
            oracle_evals, oracle_evecs = scipy.linalg.eigh(a, b)
            np.testing.assert_allclose(evals, oracle_evals, rtol=1e-10)
            for j in range(k):
                column, oracle = evecs[:, j : j + 1], oracle_evecs[:, j : j + 1]
                assert scipy.linalg.subspace_angles(column, oracle).max() <= 1e-8
            np.testing.assert_allclose(evecs.T @ b @ evecs, np.eye(k), atol=1e-9)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            generalized_eigh(np.eye(2), np.diag([1.0, -1.0]))


class TestProject:
    def test_vector_matches_dataset_projection(self):
        data = three_class_5d()
        proj = fit_fisher(data, dim=2)
        z = project_dataset(proj, data)
        assert z.dim == 2
        assert project(proj, data.X[7]).tobytes() == z.X[7].tobytes()
        np.testing.assert_array_equal(z.labels, data.labels)

    @settings(FUZZ, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        input_dim=st.integers(1, 67),
        rows=st.integers(1, 300),
        step=st.integers(1, 3),
    )
    def test_each_row_projects_alone_as_in_a_batch(self, seed, input_dim, rows, step):
        """Row i of ``project_dataset`` is ``project`` of row i, bit for bit,
        whatever the batch size and dimensions, also for rows read from a
        strided view."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, input_dim + 1))
        proj = FisherProjection(
            rng.normal(size=input_dim),
            rng.normal(size=(input_dim, k)),
            rng.normal(size=(k, int(rng.integers(1, k + 1)))),
        )
        X = (rng.normal(size=(rows * step, input_dim * step)) * 10.0 ** rng.integers(-3, 4))[
            ::step, ::step
        ]
        z = project_dataset(proj, Dataset(X)).X
        for x, want in zip(X, z, strict=True):
            assert project(proj, x).tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        proj = fit_fisher(three_class_5d(), dim=2)
        with pytest.raises(ShapeError):
            project(proj, np.zeros(4))
        with pytest.raises(ShapeError):
            project_dataset(proj, Dataset(np.zeros((2, 4)), None))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        proj = fit_fisher(three_class_5d(), dim=2)
        x = np.zeros(5)
        x[2] = bad
        with pytest.raises(ValueError, match="^feature values must be finite$"):
            project(proj, x)

    def test_projection_type_validation(self):
        with pytest.raises(ValueError):
            FisherProjection(np.zeros(3), np.zeros((4, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            FisherProjection(np.zeros(3), np.zeros((3, 2)), np.zeros((3, 1)))


class TestScatterMatrices:
    def test_hand_case(self):
        X = np.array([[0.0], [2.0], [10.0], [12.0]])
        labels = np.array([0, 0, 1, 1])
        sb, sw = scatter_matrices(X, labels)
        assert sb[0, 0] == 100.0  # 2*(1-6)^2 + 2*(11-6)^2
        assert sw[0, 0] == 4.0  # four unit deviations

    def test_total_scatter_decomposition(self):
        data = three_class_5d(seed=3, n_per=12)
        X = data.X
        sb, sw = scatter_matrices(X, data.labels)
        xc = X - X.mean(axis=0)
        np.testing.assert_allclose(sb + sw, xc.T @ xc, atol=1e-9)
