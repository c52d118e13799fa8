"""Fisherfaces projection: PCA to make scatter invertible, then LDA.

The fitted object keeps the global mean, a PCA basis truncated to
min(rank, n_rows - n_classes) components, and the discriminant basis from
the generalized eigenproblem between between-class and within-class scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, require_labels
from .errors import DataError, ShapeError


@dataclass(eq=False)
class FisherProjection:
    mean: np.ndarray  # (input_dim,)
    pca_basis: np.ndarray  # (input_dim, k), orthonormal columns
    lda_basis: np.ndarray  # (k, output_dim), unit-norm columns

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.pca_basis = np.asarray(self.pca_basis, dtype=np.float64)
        self.lda_basis = np.asarray(self.lda_basis, dtype=np.float64)
        if self.mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if self.pca_basis.shape[0] != self.mean.shape[0]:
            raise ValueError("pca_basis rows must match the input dimension")
        if self.lda_basis.shape[0] != self.pca_basis.shape[1]:
            raise ValueError("lda_basis rows must match the PCA component count")

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def dim(self) -> int:
        return self.lda_basis.shape[1]

    def matrix(self) -> np.ndarray:
        """Composed (input_dim, output_dim) projection matrix."""
        return self.pca_basis @ self.lda_basis


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (determinism)."""
    for j in range(basis.shape[1]):
        col = basis[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            basis[:, j] = -col
    return basis


def generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a v = w b v`` for symmetric ``a`` and positive definite ``b``.

    The Cholesky reduction LAPACK's ``sygvd`` performs: with ``b = L L^T``,
    ``C = L^-1 a L^-T`` has the same eigenvalues, and ``v = L^-T u`` for each
    eigenvector ``u`` of ``C``.  Eigenvalues come out ascending and the
    eigenvectors are ``b``-orthonormal.  Raises ``np.linalg.LinAlgError``
    when ``b`` is not positive definite.
    """
    lower = np.linalg.cholesky(b)
    c = np.linalg.solve(lower, np.linalg.solve(lower, a).T)
    evals, evecs = np.linalg.eigh((c + c.T) / 2.0)
    return evals, np.linalg.solve(lower.T, evecs)


def scatter_matrices(X: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Between-class and within-class scatter of labeled rows."""
    mean = X.mean(axis=0)
    dim = X.shape[1]
    sb = np.zeros((dim, dim))
    sw = np.zeros((dim, dim))
    for cid in np.unique(labels):
        rows = X[labels == cid]
        cm = rows.mean(axis=0)
        dm = cm - mean
        sb += rows.shape[0] * np.outer(dm, dm)
        centered = rows - cm
        sw += centered.T @ centered
    return sb, sw


def fit_fisher(data: Dataset, dim: int | None = None) -> FisherProjection:
    """Fit the two-stage discriminant projection on a labeled dataset.

    ``dim`` defaults to n_classes - 1 (the maximal discriminant rank) and may
    not exceed it.  Requires at least two classes and two rows per class.
    The within-class scatter is regularized with a relative ridge before
    inversion because small per-class counts leave it near-singular.
    Features so large that their scatter overflows float64 are a DataError.
    """
    labels = require_labels(data)
    X = data.X
    classes, counts = np.unique(labels, return_counts=True)
    n_classes = classes.size
    if n_classes < 2:
        raise DataError("fisher projection needs at least two classes")
    if counts.min() < 2:
        raise DataError("every class needs at least two rows")
    if dim is None:
        dim = n_classes - 1
    if not 1 <= dim <= n_classes - 1:
        raise ValueError(f"dim must lie in [1, {n_classes - 1}], got {dim}")

    n = data.n
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        xc = X - mean
        total_scatter = xc.T @ xc
        # the rank tolerance and the ridge below scale the trace by up to this
        headroom = np.trace(total_scatter) * max(n, data.dim)
    if not (np.isfinite(total_scatter).all() and np.isfinite(headroom)):
        raise DataError(
            "feature magnitudes overflow the scatter matrix; rescale the features"
        )
    evals, evecs = np.linalg.eigh(total_scatter)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    tol = evals[0] * max(n, data.dim) * np.finfo(np.float64).eps
    rank = int((evals > max(tol, 0.0)).sum())
    if rank == 0:
        raise DataError("data has zero variance; nothing to project")
    k = min(rank, n - n_classes)
    if k < dim:
        raise DataError(f"PCA keeps only {k} components; cannot reach dim {dim}")
    pca = _fix_signs(evecs[:, order[:k]].copy())

    z = xc @ pca
    sb, sw = scatter_matrices(z, labels)
    sw_reg = sw + (1e-9 * np.trace(sw) / k) * np.eye(k)
    try:
        _, gevecs = generalized_eigh(sb, sw_reg)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"within-class scatter is singular: {exc}") from None
    lda = gevecs[:, ::-1][:, :dim]
    lda = lda / np.linalg.norm(lda, axis=0, keepdims=True)
    lda = _fix_signs(lda.copy())
    return FisherProjection(mean, pca, lda)


def _apply(proj: FisherProjection, X: np.ndarray) -> np.ndarray:
    """lda^T pca^T (x - mean) of a vector or of each row; features so large
    that the projection overflows are a DataError."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = (X - proj.mean) @ proj.pca_basis @ proj.lda_basis
    if not np.isfinite(z).all():
        raise DataError("feature magnitudes overflow the projection; rescale the features")
    return z


def project(proj: FisherProjection, x) -> np.ndarray:
    """Project a single vector: lda^T pca^T (x - mean)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (proj.input_dim,):
        raise ShapeError(f"vector dimension {x.shape} != expected ({proj.input_dim},)")
    return _apply(proj, x)


def project_dataset(proj: FisherProjection, data: Dataset) -> Dataset:
    """Project every row; labels pass through unchanged."""
    if data.dim != proj.input_dim:
        raise ShapeError(f"dataset dimension {data.dim} != expected {proj.input_dim}")
    return Dataset(_apply(proj, data.X), None if data.labels is None else data.labels.copy())


def fisher_criteria(proj: FisherProjection, data: Dataset) -> np.ndarray:
    """Per-component between/within scatter ratio, recomputed from the data.

    Components come out in fitted order, so the values are nonincreasing.
    """
    labels = require_labels(data)
    z = project_dataset(proj, data).X
    ratios = []
    for j in range(z.shape[1]):
        sb, sw = scatter_matrices(z[:, j : j + 1], labels)
        ratios.append(float(sb[0, 0] / sw[0, 0]))
    return np.array(ratios)
