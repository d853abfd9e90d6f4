"""Classic comparison methods: PCA reconstruction for detection, k-NN and
linear regression on per-window statistical features for traffic estimation.

PCA operates on raw normalized time windows; the regressors consume an
8-value feature vector per window. The PCA error series feeds the same
calibration / smoothing / classification chain as the autoencoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

LINREG_RIDGE = 1e-8      # added to the Gram diagonal in linreg_fit

FEATURE_NAMES = ("mean", "std", "min", "max", "skewness", "kurtosis",
                 "rms_energy", "zero_crossings")


@dataclass
class PcaModel:
    """Mean vector plus orthonormal principal components (columns)."""

    mean: np.ndarray
    components: np.ndarray       # (T, n_comp), descending explained variance


def pca_fit(normal_windows: np.ndarray, cf: int = 32) -> PcaModel:
    """Fit principal components on healthy windows with compression factor cf.

    Keeps n_comp = T // cf components. Column signs are canonicalized so the
    largest-magnitude entry of each component is positive.
    """
    if cf < 1:
        raise ConfigError(f"compression factor must be >= 1, got {cf}")
    x = np.asarray(normal_windows, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"expected (n_windows, T) array, got shape {x.shape}")
    n, t = x.shape
    n_comp = t // cf
    if n_comp < 1:
        raise DataError(f"compression factor {cf} leaves no components for T={t}")
    if n < n_comp:
        raise DataError(f"need at least {n_comp} windows, got {n}")
    mean = x.mean(axis=0)
    xc = x - mean
    # SVD of the centered data = eigendecomposition of its covariance
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    components = vt[:n_comp].T.copy()
    flip = components[np.abs(components).argmax(axis=0), np.arange(n_comp)] < 0
    components[:, flip] *= -1.0
    return PcaModel(mean=mean, components=components)


def pca_errors(model: PcaModel, windows: np.ndarray) -> np.ndarray:
    """Mean squared residual of project-then-reconstruct, one per window row."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.mean.shape[0]:
        raise DataError(f"windows of shape {x.shape} do not match model length "
                        f"{model.mean.shape[0]}")
    x = x - model.mean
    recon = (x @ model.components) @ model.components.T
    return np.mean((x - recon) ** 2, axis=1)


def extract_features(window: np.ndarray) -> np.ndarray:
    """Eight per-window statistics (see FEATURE_NAMES).

    Skewness and kurtosis are the standardized third/fourth central moments
    (kurtosis non-excess, i.e. 3 for a Gaussian); both are defined as 0 for
    zero-variance windows.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.size == 0:
        raise DataError("empty window")
    mu = x.mean()
    std = x.std()
    if std > 0:
        z = (x - mu) / std
        z2 = z * z   # products, not libm pow, which took most of the call
        skew = float(np.mean(z2 * z))
        kurt = float(np.mean(z2 * z2))
    else:
        skew = kurt = 0.0
    rms = float(np.sqrt(np.mean(x ** 2)))
    sign = x >= 0
    crossings = int(np.count_nonzero(sign[1:] != sign[:-1]))
    return np.array([mu, std, x.min(), x.max(), skew, kurt, rms, crossings])


def knn_predict(train_features: np.ndarray, train_targets: np.ndarray,
                query: np.ndarray, k: int = 7) -> float:
    """Mean target of the k nearest training points in standardized feature
    space; distance ties break toward the lower training index."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    x = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_targets, dtype=np.float64)
    if x.shape[0] < k:
        raise DataError(f"need at least k={k} training points, got {x.shape[0]}")
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    xs = (x - mu) / sigma
    qs = (np.asarray(query, dtype=np.float64) - mu) / sigma
    dist = np.sqrt(np.sum((xs - qs) ** 2, axis=1))
    nearest = np.argsort(dist, kind="stable")[:k]
    return float(y[nearest].mean())


@dataclass
class LinregModel:
    coef: np.ndarray
    intercept: float


def linreg_fit(features: np.ndarray, targets: np.ndarray) -> LinregModel:
    """Least squares with intercept via normal equations; a small ridge term
    (LINREG_RIDGE) keeps rank-deficient designs solvable."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] < x.shape[1] + 1:
        raise DataError(f"need at least {x.shape[1] + 1} samples, got {x.shape[0]}")
    design = np.concatenate([np.ones((x.shape[0], 1)), x], axis=1)
    gram = design.T @ design + LINREG_RIDGE * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, design.T @ y)
    return LinregModel(coef=beta[1:], intercept=float(beta[0]))


def linreg_predict(model: LinregModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    return x @ model.coef + model.intercept
