import numpy as np
import pytest

from shm_fomo.baselines import (
    FEATURE_NAMES,
    LinregModel,
    extract_features,
    knn_predict,
    linreg_fit,
    linreg_predict,
    pca_errors,
    pca_fit,
)
from shm_fomo.errors import DataError


def pca_error(model, window):
    """Single-window reference: mean squared residual of project-then-reconstruct."""
    r = np.asarray(window, dtype=np.float64) - model.mean
    recon = model.components @ (model.components.T @ r)
    return float(np.mean((r - recon) ** 2))


def subspace_data(n, t, k, seed=0):
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(t, k)))[0]
    coeffs = rng.normal(size=(n, k)) * np.array([5.0, 2.0, 1.0])[:k]
    return coeffs @ basis.T + rng.normal(size=t) * 0  # exact k-dim subspace


class TestPca:
    def test_exact_subspace_reconstruction(self):
        data = subspace_data(50, 64, 3, seed=1)
        model = pca_fit(data, cf=16)  # n_comp = 4 >= 3
        assert (pca_errors(model, data[:10]) < 1e-8).all()

    def test_cf32_component_arithmetic(self):
        data = np.random.default_rng(2).normal(size=(40, 500))
        model = pca_fit(data, cf=32)
        assert model.components.shape[1] == 15

    def test_matches_covariance_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 10)) @ np.diag(np.linspace(3, 0.5, 10))
        model = pca_fit(data, cf=2)  # 5 components
        cov = np.cov(data, rowvar=False, ddof=1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        explained = np.var((data - model.mean) @ model.components, axis=0, ddof=1)
        assert np.allclose(explained, eigvals[:5], atol=1e-8)
        assert (np.diff(explained) <= 1e-12).all()
        for j in range(5):
            v = eigvecs[:, j]
            if v[np.abs(v).argmax()] < 0:
                v = -v
            assert np.allclose(model.components[:, j], v, atol=1e-6)

    def test_columns_orthonormal(self):
        data = np.random.default_rng(4).normal(size=(60, 100))
        model = pca_fit(data, cf=10)
        gram = model.components.T @ model.components
        assert np.allclose(gram, np.eye(model.components.shape[1]), atol=1e-6)

    def test_error_zero_at_mean_and_in_span(self):
        data = np.random.default_rng(5).normal(size=(30, 40))
        model = pca_fit(data, cf=8)
        assert pca_errors(model, model.mean[None])[0] < 1e-20
        in_span = model.mean + model.components[:, 0]
        assert pca_errors(model, in_span[None])[0] < 1e-8

    def test_residual_orthogonal_to_components(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 40))
        model = pca_fit(data, cf=8)
        w = rng.normal(size=40)
        r = w - model.mean
        residual = r - model.components @ (model.components.T @ r)
        assert (np.abs(model.components.T @ residual) <= 1e-6).all()

    def test_error_monotone_in_components(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(50, 64))
        query = rng.normal(size=64)
        errs = [pca_errors(pca_fit(data, cf=cf), query[None])[0] for cf in (32, 16, 8, 4)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_deterministic_sign_convention(self):
        data = np.random.default_rng(8).normal(size=(25, 30))
        a = pca_fit(data, cf=6)
        b = pca_fit(data, cf=6)
        assert np.array_equal(a.components, b.components)
        peaks = a.components[np.abs(a.components).argmax(axis=0),
                             np.arange(a.components.shape[1])]
        assert (peaks > 0).all()

    def test_insufficient_samples(self):
        with pytest.raises(DataError):
            pca_fit(np.zeros((3, 500)), cf=32)  # needs 15 windows

    def test_batch_errors_match_single(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(30, 50))
        model = pca_fit(data, cf=10)
        queries = rng.normal(size=(7, 50))
        batch = pca_errors(model, queries)
        singles = [pca_error(model, q) for q in queries]
        assert np.allclose(batch, singles, rtol=1e-12)

    def test_window_length_mismatch(self):
        model = pca_fit(np.random.default_rng(11).normal(size=(30, 50)), cf=10)
        with pytest.raises(DataError):
            pca_errors(model, np.zeros((2, 49)))


class TestFeatures:
    def test_monte_carlo_gaussian_moments(self):
        x = np.random.default_rng(11).normal(size=100_000)
        f = extract_features(x)
        named = dict(zip(FEATURE_NAMES, f))
        assert abs(named["skewness"]) < 0.1
        assert named["kurtosis"] == pytest.approx(3.0, abs=0.3)

    def test_moments_match_pow_formulas(self):
        # skewness and kurtosis come from products; libm pow is the oracle
        rng = np.random.default_rng(13)
        draws = [lambda n: rng.normal(size=n) * 3.0 - 1.0,
                 lambda n: rng.exponential(size=n),
                 lambda n: rng.standard_t(3, size=n)]
        for i in range(300):
            x = draws[i % 3](int(rng.integers(2, 3000)))
            z = (x - x.mean()) / x.std()
            f = dict(zip(FEATURE_NAMES, extract_features(x)))
            assert f["skewness"] == pytest.approx(np.mean(z ** 3), rel=1e-12, abs=1e-14)
            assert f["kurtosis"] == pytest.approx(np.mean(z ** 4), rel=1e-12)

    def test_constant_window_flagged(self):
        f = dict(zip(FEATURE_NAMES, extract_features(np.full(100, 4.0))))
        assert f["std"] == 0.0
        assert f["zero_crossings"] == 0
        assert f["skewness"] == 0.0 and f["kurtosis"] == 0.0

    def test_order_statistics(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = dict(zip(FEATURE_NAMES, extract_features(rng.normal(size=50))))
            assert f["min"] <= f["mean"] <= f["max"]

    def test_zero_crossings_of_alternating(self):
        f = dict(zip(FEATURE_NAMES, extract_features(np.tile([1.0, -1.0], 10))))
        assert f["zero_crossings"] == 19

    def test_rms(self):
        f = dict(zip(FEATURE_NAMES, extract_features(np.array([3.0, -4.0]))))
        assert f["rms_energy"] == pytest.approx(np.sqrt(12.5))

    def test_empty_window(self):
        with pytest.raises(DataError):
            extract_features(np.empty(0))


class TestKnn:
    def test_exact_training_point_k1(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        assert knn_predict(x, y, x[4], k=1) == y[4]

    def test_constant_targets(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(12, 4))
        y = np.full(12, 3.3)
        assert knn_predict(x, y, rng.normal(size=4), k=7) == pytest.approx(3.3)

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        mu, sigma = x.mean(axis=0), x.std(axis=0)
        for _ in range(20):
            q = rng.normal(size=2)
            xs = (x - mu) / sigma
            qs = (q - mu) / sigma
            dists = [(float(np.linalg.norm(xs[i] - qs)), i) for i in range(10)]
            dists.sort()
            expected = np.mean([y[i] for _, i in dists[:3]])
            assert knn_predict(x, y, q, k=3) == pytest.approx(expected, rel=1e-12)

    def test_tie_break_toward_lower_index(self):
        x = np.array([[0.0], [0.0], [2.0], [4.0]])  # duplicate points
        y = np.array([1.0, 9.0, 5.0, 7.0])
        # k=1: both index 0 and 1 at distance 0; stable sort picks index 0
        assert knn_predict(x, y, np.array([0.0]), k=1) == 1.0

    def test_too_few_points(self):
        with pytest.raises(DataError):
            knn_predict(np.zeros((3, 2)), np.zeros(3), np.zeros(2), k=7)


class TestLinreg:
    def test_exactly_linear_data(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(30, 4))
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        y = x @ beta + 0.7
        model = linreg_fit(x, y)
        residuals = linreg_predict(model, x) - y
        assert (np.abs(residuals) <= 1e-6).all()
        assert model.intercept == pytest.approx(0.7, abs=1e-6)

    def test_duplicate_columns_match_pinv_oracle(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(25, 2))
        x = np.concatenate([base, base[:, :1]], axis=1)  # rank-deficient
        y = rng.normal(size=25)
        model = linreg_fit(x, y)
        design = np.concatenate([np.ones((25, 1)), x], axis=1)
        beta = np.linalg.pinv(design) @ y
        expected = design @ beta
        assert np.allclose(linreg_predict(model, x), expected, atol=1e-4)

    def test_constant_targets(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(20, 3))
        model = linreg_fit(x, np.full(20, 2.0))
        assert np.allclose(model.coef, 0.0, atol=1e-6)
        assert model.intercept == pytest.approx(2.0, abs=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            linreg_fit(np.zeros((3, 5)), np.zeros(3))
