import re

import numpy as np
import pytest
from scipy.ndimage import convolve, gaussian_filter

from scoreflow.config import problem_from_config, validate_config
from scoreflow.numerics import LOG_2PI, Rng, ShapeError, SpdMatrix
from scoreflow.problems import (
    LinearGaussianProblem,
    NonlinearToyProblem,
    gaussian_kernel_2d,
)


def small_linear(seed=1, x_dim=3, y_dim=5, noise_std=0.3):
    rng = Rng(seed)
    A = rng.standard_normal((y_dim, x_dim))
    a = rng.standard_normal((x_dim, x_dim))
    prior_cov = SpdMatrix.from_dense(a @ a.T + np.eye(x_dim))
    noise_cov = SpdMatrix.diagonal(np.full(y_dim, noise_std**2))
    mean = rng.standard_normal(x_dim)
    return LinearGaussianProblem(A, mean, prior_cov, noise_cov)


def fd_score(problem, x0, y, h=1e-6):
    g = np.zeros(problem.x_dim)
    for i in range(problem.x_dim):
        e = np.zeros(problem.x_dim)
        e[i] = h
        g[i] = (problem.log_likelihood(x0 + e, y) - problem.log_likelihood(x0 - e, y)) / (2 * h)
    return g


class TestLinearGaussian:
    def test_forward_is_matrix_vector_product(self):
        p = small_linear()
        x = Rng(2).standard_normal(p.x_dim)
        assert np.allclose(p.forward(x), p.A @ x, atol=1e-14)

    def test_simulate_zero_noise_limit(self):
        rng = Rng(3)
        A = rng.standard_normal((4, 2))
        p = LinearGaussianProblem(
            A, np.zeros(2), SpdMatrix.identity(2), SpdMatrix.diagonal(np.full(4, 1e-30))
        )
        x = np.array([1.0, -2.0])
        assert np.abs(p.simulate(x, Rng(0)) - A @ x).max() < 1e-10

    def test_log_likelihood_matches_direct_formula(self):
        p = small_linear(noise_std=0.5)
        rng = Rng(4)
        x = rng.standard_normal(p.x_dim)
        y = rng.standard_normal(p.y_dim)
        r = y - p.A @ x
        var = 0.5**2
        expected = -0.5 * (r @ r / var + p.y_dim * np.log(var) + p.y_dim * LOG_2PI)
        assert abs(p.log_likelihood(x, y) - expected) < 1e-10

    def test_score_matches_finite_differences(self):
        p = small_linear(seed=5)
        rng = Rng(6)
        for trial in range(3):
            x0 = rng.standard_normal(p.x_dim)
            y = rng.standard_normal(p.y_dim)
            s = p.score(x0, y)
            fd = fd_score(p, x0, y)
            assert np.abs(s - fd).max() / max(np.abs(fd).max(), 1.0) <= 1e-5

    def test_score_affine_in_y(self):
        # with a linear forward map the score is affine in the observation
        p = small_linear(seed=7)
        rng = Rng(8)
        x0 = rng.standard_normal(p.x_dim)
        y1 = rng.standard_normal(p.y_dim)
        y2 = rng.standard_normal(p.y_dim)
        lam = 0.3
        mix = p.score(x0, lam * y1 + (1 - lam) * y2)
        direct = lam * p.score(x0, y1) + (1 - lam) * p.score(x0, y2)
        assert np.abs(mix - direct).max() < 1e-10

    def test_score_zero_at_noiseless_observation(self):
        p = small_linear(seed=9)
        x = Rng(10).standard_normal(p.x_dim)
        assert np.abs(p.score(x, p.forward(x))).max() < 1e-10

    def test_prior_sample_moments(self):
        p = small_linear(seed=11)
        rng = Rng(12)
        draws = np.array([p.sample_prior(rng) for _ in range(40_000)])
        assert np.abs(draws.mean(axis=0) - p.prior_mean).max() < 0.05
        emp = np.cov(draws.T)
        assert np.linalg.norm(emp - p.prior_cov.dense()) / np.linalg.norm(p.prior_cov.dense()) < 0.05

    def test_shape_checks(self):
        p = small_linear()
        with pytest.raises(ShapeError):
            p.forward(np.zeros(p.x_dim + 1))
        with pytest.raises(ShapeError):
            p.score(np.zeros(p.x_dim), np.zeros(p.y_dim + 2))

    def test_replication_configuration(self):
        p = LinearGaussianProblem.replication(x_dim=16, y_dim=64, noise_std=0.1,
                                              prior_condition=10.0, seed=2024)
        assert p.A.shape == (64, 16)
        eigs = np.linalg.eigvalsh(p.prior_cov.dense())
        assert abs(eigs.max() / eigs.min() - 10.0) < 1e-6
        assert np.allclose(p.noise_cov.dense(), 0.01 * np.eye(64), atol=1e-14)
        # same seed rebuilds the identical operator
        p2 = LinearGaussianProblem.replication(seed=2024)
        assert np.array_equal(p.A, p2.A)


class TestAnalyticPosterior:
    def test_identity_prior_identity_forward(self):
        # A = I, unit prior, unit noise: posterior mean = y/2, cov = I/2
        p = LinearGaussianProblem(
            np.eye(3), np.zeros(3), SpdMatrix.identity(3), SpdMatrix.identity(3)
        )
        y = np.array([2.0, -4.0, 0.0])
        post = p.analytic_posterior(y)
        assert np.allclose(post.mean, y / 2, atol=1e-12)
        assert np.allclose(post.cov.dense(), np.eye(3) / 2, atol=1e-12)

    def test_tight_noise_recovers_least_squares(self):
        rng = Rng(13)
        A = rng.standard_normal((6, 3))
        p = LinearGaussianProblem(
            A, np.zeros(3), SpdMatrix.identity(3), SpdMatrix.diagonal(np.full(6, 1e-10))
        )
        x = rng.standard_normal(3)
        post = p.analytic_posterior(A @ x)
        assert np.abs(post.mean - x).max() < 1e-6

    def test_precision_identity(self):
        # posterior covariance times assembled precision equals the identity
        p = LinearGaussianProblem.replication(seed=2024)
        y = Rng(14).standard_normal(p.y_dim)
        post = p.analytic_posterior(y)
        precision = p.prior_cov.inverse_dense() + p.A.T @ p.noise_cov.inverse_dense() @ p.A
        assert np.abs(post.cov.dense() @ precision - np.eye(p.x_dim)).max() <= 1e-8

    def test_matches_joint_gaussian_conditioning_oracle(self):
        # independent construction: condition the joint Gaussian over (x, y)
        # via the Schur-complement formulas
        p = small_linear(seed=15)
        y = Rng(16).standard_normal(p.y_dim)
        Sx = p.prior_cov.dense()
        Sxy = Sx @ p.A.T
        Sy = p.A @ Sx @ p.A.T + p.noise_cov.dense()
        mu_y = p.A @ p.prior_mean
        gain = Sxy @ np.linalg.inv(Sy)
        mean = p.prior_mean + gain @ (y - mu_y)
        cov = Sx - gain @ Sxy.T
        post = p.analytic_posterior(y)
        assert np.abs(post.mean - mean).max() < 1e-8
        assert np.abs(post.cov.dense() - cov).max() < 1e-8

    def test_matches_monte_carlo_rejection_free_oracle(self):
        # weighted prior draws (self-normalized importance sampling with the
        # likelihood as weight) approximate the posterior mean
        p = LinearGaussianProblem(
            np.array([[1.0, 0.0]]), np.zeros(2), SpdMatrix.identity(2),
            SpdMatrix.diagonal([1.0]),
        )
        y = np.array([1.5])
        rng = Rng(17)
        n = 1_000_000
        draws = rng.standard_normal((n, 2))
        logw = -0.5 * (y[0] - draws[:, 0]) ** 2
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mc_mean = w @ draws
        post = p.analytic_posterior(y)
        assert np.abs(post.mean - mc_mean).max() < 0.01


class TestGaussianKernel:
    def test_normalized_and_symmetric(self):
        k = gaussian_kernel_2d(3, 1.0)
        assert abs(k.sum() - 1.0) < 1e-12
        assert np.allclose(k, k.T, atol=0)
        assert np.allclose(k, k[::-1, ::-1], atol=0)

    def test_peak_at_center(self):
        k = gaussian_kernel_2d(5, 1.5)
        assert k[2, 2] == k.max()


class TestNonlinearToy:
    def test_dimensions(self):
        p = NonlinearToyProblem(grid=16, observed_rows=6)
        assert p.x_dim == 256
        assert p.y_dim == 96
        assert p.image_shape == (16, 16)

    def test_forward_zero_image(self):
        p = NonlinearToyProblem()
        assert np.abs(p.forward(np.zeros(p.x_dim))).max() == 0.0

    def test_forward_small_signal_linearizes(self):
        # tanh(a*u) ~ a*u for small u, so tiny inputs pass near-linearly
        p = NonlinearToyProblem(nonlin_scale=0.8)
        x = 1e-6 * Rng(18).standard_normal(p.x_dim)
        lin = p.forward_jvp(np.zeros(p.x_dim), x)
        assert np.abs(p.forward(x) - lin).max() < 1e-12

    def test_forward_saturates(self):
        p = NonlinearToyProblem(nonlin_scale=2.0)
        assert np.abs(p.forward(np.full(p.x_dim, 50.0))).max() <= 1.0

    def test_jvp_matches_finite_differences(self):
        p = NonlinearToyProblem(grid=8, observed_rows=3)
        rng = Rng(19)
        x = rng.standard_normal(p.x_dim)
        u = rng.standard_normal(p.x_dim)
        h = 1e-6
        fd = (p.forward(x + h * u) - p.forward(x - h * u)) / (2 * h)
        assert np.abs(p.forward_jvp(x, u) - fd).max() < 1e-7

    def test_adjoint_identity(self):
        # <J u, v> == <u, J^T v> for random directions
        p = NonlinearToyProblem(grid=8, observed_rows=3)
        rng = Rng(20)
        for _ in range(5):
            x = rng.standard_normal(p.x_dim)
            u = rng.standard_normal(p.x_dim)
            v = rng.standard_normal(p.y_dim)
            lhs = p.forward_jvp(x, u) @ v
            rhs = u @ p.forward_vjp(x, v)
            assert abs(lhs - rhs) / max(abs(lhs), 1.0) <= 1e-10

    def test_score_matches_finite_differences(self):
        p = NonlinearToyProblem(grid=8, observed_rows=3, noise_std=0.1)
        rng = Rng(21)
        x0 = 0.3 * rng.standard_normal(p.x_dim)
        y = p.simulate(0.3 * rng.standard_normal(p.x_dim), rng)
        s = p.score(x0, y)
        fd = fd_score(p, x0, y, h=1e-5)
        assert np.abs(s - fd).max() / np.abs(fd).max() <= 1e-5

    def test_score_zero_at_noiseless_observation(self):
        p = NonlinearToyProblem(grid=8, observed_rows=3)
        x = 0.2 * Rng(22).standard_normal(p.x_dim)
        assert np.abs(p.score(x, p.forward(x))).max() < 1e-10

    @staticmethod
    def _reference_score(p, x0, y):
        # the score as forward then forward_vjp computed it, with three blurs
        def blur(img):
            return convolve(img, p.kernel, mode="constant", cval=0.0)

        r = y - np.tanh(p.nonlin_scale * blur(x0.reshape(p.grid, p.grid)))[: p.observed_rows].ravel()
        v = r / p.noise_std**2
        pre = p.nonlin_scale * blur(x0.reshape(p.grid, p.grid))
        deriv = p.nonlin_scale * (1.0 - np.tanh(pre) ** 2)
        full = np.zeros((p.grid, p.grid))
        full[: p.observed_rows] = v.reshape(p.observed_rows, p.grid)
        return blur(deriv * full).ravel()

    @pytest.mark.parametrize("grid, rows, scale", [(8, 3, 3.0), (16, 6, 3.0), (12, 12, 0.7)])
    def test_score_bitwise_equals_three_blur_arithmetic(self, grid, rows, scale):
        p = NonlinearToyProblem(grid=grid, observed_rows=rows, nonlin_scale=scale, noise_std=0.05)
        rng = Rng(grid + rows)
        points = [p.default_fiducial(), np.zeros(p.x_dim)] + [p.sample_prior(rng.child(k)) for k in range(3)]
        for k, x0 in enumerate(points):
            y = p.simulate(p.sample_prior(rng.child(10 + k)), rng.child(20 + k))
            assert np.array_equal(p.score(x0, y), self._reference_score(p, x0, y))

    def test_score_blurs_twice(self, monkeypatch):
        p = NonlinearToyProblem(grid=8, observed_rows=3)
        real, calls = p._blur, []
        monkeypatch.setattr(p, "_blur", lambda img: calls.append(img) or real(img))
        p.score(p.default_fiducial(), np.zeros(p.y_dim))
        assert len(calls) == 2

    def test_log_likelihood_direct_formula(self):
        p = NonlinearToyProblem(grid=8, observed_rows=3, noise_std=0.2)
        rng = Rng(23)
        x = 0.1 * rng.standard_normal(p.x_dim)
        y = rng.standard_normal(p.y_dim)
        r = y - p.forward(x)
        expected = -0.5 * (r @ r / 0.04 + p.y_dim * np.log(0.04) + p.y_dim * LOG_2PI)
        assert abs(p.log_likelihood(x, y) - expected) < 1e-9

    def test_prior_rim_band(self):
        p = NonlinearToyProblem(rim_center=1.5, rim_halfwidth=0.1)
        rng = Rng(24)
        for _ in range(20):
            img = p.sample_prior(rng).reshape(16, 16)
            rim = img[p._rim_mask.reshape(16, 16)]
            assert rim.min() >= 1.4 - 1e-12
            assert rim.max() <= 1.6 + 1e-12

    def test_prior_interior_moments(self):
        p = NonlinearToyProblem(interior_base=0.5, blob_scale=0.3)
        rng = Rng(25)
        interior = ~p._rim_mask.ravel()
        draws = np.array([p.sample_prior(rng)[interior] for _ in range(2000)])
        assert abs(draws.mean() - 0.5) < 0.02
        # pointwise std is rescaled to the configured level per draw
        assert abs(draws.std() - 0.3) < 0.05

    @staticmethod
    def _reference_prior(p, rng):
        # the prior draw as it was computed with SciPy's gaussian_filter
        field = gaussian_filter(rng.standard_normal((p.grid, p.grid)), sigma=p.blob_smoothness, mode="constant")
        field *= p.blob_scale / max(field.std(), 1e-12)
        img = p.interior_base + field
        img[p._rim_mask] = p.rim_center + rng.uniform(-p.rim_halfwidth, p.rim_halfwidth, int(p._rim_mask.sum()))
        return img.ravel()

    # (5, 3.0) has a kernel radius of 12, wider than the grid; 0.0 leaves the field unfiltered
    @pytest.mark.parametrize("grid, sigma", [(4, 0.3), (8, 1.0), (16, 2.0), (16, 3.7), (5, 3.0), (12, 0.1), (6, 0.0)])
    def test_prior_draws_equal_scipy_gaussian_filter_bitwise(self, grid, sigma):
        block = {"kind": "nonlinear_toy", "grid": grid, "observed_rows": 2, "blob_smoothness": sigma}
        p = problem_from_config(validate_config({"problem": block}).problem)
        for k in range(10):
            assert np.array_equal(p.sample_prior(Rng(60).child(k)), self._reference_prior(p, Rng(60).child(k)))

    # at blur_sigma 0.15 the corner taps are below machine epsilon, and SciPy skips them
    @pytest.mark.parametrize("blur_sigma", [0.15, 0.5, 1.0, 2.5])
    def test_blur_equals_scipy_convolve_bitwise(self, blur_sigma):
        p = NonlinearToyProblem(grid=12, observed_rows=4, blur_sigma=blur_sigma)
        rng = Rng(70)
        for k in range(20):
            img = rng.standard_normal((12, 12)) * 10.0 ** (k % 5 - 2)
            assert np.array_equal(p._blur(img), convolve(img, p.kernel, mode="constant", cval=0.0))

    def test_default_fiducial_layout(self):
        p = NonlinearToyProblem(fiducial_interior=0.25, rim_center=1.5)
        img = p.default_fiducial().reshape(16, 16)
        assert np.all(img[p._rim_mask.reshape(16, 16)] == 1.5)
        assert np.all(img[1:-1, 1:-1] == 0.25)

    def test_masks_partition_grid(self):
        p = NonlinearToyProblem(grid=16, observed_rows=6)
        bot = p.bottom_row_mask()
        top = p.top_row_mask()
        assert bot.sum() == 10 * 16
        assert top.sum() == 6 * 16
        assert np.all(bot ^ top)

    # a negative scale would flip the field; a negative smoothness would draw like 0
    @pytest.mark.parametrize("setting", [{"blob_scale": -0.1}, {"blob_smoothness": -1.0},
                                         {"blob_scale": float("nan")}])
    def test_negative_blob_settings_rejected(self, setting):
        with pytest.raises(ValueError, match=r"need blob_scale >= 0 and blob_smoothness >= 0"):
            NonlinearToyProblem(**setting)

    def test_observed_rows_validation(self):
        with pytest.raises(ValueError):
            NonlinearToyProblem(grid=16, observed_rows=0)
        with pytest.raises(ValueError):
            NonlinearToyProblem(grid=16, observed_rows=17)


# the noise variance noise_std**2 must be a finite, normal float64: these square to inf or to a subnormal
@pytest.mark.parametrize("build", [LinearGaussianProblem.replication, NonlinearToyProblem], ids=["linear", "toy"])
@pytest.mark.parametrize("noise_std", [1.0e200, 1.35e154, 1.4e-154, 1.0e-160])
def test_noise_std_without_a_normal_square_refused(build, noise_std):
    with pytest.raises(ValueError, match=re.escape(f"noise_std must have a finite, normal square, got {noise_std}")):
        build(noise_std=noise_std)


@pytest.mark.parametrize("build", [LinearGaussianProblem.replication, NonlinearToyProblem], ids=["linear", "toy"])
@pytest.mark.parametrize("noise_std", [1.34e154, 1.5e-154])
def test_noise_std_with_a_normal_square_accepted(build, noise_std):
    assert build(noise_std=noise_std).y_dim >= 1
