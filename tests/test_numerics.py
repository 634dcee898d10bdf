import numpy as np
import pytest

from scoreflow.numerics import (
    NotSpdError,
    Rng,
    SpdMatrix,
    cholesky,
)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(4)), np.eye(4))

    def test_diagonal_square_roots(self):
        L = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(L, np.diag([2.0, 3.0]), atol=0, rtol=0)

    def test_random_spd_reconstruction(self):
        rng = Rng(5)
        a = rng.standard_normal((5, 5))
        m = a.T @ a + np.eye(5)
        L = cholesky(m)
        err = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
        assert err <= 1e-10

    def test_rejects_non_spd(self):
        with pytest.raises(NotSpdError):
            cholesky(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpdError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_roundtrip_of_factor(self):
        rng = Rng(6)
        L = np.tril(rng.standard_normal((4, 4)))
        np.fill_diagonal(L, np.abs(np.diag(L)) + 1.0)
        L2 = cholesky(L @ L.T)
        assert np.abs(L2 - L).max() < 1e-9


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(SpdMatrix.from_dense(np.eye(3)).solve(b), b, atol=1e-14)

    def test_diagonal(self):
        x = SpdMatrix.from_dense(np.diag([2.0, 4.0])).solve(np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_residual_oracle(self):
        rng = Rng(7)
        a = rng.standard_normal((8, 8))
        m = a.T @ a + np.eye(8)
        b = rng.standard_normal(8)
        x = SpdMatrix.from_dense(m).solve(b)
        assert np.linalg.norm(m @ x - b) / np.linalg.norm(b) <= 1e-10


class TestRng:
    def test_same_seed_bitwise_identical(self):
        a = Rng(123).standard_normal(100)
        b = Rng(123).standard_normal(100)
        assert np.array_equal(a, b)

    def test_children_are_reproducible_and_distinct(self):
        a = Rng(9).child(1, 2).standard_normal(10)
        b = Rng(9).child(1, 2).standard_normal(10)
        c = Rng(9).child(1, 3).standard_normal(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSpdMatrix:
    def test_rejects_nonpositive_diagonal_factor(self):
        with pytest.raises(NotSpdError):
            SpdMatrix(np.diag([1.0, 0.0]))

    def test_log_det(self):
        m = SpdMatrix.diagonal([2.0, 3.0])
        assert abs(m.log_det() - np.log(6.0)) < 1e-12

    def test_dense_solve_consistency(self):
        rng = Rng(10)
        a = rng.standard_normal((4, 4))
        m = SpdMatrix.from_dense(a.T @ a + np.eye(4))
        b = rng.standard_normal(4)
        assert np.linalg.norm(m.dense() @ m.solve(b) - b) < 1e-10
