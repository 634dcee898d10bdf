import ast
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import scoreflow
from scoreflow.numerics import (
    NotSpdError,
    Rng,
    SpdMatrix,
    cholesky,
    ordered_map,
    usable_cpus,
)


def binary_reads():
    """(file, enclosing class, name) of every `frombuffer` and `struct.unpack*` in the package's source."""
    found = []

    def visit(node, path, cls):
        if isinstance(node, ast.Attribute) and (
            node.attr == "frombuffer" or node.attr.startswith("unpack") and getattr(node.value, "id", None) == "struct"
        ):
            found.append((path.name, cls, node.attr))
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "struct"):
            found.extend((path.name, cls, a.name) for a in node.names if a.name == "frombuffer" or "unpack" in a.name)
        for child in ast.iter_child_nodes(node):
            visit(child, path, node.name if isinstance(node, ast.ClassDef) else cls)

    for path in sorted(Path(scoreflow.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return found


def test_byte_reader_is_the_one_binary_reader():
    # a loader that reads its payload at an offset of its own would bypass the reader's bounds checks
    reads = binary_reads()
    assert {name for _, _, name in reads} == {"frombuffer", "unpack_from"}
    assert all((path, cls) == ("numerics.py", "ByteReader") for path, cls, _ in reads), reads


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


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


    def test_rejects_factor_with_entry_above_diagonal(self):
        # the solves would read the lower triangle only, and `dense` the whole factor
        with pytest.raises(NotSpdError, match="lower triangular"):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_factor(self, bad):
        with pytest.raises(NotSpdError, match="finite"):
            SpdMatrix(np.array([[1.0, 0.0], [bad, 1.0]]))


def lapack_solve(chol, b):
    return solve_triangular(chol.T, solve_triangular(chol, b, lower=True), lower=False)


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def random_dense_spd(rng, d):
    a = rng.standard_normal((d, d))
    return SpdMatrix.from_dense(a @ a.T / d + np.eye(d))


class TestSolvesAgainstLapack:
    """SciPy's `solve_triangular` (LAPACK) is the reference the numpy solves replaced."""

    @pytest.mark.parametrize("d", [1, 4, 64])
    def test_diagonal_vector_solve_and_quad_form_bitwise(self, d):
        rng = Rng(30 + d)
        for diag in (np.full(d, 0.1**2), rng.uniform(1e-3, 10.0, d)):
            m = SpdMatrix.diagonal(diag)
            for _ in range(20):
                b = rng.standard_normal(d) * rng.uniform(0.1, 100.0)
                assert np.array_equal(m.solve(b), lapack_solve(m.chol, b))
                w = solve_triangular(m.chol, b, lower=True)
                assert np.array_equal(m.quad_form(b), np.sum(w * w, axis=0))

    @pytest.mark.parametrize("d", [1, 5, 16, 40])
    def test_dense_solves_and_inverse_within_1e15(self, d):
        rng = Rng(40 + d)
        for m in (random_dense_spd(rng, d), SpdMatrix.diagonal(rng.uniform(1e-3, 10.0, d))):
            for b in (rng.standard_normal(d), rng.standard_normal((d, 3))):
                assert rel_err(m.solve(b), lapack_solve(m.chol, b)) <= 1e-15
                w = solve_triangular(m.chol, b, lower=True)
                assert rel_err(m.quad_form(b), np.sum(w * w, axis=0)) <= 1e-15
            assert rel_err(m.inverse_dense(), lapack_solve(m.chol, np.eye(d))) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "dense"])
    def test_non_finite_rhs_raises(self, bad, diagonal):
        m = SpdMatrix.diagonal([1.0, 2.0, 3.0]) if diagonal else random_dense_spd(Rng(50), 3)
        b = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError):
            m.solve(b)
        with pytest.raises(ValueError):
            m.quad_form(b)


class TestOrderedMap:
    def test_usable_cpus_follows_affinity(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        assert usable_cpus() == 3

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_results_in_item_order(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)

        def slow_then_fast(i):
            time.sleep(0.002 * (i % 3 == 1))  # the later items of a batch often finish first
            return 10 * i

        assert list(ordered_map(slow_then_fast, range(11))) == [10 * i for i in range(11)]

    @pytest.mark.parametrize("cpus, n", [(2, 9), (3, 10), (5, 4), (8, 30)])
    def test_at_most_w_calls_in_flight(self, monkeypatch, cpus, n):
        set_cpus(monkeypatch, cpus)
        lock, state, threads = threading.Lock(), {"now": 0, "max": 0}, set()

        def counted(i):
            with lock:
                state["now"] += 1
                state["max"] = max(state["max"], state["now"])
                threads.add(threading.get_ident())
            time.sleep(0.001)
            with lock:
                state["now"] -= 1
            return i

        assert list(ordered_map(counted, range(n))) == list(range(n))
        w = min(cpus, n)
        assert state["max"] <= w
        assert 2 <= len(threads) <= w

    @pytest.mark.parametrize("cpus, n", [(1, 5), (4, 0), (4, 1)])
    def test_one_worker_starts_no_thread(self, monkeypatch, cpus, n):
        set_cpus(monkeypatch, cpus)

        def no_thread(thread):
            raise AssertionError("ordered_map started a thread with one worker")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert list(ordered_map(lambda i: (i, threading.get_ident()), range(n))) == [
            (i, threading.get_ident()) for i in range(n)
        ]

    @pytest.mark.parametrize("failing", [16, 17, 39], ids=["calling_thread", "worker", "last_worker"])
    def test_error_propagates_and_no_thread_is_left(self, monkeypatch, failing):
        set_cpus(monkeypatch, 4)
        err = FloatingPointError("boom")
        calls = []

        def fn(i):
            calls.append(i)
            if i == failing:
                raise err
            return np.ones(100) @ np.ones(100)

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(FloatingPointError) as info:
                list(ordered_map(fn, range(40)))
        finally:
            sys.setswitchinterval(interval)
        assert info.value is err
        assert threading.active_count() == before
        assert max(calls) < failing // 4 * 4 + 4  # no batch after the failing one started
