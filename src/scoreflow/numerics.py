"""Dense linear algebra, reproducible RNG streams, binary payload reading,
and the one thread pool of the package.

All numerics are float64, except a flow's passes, which run in its
vector's dtype: float32 for a trained flow (see `flow`'s module doc).
Arrays are plain numpy ndarrays in row-major order; shape checks happen
at module boundaries so downstream code can assume consistent dimensions.
"""

from __future__ import annotations

import os
import struct

import numpy as np


LOG_2PI = float(np.log(2.0 * np.pi))
SYM_TOL = 1e-10  # largest |m - m.T| that `cholesky` accepts, relative to max(|m|, 1)


class ShapeError(ValueError):
    """Raised when array dimensions do not match an operation's contract."""


class NotSpdError(ValueError):
    """Raised when a matrix expected to be symmetric positive definite is not."""


class Rng:
    """Reproducible random stream keyed by a 64-bit seed.

    Backed by the counter-based Philox generator, so identical seeds give
    identical streams across runs and platforms. A child stream
    `child(*key)` depends only on (seed, key), so generation is
    reproducible regardless of evaluation order. It does not nest: a
    child's key replaces its parent's, so whatever nested keys callers ask
    for, the streams that draw are these:

    key        draws
    (k,)       block k's initial weights and epoch k's permutation, in every
               stage; (0,) also every test observation's prior draw
    (0, i)     record i of stage 0 (also `generate`'s dataset); (0, 1) also
               every test observation's noise
    (1, s, i)  record i's latents when advancing to stage s
    (3, i)     inference update i
    (4,)       the final draws of `infer`
    (2, s)     stage s's draws in `evaluate_testset`

    Every test observation, and every sweep size, draws from the same keys.
    Each stream is a generator of its own, so streams built on one thread
    may draw on different threads (as `summary.mean_updates` has them do);
    one stream is drawn from by one thread at a time.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=key)))

    def child(self, *key: int) -> "Rng":
        """Independent stream determined by this stream's seed and `key`."""
        return Rng(self.seed, tuple(int(k) for k in key))

    def standard_normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def as_matrix(a, name="array") -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix must be square, got {m.shape}")
    denom = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > SYM_TOL * denom:
        raise NotSpdError("matrix is not symmetric within tolerance")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("matrix is not positive definite") from exc


class SpdMatrix:
    """Symmetric positive definite matrix stored via its lower Cholesky factor.

    One factorization up front makes sampling, solves, and log-determinants
    O(d^2) afterwards. Solves are forward and back substitution over the
    factor's rows, or one division when the factor is diagonal.
    """

    def __init__(self, chol_lower: np.ndarray):
        L = as_matrix(chol_lower, "chol_lower")
        if L.shape[0] != L.shape[1]:
            raise ShapeError(f"Cholesky factor must be square, got {L.shape}")
        if not np.all(np.isfinite(L)):
            raise NotSpdError("Cholesky factor must be finite")
        if np.any(np.diag(L) <= 0.0):
            raise NotSpdError("Cholesky factor must have strictly positive diagonal")
        if np.any(np.triu(L, 1)):  # the solves read the lower triangle only, `dense` the whole factor
            raise NotSpdError("Cholesky factor must be lower triangular")
        self.chol = L
        # a diagonal factor solves by elementwise division: for a vector rhs, LAPACK's result bit for bit
        self._diag = np.diag(L) if not np.any(np.tril(L, -1)) else None

    @property
    def dim(self) -> int:
        return self.chol.shape[0]

    @classmethod
    def from_dense(cls, m) -> "SpdMatrix":
        return cls(cholesky(m))

    @classmethod
    def identity(cls, d: int) -> "SpdMatrix":
        return cls(np.eye(d))

    @classmethod
    def diagonal(cls, diag) -> "SpdMatrix":
        diag = np.asarray(diag, dtype=np.float64)
        if np.any(diag <= 0.0):
            raise NotSpdError("diagonal entries must be positive")
        return cls(np.diag(np.sqrt(diag)))

    def dense(self) -> np.ndarray:
        return self.chol @ self.chol.T

    def _rhs(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.dim:
            raise ShapeError(f"rhs has leading dim {b.shape[0]}, expected {self.dim}")
        if not np.all(np.isfinite(b)):
            raise ValueError("rhs must not contain infs or NaNs")
        return b

    def _solve_lower(self, b: np.ndarray) -> np.ndarray:
        """w with chol w = b, by forward substitution over the factor's rows."""
        if self._diag is not None:
            return b / self._diag.reshape((-1,) + (1,) * (b.ndim - 1))
        L, w = self.chol, np.empty_like(b)
        for i in range(self.dim):
            w[i] = (b[i] - L[i, :i] @ w[:i]) / L[i, i]
        return w

    def solve(self, b) -> np.ndarray:
        """Solve m x = b via two triangular solves."""
        w = self._solve_lower(self._rhs(b))
        if self._diag is not None:  # a diagonal factor is its own transpose
            return self._solve_lower(w)
        L, x = self.chol, np.empty_like(w)
        for i in reversed(range(self.dim)):
            x[i] = (w[i] - L[i + 1 :, i] @ x[i + 1 :]) / L[i, i]
        return x

    def inverse_dense(self) -> np.ndarray:
        return self.solve(np.eye(self.dim))

    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def quad_form(self, v) -> np.ndarray:
        """v^T m^{-1} v, batched over trailing columns of v."""
        w = self._solve_lower(self._rhs(v))
        return np.sum(w * w, axis=0)


class ByteReader:
    """Bounds-checked reader over a binary payload that starts with `magic`.

    Every read checks its length against what is left of the payload
    before it copies anything, so no header field can make a loader
    allocate more than the payload holds. Failures raise `error`, the
    caller's exception class, naming the payload as `what`."""

    def __init__(self, data: bytes, magic: bytes, error: type[Exception], what: str):
        self.data, self.error, self.what, self.off = data, error, what, 0
        self._advance(len(magic))
        if data[: len(magic)] != magic:
            raise error(f"bad {what} magic bytes")

    def _advance(self, size: int) -> int:
        if self.off + size > len(self.data):
            raise self.error(f"{self.what} truncated")
        self.off += size
        return self.off - size

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def array(self, count: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.data, dtype, count, self._advance(count * dtype.itemsize)).copy()

    def finish(self) -> None:
        if self.off != len(self.data):
            raise self.error(f"trailing bytes after {self.what} payload")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered_map(fn, items):
    """Yield fn(item) for each of the sequence `items`, in item order, up to w at once.

    w = min(usable_cpus(), len(items)). This thread runs item i while a
    pool of w - 1 threads runs items i+1..i+w-1, so at most w results
    are alive at once, and threads pay only where `fn` releases the GIL
    (numpy does, inside its kernels). At w <= 1 no thread starts and
    `concurrent.futures` is not imported. The pool lives only inside the
    call, and an exception raised by `fn` on any thread reaches the caller
    as the same object once the pool's threads are joined. `fn` must not
    call `ordered_map` itself, so that pools never nest. Its two callers
    cut their work by `flow.blocks`: `CouplingFlow.inverse` (row blocks)
    and `summary.mean_updates` (record blocks, each drawn, inverted and
    averaged on one thread).
    """
    w = min(usable_cpus(), len(items))
    if w <= 1:
        for item in items:
            yield fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported here to keep it out of start-up

    with ThreadPoolExecutor(w - 1) as pool:
        for i in range(0, len(items), w):
            rest = [pool.submit(fn, item) for item in items[i + 1 : i + w]]
            yield fn(items[i])
            for future in rest:
                yield future.result()
