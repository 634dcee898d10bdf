"""Per-stage training tuples: fiducials, residual targets, score summaries.

A `FiducialDataset` holds, for every record, the ground-truth parameters,
the observation, the current fiducial, the residual target (truth minus
fiducial), and the score of the log-likelihood at the fiducial. Stage 0 is
built from prior/noise draws; later stages are produced by updating every
fiducial with the trained flow's posterior-mean estimate and recomputing
residuals and scores.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .flow import CouplingFlow, TrainConfig
from .numerics import ByteReader, Rng
from .problems import InverseProblem

DATASET_MAGIC = b"SFIDDATA"
DATASET_VERSION = 1

# spawn-key namespaces for reproducible per-record streams
_KEY_RECORD = 0
_KEY_ADVANCE = 1


class DatasetError(ValueError):
    """Raised for malformed dataset payloads or stage mismatches."""


@dataclass
class FiducialDataset:
    stage: int
    x_true: np.ndarray  # (n, x_dim)
    y: np.ndarray  # (n, y_dim)
    x_fid: np.ndarray  # (n, x_dim)
    dx: np.ndarray  # (n, x_dim), always x_true - x_fid
    ybar: np.ndarray  # (n, x_dim), score at the fiducial
    is_val: np.ndarray  # (n,) bool, validation split tag

    @property
    def n_records(self) -> int:
        return self.x_true.shape[0]

    def train_arrays(self):
        m = ~self.is_val
        return self.dx[m], self.ybar[m]

    def val_arrays(self):
        m = self.is_val
        return self.dx[m], self.ybar[m]


def build_stage0(
    problem: InverseProblem, n_train: int, rng: Rng, val_fraction=TrainConfig.val_fraction
) -> FiducialDataset:
    """Stage-0 dataset: prior draws, simulated observations, default fiducial.

    Each record uses its own child stream keyed by the record index, so
    generation order does not matter for reproducibility.
    """
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    x_dim, y_dim = problem.x_dim, problem.y_dim
    x_true = np.empty((n_train, x_dim))
    y = np.empty((n_train, y_dim))
    x0 = problem.default_fiducial()
    for i in range(n_train):
        r = rng.child(_KEY_RECORD, i)
        x_true[i] = problem.sample_prior(r)
        y[i] = problem.simulate(x_true[i], r)
    x_fid = np.tile(x0, (n_train, 1))
    dx = x_true - x_fid
    ybar = np.empty((n_train, x_dim))
    for i in range(n_train):
        ybar[i] = problem.score(x_fid[i], y[i])
    n_val = int(np.floor(val_fraction * n_train))
    is_val = np.zeros(n_train, dtype=bool)
    if n_val > 0:
        is_val[n_train - n_val :] = True
    return FiducialDataset(0, x_true, y, x_fid, dx, ybar, is_val)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def advance_stage(
    ds: FiducialDataset, flow: CouplingFlow, problem: InverseProblem, n_s: int, rng: Rng
) -> FiducialDataset:
    """One fiducial update for every record using the stage's trained flow.

    x_{i+1} = x_i + empirical mean of n_s conditional flow samples given
    the stored score; residuals and scores are then recomputed. Ground
    truth and observations are carried over untouched. The n_s inverse
    passes run on every CPU the process may use; the result does not
    depend on how many there are.
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    n, x_dim = ds.x_true.shape
    next_stage = ds.stage + 1
    # per-record latent draws; each of the n_s slots sends one draw per record
    # through the inverse flow, all reusing the condition terms of ds.ybar
    z = np.empty((n, n_s, x_dim))
    for i in range(n):
        z[i] = rng.child(_KEY_ADVANCE, next_stage, i).standard_normal((n_s, x_dim))
    terms = flow.condition(ds.ybar)
    update = np.zeros((n, x_dim))
    # The slots' passes are independent and numpy releases the GIL inside them,
    # so up to w run at once: this thread runs slot i while a pool runs slots
    # i+1..i+w-1. The sum is still taken here in slot order, which keeps the
    # update bitwise the same for every w. Workers call the flow's private pass
    # body, never a public method that a caller may have wrapped.
    w = min(_usable_cpus(), n_s)
    if w == 1:
        for k in range(n_s):
            update += flow._inverse(z[:, k, :], terms)[0]
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here to keep it out of start-up

        with ThreadPoolExecutor(w - 1) as pool:
            for i in range(0, n_s, w):
                rest = [pool.submit(flow._inverse, z[:, k, :], terms) for k in range(i + 1, min(i + w, n_s))]
                update += flow._inverse(z[:, i, :], terms)[0]
                for future in rest:
                    update += future.result()[0]
    update /= n_s
    bad = np.flatnonzero(~np.all(np.isfinite(update), axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite fiducial update for records {bad.tolist()}")
    x_fid = ds.x_fid + update
    dx = ds.x_true - x_fid
    ybar = np.empty((n, x_dim))
    for i in range(n):
        ybar[i] = problem.score(x_fid[i], ds.y[i])
    return FiducialDataset(next_stage, ds.x_true, ds.y, x_fid, dx, ybar, ds.is_val.copy())


def save_dataset(ds: FiducialDataset) -> bytes:
    """Versioned binary payload: header, split tags, then f64 record arrays."""
    n, x_dim = ds.x_true.shape
    y_dim = ds.y.shape[1]
    parts = [
        DATASET_MAGIC,
        struct.pack("<IIIII", DATASET_VERSION, ds.stage, n, x_dim, y_dim),
        ds.is_val.astype(np.uint8).tobytes(),
    ]
    for arr in (ds.x_true, ds.y, ds.x_fid, ds.dx, ds.ybar):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def load_dataset(data: bytes, expected_stage: int | None = None) -> FiducialDataset:
    r = ByteReader(data, DATASET_MAGIC, DatasetError, "dataset")
    version, stage, n, x_dim, y_dim = r.unpack("<IIIII")
    if version != DATASET_VERSION:
        raise DatasetError(f"unsupported dataset version {version}, expected {DATASET_VERSION}")
    if expected_stage is not None and stage != expected_stage:
        raise DatasetError(f"dataset is for stage {stage}, expected stage {expected_stage}")
    if min(x_dim, y_dim) < 1:
        raise DatasetError(f"dataset x_dim and y_dim must be at least 1, got {x_dim} and {y_dim}")
    is_val = r.array(n, np.uint8).astype(bool)
    x_true, y, x_fid, dx, ybar = (r.array(n * d, "<f8").reshape(n, d) for d in (x_dim, y_dim, x_dim, x_dim, x_dim))
    r.finish()
    return FiducialDataset(stage, x_true, y, x_fid, dx, ybar, is_val)
