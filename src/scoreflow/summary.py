"""Per-stage training tuples: fiducials, residual targets, score summaries.

A `FiducialDataset` holds, for every record, the ground-truth parameters,
the observation, the current fiducial and the score of the
log-likelihood at the fiducial. The residual target (truth minus
fiducial) and the validation split (the last `n_val` records) are derived
from these. Stage 0 is built from prior/noise draws; later stages are
produced by updating every fiducial with the trained flow's
posterior-mean estimate and recomputing the scores. That estimate,
`mean_updates`, is also the update of every inference step
(`pipeline.intermediate_trajectory`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .flow import CouplingFlow, TrainConfig, blocks
from .numerics import ByteReader, Rng, ordered_map
from .problems import InverseProblem

DATASET_MAGIC = b"SFIDDATA"
DATASET_VERSION = 2

# spawn-key namespaces for reproducible per-record streams
_KEY_RECORD = 0
_KEY_ADVANCE = 1

# `mean_updates` runs its records in `flow.blocks` of at least this many rows where there are that many.
# Fewer than `flow.INVERSE_ROWS`: every running block holds its records' latents and pass buffers, so
# smaller blocks keep the peak memory of a few records of many slots down.
ADVANCE_ROWS = 64


class DatasetError(ValueError):
    """Raised for malformed dataset payloads."""


@dataclass
class FiducialDataset:
    stage: int
    x_true: np.ndarray  # (n, x_dim)
    y: np.ndarray  # (n, y_dim)
    x_fid: np.ndarray  # (n, x_dim)
    ybar: np.ndarray  # (n, x_dim), score at the fiducial
    n_val: int  # the last n_val records are the validation split

    @property
    def n_records(self) -> int:
        return self.x_true.shape[0]

    @property
    def dx(self) -> np.ndarray:
        """Residual targets, (n, x_dim): truth minus fiducial."""
        return self.x_true - self.x_fid

    def train_arrays(self):
        k = self.n_records - self.n_val
        return self.x_true[:k] - self.x_fid[:k], self.ybar[:k]

    def val_arrays(self):
        k = self.n_records - self.n_val
        return self.x_true[k:] - self.x_fid[k:], self.ybar[k:]


def _scored(stage: int, problem: InverseProblem, x_true, y, x_fid, n_val: int) -> FiducialDataset:
    """The stage's dataset: these records with each one's score at its fiducial."""
    return FiducialDataset(stage, x_true, y, x_fid, problem.scores(x_fid, y), n_val)


def build_stage0(
    problem: InverseProblem, n_train: int, rng: Rng, val_fraction=TrainConfig.val_fraction
) -> FiducialDataset:
    """Stage-0 dataset: prior draws, simulated observations, default fiducial.

    Each record uses its own child stream keyed by the record index, so
    generation order does not matter for reproducibility.
    """
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    TrainConfig(val_fraction=val_fraction)  # its range rule: n_val stays in [0, n_train)
    x_true = np.empty((n_train, problem.x_dim))
    y = np.empty((n_train, problem.y_dim))
    for i in range(n_train):
        r = rng.child(_KEY_RECORD, i)
        x_true[i] = problem.sample_prior(r)
        y[i] = problem.simulate(x_true[i], r)
    x_fid = np.tile(problem.default_fiducial(), (n_train, 1))
    return _scored(0, problem, x_true, y, x_fid, int(np.floor(val_fraction * n_train)))


def mean_updates(flow: CouplingFlow, ybar, n_s: int, streams) -> np.ndarray:
    """(n, x_dim): per row i of `ybar`, the mean of n_s flow draws given that row, latents drawn from
    `streams[i]`; the posterior-mean update of training's and inference's fiducial steps alike. The rows
    run in `flow.blocks` on every usable CPU, a single row on the calling thread; each block draws its
    rows' latents, makes one inverse pass over all their slots in the flow's dtype and sums each row's
    slots in slot order, so the result does not depend on how many CPUs there are."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    terms = flow.condition(ybar)
    n, x_dim = len(terms[0]), flow.x_dim
    update = np.empty((n, x_dim))

    def block(records):
        # slot-major rows: row k * m + j is slot k of the block's record j, so the rows cycle through
        # the records' condition terms; the float64 draws are stored rounded to the flow's dtype
        rows, m = slice(records.start, records.stop), len(records)
        z = np.empty((n_s, m, x_dim), flow.params.dtype)
        for j, i in enumerate(records):
            z[:, j] = streams[i].standard_normal((n_s, x_dim))
        # workers call the flow's private pass body, never a public method that a caller may have
        # wrapped or that would start a pool itself
        x, _ = flow._inverse(z.reshape(n_s * m, x_dim), [t[rows] for t in terms])
        mean = np.add.reduce(x.reshape(n_s, m, x_dim), axis=0, out=update[rows])  # each block its own rows
        mean /= n_s

    for _ in ordered_map(block, blocks(n, n_s, ADVANCE_ROWS)):
        pass
    return update


def advance_stage(
    ds: FiducialDataset, flow: CouplingFlow, problem: InverseProblem, n_s: int, rng: Rng
) -> FiducialDataset:
    """The next stage: each record's fiducial moved by its `mean_updates` of n_s draws given the stored
    score, from a stream of its own, and the scores recomputed there; truth and observations carry over."""
    next_stage = ds.stage + 1
    # every stream is built here: workers only draw from them
    streams = [rng.child(_KEY_ADVANCE, next_stage, i) for i in range(ds.n_records)]
    update = mean_updates(flow, ds.ybar, n_s, streams)
    bad = np.flatnonzero(~np.all(np.isfinite(update), axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite fiducial update for records {bad.tolist()}")
    return _scored(next_stage, problem, ds.x_true, ds.y, ds.x_fid + update, ds.n_val)


def save_dataset(ds: FiducialDataset) -> bytes:
    """Versioned binary payload: header, then the f64 record arrays that `dx` and the split derive from."""
    n, x_dim = ds.x_true.shape
    header = struct.pack("<IIIIII", DATASET_VERSION, ds.stage, n, x_dim, ds.y.shape[1], ds.n_val)
    arrays = (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (ds.x_true, ds.y, ds.x_fid, ds.ybar))
    return b"".join([DATASET_MAGIC, header, *arrays])


def load_dataset(data: bytes) -> FiducialDataset:
    r = ByteReader(data, DATASET_MAGIC, DatasetError, "dataset")
    version, stage, n, x_dim, y_dim, n_val = r.unpack("<IIIIII")
    if version != DATASET_VERSION:
        raise DatasetError(f"unsupported dataset version {version}, expected {DATASET_VERSION}")
    if min(x_dim, y_dim) < 1:
        raise DatasetError(f"dataset x_dim and y_dim must be at least 1, got {x_dim} and {y_dim}")
    if n_val > n:
        raise DatasetError(f"dataset has {n_val} validation records but only {n} records")
    x_true, y, x_fid, ybar = (r.array(n * d, "<f8").reshape(n, d) for d in (x_dim, y_dim, x_dim, x_dim))
    r.finish()
    return FiducialDataset(stage, x_true, y, x_fid, ybar, n_val)
