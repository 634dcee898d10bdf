"""Byte-mutation fuzzing of the two binary loaders.

A valid small payload is flipped, overwritten, truncated and extended;
the loader must either return an object or raise its own error class
(`CheckpointError`, `DatasetError`), never anything else.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scoreflow.flow import CheckpointError, CouplingFlow, FlowConfig, load_checkpoint, save_checkpoint
from scoreflow.numerics import Rng, SpdMatrix
from scoreflow.problems import LinearGaussianProblem
from scoreflow.summary import DatasetError, build_stage0, load_dataset, save_dataset

FUZZ = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _checkpoint() -> bytes:
    return save_checkpoint(CouplingFlow.create(3, 3, Rng(0), FlowConfig(n_blocks=2, hidden=(4,))))


def _dataset() -> bytes:
    problem = LinearGaussianProblem(
        np.ones((4, 2)), np.zeros(2), SpdMatrix.identity(2), SpdMatrix.diagonal(np.full(4, 0.25))
    )
    return save_dataset(build_stage0(problem, 6, Rng(1), val_fraction=0.5))


CHECKPOINT = _checkpoint()
DATASET = _dataset()


@st.composite
def mutated(draw, payload: bytes) -> bytes:
    """`payload` after one to three flips, 4-byte overwrites, truncations or extensions."""
    data = bytearray(payload)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "overwrite", "truncate", "extend"]))
        if kind == "extend":
            data += draw(st.binary(min_size=1, max_size=64))
        elif not data:
            continue
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data) - 1)):]
        else:
            pos = draw(st.integers(0, len(data) - 1))
            if kind == "flip":
                data[pos] ^= draw(st.integers(1, 255))
            else:  # a whole header-sized field: reaches very large and zero counts
                data[pos:pos + 4] = draw(st.binary(min_size=4, max_size=4))
    return bytes(data)


@FUZZ
@given(mutated(CHECKPOINT))
def test_load_checkpoint_raises_only_checkpoint_error(data):
    try:
        load_checkpoint(data)
    except CheckpointError:
        pass


@FUZZ
@given(mutated(DATASET))
def test_load_dataset_raises_only_dataset_error(data):
    try:
        load_dataset(data)
    except DatasetError:
        pass


def test_payloads_are_valid():
    assert load_checkpoint(CHECKPOINT).x_dim == 3
    ds = load_dataset(DATASET)
    assert (ds.n_records, ds.n_val) == (6, 3)
