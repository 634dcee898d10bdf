"""Pinned SHA-256 digests of two small training runs and one inference.

`train_pipeline` runs on a small linear-Gaussian problem and on the default
toy (default flow: its parameter vector spans several `Adam.step` chunks),
then `infer` draws from the trained pipeline. Every stage's checkpoint,
fiducials and scores, and the inference samples, must hash to the digests
below at 1 and 2 CPUs. A change that keeps every bit shows it here; one
that moves bits on purpose records new digests and says in CHANGES.md by
how much the outputs moved. The digests hold for one set of BLAS kernels
(numpy's bundled OpenBLAS on x86-64); another BLAS may round differently.
"""

import hashlib
import os

import pytest

from scoreflow.flow import FlowConfig, TrainConfig, save_checkpoint
from scoreflow.numerics import Rng
from scoreflow.pipeline import infer, train_pipeline
from scoreflow.problems import LinearGaussianProblem, NonlinearToyProblem

# name: (problem, records, flow, training, seed); two stages of fiducial updates each
CASES = {
    "linear_gaussian": (lambda: LinearGaussianProblem.replication(x_dim=8, y_dim=16, seed=5), 120,
                        FlowConfig(n_blocks=4, hidden=(32, 32)),
                        TrainConfig(batch_size=32, max_epochs=3, patience=3, n_s_train=16, weight_decay=1e-3), 11),
    "nonlinear_toy": (NonlinearToyProblem, 80, FlowConfig(), TrainConfig(max_epochs=2, patience=2), 12),
}

LINEAR_GAUSSIAN = {
    "flow_0": "6aad939dab406b961b5fca1adbd73ebf7e74b50da21a769fe6e01670f1574a71",
    "flow_1": "7b6653eb96a77a1ec1b74d349bfbaf0b8733cd5053ba50c6d50e0759ad652279",
    "flow_2": "49659d4fc75e2c559c835f4d23da1d1a70a7fb3172c5e9dcd17963a3a74727e8",
    "stage_0.x_fid": "f6e28ad1753237d42be72be187a88f09a269097eeda24bcf12908db6bd361246",
    "stage_0.ybar": "beaccb3b45aca11a6daad1e0026ee255438e89dc5a2b9fb749a7f65a112911cf",
    "stage_1.x_fid": "90b0ec485a5ae4b63c81ea66a2c6668725f1646a0568d1df68bb3cc238b96720",
    "stage_1.ybar": "7813a7379506991ab64c4a93371dca5e78121aae5bc5184fea94434f71437f27",
    "stage_2.x_fid": "f7c8f3125c5cc67ae4a37c7a12253c4c135bbc62e32a0ba4fc44a2e66daef5a8",
    "stage_2.ybar": "c66ff00ccd7d22124d177ad72156f402e03ce01558de39472b763e84bb9b265e",
    "infer.samples": "f1454e55acab692cc73841f9bc2ba9f4e3b108e074032c0a9fc06b550d4b9c63",
}

NONLINEAR_TOY = {
    "flow_0": "6487cc2dee3282eeca7de519d633ef2941843c4181a861d21f4b599d47df6053",
    "flow_1": "62f69edeaa0b88bd7a07ad88d2f1a3a88b9be740f42f5052f3e7a0f457f65a19",
    "flow_2": "cb26c5b03b11fc5feb4aebc7d2c943eabf9cdcf9bf23dfccf53a40fda4c822b9",
    "stage_0.x_fid": "94d9ceac8370c9a136dfeaf4383aff36428f85d6c6b283547f21757c52a2c6e7",
    "stage_0.ybar": "d0948fe2731e71498799c7c6a5878b790cea65e33ec250f0396a81a8c4879531",
    "stage_1.x_fid": "8f2bda78d66d5cedcad27c5186705f857902e713ce83b3de11584e2ee19ff9ca",
    "stage_1.ybar": "ff5e1ba70fda6f37b4ef0ba19715588ed1a91fac72a7ebffa2bd67a6530c8228",
    "stage_2.x_fid": "a3da657280264cc8eb8c2ce328d61bdbaaafe8beca718c755787d13757758225",
    "stage_2.ybar": "a217f5335f7feb4a6aaea1af4b043ff110df836a5ead789b24b4a0167f46b2d9",
    "infer.samples": "b930978910a5388ac60c5f9f2bcb4ed59cfbc8457d8e7b97536b6d7ef9e792b4",
}


def digests(name):
    make, n_train, flow_cfg, train_cfg, seed = CASES[name]
    pipe, datasets = train_pipeline(make(), n_train, 2, flow_cfg, train_cfg, Rng(seed))
    out = {f"flow_{j}": hashlib.sha256(save_checkpoint(f)).hexdigest() for j, f in enumerate(pipe.flows)}
    for ds in datasets:
        out[f"stage_{ds.stage}.x_fid"] = hashlib.sha256(ds.x_fid.tobytes()).hexdigest()
        out[f"stage_{ds.stage}.ybar"] = hashlib.sha256(ds.ybar.tobytes()).hexdigest()
    samples = infer(pipe, datasets[0].y[0], 300, Rng(seed + 1)).samples
    out["infer.samples"] = hashlib.sha256(samples.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name, expected", [("linear_gaussian", LINEAR_GAUSSIAN), ("nonlinear_toy", NONLINEAR_TOY)])
def test_outputs_hash_to_pinned_digests(monkeypatch, name, expected, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert digests(name) == expected
