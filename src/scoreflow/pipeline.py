"""Multi-stage training and inference orchestration.

Training builds a stage-0 dataset, then alternates flow training and
fiducial advancement for L stages, producing L+1 flows (one per stage,
trained on that stage's residual/score pairs). Inference starts from the
problem's default fiducial, performs L posterior-mean updates using flows
0..L-1, and returns the final fiducial plus samples from flow L.

The L+1-flows / L-updates convention is fixed here and mirrored by the
bundle layout on disk.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, complete_block, from_block, problem_from_config
from .flow import CheckpointError, CouplingFlow, FlowConfig, TrainConfig, best_epoch, load_checkpoint, save_checkpoint
from .flow import train_flow
from .numerics import Rng
from .problems import InverseProblem
from .summary import FiducialDataset, advance_stage, build_stage0

BUNDLE_FORMAT_VERSION = 1

# spawn-key namespaces
_KEY_DATA = 0
_KEY_FLOW_INIT = 1
_KEY_TRAIN = 2
_KEY_INFER_UPDATE = 3
_KEY_INFER_SAMPLE = 4


class PipelineError(RuntimeError):
    """A training run failed; `pipeline` holds the flows and histories finished before the failure."""

    def __init__(self, message, pipeline):
        super().__init__(message)
        self.pipeline = pipeline


@dataclass
class TrainedPipeline:
    problem: InverseProblem
    flows: list[CouplingFlow]
    seed: int
    train_config: TrainConfig
    config_hash: str = ""
    stage_histories: list[list[tuple[int, float, float]]] = field(default_factory=list)

    @property
    def n_stages(self) -> int:
        """Number of fiducial updates L; there are L+1 flows."""
        return len(self.flows) - 1


@dataclass
class PosteriorEnsemble:
    """Posterior samples (absolute parameters) plus derived statistics."""

    samples: np.ndarray  # (n, x_dim)
    mean: np.ndarray
    cov: np.ndarray  # unbiased (n-1) estimator
    std: np.ndarray
    # (x_i, ybar_i) for i = 0..L, as `intermediate_trajectory` returns them
    trajectory: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "PosteriorEnsemble":
        samples = np.asarray(samples, dtype=np.float64)
        mean = samples.mean(axis=0)
        centered = samples - mean
        denom = max(samples.shape[0] - 1, 1)
        cov = centered.T @ centered / denom
        cov = 0.5 * (cov + cov.T)
        return cls(samples, mean, cov, np.sqrt(np.diag(cov)))


def train_pipeline(
    problem: InverseProblem,
    n_train: int,
    L: int,
    flow_cfg: FlowConfig,
    train_cfg: TrainConfig,
    rng: Rng,
    progress=None,
) -> tuple[TrainedPipeline, list[FiducialDataset]]:
    """Run the full training phase; returns the pipeline and per-stage datasets.

    On divergence the raised PipelineError carries the pipeline of the
    flows completed so far, so callers can persist them.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    data_rng = rng.child(_KEY_DATA)
    ds = build_stage0(problem, n_train, data_rng, val_fraction=train_cfg.val_fraction)
    datasets = [ds]
    pipeline = TrainedPipeline(problem=problem, flows=[], seed=rng.seed, train_config=train_cfg)
    for j in range(L + 1):
        if progress:
            progress(f"stage {j}/{L}: training flow on {ds.n_records} records")
        flow = CouplingFlow.create(problem.x_dim, problem.x_dim, rng.child(_KEY_FLOW_INIT, j), flow_cfg)
        dx_tr, ybar_tr = ds.train_arrays()
        dx_val, ybar_val = ds.val_arrays()
        try:
            flow.fit_normalization(dx_tr, ybar_tr)
            history = train_flow(flow, dx_tr, ybar_tr, dx_val, ybar_val, rng.child(_KEY_TRAIN, j), train_cfg)
        except FloatingPointError as exc:
            raise PipelineError(f"flow training diverged at stage {j}: {exc}", pipeline) from exc
        pipeline.flows.append(flow)
        pipeline.stage_histories.append(history)
        if progress:
            epoch, val_loss = best_epoch(history)
            progress(f"stage {j}/{L}: trained {len(history)} epochs, best epoch {epoch} "
                     f"with validation NLL {val_loss:.6g}")
        if j < L:
            if progress:
                progress(f"stage {j}/{L}: advancing fiducials (n_s={train_cfg.n_s_train})")
            try:
                ds = advance_stage(ds, flow, problem, train_cfg.n_s_train, data_rng)
            except FloatingPointError as exc:
                raise PipelineError(f"fiducial advancement diverged after stage {j}: {exc}", pipeline) from exc
            datasets.append(ds)
    return pipeline, datasets


def intermediate_trajectory(pipeline: TrainedPipeline, y, rng: Rng):
    """Fiducials and scores (x_i, ybar_i) for i = 0..L along the inference loop."""
    problem = pipeline.problem
    n_s = pipeline.train_config.n_s_infer  # draws averaged per fiducial update
    L = pipeline.n_stages
    x = problem.default_fiducial()
    out = []
    for i in range(L):
        ybar = problem.score(x, y)
        out.append((x, ybar))
        x = x + pipeline.flows[i].sample(ybar, n_s, rng.child(_KEY_INFER_UPDATE, i)).mean(axis=0)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite fiducial at inference iteration {i}")
    out.append((x, problem.score(x, y)))
    return out


def infer(pipeline: TrainedPipeline, y, n_samples: int, rng: Rng) -> PosteriorEnsemble:
    """Full inference: L fiducial updates, then n_samples from the final flow.

    The returned ensemble carries the trajectory of those updates.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    traj = intermediate_trajectory(pipeline, y, rng)
    x_final, ybar_final = traj[-1]
    deltas = pipeline.flows[-1].sample(ybar_final, n_samples, rng.child(_KEY_INFER_SAMPLE))
    ens = PosteriorEnsemble.from_samples(x_final + deltas)
    ens.trajectory = traj
    return ens


def save_pipeline(pipeline: TrainedPipeline, out_dir) -> None:
    """Write a pipeline bundle: manifest plus one checkpoint file per stage.

    The bundle is written into a temporary directory beside `out_dir`,
    which then takes the place of `out_dir`. So a save that fails leaves
    the previous bundle as it was, no file of an older, longer bundle
    survives a save, and no temporary directory is left behind. A pipeline
    `load_pipeline` could not read back is refused before any directory is made."""
    if not pipeline.flows:
        raise ValueError("cannot save a pipeline with no flows")
    if pipeline.problem.config is None:
        raise ValueError("cannot save a pipeline whose problem has no config; build it with problem_from_config")
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "n_flows": len(pipeline.flows),
        "seed": pipeline.seed,
        "config_hash": pipeline.config_hash,
        "problem": pipeline.problem.config,
        "train_config": asdict(pipeline.train_config),
    }
    scratch = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        new, old = scratch / "new", scratch / "old"
        new.mkdir()
        (new / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for j, flow in enumerate(pipeline.flows):
            (new / f"flow_{j:03d}.ckpt").write_bytes(save_checkpoint(flow))
        if out.exists():
            out.rename(old)
        try:
            new.rename(out)
        except OSError:
            if old.exists():
                old.rename(out)
            raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def read_manifest(bundle_dir) -> dict:
    """A bundle's manifest, its form checked and its `train_config` made a `TrainConfig`; `problem` stays as read."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no manifest.json in bundle {bundle}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise CheckpointError(f"bundle manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"bundle manifest {manifest_path} is not a JSON object")
    # each key's type and, for an int, the least value it may take
    shape = {"n_flows": (int, 1), "seed": (int, 0), "config_hash": (str, None), "problem": (dict, None),
             "train_config": (dict, None)}
    bad = [k for k, (t, least) in shape.items() if type(manifest.get(k)) is not t or t is int and manifest[k] < least]
    if bad:
        raise CheckpointError(f"bundle manifest {manifest_path} lacks a valid {', '.join(bad)}")
    version = manifest.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise CheckpointError(f"unsupported bundle format {version}, expected {BUNDLE_FORMAT_VERSION}")
    try:
        tc = complete_block("train_config", asdict(TrainConfig()), manifest["train_config"])
        manifest["train_config"] = from_block(TrainConfig, "train_config", tc)
    except ConfigError as exc:
        raise CheckpointError(f"bundle manifest {manifest_path}: {exc}") from exc
    return manifest


def load_pipeline(bundle_dir) -> TrainedPipeline:
    """Load a bundle, with its problem rebuilt from the manifest's `problem` block."""
    bundle = Path(bundle_dir)
    manifest = read_manifest(bundle)
    try:
        problem = problem_from_config(manifest["problem"])
    except ConfigError as exc:
        raise CheckpointError(f"bundle manifest {bundle / 'manifest.json'}: {exc}") from exc
    flows = []
    for j in range(manifest["n_flows"]):
        path = bundle / f"flow_{j:03d}.ckpt"
        if not path.exists():
            raise CheckpointError(f"missing checkpoint {path.name} in bundle")
        flow = load_checkpoint(path.read_bytes())
        if (flow.x_dim, flow.cond_dim) != (problem.x_dim, problem.x_dim):
            raise CheckpointError(
                f"checkpoint {path.name} has (x_dim, cond_dim) ({flow.x_dim}, {flow.cond_dim}), "
                f"the problem needs ({problem.x_dim}, {problem.x_dim})"
            )
        flows.append(flow)
    return TrainedPipeline(
        problem=problem,
        flows=flows,
        seed=manifest["seed"],
        config_hash=manifest["config_hash"],
        train_config=manifest["train_config"],
    )
