"""Command-line entry point: generate / train / infer / evaluate / sweep.

Progress goes to stderr; all machine-readable output goes to files under
the configured output directory. Exit codes: 0 success, 1 validation
error, 2 runtime or numerical failure. Reruns with identical config and
seed produce bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, problem_from_config
from .flow import CheckpointError, FlowConfig
from .metrics import evaluate_testset, sweep_training_size
from .metrics import write_csv, write_records_csv, write_summary_csv, write_sweep_csv
from .numerics import Rng, ShapeError
from .pipeline import PipelineError, TrainedPipeline, infer, load_pipeline, read_manifest, save_pipeline, train_pipeline
from .pipeline import intermediate_trajectory  # noqa: F401  (bound here; bench/tracer.py patches it)
from .summary import build_stage0, save_dataset


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg.seed = args.seed
    if args.out is not None:
        cfg.paths["out_dir"] = args.out
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.paths["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args, cfg: RunConfig) -> int:
    problem = problem_from_config(cfg.problem)
    out = _out_dir(cfg)
    n_train = cfg.training["n_train"]
    _progress(f"generating stage-0 dataset with {n_train} records")
    rng = Rng(cfg.seed)
    ds = build_stage0(problem, n_train, rng.child(0), val_fraction=cfg.training["val_fraction"])
    (out / "dataset_stage000.bin").write_bytes(save_dataset(ds))
    # the record count, stage and dims are in the dataset's own header
    manifest = {"config_hash": cfg.config_hash(), "seed": cfg.seed}
    (out / "dataset_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _progress(f"wrote {out / 'dataset_stage000.bin'}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    problem = problem_from_config(cfg.problem)
    out = _out_dir(cfg)
    bundle_dir = out / "bundle"
    rng = Rng(cfg.seed)
    failure = None
    try:
        pipeline, _ = train_pipeline(
            problem,
            cfg.training["n_train"],
            cfg.training["stages"],
            cfg.flow_config(),
            cfg.train_config(),
            rng,
            progress=_progress,
        )
    except PipelineError as exc:
        failure, pipeline = exc, exc.pipeline  # the flows finished before the divergence
    if not pipeline.flows:
        raise failure
    pipeline.config_hash = cfg.config_hash()
    save_pipeline(pipeline, bundle_dir)
    if failure:
        _progress(f"partial bundle with {len(pipeline.flows)} flows saved to {bundle_dir}")
        raise failure
    rows = ([j, *entry] for j, history in enumerate(pipeline.stage_histories) for entry in history)
    write_csv(out / "training_loss.csv", ["stage", "epoch", "train_loss", "val_loss"], rows, cfg.config_hash())
    _progress(f"bundle saved to {bundle_dir}")
    return 0


def _refuse_other(what: str, block: str, bundle: dict, config: dict) -> None:
    """ConfigError "<what>: <block>.<key> is <value> in the bundle and <value> in the config; ..." naming
    every key whose values differ, unless none does."""
    diffs = [f"{block}.{k} is {bundle.get(k, 'absent')} in the bundle and {config.get(k, 'absent')} in the config"
             for k in sorted(bundle.keys() | config.keys()) if bundle.get(k) != config.get(k)]
    if diffs:
        raise ConfigError(f"{what}: {'; '.join(diffs)}")


def _load_bundle(bundle_dir: str, cfg: RunConfig) -> TrainedPipeline:
    """The bundle's pipeline, refused unless the config's `problem`, `training` and `flow` settings are the
    ones it was trained with. The manifest's problem block and training schedule are compared before
    anything they size is built; `n_train` and `stages` are not recorded in a bundle, so they go unchecked."""
    manifest = read_manifest(bundle_dir)
    _refuse_other(f"bundle {bundle_dir} was trained on another problem", "problem", manifest["problem"], cfg.problem)
    _refuse_other(f"bundle {bundle_dir} was trained on another schedule", "training",
                  asdict(manifest["train_config"]), asdict(cfg.train_config()))
    pipeline, flow_config = load_pipeline(bundle_dir), asdict(cfg.flow_config())
    for j, flow in enumerate(pipeline.flows):
        _refuse_other(f"checkpoint flow_{j:03d}.ckpt of bundle {bundle_dir} holds another flow", "flow",
                      asdict(FlowConfig(len(flow.nets), flow.hidden, flow.s_max)), flow_config)
    return pipeline


def _load_y(path: str, y_dim: int) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file's; the shape check below names it
            vals = np.loadtxt(path, delimiter=None).ravel()
    except ValueError as exc:
        raise ConfigError(f"cannot read observation {path}: {exc}") from exc
    if vals.shape != (y_dim,):
        raise ShapeError(f"observation in {path} has {vals.size} entries, expected {y_dim}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"observation in {path} has non-finite entries")
    return vals.astype(np.float64)


def cmd_infer(args, cfg: RunConfig) -> int:
    if args.n_samples < 1:
        raise ConfigError(f"--n-samples must be >= 1, got {args.n_samples}")
    pipeline = _load_bundle(args.bundle, cfg)
    y = _load_y(args.y, pipeline.problem.y_dim)
    out = _out_dir(cfg)
    _progress(f"inferring with {pipeline.n_stages} fiducial updates, {args.n_samples} samples")
    ens = infer(pipeline, y, args.n_samples, Rng(cfg.seed).child(0))
    xcols = [f"x{i}" for i in range(pipeline.problem.x_dim)]
    write_csv(out / "samples.csv", xcols, ens.samples.tolist())
    write_csv(out / "mean.csv", xcols, [ens.mean.tolist()])
    write_csv(out / "std.csv", xcols, [ens.std.tolist()])
    rows = ([i, np.linalg.norm(ybar), *x.tolist()] for i, (x, ybar) in enumerate(ens.trajectory))
    write_csv(out / "trajectory.csv", ["stage", "score_norm"] + xcols, rows, cfg.config_hash())
    _progress(f"ensemble files written to {out}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    pipeline = _load_bundle(args.bundle, cfg)
    out = _out_dir(cfg)
    report = evaluate_testset(pipeline, pipeline.problem, rng=Rng(cfg.seed).child(0), progress=_progress, **cfg.eval)
    write_records_csv(report, out / "metrics_records.csv", cfg.config_hash())
    write_summary_csv(report, out / "metrics_summary.csv", cfg.config_hash())
    _progress(f"metric CSVs written to {out}")
    return 0


def cmd_sweep(args, cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    problem = problem_from_config(cfg.problem)
    rng = Rng(cfg.seed)
    results = sweep_training_size(
        problem,
        cfg.sweep["sizes"],
        cfg.training["stages"],
        cfg.flow_config(),
        cfg.train_config(),
        rng,
        progress=_progress,
        **cfg.eval,
    )
    write_sweep_csv(results, out / "sweep.csv", cfg.config_hash())
    for n_train, report in results.items():
        write_summary_csv(report, out / f"sweep_summary_n{n_train}.csv", cfg.config_hash())
    _progress(f"sweep CSVs written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scoreflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to YAML run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("generate", help="write the stage-0 training dataset")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the multi-stage pipeline")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="posterior inference for one observation")
    add_common(p)
    p.add_argument("--bundle", required=True, help="trained pipeline bundle directory")
    p.add_argument("--y", required=True, help="text file with the observation vector")
    p.add_argument("--n-samples", type=int, default=1000)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="metric evaluation on a fresh test set")
    add_common(p)
    p.add_argument("--bundle", required=True, help="trained pipeline bundle directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="training-set-size sweep")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _effective_config(args))
    except (ConfigError, ShapeError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
