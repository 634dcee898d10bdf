"""Run configuration: YAML schema, validation, canonical hashing.

The config file is a nested key-value document with blocks `problem`,
`flow`, `training`, `eval`, `sweep`, `paths`, plus a top-level `seed`.
Unknown keys anywhere are errors so hyperparameter typos fail fast. The
`flow` and `training` defaults are the fields of `FlowConfig` and
`TrainConfig`, and each problem kind's defaults are its builder's keyword
defaults, so every setting is defined once. Every output artifact embeds
the sha256 hash of the canonicalized config without its `paths` block, so
results can be traced back to their exact settings wherever they were
written.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, fields

import yaml

from .flow import FlowConfig, TrainConfig
from .problems import InverseProblem, LinearGaussianProblem, NonlinearToyProblem


class ConfigError(ValueError):
    """Raised for unknown keys, missing fields, or out-of-range values."""


_PROBLEM_BUILDERS = {
    "linear_gaussian": LinearGaussianProblem.replication,
    "nonlinear_toy": NonlinearToyProblem,
}

_PROBLEM_DEFAULTS = {
    kind: {name: p.default for name, p in inspect.signature(build).parameters.items()}
    for kind, build in _PROBLEM_BUILDERS.items()
}

_FLOW_DEFAULTS = asdict(FlowConfig())

# n_train and stages are arguments of `train_pipeline`, not `TrainConfig` fields
_TRAINING_DEFAULTS = {**asdict(TrainConfig()), "n_train": 1000, "stages": 3}

_EVAL_DEFAULTS = {"n_test": 50, "n_samples": 2000, "psnr_range": 2.0}

_SWEEP_DEFAULTS = {"sizes": [400, 1000, 2000]}

_PATHS_DEFAULTS = {"out_dir": "runs/out"}


def _merge_block(name: str, defaults: dict, given: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"config block '{name}' must be a mapping")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
    out = dict(defaults)
    out.update(given)
    return out


@dataclass
class RunConfig:
    problem: dict
    flow: dict
    training: dict
    eval: dict
    sweep: dict
    paths: dict
    seed: int = 0

    def config_hash(self) -> str:
        """Hash of every setting that affects results; `paths` is left out."""
        return canonical_hash({k: v for k, v in asdict(self).items() if k != "paths"})

    def flow_config(self) -> FlowConfig:
        return FlowConfig(**{**self.flow, "hidden": tuple(self.flow["hidden"])})

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: self.training[f.name] for f in fields(TrainConfig)})


def canonical_hash(d: dict) -> str:
    """sha256 of the sorted-key JSON serialization."""
    return hashlib.sha256(json.dumps(d, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def validate_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "problem" not in raw:
        raise ConfigError("missing required block 'problem'")
    prob_raw = raw["problem"]
    if not isinstance(prob_raw, dict) or "kind" not in prob_raw:
        raise ConfigError("'problem' must be a mapping with a 'kind' key")
    kind = prob_raw["kind"]
    if kind not in _PROBLEM_DEFAULTS:
        raise ConfigError(f"unknown problem kind '{kind}', expected one of {sorted(_PROBLEM_DEFAULTS)}")
    blocks = {
        "problem": {**_PROBLEM_DEFAULTS[kind], "kind": kind},
        "flow": _FLOW_DEFAULTS,
        "training": _TRAINING_DEFAULTS,
        "eval": _EVAL_DEFAULTS,
        "sweep": _SWEEP_DEFAULTS,
        "paths": _PATHS_DEFAULTS,
    }
    cfg = RunConfig(
        **{name: _merge_block(name, defaults, raw.get(name, {})) for name, defaults in blocks.items()},
        seed=int(raw.get("seed", 0)),
    )
    _validate_values(cfg)
    return cfg


def _validate_values(cfg: RunConfig) -> None:
    t = cfg.training
    for key in ("batch_size", "max_epochs", "patience", "n_train", "n_s_train", "n_s_infer"):
        if int(t[key]) < 1:
            raise ConfigError(f"training.{key} must be >= 1, got {t[key]}")
    if int(t["stages"]) < 0:
        raise ConfigError(f"training.stages must be >= 0, got {t['stages']}")
    if not 0.0 <= float(t["val_fraction"]) < 1.0:
        raise ConfigError(f"training.val_fraction must be in [0, 1), got {t['val_fraction']}")
    if float(t["lr"]) <= 0:
        raise ConfigError(f"training.lr must be positive, got {t['lr']}")
    for key in ("n_test", "n_samples"):
        if int(cfg.eval[key]) < 1:
            raise ConfigError(f"eval.{key} must be >= 1, got {cfg.eval[key]}")
    if float(cfg.eval["psnr_range"]) <= 0:
        raise ConfigError(f"eval.psnr_range must be positive, got {cfg.eval['psnr_range']}")
    if int(cfg.flow["n_blocks"]) < 1:
        raise ConfigError(f"flow.n_blocks must be >= 1, got {cfg.flow['n_blocks']}")
    sizes = cfg.sweep["sizes"]
    if not isinstance(sizes, list) or not sizes or any(int(s) < 1 for s in sizes):
        raise ConfigError(f"sweep.sizes must be a nonempty list of positive ints, got {sizes}")


def load_config(path) -> RunConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return validate_config(raw or {})


def problem_from_config(prob: dict) -> InverseProblem:
    """Build a problem instance from a validated problem block.

    Each value is cast to the type of its builder default, so YAML ints
    given for float parameters build the same problem as floats do.
    """
    kind = prob.get("kind")
    if kind not in _PROBLEM_BUILDERS:
        raise ConfigError(f"unknown problem kind '{kind}'")
    params = {name: type(default)(prob[name]) for name, default in _PROBLEM_DEFAULTS[kind].items()}
    return _PROBLEM_BUILDERS[kind](**params)
