"""Run configuration: YAML schema, validation, canonical hashing.

The config file is a nested key-value document with blocks `problem`,
`flow`, `training`, `eval`, `sweep`, `paths`, plus a top-level `seed`.
Unknown keys anywhere are errors so hyperparameter typos fail fast, and
each value must have its default's type. The `flow`, `training` and
`eval` defaults are the fields of `FlowConfig`, `TrainConfig` and
`EvalConfig`, and each problem kind's defaults are its builder's keyword
defaults, so every setting is defined once; so is each range rule, on
its class. The sha256 hash of the canonicalized config without its
`paths` block is embedded in both manifests (`dataset_manifest.json`
and a bundle's `manifest.json`) and in every CSV except `samples.csv`,
`mean.csv` and `std.csv`; the binary dataset and checkpoints do not hold
it. So those results can be traced back to their exact settings wherever
they were written.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass, fields

import yaml

from .flow import FlowConfig, TrainConfig, check_ranges
from .problems import InverseProblem, LinearGaussianProblem, NonlinearToyProblem


class ConfigError(ValueError):
    """Raised for unknown keys, missing fields, or out-of-range values."""


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation sizes: the config's `eval` block; the evaluation functions take their defaults from here."""

    n_test: int = 50
    n_samples: int = 2000
    psnr_range: float = 2.0

    def __post_init__(self):
        check_ranges(self, ("n_test", "n_samples"), "must be >= 1", lambda v: v >= 1)
        check_ranges(self, ("psnr_range",), "must be positive", lambda v: v > 0)


_PROBLEM_BUILDERS = {
    "linear_gaussian": LinearGaussianProblem.replication,
    "nonlinear_toy": NonlinearToyProblem,
}

_PROBLEM_DEFAULTS = {
    kind: {name: p.default for name, p in inspect.signature(build).parameters.items()}
    for kind, build in _PROBLEM_BUILDERS.items()
}


def _typed(where: str, default, value):
    """`value` as its default's type. A float also accepts an int or a string that parses as a finite
    float, a list's elements are typed like its default's first element, and bools are not ints."""
    if isinstance(default, (list, tuple)) and isinstance(value, (list, tuple)):
        return type(default)(_typed(f"{where}[{i}]", default[0], v) for i, v in enumerate(value))
    if isinstance(default, float) and type(value) in (int, float, str):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if math.isfinite(number):
            return number
    elif type(value) is type(default):
        return value
    raise ConfigError(f"{where} must be of type {type(default).__name__}, got {value!r}")


def merge_block(name: str, defaults: dict, given: dict) -> dict:
    """`defaults` updated with `given`, whose keys must be known and whose values must type-check."""
    if not isinstance(given, dict):
        raise ConfigError(f"config block '{name}' must be a mapping")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
    return {**defaults, **{k: _typed(f"{name}.{k}", defaults[k], v) for k, v in given.items()}}


def complete_block(name: str, defaults: dict, given: dict) -> dict:
    """`merge_block`'s result for a `given` that must also hold every one of `defaults`' keys."""
    merged = merge_block(name, defaults, given)
    missing = set(defaults) - set(given)
    if missing:
        raise ConfigError(f"{name} block lacks keys {sorted(missing)}")
    return merged


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
        return from_block(FlowConfig, "flow", self.flow)

    def train_config(self) -> TrainConfig:
        return from_block(TrainConfig, "training", self.training)


def from_block(cls, name: str, block: dict):
    """`cls` from `block`'s values of its fields; a value its rules refuse is a ConfigError naming `name.key`."""
    try:
        return cls(**{f.name: block[f.name] for f in fields(cls)})
    except ValueError as exc:
        raise ConfigError(f"{name}.{exc}") from exc


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
    if not isinstance(kind, str) or kind not in _PROBLEM_DEFAULTS:
        raise ConfigError(f"unknown problem kind '{kind}', expected one of {sorted(_PROBLEM_DEFAULTS)}")
    blocks = {
        "problem": {**_PROBLEM_DEFAULTS[kind], "kind": kind},
        "flow": asdict(FlowConfig()),
        # n_train and stages are arguments of `train_pipeline`, not `TrainConfig` fields
        "training": {**asdict(TrainConfig()), "n_train": 1000, "stages": 3},
        "eval": asdict(EvalConfig()),
        "sweep": {"sizes": [400, 1000, 2000]},
        "paths": {"out_dir": "runs/out"},
    }
    cfg = RunConfig(
        **{name: merge_block(name, defaults, raw.get(name, {})) for name, defaults in blocks.items()},
        seed=_typed("seed", 0, raw.get("seed", 0)),
    )
    for cls, name in ((FlowConfig, "flow"), (TrainConfig, "training"), (EvalConfig, "eval")):
        from_block(cls, name, getattr(cfg, name))
    _validate_values(cfg)
    return cfg


def _validate_values(cfg: RunConfig) -> None:
    """The rules of the settings no config class holds."""
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    t = cfg.training
    if t["n_train"] < 1:
        raise ConfigError(f"training.n_train must be >= 1, got {t['n_train']}")
    if t["stages"] < 0:
        raise ConfigError(f"training.stages must be >= 0, got {t['stages']}")
    sizes = cfg.sweep["sizes"]
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"sweep.sizes must be a nonempty list of positive ints, got {sizes}")
    if len(set(sizes)) < len(sizes):
        raise ConfigError(f"sweep.sizes must not repeat a size, got {sizes}")


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {' '.join(str(exc).split())}") from exc
    return validate_config(raw or {})


def problem_from_config(prob: dict) -> InverseProblem:
    """Build a problem instance from a problem block that gives every one of its builder's
    keys, with its default's type, and its `kind`; the problem keeps the block as its `config`."""
    kind = prob.get("kind") if isinstance(prob, dict) else None
    if not isinstance(kind, str) or kind not in _PROBLEM_BUILDERS:
        raise ConfigError(f"unknown problem kind '{kind}'")
    params = complete_block("problem", _PROBLEM_DEFAULTS[kind], {k: v for k, v in prob.items() if k != "kind"})
    try:
        problem = _PROBLEM_BUILDERS[kind](**params)
    except ValueError as exc:
        raise ConfigError(f"problem block ({kind}) is invalid: {exc}") from exc
    problem.config = {"kind": kind, **params}
    return problem
