import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest
import yaml

from scoreflow.config import (
    ConfigError,
    EvalConfig,
    canonical_hash,
    load_config,
    problem_from_config,
    validate_config,
)
from scoreflow.flow import CheckpointError, CouplingFlow, load_checkpoint, save_checkpoint
from scoreflow.metrics import evaluate_testset, sweep_training_size
from scoreflow.numerics import Rng
from scoreflow.pipeline import FlowConfig, TrainConfig, TrainedPipeline, load_pipeline, save_pipeline
from scoreflow.problems import LinearGaussianProblem, NonlinearToyProblem

MINIMAL = {"problem": {"kind": "linear_gaussian"}}


class TestValidation:
    def test_minimal_config_gets_defaults(self):
        cfg = validate_config(dict(MINIMAL))
        assert cfg.problem["x_dim"] == 16
        assert cfg.flow["n_blocks"] == 6
        assert cfg.training["stages"] == 3
        assert cfg.seed == 0

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = validate_config(dict(MINIMAL))
        assert cfg.flow_config() == FlowConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.eval == asdict(EvalConfig())
        for fn in (evaluate_testset, sweep_training_size):
            for name, p in inspect.signature(fn).parameters.items():
                if name in cfg.eval and p.default is not p.empty:
                    assert p.default == cfg.eval[name], (fn.__name__, name)

    @pytest.mark.parametrize(
        "kind, builder",
        [("linear_gaussian", LinearGaussianProblem.replication), ("nonlinear_toy", NonlinearToyProblem)],
    )
    def test_problem_defaults_are_the_builder_defaults(self, kind, builder):
        cfg = validate_config({"problem": {"kind": kind}})
        signature = {k: p.default for k, p in inspect.signature(builder).parameters.items()}
        assert cfg.problem == {**signature, "kind": kind}

    def test_missing_problem_block(self):
        with pytest.raises(ConfigError, match="problem"):
            validate_config({})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            validate_config({**MINIMAL, "trainnig": {}})
        with pytest.raises(ConfigError, match="threads"):
            validate_config({**MINIMAL, "threads": 2})  # a removed knob

    def test_unknown_block_key(self):
        raw = {"problem": {"kind": "linear_gaussian", "x_dmi": 4}}
        with pytest.raises(ConfigError, match="x_dmi"):
            validate_config(raw)

    def test_unknown_problem_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"problem": {"kind": "heat_equation"}})
        with pytest.raises(ConfigError, match="kind"):
            validate_config({"problem": {"kind": ["linear_gaussian"]}})  # not hashable
        with pytest.raises(ConfigError, match="kind"):
            problem_from_config({"kind": ["linear_gaussian"]})

    def test_toy_keys_rejected_for_linear(self):
        raw = {"problem": {"kind": "linear_gaussian", "nonlin_scale": 2.0}}
        with pytest.raises(ConfigError, match="nonlin_scale"):
            validate_config(raw)

    def test_value_range_checks(self):
        with pytest.raises(ConfigError, match="lr"):
            validate_config({**MINIMAL, "training": {"lr": -1.0}})
        with pytest.raises(ConfigError, match="stages"):
            validate_config({**MINIMAL, "training": {"stages": -1}})
        with pytest.raises(ConfigError, match="val_fraction"):
            validate_config({**MINIMAL, "training": {"val_fraction": 1.0}})
        with pytest.raises(ConfigError, match="psnr_range"):
            validate_config({**MINIMAL, "eval": {"psnr_range": -2.0}})
        with pytest.raises(ConfigError, match="sizes"):
            validate_config({**MINIMAL, "sweep": {"sizes": []}})

    def test_sweep_sizes_must_be_distinct(self):
        # results are keyed by size, so a repeated size would train twice and keep one result
        with pytest.raises(ConfigError, match=r"sweep\.sizes must not repeat a size, got \[10, 20, 10\]"):
            validate_config({**MINIMAL, "sweep": {"sizes": [10, 20, 10]}})

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_seed_must_be_non_negative(self, seed):
        with pytest.raises(ConfigError, match=rf"^seed must be >= 0, got {seed}$"):
            validate_config({**MINIMAL, "seed": seed})

    @pytest.mark.parametrize("hidden", [[-5], [0], [64, 0]])
    def test_hidden_widths_must_be_positive(self, hidden):
        with pytest.raises(ConfigError, match=r"flow\.hidden widths must be >= 1"):
            validate_config({**MINIMAL, "flow": {"hidden": hidden}})

    def test_empty_hidden_is_a_linear_conditioner(self):
        assert validate_config({**MINIMAL, "flow": {"hidden": []}}).flow_config().hidden == ()

    @pytest.mark.parametrize("s_max", [0.0, -1.0, 0])
    def test_s_max_must_be_positive(self, s_max):
        with pytest.raises(ConfigError, match=r"flow\.s_max must be positive"):
            validate_config({**MINIMAL, "flow": {"s_max": s_max}})

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"training": {"lr": "abc"}}, "training.lr"),
            ({"training": {"lr": float("nan")}}, "training.lr"),
            ({"seed": "abc"}, "seed"),
            ({"flow": {"n_blocks": 2.5}}, "flow.n_blocks"),
            ({"flow": {"n_blocks": True}}, "flow.n_blocks"),
            ({"flow": {"hidden": 64}}, "flow.hidden"),
            ({"training": {"batch_size": 8.5}}, "training.batch_size"),
            ({"training": {"stages": 1.5}}, "training.stages"),
            ({"problem": {"kind": "linear_gaussian", "x_dim": 4.5}}, "problem.x_dim"),
            ({"sweep": {"sizes": [20.5]}}, "sweep.sizes"),
        ],
    )
    def test_values_must_have_their_defaults_type(self, raw, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            validate_config({**MINIMAL, **raw})

    def test_numbers_are_read_as_their_defaults_type(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("problem: {kind: linear_gaussian}\ntraining: {lr: 1e-3}\neval: {psnr_range: 2}\n")
        cfg = load_config(path)
        assert cfg.training["lr"] == 0.001 and cfg.eval["psnr_range"] == 2.0
        assert type(cfg.eval["psnr_range"]) is float
        assert cfg.config_hash() == validate_config({**MINIMAL, "training": {"lr": 0.001}}).config_hash()
        assert cfg.flow_config().hidden == (128, 128)

    def test_overrides_survive(self):
        raw = {
            "problem": {"kind": "nonlinear_toy", "grid": 8, "observed_rows": 3},
            "training": {"n_train": 123},
            "seed": 7,
        }
        cfg = validate_config(raw)
        assert cfg.problem["grid"] == 8
        assert cfg.training["n_train"] == 123
        assert cfg.seed == 7


RULES = [
    ("flow", "n_blocks", 0), ("flow", "hidden", (0,)), ("flow", "s_max", 0.0),
    ("training", "lr", 0.0), ("training", "weight_decay", -1.0), ("training", "batch_size", 0),
    ("training", "max_epochs", 0), ("training", "patience", 0), ("training", "n_s_train", 0),
    ("training", "n_s_infer", 0), ("training", "val_fraction", 1.0),
    ("eval", "n_test", 0), ("eval", "n_samples", 0), ("eval", "psnr_range", 0.0),
]


def small_flow():
    return CouplingFlow.create(2, 2, Rng(0), FlowConfig(n_blocks=2, hidden=(4,)))


def checkpoint_with(key, value) -> bytes:
    """A checkpoint whose header field `key` (the first width, for `hidden`) reads `value`."""
    blob = bytearray(save_checkpoint(small_flow()))
    at, fmt = {"n_blocks": (8 + 3 * 4, "<u4"), "s_max": (8 + 6 * 4, "<f8"), "hidden": (8 + 6 * 4 + 8, "<u4")}[key]
    blob[at : at + np.dtype(fmt).itemsize] = np.array([value[0] if key == "hidden" else value], fmt).tobytes()
    return bytes(blob)


def bundle_with(tmp_path, key, value):
    """A saved bundle whose manifest's `train_config.key` reads `value`."""
    problem_block = validate_config({"problem": {"kind": "linear_gaussian", "x_dim": 2, "y_dim": 4}}).problem
    pipe = TrainedPipeline(problem_from_config(problem_block), [small_flow()], seed=0, train_config=TrainConfig())
    bundle = tmp_path / "bundle"
    save_pipeline(pipe, bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["train_config"][key] = value
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    return bundle


class TestRangeRules:
    """Each range rule is stated once, on its config class, so every route refuses the same value
    with the same words: direct construction, the config, and the bundle manifest or checkpoint header."""

    @pytest.mark.parametrize("block, key, value", RULES, ids=[f"{b}.{k}" for b, k, _ in RULES])
    def test_every_route_refuses(self, tmp_path, block, key, value):
        cls = {"flow": FlowConfig, "training": TrainConfig, "eval": EvalConfig}[block]
        with pytest.raises(ValueError, match=rf"^{key}\b") as direct:
            cls(**{key: value})
        rule = str(direct.value)
        given = list(value) if isinstance(value, tuple) else value
        with pytest.raises(ConfigError) as exc:
            validate_config({**MINIMAL, block: {key: given}})
        assert str(exc.value) == f"{block}.{rule}"
        if block == "flow":
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(checkpoint_with(key, value))
            assert str(exc.value) == f"checkpoint {rule}"
        if block == "training":
            with pytest.raises(CheckpointError) as exc:
                load_pipeline(bundle_with(tmp_path, key, value))
            assert str(exc.value).endswith(f": train_config.{rule}")

    def test_config_objects_are_frozen(self):
        with pytest.raises(AttributeError):
            TrainConfig().lr = 0.0


class TestHashing:
    def test_hash_is_order_independent(self):
        a = canonical_hash({"b": 1, "a": 2})
        b = canonical_hash({"a": 2, "b": 1})
        assert a == b

    def test_hash_changes_with_content(self):
        cfg1 = validate_config(dict(MINIMAL))
        cfg2 = validate_config({**MINIMAL, "seed": 1})
        assert cfg1.config_hash() != cfg2.config_hash()

    def test_hash_ignores_paths(self):
        cfg1 = validate_config(dict(MINIMAL))
        cfg2 = validate_config({**MINIMAL, "paths": {"out_dir": "elsewhere"}})
        assert cfg1.config_hash() == cfg2.config_hash()

    def test_hash_stable_across_calls(self):
        cfg = validate_config(dict(MINIMAL))
        assert cfg.config_hash() == cfg.config_hash()


class TestLoadConfig:
    def test_yaml_roundtrip(self, tmp_path):
        raw = {"problem": {"kind": "linear_gaussian", "x_dim": 4, "y_dim": 8}, "seed": 3}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_config(path)
        assert cfg.problem["x_dim"] == 4
        assert cfg.seed == 3

    def test_empty_file_is_missing_problem(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)


class TestProblemFromConfig:
    def test_linear_gaussian(self):
        cfg = validate_config({"problem": {"kind": "linear_gaussian", "x_dim": 4, "y_dim": 6}})
        p = problem_from_config(cfg.problem)
        assert isinstance(p, LinearGaussianProblem)
        assert (p.y_dim, p.x_dim) == (6, 4)

    def test_nonlinear_toy(self):
        cfg = validate_config(
            {"problem": {"kind": "nonlinear_toy", "grid": 8, "observed_rows": 3}}
        )
        p = problem_from_config(cfg.problem)
        assert isinstance(p, NonlinearToyProblem)
        assert p.x_dim == 64
        assert p.y_dim == 24

    def test_same_config_same_operator(self):
        cfg = validate_config(dict(MINIMAL))
        a = problem_from_config(cfg.problem)
        b = problem_from_config(cfg.problem)
        import numpy as np

        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.A, LinearGaussianProblem.replication().A)

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"kind": "nonlinear_toy", "observed_rows": 0}, "observed_rows must be in [1, 16]"),
            ({"kind": "linear_gaussian", "x_dim": 0}, "x_dim and y_dim must be >= 1"),
            ({"kind": "linear_gaussian", "prior_condition": 0.0}, "prior_condition >= 1"),
            ({"kind": "nonlinear_toy", "blur_sigma": 0.0}, "blur_sigma > 0"),
        ],
        ids=["toy_observed_rows", "linear_x_dim", "linear_prior_condition", "toy_blur_sigma"],
    )
    def test_builder_range_errors_are_config_errors(self, block, message):
        cfg = validate_config({"problem": block})
        with pytest.raises(ConfigError, match=r"problem block \(\w+\) is invalid: ") as exc:
            problem_from_config(cfg.problem)
        assert message in str(exc.value)

    def test_train_and_flow_config_extraction(self):
        cfg = validate_config({**MINIMAL, "training": {"lr": 5e-4}, "flow": {"n_blocks": 2}})
        assert cfg.train_config().lr == 5e-4
        assert cfg.flow_config().n_blocks == 2
        assert cfg.flow_config().hidden == (128, 128)
