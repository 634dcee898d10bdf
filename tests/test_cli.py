import json
import shutil
import struct

import numpy as np
import pytest
import yaml

import scoreflow.cli as sf_cli
import scoreflow.metrics as sf_metrics
import scoreflow.pipeline as sf_pipeline
from scoreflow.cli import main
from scoreflow.config import load_config, problem_from_config
from scoreflow.flow import CouplingFlow, FlowConfig, load_checkpoint, save_checkpoint
from scoreflow.metrics import evaluate_testset, sweep_training_size
from scoreflow.metrics import write_records_csv, write_summary_csv, write_sweep_csv
from scoreflow.numerics import Rng
from scoreflow.pipeline import load_pipeline, train_pipeline
from scoreflow.summary import load_dataset

TINY = {
    "problem": {"kind": "linear_gaussian", "x_dim": 2, "y_dim": 4},
    "flow": {"n_blocks": 2, "hidden": [8]},
    "training": {
        "n_train": 12,
        "stages": 1,
        "max_epochs": 3,
        "patience": 3,
        "n_s_train": 4,
        "n_s_infer": 8,
    },
    "eval": {"n_test": 2, "n_samples": 20},
    "sweep": {"sizes": [8, 12]},
    "seed": 0,
}


def write_cfg(tmp_path, extra=None, name="run.yaml"):
    raw = yaml.safe_load(yaml.safe_dump(TINY))
    if extra:
        for k, v in extra.items():
            raw.setdefault(k, {}).update(v) if isinstance(v, dict) else raw.update({k: v})
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        ds = load_dataset((out / "dataset_stage000.bin").read_bytes())
        # the record count, stage and dims come from the dataset header, not the manifest
        assert (ds.stage, ds.n_records, ds.x_true.shape[1], ds.y.shape[1]) == (0, 12, 2, 4)
        manifest = json.loads((out / "dataset_manifest.json").read_text())
        assert manifest == {"config_hash": load_config(cfg).config_hash(), "seed": 0}

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["generate", "--config", str(cfg), "--out", str(out)])
        first = (out / "dataset_stage000.bin").read_bytes()
        main(["generate", "--config", str(cfg), "--out", str(out)])
        assert (out / "dataset_stage000.bin").read_bytes() == first

    def test_dataset_is_the_one_train_builds(self, tmp_path):
        # `generate` and `train` draw stage 0 from the same stream, so the file holds train's stage-0 records
        path = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        got = load_dataset((out / "dataset_stage000.bin").read_bytes())
        cfg = load_config(path)
        _, datasets = train_pipeline(
            problem_from_config(cfg.problem), cfg.training["n_train"], cfg.training["stages"],
            cfg.flow_config(), cfg.train_config(), Rng(cfg.seed),
        )
        want = datasets[0]
        assert (got.stage, got.n_val) == (want.stage, want.n_val) == (0, 1)
        for name in ("x_true", "y", "x_fid", "ybar"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", str(cfg), "--out", str(out1)])
        main(["generate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert (out1 / "dataset_stage000.bin").read_bytes() != (out2 / "dataset_stage000.bin").read_bytes()


class TestTrain:
    def test_writes_bundle_and_losses(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        bundle = out / "bundle"
        assert (bundle / "manifest.json").exists()
        assert (bundle / "flow_000.ckpt").exists()
        assert (bundle / "flow_001.ckpt").exists()
        losses = (out / "training_loss.csv").read_text().splitlines()
        assert losses[0].startswith("# config_hash=")
        assert losses[1] == "stage,epoch,train_loss,val_loss"

    def test_output_directory_does_not_change_outputs(self, tmp_path):
        # the config hash stamped on every artifact leaves `paths` out
        cfg = write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
        names = sorted(f.name for f in (a / "bundle").iterdir())
        assert names == sorted(f.name for f in (b / "bundle").iterdir())
        for name in names:
            assert (a / "bundle" / name).read_bytes() == (b / "bundle" / name).read_bytes()
        assert (a / "training_loss.csv").read_bytes() == (b / "training_loss.csv").read_bytes()

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        first = (out / "bundle" / "flow_001.ckpt").read_bytes()
        main(["train", "--config", str(cfg), "--out", str(out)])
        assert (out / "bundle" / "flow_001.ckpt").read_bytes() == first


class TestDivergence:
    """A run that diverges exits 2 after saving the flows that finished, if any."""

    def _train(self, tmp_path, capsys, extra=None):
        cfg = write_cfg(tmp_path, extra)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("runtime error: ") for line in err) == 1
        return cfg, out, err

    @staticmethod
    def _diverge_at_second_advance(monkeypatch):
        real, calls = sf_pipeline.advance_stage, []

        def diverging(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("non-finite fiducial update for records [0]")
            return real(*args, **kwargs)

        monkeypatch.setattr(sf_pipeline, "advance_stage", diverging)

    def test_partial_bundle_after_advance_diverges(self, tmp_path, capsys, monkeypatch):
        self._diverge_at_second_advance(monkeypatch)
        cfg, out, err = self._train(tmp_path, capsys, {"training": {"stages": 2}})
        bundle = out / "bundle"
        assert err[-2] == f"partial bundle with 2 flows saved to {bundle}"
        assert err[-1] == (
            "runtime error: fiducial advancement diverged after stage 1: non-finite fiducial update for records [0]"
        )
        assert sorted(f.name for f in bundle.iterdir()) == ["flow_000.ckpt", "flow_001.ckpt", "manifest.json"]
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(4, dtype=float))
        rc = main([
            "infer", "--config", str(cfg), "--bundle", str(bundle), "--y", str(ypath), "--out", str(tmp_path / "inf"),
        ])
        assert rc == 0
        traj = np.loadtxt(tmp_path / "inf" / "trajectory.csv", delimiter=",", skiprows=2)
        assert traj[:, 0].tolist() == [0, 1]

    def test_partial_bundle_is_the_full_runs_first_flows(self, tmp_path, capsys, monkeypatch):
        full = tmp_path / "full" / "bundle"
        assert main(["train", "--config", str(write_cfg(tmp_path, {"training": {"stages": 2}})),
                     "--out", str(full.parent)]) == 0
        self._diverge_at_second_advance(monkeypatch)
        _, out, _ = self._train(tmp_path, capsys, {"training": {"stages": 2}})
        partial = out / "bundle"
        want, got = (json.loads((b / "manifest.json").read_text()) for b in (full, partial))
        assert (want.pop("n_flows"), got.pop("n_flows")) == (3, 2)
        assert got == want
        for name in ("flow_000.ckpt", "flow_001.ckpt"):
            assert (partial / name).read_bytes() == (full / name).read_bytes()

    def test_no_bundle_when_stage_0_diverges(self, tmp_path, capsys, monkeypatch):
        def diverging(*args, **kwargs):
            raise FloatingPointError("non-finite flow training loss")

        monkeypatch.setattr(sf_pipeline, "train_flow", diverging)
        _, out, err = self._train(tmp_path, capsys)
        assert err[-1] == "runtime error: flow training diverged at stage 0: non-finite flow training loss"
        assert not any(line.startswith("partial bundle") for line in err)
        assert list(out.iterdir()) == []


class TestInferAndEvaluate:
    def _trained(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        return cfg, out / "bundle"

    def test_infer_outputs(self, tmp_path):
        cfg, bundle = self._trained(tmp_path)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(4, dtype=float))
        out = tmp_path / "inf"
        rc = main([
            "infer", "--config", str(cfg), "--bundle", str(bundle),
            "--y", str(ypath), "--n-samples", "30", "--out", str(out),
        ])
        assert rc == 0
        samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        assert samples.shape == (30, 2)
        mean = np.loadtxt(out / "mean.csv", delimiter=",", skiprows=1)
        assert np.allclose(mean, samples.mean(axis=0), atol=1e-12)
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert len(traj) == 2 + 2  # comment + header + stages 0..1

    def test_non_finite_fiducial_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        cfg, bundle = self._trained(tmp_path)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(4, dtype=float))
        monkeypatch.setattr(CouplingFlow, "sample", lambda flow, ybar, n, rng: np.full((n, 2), np.nan))
        capsys.readouterr()
        rc = main(["infer", "--config", str(cfg), "--bundle", str(bundle), "--y", str(ypath),
                   "--out", str(tmp_path / "inf")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error" in line] == [
            "runtime error: non-finite fiducial at inference iteration 0"
        ]

    def test_infer_wrong_observation_length(self, tmp_path):
        cfg, bundle = self._trained(tmp_path)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(5, dtype=float))
        rc = main([
            "infer", "--config", str(cfg), "--bundle", str(bundle),
            "--y", str(ypath), "--out", str(tmp_path / "inf"),
        ])
        assert rc == 1

    def test_evaluate_outputs(self, tmp_path):
        cfg, bundle = self._trained(tmp_path)
        out = tmp_path / "ev"
        rc = main(["evaluate", "--config", str(cfg), "--bundle", str(bundle), "--out", str(out)])
        assert rc == 0
        records = (out / "metrics_records.csv").read_text().splitlines()
        assert len(records) == 2 + 2 * 2  # comment + header + 2 obs x 2 stages
        assert (out / "metrics_summary.csv").exists()

    def test_evaluate_mismatched_problem(self, tmp_path):
        cfg, bundle = self._trained(tmp_path)
        other = yaml.safe_load((tmp_path / "run.yaml").read_text())
        other["problem"]["x_dim"] = 3
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(other))
        rc = main(["evaluate", "--config", str(bad), "--bundle", str(bundle), "--out", str(tmp_path / "ev")])
        assert rc == 1

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    def test_refuses_config_of_another_problem(self, tmp_path, capsys, command):
        # same dims, another forward matrix: the bundle's problem is the only one these commands use
        _, bundle = self._trained(tmp_path)
        other = write_cfg(tmp_path, {"problem": {"seed": 7}}, name="other.yaml")
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(4, dtype=float))
        out = tmp_path / "o"
        argv = [command, "--config", str(other), "--bundle", str(bundle), "--out", str(out)]
        if command == "infer":
            argv += ["--y", str(ypath)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: bundle {bundle} was trained on another problem: "
            "problem.seed is 2024 in the bundle and 7 in the config"
        ]
        assert not out.exists()

    def test_refusal_names_every_differing_key(self, tmp_path, capsys):
        _, bundle = self._trained(tmp_path)
        other = write_cfg(tmp_path, {"problem": {"seed": 7, "noise_std": 0.2}}, name="other.yaml")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(other), "--bundle", str(bundle), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith(
            "problem.noise_std is 0.1 in the bundle and 0.2 in the config; "
            "problem.seed is 2024 in the bundle and 7 in the config"
        )


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "none.yaml")]) == 1

    def test_invalid_config_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"problem": {"kind": "linear_gaussian", "oops": 1}}))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_missing_bundle(self, tmp_path):
        cfg = write_cfg(tmp_path)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.zeros(4))
        rc = main([
            "infer", "--config", str(cfg), "--bundle", str(tmp_path / "nope"),
            "--y", str(ypath), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1


@pytest.fixture(scope="module")
def trained_bundle(tmp_path_factory):
    """A bundle trained on TINY, for tests to copy and break."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", str(write_cfg(root)), "--out", str(root / "out")]) == 0
    return root / "out" / "bundle"


def _missing_checkpoint(bundle):
    (bundle / "flow_001.ckpt").unlink()


def _dims_disagree(bundle):
    edit_manifest(bundle, lambda m: m["problem"].update(x_dim=3))


def _forged_header(bundle):
    # a header claiming 60000 blocks of 60000 one-wide layers, padded to 720 KB
    header = b"SFLOWCKP" + struct.pack("<IIIIId", 2, 2, 2, 60000, 60000, 2.0) + struct.pack("<60000I", *[1] * 60000)
    (bundle / "flow_000.ckpt").write_bytes(header + bytes(720_000 - len(header)))


def _drop_seed(bundle):
    edit_manifest(bundle, lambda m: m.pop("seed"))


def _drop_config_hash(bundle):
    edit_manifest(bundle, lambda m: m.pop("config_hash"))


class TestBadBundles:
    """A bundle that cannot be read is a malformed input: exit 1, one `error:` line, no output directory."""

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    @pytest.mark.parametrize(
        "make, message",
        [
            (None, "no manifest.json in bundle {bundle}"),
            ("file", "no manifest.json in bundle {bundle}"),
            (_missing_checkpoint, "missing checkpoint flow_001.ckpt in bundle"),
            (_dims_disagree, "bundle {bundle} was trained on another problem: "
                             "problem.x_dim is 3 in the bundle and 2 in the config"),
            (_forged_header, "checkpoint truncated"),
            (_drop_seed, "bundle manifest {bundle}/manifest.json lacks a valid seed"),
            (_drop_config_hash, "bundle manifest {bundle}/manifest.json lacks a valid config_hash"),
        ],
        ids=["missing_directory", "file", "missing_checkpoint", "dims_disagree", "forged_header", "no_seed",
             "no_config_hash"],
    )
    def test_exits_1(self, tmp_path, capsys, trained_bundle, command, make, message):
        bundle = tmp_path / "bundle"
        if make == "file":
            bundle.write_text("not a bundle\n")
        elif make is not None:
            shutil.copytree(trained_bundle, bundle)
            make(bundle)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(4, dtype=float))
        out = tmp_path / "o"
        argv = [command, "--config", str(write_cfg(tmp_path)), "--bundle", str(bundle), "--out", str(out)]
        if command == "infer":
            argv += ["--y", str(ypath)]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(bundle=bundle)]
        assert not out.exists()


    @staticmethod
    def _argv(tmp_path, command, bundle, config):
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.arange(4, dtype=float))
        argv = [command, "--config", str(config), "--bundle", str(bundle), "--out", str(tmp_path / "o")]
        return argv + ["--y", str(ypath)] if command == "infer" else argv

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    @pytest.mark.parametrize(
        "block, key, value, message",
        [
            ("problem", "y_dim", 400_000_000,
             "was trained on another problem: problem.y_dim is 400000000 in the bundle and 4 in the config"),
            ("train_config", "n_s_infer", 10**10,
             "was trained on another schedule: training.n_s_infer is 10000000000 in the bundle and 8 in the config"),
        ],
        ids=["huge_y_dim", "huge_n_s_infer"],
    )
    def test_huge_manifest_refused_before_anything_is_built(self, tmp_path, capsys, monkeypatch, trained_bundle,
                                                            command, block, key, value, message):
        # the manifest is compared with the config before the problem, a flow or a draw is made from it
        def no_work(*args, **kwargs):
            raise AssertionError("built from the manifest before it was compared with the config")

        bundle = tmp_path / "bundle"
        shutil.copytree(trained_bundle, bundle)
        edit_manifest(bundle, lambda m: m[block].update({key: value}))
        for owner, name in ((sf_pipeline, "problem_from_config"), (sf_pipeline, "load_checkpoint"),
                            (CouplingFlow, "sample")):
            monkeypatch.setattr(owner, name, no_work)
        capsys.readouterr()
        assert main(self._argv(tmp_path, command, bundle, write_cfg(tmp_path))) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: bundle {bundle} {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["infer", "evaluate"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"training": {"max_epochs": 4}},
             "bundle {bundle} was trained on another schedule: "
             "training.max_epochs is 3 in the bundle and 4 in the config"),
            ({"flow": {"hidden": [16], "s_max": 1.5}},
             "checkpoint flow_000.ckpt of bundle {bundle} holds another flow: flow.hidden is (8,) in the bundle and "
             "(16,) in the config; flow.s_max is 2.0 in the bundle and 1.5 in the config"),
        ],
        ids=["max_epochs", "hidden_and_s_max"],
    )
    def test_refuses_config_of_another_flow_or_schedule(self, tmp_path, capsys, trained_bundle, command, extra,
                                                         message):
        capsys.readouterr()
        assert main(self._argv(tmp_path, command, trained_bundle, write_cfg(tmp_path, extra))) == 1
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(bundle=trained_bundle)]
        assert not (tmp_path / "o").exists()

    def test_training_size_and_stages_are_not_checked(self, tmp_path, trained_bundle):
        # a bundle does not record them: a partial bundle has fewer flows than the config's stages ask for
        config = write_cfg(tmp_path, {"training": {"n_train": 20, "stages": 3}})
        assert main(self._argv(tmp_path, "infer", trained_bundle, config)) == 0


def edit_manifest(bundle, change):
    manifest = json.loads((bundle / "manifest.json").read_text())
    change(manifest)
    (bundle / "manifest.json").write_text(json.dumps(manifest))


class TestBadInputs:
    """Each malformed input ends in exit code 1 and one `error:` line."""

    def _infer(self, tmp_path, capsys, y=(0.0, 1.0, 2.0, 3.0), corrupt=None):
        cfg = write_cfg(tmp_path)
        bundle = tmp_path / "out" / "bundle"
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        if corrupt:
            corrupt(bundle)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.asarray(y))
        capsys.readouterr()
        return self._one_error_line(capsys, [
            "infer", "--config", str(cfg), "--bundle", str(bundle),
            "--y", str(ypath), "--out", str(tmp_path / "inf"),
        ])

    @staticmethod
    def _one_error_line(capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    def test_corrupt_manifest(self, tmp_path, capsys):
        def corrupt(bundle):
            (bundle / "manifest.json").write_text('{"format_version": 1,')

        assert "manifest" in self._infer(tmp_path, capsys, corrupt=corrupt)

    def test_manifest_not_an_object(self, tmp_path, capsys):
        def corrupt(bundle):
            (bundle / "manifest.json").write_text("[1, 2]")

        assert self._infer(tmp_path, capsys, corrupt=corrupt).endswith("is not a JSON object")

    @pytest.mark.parametrize(
        "key, value",
        [(k, "absent") for k in ("problem", "n_flows", "train_config")]
        + [("n_flows", 0), ("train_config", [])]
        + [("seed", "absent"), ("config_hash", "absent"), ("seed", -1), ("seed", True), ("config_hash", 5)],
    )
    def test_manifest_lacks_key(self, tmp_path, capsys, key, value):
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: m.pop(key) if value == "absent" else m.update({key: value}))

        assert self._infer(tmp_path, capsys, corrupt=corrupt).endswith(f"lacks a valid {key}")

    def test_manifest_problem_lacks_builder_key(self, tmp_path, capsys):
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: m["problem"].pop("y_dim"))

        assert "y_dim" in self._infer(tmp_path, capsys, corrupt=corrupt)

    def test_train_config_lacks_keys(self, tmp_path, capsys):
        # a missing key is not filled with its default: n_s_infer sets how many draws each update averages
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: [m["train_config"].pop(k) for k in ("n_s_infer", "lr")])

        line = self._infer(tmp_path, capsys, corrupt=corrupt)
        assert line.endswith(": train_config block lacks keys ['lr', 'n_s_infer']")
        assert not (tmp_path / "inf").exists()

    def test_unknown_train_config_key(self, tmp_path, capsys):
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: m["train_config"].update(lr_patience=10))

        assert "lr_patience" in self._infer(tmp_path, capsys, corrupt=corrupt)

    def test_mistyped_train_config_value(self, tmp_path, capsys):
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: m["train_config"].update(lr="fast"))

        assert "train_config.lr" in self._infer(tmp_path, capsys, corrupt=corrupt)

    def test_out_of_range_train_config_value(self, tmp_path, capsys):
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: m["train_config"].update(n_s_infer=0))

        assert "train_config.n_s_infer must be >= 1" in self._infer(tmp_path, capsys, corrupt=corrupt)

    @pytest.mark.parametrize("content", [b"a: [\n", b"\xff\xfe\x00problem"], ids=["malformed_yaml", "not_utf8"])
    def test_unreadable_config(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        line = self._one_error_line(capsys, ["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert line.startswith(f"error: cannot read config {path}: ")

    @pytest.mark.filterwarnings("error")
    def test_empty_observation_file(self, tmp_path, capsys):
        # np.loadtxt warns on an empty file; the one line is the shape error
        line = self._infer(tmp_path, capsys, y=())
        assert line == f"error: observation in {tmp_path / 'y.txt'} has 0 entries, expected 4"
        assert not (tmp_path / "inf").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation(self, tmp_path, capsys, bad):
        assert "non-finite" in self._infer(tmp_path, capsys, y=(0.0, bad, 2.0, 3.0))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("x_scale", 0.0, "checkpoint normalization: normalization scales must be positive"),
            ("x_mean", np.nan, "checkpoint normalization: x_mean must be finite"),
            ("x_mean", np.inf, "checkpoint normalization: x_mean must be finite"),
            ("x_scale", np.nan, "checkpoint normalization: x_scale must be finite"),
            ("x_scale", np.inf, "checkpoint normalization: x_scale must be finite"),
            ("params", np.nan, "checkpoint parameters must be finite"),
            ("params", -np.inf, "checkpoint parameters must be finite"),
        ],
        ids=["x_scale_zero", "x_mean_nan", "x_mean_inf", "x_scale_nan", "x_scale_inf", "params_nan", "params_inf"],
    )
    def test_malformed_checkpoint_values(self, tmp_path, capsys, name, value, message):
        def corrupt(bundle):
            flow = load_checkpoint((bundle / "flow_001.ckpt").read_bytes())
            getattr(flow, name)[0] = value
            (bundle / "flow_001.ckpt").write_bytes(save_checkpoint(flow))

        assert self._infer(tmp_path, capsys, corrupt=corrupt) == "error: " + message
        assert not (tmp_path / "inf").exists()

    def test_swapped_checkpoint_of_other_dims(self, tmp_path, capsys):
        def corrupt(bundle):
            (bundle / "flow_001.ckpt").write_bytes(save_checkpoint(CouplingFlow(3, 3, FlowConfig(2, (8,)))))

        line = self._infer(tmp_path, capsys, corrupt=corrupt)
        assert line == "error: checkpoint flow_001.ckpt has (x_dim, cond_dim) (3, 3), the problem needs (2, 2)"
        assert not (tmp_path / "inf").exists()

    def test_unsupported_bundle_format(self, tmp_path, capsys):
        def corrupt(bundle):
            edit_manifest(bundle, lambda m: m.update(format_version=7))

        assert self._infer(tmp_path, capsys, corrupt=corrupt) == "error: unsupported bundle format 7, expected 1"

    def test_version_1_checkpoint(self, tmp_path, capsys):
        def corrupt(bundle):
            blob = (bundle / "flow_000.ckpt").read_bytes()
            header = 8 + 5 * 4 + 8 + 4 * 1  # magic, u32 header, s_max, one hidden width
            masks = bytes([1, 0, 0, 1])  # version 1's kept-half masks of the two blocks
            v1 = blob[:8] + (1).to_bytes(4, "little") + blob[12:header] + masks + blob[header:]
            (bundle / "flow_000.ckpt").write_bytes(v1)

        line = self._infer(tmp_path, capsys, corrupt=corrupt)
        assert line == "error: unsupported checkpoint version 1, expected 2"

    @pytest.mark.parametrize("n", [0, -5])
    def test_non_positive_sample_count(self, tmp_path, capsys, n):
        # refused before the bundle is read: this bundle does not exist (another error line if it were read)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.zeros(4))
        line = self._one_error_line(capsys, [
            "infer", "--config", str(write_cfg(tmp_path)), "--bundle", str(tmp_path / "nope"),
            "--y", str(ypath), "--out", str(tmp_path / "inf"), "--n-samples", str(n),
        ])
        assert "--n-samples" in line

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize(
        "problem, message",
        [
            ({"kind": "nonlinear_toy", "observed_rows": 0}, "observed_rows must be in [1, 16]"),
            ({"kind": "linear_gaussian", "x_dim": 0}, "x_dim and y_dim must be >= 1"),
            ({"kind": "nonlinear_toy", "blob_scale": -0.8}, "need blob_scale >= 0 and blob_smoothness >= 0, got -0.8"),
            ({"kind": "nonlinear_toy", "blob_smoothness": -2.0},
             "need blob_scale >= 0 and blob_smoothness >= 0, got 0.8 and -2.0"),
        ],
        ids=["toy_observed_rows", "linear_x_dim", "toy_blob_scale", "toy_blob_smoothness"],
    )
    def test_out_of_range_problem_value(self, tmp_path, capsys, command, problem, message):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"problem": problem}))
        line = self._one_error_line(capsys, [command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert "problem block" in line and message in line

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("kind", ["linear_gaussian", "nonlinear_toy"])
    @pytest.mark.parametrize("noise_std", [1.0e200, 1.0e-160])
    def test_noise_std_without_a_normal_square(self, tmp_path, capsys, command, kind, noise_std):
        # its square overflows to inf (an OverflowError traceback) or underflows to a subnormal (scores overflow,
        # with numpy warnings on stderr, which fail the suite): refused with one line before any work
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"problem": {"kind": kind, "noise_std": noise_std},
                                        "training": {"n_train": 12, "stages": 0, "max_epochs": 1}}))
        out = tmp_path / "o"
        line = self._one_error_line(capsys, [command, "--config", str(path), "--out", str(out)])
        assert line == f"error: problem block ({kind}) is invalid: noise_std must have a finite, normal square, " \
                       f"got {noise_std}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flow, message",
        [({"hidden": [-5]}, "flow.hidden"), ({"hidden": [0]}, "flow.hidden"),
         ({"s_max": -1.0}, "flow.s_max"), ({"s_max": 0.0}, "flow.s_max")],
        ids=["hidden_negative", "hidden_zero", "s_max_negative", "s_max_zero"],
    )
    def test_out_of_range_flow_value(self, tmp_path, capsys, flow, message):
        out = tmp_path / "out"
        line = self._one_error_line(capsys, ["train", "--config", str(write_cfg(tmp_path, {"flow": flow})),
                                             "--out", str(out)])
        assert message in line
        assert not (out / "bundle").exists()

    @pytest.mark.parametrize("route", ["config", "flag"])
    @pytest.mark.parametrize("command", ["generate", "train", "infer"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, route, command):
        # refused before any work: no problem is built, no bundle read, no output directory made
        def no_work(*args):
            raise AssertionError("work started before the seed was checked")

        monkeypatch.setattr(sf_cli, "problem_from_config", no_work)
        monkeypatch.setattr(sf_cli, "load_pipeline", no_work)
        out = tmp_path / "o"
        argv = [command, "--config", str(write_cfg(tmp_path, {"seed": -1} if route == "config" else None)),
                "--out", str(out)]
        if route == "flag":
            argv += ["--seed", "-1"]
        if command == "infer":
            argv += ["--bundle", str(tmp_path / "nope"), "--y", str(tmp_path / "y.txt")]
        line = self._one_error_line(capsys, argv)
        assert line == f"error: {'seed' if route == 'config' else '--seed'} must be >= 0, got -1"
        assert not out.exists()

    def test_negative_weight_decay(self, tmp_path, capsys):
        out = tmp_path / "out"
        line = self._one_error_line(capsys, ["train", "--config", str(write_cfg(tmp_path, {"training": {
            "weight_decay": -1.0}})), "--out", str(out)])
        assert line == "error: training.weight_decay must be >= 0, got -1.0"
        assert not out.exists()


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 2 + 2 * 2  # comment + header + 2 sizes x 2 stages
        assert (out / "sweep_summary_n8.csv").exists()
        assert (out / "sweep_summary_n12.csv").exists()


class TestEvalBlock:
    """`evaluate` and `sweep` hand every key of the config's `eval` block to the library."""

    EVAL = {"n_test": 3, "n_samples": 30, "psnr_range": 3.0}  # none is TINY's value or the default

    def test_outputs_equal_direct_calls(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"eval": self.EVAL})
        cfg = load_config(cfg_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--bundle", str(out / "bundle"), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0

        direct = tmp_path / "direct"
        direct.mkdir()
        problem = problem_from_config(cfg.problem)
        report = evaluate_testset(load_pipeline(out / "bundle"), problem, 3, Rng(0).child(0),
                                  n_samples=30, psnr_range=3.0)
        write_records_csv(report, direct / "metrics_records.csv", cfg.config_hash())
        write_summary_csv(report, direct / "metrics_summary.csv", cfg.config_hash())
        results = sweep_training_size(problem, [8, 12], 1, cfg.flow_config(), cfg.train_config(), Rng(0),
                                      n_test=3, n_samples=30, psnr_range=3.0)
        write_sweep_csv(results, direct / "sweep.csv", cfg.config_hash())
        for n_train, sized in results.items():
            write_summary_csv(sized, direct / f"sweep_summary_n{n_train}.csv", cfg.config_hash())

        names = sorted(p.name for p in direct.iterdir())
        assert len(names) == 5
        for name in names:
            assert (out / name).read_text() == (direct / name).read_text(), name


class TestImageSmallerThanSsimWindow:
    """A toy grid narrower than the SSIM window trains, but evaluate and sweep refuse it before any work."""

    @staticmethod
    def _cfg(tmp_path):
        raw = {**TINY, "problem": {"kind": "nonlinear_toy", "grid": 8, "observed_rows": 3}}
        path = tmp_path / "toy8.yaml"
        path.write_text(yaml.safe_dump(raw))
        return path

    @staticmethod
    def _one_error_line(capsys, argv):
        capsys.readouterr()
        assert "ssim window 11" in TestBadInputs._one_error_line(capsys, argv)

    def test_train_succeeds_and_evaluate_refuses(self, tmp_path, capsys, monkeypatch):
        cfg, out = self._cfg(tmp_path), tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        calls = []
        monkeypatch.setattr(sf_metrics, "intermediate_trajectory", lambda *a, **k: calls.append(a))
        self._one_error_line(capsys, ["evaluate", "--config", str(cfg), "--bundle", str(out / "bundle"),
                                      "--out", str(tmp_path / "ev")])
        assert calls == []

    def test_sweep_refuses_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(sf_metrics, "train_pipeline", lambda *a, **k: calls.append(a))
        self._one_error_line(capsys, ["sweep", "--config", str(self._cfg(tmp_path)), "--out", str(tmp_path / "sw")])
        assert calls == []
