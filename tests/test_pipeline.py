import json
import os

import numpy as np
import pytest

import scoreflow.pipeline as sf_pipeline
from scoreflow.config import problem_from_config, validate_config
from scoreflow.flow import CheckpointError, CouplingFlow, save_checkpoint
from scoreflow.numerics import Rng, ShapeError, SpdMatrix
from scoreflow.pipeline import (
    FlowConfig,
    PipelineError,
    PosteriorEnsemble,
    TrainConfig,
    TrainedPipeline,
    infer,
    intermediate_trajectory,
    load_pipeline,
    save_pipeline,
    train_pipeline,
)
from scoreflow.problems import LinearGaussianProblem


def tiny_problem(seed=1, x_dim=2, y_dim=4):
    rng = Rng(seed)
    A = rng.standard_normal((y_dim, x_dim))
    return LinearGaussianProblem(
        A, np.zeros(x_dim), SpdMatrix.identity(x_dim), SpdMatrix.diagonal(np.full(y_dim, 0.25))
    )


FAST_FLOW = FlowConfig(n_blocks=2, hidden=(8,))
FAST_TRAIN = TrainConfig(max_epochs=3, patience=3, n_s_train=4, n_s_infer=8)
# a problem that a saved bundle can name: built from a complete config block
TINY_BLOCK = validate_config({"problem": {"kind": "linear_gaussian", "x_dim": 2, "y_dim": 4}}).problem


class TestPosteriorEnsemble:
    def test_moments_match_numpy(self):
        rng = Rng(2)
        samples = rng.standard_normal((500, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1.0, 0.0, -1.0]
        ens = PosteriorEnsemble.from_samples(samples)
        assert np.allclose(ens.mean, samples.mean(axis=0), atol=0)
        # unbiased estimator, cross-checked against numpy's
        assert np.abs(ens.cov - np.cov(samples.T)).max() < 1e-10
        assert np.allclose(ens.std, np.sqrt(np.diag(ens.cov)), atol=0)

    def test_single_sample(self):
        ens = PosteriorEnsemble.from_samples(np.array([[1.0, 2.0]]))
        assert np.array_equal(ens.mean, [1.0, 2.0])
        assert np.abs(ens.cov).max() == 0.0


class TestTrainPipeline:
    def test_flow_count_is_stages_plus_one(self):
        p = tiny_problem()
        for L in (0, 1, 2):
            pipe, dss = train_pipeline(p, 12, L, FAST_FLOW, FAST_TRAIN, Rng(3))
            assert len(pipe.flows) == L + 1
            assert pipe.n_stages == L
            assert len(dss) == L + 1
            assert [ds.stage for ds in dss] == list(range(L + 1))

    def test_single_record_smoke(self):
        p = tiny_problem()
        cfg = TrainConfig(max_epochs=2, patience=2, n_s_train=2, val_fraction=0.0)
        pipe, _ = train_pipeline(p, 1, 1, FAST_FLOW, cfg, Rng(4))
        assert len(pipe.flows) == 2

    def test_bitwise_determinism(self):
        p = tiny_problem()
        a, _ = train_pipeline(p, 12, 1, FAST_FLOW, FAST_TRAIN, Rng(5))
        b, _ = train_pipeline(p, 12, 1, FAST_FLOW, FAST_TRAIN, Rng(5))
        for fa, fb in zip(a.flows, b.flows):
            assert np.array_equal(fa.params, fb.params)

    def test_checkpoints_do_not_depend_on_cpu_count(self, monkeypatch):
        p = tiny_problem()
        blobs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            pipe, _ = train_pipeline(p, 12, 2, FAST_FLOW, FAST_TRAIN, Rng(5))
            blobs.append([save_checkpoint(flow) for flow in pipe.flows])
        assert blobs[0] == blobs[1]

    def test_histories_recorded(self):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 12, 1, FAST_FLOW, FAST_TRAIN, Rng(6))
        assert len(pipe.stage_histories) == 2
        for hist in pipe.stage_histories:
            assert 1 <= len(hist) <= FAST_TRAIN.max_epochs
            assert all(np.isfinite(v) for _, tr, v in hist for v in (tr, v))

    def test_progress_reports_each_stages_outcome(self):
        # epochs run, the best epoch and its validation NLL, read from each stage's history
        lines = []
        pipe, _ = train_pipeline(tiny_problem(), 40, 2, FAST_FLOW,
                                 TrainConfig(max_epochs=30, patience=4, n_s_train=4), Rng(6), progress=lines.append)
        outcomes = [line for line in lines if "trained" in line]
        assert len(outcomes) == 3
        for j, (line, hist) in enumerate(zip(outcomes, pipe.stage_histories)):
            vals = sorted(v for _, _, v in hist)
            assert all(b - a > 1e-6 for a, b in zip(vals, vals[1:]))  # so the kept epoch is the argmin
            kept = min(range(len(hist)), key=lambda i: hist[i][2])
            assert line == (f"stage {j}/2: trained {len(hist)} epochs, best epoch {hist[kept][0]} "
                            f"with validation NLL {hist[kept][2]:.6g}")
        assert any(len(hist) < 30 for hist in pipe.stage_histories)  # early stopping showed

    def test_failed_run_carries_its_finished_pipeline(self, monkeypatch):
        p = tiny_problem()
        full, _ = train_pipeline(p, 12, 2, FAST_FLOW, FAST_TRAIN, Rng(6))
        real, calls = sf_pipeline.train_flow, []

        def diverging_at_stage_1(*args):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("non-finite flow training loss")
            return real(*args)

        monkeypatch.setattr(sf_pipeline, "train_flow", diverging_at_stage_1)
        with pytest.raises(PipelineError, match="flow training diverged at stage 1") as info:
            train_pipeline(p, 12, 2, FAST_FLOW, FAST_TRAIN, Rng(6))
        partial = info.value.pipeline
        assert partial.problem is p and (partial.seed, partial.train_config) == (6, FAST_TRAIN)
        assert partial.stage_histories == full.stage_histories[:1]
        assert [save_checkpoint(f) for f in partial.flows] == [save_checkpoint(full.flows[0])]

    def test_non_finite_scores_are_a_divergence(self):
        # the normalization fitted to them is refused as non-finite; a run reports that as it reports divergence
        p = tiny_problem()
        p.score = lambda x0, y: np.full(p.x_dim, np.nan)
        with pytest.raises(PipelineError, match="flow training diverged at stage 0") as info:
            train_pipeline(p, 12, 1, FAST_FLOW, FAST_TRAIN, Rng(6))
        assert info.value.pipeline.flows == []

    def test_rejects_negative_stages(self):
        with pytest.raises(ValueError):
            train_pipeline(tiny_problem(), 4, -1, FAST_FLOW, FAST_TRAIN, Rng(7))


class TestInference:
    def _pipe(self, L=2, seed=8):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 20, L, FAST_FLOW, FAST_TRAIN, Rng(seed))
        return p, pipe

    def test_trajectory_layout(self):
        p, pipe = self._pipe(L=2)
        y = Rng(9).standard_normal(p.y_dim)
        traj = intermediate_trajectory(pipe, y, Rng(10))
        assert len(traj) == 3
        x0, ybar0 = traj[0]
        assert np.array_equal(x0, p.default_fiducial())
        assert np.array_equal(ybar0, p.score(x0, y))
        for x, ybar in traj:
            assert np.array_equal(ybar, p.score(x, y))

    def test_zero_stage_trajectory_is_start_only(self):
        p, pipe = self._pipe(L=0)
        y = Rng(11).standard_normal(p.y_dim)
        traj = intermediate_trajectory(pipe, y, Rng(12))
        assert len(traj) == 1
        assert np.array_equal(traj[0][0], p.default_fiducial())

    @pytest.mark.parametrize("L", [0, 2])
    def test_trajectory_wrong_y_length(self, L, monkeypatch):
        # the problem's score refuses y before any flow draws
        p, pipe = self._pipe(L=L)

        def no_draws(*args):
            raise AssertionError("flow sampled before y was checked")

        monkeypatch.setattr(CouplingFlow, "sample", no_draws)
        with pytest.raises(ShapeError, match=rf"y must have shape \({p.y_dim},\), got \({p.y_dim + 1},\)"):
            intermediate_trajectory(pipe, np.zeros(p.y_dim + 1), Rng(12))

    def test_non_finite_fiducial(self, monkeypatch):
        p, pipe = self._pipe(L=2)
        monkeypatch.setattr(CouplingFlow, "sample", lambda flow, ybar, n, rng: np.full((n, p.x_dim), np.nan))
        with pytest.raises(FloatingPointError, match="non-finite fiducial at inference iteration 0"):
            intermediate_trajectory(pipe, np.zeros(p.y_dim), Rng(12))

    def test_infer_final_state_matches_trajectory(self):
        p, pipe = self._pipe(L=2)
        y = Rng(13).standard_normal(p.y_dim)
        traj = intermediate_trajectory(pipe, y, Rng(14))
        ens = infer(pipe, y, 50, Rng(14))
        assert np.array_equal(ens.trajectory[-1][0], traj[-1][0])

    def test_infer_returns_its_trajectory(self):
        p, pipe = self._pipe(L=2)
        y = Rng(13).standard_normal(p.y_dim)
        traj = intermediate_trajectory(pipe, y, Rng(14))
        ens = infer(pipe, y, 50, Rng(14))
        assert len(ens.trajectory) == len(traj) == 3
        for (x, ybar), (x_ref, ybar_ref) in zip(ens.trajectory, traj):
            assert np.array_equal(x, x_ref) and np.array_equal(ybar, ybar_ref)

    def test_infer_determinism(self):
        p, pipe = self._pipe()
        y = Rng(15).standard_normal(p.y_dim)
        a = infer(pipe, y, 30, Rng(16))
        b = infer(pipe, y, 30, Rng(16))
        assert np.array_equal(a.samples, b.samples)

    def test_samples_offset_by_fiducial(self):
        # ensemble samples are the final fiducial plus flow draws, so the
        # two covariance computations agree exactly
        p, pipe = self._pipe()
        y = Rng(17).standard_normal(p.y_dim)
        ens = infer(pipe, y, 200, Rng(18))
        deltas = ens.samples - ens.trajectory[-1][0]
        direct = np.cov(deltas.T)
        assert np.abs(ens.cov - direct).max() <= 1e-10

    def test_infer_shape_checks(self):
        p, pipe = self._pipe()
        with pytest.raises(ShapeError):
            infer(pipe, np.zeros(p.y_dim + 1), 10, Rng(19))
        with pytest.raises(ValueError):
            infer(pipe, np.zeros(p.y_dim), 0, Rng(19))


def bundled_problem():
    return problem_from_config(TINY_BLOCK)


class TestBundle:
    def test_roundtrip(self, tmp_path):
        # the pipeline as train_pipeline returns it, with nothing stamped on it
        p = bundled_problem()
        pipe, _ = train_pipeline(p, 12, 1, FAST_FLOW, FAST_TRAIN, Rng(20))
        save_pipeline(pipe, tmp_path / "bundle")
        loaded = load_pipeline(tmp_path / "bundle")
        assert loaded.n_stages == 1
        assert (loaded.seed, loaded.config_hash, loaded.train_config) == (20, "", FAST_TRAIN)
        assert loaded.problem.config == TINY_BLOCK
        y = Rng(21).standard_normal(p.y_dim)
        a = infer(pipe, y, 25, Rng(22))
        b = infer(loaded, y, 25, Rng(22))
        assert np.array_equal(a.samples, b.samples)

    def test_failed_run_saves_and_loads_back(self, tmp_path, monkeypatch):
        real, calls = sf_pipeline.train_flow, []

        def diverging_at_stage_1(*args):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("non-finite flow training loss")
            return real(*args)

        monkeypatch.setattr(sf_pipeline, "train_flow", diverging_at_stage_1)
        with pytest.raises(PipelineError) as info:
            train_pipeline(bundled_problem(), 12, 2, FAST_FLOW, FAST_TRAIN, Rng(6))
        save_pipeline(info.value.pipeline, tmp_path / "b")
        loaded = load_pipeline(tmp_path / "b")
        assert len(loaded.flows) == 1
        assert save_checkpoint(loaded.flows[0]) == save_checkpoint(info.value.pipeline.flows[0])

    @pytest.mark.parametrize("unloadable", ["no_flows", "problem_built_directly"])
    def test_refuses_what_load_could_not_read(self, tmp_path, unloadable):
        pipe, _ = train_pipeline(bundled_problem(), 12, 0, FAST_FLOW, FAST_TRAIN, Rng(29))
        save_pipeline(pipe, tmp_path / "b")
        before = {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()}
        if unloadable == "no_flows":
            bad, match = TrainedPipeline(pipe.problem, [], seed=29, train_config=FAST_TRAIN), "no flows"
        else:
            bad, match = TrainedPipeline(tiny_problem(), pipe.flows, seed=29, train_config=FAST_TRAIN), "no config"
        for target in (tmp_path / "b", tmp_path / "new" / "b"):
            with pytest.raises(ValueError, match=match):
                save_pipeline(bad, target)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["b"]
        assert {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()} == before

    def test_bundle_files(self, tmp_path):
        p = bundled_problem()
        pipe, _ = train_pipeline(p, 12, 2, FAST_FLOW, FAST_TRAIN, Rng(23))
        save_pipeline(pipe, tmp_path / "b")
        names = sorted(f.name for f in (tmp_path / "b").iterdir())
        assert names == ["flow_000.ckpt", "flow_001.ckpt", "flow_002.ckpt", "manifest.json"]

    def test_manifest_keys(self, tmp_path):
        pipe = TrainedPipeline(bundled_problem(), [CouplingFlow(2, 2, FAST_FLOW)], 3, FAST_TRAIN, config_hash="abc123")
        save_pipeline(pipe, tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert sorted(manifest) == ["config_hash", "format_version", "n_flows", "problem", "seed", "train_config"]
        assert (manifest["problem"], load_pipeline(tmp_path / "b").config_hash) == (TINY_BLOCK, "abc123")

    def test_manifest_with_dims_loads(self, tmp_path):
        # manifests written before the dims were dropped still hold them; the loader ignores them
        pipe, _ = train_pipeline(bundled_problem(), 12, 1, FAST_FLOW, FAST_TRAIN, Rng(20))
        save_pipeline(pipe, tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "x_dim": 2, "y_dim": 4}))
        assert load_pipeline(tmp_path / "b").n_stages == 1

    def test_unsupported_format_version(self, tmp_path):
        pipe = TrainedPipeline(bundled_problem(), [CouplingFlow(2, 2, FAST_FLOW)], seed=3, train_config=FAST_TRAIN)
        save_pipeline(pipe, tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 7}))
        with pytest.raises(CheckpointError, match="unsupported bundle format 7, expected 1"):
            load_pipeline(tmp_path / "b")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_pipeline(tmp_path)

    def test_missing_checkpoint(self, tmp_path):
        pipe, _ = train_pipeline(bundled_problem(), 12, 1, FAST_FLOW, FAST_TRAIN, Rng(24))
        save_pipeline(pipe, tmp_path / "b")
        (tmp_path / "b" / "flow_001.ckpt").unlink()
        with pytest.raises(CheckpointError, match="flow_001"):
            load_pipeline(tmp_path / "b")

    def test_dim_mismatch(self, tmp_path):
        # the problem block's dims are checked against each checkpoint's
        pipe, _ = train_pipeline(bundled_problem(), 12, 0, FAST_FLOW, FAST_TRAIN, Rng(25))
        save_pipeline(pipe, tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["problem"]["x_dim"] = 3
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=r"flow_000\.ckpt .*\(2, 2\).*\(3, 3\)"):
            load_pipeline(tmp_path / "b")

    @pytest.mark.parametrize("x_dim, cond_dim", [(3, 3), (2, 3)])
    def test_swapped_checkpoint_of_other_dims(self, tmp_path, x_dim, cond_dim):
        pipe, _ = train_pipeline(bundled_problem(), 12, 1, FAST_FLOW, FAST_TRAIN, Rng(25))
        save_pipeline(pipe, tmp_path / "b")
        (tmp_path / "b" / "flow_001.ckpt").write_bytes(save_checkpoint(CouplingFlow(x_dim, cond_dim, FAST_FLOW)))
        with pytest.raises(CheckpointError, match=rf"flow_001\.ckpt .*\({x_dim}, {cond_dim}\).*\(2, 2\)"):
            load_pipeline(tmp_path / "b")

    def test_shorter_bundle_replaces_longer_one(self, tmp_path):
        p = bundled_problem()
        long, _ = train_pipeline(p, 12, 3, FAST_FLOW, FAST_TRAIN, Rng(26))
        save_pipeline(long, tmp_path / "b")
        short = TrainedPipeline(problem=p, flows=long.flows[:2], seed=26, train_config=FAST_TRAIN)
        save_pipeline(short, tmp_path / "b")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["b"]
        assert sorted(f.name for f in (tmp_path / "b").iterdir()) == ["flow_000.ckpt", "flow_001.ckpt", "manifest.json"]
        assert load_pipeline(tmp_path / "b").n_stages == 1

    def test_failed_save_keeps_previous_bundle(self, tmp_path, monkeypatch):
        p = bundled_problem()
        pipe, _ = train_pipeline(p, 12, 2, FAST_FLOW, FAST_TRAIN, Rng(27))
        save_pipeline(pipe, tmp_path / "b")
        before = {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()}
        real_save, calls = sf_pipeline.save_checkpoint, []

        def failing_save(flow):
            calls.append(flow)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_save(flow)

        monkeypatch.setattr(sf_pipeline, "save_checkpoint", failing_save)
        other, _ = train_pipeline(p, 12, 2, FAST_FLOW, FAST_TRAIN, Rng(28))
        with pytest.raises(OSError, match="disk full"):
            save_pipeline(other, tmp_path / "b")
        assert len(calls) == 2
        assert sorted(f.name for f in tmp_path.iterdir()) == ["b"]
        assert {f.name: f.read_bytes() for f in (tmp_path / "b").iterdir()} == before
        assert load_pipeline(tmp_path / "b").n_stages == 2
