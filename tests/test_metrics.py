import csv
from dataclasses import astuple

import numpy as np
import pytest
from scipy.signal import convolve2d

import scoreflow.metrics as sf_metrics
from scoreflow.flow import CouplingFlow
from scoreflow.metrics import (
    MetricRecord,
    MetricReport,
    evaluate_testset,
    moment_errors,
    psnr,
    rmse,
    ssim,
    sweep_training_size,
    write_records_csv,
    write_summary_csv,
    write_sweep_csv,
)
from scoreflow.numerics import Rng, ShapeError, SpdMatrix
from scoreflow.pipeline import FlowConfig, PosteriorEnsemble, TrainConfig, intermediate_trajectory, train_pipeline
from scoreflow.problems import AnalyticPosterior, LinearGaussianProblem, NonlinearToyProblem, gaussian_kernel_2d


def tiny_problem(seed=1, x_dim=2, y_dim=4):
    rng = Rng(seed)
    A = rng.standard_normal((y_dim, x_dim))
    return LinearGaussianProblem(
        A, np.zeros(x_dim), SpdMatrix.identity(x_dim), SpdMatrix.diagonal(np.full(y_dim, 0.25))
    )


FAST_FLOW = FlowConfig(n_blocks=2, hidden=(8,))
FAST_TRAIN = TrainConfig(max_epochs=3, patience=3, n_s_train=4, n_s_infer=8)


class TestRmse:
    def test_identical_inputs(self):
        x = Rng(2).standard_normal(10)
        assert rmse(x, x) == 0.0

    def test_constant_offset(self):
        a = np.zeros(5)
        assert abs(rmse(a, a + 3.0) - 3.0) < 1e-14

    def test_direct_formula_oracle(self):
        rng = Rng(3)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        total = 0.0
        for ai, bi in zip(a, b):
            total += (ai - bi) ** 2
        assert abs(rmse(a, b) - np.sqrt(total / 50)) < 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rmse(np.zeros(3), np.zeros(4))


class TestPsnr:
    def test_identical_is_infinite(self):
        assert psnr(np.ones(4), np.ones(4), 2.0) == float("inf")

    def test_closed_form(self):
        # rmse 0.2 with range 2.0: 20*log10(2/0.2) = 20 dB
        a = np.zeros(4)
        b = np.full(4, 0.2)
        assert abs(psnr(a, b, 2.0) - 20.0) < 1e-10

    def test_doubling_error_costs_six_db(self):
        a = np.zeros(8)
        p1 = psnr(a, a + 0.1, 2.0)
        p2 = psnr(a, a + 0.2, 2.0)
        assert abs((p1 - p2) - 20.0 * np.log10(2.0)) < 1e-10

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(2), np.zeros(2), 0.0)


def reference_ssim(a, b, data_range, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Direct per-window SSIM with explicit loops (independent oracle)."""
    from scoreflow.problems import gaussian_kernel_2d

    kern = gaussian_kernel_2d(window, sigma)
    h = window // 2
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    vals = []
    for i in range(h, a.shape[0] - h):
        for j in range(h, a.shape[1] - h):
            wa = a[i - h : i + h + 1, j - h : j + h + 1]
            wb = b[i - h : i + h + 1, j - h : j + h + 1]
            mu1 = (kern * wa).sum()
            mu2 = (kern * wb).sum()
            v1 = (kern * wa * wa).sum() - mu1**2
            v2 = (kern * wb * wb).sum() - mu2**2
            cov = (kern * wa * wb).sum() - mu1 * mu2
            vals.append(
                ((2 * mu1 * mu2 + c1) * (2 * cov + c2))
                / ((mu1**2 + mu2**2 + c1) * (v1 + v2 + c2))
            )
    return float(np.mean(vals))


class TestSsim:
    def test_identical_images(self):
        img = Rng(4).standard_normal((16, 16))
        assert abs(ssim(img, img, 2.0) - 1.0) < 1e-12

    def test_symmetry(self):
        rng = Rng(5)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        assert abs(ssim(a, b, 2.0) - ssim(b, a, 2.0)) < 1e-12

    def test_matches_windowed_oracle(self):
        rng = Rng(6)
        a = rng.standard_normal((16, 16))
        b = a + 0.3 * rng.standard_normal((16, 16))
        assert abs(ssim(a, b, 2.0) - reference_ssim(a, b, 2.0)) < 1e-10

    # The contraction sums each window in another order than convolve2d's loop. Where a window's
    # variance cancels against its mean, that reaches a few 1e-15: at most 2.9e-15 on 11x11 images
    # (one window, nothing averaged) and 4.2e-15 on toy prior pairs, measured over 300 pairs each.
    @pytest.mark.parametrize("kind, shape, tol", [
        ("normal", (16, 16), 1e-15), ("normal", (12, 20), 1e-15), ("normal", (11, 11), 1e-14),
        ("toy_prior", (16, 16), 1e-14),
    ])
    def test_near_scipy_convolve2d_form(self, kind, shape, tol):
        kern = gaussian_kernel_2d(11, 1.5)

        def scipy_ssim(a, b, data_range):  # the form SSIM had with SciPy's convolve2d
            def filt(img):
                return convolve2d(img, kern, mode="valid")

            mu1, mu2 = filt(a), filt(b)
            s1, s2, s12 = filt(a * a) - mu1 * mu1, filt(b * b) - mu2 * mu2, filt(a * b) - mu1 * mu2
            c1, c2 = (0.01 * data_range) ** 2, (0.03 * data_range) ** 2
            num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
            return float(np.mean(num / ((mu1 * mu1 + mu2 * mu2 + c1) * (s1 + s2 + c2))))

        rng = Rng(8)
        toy = NonlinearToyProblem(grid=shape[0])
        for k in range(50):
            if kind == "normal":
                a = rng.standard_normal(shape)
                b = a + 10.0 ** (k % 5 - 3) * rng.standard_normal(shape)
            else:
                a, b = (toy.sample_prior(rng.child(k, i)).reshape(shape) for i in range(2))
                b = a + (b - a) * (k + 1) / 50
            assert abs(ssim(a, b, 2.0) - scipy_ssim(a, b, 2.0)) <= tol

    def test_uncorrelated_images_score_low(self):
        rng = Rng(7)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        assert ssim(a, b, 2.0) < 0.3

    def test_rejects_small_or_mismatched(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)), 2.0)
        with pytest.raises(ShapeError):
            ssim(np.zeros((16, 16)), np.zeros((16, 15)), 2.0)
        with pytest.raises(ShapeError):
            ssim(np.zeros(16), np.zeros(16), 2.0)


class TestMomentErrors:
    def test_exact_match_is_zero(self):
        rng = Rng(8)
        cov = SpdMatrix.identity(2)
        samples = rng.standard_normal((10, 2))
        ens = PosteriorEnsemble.from_samples(samples)
        oracle = AnalyticPosterior(ens.mean, SpdMatrix.from_dense(ens.cov + 1e-9 * np.eye(2)))
        mean_err, cov_err = moment_errors(ens, oracle)
        assert mean_err == 0.0
        assert cov_err < 1e-8
        del cov

    def test_known_offsets(self):
        samples = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        ens = PosteriorEnsemble.from_samples(samples)
        oracle = AnalyticPosterior(np.array([3.0, 4.0]), SpdMatrix.identity(2))
        mean_err, cov_err = moment_errors(ens, oracle)
        assert abs(mean_err - 5.0) < 1e-12  # 3-4-5 triangle
        diff = ens.cov - np.eye(2)
        assert abs(cov_err - np.linalg.norm(diff, ord="fro")) < 1e-12

    def test_dim_mismatch(self):
        ens = PosteriorEnsemble.from_samples(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            moment_errors(ens, AnalyticPosterior(np.zeros(3), SpdMatrix.identity(3)))


class TestReport:
    def _report(self):
        rep = MetricReport(n_stages=2)
        for s, vals in ((1, [1.0, 3.0]), (2, [2.0, 4.0])):
            for o, v in enumerate(vals):
                rep.records.append(
                    MetricRecord(stage=s, obs=o, mean_err=v, cov_err=v, psnr=v,
                                 ssim=float("nan"), rmse=v)
                )
        return rep

    def test_stage_values(self):
        rep = self._report()
        assert np.array_equal(rep.stage_values(1, "psnr"), [1.0, 3.0])
        assert np.array_equal(rep.stage_values(2, "rmse"), [2.0, 4.0])

    def test_aggregate_nan_aware(self):
        rep = self._report()
        agg = rep.aggregate("psnr")
        assert agg[0] == (2.0, 1.0)
        ssim_agg = rep.aggregate("ssim")
        assert all(np.isnan(m) and np.isnan(s) for m, s in ssim_agg)


class TestEvaluateTestset:
    def test_record_counts_and_determinism(self):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 16, 1, FAST_FLOW, FAST_TRAIN, Rng(9))
        a = evaluate_testset(pipe, p, 3, Rng(10), n_samples=40)
        b = evaluate_testset(pipe, p, 3, Rng(10), n_samples=40)
        assert len(a.records) == 3 * 2
        assert a.final_std.shape == (3, p.x_dim)
        for ra, rb in zip(a.records, b.records):
            assert ra.mean_err == rb.mean_err
            assert ra.psnr == rb.psnr

    def test_single_observation_std_aggregate(self):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 16, 0, FAST_FLOW, FAST_TRAIN, Rng(11))
        rep = evaluate_testset(pipe, p, 1, Rng(12), n_samples=30)
        for _, std in rep.aggregate("psnr"):
            assert std == 0.0

    def test_rejects_empty(self):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 16, 0, FAST_FLOW, FAST_TRAIN, Rng(13))
        with pytest.raises(ValueError):
            evaluate_testset(pipe, p, 0, Rng(14))

    @pytest.mark.parametrize("key, value", [("n_test", 0), ("n_samples", 0), ("psnr_range", 0.0)])
    @pytest.mark.parametrize("fn", ["evaluate_testset", "sweep_training_size"])
    def test_out_of_range_size_refused_before_any_work(self, monkeypatch, fn, key, value):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 16, 0, FAST_FLOW, FAST_TRAIN, Rng(13))

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the sizes were checked")

        monkeypatch.setattr(sf_metrics, "intermediate_trajectory", no_work)
        monkeypatch.setattr(sf_metrics, "train_pipeline", no_work)
        sizes = {"n_test": 1, "n_samples": 10, "psnr_range": 2.0, key: value}
        with pytest.raises(ValueError, match=f"{key} must be"):
            if fn == "evaluate_testset":
                evaluate_testset(pipe, p, sizes.pop("n_test"), Rng(14), **sizes)
            else:
                sweep_training_size(p, [8], 0, FAST_FLOW, FAST_TRAIN, Rng(14), **sizes)

    def test_sweep_refuses_a_repeated_size_before_any_work(self, monkeypatch):
        # results are keyed by size: a repeated size would be trained twice and keep one result
        def no_work(*args, **kwargs):
            raise AssertionError("training started before the sizes were checked")

        monkeypatch.setattr(sf_metrics, "train_pipeline", no_work)
        with pytest.raises(ValueError, match=r"sizes must not repeat a size, got \[10, 8, 10\]"):
            sweep_training_size(tiny_problem(), [10, 8, 10], 0, FAST_FLOW, FAST_TRAIN, Rng(14))


def every_stage_evaluation(pipeline, problem, n_test, rng, n_samples, psnr_range=2.0):
    """Reference loop that draws an ensemble at every stage, whether or not a metric reads it."""
    L = pipeline.n_stages
    report = MetricReport(n_stages=L + 1)
    final_stds = np.empty((n_test, problem.x_dim))
    img_shape = problem.image_shape
    for t in range(n_test):
        obs_rng = rng.child(t)
        x_true = problem.sample_prior(obs_rng.child(0))
        y = problem.simulate(x_true, obs_rng.child(0, 1))
        traj = intermediate_trajectory(pipeline, y, obs_rng.child(1))
        oracle = problem.analytic_posterior(y) if problem.has_analytic_posterior else None
        for s in range(1, L + 2):
            x_prev, ybar_prev = traj[s - 1]
            deltas = pipeline.flows[s - 1].sample(ybar_prev, n_samples, obs_rng.child(2, s))
            ens = PosteriorEnsemble.from_samples(x_prev + deltas)
            if s <= L:
                point = traj[s][0]
            else:
                point = ens.mean
                final_stds[t] = ens.std
            mean_err, cov_err = moment_errors(ens, oracle) if oracle is not None else (float("nan"),) * 2
            ssim_val = float("nan")
            if img_shape is not None:
                ssim_val = ssim(point.reshape(img_shape), x_true.reshape(img_shape), psnr_range)
            report.records.append(MetricRecord(
                s, t, mean_err, cov_err, psnr(point, x_true, psnr_range), ssim_val, rmse(point, x_true)
            ))
    report.final_std = final_stds
    return report


class TestEnsembleDraws:
    """Evaluation draws a stage's ensemble only where a metric reads it."""

    N_SAMPLES = 24  # differs from FAST_TRAIN.n_s_infer, so trajectory draws are not counted

    def _counted(self, monkeypatch, problem, n_train, n_test, seed):
        pipe, _ = train_pipeline(problem, n_train, 2, FAST_FLOW, FAST_TRAIN, Rng(seed))
        calls = []
        sample = CouplingFlow.sample

        def counting_sample(flow, cond, n, rng):
            if n == self.N_SAMPLES:
                calls.append(pipe.flows.index(flow))
            return sample(flow, cond, n, rng)

        monkeypatch.setattr(CouplingFlow, "sample", counting_sample)
        rep = evaluate_testset(pipe, problem, n_test, Rng(seed + 1), n_samples=self.N_SAMPLES)
        monkeypatch.undo()
        ref = every_stage_evaluation(pipe, problem, n_test, Rng(seed + 1), self.N_SAMPLES)
        assert np.array_equal(rep.final_std, ref.final_std)
        records, ref_records = ([astuple(r) for r in x.records] for x in (rep, ref))
        assert np.array_equal(records, ref_records, equal_nan=True)
        return calls

    def test_oracle_free_problem_draws_the_final_stage_alone(self, monkeypatch):
        toy = NonlinearToyProblem(grid=12, observed_rows=4)
        calls = self._counted(monkeypatch, toy, 12, 3, 30)
        assert calls == [2, 2, 2]  # one draw per observation, from the final flow

    def test_oracle_problem_draws_every_stage(self, monkeypatch):
        calls = self._counted(monkeypatch, tiny_problem(), 16, 3, 31)
        assert calls == [0, 1, 2] * 3  # L + 1 draws per observation


class TestCsvWriters:
    def test_records_roundtrip_through_text(self, tmp_path):
        p = tiny_problem()
        pipe, _ = train_pipeline(p, 16, 1, FAST_FLOW, FAST_TRAIN, Rng(15))
        rep = evaluate_testset(pipe, p, 2, Rng(16), n_samples=20)
        path = tmp_path / "records.csv"
        write_records_csv(rep, path, config_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1].startswith("stage,obs,")
        assert len(lines) == 2 + len(rep.records)
        # every column of every row reads back as its record's exact value
        for line, record in zip(lines[2:], rep.records):
            for text, value in zip(line.split(","), astuple(record), strict=True):
                assert float(text) == value or (np.isnan(value) and text == "nan")

    def test_rows_are_the_bytes_csv_writer_writes(self, tmp_path):
        # ints, floats at the edges of repr's formats, nan, +-inf and np.float64 values
        values = [0, -7, 2**70, 0.0, -0.0, 0.1, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
        values += list(np.float64([0.1, -0.0, 5e-324, 1e16, 1e-5, 123456.789, np.nan, -np.inf]))
        values += list(Rng(18).standard_normal(200) * 10.0 ** Rng(19).uniform(-30, 30, 200))
        rows = [values[i : i + 7] for i in range(0, len(values), 7)]
        sf_metrics.write_csv(tmp_path / "new.csv", ["a", "b_c", "x0"], rows, config_hash="f00d")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            fh.write("# config_hash=f00d\n")
            csv.writer(fh).writerows([["a", "b_c", "x0"], *rows])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_summary_and_sweep(self, tmp_path):
        p = tiny_problem()
        results = sweep_training_size(
            p, [8, 12], 1, FAST_FLOW, FAST_TRAIN, Rng(17), n_test=2, n_samples=20
        )
        write_summary_csv(results[8], tmp_path / "summary.csv")
        write_sweep_csv(results, tmp_path / "sweep.csv", config_hash="cafe")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2  # header + two stages
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "# config_hash=cafe"
        assert len(sweep) == 2 + 2 * 2  # comment + header + 2 sizes x 2 stages
        rows = [line.split(",") for line in sweep[2:]]
        assert [r[0] for r in rows] == ["8", "8", "12", "12"]
