"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion. The two trend
tests train full pipelines at replication scale and take several minutes
each; the rest are fast. Run with `pytest -v` to see one line per
criterion.
"""

import subprocess
import sys

import numpy as np
import pytest

from scoreflow.flow import CouplingFlow, load_checkpoint, save_checkpoint
from scoreflow.metrics import evaluate_testset, sweep_training_size
from scoreflow.numerics import Rng, SpdMatrix
from scoreflow.pipeline import FlowConfig, TrainConfig, train_pipeline
from scoreflow.problems import LinearGaussianProblem, NonlinearToyProblem
from scoreflow.summary import build_stage0, load_dataset, save_dataset


def report(criterion: int, name: str, ok: bool):
    print(f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def trend_ok(values, max_violations=1, tol=0.05):
    """Non-increasing sequence, allowing a bounded number of small upticks."""
    violations = 0
    for prev, cur in zip(values, values[1:]):
        if cur > prev:
            if (cur - prev) / prev > tol:
                return False
            violations += 1
    return violations <= max_violations


REPL_TRAIN = TrainConfig(lr=1e-3, max_epochs=400, patience=50)


class TestCriterion1FlowCorrectness:
    def test_flow_correctness_suite(self):
        rng = Rng(101)
        flow = CouplingFlow.create(4, 3, rng, FlowConfig(n_blocks=4, hidden=(16, 16)))
        flow.params += 0.3 * rng.standard_normal(flow.params.size)
        flow.set_normalization([0.1, -0.2, 0.0, 0.3], [1.2, 0.8, 1.0, 1.5],
                               np.zeros(3), np.ones(3))

        x = rng.standard_normal((30, 4))
        c = rng.standard_normal((30, 3))
        z, ld_f = flow.forward(x, c)
        xr, ld_i = flow.inverse(z, flow.condition(c))
        invertible = np.abs(xr - x).max() <= 1e-8 and np.abs(ld_f + ld_i).max() <= 1e-8

        # analytic log-det vs. a finite-difference Jacobian at one point
        h = 1e-6
        J = np.zeros((4, 4))
        for i in range(4):
            e = np.zeros((1, 4))
            e[0, i] = h
            zp, _ = flow.forward(x[:1] + e, c[:1])
            zm, _ = flow.forward(x[:1] - e, c[:1])
            J[:, i] = (zp - zm).ravel() / (2 * h)
        ld_fd = np.log(abs(np.linalg.det(J)))
        logdet_ok = abs(ld_f[0] - ld_fd) / abs(ld_fd) <= 1e-4

        grads_ok = True
        for point in range(3):
            xb = rng.standard_normal((5, 4))
            cb = rng.standard_normal((5, 3))
            _, grad = flow.nll_loss_and_grads(xb, cb)
            fd = np.zeros_like(grad)
            for j, old in enumerate(flow.params.copy()):
                flow.params[j] = old + 1e-5
                lp = flow.nll_loss(xb, cb)
                flow.params[j] = old - 1e-5
                lm = flow.nll_loss(xb, cb)
                flow.params[j] = old
                fd[j] = (lp - lm) / 2e-5
            # one relative error per weight and bias array
            for (g_w, g_b), (fd_w, fd_b) in zip(flow.views(grad), flow.views(fd)):
                for g, f in zip(g_w + g_b, fd_w + fd_b):
                    if np.linalg.norm(g - f) / (np.linalg.norm(f) + 1e-12) > 1e-4:
                        grads_ok = False
        report(1, "flow invertibility, log-det, gradients", invertible and logdet_ok and grads_ok)


class TestCriterion2ScoreCorrectness:
    def test_scores_and_adjoint(self):
        ok = True
        lin = LinearGaussianProblem.replication(x_dim=6, y_dim=10, seed=5)
        toy = NonlinearToyProblem(grid=8, observed_rows=3)
        rng = Rng(102)
        for prob, scale in ((lin, 1.0), (toy, 0.3)):
            x0 = scale * rng.standard_normal(prob.x_dim)
            y = prob.simulate(scale * rng.standard_normal(prob.x_dim), rng)
            s = prob.score(x0, y)
            fd = np.zeros(prob.x_dim)
            for i in range(prob.x_dim):
                e = np.zeros(prob.x_dim)
                e[i] = 1e-5
                fd[i] = (prob.log_likelihood(x0 + e, y) - prob.log_likelihood(x0 - e, y)) / 2e-5
            if np.abs(s - fd).max() / np.abs(fd).max() > 1e-5:
                ok = False
        for _ in range(5):
            x = rng.standard_normal(toy.x_dim)
            u = rng.standard_normal(toy.x_dim)
            v = rng.standard_normal(toy.y_dim)
            lhs = toy.forward_jvp(x, u) @ v
            rhs = u @ toy.forward_vjp(x, v)
            if abs(lhs - rhs) / max(abs(lhs), 1.0) > 1e-10:
                ok = False
        report(2, "score finite differences and adjoint identity", ok)


class TestCriterion3OracleCorrectness:
    def test_analytic_posterior_oracle(self):
        p = LinearGaussianProblem.replication(seed=2024)
        obs_rng = Rng(103)
        y = p.simulate(p.sample_prior(obs_rng), obs_rng)
        post = p.analytic_posterior(y)
        precision = p.prior_cov.inverse_dense() + p.A.T @ p.noise_cov.inverse_dense() @ p.A
        prec_ok = np.abs(post.cov.dense() @ precision - np.eye(p.x_dim)).max() <= 1e-8

        # Monte-Carlo oracle: simulate (x, y) jointly, estimate the joint
        # Gaussian moments empirically, and condition on y via the
        # regression formula. Batch replication gives the 4-sigma bounds.
        n_batches, batch = 10, 100_000
        rng = Rng(104)
        means, covs = [], []
        for b in range(n_batches):
            r = rng.child(b)
            xs = (p.prior_cov.chol @ r.standard_normal((p.x_dim, batch))).T
            ys = xs @ p.A.T + (p.noise_cov.chol @ r.standard_normal((p.y_dim, batch))).T
            joint = np.cov(np.concatenate([xs, ys], axis=1).T)
            Sx = joint[: p.x_dim, : p.x_dim]
            Sxy = joint[: p.x_dim, p.x_dim :]
            Sy = joint[p.x_dim :, p.x_dim :]
            gain = Sxy @ np.linalg.inv(Sy)
            means.append(xs.mean(axis=0) + gain @ (y - ys.mean(axis=0)))
            covs.append(Sx - gain @ Sxy.T)
        means = np.array(means)
        covs = np.array(covs)
        mean_se = means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        cov_se = covs.std(axis=0, ddof=1) / np.sqrt(n_batches)
        mean_ok = np.all(np.abs(means.mean(axis=0) - post.mean) <= 4.0 * mean_se + 1e-12)
        cov_ok = np.all(np.abs(covs.mean(axis=0) - post.cov.dense()) <= 4.0 * cov_se + 1e-12)
        report(3, "precision identity and Monte-Carlo conditioning",
               prec_ok and bool(mean_ok) and bool(cov_ok))


@pytest.fixture(scope="module")
def linear_report():
    prob = LinearGaussianProblem.replication(x_dim=16, y_dim=64, noise_std=0.1,
                                             prior_condition=10.0, seed=2024)
    pipe, _ = train_pipeline(prob, 1000, 3, FlowConfig(), REPL_TRAIN, Rng(0))
    return evaluate_testset(pipe, prob, 50, Rng(1), n_samples=8000)


def mean_std(stages) -> list[str]:
    """Each stage's (mean, std across observations), as printed beside each other."""
    return [f"{m:.4f} (std {s:.4f})" for m, s in stages]


class TestCriterion4LinearGaussianTrend:
    def test_errors_non_increasing_across_stages(self, linear_report):
        means = [m for m, _ in linear_report.aggregate("mean_err")]
        covs = [m for m, _ in linear_report.aggregate("cov_err")]
        ok = trend_ok(means) and trend_ok(covs)
        print(f"  stage mean errors: {mean_std(linear_report.aggregate('mean_err'))}")
        print(f"  stage cov errors:  {mean_std(linear_report.aggregate('cov_err'))}")
        # the floors of the mean error, from the oracle of the fixture's problem (its posterior covariance
        # does not depend on y): the Monte Carlo error of a mean of its 8000 samples, and the error of a
        # linear regression with x_dim + 1 coefficients per coordinate fit to its 900 training records
        # (1000 less the validation split)
        prob = LinearGaussianProblem.replication(x_dim=16, y_dim=64, noise_std=0.1, prior_condition=10.0,
                                                 seed=2024)
        tr_post = float(np.trace(prob.analytic_posterior(np.zeros(prob.y_dim)).cov.dense()))
        print(f"  mean error floors: Monte Carlo {np.sqrt(tr_post / 8000):.4f}, "
              f"regression {np.sqrt(tr_post * (prob.x_dim + 1) / 900):.4f}")
        report(4, "linear-Gaussian error trend over refinement stages", ok)


class TestCriterion5TrainingSizeSweep:
    def test_sweep_and_iteration_compensation(self):
        prob = LinearGaussianProblem.replication(seed=2024)
        results = sweep_training_size(
            prob, [400, 1000, 2000], 2, FlowConfig(), REPL_TRAIN, Rng(7),
            n_test=20, n_samples=2000,
        )
        stage1 = [results[n].aggregate("mean_err")[0][0] for n in (400, 1000, 2000)]
        n400 = results[400].aggregate("mean_err")
        print(f"  stage-1 mean error by training size: "
              f"{mean_std(results[n].aggregate('mean_err')[0] for n in (400, 1000, 2000))}")
        print(f"  N=400 per-stage mean error: {mean_std(n400)}")
        monotone = all(b <= a * 1.05 for a, b in zip(stage1, stage1[1:]))
        compensated = n400[2][0] <= n400[0][0]
        report(5, "training-size sweep and iterative compensation", monotone and compensated)


TOY_TRAIN = TrainConfig(lr=1e-3, max_epochs=400, patience=50, n_s_train=64, n_s_infer=1024)


@pytest.fixture(scope="module")
def toy_report():
    prob = NonlinearToyProblem()
    pipe, _ = train_pipeline(prob, 1000, 3, FlowConfig(), TOY_TRAIN, Rng(0))
    return prob, evaluate_testset(pipe, prob, 50, Rng(1000), n_samples=2000)


class TestCriterion6NonlinearToyTrend:
    def test_psnr_gain_and_uncertainty_pattern(self, toy_report):
        prob, rep = toy_report
        psnrs = [m for m, _ in rep.aggregate("psnr")]
        print(f"  stage PSNR: {mean_std(rep.aggregate('psnr'))}")
        increasing = psnrs[0] < psnrs[1] < psnrs[2]
        gained = psnrs[2] - psnrs[0] >= 0.5
        bottom = rep.final_std[:, prob.bottom_row_mask()].mean()
        top = rep.final_std[:, prob.top_row_mask()].mean()
        print(f"  posterior std bottom rows {bottom:.3f} vs top rows {top:.3f}")
        report(6, "toy PSNR gain and limited-view uncertainty", increasing and gained and bottom > top)


class TestCriterion7Determinism:
    def test_serialization_roundtrips(self):
        prob = LinearGaussianProblem.replication(x_dim=4, y_dim=8, seed=3)
        ds = build_stage0(prob, 10, Rng(105))
        blob = save_dataset(ds)
        ds_ok = save_dataset(load_dataset(blob)) == blob
        flow = CouplingFlow.create(4, 4, Rng(106), FlowConfig(n_blocks=2, hidden=(8,)))
        ckpt = save_checkpoint(flow)
        ckpt_ok = save_checkpoint(load_checkpoint(ckpt)) == ckpt
        report(7, "checkpoint and dataset round-trips", ds_ok and ckpt_ok)

    def test_cli_rerun_bitwise_identical(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "problem: {kind: linear_gaussian, x_dim: 2, y_dim: 4}\n"
            "flow: {n_blocks: 2, hidden: [8]}\n"
            "training: {n_train: 12, stages: 1, max_epochs: 3, patience: 3,"
            " n_s_train: 4, n_s_infer: 8}\n"
            "eval: {n_test: 2, n_samples: 20}\n"
        )

        def run(cmd, out):
            r = subprocess.run(
                [sys.executable, "-m", "scoreflow.cli", cmd, "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True,
            )
            assert r.returncode == 0, r.stderr.decode()

        def snapshot(base):
            return {
                str(f.relative_to(base)): f.read_bytes()
                for f in sorted(base.rglob("*"))
                if f.is_file()
            }

        base = tmp_path / "out"
        run("generate", base / "gen")
        run("train", base / "tr")
        r = subprocess.run(
            [sys.executable, "-m", "scoreflow.cli", "evaluate", "--config", str(cfg),
             "--bundle", str(base / "tr" / "bundle"), "--out", str(base / "ev")],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr.decode()
        first = snapshot(base)
        run("generate", base / "gen")
        run("train", base / "tr")
        r = subprocess.run(
            [sys.executable, "-m", "scoreflow.cli", "evaluate", "--config", str(cfg),
             "--bundle", str(base / "tr" / "bundle"), "--out", str(base / "ev")],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr.decode()
        identical = snapshot(base) == first
        report(7, "command reruns bitwise identical", identical)
