"""Quantitative evaluation: posterior-moment errors, image metrics, sweeps.

Stages in a report are 1-indexed: stage s is the posterior approximation
produced by flow s-1 at fiducial x_{s-1}, so stage 1 is the non-iterative
baseline and stage L+1 is the final approximation. Point-estimate image
metrics use the updated fiducial x_s (the posterior-mean update), matching
how reconstruction quality is scored per refinement step; the final stage
uses the ensemble mean.

A stage's sample ensemble is drawn only where a metric reads it: at every
stage when the problem has an analytic oracle (the moment errors need the
ensemble mean and covariance), and otherwise at the final stage alone,
whose mean is the point estimate and whose std is `final_std`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import EvalConfig
from .numerics import Rng, ShapeError
from .pipeline import (
    FlowConfig,
    PosteriorEnsemble,
    TrainConfig,
    TrainedPipeline,
    intermediate_trajectory,
    train_pipeline,
)
from .problems import AnalyticPosterior, InverseProblem, gaussian_kernel_2d


def rmse(estimate, truth) -> float:
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ShapeError(f"shapes disagree: {estimate.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((estimate - truth) ** 2)))


def psnr(estimate, truth, data_range: float) -> float:
    """Peak signal-to-noise ratio in dB; +inf when the inputs are identical."""
    if data_range <= 0:
        raise ValueError("data_range must be positive")
    r = rmse(estimate, truth)
    if r == 0.0:
        return float("inf")
    return float(20.0 * np.log10(data_range) - 20.0 * np.log10(r))


SSIM_WINDOW = 11


def ssim(estimate, truth, data_range: float) -> float:
    """Structural similarity with an 11-pixel Gaussian window (sigma 1.5) and stabilizers k1 = 0.01, k2 = 0.03.

    Inputs must be 2-D images of identical shape, at least the window wide.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.ndim != 2 or truth.ndim != 2:
        raise ShapeError("ssim requires 2-D image inputs")
    if estimate.shape != truth.shape:
        raise ShapeError(f"shapes disagree: {estimate.shape} vs {truth.shape}")
    if min(estimate.shape) < SSIM_WINDOW:
        raise ShapeError(f"image smaller than ssim window {SSIM_WINDOW}: {estimate.shape}")
    flipped = gaussian_kernel_2d(SSIM_WINDOW, 1.5)[::-1, ::-1]

    def filt(img):  # the "valid" convolution: each full window contracted with the flipped kernel
        return np.tensordot(sliding_window_view(img, flipped.shape), flipped, axes=2)

    mu1 = filt(estimate)
    mu2 = filt(truth)
    mu1_sq, mu2_sq, mu12 = mu1 * mu1, mu2 * mu2, mu1 * mu2
    s1 = filt(estimate * estimate) - mu1_sq
    s2 = filt(truth * truth) - mu2_sq
    s12 = filt(estimate * truth) - mu12
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    num = (2 * mu12 + c1) * (2 * s12 + c2)
    den = (mu1_sq + mu2_sq + c1) * (s1 + s2 + c2)
    return float(np.mean(num / den))


def moment_errors(ens: PosteriorEnsemble, oracle: AnalyticPosterior) -> tuple[float, float]:
    """L2 error of the ensemble mean and Frobenius error of its covariance."""
    if ens.mean.shape != oracle.mean.shape:
        raise ShapeError(f"dims disagree: {ens.mean.shape} vs {oracle.mean.shape}")
    mean_err = float(np.linalg.norm(ens.mean - oracle.mean))
    cov_err = float(np.linalg.norm(ens.cov - oracle.cov.dense(), ord="fro"))
    return mean_err, cov_err


@dataclass
class MetricRecord:
    stage: int  # 1-based; stage s is flow s-1's approximation
    obs: int
    mean_err: float  # nan when no analytic oracle
    cov_err: float
    psnr: float
    ssim: float  # nan for non-image problems
    rmse: float


@dataclass
class MetricReport:
    n_stages: int  # number of report stages = L + 1
    records: list[MetricRecord] = field(default_factory=list)
    final_std: np.ndarray | None = None  # (n_obs, x_dim) per-dim posterior std

    def stage_values(self, stage: int, metric: str) -> np.ndarray:
        return np.array([getattr(r, metric) for r in self.records if r.stage == stage])

    def aggregate(self, metric: str) -> list[tuple[float, float]]:
        """Per-stage (mean, std) over observations, nan-aware."""
        out = []
        for s in range(1, self.n_stages + 1):
            vals = self.stage_values(s, metric)
            finite = vals[np.isfinite(vals)]
            if finite.size == 0:
                out.append((float("nan"), float("nan")))
            else:
                out.append((float(finite.mean()), float(finite.std())))
        return out


def _check_ssim_fits(problem: InverseProblem) -> None:
    """Refuse, before any work, an image problem whose images are narrower than the SSIM window."""
    shape = problem.image_shape
    if shape is not None and min(shape) < SSIM_WINDOW:
        raise ShapeError(f"image smaller than ssim window {SSIM_WINDOW}: {shape}")


def evaluate_testset(
    pipeline: TrainedPipeline,
    problem: InverseProblem,
    n_test: int,
    rng: Rng,
    n_samples: int = EvalConfig.n_samples,
    psnr_range: float = EvalConfig.psnr_range,
    progress=None,
) -> MetricReport:
    """Fresh test observations through the full inference loop, scored per stage.

    Stage s draws `n_samples` from flow s-1 only if a metric reads them:
    at every stage when the problem has an analytic oracle, else at the
    final stage alone; stages 1..L of an oracle-free problem are scored
    from their trajectory point and get NaN moment errors. Stage s draws
    from `rng.child(t).child(2, s)`, which is the stream (2, s) for every
    observation t, since `Rng.child` does not nest (see its table). Each
    stage still has its own stream, so skipping one moves no other draw."""
    EvalConfig(n_test, n_samples, psnr_range)  # its range rules, before any work
    _check_ssim_fits(problem)
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
            mean_err, cov_err = float("nan"), float("nan")
            if oracle is not None or s == L + 1:
                x_prev, ybar_prev = traj[s - 1]
                deltas = pipeline.flows[s - 1].sample(ybar_prev, n_samples, obs_rng.child(2, s))
                deltas += x_prev  # in place: the samples, without a second (n_samples, x_dim) array
                ens = PosteriorEnsemble.from_samples(deltas)
                if oracle is not None:
                    mean_err, cov_err = moment_errors(ens, oracle)
            if s <= L:
                point = traj[s][0]
            else:
                point = ens.mean
                final_stds[t] = ens.std
            ssim_val = float("nan")
            if img_shape is not None:
                ssim_val = ssim(point.reshape(img_shape), x_true.reshape(img_shape), psnr_range)
            report.records.append(
                MetricRecord(
                    stage=s,
                    obs=t,
                    mean_err=mean_err,
                    cov_err=cov_err,
                    psnr=psnr(point, x_true, psnr_range),
                    ssim=ssim_val,
                    rmse=rmse(point, x_true),
                )
            )
        if progress:
            progress(f"evaluated observation {t + 1}/{n_test}")
    report.final_std = final_stds
    return report


def sweep_training_size(
    problem: InverseProblem,
    sizes: list[int],
    L: int,
    flow_cfg: FlowConfig,
    train_cfg: TrainConfig,
    rng: Rng,
    n_test: int = EvalConfig.n_test,
    n_samples: int = EvalConfig.n_samples,
    psnr_range: float = EvalConfig.psnr_range,
    progress=None,
) -> dict[int, MetricReport]:
    """Train and evaluate one pipeline per training-set size."""
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes must not repeat a size, got {list(sizes)}")
    EvalConfig(n_test, n_samples, psnr_range)  # its range rules, before any training
    _check_ssim_fits(problem)
    out = {}
    for idx, n_train in enumerate(sizes):
        if progress:
            progress(f"sweep: training with n_train={n_train}")
        pipe, _ = train_pipeline(problem, n_train, L, flow_cfg, train_cfg, rng.child(idx, 0), progress=progress)
        out[n_train] = evaluate_testset(
            pipe, problem, n_test, rng.child(idx, 1), n_samples=n_samples,
            psnr_range=psnr_range, progress=progress,
        )
    return out


def write_csv(path, header: list[str], rows, config_hash: str = "") -> None:
    """Every CSV artifact: an optional `# config_hash=` line, the header, then the rows,
    each ended by CRLF. `str` gives each float its shortest round-trip decimal, so it
    reads back exactly; no field holds a comma, quote or line break, so none is quoted."""
    with open(path, "w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in [header, *rows])


def write_records_csv(report: MetricReport, path, config_hash: str = "") -> None:
    """Per-record metrics; one row per (stage, observation)."""
    write_csv(path, [f.name for f in fields(MetricRecord)], map(astuple, report.records), config_hash)


def write_summary_csv(report: MetricReport, path, config_hash: str = "") -> None:
    """Per-stage aggregates (mean and std over observations)."""
    metrics = ["mean_err", "cov_err", "psnr", "ssim", "rmse"]
    aggs = [report.aggregate(m) for m in metrics]
    rows = ([s + 1] + [v for agg in aggs for v in agg[s]] for s in range(report.n_stages))
    write_csv(path, ["stage"] + [f"{m}_{k}" for m in metrics for k in ("mean", "std")], rows, config_hash)


def write_sweep_csv(results: dict[int, MetricReport], path, config_hash: str = "") -> None:
    """Sweep matrix: one row per (training size, stage) with aggregate errors."""
    metrics = ["mean_err", "cov_err", "psnr", "rmse"]
    aggs = {n: [results[n].aggregate(m) for m in metrics] for n in sorted(results)}
    rows = ([n, s + 1] + [agg[s][0] for agg in aggs[n]] for n in aggs for s in range(results[n].n_stages))
    write_csv(path, ["n_train", "stage"] + [f"{m}_mean" for m in metrics], rows, config_hash)
