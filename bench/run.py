#!/usr/bin/env python3
"""scoreflow benchmark: one workload per process, metrics as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lin_replication --seed 1 --seconds 45 --trace 0

Workloads: lin_replication and toy_replication (see bench/workloads.py).
`--trace 0` reports the end-to-end metrics; `--trace 1` patches spans
around every public scoreflow function, reports per-layer metrics and
writes the spans to .bench_work/traces/. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are a readable report. The full result,
with the environment record and output digests, goes to
.bench_work/results/. `--smoke` shrinks every size for tests.

The package is imported from this checkout's src/; without it the
benchmark exits with code 2 and prints no result.
"""

import os

BLAS_THREADS = 1  # pinned, never inherited from the caller: the count moves linear eval time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, Tracer, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("flow.train_step.calls", "count", "lower"),
    ("flow.train_step.s", "s", "lower"),
    ("flow.train_step.skipped", "count", "lower"),
    ("flow.train_step.stepped_frac", "ratio", "higher"),
    ("flow.nll_loss_and_grads.s", "s", "lower"),
    ("flow.nll_loss_and_grads.gflop", "gflop", "lower"),
    ("flow.Adam.step.s", "s", "lower"),
    ("flow.nll_loss.s", "s", "lower"),
    ("flow.train_flow.s", "s", "lower"),
    ("flow.train_flow.epochs", "count", "lower"),
    ("flow.train_flow.useful_epoch_frac", "ratio", "higher"),
    ("flow.inverse.calls", "count", "lower"),
    ("flow.inverse.rows", "count", "lower"),
    ("flow.inverse.s", "s", "lower"),
    ("flow.inverse.gflop", "gflop", "lower"),
    ("flow.sample.calls", "count", "lower"),
    ("flow.sample.s", "s", "lower"),
    ("flow.load_checkpoint.s", "s", "lower"),
    ("flow.load_checkpoint.bytes", "bytes", "lower"),
    ("flow.save_checkpoint.s", "s", "lower"),
    ("flow.save_checkpoint.bytes", "bytes", "lower"),
    ("summary.advance_stage.s", "s", "lower"),
    ("summary.advance_stage.records", "count", "lower"),
    ("summary.advance_stage.z_bytes_max", "bytes", "lower"),
    ("summary.build_stage0.s", "s", "lower"),
    ("problems.score.calls", "count", "lower"),
    ("problems.score.s", "s", "lower"),
    ("problems.simulate.s", "s", "lower"),
    ("problems.analytic_posterior.s", "s", "lower"),
    ("numerics.Rng.child.calls", "count", "lower"),
    ("numerics.Rng.child.s", "s", "lower"),
    ("pipeline.train_pipeline.s", "s", "lower"),
    ("pipeline.intermediate_trajectory.calls", "count", "lower"),
    ("pipeline.intermediate_trajectory.s", "s", "lower"),
    ("pipeline.infer.s", "s", "lower"),
    ("pipeline.load_pipeline.s", "s", "lower"),
    ("pipeline.save_pipeline.s", "s", "lower"),
    ("metrics.evaluate_testset.s", "s", "lower"),
    ("metrics.ssim.s", "s", "lower"),
    ("metrics.moment_errors.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.bytes_written", "bytes", "lower"),
]
PER_LAYER += [(f"layer.{m}.{k}", u, "lower") for m in LAYERS for k, u in (("self_s", "s"), ("calls", "count"))]
PER_LAYER += [("trace.spans", "count", "lower"), ("trace.overhead_est_s", "s", "lower")]


def blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256():
    """Digest of the package sources, which identifies the program measured."""
    import hashlib

    src = hashlib.sha256()
    for p in sorted((SRC / "scoreflow").glob("*.py")):
        src.update(p.name.encode() + p.read_bytes())
    return src.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
    }


def per_layer_metrics(tracer, wl) -> dict:
    agg = tracer.by_name()

    def get(name, key):
        return float(agg.get(name, {}).get(key, 0))

    vals = {}
    for name, _, _ in PER_LAYER:
        base, _, key = name.rpartition(".")
        if base.startswith(("layer.", "trace.")):
            continue
        vals[name] = get(base, key)
    steps = get("flow.train_step", "calls")
    vals["flow.train_step.stepped_frac"] = (steps - vals["flow.train_step.skipped"]) / steps if steps else 0.0
    epochs = get("flow.train_flow", "epochs")
    vals["flow.train_flow.useful_epoch_frac"] = get("flow.train_flow", "useful_epochs") / epochs if epochs else 0.0
    vals["cli.main.bytes_written"] = float(wl.extra.get("bytes_written", 0))
    for layer, row in tracer.layer_table().items():
        if layer in LAYERS:
            vals[f"layer.{layer}.self_s"] = row["self_s"]
            vals[f"layer.{layer}.calls"] = float(row["calls"])
    vals["trace.spans"] = float(len(tracer.spans))
    vals["trace.overhead_est_s"] = span_cost_s() * len(tracer.spans)
    return vals


def untraced_reference(args, env):
    """Phase times of the last untraced run of the same workload, seed and sources, or None."""
    path = WORK / "results" / result_name(args, trace=0)
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    if ref.get("smoke") != args.smoke or ref.get("environment", {}).get("src_sha256") != env["src_sha256"]:
        return None
    return ref.get("phase_s")


def result_name(args, trace):
    return f"{args.workload}-seed{args.seed}-trace{trace}{'-smoke' if args.smoke else ''}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["lin_replication", "toy_replication"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="accepted for compatibility: every workload runs a fixed number of rounds, "
                             "whose length run_seconds in BENCHMARK.json states")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)  # one timed cold start
    args = parser.parse_args(argv)

    if not (SRC / "scoreflow" / "__init__.py").is_file():
        print(f"error: no scoreflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scoreflow

    if Path(scoreflow.__file__).resolve().parent != (SRC / "scoreflow").resolve():
        print(f"error: imported scoreflow from {scoreflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    run_dir = WORK / "runs" / result_name(args, args.trace).removesuffix(".json")
    setup_argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace), "--setup-only"]
    setup_argv += ["--smoke"] if args.smoke else []
    if args.setup_only:
        workloads.Workload(args.workload, args.seed, args.smoke, run_dir, setup_argv).setup_in_process()
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = workloads.Workload(args.workload, args.seed, args.smoke, run_dir, setup_argv, tracer)
    t0 = time.perf_counter()
    try:
        wl.run()
    finally:
        if tracer is not None:
            tracer.restore()
    total_s = time.perf_counter() - t0
    shutil.rmtree(run_dir)  # bundles and CSVs; the record below keeps their digests
    wl.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = dict(workloads.E2E)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = per_layer_metrics(tracer, wl)
    else:
        values = wl.e2e
    missing = sorted(set(units) - set(values))
    if missing:
        wl.outcome.start()
        wl.outcome.check(False, f"metrics not measured: {missing}")
    failed = wl.outcome.failed
    result = {
        "correct": failed == 0,
        "attempted": wl.outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "phase_s": {"total": total_s, **{k: v for k, v in wl.e2e.items() if k.endswith("_s")}},
        "extra": wl.extra,
        "samples": wl.samples,
        "digests": wl.digests,
        "failures": wl.outcome.failures,
        **result,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  total {total_s:.3f} s")
    for k, v in record["environment"].items():
        print(f"  env {k}: {v}")
    for k, v in wl.extra.items():
        print(f"  {k}: {v}")
    for k, v in wl.e2e.items():
        print(f"  {k:<16} {v:.6g}")
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans_path = traces / result_name(args, 1).replace(".json", ".spans.jsonl")
        tracer.write_spans(spans_path)
        ref = untraced_reference(args, record["environment"])
        measured = f"{total_s - ref['total']:.3f} s vs untraced run" if ref else "no untraced run to compare"
        print(f"  spans: {len(tracer.spans)} written to {spans_path}")
        print(f"  tracing overhead: estimated {values['trace.overhead_est_s']:.3f} s; measured {measured}")
        print(f"  {'layer':<10} {'calls':>9} {'self_s':>10} {'gflop':>9}")
        for layer, row in tracer.layer_table().items():
            print(f"  {layer:<10} {row['calls']:>9d} {row['self_s']:>10.3f} {row['gflop']:>9.3f}")
        agg = tracer.by_name()
        rows = [
            ("one epoch", "flow.train_flow", agg.get("flow.train_flow", {}).get("epochs", 0)),
            ("advance_stage per stage", "summary.advance_stage", agg.get("summary.advance_stage", {}).get("calls", 0)),
            ("eval per observation", "metrics.evaluate_testset",
             agg.get("metrics.evaluate_testset", {}).get("calls", 0) * wl.sizes.n_test),
        ]
        for label, name, n in rows:
            if n:
                print(f"  {label}: {agg[name]['s'] / n:.4f} s (over {n})")
        if ref:
            record["tracing_overhead_s"] = total_s - ref["total"]
    for f in wl.outcome.failures:
        print(f"  FAILED: {f}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / result_name(args, args.trace)).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
