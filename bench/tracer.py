"""Span tracing of scoreflow from outside the package.

The tracer replaces public functions and methods with thin wrappers that
record a span (name, start, end, parent, root) around each call. Functions
are patched under the module attribute their caller looks them up by (for
example `scoreflow.pipeline.train_flow`, which is what `train_pipeline`
calls), and methods are patched on their class. Spans stay in memory until
the run ends; `layer_table` then derives per-module self time, i.e. a
span's duration minus the time covered by its direct children.

Counters that a span alone cannot give (rows, bytes, GEMM flops computed
from array shapes, skipped steps) are attached to the span as `extra`.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = ("numerics", "problems", "flow", "summary", "pipeline", "metrics", "config", "cli")


def _mlp_macs(net) -> int:
    """Multiply-accumulates per row of one ConditioningNet forward pass."""
    return sum(int(W.shape[0]) * int(W.shape[1]) for W in net.weights)


def _flow_macs(flow) -> int:
    return sum(_mlp_macs(net) for net in flow.nets)


def _extra_nll_grads(args, kwargs, result):
    flow, x = args[0], args[1]
    rows = len(x)
    # forward GEMMs plus two backward GEMMs (weights and inputs) per layer
    return {"rows": rows, "gflop": 6.0 * rows * _flow_macs(flow) / 1e9}


def _extra_inverse(args, kwargs, result):
    flow, z = args[0], args[1]
    rows = len(z)
    return {"rows": rows, "gflop": 2.0 * rows * _flow_macs(flow) / 1e9}


def _extra_train_step(args, kwargs, result):
    return {"skipped": 0 if result[1] else 1}


def _extra_train_flow(args, kwargs, result):
    # best epoch by the same improvement rule train_flow applies
    best, best_val = 0, float("inf")
    for i, (_, _, val) in enumerate(result):
        if val < best_val - 1e-6:
            best, best_val = i, val
    return {"epochs": len(result), "useful_epochs": best + 1}


def _extra_advance(args, kwargs, result):
    ds, n_s = args[0], args[3]
    n, x_dim = ds.x_true.shape
    # advance_stage allocates its (n, n_s, x_dim) float64 latent buffer at once
    return {"records": n, "z_bytes_max": n * n_s * x_dim * 8}


def _extra_save_ckpt(args, kwargs, result):
    return {"bytes": len(result)}


def _extra_load_ckpt(args, kwargs, result):
    return {"bytes": len(args[0])}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, root, extra)
        self._stack: list[tuple[int, int]] = []  # (span id, root id) of open spans
        self._patches: list[tuple] = []

    def span(self, name: str, extra_fn=None):
        """Decorator factory: wraps `fn` so each call records a span."""

        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(self.spans)
                parent, root = self._stack[-1] if self._stack else (-1, sid)
                self.spans.append(None)
                self._stack.append((sid, root))
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    self._stack.pop()
                    self.spans[sid] = (sid, name, t0, t1, parent, root, None)
                if extra_fn is not None:
                    self.spans[sid] = (sid, name, t0, t1, parent, root, extra_fn(args, kwargs, result))
                return result

            return wrapper

        return deco

    def patch(self, owner, attr: str, name: str, extra_fn=None) -> None:
        """Replace `owner.attr` with a span-recording wrapper until `restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, extra_fn)(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Patch every traced public entry point of the eight scoreflow modules."""
        import scoreflow.cli as cli
        import scoreflow.config as config
        import scoreflow.flow as flow
        import scoreflow.metrics as metrics
        import scoreflow.numerics as numerics
        import scoreflow.pipeline as pipeline
        import scoreflow.problems as problems

        p = self.patch
        # numerics
        p(numerics.Rng, "child", "numerics.Rng.child")
        # problems: methods on the classes that define them
        for cls in (problems.LinearGaussianProblem, problems.NonlinearToyProblem):
            p(cls, "score", "problems.score")
        p(problems.InverseProblem, "simulate", "problems.simulate")
        p(problems.LinearGaussianProblem, "analytic_posterior", "problems.analytic_posterior")
        # flow
        p(flow.CouplingFlow, "nll_loss_and_grads", "flow.nll_loss_and_grads", _extra_nll_grads)
        p(flow.CouplingFlow, "nll_loss", "flow.nll_loss")
        p(flow.CouplingFlow, "inverse", "flow.inverse", _extra_inverse)
        p(flow.CouplingFlow, "sample", "flow.sample")
        p(flow.Adam, "step", "flow.Adam.step")
        p(flow, "train_step", "flow.train_step", _extra_train_step)  # looked up by train_flow
        p(pipeline, "train_flow", "flow.train_flow", _extra_train_flow)
        p(pipeline, "save_checkpoint", "flow.save_checkpoint", _extra_save_ckpt)
        p(pipeline, "load_checkpoint", "flow.load_checkpoint", _extra_load_ckpt)
        # summary, as bound by pipeline
        p(pipeline, "build_stage0", "summary.build_stage0")
        p(pipeline, "advance_stage", "summary.advance_stage", _extra_advance)
        # pipeline, under each module that binds it
        p(pipeline, "train_pipeline", "pipeline.train_pipeline")
        p(pipeline, "save_pipeline", "pipeline.save_pipeline")
        for mod in (pipeline, metrics, cli):
            p(mod, "intermediate_trajectory", "pipeline.intermediate_trajectory")
        p(cli, "infer", "pipeline.infer")
        p(cli, "load_pipeline", "pipeline.load_pipeline")
        p(cli, "save_pipeline", "pipeline.save_pipeline")
        p(cli, "train_pipeline", "pipeline.train_pipeline")
        # metrics
        p(metrics, "evaluate_testset", "metrics.evaluate_testset")
        p(metrics, "ssim", "metrics.ssim")
        p(metrics, "moment_errors", "metrics.moment_errors")
        # config
        p(config, "load_config", "config.load_config")
        p(cli, "load_config", "config.load_config")
        p(config, "problem_from_config", "config.problem_from_config")
        p(cli, "problem_from_config", "config.problem_from_config")
        # cli
        p(cli, "main", "cli.main")

    # ---- aggregation -------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its direct children."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def by_name(self) -> dict:
        """name -> {calls, s, self_s, <summed extras>}."""
        selfs = self.self_times()
        agg: dict[str, dict] = {}
        for s, self_s in zip(self.spans, selfs):
            a = agg.setdefault(s[1], {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += s[3] - s[2]
            a["self_s"] += self_s
            for k, v in (s[6] or {}).items():
                a[k] = max(a.get(k, 0), v) if k.endswith("_max") else a.get(k, 0) + v
        return agg

    def layer_table(self) -> dict:
        """layer -> {calls, self_s, gflop}; layers without calls get zeros."""
        table = {layer: {"calls": 0, "self_s": 0.0, "gflop": 0.0} for layer in LAYERS}
        for name, a in self.by_name().items():
            row = table.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0, "gflop": 0.0})
            row["calls"] += a["calls"]
            row["self_s"] += a["self_s"]
            row["gflop"] += a.get("gflop", 0.0)
        return table

    def write_spans(self, path) -> None:
        """One JSON object per line: id, name, start, end, parent, root, extra."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, root, extra in self.spans:
                rec = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "root": root}
                if extra:
                    rec["extra"] = extra
                fh.write(json.dumps(rec) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.span("calibrate")(noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max((time.perf_counter() - t0 - bare) / n, 0.0)
