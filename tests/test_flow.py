import ast
import os
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scoreflow
import scoreflow.flow as sf_flow
from scoreflow.flow import (
    ADAM_CHUNK,
    DRAW_RUN,
    INVERSE_ROWS,
    LR_FACTOR,
    LR_PATIENCE,
    MIN_LR,
    TRAIN_DTYPE,
    Adam,
    CheckpointError,
    CouplingFlow,
    FlowConfig,
    TrainConfig,
    draw_in_runs,
    load_checkpoint,
    save_checkpoint,
    train_flow,
    train_step,
)
from scoreflow.numerics import LOG_2PI, Rng, ShapeError


def small_flow(x_dim=3, cond_dim=2, n_blocks=2, hidden=(8, 8), seed=7, randomize=0.3):
    rng = Rng(seed)
    flow = CouplingFlow.create(x_dim, cond_dim, rng, FlowConfig(n_blocks, hidden))
    if randomize:
        flow.params += randomize * rng.standard_normal(flow.params.size)
    return flow


def with_params(flow, params):
    """A flow like `flow`, normalization included, whose parameters are views into `params`."""
    out = CouplingFlow(flow.x_dim, flow.cond_dim, flow.config, params)
    out.set_normalization(flow.x_mean, flow.x_scale, flow.cond_mean, flow.cond_scale)
    return out


def arrays(flow, vec):
    """`vec`, laid out like `params`, as its W0, b0, W1, b1, ... views, block by block."""
    return [a for ws, bs in flow.views(vec) for pair in zip(ws, bs) for a in pair]


def fd_gradients(flow, x, cond, h=1e-5):
    """Central differences of the loss in each element of `params`."""
    grad = np.zeros_like(flow.params)
    for j, old in enumerate(flow.params.copy()):
        flow.params[j] = old + h
        lp = flow.nll_loss(x, cond)
        flow.params[j] = old - h
        lm = flow.nll_loss(x, cond)
        flow.params[j] = old
        grad[j] = (lp - lm) / (2 * h)
    return grad


def fd_log_det(flow, x_row, cond_row, h=1e-6):
    d = x_row.size
    J = np.zeros((d, d))
    for i in range(d):
        e = np.zeros((1, d))
        e[0, i] = h
        zp, _ = flow.forward(x_row[None, :] + e, cond_row[None, :])
        zm, _ = flow.forward(x_row[None, :] - e, cond_row[None, :])
        J[:, i] = (zp - zm).ravel() / (2 * h)
    return np.log(abs(np.linalg.det(J)))


class TestForward:
    def test_zero_weight_flow_is_normalized_identity(self):
        flow = small_flow(randomize=0.0)
        flow.set_normalization([0.5, -1.0, 2.0], [2.0, 0.5, 1.0], np.zeros(2), np.ones(2))
        rng = Rng(1)
        x = rng.standard_normal((4, 3))
        c = rng.standard_normal((4, 2))
        z, log_det = flow.forward(x, c)
        assert np.abs(z - (x - flow.x_mean) / flow.x_scale).max() == 0.0
        assert np.allclose(log_det, -np.sum(np.log(flow.x_scale)), atol=0)

    def test_log_det_matches_finite_difference_jacobian(self):
        flow = small_flow(x_dim=2, cond_dim=1, n_blocks=1, hidden=(5,), seed=3)
        x = np.array([0.3, -0.7])
        c = np.array([0.4])
        _, ld = flow.forward(x[None, :], c[None, :])
        assert abs(ld[0] - fd_log_det(flow, x, c)) / abs(fd_log_det(flow, x, c)) < 1e-5

    def test_invertibility_random_batches(self):
        flow = small_flow(x_dim=4, cond_dim=3, n_blocks=4, seed=9)
        flow.set_normalization(
            [0.1, 0.2, -0.3, 0.0], [1.5, 0.7, 1.1, 2.0], np.zeros(3), np.ones(3)
        )
        rng = Rng(2)
        x = rng.standard_normal((20, 4))
        c = rng.standard_normal((20, 3))
        z, ld_f = flow.forward(x, c)
        xr, ld_i = flow.inverse(z, flow.condition(c))
        assert np.abs(xr - x).max() <= 1e-8
        assert np.abs(ld_f + ld_i).max() <= 1e-8

    def test_shape_mismatch(self):
        flow = small_flow()
        with pytest.raises(ShapeError):
            flow.forward(np.zeros((2, 4)), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            flow.forward(np.zeros((2, 3)), np.zeros((3, 2)))


class TestInverse:
    def test_zero_weight_inverse_is_identity(self):
        flow = small_flow(randomize=0.0)
        rng = Rng(4)
        z = rng.standard_normal((6, 3))
        c = rng.standard_normal((6, 2))
        x, _ = flow.inverse(z, flow.condition(c))
        assert np.abs(x - z).max() == 0.0

    def test_forward_of_inverse_is_identity(self):
        flow = small_flow(seed=11)
        rng = Rng(5)
        z = rng.standard_normal((10, 3))
        c = rng.standard_normal((10, 2))
        x, _ = flow.inverse(z, flow.condition(c))
        z2, _ = flow.forward(x, c)
        assert np.abs(z2 - z).max() <= 1e-8

    def test_single_block_closed_form(self):
        # one block with mask on the first coordinate: the second transforms
        # as z2 = x2*exp(s) + t, so the inverse is (z2 - t)*exp(-s)
        flow = small_flow(x_dim=2, cond_dim=1, n_blocks=1, hidden=(6,), seed=13)
        z = np.array([[0.9, -1.4]])
        c = np.array([[0.25]])
        (W0, W1), (b0, b1) = flow.nets[0].weights, flow.nets[0].biases
        raw = np.tanh(np.concatenate([z[:, :1], c], axis=1) @ W0 + b0) @ W1 + b1
        s = flow._squash(raw[:, :1])
        t = raw[:, 1:]
        x, _ = flow.inverse(z, flow.condition(c))
        expected = (z[0, 1] - t[0, 0]) * np.exp(-s[0, 0])
        assert abs(x[0, 1] - expected) < 1e-12
        assert x[0, 0] == z[0, 0]


def masks_reference(x_dim, n_blocks):
    """Kept-half masks: first half in even blocks, second half in odd ones,
    none for x_dim == 1."""
    masks = []
    for k in range(n_blocks):
        m = np.zeros(x_dim, dtype=bool)
        if x_dim > 1:
            m[: x_dim // 2] = k % 2 == 0
            m[x_dim // 2 :] = k % 2 == 1
        masks.append(m)
    return masks


def mlp_reference(net, h):
    """The coupling net on its concatenated [kept half, conditioner] input."""
    cache = []
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        cache.append(h)
        h = h @ W + b
        if i < len(net.weights) - 1:
            h = np.tanh(h)
    return h, cache


def mlp_backward_reference(net, dh, cache):
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1:
            act = cache[i + 1]
            dh = dh * (1.0 - act * act)
        grads[:0] = [cache[i].T @ dh, dh.sum(axis=0)]
        dh = dh @ net.weights[i].T
    return dh, grads


def squash(flow, u):
    return flow.config.s_max * np.tanh(u / flow.config.s_max)


def forward_reference(flow, x, cond):
    """Boolean-mask coupling forward with a concatenated first layer; returns
    (z, log_det, caches) for `grads_reference`."""
    masks = masks_reference(flow.x_dim, len(flow.nets))
    xn = (x - flow.x_mean) / flow.x_scale
    cn = (cond - flow.cond_mean) / flow.cond_scale
    log_det = np.full(len(x), -np.sum(np.log(flow.x_scale)))
    caches = []
    for m, net in zip(masks, flow.nets):
        b = xn[:, ~m]
        raw, net_cache = mlp_reference(net, np.concatenate([xn[:, m], cn], axis=1))
        n_free = b.shape[1]
        s = squash(flow, raw[:, :n_free])
        out = xn.copy()
        out[:, ~m] = b * np.exp(s) + raw[:, n_free:]
        log_det = log_det + s.sum(axis=1)
        caches.append((m, b, s, net_cache))
        xn = out
    return xn, log_det, caches


def inverse_reference(flow, z, cond):
    masks = masks_reference(flow.x_dim, len(flow.nets))
    cn = (cond - flow.cond_mean) / flow.cond_scale
    xn = z.copy()
    log_det = np.full(len(z), np.sum(np.log(flow.x_scale)))
    for m, net in zip(reversed(masks), reversed(flow.nets)):
        raw, _ = mlp_reference(net, np.concatenate([xn[:, m], cn], axis=1))
        n_free = int((~m).sum())
        s = squash(flow, raw[:, :n_free])
        out = xn.copy()
        out[:, ~m] = (xn[:, ~m] - raw[:, n_free:]) * np.exp(-s)
        log_det = log_det - s.sum(axis=1)
        xn = out
    return xn * flow.x_scale + flow.x_mean, log_det


def grads_reference(flow, x, cond):
    z, log_det, caches = forward_reference(flow, x, cond)
    batch = len(x)
    loss = float(np.mean(0.5 * np.sum(z * z, axis=1) - log_det))
    dxn = z / batch
    grads = []
    for net, (m, b, s, net_cache) in zip(reversed(flow.nets), reversed(caches)):
        db2 = dxn[:, ~m]
        es = np.exp(s)
        du = (db2 * b * es - 1.0 / batch) * (1.0 - (s / flow.config.s_max) ** 2)
        dnet_in, net_grads = mlp_backward_reference(net, np.concatenate([du, db2], axis=1), net_cache)
        prev = dxn.copy()
        prev[:, m] += dnet_in[:, : int(m.sum())]
        prev[:, ~m] = db2 * es
        dxn = prev
        grads[:0] = net_grads
    return loss, grads


def rel_err(got, ref):
    return np.linalg.norm(np.asarray(got) - ref) / max(np.linalg.norm(ref), 1e-300)


class TestMatchesMaskReference:
    """The sliced, hoisted-condition flow against a boolean-mask reference
    with a concatenated first layer."""

    def _flow(self, x_dim, seed):
        flow = small_flow(x_dim=x_dim, cond_dim=3, n_blocks=4, hidden=(8, 8), seed=seed, randomize=0.4)
        rng = Rng(seed + 100)
        flow.set_normalization(rng.standard_normal(x_dim), np.exp(0.3 * rng.standard_normal(x_dim)),
                               rng.standard_normal(3), np.exp(0.3 * rng.standard_normal(3)))
        return flow, rng

    @pytest.mark.parametrize("x_dim", [1, 3, 16])
    def test_forward_inverse_and_grads(self, x_dim):
        flow, rng = self._flow(x_dim, seed=40 + x_dim)
        x = rng.standard_normal((12, x_dim))
        c = rng.standard_normal((12, 3))
        z, ld = flow.forward(x, c)
        z_ref, ld_ref, _ = forward_reference(flow, x, c)
        assert rel_err(z, z_ref) <= 1e-12 and rel_err(ld, ld_ref) <= 1e-12
        xr, ld_i = flow.inverse(z, flow.condition(c))
        xr_ref, ld_i_ref = inverse_reference(flow, z, c)
        assert rel_err(xr, xr_ref) <= 1e-12 and rel_err(ld_i, ld_i_ref) <= 1e-12
        loss, grad = flow.nll_loss_and_grads(x, c)
        loss_ref, grads_ref = grads_reference(flow, x, c)
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        assert grad.shape == flow.params.shape
        assert len(arrays(flow, grad)) == len(grads_ref)
        for g, g_ref in zip(arrays(flow, grad), grads_ref):
            assert g.shape == g_ref.shape
            assert rel_err(g, g_ref) <= 1e-12

    @pytest.mark.parametrize("x_dim", [1, 3, 16])
    def test_sample_with_shared_condition(self, x_dim):
        # a float64 flow samples in float64
        flow, rng = self._flow(x_dim, seed=60 + x_dim)
        cond = rng.standard_normal(3)
        got = flow.sample(cond, 40, Rng(5))
        ref, _ = inverse_reference(flow, Rng(5).standard_normal((40, x_dim)), np.tile(cond, (40, 1)))
        assert got.dtype == np.float64
        assert rel_err(got, ref) <= 1e-12

    def test_inverse_reuses_terms(self):
        flow, rng = self._flow(5, seed=80)
        c = rng.standard_normal((7, 3))
        terms = flow.condition(c)
        for _ in range(3):
            z = rng.standard_normal((7, 5))
            x, ld = flow.inverse(z, terms)
            x_ref, ld_ref = inverse_reference(flow, z, c)
            assert rel_err(x, x_ref) <= 1e-12 and rel_err(ld, ld_ref) <= 1e-12

    def test_inverse_rejects_other_batch_sizes(self):
        flow, _ = self._flow(3, seed=81)
        with pytest.raises(ShapeError):
            flow.inverse(np.zeros((5, 3)), flow.condition(np.zeros((2, 3))))  # 5 rows cannot cycle through 2
        with pytest.raises(ShapeError):
            flow.inverse(np.zeros((3, 3)), np.zeros((3, 3)))  # conditions, not their terms
        with pytest.raises(ShapeError):
            flow.condition(np.zeros((2, 4)))


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestCycledTerms:
    """Rows cycle through the rows of the condition terms: c terms serve rows k * c + j, for every k."""

    @pytest.mark.parametrize("cycle, repeats", [(1, 7), (3, 4), (5, 1)])
    def test_forward_equals_repeated_terms(self, cycle, repeats):
        flow = small_flow(x_dim=6, cond_dim=4, n_blocks=2, hidden=(16, 16), seed=95)
        rng = Rng(96)
        net = flow.nets[0]
        a = rng.standard_normal((cycle * repeats, net.x_in))
        cterm = net.condition(rng.standard_normal((cycle, 4)))
        got, got_cache = net.forward(a, cterm)
        ref, ref_cache = net.forward(a, np.tile(cterm, (repeats, 1)))
        assert np.array_equal(got, ref)
        assert all(np.array_equal(g, r) for g, r in zip(got_cache, ref_cache))

    # one pass, row blocks whose starts fall inside a cycle, and per-row terms in row blocks
    @pytest.mark.parametrize("n, cycle", [(12, 4), (1000, 8), (999, 3), (600, 600)])
    def test_inverse_equals_repeated_terms(self, monkeypatch, n, cycle):
        flow = small_flow(x_dim=5, cond_dim=4, n_blocks=3, hidden=(16,), seed=97)
        rng = Rng(98)
        z = rng.standard_normal((n, 5))
        terms = flow.condition(rng.standard_normal((cycle, 4)))
        repeated = [np.tile(t, (n // cycle, 1)) for t in terms]
        set_cpus(monkeypatch, 2)
        got = flow.inverse(z, terms)
        for ref in (flow.inverse(z, repeated), flow._inverse(z, repeated), flow._inverse(z, terms)):
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


class TestBlockedInverse:
    """`inverse` over many rows runs `INVERSE_ROWS`-row blocks on every usable CPU."""

    def _flow(self, x_dim, seed=90):
        flow = small_flow(x_dim=x_dim, cond_dim=4, n_blocks=3, hidden=(16, 16), seed=seed, randomize=0.3)
        rng = Rng(seed + 1)
        flow.set_normalization(rng.standard_normal(x_dim), np.exp(0.3 * rng.standard_normal(x_dim)),
                               rng.standard_normal(4), np.exp(0.3 * rng.standard_normal(4)))
        return flow, rng

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_row"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000, 2000])
    @pytest.mark.parametrize("x_dim", [16, 256])
    def test_bitwise_equal_to_one_pass(self, x_dim, n, shared):
        flow, rng = self._flow(x_dim)
        z = rng.standard_normal((n, x_dim))
        terms = flow.condition(rng.standard_normal((1 if shared else n, 4)))
        x, log_det = flow.inverse(z, terms)
        x_one, log_det_one = flow._inverse(z, terms)
        assert np.array_equal(x, x_one) and np.array_equal(log_det, log_det_one)

    @pytest.mark.parametrize("x_dim", [1, 3, 5, 16])
    def test_same_for_any_cpu_count(self, monkeypatch, x_dim):
        flow, rng = self._flow(x_dim)
        z = rng.standard_normal((2000, x_dim))
        terms = flow.condition(rng.standard_normal((2000, 4)))
        got = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            got.append(flow.inverse(z, terms))
        for x, log_det in got[1:]:
            assert np.array_equal(x, got[0][0]) and np.array_equal(log_det, got[0][1])

    @pytest.mark.parametrize("n, threads", [(1, 1), (INVERSE_ROWS, 1), (INVERSE_ROWS + 1, 1), (1000, 2)])
    def test_threads_by_row_count(self, monkeypatch, n, threads):
        flow, rng = self._flow(3)
        set_cpus(monkeypatch, 2)
        seen, body = [], CouplingFlow._inverse

        def recording(flow, z, terms):
            seen.append((threading.get_ident(), len(z)))
            return body(flow, z, terms)

        monkeypatch.setattr(CouplingFlow, "_inverse", recording)
        if threads == 1:
            def no_thread(thread):
                raise AssertionError("a pass over at most INVERSE_ROWS + 1 rows started a thread")

            monkeypatch.setattr(threading.Thread, "start", no_thread)
        flow.inverse(rng.standard_normal((n, 3)), flow.condition(rng.standard_normal((1, 4))))
        assert len({ident for ident, _ in seen}) == threads
        rows = [r for _, r in seen]
        assert sum(rows) == n and max(rows) <= INVERSE_ROWS + 1 and (threads == 1 or min(rows) > 1)

    def test_worker_error_reaches_the_caller_unchanged(self, monkeypatch):
        flow, rng = self._flow(3)
        set_cpus(monkeypatch, 2)
        err = FloatingPointError("non-finite activations in flow inverse")
        body = CouplingFlow._inverse

        def failing_in_workers(flow, z, terms):
            if threading.current_thread() is not threading.main_thread():
                raise err
            return body(flow, z, terms)

        monkeypatch.setattr(CouplingFlow, "_inverse", failing_in_workers)
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as info:
            flow.inverse(rng.standard_normal((1000, 3)), flow.condition(rng.standard_normal((1, 4))))
        assert info.value is err
        assert threading.active_count() == before


def record_threads(monkeypatch, owner, attr):
    """Replace `owner.attr` with a wrapper that adds the ident of each calling thread to the returned set."""
    threads, body = set(), getattr(owner, attr)

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return body(*args, **kwargs)

    monkeypatch.setattr(owner, attr, recording)
    return threads


class TestDrawInRuns:
    """`draw_in_runs` groups contiguous items into runs of at most `DRAW_RUN` draws."""

    def runs_of(self, monkeypatch, counts):
        runs, real = [], sf_flow.ordered_map

        def recording(fn, items):
            runs.extend(items)
            return real(fn, items)

        monkeypatch.setattr(sf_flow, "ordered_map", recording)
        filled = []
        draw_in_runs(filled.append, counts)
        assert sorted(filled) == list(range(len(counts)))  # every item once
        return [list(run) for run in runs]

    @pytest.mark.parametrize("counts, runs", [
        ([], [[]]),
        ([DRAW_RUN], [[0]]),
        ([DRAW_RUN + 1], [[0]]),
        ([DRAW_RUN // 2, DRAW_RUN // 2], [[0, 1]]),
        ([DRAW_RUN // 2, DRAW_RUN // 2 + 1], [[0], [1]]),
        ([1, DRAW_RUN, 1], [[0], [1], [2]]),
        ([2 * DRAW_RUN, 1, 1], [[0], [1, 2]]),
        ([DRAW_RUN // 4] * 10, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]),
    ])
    def test_runs(self, monkeypatch, counts, runs):
        assert self.runs_of(monkeypatch, counts) == runs


class TestParallelCreate:
    """`create` draws its blocks' weights in `draw_in_runs`' runs on every usable CPU."""

    # 9 blocks of 10240 draws: runs of 6 and 3 blocks at the module's DRAW_RUN
    X_DIM, CFG = 64, FlowConfig(n_blocks=9, hidden=(64, 64))

    @staticmethod
    def serial_reference(x_dim, cfg, rng):
        """The weights of one block after another, each from its own stream, on this thread."""
        flow = CouplingFlow(x_dim, x_dim, cfg)
        for k, net in enumerate(flow.nets):
            net_rng = rng.child(k)
            for W in net.weights[:-1]:
                W[...] = net_rng.standard_normal(W.shape) / np.sqrt(len(W))
        return flow.params

    @pytest.mark.parametrize("run", [None, 25000, 1], ids=["DRAW_RUN", "2_blocks", "1_block"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_serial_per_block_reference(self, monkeypatch, cpus, run):
        set_cpus(monkeypatch, cpus)
        if run is not None:
            monkeypatch.setattr(sf_flow, "DRAW_RUN", run)
        per_run = sf_flow.DRAW_RUN // 10240 or 1
        n_runs = -(-self.CFG.n_blocks // per_run)
        main = threading.get_ident()
        children = record_threads(monkeypatch, Rng, "child")
        drawing = record_threads(monkeypatch, Rng, "standard_normal")
        flow = CouplingFlow.create(self.X_DIM, self.X_DIM, Rng(5), self.CFG)
        monkeypatch.undo()
        assert np.array_equal(flow.params, self.serial_reference(self.X_DIM, self.CFG, Rng(5)))
        assert children == {main}
        w = min(cpus, n_runs)
        assert (drawing == {main}) if w == 1 else (main in drawing and 2 <= len(drawing) <= w)

    def test_a_draw_of_one_run_starts_no_thread(self, monkeypatch):
        cfg = FlowConfig(n_blocks=6, hidden=(64, 64))  # 6 blocks of 10240 draws: 61440 <= DRAW_RUN
        set_cpus(monkeypatch, 4)

        def no_thread(thread):
            raise AssertionError("create started a thread for one run of draws")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        flow = CouplingFlow.create(self.X_DIM, self.X_DIM, Rng(5), cfg)
        monkeypatch.undo()
        assert np.array_equal(flow.params, self.serial_reference(self.X_DIM, cfg, Rng(5)))


class TestNllLoss:
    def test_zero_flow_zero_batch(self):
        flow = small_flow(randomize=0.0)
        assert flow.nll_loss(np.zeros((5, 3)), np.zeros((5, 2))) == 0.0

    def test_trained_1d_standard_normal_reaches_entropy(self):
        # full NLL of a converged fit to N(0,1) approaches the differential
        # entropy 0.5*(1 + log 2*pi) ~= 1.4189
        rng = Rng(21)
        flow = CouplingFlow.create(1, 1, rng, FlowConfig(n_blocks=2, hidden=(16,)))
        x = rng.standard_normal((1500, 1))
        c = np.zeros((1500, 1))
        flow.fit_normalization(x[:1200], c[:1200])
        train_flow(flow, x[:1200], c[:1200], x[1200:], c[1200:], rng.child(99),
                   TrainConfig(max_epochs=150, patience=30))
        full_nll = flow.nll_loss(x, c) + 0.5 * LOG_2PI
        assert abs(full_nll - 0.5 * (1.0 + LOG_2PI)) < 0.05

    def test_gradients_match_central_differences(self):
        rng = Rng(17)
        x = rng.standard_normal((6, 3))
        c = rng.standard_normal((6, 2))
        for point_seed in (1, 2, 3):
            flow = small_flow(seed=point_seed, randomize=0.4)
            flow.set_normalization([0.0, 0.1, -0.1], [1.2, 0.9, 1.4], np.zeros(2), np.ones(2))
            _, grad = flow.nll_loss_and_grads(x, c)
            fd = fd_gradients(flow, x, c)
            for g, gf in zip(arrays(flow, grad), arrays(flow, fd)):
                rel = np.linalg.norm(g - gf) / (np.linalg.norm(gf) + 1e-10)
                assert rel <= 1e-4

    def test_density_normalizes_in_1d(self):
        rng = Rng(23)
        flow = CouplingFlow.create(1, 1, rng, FlowConfig(n_blocks=2, hidden=(8,)))
        flow.params += 0.2 * rng.standard_normal(flow.params.size)
        c = np.zeros((1, 1))
        grid = np.linspace(-8.0, 8.0, 4001)
        logp = np.array([flow.log_prob(np.array([[g]]), c)[0] for g in grid])
        integral = np.trapezoid(np.exp(logp), grid)
        assert abs(integral - 1.0) <= 1e-3


class TestTrainStep:
    def _batch(self, n=64, seed=31):
        # 2-D linear-Gaussian conditional target
        rng = Rng(seed)
        c = rng.standard_normal((n, 2))
        x = c @ np.array([[0.8, 0.1], [-0.2, 0.5]]) + 0.3 * rng.standard_normal((n, 2))
        return x, c

    def test_zero_learning_rate_leaves_weights(self):
        flow = small_flow(x_dim=2, cond_dim=2, seed=5)
        x, c = self._batch()
        before = flow.params.copy()
        opt = Adam(flow.params, 0.0, 0.0)
        loss, stepped = train_step(flow, opt, x, c)
        assert stepped
        assert np.isfinite(loss)
        assert np.array_equal(flow.params, before)

    def test_loss_decreases_over_repeated_batches(self):
        flow = small_flow(x_dim=2, cond_dim=2, n_blocks=4, hidden=(16, 16),
                          seed=6, randomize=0.0)
        x, c = self._batch(n=128)
        flow.fit_normalization(x, c)
        opt = Adam(flow.params, 1e-3, 0.0)
        losses = [train_step(flow, opt, x, c)[0] for _ in range(500)]
        for start in (0, 100, 200):
            assert losses[start + 100] < losses[start] - 1e-6

    def test_gradient_is_descent_direction(self):
        flow = small_flow(x_dim=2, cond_dim=2, seed=8)
        x, c = self._batch(n=32, seed=9)
        loss0, grad = flow.nll_loss_and_grads(x, c)
        flow.params -= 1e-4 * grad
        assert flow.nll_loss(x, c) < loss0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_nonfinite_gradient_element_skips_the_step(self, monkeypatch, bad, where):
        flow = small_flow(x_dim=2, cond_dim=2, seed=11)
        opt = Adam(flow.params, 1e-3, 1e-3)
        x, c = self._batch(n=8)
        train_step(flow, opt, x, c)  # moments that a skipped step must leave as they are
        _, grad = flow.nll_loss_and_grads(x, c)
        grad[{"first": 0, "middle": grad.size // 2, "last": -1}[where]] = bad
        monkeypatch.setattr(flow, "nll_loss_and_grads", lambda x, cond: (1.25, grad))
        before = [a.copy() for a in (flow.params, opt.m, opt.v)]
        assert train_step(flow, opt, x, c) == (1.25, False)
        assert opt.t == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip((flow.params, opt.m, opt.v), before))  # bitwise

    def test_nonfinite_gradients_skip_step(self):
        flow = small_flow(x_dim=2, cond_dim=2, seed=10)
        flow.nets[0].weights[0][0, 0] = np.nan
        opt = Adam(flow.params, 1e-3, 0.0)
        x, c = self._batch(n=8)
        with pytest.raises(FloatingPointError):
            train_step(flow, opt, x, c)


class TestAdamChunks:
    """`Adam.step` works through `ADAM_CHUNK`-element chunks; every element is updated on its own."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("chunk", [1, 7, ADAM_CHUNK])
    def test_equals_one_chunk(self, monkeypatch, chunk, weight_decay):
        size = ADAM_CHUNK + 1000  # more than one chunk at the module's size
        rng = Rng(99)
        start = rng.standard_normal(size).astype(np.float32)
        grads = rng.standard_normal((3, size)).astype(np.float32)
        got = []
        for c in (chunk, 2 * size):
            monkeypatch.setattr(sf_flow, "ADAM_CHUNK", c)
            opt = Adam(start.copy(), 1e-2, weight_decay)
            for g in grads:
                opt.step(g)
            assert opt._num.size == opt._den.size == min(c, size)  # scratch vectors of one chunk
            got.append((opt.params, opt.m, opt.v))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*got))


class TestParameterVector:
    def test_net_arrays_are_views_in_checkpoint_order(self):
        flow = small_flow(x_dim=5, cond_dim=2, n_blocks=3, hidden=(4, 6))
        nets = [a for net in flow.nets for W, b in zip(net.weights, net.biases) for a in (W, b)]
        assert all(np.shares_memory(a, flow.params) for a in nets)
        assert np.array_equal(np.concatenate([a.ravel() for a in nets]), flow.params)
        assert save_checkpoint(flow).endswith(flow.params.astype("<f8").tobytes())

    def test_adam_step_allocates_less_than_the_parameters(self):
        # a toy-sized flow (x_dim 256, default widths): the step works in place
        flow = CouplingFlow.create(256, 256, Rng(0), FlowConfig())
        rng = Rng(1)
        _, grad = flow.nll_loss_and_grads(rng.standard_normal((8, 256)), rng.standard_normal((8, 256)))
        opt = Adam(flow.params, 1e-3, 1e-3)
        tracemalloc.start()
        try:
            opt.step(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < flow.params.nbytes


class AdamReference:
    """Adam over a list of arrays, one at a time: the bitwise reference for `Adam`."""

    def __init__(self, params, lr, weight_decay):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            p -= self.lr * (self.m[i] / b1t) / (np.sqrt(self.v[i] / b2t) + self.eps)
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p


def train_flow_reference(flow, x_train, cond_train, x_val, cond_val, rng, lr, batch_size, max_epochs, patience,
                         weight_decay):
    """`train_flow` with a per-array optimizer, finiteness check and best-weight copy and restore, on the
    flow's own weights cast to float32."""
    flow.params = flow.params.astype(np.float32)
    flow.nets = flow._nets(flow.params)
    params = arrays(flow, flow.params)
    opt = AdamReference(params, lr, weight_decay)
    best_val, best_weights, since_best, history = np.inf, None, 0, []
    for epoch in range(max_epochs):
        order = rng.child(epoch).permutation(len(x_train))
        losses = []
        for start in range(0, len(x_train), batch_size):
            idx = order[start : start + batch_size]
            loss, grad = flow.nll_loss_and_grads(x_train[idx], cond_train[idx])
            grads = arrays(flow, grad)
            if np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads):
                opt.step(grads)
            losses.append(loss)
        val_loss = flow.nll_loss(x_val, cond_val)
        history.append((epoch, float(np.mean(losses)), val_loss))
        if val_loss < best_val - 1e-6:
            best_val, since_best = val_loss, 0
            best_weights = [p.copy() for p in params]
        else:
            since_best += 1
            if since_best >= patience:
                break
            if since_best % LR_PATIENCE == 0 and opt.lr > MIN_LR:
                for p, w in zip(params, best_weights):
                    p[...] = w
                opt = AdamReference(params, max(opt.lr * LR_FACTOR, MIN_LR), weight_decay)
    for p, w in zip(params, best_weights):
        p[...] = w
    return history


def lr_restarts(history):
    """Learning-rate restarts `train_flow` made, by its own plateau rule."""
    best, since, restarts = np.inf, 0, 0
    for _, _, val in history:
        if val < best - 1e-6:
            best, since = val, 0
        else:
            since += 1
            restarts += since % LR_PATIENCE == 0
    return restarts


class TestTrainingMatchesPerArrayReference:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_bitwise(self, weight_decay):
        rng = Rng(50)
        c = rng.standard_normal((200, 2))
        x = np.tanh(c @ rng.standard_normal((2, 3))) + 0.3 * rng.standard_normal((200, 3))
        flows = [CouplingFlow.create(3, 2, Rng(51), FlowConfig(n_blocks=3, hidden=(8, 8))) for _ in range(2)]
        for flow in flows:
            flow.fit_normalization(x, c)
        start = flows[0].params.copy()
        data = (x[:160], c[:160], x[160:], c[160:], Rng(52))
        kw = dict(lr=3e-2, batch_size=32, max_epochs=60, patience=35, weight_decay=weight_decay)
        history = train_flow(flows[0], *data, TrainConfig(**kw))
        assert history == train_flow_reference(flows[1], *data, **kw)
        assert lr_restarts(history) >= 1
        assert not np.array_equal(flows[0].params, start)
        assert np.array_equal(flows[0].params, flows[1].params)


class TestFloat32Training:
    """`train_flow` casts the flow's vector to `TRAIN_DTYPE` once and trains it in place; a new flow stays
    float64."""

    def test_trained_params_are_train_dtype_and_match_the_reference(self):
        rng = Rng(60)
        c = rng.standard_normal((120, 2))
        x = np.tanh(c @ rng.standard_normal((2, 3))) + 0.3 * rng.standard_normal((120, 3))
        flows = [CouplingFlow.create(3, 2, Rng(61), FlowConfig(n_blocks=2, hidden=(8,))) for _ in range(2)]
        for flow in flows:
            flow.fit_normalization(x, c)
        start = flows[0].params.copy()
        assert start.dtype == np.float64
        data = (x[:100], c[:100], x[100:], c[100:], Rng(62))
        train_flow(flows[0], *data, TrainConfig(lr=1e-2, max_epochs=5))
        train_flow_reference(flows[1], *data, lr=1e-2, batch_size=64, max_epochs=5, patience=50, weight_decay=0.0)
        flow = flows[0]
        assert flow.params.dtype == TRAIN_DTYPE and flows[1].params.dtype == TRAIN_DTYPE
        assert np.array_equal(flow.params, flows[1].params) and not np.array_equal(flow.params, start)
        assert all(np.shares_memory(W, flow.params) for net in flow.nets for W in (*net.weights, *net.biases))
        assert all(getattr(flow, k).dtype == np.float64 for k in ("x_mean", "x_scale", "cond_mean", "cond_scale"))

    def test_trains_without_a_second_parameter_vector(self):
        # a toy-sized flow (x_dim 256, default widths) trained for one epoch of one batch
        rng = Rng(65)
        x, c = rng.standard_normal((16, 256)), rng.standard_normal((16, 256))
        tracemalloc.start()
        try:
            flow = CouplingFlow.create(256, 256, Rng(66), FlowConfig())
            flow.fit_normalization(x, c)
            train_flow(flow, x[:8], c[:8], x[8:], c[8:], Rng(67), TrainConfig(max_epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 vector, Adam's four and a gradient or the best-weight snapshot: 6 float32 vectors;
        # a float32 copy beside the float64 vector would add 3 more
        assert flow.params.dtype == TRAIN_DTYPE and peak < 7 * flow.params.nbytes

    def test_improving_epochs_copy_the_weights_once(self):
        # every new best is copied into the buffer of the first one; a copy of the vector per improvement
        # would have two snapshots alive at once
        class CountingCopies(np.ndarray):
            copies = 0

            def copy(self, *args, **kwargs):
                CountingCopies.copies += 1
                return super().copy(*args, **kwargs)

        rng = Rng(68)
        c = rng.standard_normal((40, 2))
        x = c @ rng.standard_normal((2, 3)) + 0.3 * rng.standard_normal((40, 3))
        flow = small_flow(x_dim=3, cond_dim=2, seed=69)
        flow = with_params(flow, flow.params.astype(TRAIN_DTYPE).view(CountingCopies))
        flow.fit_normalization(x, c)
        history = train_flow(flow, x[:32], c[:32], x[32:], c[32:], Rng(70), TrainConfig(lr=1e-3, max_epochs=5))
        val = [v for _, _, v in history]
        assert all(b < a - 1e-6 for a, b in zip(val, val[1:]))  # five improvements
        assert CountingCopies.copies == 1

    def test_float32_gradients_match_float64(self):
        rng = Rng(63)
        x, c = rng.standard_normal((64, 5)), rng.standard_normal((64, 3))
        flow = small_flow(x_dim=5, cond_dim=3, n_blocks=3, hidden=(16, 16), seed=64, randomize=0.3)
        flow.set_normalization(0.1 * rng.standard_normal(5), [1.2, 0.9, 1.4, 1.1, 0.8], np.zeros(3), np.ones(3))
        flow.params[...] = flow.params.astype(np.float32)  # weights that both precisions hold exactly
        flow32 = CouplingFlow(5, 3, flow.config, flow.params.astype(TRAIN_DTYPE))
        flow32.set_normalization(flow.x_mean, flow.x_scale, flow.cond_mean, flow.cond_scale)
        loss, grad = flow.nll_loss_and_grads(x, c)
        loss32, grad32 = flow32.nll_loss_and_grads(x, c)
        assert grad.dtype == np.float64 and grad32.dtype == np.float32
        assert flow32.forward(x, c)[0].dtype == np.float32  # float64 inputs do not promote the passes back
        assert abs(loss32 - loss) <= 1e-5 * abs(loss)
        for g32, g in zip(arrays(flow32, grad32), arrays(flow, grad)):
            assert rel_err(g32, g) <= 1e-4


class TestSampling:
    def test_zero_weight_samples_are_latents(self):
        flow = small_flow(x_dim=2, cond_dim=1, randomize=0.0)
        cond = np.zeros(1)
        got = flow.sample(cond, 50, Rng(42))
        assert got.dtype == np.float64 and np.array_equal(got, Rng(42).standard_normal((50, 2)))

    def test_trained_conditional_moments(self):
        rng = Rng(77)
        c_all = rng.standard_normal((2000, 1))
        mean_map = 1.5
        noise = 0.4
        x_all = mean_map * c_all + noise * rng.standard_normal((2000, 1))
        flow = CouplingFlow.create(1, 1, rng.child(1), FlowConfig(n_blocks=2, hidden=(16,)))
        flow.fit_normalization(x_all, c_all)
        train_flow(flow, x_all[:1800], c_all[:1800], x_all[1800:], c_all[1800:],
                   rng.child(2), TrainConfig(max_epochs=120, patience=30))
        cond = np.array([0.7])
        n = 10_000
        draws = flow.sample(cond, n, rng.child(3))
        target_mean = mean_map * 0.7
        # 4-sigma Monte-Carlo bounds plus slack for residual training error
        assert abs(draws.mean() - target_mean) < 4 * noise / np.sqrt(n) + 0.1
        assert abs(draws.std() - noise) < 0.1

    def test_fixed_seed_determinism(self):
        flow = small_flow(seed=12)
        cond = np.array([0.1, -0.2])
        a = flow.sample(cond, 100, Rng(5))
        b = flow.sample(cond, 100, Rng(5))
        assert np.array_equal(a, b)

    def test_rejects_bad_n(self):
        flow = small_flow()
        with pytest.raises(ValueError):
            flow.sample(np.zeros(2), 0, Rng(0))


def traced(call):
    """(bytes still allocated after `call()` returns and its result is dropped, peak bytes above the start)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        after, peak = tracemalloc.get_traced_memory()
        return after - before, peak - before
    finally:
        tracemalloc.stop()


def params_casts():
    """(file, enclosing function) of every `<obj>.params.astype(...)` in the package's source."""
    found = []

    def visit(node, path, func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "params"):
            found.append((path.name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, path, node.name if isinstance(node, ast.FunctionDef) else func)

    for path in sorted(Path(scoreflow.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return found


def test_only_train_flow_casts_a_parameter_vector():
    # one precision per flow: every pass runs in the vector's dtype, which only training changes
    assert params_casts() == [("flow.py", "train_flow")]


class TestFloat32Sampling:
    """A flow samples in its vector's dtype: a trained flow in float32 on its own weights, a float64 flow in
    float64; neither allocates a copy of its weights, and samples come back in float64."""

    def _flow(self, seed=95, hidden=(64, 64), trained=False):
        # hidden widths large enough that a kept float32 copy of `params` would show
        flow = small_flow(x_dim=16, cond_dim=4, n_blocks=3, hidden=hidden, seed=seed, randomize=0.3)
        rng = Rng(seed + 1)
        flow.set_normalization(rng.standard_normal(16), np.exp(0.3 * rng.standard_normal(16)),
                               rng.standard_normal(4), np.exp(0.3 * rng.standard_normal(4)))
        if trained:  # one step, leaving the flow at float32 weights
            x, c = rng.standard_normal((8, 16)), rng.standard_normal((8, 4))
            train_flow(flow, x, c, None, None, rng.child(1), TrainConfig(max_epochs=1))
        return flow, rng

    def test_condition_terms_are_in_the_vector_dtype(self):
        # wide hidden layers, so that a cast of the weights would dwarf 5 rows' terms
        for trained in (False, True):
            flow, rng = self._flow(hidden=(512, 512), trained=trained)
            assert flow.params.dtype == (TRAIN_DTYPE if trained else np.float64)
            c = rng.standard_normal((5, 4))
            terms = flow.condition(c)
            assert isinstance(terms, list) and len(terms) == len(flow.nets)
            assert all(isinstance(t, np.ndarray) and t.shape == (5, 512) and t.dtype == flow.params.dtype
                       for t in terms)
            _, peak = traced(lambda: flow.condition(c))
            assert peak < flow.params.nbytes // 8

    def test_sample_leaves_no_float32_array_on_the_flow(self):
        for trained in (False, True):
            flow, rng = self._flow(trained=trained)
            dtypes = {k: v.dtype for k, v in vars(flow).items() if isinstance(v, np.ndarray)}
            keys = set(vars(flow))
            cond = rng.standard_normal(4)
            flow.sample(cond, 300, Rng(3))  # warm-up: lazy set-up inside numpy and the pool
            grown, _ = traced(lambda: flow.sample(cond, 300, Rng(3)))
            assert set(vars(flow)) == keys
            assert {k: v.dtype for k, v in vars(flow).items() if isinstance(v, np.ndarray)} == dtypes
            assert dtypes.pop("params") == (TRAIN_DTYPE if trained else np.float64)
            assert all(d == np.float64 for d in dtypes.values())
            assert grown < flow.params.nbytes // 20  # a kept float32 copy would be half of params.nbytes or more

    def test_sample_on_a_trained_flow_allocates_nothing_parameter_sized(self):
        # wide hidden layers, so that a cast of the weights would dwarf 20 draws' activations
        flow, rng = self._flow(hidden=(512, 512), trained=True)
        cond = rng.standard_normal(4)
        flow.sample(cond, 20, Rng(3))  # warm-up: lazy set-up inside numpy and the pool
        _, peak = traced(lambda: flow.sample(cond, 20, Rng(3)))
        assert flow.params.dtype == TRAIN_DTYPE and peak < flow.params.nbytes // 8

    def test_inverse_still_matches_float64_reference_after_sampling(self):
        flow, rng = self._flow()
        flow.sample(rng.standard_normal(4), 50, Rng(4))
        c, z = rng.standard_normal((12, 4)), rng.standard_normal((12, 16))
        x, ld = flow.inverse(z, flow.condition(c))
        x_ref, ld_ref = inverse_reference(flow, z, c)
        assert x.dtype == np.float64 and rel_err(x, x_ref) <= 1e-12 and rel_err(ld, ld_ref) <= 1e-12

    def test_same_on_one_and_two_cpus(self, monkeypatch):
        flow, rng = self._flow()
        cond = rng.standard_normal(4)
        got = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            got.append(flow.sample(cond, 1000, Rng(6)))
        assert np.array_equal(got[0], got[1])


class TestPosteriorMeanEstimate:
    """The fiducial update's estimate: the mean of a flow's draws."""

    def test_identity_flow_mean_near_zero(self):
        flow = small_flow(x_dim=2, cond_dim=1, randomize=0.0)
        n_s = 100_000
        est = flow.sample(np.zeros(1), n_s, Rng(8)).mean(axis=0)
        assert np.abs(est).max() <= 4.0 / np.sqrt(n_s)

    def test_matches_large_reference_sampling(self):
        flow = small_flow(x_dim=2, cond_dim=2, seed=15, randomize=0.2)
        cond = np.array([0.5, -0.5])
        est = flow.sample(cond, 20_000, Rng(10)).mean(axis=0)
        ref = flow.sample(cond, 200_000, Rng(11)).mean(axis=0)
        spread = flow.sample(cond, 1000, Rng(12)).std(axis=0).max()
        assert np.abs(est - ref).max() < 4 * spread / np.sqrt(20_000) + 4 * spread / np.sqrt(200_000)


class TestCheckpoint:
    def test_roundtrip_bitwise(self):
        flow = small_flow(x_dim=4, cond_dim=3, seed=20)
        flow.set_normalization(
            [0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0], [0.0, 0.1, 0.2], [1.0, 1.5, 2.0]
        )
        blob = save_checkpoint(flow)
        flow2 = load_checkpoint(blob)
        rng = Rng(6)
        x = rng.standard_normal((5, 4))
        c = rng.standard_normal((5, 3))
        z1, ld1 = flow.forward(x, c)
        z2, ld2 = flow2.forward(x, c)
        assert np.array_equal(z1, z2)
        assert np.array_equal(ld1, ld2)
        assert save_checkpoint(flow2) == blob

    def test_corrupted_magic_rejected(self):
        blob = bytearray(save_checkpoint(small_flow()))
        blob[0] ^= 0xFF
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = save_checkpoint(small_flow())
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(blob[: len(blob) // 2])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_v3_byte_layout(self, dtype):
        flow = small_flow(x_dim=2, cond_dim=1, n_blocks=1, hidden=(3,), seed=21)
        flow.set_normalization([0.5, -0.5], [2.0, 3.0], [0.25], [4.0])
        flow = with_params(flow, flow.params.astype(dtype))
        width = np.dtype(dtype).itemsize
        blob = save_checkpoint(flow)
        # block 0 keeps lo (1 wide) and transforms hi (1 wide): W0 (1 + 1, 3), b0 (3), W1 (3, 2), b1 (2)
        assert flow.params.size == 6 + 3 + 6 + 2
        header = 8 + 6 * 4 + 8 + 4 * 1  # magic, u32 header, s_max, one hidden width
        assert len(blob) == header + 8 * (2 + 2 + 1 + 1) + width * 17
        assert blob[:8] == b"SFLOWCKP"
        # version, x_dim, cond_dim, n_blocks, n_hidden, width
        assert struct.unpack("<IIIIII", blob[8:32]) == (3, 2, 1, 1, 1, width)
        assert struct.unpack("<dI", blob[32:header]) == (2.0, 3)  # s_max, the hidden width
        norms = np.frombuffer(blob, "<f8", 6, offset=header)
        assert np.array_equal(norms, [0.5, -0.5, 2.0, 3.0, 0.25, 4.0])  # x_mean, x_scale, cond_mean, cond_scale
        params = np.frombuffer(blob, f"<f{width}", offset=header + 8 * 6)
        assert np.array_equal(params, flow.params)

    @pytest.mark.parametrize("hidden", [(), (4,), (3, 5)])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    @pytest.mark.parametrize("x_dim", [1, 2, 5])
    def test_length_and_roundtrip_over_shapes(self, x_dim, n_blocks, hidden):
        flow = small_flow(x_dim=x_dim, cond_dim=2, n_blocks=n_blocks, hidden=hidden, seed=x_dim + 10 * n_blocks)
        flow.set_normalization(0.1 * np.arange(x_dim), 1.0 + np.arange(x_dim), [0.2, -0.3], [0.5, 2.5])
        for flow in (flow, with_params(flow, flow.params.astype(np.float32))):
            blob = save_checkpoint(flow)
            # magic, u32 header, s_max, hidden widths, then the four normalization vectors and the parameters
            width = flow.params.itemsize
            assert len(blob) == 8 + 24 + 8 + 4 * len(hidden) + 8 * (2 * x_dim + 2 * 2) + width * flow.params.size
            back = load_checkpoint(blob)
            assert (back.x_dim, back.cond_dim) == (x_dim, 2)
            assert (back.config.hidden, len(back.nets), back.changed) == (hidden, n_blocks, flow.changed)
            assert back.params.dtype == flow.params.dtype
            for name in ("params", "x_mean", "x_scale", "cond_mean", "cond_scale"):
                assert np.array_equal(getattr(back, name), getattr(flow, name)), name
            assert save_checkpoint(back) == blob

    def test_save_of_load_is_identity_at_both_widths(self):
        flow = small_flow(x_dim=4, cond_dim=3, seed=22)
        x, c = Rng(23).standard_normal((40, 4)), Rng(24).standard_normal((40, 3))
        flow.fit_normalization(x, c)
        trained = with_params(flow, flow.params.copy())
        train_flow(trained, x, c, None, None, Rng(25), TrainConfig(max_epochs=2))
        for flow, dtype in ((flow, np.float64), (trained, np.float32)):
            blob = save_checkpoint(flow)
            assert struct.unpack("<I", blob[28:32]) == (np.dtype(dtype).itemsize,)
            back = load_checkpoint(blob)
            assert back.params.dtype == dtype and save_checkpoint(back) == blob
            assert all(np.shares_memory(W, back.params) for net in back.nets for W in net.weights)

    @pytest.mark.parametrize("width", [0, 2, 16])
    def test_other_widths_refused_before_nets_are_built(self, monkeypatch, width):
        blob = bytearray(save_checkpoint(small_flow()))
        width_at = 8 + 5 * 4  # magic, version, x_dim, cond_dim, n_blocks, n_hidden
        assert blob[width_at : width_at + 4] == np.array([8], dtype="<u4").tobytes()
        blob[width_at : width_at + 4] = np.array([width], dtype="<u4").tobytes()
        self._forbid_nets(monkeypatch)
        with pytest.raises(CheckpointError, match=f"^checkpoint parameter width must be 4 or 8 bytes, got {width}$"):
            load_checkpoint(bytes(blob))

    def test_v2_checkpoint_refused(self, monkeypatch):
        # version 2 had no width field and stored the parameters as f8: a float64 flow's v3 payload less the width
        blob = save_checkpoint(small_flow(x_dim=4, cond_dim=2, n_blocks=2, hidden=(8,)))
        v2 = blob[:8] + struct.pack("<I", 2) + blob[12:28] + blob[32:]
        self._forbid_nets(monkeypatch)
        with pytest.raises(CheckpointError, match="^unsupported checkpoint version 2, expected 3$"):
            load_checkpoint(v2)

    @staticmethod
    def _forbid_nets(monkeypatch):
        def no_nets(*args, **kwargs):
            raise AssertionError("ConditioningNet built before the payload length was checked")

        monkeypatch.setattr("scoreflow.flow.ConditioningNet", no_nets)

    def test_length_checked_before_nets_are_built(self, monkeypatch):
        # a short payload whose header claims two 4000-wide hidden layers
        # (about 130 MB of weights per block) is refused from its length
        blob = bytearray(save_checkpoint(small_flow(x_dim=4, cond_dim=2, n_blocks=2, hidden=(8, 8))))
        hidden_at = 8 + 6 * 4 + 8  # magic, u32 header, s_max
        assert blob[hidden_at : hidden_at + 8] == np.array([8, 8], dtype="<u4").tobytes()
        blob[hidden_at : hidden_at + 8] = np.array([4000, 4000], dtype="<u4").tobytes()
        self._forbid_nets(monkeypatch)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bytes(blob))

    def test_huge_block_count_refused_before_nets_are_built(self, monkeypatch):
        blob = bytearray(save_checkpoint(small_flow(n_blocks=2)))
        n_blocks_at = 8 + 3 * 4  # magic, version, x_dim, cond_dim
        assert blob[n_blocks_at : n_blocks_at + 4] == np.array([2], dtype="<u4").tobytes()
        blob[n_blocks_at : n_blocks_at + 4] = np.array([2**32 - 1], dtype="<u4").tobytes()
        self._forbid_nets(monkeypatch)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bytes(blob))

    def test_forged_block_and_layer_counts_refused_within_the_payload(self):
        # 60000 blocks of 60000 one-wide layers: the header's counts alone would list 7.2e9 shapes
        header = b"SFLOWCKP" + struct.pack("<IIIIIId", 3, 4, 2, 60000, 60000, 4, 2.0)
        header += struct.pack("<60000I", *[1] * 60000)
        blob = header + bytes(720_000 - len(header))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(blob)

    def test_load_allocates_the_parameter_vector_once(self):
        # the flow adopts the vector read from the payload, at its width, instead of copying it into a second one
        flow = CouplingFlow.create(16, 16, Rng(0), FlowConfig())
        for flow in (flow, with_params(flow, flow.params.astype(np.float32))):
            blob = save_checkpoint(flow)
            tracemalloc.start()
            try:
                back = load_checkpoint(blob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert back.params.dtype == flow.params.dtype and np.array_equal(back.params, flow.params)
            assert peak <= 1.2 * flow.params.nbytes

    def test_v1_checkpoint_refused_before_nets_are_built(self, monkeypatch):
        # version 1 stored each block's kept-half mask, n_blocks * x_dim bytes, after the hidden widths
        # and, like version 2, had no width field
        blob = save_checkpoint(small_flow(x_dim=4, cond_dim=2, n_blocks=2, hidden=(8,)))
        header = 8 + 6 * 4 + 8 + 4 * 1  # magic, u32 header, s_max, one hidden width
        masks = bytes([1, 1, 0, 0, 0, 0, 1, 1])  # block 0 keeps lo, block 1 keeps hi
        v1 = blob[:8] + struct.pack("<I", 1) + blob[12:28] + blob[32:header] + masks + blob[header:]
        self._forbid_nets(monkeypatch)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1, expected 3"):
            load_checkpoint(v1)

    @pytest.mark.parametrize("s_max", [0.0, -2.0, np.inf, np.nan])
    def test_bad_s_max_rejected(self, s_max):
        blob = bytearray(save_checkpoint(small_flow()))
        s_max_at = 8 + 6 * 4  # magic, u32 header
        blob[s_max_at : s_max_at + 8] = np.array([s_max], dtype="<f8").tobytes()
        with pytest.raises(CheckpointError, match="s_max"):
            load_checkpoint(bytes(blob))

    def test_zero_hidden_width_rejected(self):
        # nets with a zero-wide hidden layer ignore their input; the header is refused by FlowConfig's rule
        blob = bytearray(save_checkpoint(small_flow(hidden=(8,))))
        hidden_at = 8 + 6 * 4 + 8  # magic, u32 header, s_max
        blob[hidden_at : hidden_at + 4] = np.array([0], dtype="<u4").tobytes()
        with pytest.raises(CheckpointError, match=r"checkpoint hidden widths must be >= 1, got \[0\]"):
            load_checkpoint(bytes(blob))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(save_checkpoint(small_flow()) + b"\x00")

    def test_version_mismatch_rejected(self):
        blob = bytearray(save_checkpoint(small_flow()))
        blob[8] = 99  # version field
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bytes(blob))
