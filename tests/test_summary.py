import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from scoreflow.flow import SAMPLE_DTYPE, CouplingFlow, FlowConfig, TrainConfig, train_flow
from scoreflow.numerics import ByteReader, Rng, SpdMatrix
from scoreflow.pipeline import PipelineError, train_pipeline
from scoreflow.problems import LinearGaussianProblem
from scoreflow.summary import (
    _KEY_ADVANCE,
    DATASET_MAGIC,
    DatasetError,
    advance_stage,
    build_stage0,
    load_dataset,
    save_dataset,
)


def tiny_problem(seed=1, x_dim=2, y_dim=4):
    rng = Rng(seed)
    A = rng.standard_normal((y_dim, x_dim))
    return LinearGaussianProblem(
        A, np.zeros(x_dim), SpdMatrix.identity(x_dim), SpdMatrix.diagonal(np.full(y_dim, 0.25))
    )


def identity_flow(x_dim):
    return CouplingFlow.create(x_dim, x_dim, Rng(0), FlowConfig(n_blocks=2, hidden=(4,)))


class TestBuildStage0:
    def test_residual_is_truth_minus_fiducial(self):
        # the default fiducial here is zero, so the residual equals the truth
        p = tiny_problem()
        ds = build_stage0(p, 20, Rng(2))
        assert ds.stage == 0
        assert np.array_equal(ds.dx, ds.x_true)
        assert np.abs(ds.x_fid).max() == 0.0

    def test_scores_recompute_bitwise(self):
        p = tiny_problem()
        ds = build_stage0(p, 10, Rng(3))
        for i in range(ds.n_records):
            assert np.array_equal(ds.ybar[i], p.score(ds.x_fid[i], ds.y[i]))

    def test_observation_consistency(self):
        # y was simulated from x_true, so the observation residual has
        # noise-sized magnitude rather than signal-sized
        p = tiny_problem()
        ds = build_stage0(p, 200, Rng(4))
        resid = ds.y - ds.x_true @ p.A.T
        assert abs(resid.std() - 0.5) < 0.05

    def test_val_split_size_and_position(self):
        # the split is the last floor(val_fraction * n) records: the rows a suffix mask selects
        for val_fraction, n_val in ((0.25, 5), (0.0, 0), (0.99, 19)):
            ds = build_stage0(tiny_problem(), 20, Rng(5), val_fraction=val_fraction)
            assert ds.n_val == n_val
            is_val = np.arange(20) >= 20 - n_val
            for got, m in ((ds.train_arrays(), ~is_val), (ds.val_arrays(), is_val)):
                assert np.array_equal(got[0], ds.dx[m]) and np.array_equal(got[1], ds.ybar[m])

    def test_determinism(self):
        p = tiny_problem()
        a = build_stage0(p, 8, Rng(6))
        b = build_stage0(p, 8, Rng(6))
        assert np.array_equal(a.x_true, b.x_true)
        assert np.array_equal(a.y, b.y)

    def test_record_streams_are_independent_of_count(self):
        # record i is identical no matter how many records follow it
        p = tiny_problem()
        small = build_stage0(p, 3, Rng(7))
        large = build_stage0(p, 10, Rng(7))
        assert np.array_equal(small.x_true, large.x_true[:3])
        assert np.array_equal(small.y, large.y[:3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_stage0(tiny_problem(), 0, Rng(0))

    @pytest.mark.parametrize("val_fraction", [-0.3, 1.0, 1.5])
    def test_rejects_out_of_range_val_fraction(self, val_fraction):
        # outside [0, 1) the split would hold a negative count or every record
        with pytest.raises(ValueError, match=r"val_fraction must be in \[0, 1\)"):
            build_stage0(tiny_problem(), 10, Rng(0), val_fraction=val_fraction)


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


def inverse_reference(flow, z, cond):
    """Boolean-mask coupling inverse with a concatenated first layer."""
    cn = (cond - flow.cond_mean) / flow.cond_scale
    xn = z.copy()
    for m, net in zip(reversed(masks_reference(flow.x_dim, len(flow.nets))), reversed(flow.nets)):
        h = np.concatenate([xn[:, m], cn], axis=1)
        for i, (W, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ W + b
            if i < len(net.weights) - 1:
                h = np.tanh(h)
        n_free = int((~m).sum())
        s = flow.config.s_max * np.tanh(h[:, :n_free] / flow.config.s_max)
        out = xn.copy()
        out[:, ~m] = (xn[:, ~m] - h[:, n_free:]) * np.exp(-s)
        xn = out
    return xn * flow.x_scale + flow.x_mean


class TestAdvanceStage:
    @pytest.mark.parametrize("x_dim", [1, 3, 16])
    def test_matches_per_slot_mask_reference(self, x_dim):
        p = tiny_problem(seed=30 + x_dim, x_dim=x_dim, y_dim=x_dim + 2)
        ds = build_stage0(p, 9, Rng(31))
        rng = Rng(32)
        flow = CouplingFlow.create(x_dim, x_dim, rng, FlowConfig(n_blocks=4, hidden=(8, 8)))
        flow.params += 0.4 * rng.standard_normal(flow.params.size)
        flow.fit_normalization(ds.dx, ds.ybar)
        n_s = 6
        got = advance_stage(ds, flow, p, n_s, Rng(33))
        z = np.stack([Rng(33).child(_KEY_ADVANCE, 1, i).standard_normal((n_s, x_dim)) for i in range(9)])
        update = np.zeros((9, x_dim))
        for k in range(n_s):
            update += inverse_reference(flow, z[:, k, :], ds.ybar)
        ref = ds.x_fid + update / n_s
        # the slots' passes run in float32: within float32 rounding of the float64 reference
        assert np.linalg.norm(got.x_fid - ref) <= 1e-5 * np.linalg.norm(ref)


    def test_identity_flow_update_is_latent_mean(self):
        # an untrained flow is the identity, so each update is the mean of
        # n_s standard-normal draws: small but nonzero
        p = tiny_problem()
        ds = build_stage0(p, 5, Rng(8))
        flow = identity_flow(p.x_dim)
        n_s = 10_000
        ds1 = advance_stage(ds, flow, p, n_s, Rng(9))
        assert ds1.stage == 1
        shift = ds1.x_fid - ds.x_fid
        assert np.abs(shift).max() <= 5.0 / np.sqrt(n_s)
        assert np.array_equal(ds1.x_true, ds.x_true)
        assert np.array_equal(ds1.y, ds.y)
        assert ds1.n_val == ds.n_val

    def test_residuals_and_scores_recomputed(self):
        p = tiny_problem()
        ds = build_stage0(p, 6, Rng(10))
        ds1 = advance_stage(ds, identity_flow(p.x_dim), p, 16, Rng(11))
        assert np.allclose(ds1.dx, ds1.x_true - ds1.x_fid, atol=0)
        for i in range(ds1.n_records):
            assert np.array_equal(ds1.ybar[i], p.score(ds1.x_fid[i], ds1.y[i]))

    def test_residual_is_truth_minus_fiducial_bitwise(self):
        # the residual is derived, not stored: after two updates it is exactly x_true - x_fid,
        # and the training and validation residuals are its leading and trailing rows
        p = tiny_problem()
        ds = build_stage0(p, 10, Rng(10), val_fraction=0.3)
        flow = CouplingFlow.create(p.x_dim, p.x_dim, Rng(12), FlowConfig(n_blocks=2, hidden=(4,)))
        flow.params += 0.3 * Rng(13).standard_normal(flow.params.size)
        for stage in (1, 2):
            ds = advance_stage(ds, flow, p, 8, Rng(11))
            assert ds.stage == stage and ds.n_val == 3
            dx = ds.x_true - ds.x_fid
            assert np.array_equal(ds.dx, dx)
            assert np.array_equal(ds.train_arrays()[0], dx[:7])
            assert np.array_equal(ds.val_arrays()[0], dx[7:])

    def test_trained_flow_contracts_residuals(self):
        p = tiny_problem(seed=20)
        ds = build_stage0(p, 400, Rng(12))
        flow = CouplingFlow.create(p.x_dim, p.x_dim, Rng(13), FlowConfig(n_blocks=4, hidden=(32,)))
        dx_tr, ybar_tr = ds.train_arrays()
        dx_val, ybar_val = ds.val_arrays()
        flow.fit_normalization(dx_tr, ybar_tr)
        train_flow(flow, dx_tr, ybar_tr, dx_val, ybar_val, Rng(14),
                   TrainConfig(max_epochs=120, patience=30))
        ds1 = advance_stage(ds, flow, p, 64, Rng(15))
        before = np.abs(ds.dx).mean()
        after = np.abs(ds1.dx).mean()
        assert after < 0.5 * before

    def test_determinism(self):
        p = tiny_problem()
        ds = build_stage0(p, 4, Rng(16))
        flow = identity_flow(p.x_dim)
        a = advance_stage(ds, flow, p, 8, Rng(17))
        b = advance_stage(ds, flow, p, 8, Rng(17))
        assert np.array_equal(a.x_fid, b.x_fid)

    def test_rejects_bad_n_s(self):
        p = tiny_problem()
        ds = build_stage0(p, 2, Rng(18))
        with pytest.raises(ValueError):
            advance_stage(ds, identity_flow(p.x_dim), p, 0, Rng(19))


class TestFloat32Slots:
    """The slots' passes run in `SAMPLE_DTYPE` on transient weights; the latent buffer is float32.
    `TestParallelSlots` checks that the result is the same on 1 and 2 CPUs."""

    def test_no_float32_array_stays_and_peak_is_below_a_float64_latent_buffer(self, monkeypatch):
        n, n_s, x_dim = 40, 64, 16
        p = tiny_problem(seed=50, x_dim=x_dim, y_dim=x_dim + 2)
        ds = build_stage0(p, n, Rng(51))
        rng = Rng(52)
        # hidden width large enough that a kept float32 copy of `params` would show
        flow = CouplingFlow.create(x_dim, x_dim, rng, FlowConfig(n_blocks=2, hidden=(64,)))
        flow.params += 0.3 * rng.standard_normal(flow.params.size)
        flow.fit_normalization(ds.dx, ds.ybar)
        set_cpus(monkeypatch, 2)  # at most two slots' results alive at once, on any host
        keys = set(vars(flow))
        advance_stage(ds, flow, p, n_s, Rng(53))  # warm-up: lazy set-up inside numpy and the pool
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            advance_stage(ds, flow, p, n_s, Rng(53))
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(vars(flow)) == keys
        assert all(v.dtype == np.float64 for v in vars(flow).values() if isinstance(v, np.ndarray))
        assert after - before < flow.params.nbytes // 2  # no float32 copy of the weights is kept
        assert peak - before < n * n_s * x_dim * 8


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestParallelSlots:
    """`advance_stage` runs its slots' passes on every usable CPU and sums them in slot order."""

    def _setup(self):
        p = tiny_problem(seed=40, x_dim=3, y_dim=5)
        ds = build_stage0(p, 9, Rng(41))
        rng = Rng(42)
        flow = CouplingFlow.create(3, 3, rng, FlowConfig(n_blocks=4, hidden=(8, 8)))
        flow.params += 0.4 * rng.standard_normal(flow.params.size)
        flow.fit_normalization(ds.dx, ds.ybar)
        return p, ds, flow

    @pytest.mark.parametrize("n_s", [1, 5, 64])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_serial_loop_over_public_inverse(self, monkeypatch, cpus, n_s):
        p, ds, flow = self._setup()
        set_cpus(monkeypatch, cpus)
        threads, body = set(), CouplingFlow._inverse

        def recording(flow, z, terms):
            threads.add(threading.get_ident())
            return body(flow, z, terms)

        monkeypatch.setattr(CouplingFlow, "_inverse", recording)
        got = advance_stage(ds, flow, p, n_s, Rng(43))
        monkeypatch.undo()
        w = min(cpus, n_s)
        assert (len(threads) == 1) if w == 1 else (2 <= len(threads) <= w)
        # latents and terms as `advance_stage` builds them, in the passes' dtype
        z = np.stack([Rng(43).child(_KEY_ADVANCE, 1, i).standard_normal((n_s, 3)) for i in range(9)])
        z = z.astype(SAMPLE_DTYPE)
        terms = flow.condition(ds.ybar, SAMPLE_DTYPE)
        update = np.zeros((9, 3))
        for k in range(n_s):
            update += flow.inverse(z[:, k, :], terms)[0]
        update /= n_s
        assert np.array_equal(got.x_fid, ds.x_fid + update)

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        p, ds, flow = self._setup()
        set_cpus(monkeypatch, 1)
        serial = advance_stage(ds, flow, p, 64, Rng(43))
        set_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [advance_stage(ds, flow, p, 64, Rng(43)) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for got in threaded:
            assert np.array_equal(got.x_fid, serial.x_fid)

    def test_worker_error_reaches_the_caller_unchanged(self, monkeypatch):
        p, ds, flow = self._setup()
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
            advance_stage(ds, flow, p, 5, Rng(43))
        assert info.value is err
        assert threading.active_count() == before
        cfg = TrainConfig(max_epochs=2, patience=2, n_s_train=4)
        with pytest.raises(PipelineError, match="fiducial advancement diverged after stage 0") as info:
            train_pipeline(p, 12, 2, FlowConfig(n_blocks=2, hidden=(8,)), cfg, Rng(44))
        assert info.value.__cause__ is err
        assert len(info.value.pipeline.flows) == 1

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        p, ds, flow = self._setup()
        set_cpus(monkeypatch, 2)
        two = advance_stage(ds, flow, p, 64, Rng(43))
        set_cpus(monkeypatch, 1)

        def no_thread(thread):
            raise AssertionError("advance_stage started a thread on one CPU")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        one = advance_stage(ds, flow, p, 64, Rng(43))
        monkeypatch.undo()
        assert np.array_equal(one.x_fid, two.x_fid)
        assert np.array_equal(one.ybar, two.ybar)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        p, ds, flow = self._setup()
        set_cpus(monkeypatch, 2)
        before = threading.active_count()
        advance_stage(ds, flow, p, 64, Rng(43))
        assert threading.active_count() == before


class TestSerialization:
    def _dataset(self):
        p = tiny_problem()
        return build_stage0(p, 7, Rng(21), val_fraction=0.3)

    def test_roundtrip_bitwise(self):
        ds = self._dataset()
        blob = save_dataset(ds)
        ds2 = load_dataset(blob)
        assert (ds2.stage, ds2.n_val) == (ds.stage, ds.n_val) == (0, 2)
        for name in ("x_true", "y", "x_fid", "dx", "ybar"):
            assert np.array_equal(getattr(ds2, name), getattr(ds, name))
        assert save_dataset(ds2) == blob
        # version 2 layout: the header, then x_true, y, x_fid and ybar as little-endian f64
        header = DATASET_MAGIC + struct.pack("<IIIIII", 2, 0, 7, 2, 4, 2)
        arrays = b"".join(a.astype("<f8").tobytes() for a in (ds.x_true, ds.y, ds.x_fid, ds.ybar))
        assert blob == header + arrays

    def test_version_1_payload_is_refused(self):
        # the earlier layout: a five-field header, one split tag per record, then dx among the arrays
        ds = self._dataset()
        tags = (np.arange(7) >= 5).astype(np.uint8).tobytes()
        arrays = b"".join(a.astype("<f8").tobytes() for a in (ds.x_true, ds.y, ds.x_fid, ds.dx, ds.ybar))
        blob = DATASET_MAGIC + struct.pack("<IIIII", 1, 0, 7, 2, 4) + tags + arrays
        with pytest.raises(DatasetError, match="unsupported dataset version 1, expected 2"):
            load_dataset(blob)

    def test_bad_magic(self):
        blob = bytearray(save_dataset(self._dataset()))
        blob[0] ^= 0xFF
        with pytest.raises(DatasetError, match="magic"):
            load_dataset(bytes(blob))

    def test_truncation(self):
        blob = save_dataset(self._dataset())
        with pytest.raises(DatasetError, match="truncated"):
            load_dataset(blob[:-8])

    def test_record_count_checked_before_reading(self):
        # a header claiming 2**32 - 1 records is refused from the payload length
        blob = bytearray(save_dataset(self._dataset()))
        blob[16:20] = (2**32 - 1).to_bytes(4, "little")  # n, after magic, version and stage
        with pytest.raises(DatasetError, match="truncated"):
            load_dataset(bytes(blob))

    def test_trailing_bytes(self):
        blob = save_dataset(self._dataset())
        with pytest.raises(DatasetError, match="trailing"):
            load_dataset(blob + b"\x00")

    def test_version_mismatch(self):
        blob = bytearray(save_dataset(self._dataset()))
        blob[8] = 77
        with pytest.raises(DatasetError, match="version"):
            load_dataset(bytes(blob))

    @pytest.mark.parametrize("x_dim, y_dim", [(0, 2), (2, 0)], ids=["x_dim", "y_dim"])
    def test_zero_width_records(self, x_dim, y_dim):
        # a payload consistent with its header, whose 3 records would each be empty in one field
        n = 3
        blob = DATASET_MAGIC + struct.pack("<IIIIII", 2, 0, n, x_dim, y_dim, 1)
        blob += bytes(8 * n * (3 * x_dim + y_dim))
        with pytest.raises(DatasetError, match="x_dim and y_dim must be at least 1"):
            load_dataset(blob)

    @pytest.mark.parametrize("arrays", [True, False], ids=["whole_payload", "header_only"])
    def test_more_validation_records_than_records(self, monkeypatch, arrays):
        blob = bytearray(save_dataset(self._dataset()))
        blob[28:32] = (8).to_bytes(4, "little")  # n_val, the header's last field, of 7 records
        if not arrays:
            del blob[32:]

        def no_read(*args):
            raise AssertionError("an array was read before the header was checked")

        monkeypatch.setattr(ByteReader, "array", no_read)
        with pytest.raises(DatasetError, match="8 validation records but only 7 records"):
            load_dataset(bytes(blob))
