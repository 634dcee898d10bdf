"""Conditional affine-coupling normalizing flow with exact log-det-Jacobian.

The flow maps a target vector x to a latent z conditioned on a summary
vector, through a stack of coupling blocks. The coordinates are split into
two contiguous halves, lo = x[:, :x_dim // 2] and hi = x[:, x_dim // 2:].
Even blocks keep lo and transform hi, odd blocks the reverse; for
x_dim == 1 lo is empty and every block transforms the single coordinate,
driven by the conditioner alone. The transformed half gets an elementwise
scale-and-shift predicted by a small MLP from the kept half plus the
conditioner. The Jacobian is triangular, so the log-det is the sum of the
coupling log-scales.

The MLP's first weight matrix has an x part and a condition part. The
condition's term cn @ W_c + b is computed once per (block, condition) by
`condition` and added to the x part's product on every pass, the pass's
rows cycling through its rows: `sample` shares one row among all its
draws, and `summary.mean_updates` cycles each slot of a block of records
through those records' terms.

Precision: a flow computes in its parameter vector's dtype, in every
pass. A flow that `create` or `CouplingFlow(...)` builds holds a float64
vector; `train_flow` casts it to `TRAIN_DTYPE` (float32) once and trains
it in place, so a trained flow, its checkpoint and a loaded flow hold
float32 weights and sample in float32, and a float64 flow samples in
float64. Inputs, latents and normalization are float64; inputs are
rounded to the vector's dtype after normalizing, and latents as they
enter a pass. Each pass scales by `x_scale`, adds `x_mean` and
returns in float64.

Training is maximum likelihood on (x, cond) pairs: the loss is the batch
mean of 0.5*||z||^2 - log_det. Note this drops the (d/2)*log(2*pi) base
density constant, which does not move the minimizer; `log_prob` includes
it, so exp(log_prob) is a normalized density.

Every weight and bias of a flow is a view into one contiguous
vector, `CouplingFlow.params`, in checkpoint order: block by block, and
within a block's net W0, b0, W1, b1, ... with each W row-major (fan_in,
fan_out). Gradients come back as one vector in the same layout, so an
optimizer step, a finiteness check or a best-weight snapshot is one
vector operation.

Gradients are computed by hand-written reverse-mode passes; there is no
autodiff framework underneath, which keeps checkpoints and training
bitwise reproducible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import LOG_2PI, ByteReader, Rng, ShapeError, ordered_map

CHECKPOINT_MAGIC = b"SFLOWCKP"
CHECKPOINT_VERSION = 3

# reduce-on-plateau schedule of `train_flow`; a validation loss improves on the best one by more than MIN_IMPROVEMENT
MIN_IMPROVEMENT = 1e-6
LR_PATIENCE = 10
LR_FACTOR = 0.5
MIN_LR = 1e-5

# `inverse` and `summary.mean_updates` cut their work by `blocks`, on every usable CPU: at most
# MAX_BLOCKS blocks, so that a pass starts at most MAX_BLOCKS - 1 threads, and blocks of at least
# INVERSE_ROWS rows for `inverse` (`summary.ADVANCE_ROWS` for `mean_updates`) where there are that many.
# Constants, not settings, and never the CPU count: BLAS may round a row by an ulp differently for
# another block size, so fixed sizes keep outputs the same whatever the CPU count.
INVERSE_ROWS = 256
MAX_BLOCKS = 40

# `Adam.step` works through its vectors in chunks of this many elements, so that the step's passes
# over one chunk stay in cache. A vector of up to 2^17 elements (the linear problem's 130,656) is one chunk.
ADAM_CHUNK = 1 << 17

# the dtype `train_flow` casts a flow's vector to (see module doc)
TRAIN_DTYPE = np.float32


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or mismatched checkpoints and bundle manifests."""


def check_ranges(cfg, keys, rule: str, ok) -> None:
    """ValueError("<key> <rule>, got <value>") for the first of `keys` whose value on `cfg` fails `ok`."""
    for key in keys:
        value = getattr(cfg, key)
        if not ok(value):
            raise ValueError(f"{key} {rule}, got {value}")


@dataclass(frozen=True)
class FlowConfig:
    """Flow architecture: the config's `flow` block, and the header of every checkpoint."""

    n_blocks: int = 6
    hidden: tuple[int, ...] = (128, 128)
    s_max: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        check_ranges(self, ("n_blocks",), "must be >= 1", lambda v: v >= 1)
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        check_ranges(self, ("s_max",), "must be positive and finite", lambda v: 0.0 < v < math.inf)


@dataclass(frozen=True)
class TrainConfig:
    """Training schedule: the config's `training` block (less `n_train` and
    `stages`) and the bundle manifest's `train_config`."""

    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 64
    max_epochs: int = 400
    patience: int = 50
    n_s_train: int = 64
    n_s_infer: int = 256
    val_fraction: float = 0.1

    def __post_init__(self):
        check_ranges(self, ("batch_size", "max_epochs", "patience", "n_s_train", "n_s_infer"), "must be >= 1",
                     lambda v: v >= 1)
        check_ranges(self, ("lr",), "must be positive", lambda v: v > 0)
        check_ranges(self, ("weight_decay",), "must be >= 0", lambda v: v >= 0)
        check_ranges(self, ("val_fraction",), "must be in [0, 1)", lambda v: 0.0 <= v < 1.0)


class ConditioningNet:
    """MLP with tanh hidden layers predicting raw (log-scale, shift) heads.

    Its input is the kept half of x (`x_in` columns) followed by the
    normalized conditioner, so the first weight matrix holds the x rows
    first and the condition rows after them. `weights` and `biases` are
    views into the flow's parameter vector.
    """

    def __init__(self, x_in: int, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.x_in = x_in
        self.weights = weights
        self.biases = biases

    def condition(self, cn: np.ndarray) -> np.ndarray:
        """The conditioner's share of the first pre-activation, bias included."""
        return cn @ self.weights[0][self.x_in :] + self.biases[0]

    def forward(self, a: np.ndarray, cterm: np.ndarray):
        """Output for kept-half rows `a` plus a cache for backward.

        `cterm` comes from `condition`, and the rows of `a` cycle through its
        rows: row r of `a` takes row r % len(cterm). So it holds one row per
        row of `a`, a single row shared by all of them, or the rows of c
        conditions that `a` repeats slot after slot. Nothing is copied.
        """
        h = a @ self.weights[0][: self.x_in]
        cycled = h.reshape(-1, *cterm.shape)  # a view: h is a new C-ordered array
        cycled += cterm
        cache = [a]
        for W, b in zip(self.weights[1:], self.biases[1:]):
            np.tanh(h, out=h)  # in place, saving a (rows, width) temporary per layer
            cache.append(h)  # post-activation, reused as 1 - h^2 in backward
            h = h @ W
            h += b
        return h, cache

    def backward(self, dout: np.ndarray, cache, cn: np.ndarray, grad_weights, grad_biases):
        """Backprop `dout` through the net, writing the parameter gradients into
        the views `grad_weights` and `grad_biases`; returns d kept half. `cn`
        is the per-row conditioner the forward pass's term came from."""
        dh = dout
        for i in range(len(self.weights) - 1, 0, -1):
            act = cache[i]
            np.matmul(act.T, dh, out=grad_weights[i])
            np.sum(dh, axis=0, out=grad_biases[i])
            dh = (dh @ self.weights[i].T) * (1.0 - act * act)
        np.matmul(cache[0].T, dh, out=grad_weights[0][: self.x_in])
        np.matmul(cn.T, dh, out=grad_weights[0][self.x_in :])
        np.sum(dh, axis=0, out=grad_biases[0])
        return dh @ self.weights[0][: self.x_in].T


def transformed_halves(x_dim: int, n_blocks: int) -> list[int]:
    """Per block, the half it transforms: 1 for hi, 0 for lo (see module doc)."""
    return [1 if k % 2 == 0 or x_dim == 1 else 0 for k in range(n_blocks)]


def half_widths(x_dim: int) -> tuple[int, int]:
    """Widths of (lo, hi)."""
    return x_dim // 2, x_dim - x_dim // 2


def net_shapes(x_dim: int, cond_dim: int, hidden, changed: int) -> list[tuple[int, ...]]:
    """Shapes of W0, b0, W1, b1, ... of the net of a block that transforms half `changed`."""
    widths = half_widths(x_dim)
    w = [widths[1 - changed] + cond_dim, *hidden, 2 * widths[changed]]
    return [shape for fan_in, fan_out in zip(w, w[1:]) for shape in ((fan_in, fan_out), (fan_out,))]


def param_shapes(x_dim: int, cond_dim: int, cfg: FlowConfig) -> list[tuple[int, ...]]:
    """Shapes of the arrays of a flow's parameter vector, in order: block by block, its net's `net_shapes`."""
    return [s for c in transformed_halves(x_dim, cfg.n_blocks) for s in net_shapes(x_dim, cond_dim, cfg.hidden, c)]


def blocks(n: int, k: int, rows: int) -> list[range]:
    """Contiguous blocks of n items of k rows each: m = max(ceil(n / `MAX_BLOCKS`), ceil(rows / k)) items
    a block. A last block of one row joins the one before it, as BLAS rounds 1-row products another way;
    with `rows` >= 2 no other block has one row."""
    m = max(-(-n // MAX_BLOCKS), -(-rows // k))
    starts = list(range(0, n, m))
    if k == 1 and len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    return [range(a, b) for a, b in zip(starts, starts[1:] + [n])]


class CouplingFlow:
    """Stack of conditional affine coupling blocks with input normalization.

    Normalization constants (per-dimension affine standardization of both
    the target and the conditioner) are part of the model and stored in
    checkpoints; the x-side normalization contributes -sum(log(scale)) to
    the log-det.
    """

    def __init__(self, x_dim, cond_dim, cfg: FlowConfig, params=None):
        """A flow whose parameters are views into `params` (`param_shapes`' layout, of the dtype the flow
        computes in), or all zero float64 if it is None."""
        self.x_dim = int(x_dim)
        self.cond_dim = int(cond_dim)
        self.config = cfg
        self.changed = transformed_halves(self.x_dim, cfg.n_blocks)
        self._shapes = param_shapes(self.x_dim, self.cond_dim, cfg)
        self.params = np.zeros(sum(math.prod(s) for s in self._shapes)) if params is None else params
        self.nets = self._nets(self.params)
        self.x_mean = np.zeros(self.x_dim)
        self.x_scale = np.ones(self.x_dim)
        self.cond_mean = np.zeros(self.cond_dim)
        self.cond_scale = np.ones(self.cond_dim)

    @classmethod
    def create(cls, x_dim, cond_dim, rng: Rng, cfg: FlowConfig):
        """A flow to train: block k draws its hidden weights from N(0, 1/fan_in)
        with `rng.child(k)`, on the calling thread. Biases and output layers
        stay zero, so the flow starts as the identity coupling (unit scale,
        zero shift)."""
        flow = cls(x_dim, cond_dim, cfg)
        for k, net in enumerate(flow.nets):
            stream = rng.child(k)
            for W in net.weights[:-1]:
                W[...] = stream.standard_normal(W.shape) / np.sqrt(len(W))
        return flow

    def views(self, vec: np.ndarray) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
        """Per block, (weights, biases) views into `vec`, laid out like `params`."""
        ends = np.cumsum([math.prod(s) for s in self._shapes])[:-1]
        arrays = [a.reshape(s) for a, s in zip(np.split(vec, ends), self._shapes)]
        n = 2 * len(self.config.hidden) + 2  # arrays per block
        return [(arrays[k : k + n : 2], arrays[k + 1 : k + n : 2]) for k in range(0, len(arrays), n)]

    def _nets(self, vec: np.ndarray) -> list[ConditioningNet]:
        """Per block, the conditioning net whose weights are views into `vec`."""
        widths = half_widths(self.x_dim)
        return [ConditioningNet(widths[1 - c], *views) for c, views in zip(self.changed, self.views(vec))]

    def set_normalization(self, x_mean, x_scale, cond_mean, cond_scale):
        """Copies of the four vectors become the flow's; if any is refused (a non-finite one with the
        FloatingPointError training reports as divergence), the flow keeps its own."""
        values = [np.array(v, dtype=np.float64) for v in (x_mean, x_scale, cond_mean, cond_scale)]
        dims = (self.x_dim, self.x_dim, self.cond_dim, self.cond_dim)
        for name, v, d in zip(("x_mean", "x_scale", "cond_mean", "cond_scale"), values, dims):
            if v.shape != (d,):
                raise ShapeError(f"{name} must have shape ({d},), got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise FloatingPointError(f"{name} must be finite")
        if np.any(values[1] <= 0.0) or np.any(values[3] <= 0.0):
            raise ValueError("normalization scales must be positive")
        self.x_mean, self.x_scale, self.cond_mean, self.cond_scale = values

    def fit_normalization(self, x: np.ndarray, cond: np.ndarray):
        """Estimate standardization constants from a training set; each scale is at least 1e-8."""
        self.set_normalization(
            x.mean(axis=0),
            np.maximum(x.std(axis=0), 1e-8),
            cond.mean(axis=0),
            np.maximum(cond.std(axis=0), 1e-8),
        )

    @staticmethod
    def _rows(a, width: int, name: str):
        """`a` as a float array of shape (batch, width)."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != width:
            raise ShapeError(f"{name} must be (batch, {width}), got {a.shape}")
        return a

    def _squash(self, u):
        """s_max * tanh(u / s_max), computed in one new array."""
        s_max = self.config.s_max
        s = np.divide(u, s_max)
        np.tanh(s, out=s)
        s *= s_max
        return s

    def _split(self, x):
        """[lo, hi] views of the two coordinate halves."""
        lo = self.x_dim // 2
        return [x[:, :lo], x[:, lo:]]

    def _coupling(self, net, kept, cterm):
        """One block's (log-scale, shift, net cache) for its transformed half."""
        raw, net_cache = net.forward(kept, cterm)
        n_free = raw.shape[1] // 2
        return self._squash(raw[:, :n_free]), raw[:, n_free:], net_cache

    def _forward_impl(self, x, cond, want_cache: bool):
        x, cond = self._rows(x, self.x_dim, "x"), self._rows(cond, self.cond_dim, "cond")
        if x.shape[0] != cond.shape[0]:
            raise ShapeError(f"batch sizes disagree: {x.shape[0]} vs {cond.shape[0]}")
        # inputs in the vector's dtype: float64 ones would promote float32 weights back to float64
        dtype = self.params.dtype
        cn = ((cond - self.cond_mean) / self.cond_scale).astype(dtype, copy=False)
        halves = self._split(((x - self.x_mean) / self.x_scale).astype(dtype, copy=False))
        log_det = np.full(x.shape[0], -np.sum(np.log(self.x_scale)))
        caches = []
        for i, net in zip(self.changed, self.nets):
            b = halves[i]
            s, t, net_cache = self._coupling(net, halves[1 - i], net.condition(cn))
            es = np.exp(s)
            halves[i] = b * es + t
            log_det = log_det + s.sum(axis=1)
            if want_cache:
                caches.append((b, s, es, net_cache))
        z = np.concatenate(halves, axis=1)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("non-finite activations in flow forward")
        if want_cache:
            return z, log_det, cn, caches
        return z, log_det

    def forward(self, x, cond):
        """Map x to latent z; returns (z, log_det) with log_det per sample."""
        return self._forward_impl(x, cond, want_cache=False)

    def condition(self, cond) -> list[np.ndarray]:
        """Per block, the condition term of the rows of `cond` in the vector's dtype, for `inverse`."""
        cn = (self._rows(cond, self.cond_dim, "cond") - self.cond_mean) / self.cond_scale
        cn = cn.astype(self.params.dtype, copy=False)
        return [net.condition(cn) for net in self.nets]

    def inverse(self, z, terms):
        """Map latent z back to x given the terms `condition` computed, so that
        several passes on the same conditions compute them once: a single row
        shared by all rows of z, or one row per row of z. x comes back in
        float64. Returns (x, log_det) with the forward's log_det negated at the
        corresponding point. The rows run in `blocks` of at least `INVERSE_ROWS`
        through `ordered_map`, on every usable CPU."""
        z = self._rows(z, self.x_dim, "x")
        if len(terms) != len(self.nets) or len(terms[0]) not in (1, len(z)):
            raise ShapeError(f"terms must be `condition`'s for one row or {len(z)} rows")
        z = z.astype(self.params.dtype, copy=False)
        parts = [slice(r.start, r.stop) for r in blocks(len(z), 1, INVERSE_ROWS)]
        if len(parts) == 1:
            return self._inverse(z, terms)
        shared = len(terms[0]) == 1

        def block(rows):
            return self._inverse(z[rows], terms if shared else [t[rows] for t in terms])

        x, log_det = np.empty(z.shape), np.empty(len(z))
        for rows, (x_rows, log_det_rows) in zip(parts, ordered_map(block, parts)):
            x[rows], log_det[rows] = x_rows, log_det_rows
        return x, log_det

    def _inverse(self, z, terms):
        """`inverse` on checked arguments of the vector's dtype in one pass, the
        rows of z cycling through the rows of `terms` as in
        `ConditioningNet.forward`; its only callers, `inverse` and
        `summary.mean_updates`, call it from worker threads. Each coupling
        block gives its transformed half one new array and updates it in
        place; both halves are then scaled into one float64 output array."""
        halves = self._split(z)
        log_det = np.full(len(z), np.sum(np.log(self.x_scale)))
        for i, net, cterm in zip(reversed(self.changed), reversed(self.nets), reversed(terms)):
            s, t, _ = self._coupling(net, halves[1 - i], cterm)
            log_det -= s.sum(axis=1)
            halves[i] = halves[i] - t  # never in place: a half starts as a view of z
            halves[i] *= np.exp(np.negative(s, out=s), out=s)
        x = np.empty(z.shape)
        for h, out, scale in zip(halves, self._split(x), self._split(self.x_scale[None, :])):
            np.multiply(h, scale, out=out)
        x += self.x_mean
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite activations in flow inverse")
        return x, log_det

    def nll_loss(self, x, cond) -> float:
        """Batch mean of 0.5*||z||^2 - log_det (base-density constant dropped)."""
        z, log_det = self.forward(x, cond)
        loss = float(np.mean(0.5 * np.sum(z * z, axis=1) - log_det))
        if not np.isfinite(loss):
            raise FloatingPointError("non-finite flow training loss")
        return loss

    def log_prob(self, x, cond) -> np.ndarray:
        """Per-sample log density, including the Gaussian base constant."""
        z, log_det = self.forward(x, cond)
        return -0.5 * np.sum(z * z, axis=1) - 0.5 * self.x_dim * LOG_2PI + log_det

    def nll_loss_and_grads(self, x, cond):
        """Loss plus its gradient w.r.t. `params`, as one vector of the same
        layout and dtype (hand-written backprop)."""
        z, log_det, cn, caches = self._forward_impl(x, cond, want_cache=True)
        batch = z.shape[0]
        loss = float(np.mean(0.5 * np.sum(z * z, axis=1) - log_det))
        dhalves = self._split(z / batch)
        # d(loss)/d(log_det contribution) is -1/batch for every sample and block
        dld = np.full((batch, 1), -1.0 / batch, dtype=self.params.dtype)
        grad = np.empty_like(self.params)  # every element is written by a net's backward
        grad_views = self.views(grad)
        for k in range(len(self.nets) - 1, -1, -1):
            i = self.changed[k]
            b, s, es, net_cache = caches[k]
            db2 = dhalves[i]
            du = (db2 * b * es + dld) * (1.0 - (s / self.config.s_max) ** 2)
            dkept = self.nets[k].backward(np.concatenate([du, db2], axis=1), net_cache, cn, *grad_views[k])
            dhalves[1 - i] = dhalves[1 - i] + dkept
            dhalves[i] = db2 * es
        return loss, grad

    def sample(self, cond_vec, n: int, rng: Rng) -> np.ndarray:
        """n conditional draws via the inverse flow on standard-normal latents."""
        cond_vec = np.asarray(cond_vec, dtype=np.float64)
        if cond_vec.shape != (self.cond_dim,):
            raise ShapeError(f"cond must have shape ({self.cond_dim},), got {cond_vec.shape}")
        if n < 1:
            raise ValueError("n must be >= 1")
        z = rng.standard_normal((n, self.x_dim))
        x, _ = self.inverse(z, self.condition(cond_vec[None, :]))
        return x


class Adam:
    """Adaptive-moment optimizer over a parameter vector, updated in place.

    A step works through its vectors in chunks of `ADAM_CHUNK` elements,
    with two scratch vectors of one chunk that it owns, so it allocates
    nothing. Each expression keeps its association (for example
    ((1-b2)*g)*g), which the bitwise training tests pin down; every element
    is updated on its own, so the chunk size moves no bit.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty(min(params.size, ADAM_CHUNK), params.dtype)
        self._den = np.empty_like(self._num)

    def step(self, grad: np.ndarray):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for start in range(0, self.params.size, ADAM_CHUNK):
            chunk = slice(start, start + ADAM_CHUNK)
            p, m, v, g = self.params[chunk], self.m[chunk], self.v[chunk], grad[chunk]
            num, den = self._num[: len(p)], self._den[: len(p)]
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=num)
            v *= self.beta2
            v += np.multiply(np.multiply(1.0 - self.beta2, g, out=num), g, out=num)
            np.sqrt(np.divide(v, b2t, out=den), out=den)
            den += self.eps
            p -= np.divide(np.multiply(self.lr, np.divide(m, b1t, out=num), out=num), den, out=num)
            if self.weight_decay:
                p -= np.multiply(self.lr * self.weight_decay, p, out=num)


def train_step(flow: CouplingFlow, opt: Adam, x, cond):
    """One optimizer step on a batch; returns (loss before step, stepped).

    Non-finite gradients skip the step and report stepped=False.
    """
    loss, grad = flow.nll_loss_and_grads(x, cond)
    # min and max allocate no temporary of the vector's size, as `np.isfinite(grad)` would
    if not (np.isfinite(loss) and np.isfinite(grad.min()) and np.isfinite(grad.max())):
        return loss, False
    opt.step(grad)
    return loss, True


def train_flow(flow: CouplingFlow, x_train, cond_train, x_val, cond_val, rng: Rng, cfg: TrainConfig):
    """Maximum-likelihood training with early stopping on validation NLL.

    The learning rate is halved whenever validation loss has not improved
    for `LR_PATIENCE` epochs (reduce-on-plateau); training stops once it
    has not improved for `cfg.patience` epochs. Returns a history list of
    (epoch, train_loss, val_loss). The flow's vector is cast to
    `TRAIN_DTYPE` once and stepped in place; the flow is left at the
    weights with the best validation loss seen.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    cond_train = np.asarray(cond_train, dtype=np.float64)
    n = x_train.shape[0]
    if n < 1:
        raise ValueError("training set is empty")
    flow.params = flow.params.astype(TRAIN_DTYPE, copy=False)
    flow.nets = flow._nets(flow.params)
    opt = Adam(flow.params, cfg.lr, cfg.weight_decay)
    have_val = x_val is not None and len(x_val) > 0
    best_val, best, since_best, history = np.inf, None, 0, []
    for epoch in range(cfg.max_epochs):
        order = rng.child(epoch).permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, _ = train_step(flow, opt, x_train[idx], cond_train[idx])
            losses.append(loss)
        train_loss = float(np.mean(losses))
        val_loss = flow.nll_loss(x_val, cond_val) if have_val else train_loss
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val - MIN_IMPROVEMENT:
            best_val = val_loss
            if best is None:
                best = flow.params.copy()
            else:
                best[...] = flow.params  # one buffer for every improvement
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
            if since_best % LR_PATIENCE == 0 and opt.lr > MIN_LR:
                # restart from the best weights seen at a lower learning rate
                if best is not None:
                    flow.params[...] = best
                lr = max(opt.lr * LR_FACTOR, MIN_LR)
                opt = None  # frees the old moment and scratch vectors before the new ones are allocated
                opt = Adam(flow.params, lr, cfg.weight_decay)
    if best is not None:
        flow.params[...] = best
    return history


def best_epoch(history) -> tuple[int, float]:
    """(epoch, validation loss) of the weights `train_flow` left the flow at, read from its history."""
    best = history[0]
    for entry in history:
        if entry[2] < best[2] - MIN_IMPROVEMENT:
            best = entry
    return best[0], best[2]


def save_checkpoint(flow: CouplingFlow) -> bytes:
    """Serialize a flow to a versioned binary payload.

    Layout (little-endian): magic "SFLOWCKP" | u32 version | u32 x_dim |
    u32 cond_dim | u32 n_blocks | u32 n_hidden | u32 width | f64 s_max |
    u32 hidden widths | x_mean, x_scale, cond_mean, cond_scale as f64
    vectors | the parameter vector as floats of `width` bytes, 4 or 8, its
    dtype's. Which half each block transforms follows from x_dim and
    n_blocks, so it is not stored.
    """
    cfg, width = flow.config, flow.params.itemsize
    return b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<IIIIII", CHECKPOINT_VERSION, flow.x_dim, flow.cond_dim, cfg.n_blocks, len(cfg.hidden), width),
        struct.pack("<d", cfg.s_max),
        struct.pack(f"<{len(cfg.hidden)}I", *cfg.hidden),
        *(np.asarray(v, "<f8").tobytes() for v in (flow.x_mean, flow.x_scale, flow.cond_mean, flow.cond_scale)),
        np.asarray(flow.params, f"<f{width}").tobytes(),
    ])


def load_checkpoint(data: bytes) -> CouplingFlow:
    """Reconstruct a flow from `save_checkpoint` output, read front to back; the flow adopts the vector read."""
    r = ByteReader(data, CHECKPOINT_MAGIC, CheckpointError, "checkpoint")
    version, x_dim, cond_dim, n_blocks, n_hidden, width = r.unpack("<IIIIII")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    if width not in (4, 8):
        raise CheckpointError(f"checkpoint parameter width must be 4 or 8 bytes, got {width}")
    (s_max,) = r.unpack("<d")
    hidden = r.unpack(f"<{n_hidden}I")
    try:
        cfg = FlowConfig(n_blocks, hidden, s_max)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {exc}") from exc
    if x_dim < 1:
        raise CheckpointError("checkpoint x_dim must be at least 1")
    # every layer of every block stores at least a one-float bias, which bounds the shapes `param_shapes` lists
    if n_blocks * (n_hidden + 1) * width > len(data):
        raise CheckpointError("checkpoint truncated")
    norms = [r.array(d, "<f8") for d in (x_dim, x_dim, cond_dim, cond_dim)]
    params = r.array(sum(math.prod(s) for s in param_shapes(x_dim, cond_dim, cfg)), f"<f{width}")
    r.finish()
    if not (np.isfinite(params.min()) and np.isfinite(params.max())):  # no temporary of the vector's size
        raise CheckpointError("checkpoint parameters must be finite")
    out = CouplingFlow(x_dim, cond_dim, cfg, params)
    try:
        out.set_normalization(*norms)
    except (ValueError, FloatingPointError) as exc:
        raise CheckpointError(f"checkpoint normalization: {exc}") from exc
    return out
