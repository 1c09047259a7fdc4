"""DDPM forward process, training objective and the DDIM sampler for a small
MLP.

The noise predictor is a fully-connected net (4 hidden layers of width 128 by
default) with a sinusoidal timestep embedding projected and added after the
first layer. Its forward pass and training loss are built as engine records,
so gradients of the loss and its Hessian-gradient product come from the
record. Weight matrices are stored [out, in] in ``params``, each with a
same-shape mask in ``masks`` under the same name; the forward reads
weight * mask, so a weight or mask rebound to a new array is what the next
call uses. Biases stay dense.

Sampling and fine-tuning run a compacted copy of the predictor
(``NoisePredictor.compact``). A hidden unit whose effective incoming row is
all zero, as after a row-group hard prune, emits a constant, because biases
are never masked. Compaction folds that constant into the next layer's bias
and drops the unit's row and the matching column of the next layer, so the
matmuls cover only the surviving units. The copy keeps the raw weights under
their masks, so masked-out entries of surviving rows stay frozen when it
trains, and ``write_back`` scatters its parameters into the full layout. An
unpruned model compacts to itself, so its samples do not change.

Parameters, masks and Adam's moments are float32 (``TRAIN_DTYPE``), and
``loss_inputs`` casts its float64 noisy input, embedding and noise to the
parameters' dtype, so every training step replays its record, gradient
included, in float32. Taylor and gradient-flow scores and the gradient-norm
diagnostic replay in float32 too, and sum their results in float64; only
the oracles and tests run on ``float64()`` copies.
The data math (``noisy_sample``, the embedding table) stays float64.

``Adam`` keeps the training state flat. Building it concatenates the
parameters, in dict order, into one contiguous vector and rebinds each
``params[name]`` to its view of that vector; its moments, the gradient and
two scratch vectors share the layout, and the step count is a 0-d array
it owns. A step copies the gradients in and runs whole-vector ufuncs in the
per-array update's order, so it gives that update's bits without
allocating. Write parameters in place after that, as a checkpoint load
does with Adam's state too: an entry rebound to a new array no longer
trains, and ``Adam.step`` raises when it finds one.

``sample_ddim`` runs the compacted predictor in float32. It casts the
effective weights to float32 once per call, and ``predict`` casts each
block's rows and the step's embedding row to the weights' dtype, so the
engine replays the forward in single precision. The DDIM update and the
returned samples stay float64. The sampler draws all its
starting noise at once, then carries one block of rows at a time through
every step, so a block's widest activation fits in ``_BLOCK_BYTES``
(512 KiB: 1024 float32 rows at width 128) and its elementwise ops work in
cache. Every row of a step shares its timestep, so ``predict`` takes a
scalar ``t`` and projects that one embedding row, broadcast to the block.
Loss records still feed one embedding row per batch row, so training,
scoring and the HVP replay exactly the records they did. Samples differ
from a float64 forward by float32 rounding (3e-7 to 5e-7 of their largest
magnitude on two trained default-width models at 100 steps), and the
matmuls' rounding also depends on a block's row count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Record
from .seeding import make_rng


# The precision of parameters, masks and Adam's moments, and so of every
# training step; see the module docstring for what stays float64.
TRAIN_DTYPE = np.float32


class TrainingDiverged(RuntimeError):
    """Raised when the training loss blows past the divergence limit."""


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule with cached alpha products."""

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray


def make_schedule(T: int, beta_start: float, beta_end: float) -> DiffusionSchedule:
    if T < 2:
        raise ValueError("T must be at least 2")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got "
                         f"{beta_start} and {beta_end}")
    beta = np.linspace(beta_start, beta_end, T)
    return DiffusionSchedule(T=T, beta=beta, alpha_bar=np.cumprod(1.0 - beta))


@dataclass
class TrainBatch:
    x0: np.ndarray
    t: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.int64)
        self.eps = np.asarray(self.eps, dtype=np.float64)
        if self.x0.shape != self.eps.shape or self.t.shape != (self.x0.shape[0],):
            raise ValueError("inconsistent batch shapes")


def noisy_sample(sched: DiffusionSchedule, x0: np.ndarray, t: np.ndarray,
                 eps: np.ndarray) -> np.ndarray:
    """sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, per batch row."""
    t = np.asarray(t, dtype=np.int64)
    if np.any(t < 0) or np.any(t >= sched.T):
        raise ValueError("timestep out of range")
    ab = sched.alpha_bar[t][:, None]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


# Embedding rows of timesteps 0, 1, ..., n-1 per dim, grown on demand. Each
# row is computed once by the same elementwise formula, so a gathered row has
# the bits a direct evaluation at that timestep would give.
_TEMB_TABLES: dict[int, np.ndarray] = {}


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps >= 0, [len(t), dim]; dim
    must be even. Rows are gathered from a per-dim table."""
    if dim % 2:
        raise ValueError("embedding dim must be even")
    t = np.asarray(t)
    if t.ndim != 1 or t.dtype.kind not in "iu" or t.min(initial=0) < 0:
        raise ValueError("timesteps must be a 1-D array of integers >= 0")
    table = _TEMB_TABLES.get(dim, np.empty((0, dim)))
    need = int(t.max(initial=-1)) + 1
    if need > len(table):
        half = dim // 2
        if half == 1:
            freqs = np.ones(1)
        else:
            freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
        steps = np.arange(len(table), need, dtype=np.float64)
        args = steps[:, None] * freqs[None, :]
        rows = np.concatenate([np.sin(args), np.cos(args)], axis=1)
        table = _TEMB_TABLES[dim] = np.concatenate([table, rows])
    return table.take(t, axis=0)


class NoisePredictor:
    """MLP noise predictor over [batch, dim] data, with SiLU activations."""

    def __init__(self, dim: int, hidden: int = 128, depth: int = 4,
                 temb_dim: int = 64, seed: int = 0):
        if temb_dim % 2:
            raise ValueError("temb_dim must be even")
        for what, size in (("hidden", hidden), ("depth", depth),
                           ("temb_dim", temb_dim)):
            if size < 1:
                raise ValueError(f"{what} must be at least 1, got {size}")
        self.dim = dim
        self.hidden = hidden
        self.depth = depth
        self.temb_dim = temb_dim
        rng = make_rng(seed, "init")

        def he(out_n, in_n):
            w = rng.standard_normal((out_n, in_n)) * np.sqrt(2.0 / in_n)
            return w.astype(TRAIN_DTYPE)

        self.params: dict[str, np.ndarray] = {}
        self.masks: dict[str, np.ndarray] = {}
        sizes = [(f"layer0", dim, hidden), ("temb", temb_dim, hidden)]
        sizes += [(f"layer{k}", hidden, hidden) for k in range(1, depth)]
        sizes += [("out", hidden, dim)]
        for tag, in_n, out_n in sizes:
            self.params[f"{tag}.w"] = he(out_n, in_n)
            self.params[f"{tag}.b"] = np.zeros(out_n, TRAIN_DTYPE)
            self.masks[f"{tag}.w"] = np.ones((out_n, in_n), TRAIN_DTYPE)
        self._records: dict[tuple, Record] = {}

    # Final projection: structured (group) pruning skips it, or it could
    # delete output coordinates outright.
    @property
    def output_weights(self) -> tuple[str, ...]:
        return ("out.w",)

    @property
    def bias_names(self) -> list[str]:
        return [n for n in self.params if n.endswith(".b")]

    def bias_param_count(self) -> int:
        return sum(self.params[n].size for n in self.bias_names)

    def float64(self) -> "NoisePredictor":
        """A copy with float64 parameters and masks, for the oracles and
        tests; no run path makes one. It shares this predictor's records,
        which replay in the precision of their feed."""
        wide = copy.copy(self)
        wide.params = {n: a.astype(np.float64) for n, a in self.params.items()}
        wide.masks = {n: m.astype(np.float64) for n, m in self.masks.items()}
        return wide

    def param_inputs(self, masked: bool = True) -> dict[str, np.ndarray]:
        """Record feed: effective (masked) or raw weights, plus biases."""
        feed = {n: self.params[n] * m if masked else self.params[n]
                for n, m in self.masks.items()}
        for n in self.bias_names:
            feed[n] = self.params[n]
        return feed

    def _declare_params(self, rec: Record) -> dict[str, engine.Ref]:
        return {n: rec.input(n, self.params[n].shape) for n in self.params}

    def _net(self, rec: Record, x, temb, prefs) -> engine.Ref:
        h = rec.silu(rec.linear(x, prefs["layer0.w"], prefs["layer0.b"]))
        proj = rec.linear(temb, prefs["temb.w"], prefs["temb.b"])
        if proj.shape != h.shape:  # one embedding row shared by every row
            proj = rec.broadcast(rec.sum_axes(proj, 1), h.shape)
        h = rec.add(h, proj)
        for k in range(1, self.depth):
            h = rec.silu(rec.linear(h, prefs[f"layer{k}.w"],
                                    prefs[f"layer{k}.b"]))
        return rec.linear(h, prefs["out.w"], prefs["out.b"])

    def eps_record(self, batch: int, temb_rows: int) -> Record:
        """Record computing eps_hat(x, temb), cached per batch size and
        embedding rows: one per batch row, or one that every row shares."""
        key = ("eps", batch, temb_rows)
        if key not in self._records:
            rec = Record()
            x = rec.input("x", (batch, self.dim))
            temb = rec.input("temb", (temb_rows, self.temb_dim))
            rec.set_output(self._net(rec, x, temb, self._declare_params(rec)))
            self._records[key] = rec
        return self._records[key]

    def loss_record(self, batch: int) -> Record:
        """Record computing mean squared error of noise prediction."""
        key = ("loss", batch)
        if key not in self._records:
            rec = Record()
            x = rec.input("x", (batch, self.dim))
            temb = rec.input("temb", (batch, self.temb_dim))
            eps = rec.input("eps", (batch, self.dim))
            eps_hat = self._net(rec, x, temb, self._declare_params(rec))
            diff = rec.add(eps, rec.affine(eps_hat, -1.0))
            rec.set_output(rec.affine(rec.sum_sq(diff), 1.0 / (batch * self.dim)))
            self._records[key] = rec
        return self._records[key]

    def predict(self, x: np.ndarray, t,
                weights: dict[str, np.ndarray]) -> np.ndarray:
        """eps_hat for the rows of ``x`` at timesteps ``t``: one per row, or
        a scalar every row shares, whose embedding is projected once.

        ``weights`` is a :meth:`param_inputs` feed, built once by a caller
        that predicts many times; ``x`` and the embedding are cast to its
        dtype, so a float32 feed runs the forward in float32."""
        temb = time_embedding(np.atleast_1d(t), self.temb_dim)
        rec = self.eps_record(x.shape[0], temb.shape[0])
        dtype = weights["out.w"].dtype
        feed = dict(weights, x=np.asarray(x, dtype=dtype),
                    temb=temb.astype(dtype, copy=False))
        return engine.forward(rec, feed)

    def compact(self) -> "NoisePredictor":
        """An equivalent predictor without the hidden units that emit a
        constant, or ``self`` when there are none.

        A unit of layer k >= 1 whose effective incoming row is all zero
        emits ``silu(b_k)``. A layer-0 unit emits ``silu(b0) + temb.b`` if its
        ``layer0.w`` and ``temb.w`` rows are both zero; a nonzero ``temb.w``
        row keeps it. ``W_{k+1}[:, dead] @ const[dead]`` is folded into the
        next layer's bias, then the dead rows of layer k and the matching
        columns of layer k+1 are dropped. Layers are visited in order, so a
        unit whose row is zero only on dropped columns goes too.

        The copy holds the surviving raw weights under the surviving masks,
        so its effective weights are the gathered effective weights, bit for
        bit, and it can be trained with the same frozen entries;
        :meth:`write_back` copies its parameters into ``self``.
        """
        params = dict(self.params)
        masks = dict(self.masks)

        def eff(name):
            return params[name] * masks[name]

        rows = {n: np.arange(len(m)) for n, m in masks.items()}
        tags = [f"layer{k}" for k in range(self.depth)] + ["out"]
        changed = False
        for k, tag in enumerate(tags[:-1]):
            const = engine.silu(params[f"{tag}.b"])
            dead = ~eff(f"{tag}.w").any(axis=1)
            if k == 0:
                dead &= ~eff("temb.w").any(axis=1)
                const = const + params["temb.b"]
            if not dead.any():
                continue
            changed = True
            live = ~dead
            nxt = tags[k + 1]
            params[f"{nxt}.b"] = (params[f"{nxt}.b"]
                                  + eff(f"{nxt}.w")[:, dead] @ const[dead])
            for d in (params, masks):
                d[f"{nxt}.w"] = d[f"{nxt}.w"][:, live]
            for name in ((tag, "temb") if k == 0 else (tag,)):
                for d in (params, masks, rows):
                    d[f"{name}.w"] = d[f"{name}.w"][live]
                params[f"{name}.b"] = params[f"{name}.b"][live]
        if not changed:
            return self
        small = copy.copy(self)
        small.params = {n: np.array(a, order="C") for n, a in params.items()}
        small.masks = {n: np.array(m, order="C") for n, m in masks.items()}
        small._records = {}
        # layer k+1 reads the units layer k keeps; layer 0 and temb read
        # every input
        index = {n: (rows[n], np.arange(self.params[n].shape[1]))
                 for n in ("layer0.w", "temb.w")}
        for prev, tag in zip(tags, tags[1:]):
            index[f"{tag}.w"] = (rows[f"{tag}.w"], rows[f"{prev}.w"])
        small._source = (self, index, {
            n: small.params[n].copy() for n in small.bias_names})
        return small

    def write_back(self) -> None:
        """Copy this compacted predictor's parameters into the predictor it
        was compacted from.

        Weights are scattered to their rows and columns. A bias receives its
        change since compaction, so the constant folded into it stays out of
        the dense bias, and an untrained copy writes back every bit as it
        was. Dropped units and the columns reading them are not touched.
        """
        dense, index, start = self._source
        for name, (rows, cols) in index.items():
            dense.params[name][np.ix_(rows, cols)] = self.params[name]
            bias = name[:-1] + "b"
            dense.params[bias][rows] += self.params[bias] - start[bias]


@dataclass
class LossContext:
    """A loss value plus the record, inputs and node values that produced it.

    ``values`` holds the forward pass's node values for ``inputs``; pass it to
    ``engine.gradient`` on the same inputs to skip replaying the forward, as
    training does. The gradient consumes it: each forward value dies at
    its last reader, which may write into its buffer (the forward, whose
    every node is a target, writes none in place), so ``values`` is spent
    once its gradients are taken. Scoring keeps no values: it replays the
    record and feed of :func:`loss_inputs`, freeing as it goes.
    """

    value: float
    record: Record
    inputs: dict[str, np.ndarray]
    values: dict


def loss_inputs(model: NoisePredictor, sched: DiffusionSchedule,
                batch: TrainBatch, masked: bool = True
                ) -> tuple[Record, dict[str, np.ndarray]]:
    """The loss record for ``batch`` and its feed, in the precision of the
    model's parameters: the float64 noisy input, embedding and noise are
    cast to it."""
    feed = model.param_inputs(masked=masked)
    dtype = feed["out.w"].dtype
    feed["x"] = noisy_sample(sched, batch.x0, batch.t, batch.eps).astype(
        dtype, copy=False)
    feed["temb"] = time_embedding(batch.t, model.temb_dim).astype(
        dtype, copy=False)
    feed["eps"] = batch.eps.astype(dtype, copy=False)
    return model.loss_record(batch.x0.shape[0]), feed


def loss(model: NoisePredictor, sched: DiffusionSchedule,
         batch: TrainBatch) -> LossContext:
    """The masked loss of ``batch`` (see :func:`loss_inputs`), keeping its
    node values."""
    rec, feed = loss_inputs(model, sched, batch)
    values: dict = {}
    value = float(engine.forward(rec, feed, values))
    return LossContext(value=value, record=rec, inputs=feed, values=values)


def draw_batch(data: np.ndarray, sched: DiffusionSchedule, batch: int,
               rng: np.random.Generator) -> TrainBatch:
    idx = rng.integers(0, data.shape[0], size=batch)
    t = rng.integers(0, sched.T, size=batch)
    eps = rng.standard_normal((batch, data.shape[1]))
    return TrainBatch(x0=data[idx], t=t, eps=eps)


class Adam:
    """Adam over the model's parameter dict, updating it in place.

    Construction rebinds each ``params[name]`` to a view of one flat
    parameter vector, in dict order, keeping its values; ``m``, ``v``, the
    gradient and two scratch vectors share that layout (see the module
    docstring). ``m`` and ``v`` are name -> view mappings, and the step
    count is a 0-d array that ``step_count`` reads. A checkpoint load fills
    the live arrays :meth:`state_tensors` names, so a resumed step computes
    what an uninterrupted one would."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"Adam needs parameters of one dtype, got "
                             f"{sorted(map(str, dtypes))}")
        self.lr = lr
        self._step = np.zeros((), np.int64)
        self._params = params
        shapes = [p.shape for p in params.values()]
        cuts = np.cumsum([p.size for p in params.values()])[:-1]

        def views(flat: np.ndarray) -> dict[str, np.ndarray]:
            return {name: part.reshape(shape) for name, shape, part in
                    zip(params, shapes, np.split(flat, cuts))}

        self._flat = np.concatenate([p.ravel() for p in params.values()])
        self._grad, self._m, self._v, self._s1, self._s2 = (
            np.zeros_like(self._flat) for _ in range(5))
        self._views = views(self._flat)
        params.update(self._views)
        self._grads = views(self._grad)
        self.m = views(self._m)
        self.v = views(self._v)

    @property
    def step_count(self) -> int:
        return int(self._step)

    def step(self, grads: dict[str, np.ndarray]):
        """One update of the parameters this optimizer flattened, from a
        gradient for each of them."""
        if any(self._params[n] is not view for n, view in self._views.items()):
            raise ValueError("Adam steps only the arrays it bound in its "
                             "params dict")
        for name, g in self._grads.items():
            np.copyto(g, grads[name])
        b1, b2 = self.BETA1, self.BETA2
        self._step += 1
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        g, m, v, s1, s2 = self._grad, self._m, self._v, self._s1, self._s2
        # m += (1 - b1) * g
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s1)
        # v += (1 - b2) * (g * g)
        v *= b2
        v += np.multiply(1.0 - b2, np.multiply(g, g, out=s1), out=s1)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(self.lr, np.divide(m, bc1, out=s1), out=s1)
        np.add(np.sqrt(np.divide(v, bc2, out=s2), out=s2), self.EPS, out=s2)
        self._flat -= np.divide(s1, s2, out=s1)

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {f"adam.m.{n}": a for n, a in self.m.items()}
        out.update({f"adam.v.{n}": a for n, a in self.v.items()})
        out["adam.step"] = self._step
        return out


DIVERGENCE_LIMIT = 1e6


def loss_and_grads(model: NoisePredictor, sched: DiffusionSchedule,
                   batch: TrainBatch,
                   grad_mode: str = "masked") -> tuple[float, dict]:
    """Loss (masked forward) and gradients for the stored params.

    ``grad_mode="masked"`` applies the mask chain rule, freezing hard-pruned
    weights; ``"dense"`` applies the effective-weight gradient to the stored
    weight unscaled, so soft/hard-pruned weights keep training and can
    recover on a later mask update.
    """
    if grad_mode not in ("masked", "dense"):
        raise ValueError(f"unknown grad_mode {grad_mode!r}")
    ctx = loss(model, sched, batch)
    wrt = list(model.params)
    grads = engine.gradient(ctx.record, ctx.inputs, wrt, ctx.values)
    if grad_mode == "masked":
        for name, mask in model.masks.items():
            grads[name] = grads[name] * mask
    return ctx.value, grads


def train(model: NoisePredictor, sched: DiffusionSchedule, data: np.ndarray,
          steps: int, opt: Adam, seed: int, stage: str = "train",
          batch_size: int = 128, start_step: int = 0,
          log_interval: int = 100,
          grad_mode: str = "masked") -> list[tuple[int, float]]:
    """Seed-deterministic training; returns (step, loss) at log intervals.

    Batches are derived from (seed, stage, step), so resuming at
    ``start_step`` replays the identical stream.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    trace = []
    for k in range(start_step, start_step + steps):
        rng = make_rng(seed, stage, k)
        batch = draw_batch(data, sched, batch_size, rng)
        value, grads = loss_and_grads(model, sched, batch, grad_mode)
        if not np.isfinite(value) or value > DIVERGENCE_LIMIT:
            raise TrainingDiverged(
                f"loss {value:.3e} at step {k} (stage {stage!r}, seed {seed})"
            )
        opt.step(grads)
        if k % log_interval == 0 or k == start_step + steps - 1:
            trace.append((k, value))
    return trace


def ddim_timesteps(T: int, substeps: int) -> np.ndarray:
    """Uniform-stride subset of [0, T) including both endpoints."""
    if not 1 <= substeps <= T:
        raise ValueError("substeps must be in [1, T]")
    if substeps == 1:
        return np.array([T - 1])
    return np.unique(np.round(np.linspace(0, T - 1, substeps)).astype(np.int64))


# Rows a DDIM block carries through every step: the widest activation of a
# block, in float32, spans this many bytes. The few arrays a layer has live
# at once then fit a core's L2 cache (2 MiB on the benchmark host); larger
# blocks stream through memory, smaller ones pay more per-call overhead.
_BLOCK_BYTES = 512 * 1024


def sample_ddim(model: NoisePredictor, sched: DiffusionSchedule, n: int,
                substeps: int, noise_seed: int) -> np.ndarray:
    """Deterministic (eta = 0) DDIM samples, [n, dim] float64, from the
    compacted predictor run in float32.

    The [n, dim] starting noise is drawn at once; then each block of rows
    runs every step before the next block starts. Rows never mix, so only
    the matmuls' rounding depends on the block size.
    """
    model = model.compact()
    weights = {name: a.astype(np.float32, copy=False)
               for name, a in model.param_inputs().items()}
    ts = ddim_timesteps(sched.T, substeps)[::-1]
    ab = sched.alpha_bar[ts]
    ab_prev = np.append(ab[1:], 1.0)
    noise = make_rng(noise_seed, "ddim-init").standard_normal((n, model.dim))
    width = max(len(w) for w in model.masks.values())
    rows = max(1, _BLOCK_BYTES // (weights["out.w"].itemsize * width))
    out = np.empty_like(noise)
    for start in range(0, n, rows):
        x = noise[start:start + rows]
        for i, t in enumerate(ts):
            eps_hat = model.predict(x, t, weights)
            x0_hat = (x - np.sqrt(1.0 - ab[i]) * eps_hat) / np.sqrt(ab[i])
            x = (np.sqrt(ab_prev[i]) * x0_hat
                 + np.sqrt(1.0 - ab_prev[i]) * eps_hat)
        out[start:start + rows] = x
    return out
