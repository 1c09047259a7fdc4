"""DDPM forward process, training objective and samplers for a small MLP.

The noise predictor is a fully-connected net (4 hidden layers of width 128 by
default) with a sinusoidal timestep embedding projected and added after the
first layer. Its forward pass and training loss are built as engine records,
so gradients and Hessian-vector products of the loss come straight from the
record. Weight matrices are stored [out, in] and registered as maskable;
biases stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Record
from .masking import MaskedParam
from .seeding import make_rng


class TrainingDiverged(RuntimeError):
    """Raised when the training loss blows past the divergence limit."""


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule with cached alpha products."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray


def make_schedule(T: int, beta_start: float, beta_end: float) -> DiffusionSchedule:
    if T < 2:
        raise ValueError("T must be at least 2")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    beta = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    return DiffusionSchedule(T=T, beta=beta, alpha=alpha,
                             alpha_bar=np.cumprod(alpha))


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
    """MLP noise predictor over [batch, dim] data."""

    def __init__(self, dim: int, hidden: int = 128, depth: int = 4,
                 temb_dim: int = 64, activation: str = "silu", seed: int = 0):
        if activation not in ("silu", "tanh"):
            raise ValueError("activation must be 'silu' or 'tanh'")
        if temb_dim % 2:
            raise ValueError("temb_dim must be even")
        self.dim = dim
        self.hidden = hidden
        self.depth = depth
        self.temb_dim = temb_dim
        self.activation = activation
        rng = make_rng(seed, "init")

        def he(out_n, in_n):
            return rng.standard_normal((out_n, in_n)) * np.sqrt(2.0 / in_n)

        self.params: dict[str, np.ndarray] = {}
        self._weight_names: list[str] = []
        sizes = [(f"layer0", dim, hidden), ("temb", temb_dim, hidden)]
        sizes += [(f"layer{k}", hidden, hidden) for k in range(1, depth)]
        sizes += [("out", hidden, dim)]
        for tag, in_n, out_n in sizes:
            self.params[f"{tag}.w"] = he(out_n, in_n)
            self.params[f"{tag}.b"] = np.zeros(out_n)
            self._weight_names.append(f"{tag}.w")
        self.masked: dict[str, MaskedParam] = {
            name: MaskedParam(name=name, weights=self.params[name],
                              mask=np.ones_like(self.params[name]))
            for name in self._weight_names
        }
        self._records: dict[tuple, Record] = {}

    # Final projection: structured (group) pruning skips it, or it could
    # delete output coordinates outright.
    @property
    def output_weight_names(self) -> tuple[str, ...]:
        return ("out.w",)

    @property
    def weight_names(self) -> list[str]:
        return list(self._weight_names)

    @property
    def bias_names(self) -> list[str]:
        return [n for n in self.params if n.endswith(".b")]

    def masked_params(self) -> list[MaskedParam]:
        return [self.masked[n] for n in self._weight_names]

    def bias_param_count(self) -> int:
        return sum(self.params[n].size for n in self.bias_names)

    def param_inputs(self, masked: bool = True) -> dict[str, np.ndarray]:
        """Record feed: effective (masked) or raw weights, plus biases."""
        if masked:
            feed = {n: self.masked[n].effective() for n in self._weight_names}
        else:
            feed = {n: self.params[n] for n in self._weight_names}
        for n in self.bias_names:
            feed[n] = self.params[n]
        return feed

    def _declare_params(self, rec: Record) -> dict[str, engine.Ref]:
        return {n: rec.input(n, self.params[n].shape) for n in self.params}

    def _net(self, rec: Record, x, temb, prefs) -> engine.Ref:
        act = rec.silu if self.activation == "silu" else rec.tanh
        h = act(rec.linear(x, prefs["layer0.w"], prefs["layer0.b"]))
        h = rec.add(h, rec.linear(temb, prefs["temb.w"], prefs["temb.b"]))
        for k in range(1, self.depth):
            h = act(rec.linear(h, prefs[f"layer{k}.w"], prefs[f"layer{k}.b"]))
        return rec.linear(h, prefs["out.w"], prefs["out.b"])

    def eps_record(self, batch: int) -> Record:
        """Record computing eps_hat(x, temb), cached per batch size."""
        key = ("eps", batch)
        if key not in self._records:
            rec = Record()
            x = rec.input("x", (batch, self.dim))
            temb = rec.input("temb", (batch, self.temb_dim))
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

    def predict(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        rec = self.eps_record(x.shape[0])
        feed = self.param_inputs()
        feed["x"] = x
        feed["temb"] = time_embedding(t, self.temb_dim)
        return engine.forward(rec, feed)


@dataclass
class LossContext:
    """A loss value plus the record, inputs and node values that produced it.

    ``values`` holds the forward pass's node values for ``inputs``; pass it to
    ``engine.gradient`` / ``engine.hessian_vector_product`` on the same
    inputs to skip replaying the forward. It keeps every intermediate alive,
    so drop the context once its gradients are taken.
    """

    value: float
    record: Record
    inputs: dict[str, np.ndarray]
    values: dict


def loss(model: NoisePredictor, sched: DiffusionSchedule,
         batch: TrainBatch, masked: bool = True) -> LossContext:
    rec = model.loss_record(batch.x0.shape[0])
    feed = model.param_inputs(masked=masked)
    feed["x"] = noisy_sample(sched, batch.x0, batch.t, batch.eps)
    feed["temb"] = time_embedding(batch.t, model.temb_dim)
    feed["eps"] = batch.eps
    values: dict = {}
    value = float(engine.forward(rec, feed, values))
    return LossContext(value=value, record=rec, inputs=feed, values=values)


def draw_batch(data: np.ndarray, sched: DiffusionSchedule, batch: int,
               rng: np.random.Generator) -> TrainBatch:
    idx = rng.integers(0, data.shape[0], size=batch)
    t = rng.integers(0, sched.T, size=batch)
    eps = rng.standard_normal((batch, data.shape[1]))
    return TrainBatch(x0=data[idx], t=t, eps=eps)


@dataclass
class OptimizerConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    """Adam over the model's parameter dict, updating arrays in place."""

    def __init__(self, params: dict[str, np.ndarray], config: OptimizerConfig):
        self.config = config
        self.step_count = 0
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        c = self.config
        self.step_count += 1
        bc1 = 1.0 - c.beta1**self.step_count
        bc2 = 1.0 - c.beta2**self.step_count
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            params[name] -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {f"adam.m.{n}": a for n, a in self.m.items()}
        out.update({f"adam.v.{n}": a for n, a in self.v.items()})
        out["adam.step"] = np.array(float(self.step_count))
        return out

    def load_state(self, tensors: dict[str, np.ndarray]):
        for n in self.m:
            self.m[n] = np.array(tensors[f"adam.m.{n}"])
            self.v[n] = np.array(tensors[f"adam.v.{n}"])
        self.step_count = int(tensors["adam.step"])


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
        for name in model.weight_names:
            grads[name] = grads[name] * model.masked[name].mask
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
        opt.step(model.params, grads)
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


def sample_ddim(model: NoisePredictor, sched: DiffusionSchedule, n: int,
                substeps: int, noise_seed: int) -> np.ndarray:
    """Deterministic (eta = 0) DDIM samples, [n, dim]."""
    ts = ddim_timesteps(sched.T, substeps)[::-1]
    x = make_rng(noise_seed, "ddim-init").standard_normal((n, model.dim))
    for i, t in enumerate(ts):
        eps_hat = model.predict(x, np.full(n, t))
        ab = sched.alpha_bar[t]
        x0_hat = (x - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
        ab_prev = sched.alpha_bar[ts[i + 1]] if i + 1 < len(ts) else 1.0
        x = np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps_hat
    return x


def sample_ddpm(model: NoisePredictor, sched: DiffusionSchedule, n: int,
                noise_seed: int) -> np.ndarray:
    """Ancestral sampling with per-step Gaussian noise, [n, dim]."""
    x = make_rng(noise_seed, "ddpm-init").standard_normal((n, model.dim))
    for t in range(sched.T - 1, -1, -1):
        eps_hat = model.predict(x, np.full(n, t))
        ab = sched.alpha_bar[t]
        mean = (x - sched.beta[t] / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(
            sched.alpha[t]
        )
        if t > 0:
            var = (1.0 - sched.alpha_bar[t - 1]) / (1.0 - ab) * sched.beta[t]
            z = make_rng(noise_seed, "ddpm-step", t).standard_normal((n, model.dim))
            x = mean + np.sqrt(var) * z
        else:
            x = mean
    return x
