"""Deterministic toy workload: a two-layer tanh MLP on synthetic regression.

The model is small on purpose; what matters is that every quantity is a
pure function of seeds and counters. Parameters live in one flat float32
vector with a named (offset, shape) layout so collectives and checkpoints
can treat state as bytes. Forward/backward math runs in float64 and casts
results back, keeping gradients friendly to finite-difference checking
while stored state stays bit-deterministic float32.

A replica keeps one float64 copy of its parameters, params64, which its
ranks refresh after every update; the forward pass reads its weights as
views of that copy and converts nothing. Each rank's step buffers (the
float64 weight-gradient block and the float32 gradient) live in a
Workspace that is allocated once and reused every step.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from ftdp.errors import InvariantViolation

Dims = tuple[int, int, int]  # input, hidden, output

_TASK_SALT = 0xFEED  # namespaces the task map away from batch streams
_NOISE_SCALE = 0.05


def param_count(dims: Dims) -> int:
    din, dhid, dout = dims
    return din * dhid + dhid + dhid * dout + dout


def layout(dims: Dims) -> list[tuple[str, int, tuple[int, ...]]]:
    """Flat-vector layout: name, offset, shape, in storage order."""
    din, dhid, dout = dims
    out = []
    off = 0
    for name, shape in (("w1", (din, dhid)), ("b1", (dhid,)),
                        ("w2", (dhid, dout)), ("b2", (dout,))):
        out.append((name, off, shape))
        off += int(np.prod(shape))
    return out


@dataclass
class ModelState:
    dims: Dims
    params: np.ndarray  # float32, flat
    step: int = 0

    def view(self, name: str) -> np.ndarray:
        for n, off, shape in layout(self.dims):
            if n == name:
                return self.params[off:off + int(np.prod(shape))].reshape(shape)
        raise KeyError(name)


@dataclass
class OptimizerState:
    momentum: np.ndarray  # float32, same length as params
    beta: float = 0.9


@dataclass
class Batch:
    inputs: np.ndarray   # (micro_batch, input_dim) float32
    targets: np.ndarray  # (micro_batch, output_dim) float32
    replica_id: int
    cursor: int


def _generator(*entropy: int) -> np.random.Generator:
    # Counter-based RNG: the same key always yields the same stream,
    # regardless of how many draws other streams made.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


def init_model(dims: Dims, seed: int) -> ModelState:
    din, dhid, dout = dims
    if min(din, dhid, dout) < 1:
        raise InvariantViolation(f"model dims must be positive: {dims}")
    rng = _generator(seed, 0)
    params = np.zeros(param_count(dims), dtype=np.float32)
    state = ModelState(dims, params)
    state.view("w1")[:] = (rng.standard_normal((din, dhid)) / np.sqrt(din)).astype(np.float32)
    state.view("w2")[:] = (rng.standard_normal((dhid, dout)) / np.sqrt(dhid)).astype(np.float32)
    # biases stay zero
    return state


def task_map(data_seed: int, dims: Dims) -> np.ndarray:
    """The fixed linear map defining the regression task. Same for every
    replica and batch; this is the signal the replicas jointly learn.

    Drawn once per (data_seed, dims) and shared, so the result is
    read-only; every batch of a run multiplies by the same map.
    """
    return _task_map(int(data_seed), tuple(int(d) for d in dims))


@functools.lru_cache(maxsize=8)
def _task_map(data_seed: int, dims: Dims) -> np.ndarray:
    din, _, dout = dims
    rng = _generator(data_seed, _TASK_SALT, 0)
    out = (rng.standard_normal((din, dout)) / np.sqrt(din)).astype(np.float32)
    out.flags.writeable = False
    return out


def next_batch(data_seed: int, replica_id: int, cursor: int,
               micro_batch: int, dims: Dims) -> Batch:
    """Batch fully determined by (data_seed, replica_id, cursor)."""
    din, _, dout = dims
    rng = _generator(data_seed, 1, replica_id, cursor)
    inputs = rng.standard_normal((micro_batch, din)).astype(np.float32)
    noise = rng.standard_normal((micro_batch, dout)).astype(np.float32)
    targets = inputs @ task_map(data_seed, dims) + _NOISE_SCALE * noise
    return Batch(inputs, targets.astype(np.float32), replica_id, cursor)


def _blocks(flat: np.ndarray, dims: Dims) -> list[np.ndarray]:
    """Views of w1, b1, w2, b2 in a flat vector laid out by layout()."""
    return [flat[off:off + int(np.prod(shape))].reshape(shape)
            for _name, off, shape in layout(dims)]


class Workspace:
    """One rank's reused forward/backward buffers.

    params64 is the float64 copy of the parameters that forward_backward
    reads; its owner keeps it equal to the float32 params. block holds one
    float64 weight gradient at a time, and grad is the float32 gradient
    every call returns. The w1, b1, w2, b2 views of params64 (weights), of
    grad (grads) and of block (dw1, dw2) are built here once.
    """

    def __init__(self, dims: Dims, params64: np.ndarray):
        din, dhid, dout = dims
        if params64.shape != (param_count(dims),) or params64.dtype != np.float64:
            raise InvariantViolation("params64 must be a flat float64 copy of params")
        self.dims = dims
        self.params64 = params64
        self.block = np.empty(max(din * dhid, dhid * dout), dtype=np.float64)
        self.grad = np.empty(param_count(dims), dtype=np.float32)
        self.weights = _blocks(params64, dims)
        self.grads = _blocks(self.grad, dims)
        self.dw1 = self.block[:din * dhid].reshape(din, dhid)
        self.dw2 = self.block[:dhid * dout].reshape(dhid, dout)


def forward_backward(state: ModelState, batch: Batch,
                     ws: Workspace | None = None) -> tuple[float, np.ndarray]:
    """Mean-squared-error loss and the full flat gradient.

    Internally float64; the returned gradient is float32 so downstream
    reduction and optimizer arithmetic are bit-reproducible. Each float64
    block is rounded straight into its layout() slot of the flat vector.

    The weights are read from ws.params64, which must equal state.params,
    and the result is ws.grad, overwritten by the next call with the same
    workspace. Without ws a one-off workspace converts state.params, so the
    returned array is fresh.
    """
    if ws is None:
        ws = Workspace(state.dims, state.params.astype(np.float64))
    x = batch.inputs.astype(np.float64)
    t = batch.targets.astype(np.float64)
    w1, b1, w2, b2 = ws.weights

    h = np.tanh(x @ w1 + b1)
    y = h @ w2 + b2
    r = y - t
    loss = float(np.mean(r * r))

    # The two weight gradients share ws.block: dw2 is rounded into grad
    # before dw1 overwrites it.
    g_w1, g_b1, g_w2, g_b2 = ws.grads
    dy = (2.0 / r.size) * r
    g_w2[:] = np.matmul(h.T, dy, out=ws.dw2)
    g_b2[:] = dy.sum(axis=0)
    dh = dy @ w2.T
    dpre = dh * (1.0 - h * h)
    g_w1[:] = np.matmul(x.T, dpre, out=ws.dw1)
    g_b1[:] = dpre.sum(axis=0)
    return loss, ws.grad


def optimizer_step(state: ModelState, opt: OptimizerState, grad: np.ndarray,
                   lr: float, scratch: np.ndarray | None = None
                   ) -> tuple[ModelState, OptimizerState]:
    """SGD with momentum, in float32: m <- beta*m + g; p <- p - lr*m.

    lr*m is formed in scratch, a float32 array of the params' length; it
    may be grad itself, which is dead once added into m. Without scratch a
    fresh array is used and grad is left untouched.
    """
    if grad.shape != state.params.shape:
        raise InvariantViolation(
            f"gradient length {grad.shape} != params {state.params.shape}")
    opt.momentum *= np.float32(opt.beta)
    opt.momentum += grad
    state.params -= np.multiply(np.float32(lr), opt.momentum, out=scratch)
    return state, opt


@dataclass
class LrPolicy:
    initial_lr: float = 0.05
    decay_horizon: int = 0       # 0 = constant
    final_fraction: float = 1.0  # lr at/after the horizon, as a fraction
    intervention: str = "none"   # none | linear | sqrt

    def __post_init__(self):
        if self.intervention not in ("none", "linear", "sqrt"):
            raise InvariantViolation(f"unknown lr intervention: {self.intervention}")


def compute_lr(policy: LrPolicy, step: int, healthy_count: int, total_replicas: int) -> float:
    """Base schedule times the degraded-fleet factor.

    With h healthy of N total: none -> 1, linear -> h/N, sqrt -> sqrt(h/N).
    h = 0 is an invalid quorum and a caller bug.
    """
    if healthy_count <= 0:
        raise InvariantViolation("invalid quorum: healthy_count must be >= 1")
    if healthy_count > total_replicas:
        raise InvariantViolation(
            f"healthy_count {healthy_count} exceeds total {total_replicas}")
    base = policy.initial_lr
    if policy.decay_horizon > 0:
        frac = min(step / policy.decay_horizon, 1.0)
        base = policy.initial_lr * (1.0 - (1.0 - policy.final_fraction) * frac)
    ratio = healthy_count / total_replicas
    if policy.intervention == "linear":
        factor = ratio
    elif policy.intervention == "sqrt":
        factor = float(np.sqrt(ratio))
    else:
        factor = 1.0
    return base * factor


def hash_state(params: np.ndarray, momentum: np.ndarray, step: int) -> str:
    """Order-stable digest of replicated state."""
    h = hashlib.sha256()
    h.update(step.to_bytes(8, "little"))
    h.update(np.ascontiguousarray(params, dtype=np.float32))
    h.update(np.ascontiguousarray(momentum, dtype=np.float32))
    return h.hexdigest()
