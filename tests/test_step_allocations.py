"""A steady-state step allocates nothing near the size of the state.

Each call below runs once to warm up and is then measured under
tracemalloc, to which numpy reports its data buffers. The measure is the
peak of memory allocated during the call and not yet freed, which bounds
its largest block; it must stay under 1/16 of the parameter bytes, where a
fresh copy of the parameters, the gradient or a shard would exceed it.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from ftdp import ftar, model
from ftdp.replica import IntraGroup
from test_ftar import Ring

DIMS = (512, 1024, 512)
N_PARAMS = model.param_count(DIMS)
LIMIT = N_PARAMS * 4 // 16


def peak_new_bytes(call) -> int:
    call()  # warm-up: buffers grow here, once
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def on_threads(n, fn):
    errors = []

    def run(r):
        try:
            fn(r)
        except Exception as exc:  # noqa: BLE001 - raised in the caller below
            errors.append(exc)

    def call():
        threads = [threading.Thread(target=run, args=(r,)) for r in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
    return call


def forward_backward_call():
    st = model.init_model(DIMS, 3)
    ws = model.Workspace(DIMS, st.params.astype(np.float64))
    batch = model.next_batch(1, 0, 0, 2, DIMS)
    return lambda: model.forward_backward(st, batch, ws)


def optimizer_step_call():
    st = model.init_model(DIMS, 3)
    opt = model.OptimizerState(np.zeros(model.param_count(DIMS), dtype=np.float32))
    grad = np.full(N_PARAMS, 0.5, dtype=np.float32)
    return lambda: model.optimizer_step(st, opt, grad, 0.01, scratch=grad)


def reduce_scatter_call():
    group = IntraGroup(2)
    bounds = ftar.segment_bounds(N_PARAMS, 2)
    vecs = [np.full(N_PARAMS, r + 1.0, dtype=np.float32) for r in range(2)]
    outs = [np.empty(ln, dtype=np.float32) for _, ln in bounds]
    return on_threads(2, lambda r: group.reduce_scatter(r, vecs[r], bounds, outs[r]))


@pytest.mark.parametrize("make_call", [forward_backward_call, optimizer_step_call,
                                       reduce_scatter_call])
def test_step_call_allocates_no_large_block(make_call):
    assert peak_new_bytes(make_call()) < LIMIT


def test_all_reduce_allocates_no_large_block():
    ring = Ring(2)
    try:
        ring.reconfig()
        cfg = ftar.PipelineConfig()
        bufs = {r: np.full(N_PARAMS, r + 1.0, dtype=np.float32) for r in range(2)}
        results = {}

        def member(r):
            results[r] = ftar.ftar_all_reduce(ring.groups[r], bufs[r], 1, cfg)

        assert peak_new_bytes(on_threads(2, member)) < LIMIT
        assert all(results[r] is bufs[r] for r in range(2))
    finally:
        ring.close()
