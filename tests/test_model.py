"""Model, batch, optimizer, and lr policy tests.

The gradient check is the oracle for everything downstream: central finite
differences of the loss, written before the backward pass was trusted.
"""

import numpy as np
import pytest

from ftdp import harness, model
from ftdp.errors import InvariantViolation

DIMS = (4, 8, 2)


def test_param_count_and_layout():
    assert model.param_count(DIMS) == 4 * 8 + 8 + 8 * 2 + 2  # 58
    lay = model.layout(DIMS)
    assert [n for n, _, _ in lay] == ["w1", "b1", "w2", "b2"]
    end = lay[-1][1] + int(np.prod(lay[-1][2]))
    assert end == 58


def test_init_deterministic_and_frozen():
    a = model.init_model(DIMS, 1234)
    b = model.init_model(DIMS, 1234)
    assert np.array_equal(a.params, b.params)
    opt = model.OptimizerState(np.zeros(model.param_count(DIMS), dtype=np.float32))
    # frozen digest guards against accidental generator changes
    assert model.hash_state(a.params, opt.momentum, 0) == (
        "01098d4188b19ee91ae8d628a7cf02588f2168038e1a465ce06c6300a187cb05")
    assert model.init_model(DIMS, 1235).params[0] != a.params[0]


def test_batch_determined_by_seed_replica_cursor():
    a = model.next_batch(77, 3, 12, 6, DIMS)
    b = model.next_batch(77, 3, 12, 6, DIMS)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert (a.replica_id, a.cursor) == (3, 12)
    # different replica or cursor gives a different stream
    assert not np.array_equal(a.inputs, model.next_batch(77, 2, 12, 6, DIMS).inputs)
    assert not np.array_equal(a.inputs, model.next_batch(77, 3, 13, 6, DIMS).inputs)


def test_task_map_shared_across_replicas():
    m1 = model.task_map(77, DIMS)
    m2 = model.task_map(77, DIMS)
    assert np.array_equal(m1, m2)
    assert m1.shape == (4, 2)


def test_task_map_cache_is_exact_and_read_only():
    uncached = model._task_map.__wrapped__(77, DIMS)
    model._task_map.cache_clear()
    first = model.task_map(77, list(DIMS))  # the draw that fills the cache
    again = model.task_map(77, DIMS)
    assert again is first
    assert first.tobytes() == uncached.tobytes()
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    assert model.task_map(78, DIMS).tobytes() != first.tobytes()


def _concatenated_grad(state, batch):
    """forward_backward's gradient built the original way: concatenate the
    float64 blocks, then round the whole vector to float32."""
    x = batch.inputs.astype(np.float64)
    t = batch.targets.astype(np.float64)
    w1, b1, w2, b2 = (state.view(n).astype(np.float64) for n in ("w1", "b1", "w2", "b2"))
    h = np.tanh(x @ w1 + b1)
    r = h @ w2 + b2 - t
    dy = (2.0 / r.size) * r
    dpre = (dy @ w2.T) * (1.0 - h * h)
    blocks = [x.T @ dpre, dpre.sum(axis=0), h.T @ dy, dy.sum(axis=0)]
    return np.concatenate([b.ravel() for b in blocks]).astype(np.float32)


@pytest.mark.parametrize("dims", [DIMS, (64, 96, 48)])
def test_gradient_bits_match_concatenated_reference(dims):
    # One workspace serves every trial, as a rank's does every step: its
    # float64 weights are refreshed in place and its buffers reused.
    params64 = np.empty(model.param_count(dims), dtype=np.float64)
    ws = model.Workspace(dims, params64)
    for trial in range(3):
        st = model.init_model(dims, 11 + trial)
        st.params += np.float32(0.01)  # non-zero biases
        batch = model.next_batch(5, trial, 2 * trial, 7, dims)
        _, grad = model.forward_backward(st, batch)
        want = _concatenated_grad(st, batch)
        assert grad.dtype == np.float32 and grad.shape == want.shape
        assert np.array_equal(grad.view(np.uint32), want.view(np.uint32))
        params64[:] = st.params
        _, reused = model.forward_backward(st, batch, ws)
        assert reused is ws.grad and reused is not grad
        assert np.array_equal(reused.view(np.uint32), want.view(np.uint32))


def test_workspace_views_alias_its_buffers():
    """The workspace builds its weight, gradient and block views once; they
    alias its buffers, so a reused workspace returns the bits of a one-off."""
    dims = (6, 9, 4)
    st = model.init_model(dims, 21)
    st.params += np.float32(0.02)
    ws = model.Workspace(dims, st.params.astype(np.float64))
    for views, flat in ((ws.weights, ws.params64), (ws.grads, ws.grad)):
        assert [v.shape for v in views] == [shape for _n, _o, shape in model.layout(dims)]
        for v, (_name, off, shape) in zip(views, model.layout(dims)):
            assert np.shares_memory(v, flat)
            assert v.__array_interface__["data"][0] == (
                flat.__array_interface__["data"][0] + off * flat.itemsize)
    assert np.shares_memory(ws.dw1, ws.block) and np.shares_memory(ws.dw2, ws.block)
    for cursor in range(3):
        batch = model.next_batch(5, 1, cursor, 7, dims)
        loss, fresh = model.forward_backward(st, batch)
        loss_ws, reused = model.forward_backward(st, batch, ws)
        assert reused is ws.grad
        assert loss_ws == loss
        assert np.array_equal(reused.view(np.uint32), fresh.view(np.uint32))
        st.params -= np.float32(0.1) * fresh
        ws.params64[:] = st.params  # the owner's refresh, in place


def _spawned_env(monkeypatch, tmp_path):
    """Environment _spawn_worker hands to the worker process."""
    seen = {}

    class FakePopen:
        def __init__(self, cmd, **kwargs):
            seen.update(kwargs["env"])

    monkeypatch.setattr(harness.subprocess, "Popen", FakePopen)
    harness._spawn_worker("scenario.json", 0, 0, str(tmp_path), 1, None,
                          None, "warning")
    return seen


def test_spawned_workers_run_one_blas_thread(monkeypatch, tmp_path):
    for var in harness.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    env = _spawned_env(monkeypatch, tmp_path)
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["OMP_NUM_THREADS"] == "1"


def test_spawned_workers_keep_callers_blas_threads(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    env = _spawned_env(monkeypatch, tmp_path)
    assert env["OPENBLAS_NUM_THREADS"] == "3"
    assert env["OMP_NUM_THREADS"] == "2"


def test_zero_everything_gives_zero_loss_and_grad():
    st = model.ModelState(DIMS, np.zeros(model.param_count(DIMS), dtype=np.float32))
    batch = model.Batch(np.zeros((3, 4), np.float32), np.zeros((3, 2), np.float32), 0, 0)
    loss, grad = model.forward_backward(st, batch)
    assert loss == 0.0
    assert not grad.any()


def finite_diff_grad(state, batch, idx, h=1e-3):
    params = state.params
    orig = params[idx]
    params[idx] = orig + h
    lp, _ = model.forward_backward(state, batch)
    params[idx] = orig - h
    lm, _ = model.forward_backward(state, batch)
    params[idx] = orig
    return (lp - lm) / (2 * h)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(10):
        st = model.init_model(DIMS, int(rng.integers(1 << 30)))
        batch = model.next_batch(int(rng.integers(1 << 30)), 0, trial, 5, DIMS)
        _, grad = model.forward_backward(st, batch)
        for idx in rng.choice(st.params.size, size=20, replace=False):
            fd = finite_diff_grad(st, batch, int(idx))
            denom = max(abs(fd), abs(grad[idx]), 1e-4)
            assert abs(fd - grad[idx]) / denom < 1e-2, (trial, idx, fd, grad[idx])


def test_optimizer_hand_check():
    # beta=0, params=[1,1], grad=[2,4], lr=0.5 -> params [0,-1], momentum=grad
    st = model.ModelState((1, 1, 1), np.array([1.0, 1.0], dtype=np.float32))
    opt = model.OptimizerState(np.zeros(2, dtype=np.float32), beta=0.0)
    grad = np.array([2.0, 4.0], dtype=np.float32)
    model.optimizer_step(st, opt, grad, 0.5)
    assert np.array_equal(st.params, np.array([0.0, -1.0], np.float32))
    assert np.array_equal(opt.momentum, grad)


def test_optimizer_momentum_accumulates():
    st = model.ModelState((1, 1, 1), np.zeros(2, dtype=np.float32))
    opt = model.OptimizerState(np.zeros(2, dtype=np.float32), beta=0.9)
    g = np.ones(2, dtype=np.float32)
    model.optimizer_step(st, opt, g, 0.1)
    model.optimizer_step(st, opt, g, 0.1)
    expected = np.float32(0.9) * np.float32(1.0) + np.float32(1.0)  # 1.9
    assert np.allclose(opt.momentum, expected)


def test_optimizer_rejects_length_mismatch():
    st = model.ModelState((1, 1, 1), np.zeros(2, dtype=np.float32))
    opt = model.OptimizerState(np.zeros(2, dtype=np.float32))
    with pytest.raises(InvariantViolation):
        model.optimizer_step(st, opt, np.zeros(3, dtype=np.float32), 0.1)


def test_compute_lr_factors():
    pol = model.LrPolicy(initial_lr=1.0)
    assert model.compute_lr(pol, 1, 12, 12) == 1.0
    pol.intervention = "sqrt"
    assert model.compute_lr(pol, 1, 11, 12) == pytest.approx(0.95743, abs=1e-5)
    pol.intervention = "linear"
    assert model.compute_lr(pol, 1, 11, 12) == pytest.approx(11 / 12, abs=1e-9)


def test_compute_lr_ordering_and_equality_at_full_health():
    rng = np.random.default_rng(3)
    for _ in range(100):
        total = int(rng.integers(1, 33))
        healthy = int(rng.integers(1, total + 1))
        base = model.LrPolicy(initial_lr=0.3)
        vals = {}
        for mode in ("none", "linear", "sqrt"):
            base.intervention = mode
            vals[mode] = model.compute_lr(base, 5, healthy, total)
        if healthy == total:
            assert vals["none"] == vals["linear"] == vals["sqrt"]
        else:
            assert vals["none"] > vals["sqrt"] > vals["linear"]


def test_compute_lr_invalid_quorum():
    with pytest.raises(InvariantViolation):
        model.compute_lr(model.LrPolicy(), 1, 0, 4)


def test_lr_linear_decay():
    pol = model.LrPolicy(initial_lr=1.0, decay_horizon=100, final_fraction=0.1)
    assert model.compute_lr(pol, 0, 1, 1) == 1.0
    assert model.compute_lr(pol, 50, 1, 1) == pytest.approx(0.55)
    assert model.compute_lr(pol, 100, 1, 1) == pytest.approx(0.1)
    assert model.compute_lr(pol, 500, 1, 1) == pytest.approx(0.1)


def test_training_reduces_loss():
    # single replica, default-ish settings: loss after 200 steps should be
    # well under half of its step-10 value
    st = model.init_model(DIMS, 5)
    opt = model.OptimizerState(np.zeros(model.param_count(DIMS), dtype=np.float32))
    pol = model.LrPolicy()
    losses = []
    for step in range(1, 201):
        batch = model.next_batch(9, 0, step - 1, 16, DIMS)
        loss, grad = model.forward_backward(st, batch)
        losses.append(loss)
        model.optimizer_step(st, opt, grad, model.compute_lr(pol, step, 1, 1))
    assert losses[-1] < 0.5 * losses[9]


def test_hash_state_sensitivity():
    st = model.init_model(DIMS, 1)
    opt = model.OptimizerState(np.zeros(model.param_count(DIMS), dtype=np.float32))
    h0 = model.hash_state(st.params, opt.momentum, 3)
    assert h0 == model.hash_state(st.params.copy(), opt.momentum.copy(), 3)
    assert h0 != model.hash_state(st.params, opt.momentum, 4)
    st.params[0] += np.float32(1e-6)
    assert h0 != model.hash_state(st.params, opt.momentum, 3)
