"""Replica engine tests: rank collectives, peer discovery,
death machinery, and full-cluster trajectories checked bitwise against a
serial reference."""

import collections
import os
import sys
import threading
import time

import numpy as np
import pytest

from ftdp import checkpoint, model, transport, wire
from ftdp.errors import Recoverable
from ftdp.replica import (
    EXIT_FATAL,
    FilePortBook,
    IntraGroup,
    Mortality,
    ReplicaRuntime,
    _Halt,
    _RankWorker,
    watch_ranks,
)
from helpers import (
    Cluster,
    assert_replicas_agree,
    kill_failure,
    quick_scenario,
    read_hashes,
    read_metrics,
)


def run_ranks(n, fn):
    """Run fn(rank) on n threads; returns results indexed by rank."""
    out = [None] * n
    errs = [None] * n

    def main(r):
        try:
            out[r] = fn(r)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errs[r] = exc

    threads = [threading.Thread(target=main, args=(r,)) for r in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads), "rank thread hung"
    for exc in errs:
        if exc is not None:
            raise exc
    return out


# ------------------------------------------------------------ IntraGroup


def test_reduce_scatter_hand_values():
    g = IntraGroup(2)
    vecs = [np.array([1, 2, 3, 4], dtype=np.float32),
            np.array([10, 20, 30, 40], dtype=np.float32)]
    bounds = [(0, 2), (2, 2)]
    shards = run_ranks(2, lambda r: g.reduce_scatter(r, vecs[r], bounds))
    assert shards[0].tolist() == [11.0, 22.0]
    assert shards[1].tolist() == [33.0, 44.0]


def test_reduce_scatter_fold_is_rank_ascending():
    rng = np.random.default_rng(4242)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        length = int(rng.integers(n, 40))
        vecs = [rng.standard_normal(length).astype(np.float32) for _ in range(n)]
        cut = length // n
        bounds = [(r * cut, cut if r < n - 1 else length - (n - 1) * cut)
                  for r in range(n)]
        g = IntraGroup(n)
        shards = run_ranks(n, lambda r: g.reduce_scatter(r, vecs[r], bounds))
        want = vecs[0].copy()
        for v in vecs[1:]:
            want += v  # the exact fold order the group promises
        for r, (off, ln) in enumerate(bounds):
            assert np.array_equal(shards[r], want[off:off + ln])


def test_all_gather_restores_full_vector():
    g = IntraGroup(3)
    full = np.arange(10, dtype=np.float32)
    bounds = [(0, 4), (4, 3), (7, 3)]
    outs = run_ranks(3, lambda r: g.all_gather(
        r, full[bounds[r][0]:bounds[r][0] + bounds[r][1]].copy(), bounds, 10))
    for got in outs:
        assert np.array_equal(got, full)


def test_broadcast_carries_leader_value():
    g = IntraGroup(3)
    outs = run_ranks(3, lambda r: g.broadcast(r, "payload" if r == 0 else None))
    assert outs == ["payload"] * 3


def test_exchange_collects_every_rank():
    g = IntraGroup(4)
    outs = run_ranks(4, lambda r: g.exchange(r, r * r))
    assert all(o == [0, 1, 4, 9] for o in outs)


def test_abort_unblocks_waiters_as_halt():
    g = IntraGroup(3)
    hit = []

    def waiter(op):
        try:
            op()
        except _Halt:
            hit.append(True)

    threads = [threading.Thread(target=waiter, args=(op,))
               for op in (lambda: g.exchange(1, "x"), lambda: g.barrier(2))]
    for t in threads:
        t.start()
    time.sleep(0.05)
    g.abort()
    for t in threads:
        t.join(timeout=2.0)
    assert not any(t.is_alive() for t in threads)
    assert hit == [True, True]
    with pytest.raises(_Halt):
        g.broadcast(0, 1)  # barrier stays broken
    with pytest.raises(_Halt):
        g.barrier(0)


BOUNDED_OPS = {
    "barrier": lambda g, bound: g.barrier(0, bound_s=bound),
    "exchange": lambda g, bound: g.exchange(0, "x", bound_s=bound),
    "reduce_scatter": lambda g, bound: g.reduce_scatter(
        0, np.ones(4, dtype=np.float32), [(0, 2), (2, 2)], bound_s=bound),
}


@pytest.mark.parametrize("op", sorted(BOUNDED_OPS))
def test_bounded_wait_fails_when_a_sibling_never_arrives(op):
    g = IntraGroup(2)
    t0 = time.monotonic()
    with pytest.raises(Recoverable, match=op):
        BOUNDED_OPS[op](g, 0.3)
    elapsed = time.monotonic() - t0
    assert 0.3 <= elapsed < 0.3 + 0.2
    with pytest.raises(_Halt):
        g.barrier(1)  # the late sibling finds the group broken


def test_bounded_wait_holds_for_a_sibling_inside_the_bound():
    g = IntraGroup(2)

    def rank(r):
        if r == 1:
            time.sleep(0.15)
        return g.exchange(r, r, bound_s=1.0)

    assert run_ranks(2, rank) == [[0, 1], [0, 1]]
    assert run_ranks(2, lambda r: g.barrier(r, bound_s=0.5)) == [None, None]


def test_abort_ends_a_bounded_wait_as_halt():
    g = IntraGroup(2)
    threading.Timer(0.05, g.abort).start()
    t0 = time.monotonic()
    with pytest.raises(_Halt):
        g.barrier(0, bound_s=5.0)
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_one_wait_ops_read_their_own_values_under_reuse(n):
    """Thousands of mixed one-wait operations with random per-rank sleeps.
    Each rank must read exactly its own operation's values, although every
    publisher scribbles over what it published before its last wait the
    moment an operation returns: the two alternating slot arrays are all
    that keeps a fast rank's next operation off a slow rank's read."""
    ops, length = 4000, 12
    kinds = np.random.default_rng(n).choice(
        ["broadcast", "exchange", "reduce_scatter", "barrier"], size=ops)
    cut = length // n
    bounds = [(r * cut, cut if r < n - 1 else length - (n - 1) * cut) for r in range(n)]
    base = np.arange(length, dtype=np.float32)
    g = IntraGroup(n)
    errors = []

    def value(k, r):
        return base + np.float32(k * n + r)  # small integers: every sum is exact

    def check(r, k, kind):
        if kind == "barrier":
            g.barrier(r)
            return None, True
        if kind == "broadcast":
            mine = [k] if r == 0 else None
            got = g.broadcast(r, mine)
            return mine, got == [k]
        if kind == "exchange":
            mine = [k, r]
            got = g.exchange(r, mine)
            return mine, got == [[k, q] for q in range(n)]
        mine = value(k, r)
        got = g.reduce_scatter(r, mine, bounds)
        off, ln = bounds[r]
        want = value(k, 0)[off:off + ln]
        for q in range(1, n):
            want += value(k, q)[off:off + ln]
        return mine, np.array_equal(got, want)

    def rank_main(r):
        rng = np.random.default_rng(100 + r)
        earlier = None  # published before this rank's last wait
        try:
            for k, kind in enumerate(kinds):
                if rng.random() < 0.3:
                    time.sleep(float(rng.uniform(0, 2e-4)))
                mine, ok = check(r, k, kind)
                if not ok:
                    errors.append((r, k, str(kind)))
                    g.abort()
                    return
                if isinstance(earlier, list):
                    earlier[:] = [-1]
                elif earlier is not None:
                    earlier.fill(np.nan)
                earlier = mine
        except _Halt:
            pass
        except Exception as exc:  # noqa: BLE001 - a torn read can raise too
            errors.append((r, repr(exc)))
            g.abort()

    threads = [threading.Thread(target=rank_main, args=(r,)) for r in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # ranks interleave often inside an operation
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "rank thread hung"
    assert errors == []


# ------------------------------------------------------------ Mortality


def test_mortality_first_code_wins_and_closers_run():
    codes = []
    m = Mortality(exit_fn=codes.append)
    ran = []
    m.register_closer(lambda: ran.append("a"))
    m.register_closer(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    m.register_closer(lambda: ran.append("b"))
    with pytest.raises(_Halt):
        m.die(9)
    with pytest.raises(_Halt):
        m.die(4)
    assert m.code == 9
    assert codes[0] == 9
    assert ran == ["a", "b", "a", "b"]  # closers re-run, code does not change
    assert m.dying.is_set()


def test_watchdog_fires_when_marks_go_stale():
    """The main thread's join loop takes the replica down once a rank's
    progress mark goes stale; the rank then unwinds on the dying signal."""
    m = Mortality(exit_fn=lambda code: None)
    progress = [time.monotonic()]
    rank = threading.Thread(target=m.dying.wait, args=(5.0,))
    rank.start()
    watch_ranks([rank], m, progress, limit_s=0.3)
    assert m.dying.wait(3.0), "watchdog never fired"
    assert m.code == EXIT_FATAL


def test_watchdog_quiet_while_marks_refresh():
    m = Mortality(exit_fn=lambda code: None)
    progress = [time.monotonic()]

    def refresh():
        for _ in range(8):
            time.sleep(0.1)
            progress[0] = time.monotonic()

    rank = threading.Thread(target=refresh)
    rank.start()
    watch_ranks([rank], m, progress, limit_s=0.5)
    assert not m.dying.is_set()


# ------------------------------------------------------------ address books


def test_file_port_book_newest_incarnation_wins(tmp_path):
    path = str(tmp_path / "ports.txt")
    book = FilePortBook(path)
    with pytest.raises(Recoverable):
        book.lookup(0, 0)  # no file yet
    book.publish(0, 0, 5000)
    book.publish(1, 0, 6000)
    book.publish(0, 1, 5001)  # respawn shadows the dead process
    with open(path, "a") as fh:
        fh.write("not,a,valid,line\n")
    assert book.lookup(0, 0).port == 5001
    assert book.lookup(1, 3).port == 6000
    with pytest.raises(Recoverable):
        book.lookup(2, 0)


# ------------------------------------------------------------ cluster runs


def digest_history(run_dir):
    per_step = {}
    for (step, rid), digest in read_hashes(run_dir).items():
        per_step.setdefault(step, {})[rid] = digest
    return per_step


def test_clean_run_commits_every_step(tmp_path):
    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=6)
    cluster = Cluster(cfg, str(tmp_path))
    codes = cluster.run(timeout_s=60)
    assert codes == {0: 0, 1: 0, 2: 0}
    cluster.validate_ledger()
    per_step = assert_replicas_agree(str(tmp_path))
    assert sorted(per_step) == list(range(1, 7))
    rows = read_metrics(str(tmp_path))
    assert all(r["healthy_count"] == 3 for r in rows)
    assert all(r["event"] == "" for r in rows)


def test_cluster_matches_serial_reference(tmp_path):
    """With two replicas every cross-replica sum has two operands, and
    float32 addition of two terms is order-free, so a plain serial rerun of
    the training arithmetic must agree bit for bit."""
    n, r, steps = 2, 2, 5
    cfg = quick_scenario(num_replicas=n, ranks=r, total_steps=steps)
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0}

    state = model.init_model(cfg.topology.model_dims, cfg.model_seed)
    opt = model.OptimizerState(np.zeros(model.param_count(cfg.topology.model_dims),
                                        dtype=np.float32), cfg.tuning.momentum_beta)
    policy = cfg.lr_policy()
    want = {}
    cursor = 0
    for step in range(1, steps + 1):
        total = None
        for rid in range(n):
            acc = None
            for rank in range(r):
                batch = model.next_batch(cfg.data_seed, rid, cursor + rank,
                                         cfg.topology.micro_batch,
                                         cfg.topology.model_dims)
                _, grad = model.forward_backward(state, batch)
                acc = grad if acc is None else acc + grad
            total = acc if total is None else total + acc
        cursor += r
        total *= np.float32(1.0 / (n * r))
        lr = model.compute_lr(policy, step, n, n)
        model.optimizer_step(state, opt, total, lr)
        want[step] = model.hash_state(state.params, opt.momentum, step)

    got = read_hashes(str(tmp_path))
    for step in range(1, steps + 1):
        for rid in range(n):
            assert got[(step, rid)] == want[step], f"step {step} replica {rid}"


def test_kill_respawn_rejoins_at_gate_step(tmp_path):
    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10,
                         failures=[kill_failure(3, 3, (2,))])
    cluster = Cluster(cfg, str(tmp_path))
    codes = cluster.run(timeout_s=60)
    assert codes == {0: 0, 1: 0, 2: 0}
    cluster.validate_ledger()
    assert_replicas_agree(str(tmp_path))
    rows = read_metrics(str(tmp_path))
    h = {r["step"]: r["healthy_count"] for r in rows
         if r["replica_id"] == 0 and r["phase"] == "commit"}
    assert h == {1: 3, 2: 3, 3: 2, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3, 10: 3}
    assert any(r["step"] == 3 and r["event"] == "retry" for r in rows)
    assert any(r["step"] == 6 and r["replica_id"] == 2
               and r["event"] == "catch-up" for r in rows)
    # the dead window left no consumption lines for replica 2
    steps_of_2 = sorted(s for s, rid, _ in cluster.ledger_entries() if rid == 2)
    assert steps_of_2 == [1, 2, 7, 8, 9, 10]


def test_catch_up_run_keeps_one_state_copy_and_never_gathers(tmp_path, monkeypatch):
    """Every rank works on views of its replica's one params and momentum
    array, a catch-up installs into them, and no gather runs after a commit."""
    gathers = []

    def no_gather(self, rank, *args):
        gathers.append(rank)
        raise AssertionError("IntraGroup.all_gather called")

    monkeypatch.setattr(IntraGroup, "all_gather", no_gather)
    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10,
                         failures=[kill_failure(3, 3, (2,))])
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0, 2: 0}
    assert gathers == []
    assert any(r["replica_id"] == 2 and r["event"] == "catch-up"
               for r in read_metrics(str(tmp_path)))
    hashes = read_hashes(str(tmp_path))
    for rid, handle in cluster.handles.items():
        rt = handle.runtime
        for w in rt.workers:
            assert np.shares_memory(w.params_full, rt.params)
            assert np.shares_memory(w.params_shard, rt.params)
            assert np.shares_memory(w.momentum_shard, rt.momentum)
        # the shared arrays are the state the replica committed last
        assert model.hash_state(rt.params, rt.momentum, 10) == hashes[(10, rid)]


def test_forward_passes_read_current_float64_weights(tmp_path, monkeypatch):
    """Every forward pass reads float64 weights equal to the float32 params,
    through a kill, a catch-up, healthy steps after it, and a restore. A
    stale copy would not show in the digests: the ring sums every replica's
    gradient, so the replicas would still agree with each other."""
    real = model.forward_backward
    calls = []  # (replica, cursor, weights current)

    def checked(state, batch, ws=None):
        current = ws is not None and np.array_equal(
            ws.params64.astype(np.float32).view(np.uint32), state.params.view(np.uint32))
        calls.append((batch.replica_id, batch.cursor, current))
        return real(state, batch, ws)

    monkeypatch.setattr(model, "forward_backward", checked)
    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10, interval=3,
                         failures=[kill_failure(3, 3, (2,))])
    dir_a = str(tmp_path / "kill")
    cluster = Cluster(cfg, dir_a)
    # Rank threads switch often, so a forward pass that raced a sibling's
    # refresh would see a half-written copy.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        codes = cluster.run(timeout_s=60)
    finally:
        sys.setswitchinterval(interval)
    assert codes == {0: 0, 1: 0, 2: 0}
    assert any(r["replica_id"] == 2 and r["event"] == "catch-up"
               for r in read_metrics(dir_a))
    # Replica 2 stepped as healthy after its catch-up at step 6: its
    # steps 7-10 read cursors 4 to 11.
    assert {c for rid, c, _ in calls if rid == 2} >= set(range(4, 12))
    assert all(current for _, _, current in calls)

    from ftdp.checkpoint import restore_cursors

    calls.clear()
    restored_cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10, interval=3)
    cursors = restore_cursors(os.path.join(dir_a, "ledger.txt"), 6, 3)
    resumed = Cluster(restored_cfg, str(tmp_path / "resumed"),
                      restore=(os.path.join(dir_a, "checkpoints"), 6, cursors))
    assert resumed.run(timeout_s=60) == {0: 0, 1: 0, 2: 0}
    assert {rid for rid, _, _ in calls} == {0, 1, 2}
    assert all(current for _, _, current in calls)


def test_intra_waits_per_rank_per_step(tmp_path, monkeypatch):
    """The wait budget of a step: counts every rank's IntraGroup waits per
    decision epoch of a 2x2 cluster. A steady healthy step costs 4 waits (a
    reduce-scatter, a status exchange, the broadcast of the next decision,
    which carries the outcome, and the update barrier), and a ring rebuild
    adds its link-status exchange. A lagging step costs 2, plus the update
    barrier if it installs its pulled state and the link-status exchange on
    a rebuild. Replica 1 is killed at step 3 and rejoins at step 6. Its
    first pull fails, so it lags on the rebuild step and installs on a
    later, steady step, for 3 waits each."""
    local = threading.local()
    records = []  # (replica, rank, role, committed, rebuilt, installed, waits)
    real_sync = IntraGroup._sync
    real_broadcast = IntraGroup.broadcast
    real_iterate = _RankWorker.iterate
    real_fetch = checkpoint.fetch_shard
    failed = set()

    def counting_sync(self, *args):
        local.waits = getattr(local, "waits", 0) + 1
        real_sync(self, *args)

    def recording_broadcast(self, rank, value=None):
        out = real_broadcast(self, rank, value)
        if hasattr(local, "seen"):  # the start-up broadcast precedes every iteration
            local.seen.append(out)
        return out

    def counted_iterate(self, decision):
        local.waits, local.seen = 0, []
        gen = self.ring.generation
        nxt = real_iterate(self, decision)
        if local.seen:  # the epoch reached its outcome
            records.append((self.rt.rid, self.rank, decision.role_of(self.rt.rid),
                            local.seen[0].outcome is True, self.ring.generation > gen,
                            self.rt.step == decision.target_step, local.waits))
        return nxt

    def first_pull_fails(addr, step, rank, *args, **kwargs):
        if rank not in failed:
            failed.add(rank)
            raise checkpoint.SnapshotUnavailable(None)
        return real_fetch(addr, step, rank, *args, **kwargs)

    monkeypatch.setattr(IntraGroup, "_sync", counting_sync)
    monkeypatch.setattr(IntraGroup, "broadcast", recording_broadcast)
    monkeypatch.setattr(_RankWorker, "iterate", counted_iterate)
    monkeypatch.setattr(checkpoint, "fetch_shard", first_pull_fails)
    cfg = quick_scenario(num_replicas=2, ranks=2, total_steps=12,
                         failures=[kill_failure(3, 3, (1,))])
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0}
    cluster.validate_ledger()
    assert_replicas_agree(str(tmp_path))
    assert {(rid, k) for rid, k, *_ in records} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def waits(role, rebuilt, installed=True):
        return {w for _rid, _k, ro, c, rb, inst, w in records
                if c and ro == role and rb == rebuilt and inst == installed}

    assert waits("healthy", False) == {4}
    assert waits("healthy", True) == {5}
    assert waits("behind", True, installed=False) == {3}
    assert waits("behind", False) == {3}
    assert waits("behind", True) == set()  # the pull on the rebuild step failed
    # A pull that lost its race with the donor's next commit leaves a
    # steady lagging step without its update barrier.
    assert waits("behind", False, installed=False) <= {2}


def test_control_frames_and_dials_per_step(tmp_path, monkeypatch):
    """The control traffic of a failure-free 4x1 run: one round trip per
    step on each leader's quorum link. Every committed step costs 4 each of
    QUORUM_VOTE and QUORUM_DECISION, since a vote is also its leader's
    report for the next step and the decision carries the vote's outcome.
    The run sends 4 QUORUM_REPORTs in all, for step 1, and the decision
    past the end of the run is the only frame at that step: no one votes on
    it, and no outcome frame exists. The run dials only its 4 quorum links
    and its 4 ring links."""
    frames = collections.Counter()  # (tag, step) of every frame sent
    dials = collections.Counter()  # purpose of every dial
    real_send = transport.Connection.send_frame
    real_connect = transport.connect

    def counting_send(self, msg_type, step=0, *args, **kwargs):
        frames[msg_type, step] += 1
        return real_send(self, msg_type, step, *args, **kwargs)

    def counting_connect(addr, purpose, *args, **kwargs):
        dials[purpose] += 1
        return real_connect(addr, purpose, *args, **kwargs)

    monkeypatch.setattr(transport.Connection, "send_frame", counting_send)
    monkeypatch.setattr(transport, "connect", counting_connect)
    steps = 30
    cfg = quick_scenario(num_replicas=4, ranks=1, total_steps=steps)
    cfg.timeouts.quorum_round_s = 5.0  # a slow leader must not split a round
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0, 2: 0, 3: 0}
    control = (wire.QUORUM_DECISION, wire.QUORUM_VOTE)
    for step in range(1, steps + 1):
        assert {tag: frames[tag, step] for tag in control} == dict.fromkeys(control, 4), step
    assert {step: n for (tag, step), n in frames.items() if tag == wire.QUORUM_REPORT} == {1: 4}
    assert {tag: n for (tag, step), n in frames.items() if step == steps + 1} == {
        wire.QUORUM_DECISION: 4}
    assert {tag for tag, step in frames if step <= steps} == {
        *control, wire.QUORUM_REPORT, wire.HEARTBEAT, wire.CHUNK_ACK}
    assert dials == {wire.HELLO_QUORUM: 4, wire.HELLO_RING: 4}


def test_pull_that_reaches_its_donor_late_installs_the_donors_new_state(tmp_path,
                                                                      monkeypatch):
    """Replica 1 of 2x2 is killed at step 3 and lags on step 6, pulling step
    5 from replica 0, its one donor. Each rank's pull is held until the donor
    has committed step 6, so the donor answers that it holds 6. The donor
    learns that commit from the decision for step 7, and that round waits
    for replica 1's vote, so the pull reaches its donor late only once the
    round has closed without replica 1. The pull then takes step 6 itself,
    and replica 1 installs it in place of step 5 plus the update. Its vote
    came after the round closed, so it sits out step 7, lags on step 8
    pulling 7, is healthy again from step 9, and every replica records the
    same state."""
    real_fetch = checkpoint.fetch_shard
    asked = {}  # rank -> steps requested, in order

    def late_pull(addr, step, rank, *args, **kwargs):
        first = rank not in asked
        asked.setdefault(rank, []).append(step)
        deadline = time.monotonic() + 5.0
        while first and time.monotonic() < deadline:
            try:
                real_fetch(addr, step, rank, *args, **kwargs)
            except checkpoint.SnapshotUnavailable as exc:
                if exc.available == step + 1:
                    raise
            time.sleep(0.002)
        return real_fetch(addr, step, rank, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "fetch_shard", late_pull)
    cfg = quick_scenario(num_replicas=2, ranks=2, total_steps=10,
                         failures=[kill_failure(3, 3, (1,))])
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0}
    cluster.validate_ledger()
    hashes = assert_replicas_agree(str(tmp_path))
    assert asked == {0: [5, 6, 7], 1: [5, 6, 7]}
    rows = read_metrics(str(tmp_path))
    h = {r["step"]: r["healthy_count"] for r in rows
         if r["replica_id"] == 0 and r["phase"] == "commit"}
    assert h == {1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 2, 10: 2}
    assert any(r["step"] == 6 and r["replica_id"] == 1
               and r["event"] == "catch-up" for r in rows)
    assert (6, 1) in read_hashes(str(tmp_path)) and 10 in hashes


def test_kill_run_is_bitwise_deterministic(tmp_path):
    cfg = quick_scenario(num_replicas=3, ranks=1, total_steps=8,
                         failures=[kill_failure(3, 2, (2,))])
    histories = []
    ledgers = []
    written = []
    for i in range(2):
        run_dir = str(tmp_path / f"run{i}")
        cluster = Cluster(cfg, run_dir)
        codes = cluster.run(timeout_s=60)
        assert codes == {0: 0, 1: 0, 2: 0}
        cluster.validate_ledger()
        assert_replicas_agree(run_dir)
        histories.append(digest_history(run_dir))
        # Sorted by (step, replica) the ledgers must match; and since the
        # coordinator is the one writer, a step at a time, so must the
        # lines as written.
        ledgers.append(sorted(cluster.ledger_entries()))
        written.append(cluster.ledger_entries())
    assert set(histories[0]) == set(histories[1])
    for step in histories[0]:
        assert histories[0][step] == histories[1][step], f"diverged at step {step}"
    assert ledgers[0] == ledgers[1]
    assert written[0] == written[1]


def test_hung_rank_sheds_whole_replica(tmp_path):
    """Rank 1 of replica 2 hangs at step 3. Its leader's reduce-scatter
    wait passes its chunk_s bound, so the replica goes down once, well
    inside the watchdog; the group commits step 3 without it, and the
    replacement rejoins at its gate and ends the run healthy."""
    from ftdp.scenario import Failure

    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=8,
                         failures=[Failure("hang_rank", 3, 3, 1, (2,), rank=1)])
    cfg.timeouts.chunk_s = 1.0
    cfg.timeouts.fetch_s = 1.0
    cfg.timeouts.watchdog_s = 6.0
    cluster = Cluster(cfg, str(tmp_path))
    codes = cluster.run(timeout_s=70)
    assert codes == {0: 0, 1: 0, 2: 0}
    assert cluster.respawns == {2: 1}
    cluster.validate_ledger()
    assert_replicas_agree(str(tmp_path))
    h = healthy_counts(str(tmp_path), 0)
    assert h[2] == 3 and h[3] == 2 and h[8] == 3


def healthy_counts(run_dir, rid):
    """step -> healthy_count of replica rid's commit rows."""
    return {r["step"]: r["healthy_count"] for r in read_metrics(run_dir)
            if r["replica_id"] == rid and r["phase"] == "commit"}


@pytest.mark.parametrize("hung_rank", [0, 1])
def test_hang_on_a_steady_step_costs_one_chunk_timeout(tmp_path, monkeypatch, hung_rank):
    """A rank of replica 2 of 3x2 hangs on steady healthy step 3. Its
    sibling's bounded reduce-scatter wait takes the replica down at about
    chunk_s, its quorum link drops, and the coordinator closes the round
    at once instead of waiting out quorum_round_s for a leader that cannot
    vote. So the survivors spend about chunk_s on the step, where waiting
    on the hung leader costs chunk_s + quorum_round_s or more, and the hung
    replica is down long before watchdog_s. The outage puts the rejoin gate
    at step 8, so the join hold falls outside step 3. Reruns agree."""
    from ftdp.scenario import Failure

    lifetimes = {}  # (replica, incarnation) -> (exit code, seconds alive)
    real_run = ReplicaRuntime.run

    def timed_run(self):
        t0 = time.monotonic()
        code = real_run(self)
        lifetimes[self.rid, self.incarnation] = (code, time.monotonic() - t0)
        return code

    monkeypatch.setattr(ReplicaRuntime, "run", timed_run)
    hang = 3
    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10,
                         failures=[Failure("hang_rank", hang, 5, 1, (2,), rank=hung_rank)])
    cfg.timeouts.chunk_s = 0.5
    cfg.timeouts.quorum_round_s = 1.0
    cfg.timeouts.watchdog_s = 10.0
    runs = []
    for i in range(2):
        run_dir = str(tmp_path / f"run{i}")
        lifetimes.clear()
        cluster = Cluster(cfg, run_dir)
        assert cluster.run(timeout_s=60) == {0: 0, 1: 0, 2: 0}
        assert cluster.respawns == {2: 1}
        cluster.validate_ledger()
        assert_replicas_agree(run_dir)
        code, alive_s = lifetimes[2, 0]
        assert code == EXIT_FATAL
        assert alive_s < cfg.timeouts.watchdog_s / 4, alive_s
        rows = read_metrics(run_dir)
        for rid in (0, 1):
            attempts = [r for r in rows if r["replica_id"] == rid and r["step"] == hang]
            assert [r["phase"] for r in attempts] == ["retry", "commit"]
            wall_s = sum(r["wall_ms"] for r in attempts) / 1e3
            assert wall_s <= cfg.timeouts.chunk_s + cfg.timeouts.quorum_round_s / 2, (
                rid, wall_s)
        runs.append((digest_history(run_dir), sorted(cluster.ledger_entries()),
                     {rid: healthy_counts(run_dir, rid) for rid in range(3)}))
    assert runs[0] == runs[1]
    assert runs[0][2][0][hang] == 2


def test_blackholed_links_retry_then_heal(tmp_path):
    from ftdp.scenario import Failure

    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=8,
                         failures=[Failure("drop_links", 3, 2, 1, (2,))])
    cluster = Cluster(cfg, str(tmp_path))
    codes = cluster.run(timeout_s=70)
    assert codes == {0: 0, 1: 0, 2: 0}
    cluster.validate_ledger()
    rows = read_metrics(str(tmp_path))
    committed = {r["step"]: r["healthy_count"] for r in rows
                 if r["replica_id"] == 0 and r["phase"] == "commit"}
    assert all(committed[s] == 3 for s in range(1, 9))  # nobody died
    retries = [r["step"] for r in rows
               if r["replica_id"] == 0 and r["event"] == "retry"]
    assert 3 in retries
    assert_replicas_agree(str(tmp_path))


def test_restore_continues_bitwise_identically(tmp_path):
    cfg = quick_scenario(num_replicas=2, ranks=2, total_steps=6, interval=3)
    dir_a = str(tmp_path / "full")
    cluster = Cluster(cfg, dir_a)
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0}
    full = digest_history(dir_a)

    from ftdp.checkpoint import find_latest, restore_cursors

    ckpt_dir = os.path.join(dir_a, "checkpoints")
    latest = find_latest(ckpt_dir)
    assert latest is not None and latest[0] == 6
    cursors = restore_cursors(os.path.join(dir_a, "ledger.txt"), 3, 2)
    assert cursors == {0: 6, 1: 6}  # 2 ranks * 3 steps each

    dir_b = str(tmp_path / "resumed")
    resumed = Cluster(cfg, dir_b, restore=(ckpt_dir, 3, cursors))
    assert resumed.run(timeout_s=60) == {0: 0, 1: 0}
    resumed.validate_ledger()
    tail = digest_history(dir_b)
    assert sorted(tail) == [4, 5, 6]
    for step in (4, 5, 6):
        assert tail[step] == full[step], f"resumed run diverged at step {step}"


def test_checkpoints_continue_while_replica_zero_is_down(tmp_path):
    """Replica 0 is down for steps 3-7 (it catches up at 8), across the
    checkpoints at 4 and 6; the lowest healthy replica writes those."""
    from ftdp.checkpoint import find_latest, manifest_path, restore_cursors

    def scenario(failures):
        cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10, interval=2,
                             failures=failures)
        # A resumed run's first step also builds the ring. A survivor that
        # spends it waiting on the dying chair's links must still make the
        # next round, or it is demoted and the healthy counts differ.
        cfg.timeouts.quorum_round_s = 6.0
        return cfg

    cfg = scenario([kill_failure(3, 5, (0,))])
    dir_a = str(tmp_path / "full")
    cluster = Cluster(cfg, dir_a)
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0, 2: 0}
    cluster.validate_ledger()
    full = assert_replicas_agree(dir_a)
    rows = read_metrics(dir_a)
    h = {r["step"]: r["healthy_count"] for r in rows
         if r["replica_id"] == 1 and r["phase"] == "commit"}
    assert [h[s] for s in range(1, 11)] == [3, 3, 2, 2, 2, 2, 2, 2, 3, 3]
    ckpt_dir = os.path.join(dir_a, "checkpoints")
    for step in (2, 4, 6, 8, 10):
        assert os.path.exists(manifest_path(ckpt_dir, step)), f"no checkpoint at {step}"
    assert find_latest(ckpt_dir)[0] == 10

    # Resume from step 4, written during the outage. Replica 0 dies again on
    # the first step it attempts and catches up at 8, so the healthy counts,
    # and with them the learning rate and the gradient scale, match the
    # uninterrupted run.
    cursors = restore_cursors(os.path.join(dir_a, "ledger.txt"), 4, 3)
    assert cursors == {0: 4, 1: 8, 2: 8}
    resumed_cfg = scenario([kill_failure(5, 3, (0,))])
    dir_b = str(tmp_path / "resumed")
    resumed = Cluster(resumed_cfg, dir_b, restore=(ckpt_dir, 4, cursors))
    assert resumed.run(timeout_s=60) == {0: 0, 1: 0, 2: 0}
    resumed.validate_ledger()
    tail = assert_replicas_agree(dir_b)
    assert sorted(tail) == list(range(5, 11))
    for step in range(5, 11):
        assert tail[step] == full[step], f"resumed run diverged at step {step}"


def test_metrics_rows_have_exact_schema(tmp_path):
    cfg = quick_scenario(num_replicas=2, ranks=1, total_steps=3)
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0}
    keys = ["step", "replica_id", "phase", "wall_ms", "healthy_count",
            "tokens_committed", "loss", "stall_ms", "event"]
    rows = read_metrics(str(tmp_path))
    assert rows, "no metrics written"
    for row in rows:
        assert list(row) == keys
        assert row["phase"] in ("commit", "retry")
        assert row["wall_ms"] >= 0 and row["stall_ms"] >= 0
        assert isinstance(row["loss"], float)
    by_rid = {}
    for row in rows:
        by_rid.setdefault(row["replica_id"], []).append(row)
    for rid, rws in by_rid.items():
        # 4 samples per replica per committed step at micro_batch 4, 1 rank
        assert [r["tokens_committed"] for r in rws] == [8, 16, 24]
    for (step, rid), digest in read_hashes(str(tmp_path)).items():
        assert 1 <= step <= 3 and rid in (0, 1)
        assert len(digest) == 64 and int(digest, 16) >= 0
