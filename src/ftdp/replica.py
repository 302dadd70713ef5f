"""One training replica: rank threads, commit protocol, and catch-up.

A replica hosts ranks_per_replica worker threads in one process, which holds
the replica's one copy of its parameters and momentum, and the float64 copy
of the parameters that forward passes read; each rank updates and serves
its contiguous shard of them in place. Each iteration starts with its
decision in hand and ends by getting the next one: the leader (rank 0)
votes on the step, or reports the step it holds where it has no vote, and
hands the decision that answers to every rank. Every rank walks the same
sequence of intra-replica sync points so the threads cannot deadlock:

    (on a ring rebuild) link-status exchange -> compute and reduce-scatter
    (healthy only) -> reduce status exchange -> next decision broadcast ->
    (on commit) update barrier

Each sync point is one wait (see IntraGroup). A steady healthy step costs
every rank four waits and a ring rebuild one more; a lagging step skips the
reduce-scatter, and the update barrier too unless it installs. The first
decision's broadcast, before the first iteration, is the start-up sync. The
waits behind sibling compute are bounded, so a stuck rank takes its replica
down within about chunk_s instead of holding the group until the watchdog.

Healthy replicas compute gradients from their own batch cursor, reduce them
intra-replica, then across same-rank peers on the ring. Lagging replicas join
the ring with zero gradients (consuming nothing) while each rank pulls its
shard of the previous committed state from a healthy donor; if every rank's
pull lands, applying the freshly reduced gradient on the pulled state yields
bit-identical parameters to the healthy peers in a single step.

Whether a step commits is settled by the quorum coordinator: each member's
leader sends one vote on the link it reports on (healthy members vote their
collective's success, lagging ones only their install status). The vote is
also the leader's report for the next step, and the coordinator answers it
with the next decision, which carries the outcome: one round trip per step.
A retry recomputes the same step from unchanged cursors under that
decision; consumption stays exactly-once because the coordinator appends
every healthy member's ledger line before a decision carrying the commit
leaves, so before anything irreversible.

Beside the rank threads, the main thread joins them and watches their
progress (watch_ranks), and one I/O thread (transport.ConnectionRouter)
owns the listener: it routes inbound streams by their hello (purpose, rank,
generation) and serves state fetches. Scripted faults arm off decision
values, so every run of a scenario sees them at identical logical times.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ftdp import checkpoint, ftar, model, transport
from ftdp.errors import (
    EXIT_CONFIG,
    EXIT_FATAL,
    EXIT_INVARIANT,
    EXIT_KILLED,
    EXIT_OK,
    PEER_DOWN,
    TIMEOUT,
    ConfigError,
    Fatal,
    FtdpError,
    InvariantViolation,
    Recoverable,
)
from ftdp.quorum import Decision, QuorumClient
from ftdp.scenario import RETRY_BUDGET, ScenarioConfig

log = logging.getLogger("ftdp.replica")


class _Halt(Exception):
    """Unwinds a rank thread; the runtime decides the exit code."""


class Mortality:
    """Single switch for taking the whole replica down.

    In a spawned worker exit_fn is os._exit, so death is abrupt and peers
    see resets, like a real crash. The in-process test cluster passes a stub
    that records the code instead; die() then raises to unwind the caller
    and every registered closer kicks the sibling threads out of their
    blocking calls.
    """

    def __init__(self, exit_fn=os._exit):
        self.exit_fn = exit_fn
        self.dying = threading.Event()
        self.code: int | None = None
        self._lock = threading.Lock()
        self._closers: list = []

    def register_closer(self, fn) -> None:
        with self._lock:
            self._closers.append(fn)

    def die(self, code: int) -> "NoReturn":  # noqa: F821 - doc only
        with self._lock:
            if self.code is None:
                self.code = code
            closers = list(self._closers)
        self.dying.set()
        for fn in closers:
            try:
                fn()
            except Exception:  # noqa: BLE001 - teardown must not mask death
                pass
        self.exit_fn(code)
        raise _Halt()


def watch_ranks(threads: list[threading.Thread], mortality: Mortality,
                progress: list[float], limit_s: float) -> None:
    """Join the rank threads; every 0.2 s, take the whole replica down if a
    rank's progress mark, a wall-clock stamp it refreshes at its sync points,
    is older than limit_s. The group then drops a wedged rank's replica
    cleanly instead of stalling on half a replica."""
    for t in threads:
        while t.is_alive():
            t.join(timeout=0.2)
            stale = time.monotonic() - min(progress)
            if stale > limit_s and not mortality.dying.is_set():
                log.error("watchdog: no progress for %.1fs, dying", stale)
                try:
                    mortality.die(EXIT_FATAL)
                except _Halt:
                    pass


# ---------------------------------------------------------------------------
# Peer discovery


class FilePortBook:
    """Append-only ports file shared by the replicas of one run, which all
    listen on one host; it maps a replica id to its dialable endpoint.

    Lines are "replica,incarnation,port"; the newest incarnation wins, so a
    respawned replica shadows its dead predecessor the moment it binds.
    """

    def __init__(self, path: str, host: str = "127.0.0.1"):
        self.path = path
        self.host = host

    def publish(self, replica_id: int, incarnation: int, port: int) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, f"{replica_id},{incarnation},{port}\n".encode())
        finally:
            os.close(fd)

    def lookup(self, replica_id: int, rank: int) -> transport.PeerAddress:
        best: tuple[int, int] | None = None
        try:
            with open(self.path) as fh:
                for line in fh:
                    parts = line.strip().split(",")
                    if len(parts) != 3:
                        continue
                    rid, inc, port = (int(p) for p in parts)
                    if rid == replica_id and (best is None or inc >= best[0]):
                        best = (inc, port)
        except FileNotFoundError:
            pass
        if best is None:
            raise Recoverable(PEER_DOWN, f"replica {replica_id} not in ports file")
        return transport.PeerAddress(replica_id, rank, self.host, best[1])


# ---------------------------------------------------------------------------
# Intra-replica collectives (threads in one process)


class IntraGroup:
    """Collectives for the rank threads of one replica, one wait each.

    Every operation but barrier publishes into one of two slot arrays, waits
    once, then reads. The arrays alternate by a per-rank operation count, so
    a fast rank fills operation k+1's array while a slow sibling still reads
    operation k's. That is safe because a rank writes k's array again only
    at k+2, after passing k+1's wait, which its siblings reach only once
    they have read k. For the same reason an array a rank publishes (its
    gradient in reduce_scatter) must stay untouched until that rank has
    passed one more wait.

    The wait is a counter and a generation under one lock (Mellor-Crummey
    and Scott, TOCS 1991). abort() makes current and future waits raise
    _Halt, so a dying replica unwinds all its ranks.

    A wait may carry a bound (bound_s). A rank still waiting when it passes
    raises Recoverable(TIMEOUT) and breaks the group as abort() does; the
    rank's replica then goes down, its links reset, and the group stops
    waiting for it. Only the waits whose siblings are computing take one:
    the reduce-scatter and the update barrier wait out at most chunk_s, the
    compute skew the ring already grants a peer, and the link-status
    exchange connect_s + chunk_s, since a sibling may still be rebuilding
    its ring. The other waits sit behind a call that has its own deadline
    (the one decision broadcast a step, behind the leader's quorum call;
    the status exchange, behind the all-reduce or the fetch) or behind the
    disk (the checkpoint barrier). For them, and for a replica
    of one rank, which never waits here, the watchdog is the only guard.
    """

    def __init__(self, n_ranks: int):
        self.n = n_ranks
        self._cond = threading.Condition(threading.Lock())
        self._arrived = 0
        self._generation = 0
        self._broken = False
        self._slots = ([None] * n_ranks, [None] * n_ranks)
        self._ops = [0] * n_ranks

    def _sync(self, bound_s: float | None = None, point: str = "") -> None:
        with self._cond:
            if self._broken:
                raise _Halt()
            self._arrived += 1
            if self._arrived == self.n:
                self._arrived = 0
                self._generation += 1
                self._cond.notify_all()
                return
            gen = self._generation
            deadline = None if bound_s is None else time.monotonic() + bound_s
            while gen == self._generation:
                if self._broken:
                    raise _Halt()
                if deadline is None:
                    self._cond.wait()
                    continue
                left = deadline - time.monotonic()
                if left <= 0:
                    self._broken = True
                    self._cond.notify_all()
                    raise Recoverable(TIMEOUT, f"{point}: a sibling rank missed "
                                               f"the {bound_s:.2f}s bound")
                self._cond.wait(left)

    def _next_slots(self, rank: int) -> list:
        k = self._ops[rank]
        self._ops[rank] = k + 1
        return self._slots[k & 1]

    def abort(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def barrier(self, rank: int, bound_s: float | None = None) -> None:
        self._sync(bound_s, "barrier")

    def broadcast(self, rank: int, value=None):
        slots = self._next_slots(rank)
        if rank == 0:
            slots[0] = value
        self._sync()
        return slots[0]

    def exchange(self, rank: int, value, bound_s: float | None = None) -> list:
        slots = self._next_slots(rank)
        slots[rank] = value
        self._sync(bound_s, "exchange")
        return list(slots)

    def reduce_scatter(self, rank: int, vec: np.ndarray,
                       bounds: list[tuple[int, int]],
                       out: np.ndarray | None = None,
                       bound_s: float | None = None) -> np.ndarray:
        """Sum over ranks, each rank keeping its own shard, in out if given.
        The fold runs rank 0 upward on every rank, so all replicas sum in
        one order."""
        slots = self._next_slots(rank)
        slots[rank] = vec
        self._sync(bound_s, "reduce_scatter")
        off, ln = bounds[rank]
        if out is None:
            out = np.empty(ln, dtype=vec.dtype)
        np.copyto(out, slots[0][off:off + ln])
        for r in range(1, self.n):
            out += slots[r][off:off + ln]
        return out

    # Nothing in ftdp calls all_gather; perfbench's trace hook wraps it by name.
    def all_gather(self, rank: int, shard: np.ndarray,
                   bounds: list[tuple[int, int]], total: int) -> np.ndarray:
        slots = self._next_slots(rank)
        slots[rank] = shard
        self._sync()
        full = np.empty(total, dtype=np.float32)
        for r, (off, ln) in enumerate(bounds):
            full[off:off + ln] = slots[r]
        return full


# ---------------------------------------------------------------------------
# Commit vote (leader ranks only)


class ControlPlane:
    """The leader's side of the commit vote, which the quorum coordinator
    chairs on the link the leader reports on (see quorum.QuorumCoordinator).
    """

    def __init__(self, client: QuorumClient):
        self.client = client

    # Nothing in ftdp calls reconfig; perfbench's trace hook wraps it by name.
    def reconfig(self, decision: Decision) -> bool:
        return True

    def round(self, decision: Decision, next_step: int, ok: bool = False,
              cursor: int = 0) -> Decision:
        """Vote on decision's step and return the next decision, whose
        outcome is True if the step commits.

        A healthy member votes its collective's success and its cursor after
        the step; a lagging one votes its install status, which decides
        nothing. The vote stands for the next report. A replica outside the
        decision, or in one with no healthy member, has no vote, and neither
        has a solo member that failed: each reports next_step, the step it
        holds, instead.
        """
        if (self.client.replica_id not in decision.members or not decision.healthy
                or len(decision.members) == 1 and not ok):
            return self.client.exchange(next_step)
        return self.client.vote(decision, ok, cursor)


# ---------------------------------------------------------------------------
# The replica runtime


@dataclass
class _Fetched:
    step: int
    params: np.ndarray
    momentum: np.ndarray


class _RankWorker:
    def __init__(self, rt: "ReplicaRuntime", rank: int):
        self.rt = rt
        self.rank = rank
        off, self.len = rt.shard_bounds[rank]
        self.params_full = rt.params
        self.params_shard = rt.params[off:off + self.len]
        self.params64_shard = rt.params64[off:off + self.len]
        self.momentum_shard = rt.momentum[off:off + self.len]
        # Step buffers, reused every step: the forward/backward workspace,
        # and this rank's gradient shard, which is also the ring's buffer
        # and the optimizer's scratch.
        self.ws = model.Workspace(rt.dims, rt.params64)
        self.grad_shard = np.empty(self.len, dtype=np.float32)
        self.ring = ftar.RingGroup(rt.rid, rank, rt.router, plan=rt.plan,
                                   incarnation=rt.incarnation)
        self.store = rt.stores[rank]
        self.loss: float | None = None
        self.fetched: _Fetched | None = None
        self._fetch_thread: threading.Thread | None = None

    # -- catch-up ----------------------------------------------------------

    def start_fetch(self, decision: Decision, want_step: int) -> None:
        if not decision.healthy:
            return  # no donors this round; the status vote fails it
        if self._fetch_thread is not None and self._fetch_thread.is_alive():
            return
        if self.fetched is not None and self.fetched.step == want_step:
            return
        self.fetched = None
        self._fetch_thread = threading.Thread(
            target=self._fetch_loop, args=(tuple(decision.healthy), want_step),
            daemon=True, name=f"fetch-r{self.rt.rid}k{self.rank}")
        self._fetch_thread.start()

    def _fetch_loop(self, healthy: tuple[int, ...], want_step: int) -> None:
        rt = self.rt
        for attempt in range(max(1, len(healthy))):
            if rt.mortality.dying.is_set():
                return
            step = want_step
            try:
                donor = checkpoint.pick_donor(healthy, rt.rid, self.rank, attempt)
                addr = rt.book.lookup(donor, self.rank)
                try:
                    p, m = self._fetch(addr, step)
                except checkpoint.SnapshotUnavailable as exc:
                    # The donor committed the step this pull rides along
                    # with before the pull reached it. Its new state is the
                    # one installing want_step and updating would give.
                    if exc.available != want_step + 1:
                        raise
                    step = want_step + 1
                    p, m = self._fetch(addr, step)
            except (FtdpError, checkpoint.SnapshotUnavailable) as exc:
                log.debug("replica %d rank %d: fetch attempt %d failed: %s",
                          rt.rid, self.rank, attempt, exc)
                continue
            if len(p) != self.len * 4 or len(m) != self.len * 4:
                log.warning("replica %d rank %d: donor shard size mismatch",
                            rt.rid, self.rank)
                continue
            self.fetched = _Fetched(step, np.frombuffer(p, dtype=np.float32),
                                    np.frombuffer(m, dtype=np.float32))
            return

    def _fetch(self, addr: transport.PeerAddress, step: int):
        rt = self.rt
        return checkpoint.fetch_shard(addr, step, self.rank, rt.rid, rt.incarnation,
                                      self.len, timeout_s=rt.cfg.timeouts.fetch_s,
                                      plan=rt.plan)

    def join_fetch(self, want_step: int) -> bool:
        """Whether want_step, or the step after it, is in hand."""
        t = self._fetch_thread
        if t is not None:
            t.join(timeout=self.rt.cfg.timeouts.fetch_s + 1.0)
        return self.fetched is not None and self.fetched.step in (want_step, want_step + 1)

    # -- iteration ---------------------------------------------------------

    def mark(self) -> None:
        self.rt.progress[self.rank] = time.monotonic()

    def maybe_scripted_fault(self, decision: Decision) -> None:
        rt = self.rt
        for i, f in enumerate(rt.scripted):
            if i in rt.fired or decision.target_step != f.at_step:
                continue
            # The leader kills: it writes the replica's last records of a
            # step (state hash, manifest, metrics row), so the step before
            # the kill is on disk whole.
            if f.kind == "kill_replica" and self.rank == 0:
                rt.fired.add(i)
                log.info("replica %d: scripted death at step %d", rt.rid, f.at_step)
                rt.mortality.die(EXIT_KILLED)
            elif f.kind == "hang_rank" and f.rank == self.rank:
                rt.fired.add(i)
                log.info("replica %d rank %d: scripted hang at step %d",
                         rt.rid, self.rank, f.at_step)
                # Mark no progress: a sibling's bounded wait takes the
                # replica down, or the watchdog where no sibling reaches
                # one (a replica of one rank, or a lagging step).
                while not rt.mortality.dying.wait(0.05):
                    pass
                raise _Halt()

    def share(self, decision: Decision | None) -> Decision:
        """Hand the leader's decision to every rank, the leader first moving
        the fault plan's clock to it."""
        if self.rank == 0:
            self.rt.plan.observe(decision.target_step, decision.epoch)
        return self.rt.intra.broadcast(self.rank, decision)

    def iterate(self, decision: Decision) -> Decision | None:
        """One decision epoch: run decision's step and return the decision
        that follows it, or None once the run is past its last step."""
        rt = self.rt
        timeouts = rt.cfg.timeouts
        self.mark()
        t_start = time.monotonic()
        role = decision.role_of(rt.rid)

        if role == "unassigned":
            # Parked this round (e.g. gated rejoiner): drop stale links and
            # report again. The next decision's broadcast is the one sync
            # point, uniformly across ranks.
            if decision.generation > self.ring.generation:
                self.ring.close_links()
            return self.share(rt.ctrl.round(decision, rt.step + 1) if self.rank == 0 else None)
        self.maybe_scripted_fault(decision)
        target = decision.target_step
        if target > rt.cfg.total_steps:
            return None

        # Phase 1: make the data plane match the decision. Only a rebuild can
        # fail, so only a rebuild is followed by a link-status exchange. Every
        # rank rebuilt its ring for the same past decisions, so all agree on
        # whether this one rebuilds.
        link_ok = True
        if decision.generation > self.ring.generation:
            rc_ok = True
            try:
                addrs = {m: rt.book.lookup(m, self.rank) for m in decision.members}
                self.ring.reconfig(addrs, decision.generation,
                                   deadline_s=timeouts.connect_s)
            except Recoverable as exc:
                log.warning("replica %d rank %d: reconfig failed: %s",
                            rt.rid, self.rank, exc.detail)
                rc_ok = False
            link_ok = all(rt.intra.exchange(self.rank, rc_ok,
                                            bound_s=timeouts.connect_s + timeouts.chunk_s))

        # Phase 2: compute (healthy) or zero-contribute and pull (lagging).
        if role == "healthy":
            if target != rt.step + 1:
                raise InvariantViolation(
                    f"healthy replica {rt.rid} at step {rt.step} got target {target}")
            batch = model.next_batch(rt.cfg.data_seed, rt.rid, rt.cursor + self.rank,
                                     rt.cfg.topology.micro_batch, rt.dims)
            self.loss, grad_full = model.forward_backward(
                model.ModelState(rt.dims, self.params_full, rt.step), batch, self.ws)
            grad_shard = rt.intra.reduce_scatter(self.rank, grad_full, rt.shard_bounds,
                                                 self.grad_shard, bound_s=timeouts.chunk_s)
        else:
            self.loss = None
            grad_shard = self.grad_shard
            grad_shard.fill(0.0)
            self.start_fetch(decision, target - 1)

        # Phase 3: cross-replica reduction; laggers ride along with zeros.
        self.mark()
        ftar_ok = link_ok
        if link_ok:
            try:
                ftar.ftar_all_reduce(self.ring, grad_shard, target, rt.pipe_cfg)
            except Recoverable as exc:
                log.warning("replica %d rank %d: reduction failed: %s",
                         rt.rid, self.rank, exc.detail)
                ftar_ok = False
        fetch_ok = role == "healthy" or self.join_fetch(target - 1)
        statuses = rt.intra.exchange(self.rank, (ftar_ok, fetch_ok))
        vote = all(s[0] for s in statuses)
        can_install = all(s[1] for s in statuses)

        # Phase 4: the leader's commit vote. The decision that answers it
        # carries the outcome, and goes out to every rank.
        self.mark()
        nxt, stall = None, 0.0
        if self.rank == 0:
            t0 = time.monotonic()
            if role == "healthy":
                nxt = rt.ctrl.round(decision, rt.step + 1, vote, rt.cursor + rt.R)
            else:
                nxt = rt.ctrl.round(decision, rt.step + 1, can_install)
            stall = time.monotonic() - t0
        nxt = self.share(nxt)
        committed = nxt.outcome is True

        if self.rank == 0:
            if committed or target != rt.retry_target:
                rt.retry_count = 0
            rt.retry_target = target
            if not committed:
                rt.retry_count += 1
                if rt.retry_count >= RETRY_BUDGET:
                    log.error("replica %d: step %d retried %d times, giving up",
                              rt.rid, target, rt.retry_count)
                    rt.mortality.die(EXIT_FATAL)

        if committed and (role == "healthy" or can_install):
            self.store.invalidate()  # fetches read the shard in place
            updated = False  # a pull of the donor's new state needs no update
            if role != "healthy":
                self.params_shard[:] = self.fetched.params
                self.momentum_shard[:] = self.fetched.momentum
                updated = self.fetched.step == target
                self.fetched = None
            if not updated:
                h = len(decision.healthy)
                denom = (h if rt.cfg.tuning.normalize_by == "healthy"
                         else rt.cfg.topology.num_replicas) * rt.R
                grad_shard *= np.float32(1.0 / denom)
                lr = model.compute_lr(rt.lr_policy, target, h, rt.cfg.topology.num_replicas)
                model.optimizer_step(
                    model.ModelState(rt.dims, self.params_shard, rt.step),
                    model.OptimizerState(self.momentum_shard, rt.cfg.tuning.momentum_beta),
                    grad_shard, lr, scratch=grad_shard)
            self.params64_shard[:] = self.params_shard
            self.store.capture(target, self.params_shard, self.momentum_shard)
            if self.rank == 0:
                rt.step = target
                if role == "healthy":
                    rt.cursor += rt.R
            # Every shard, and its float64 copy, is updated before any rank
            # reads the whole state: rank 0's hash now, every rank's forward
            # pass next step.
            rt.intra.barrier(self.rank, bound_s=timeouts.chunk_s)
            if self.rank == 0:
                rt.record_hash(target)
            # The lowest healthy replica writes the checkpoint, so an
            # interval is not lost while any replica is down.
            if (role == "healthy" and rt.rid == min(decision.healthy)
                    and target % rt.cfg.checkpoint_interval == 0):
                checkpoint.write_shard(rt.ckpt_dir, target, self.rank,
                                       self.params_shard, self.momentum_shard)
                rt.intra.barrier(self.rank)
                if self.rank == 0:
                    checkpoint.write_manifest(rt.ckpt_dir, target, rt.R, rt.dims,
                                              {rt.rid: rt.cursor})

        self.mark()
        if self.rank == 0:
            rt.record_metrics(decision, role, committed, self.loss,
                              (time.monotonic() - t_start) * 1e3, stall * 1e3)
        # The last step's vote is answered by the decision past the end, so
        # the coordinator's frontier outlives this process and a straggler
        # can never be handed the final step again. Everyone exits on it in
        # the next iteration.
        return nxt

    def run(self) -> None:
        rt = self.rt
        try:
            decision = None
            if self.rank == 0:
                rt.client = QuorumClient(
                    rt.coord_addr, rt.rid, rt.incarnation,
                    round_deadline_s=rt.cfg.timeouts.quorum_round_s,
                    join_wait_s=rt.cfg.timeouts.join_wait_s,
                    connect_deadline_s=rt.cfg.timeouts.connect_s * 4)
                rt.mortality.register_closer(rt.client.close)
                rt.ctrl = ControlPlane(rt.client)
                decision = rt.client.exchange(rt.step + 1)
            # The first decision's broadcast also holds every rank until all are up.
            decision = self.share(decision)
            while decision is not None:
                decision = self.iterate(decision)
            rt.completed = True
        except _Halt:
            pass
        except Recoverable as exc:
            log.error("replica %d rank %d stopping: %s", rt.rid, self.rank, exc)
            self._die_quietly(EXIT_FATAL)
        except (Fatal, InvariantViolation) as exc:
            log.error("replica %d rank %d: %s", rt.rid, self.rank, exc)
            self._die_quietly(
                EXIT_INVARIANT if isinstance(exc, InvariantViolation) else EXIT_FATAL)
        except ConfigError as exc:
            log.error("replica %d rank %d: %s", rt.rid, self.rank, exc)
            self._die_quietly(EXIT_CONFIG)
        finally:
            self.ring.close_links()

    def _die_quietly(self, code: int) -> None:
        try:
            self.rt.mortality.die(code)
        except _Halt:
            pass


class ReplicaRuntime:
    """Owns the shared state and threads of one replica process."""

    def __init__(self, cfg: ScenarioConfig, replica_id: int, incarnation: int,
                 run_dir: str, book: FilePortBook, coord_addr: transport.PeerAddress,
                 listener: transport.Listener | None = None,
                 initial_cursor: int = 0,
                 restore: tuple[str, int] | None = None,
                 exit_fn=os._exit):
        self.cfg = cfg
        self.rid = replica_id
        self.incarnation = incarnation
        self.run_dir = run_dir
        self.book = book
        self.coord_addr = coord_addr
        self.R = cfg.topology.ranks_per_replica
        self.dims = cfg.topology.model_dims
        self.param_count = model.param_count(self.dims)
        self.shard_bounds = ftar.segment_bounds(self.param_count, self.R)
        self.lr_policy = cfg.lr_policy()
        self.pipe_cfg = ftar.PipelineConfig(
            chunk_bytes=cfg.tuning.chunk_bytes,
            max_in_flight=cfg.tuning.max_in_flight,
            per_chunk_timeout_s=cfg.timeouts.chunk_s)
        self.ckpt_dir = os.path.join(run_dir, "checkpoints")

        self.mortality = Mortality(exit_fn)
        self.intra = IntraGroup(self.R)
        self.mortality.register_closer(self.intra.abort)
        rules = [
            transport.FaultRule(rid, f.at_step, f.duration_steps)
            for f in cfg.failures if f.kind == "drop_links"
            for rid in f.targets(cfg.topology.num_replicas)
        ]
        self.plan = transport.FaultPlan(rules, self_replica=replica_id)
        self.scripted = [f for f in cfg.failures_for(replica_id)
                         if f.kind != "drop_links"]
        self.fired: set[int] = set()

        # Each rank's last committed shard, served to fetches by the router.
        self.stores = [checkpoint.SnapshotStore() for _ in range(self.R)]
        self.listener = listener or transport.Listener()
        self.router = transport.ConnectionRouter(self.listener, self.stores).start()
        self.mortality.register_closer(self.router.stop)

        # Step/cursor/state this replica can vouch for at startup; one copy.
        if restore is not None:
            ckpt_dir, step = restore
            shards = [checkpoint.read_shard(ckpt_dir, step, r) for r in range(self.R)]
            self.params = np.concatenate([np.frombuffer(p, dtype=np.float32) for p, _ in shards])
            self.momentum = np.concatenate([np.frombuffer(m, dtype=np.float32) for _, m in shards])
            if self.params.size != self.param_count:
                raise ConfigError("restored checkpoint does not match model_dims")
            self.step = step
        else:
            self.params = model.init_model(self.dims, cfg.model_seed).params
            self.momentum = np.zeros(self.param_count, dtype=np.float32)
            self.step = 0
        # The float64 copy every forward pass reads; each rank refreshes its
        # shard of it after every update.
        self.params64 = self.params.astype(np.float64)

        self.cursor = initial_cursor
        for step_, rid_, cursor_ in checkpoint.parse_ledger(os.path.join(run_dir, "ledger.txt")):
            if rid_ == self.rid:
                self.cursor = cursor_

        self.progress = [time.monotonic()] * self.R
        self.retry_target = -1
        self.retry_count = 0
        self.completed = False
        self.client: QuorumClient | None = None
        self.ctrl: ControlPlane | None = None
        self.workers = [_RankWorker(self, r) for r in range(self.R)]
        for w in self.workers:
            w.store.capture(self.step, w.params_shard, w.momentum_shard)
            self.mortality.register_closer(w.ring.close_links)

        self._metrics_fh = open(os.path.join(run_dir, f"metrics_replica{self.rid}.jsonl"),
                                "a", buffering=1)
        self._hashes_fh = open(os.path.join(run_dir, f"hashes_replica{self.rid}.jsonl"),
                               "a", buffering=1)
        self.tokens_committed = 0

    @property
    def port(self) -> int:
        return self.listener.port

    def record_metrics(self, decision: Decision, role: str, committed: bool,
                       loss: float | None, wall_ms: float, stall_ms: float) -> None:
        if committed:
            # Group consumption this step: every healthy member fed R batches.
            self.tokens_committed += (len(decision.healthy) * self.R
                                      * self.cfg.topology.micro_batch)
        event = ""
        if not committed:
            event = "retry"
        elif role != "healthy":
            event = "catch-up" if self.step == decision.target_step else "lagging"
        row = {
            "step": decision.target_step,
            "replica_id": self.rid,
            "phase": "commit" if committed else "retry",
            "wall_ms": round(wall_ms, 3),
            "healthy_count": len(decision.healthy),
            "tokens_committed": self.tokens_committed,
            "loss": loss,
            "stall_ms": round(stall_ms, 3),
            "event": event,
        }
        self._metrics_fh.write(json.dumps(row) + "\n")

    def record_hash(self, step: int) -> None:
        digest = model.hash_state(self.params, self.momentum, step)
        self._hashes_fh.write(json.dumps(
            {"step": step, "replica_id": self.rid, "hash": digest}) + "\n")

    def run(self) -> int:
        threads = [threading.Thread(target=w.run, daemon=True,
                                    name=f"rank-r{self.rid}k{w.rank}")
                   for w in self.workers]
        for t in threads:
            t.start()
        watch_ranks(threads, self.mortality, self.progress, self.cfg.timeouts.watchdog_s)
        self.router.stop()
        if self.client is not None:
            self.client.close()
        self._metrics_fh.close()
        self._hashes_fh.close()
        if self.mortality.code is not None:
            return self.mortality.code
        return EXIT_OK if self.completed else EXIT_FATAL
