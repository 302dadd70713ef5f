"""One training replica: rank threads, commit protocol, and catch-up.

A replica hosts ranks_per_replica worker threads in one process. Each rank
owns a contiguous shard of the flat parameter vector and its momentum. Per
iteration the leader (rank 0) trades a readiness report for a group decision,
then every rank walks the same sequence of intra-replica sync points so the
threads can never deadlock against each other:

    decision broadcast -> link-status exchange -> compute ->
    reduce status exchange -> outcome broadcast -> (on commit) two gathers

Healthy replicas compute gradients from their own batch cursor, reduce them
intra-replica, then across same-rank peers on the ring. Lagging replicas join
the ring with zero gradients (consuming nothing) while each rank pulls its
shard of the previous committed state from a healthy donor; if every rank's
pull lands, applying the freshly reduced gradient on the pulled state yields
bit-identical parameters to the healthy peers in a single step.

Whether a step commits is settled by a two-phase round chaired by the lowest
healthy replica id: healthy members vote their collective's success, the
chair broadcasts commit/retry to every member (lagging ones included). A
retry recomputes the same step from unchanged cursors after the next
decision; consumption stays exactly-once because the shared ledger line is
appended only around the commit edge, before anything irreversible.

All sockets of a replica share one listener; inbound streams are routed by
their hello (purpose, rank, generation). Scripted faults arm off decision
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

from ftdp import checkpoint, ftar, model, transport, wire
from ftdp.errors import (
    PEER_DOWN,
    ConfigError,
    Fatal,
    FtdpError,
    InvariantViolation,
    Recoverable,
)
from ftdp.quorum import Decision, QuorumClient
from ftdp.scenario import RETRY_BUDGET, ScenarioConfig

log = logging.getLogger("ftdp.replica")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_FATAL = 4
EXIT_KILLED = 9  # scripted process death


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


class Watchdog(threading.Thread):
    """Kills the process when any rank stops making progress.

    Progress marks are wall-clock stamps the ranks refresh at their sync
    points; a wedged rank (or a thread stuck on a dead barrier) stops
    refreshing and the whole replica is taken down so the group can drop it
    cleanly instead of stalling on half a replica.
    """

    def __init__(self, mortality: Mortality, progress: list[float], limit_s: float):
        super().__init__(daemon=True, name="watchdog")
        self.mortality = mortality
        self.progress = progress
        self.limit_s = limit_s
        self._stopped = threading.Event()

    def stop(self) -> None:
        self._stopped.set()

    def run(self) -> None:
        while not self._stopped.wait(0.2):
            if self.mortality.dying.is_set():
                return
            stale = time.monotonic() - min(self.progress)
            if stale > self.limit_s:
                log.error("watchdog: no progress for %.1fs, dying", stale)
                try:
                    self.mortality.die(EXIT_FATAL)
                except _Halt:
                    return


# ---------------------------------------------------------------------------
# Peer discovery


class AddressBook:
    """Maps replica ids to dialable endpoints; ranks share the endpoint."""

    def lookup(self, replica_id: int, rank: int) -> transport.PeerAddress:
        raise NotImplementedError


class StaticBook(AddressBook):
    """Dict-backed book for in-process clusters; respawns overwrite."""

    def __init__(self, host: str = "127.0.0.1"):
        self.host = host
        self._ports: dict[int, int] = {}

    def publish(self, replica_id: int, incarnation: int, port: int) -> None:
        self._ports[replica_id] = port

    def lookup(self, replica_id: int, rank: int) -> transport.PeerAddress:
        port = self._ports.get(replica_id)
        if port is None:
            raise Recoverable(PEER_DOWN, f"replica {replica_id} not published")
        return transport.PeerAddress(replica_id, rank, self.host, port)


class FilePortBook(AddressBook):
    """Append-only ports file shared by the worker processes of one run.

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
    """Barrier-paired collectives for the rank threads of one replica.

    Every operation is two waits around a shared slot array: publish, sync,
    read, sync. The second wait keeps a fast rank from clobbering slots of
    an operation a slow rank is still reading. abort() breaks current and
    future waits so a dying replica unwinds all its ranks.
    """

    def __init__(self, n_ranks: int):
        self.n = n_ranks
        self._barrier = threading.Barrier(n_ranks)
        self._slots: list = [None] * n_ranks

    def _sync(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise _Halt() from exc

    def abort(self) -> None:
        self._barrier.abort()

    def broadcast(self, rank: int, value=None):
        if rank == 0:
            self._slots[0] = value
        self._sync()
        out = self._slots[0]
        self._sync()
        return out

    def exchange(self, rank: int, value) -> list:
        self._slots[rank] = value
        self._sync()
        out = list(self._slots)
        self._sync()
        return out

    def reduce_scatter(self, rank: int, vec: np.ndarray,
                       bounds: list[tuple[int, int]]) -> np.ndarray:
        """Sum over ranks, each rank keeping its own shard. The fold runs
        rank 0 upward on every rank, so all replicas sum in one order."""
        self._slots[rank] = vec
        self._sync()
        off, ln = bounds[rank]
        out = self._slots[0][off:off + ln].copy()
        for r in range(1, self.n):
            out += self._slots[r][off:off + ln]
        self._sync()
        return out

    def all_gather(self, rank: int, shard: np.ndarray,
                   bounds: list[tuple[int, int]], total: int) -> np.ndarray:
        self._slots[rank] = shard
        self._sync()
        full = np.empty(total, dtype=np.float32)
        for r, (off, ln) in enumerate(bounds):
            full[off:off + ln] = self._slots[r]
        self._sync()
        return full


# ---------------------------------------------------------------------------
# Commit protocol (leader ranks only)


class ControlPlane:
    """Two-phase commit star over the leaders, rebuilt per generation.

    The chair is the lowest healthy replica id. Non-chair members dial the
    chair's router with the generation in their hello; stale-generation
    dials are discarded on the chair side, so a retried step can never see
    frames from the attempt it replaced.
    """

    def __init__(self, replica_id: int, incarnation: int,
                 router: transport.ConnectionRouter, book: AddressBook,
                 timeout_s: float = 5.0):
        self.rid = replica_id
        self.incarnation = incarnation
        self.router = router
        self.book = book
        self.timeout_s = timeout_s
        self.generation = -1
        self.chair: int | None = None
        self.up: transport.Connection | None = None
        self.members: dict[int, transport.Connection] = {}

    def close(self) -> None:
        if self.up is not None:
            self.up.close()
            self.up = None
        for conn in self.members.values():
            conn.close()
        self.members.clear()
        self.chair = None

    def reconfig(self, decision: Decision) -> bool:
        """Rebuild the star for a new generation. Best effort: a member that
        never dials in is simply absent and costs the round a retry."""
        self.close()
        self.generation = decision.generation
        members = decision.members
        if self.rid not in members or not decision.healthy:
            return True
        self.chair = min(decision.healthy)
        gen = self.generation
        if self.chair != self.rid:
            try:
                self.up = transport.connect(
                    self.book.lookup(self.chair, 0), wire.HELLO_CTRL,
                    (self.rid, 0, self.incarnation, gen), deadline_s=self.timeout_s)
            except Recoverable as exc:
                log.warning("replica %d: cannot reach chair %d: %s",
                            self.rid, self.chair, exc.detail)
                return False
            return True
        want = set(members) - {self.rid}
        deadline = time.monotonic() + self.timeout_s
        while want and time.monotonic() < deadline:
            try:
                hello, conn = self.router.take(
                    wire.HELLO_CTRL,
                    pred=lambda h: h.aux == gen and h.rank_id == 0 and h.replica_id in want,
                    timeout=max(0.01, deadline - time.monotonic()),
                    discard=lambda h: h.aux < gen)
            except Recoverable:
                break
            self.members[hello.replica_id] = conn
            want.discard(hello.replica_id)
        if want:
            log.warning("chair %d: members %s never dialed in", self.rid, sorted(want))
        return True

    def round(self, decision: Decision, vote: bool, on_commit=None) -> bool:
        """Run one commit round; returns True to commit, False to retry.

        on_commit fires exactly once on the commit edge: on the chair before
        the outcome leaves (write-ahead), on members upon receiving it.
        Lagging members pass nothing and only await the outcome.
        """
        if self.rid not in decision.members or not decision.healthy:
            return False
        if len(decision.members) == 1:
            if vote and on_commit is not None:
                on_commit()
            return vote
        if self.chair == self.rid:
            return self._chair_round(decision, vote, on_commit)
        if self.rid in decision.healthy:
            return self._member_round(decision.target_step, vote, on_commit)
        return self._await_outcome(decision.target_step, on_commit)

    def _chair_round(self, decision: Decision, vote: bool, on_commit) -> bool:
        target = decision.target_step
        others = [rid for rid in decision.healthy if rid != self.rid]
        # A no vote of the chair's own, or a member that never dialed in,
        # settles the round: no PREPARE goes out and every member hears
        # RETRY at once. A member takes a RETRY in place of PREPARE as the
        # outcome, so no PREPARED is left behind on the star.
        ok = vote and all(rid in self.members for rid in others)
        voters = []
        if ok:
            for rid in others:
                conn = self.members[rid]
                try:
                    conn.send_frame(wire.PREPARE, target, 0,
                                    wire.encode_2pc(target, self.incarnation, 1),
                                    timeout=self.timeout_s)
                    voters.append((rid, conn))
                except FtdpError:
                    ok = False
        for rid, conn in voters:
            try:
                frame = conn.recv_frame(timeout=self.timeout_s)
                step, _inc, v = wire.decode_2pc(frame.payload)
                if frame.msg_type != wire.PREPARED or step != target or not v:
                    ok = False
            except FtdpError:
                ok = False
        if ok and on_commit is not None:
            on_commit()
        outcome = wire.COMMIT if ok else wire.RETRY
        payload = wire.encode_2pc(target, self.incarnation, 1 if ok else 0)
        for rid, conn in self.members.items():
            try:
                conn.send_frame(outcome, target, 0, payload, timeout=self.timeout_s)
            except FtdpError:
                log.debug("chair %d: outcome to %d failed", self.rid, rid)
        return ok

    def _member_round(self, target: int, vote: bool, on_commit) -> bool:
        if self.up is None or self.up.closed:
            return False
        try:
            frame = self.up.recv_frame(timeout=self.timeout_s)
            step, _inc, _v = wire.decode_2pc(frame.payload)
            if frame.msg_type != wire.PREPARE or step != target:
                return False
            self.up.send_frame(wire.PREPARED, target, 0,
                               wire.encode_2pc(target, self.incarnation, 1 if vote else 0),
                               timeout=self.timeout_s)
        except FtdpError:
            return False
        return self._await_outcome(target, on_commit)

    def _await_outcome(self, target: int, on_commit=None) -> bool:
        if self.up is None or self.up.closed:
            return False
        try:
            frame = self.up.recv_frame(timeout=self.timeout_s * 2)
        except FtdpError:
            return False
        step, _inc, _v = wire.decode_2pc(frame.payload)
        if step != target or frame.msg_type != wire.COMMIT:
            return False
        if on_commit is not None:
            on_commit()
        return True


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
        off, ln = rt.shard_bounds[rank]
        self.off, self.len = off, ln
        self.params_full = rt.init_params.copy()
        self.momentum_shard = rt.init_momentum[off:off + ln].copy()
        self.ring = ftar.RingGroup(rt.rid, rank, rt.router, plan=rt.plan,
                                   incarnation=rt.incarnation)
        self.store = checkpoint.SnapshotStore()
        self.loss: float | None = None
        self.fetched: _Fetched | None = None
        self._fetch_thread: threading.Thread | None = None
        self.wedged = False

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
            try:
                donor = checkpoint.pick_donor(healthy, rt.rid, self.rank, attempt)
                addr = rt.book.lookup(donor, self.rank)
                p, m = checkpoint.fetch_shard(
                    addr, want_step, self.rank, rt.rid, rt.incarnation, self.len,
                    timeout_s=rt.cfg.timeouts.fetch_s, plan=rt.plan)
            except (FtdpError, checkpoint.SnapshotUnavailable) as exc:
                log.debug("replica %d rank %d: fetch attempt %d failed: %s",
                          rt.rid, self.rank, attempt, exc)
                continue
            if len(p) != self.len * 4 or len(m) != self.len * 4:
                log.warning("replica %d rank %d: donor shard size mismatch",
                            rt.rid, self.rank)
                continue
            self.fetched = _Fetched(want_step,
                                    np.frombuffer(p, dtype=np.float32).copy(),
                                    np.frombuffer(m, dtype=np.float32).copy())
            return

    def join_fetch(self, want_step: int) -> bool:
        t = self._fetch_thread
        if t is not None:
            t.join(timeout=self.rt.cfg.timeouts.fetch_s + 1.0)
        return self.fetched is not None and self.fetched.step == want_step

    # -- iteration ---------------------------------------------------------

    def mark(self) -> None:
        self.rt.progress[self.rank] = time.monotonic()

    def maybe_scripted_fault(self, decision: Decision) -> None:
        rt = self.rt
        for i, f in enumerate(rt.scripted):
            if i in rt.fired or decision.target_step != f.at_step:
                continue
            if f.kind == "kill_replica":
                rt.fired.add(i)
                log.info("replica %d: scripted death at step %d", rt.rid, f.at_step)
                rt.mortality.die(EXIT_KILLED)
            elif f.kind == "hang_rank" and f.rank == self.rank:
                rt.fired.add(i)
                log.info("replica %d rank %d: scripted hang at step %d",
                         rt.rid, self.rank, f.at_step)
                self.wedged = True
                while not rt.mortality.dying.wait(0.05):
                    pass  # starve the watchdog; it exits the process
                raise _Halt()

    def iterate(self) -> bool:
        """One decision epoch. Returns False once the run is complete."""
        rt = self.rt
        self.mark()
        t_start = time.monotonic()
        stall = 0.0

        if self.rank == 0:
            t0 = time.monotonic()
            rt.decision = rt.client.exchange(rt.step + 1)
            stall += time.monotonic() - t0
            rt.plan.observe(rt.decision.target_step, rt.decision.epoch)
        decision = rt.intra.broadcast(self.rank, rt.decision)
        role = decision.role_of(rt.rid)

        if role != "unassigned":
            self.maybe_scripted_fault(decision)
        elif decision.generation > self.ring.generation:
            # Parked this round (e.g. gated rejoiner): drop stale links and
            # poll again. No further sync points, uniformly across ranks.
            self.ring.close_links()
            if self.rank == 0:
                rt.ctrl.close()
            return True
        else:
            return True

        target = decision.target_step
        if target > rt.cfg.total_steps:
            return False

        # Phase 1: make the data plane match the decision.
        rc_ok = True
        if decision.generation > self.ring.generation:
            try:
                addrs = {m: rt.book.lookup(m, self.rank) for m in decision.members}
                self.ring.reconfig(addrs, decision.generation,
                                   deadline_s=rt.cfg.timeouts.connect_s)
            except Recoverable as exc:
                log.warning("replica %d rank %d: reconfig failed: %s",
                            rt.rid, self.rank, exc.detail)
                rc_ok = False
            if self.rank == 0:
                rc_ok = rt.ctrl.reconfig(decision) and rc_ok
        link_ok = all(rt.intra.exchange(self.rank, rc_ok))

        # Phase 2: compute (healthy) or zero-contribute and pull (lagging).
        if role == "healthy":
            if target != rt.step + 1:
                raise InvariantViolation(
                    f"healthy replica {rt.rid} at step {rt.step} got target {target}")
            batch = model.next_batch(rt.cfg.data_seed, rt.rid, rt.cursor + self.rank,
                                     rt.cfg.topology.micro_batch, rt.dims)
            self.loss, grad_full = model.forward_backward(
                model.ModelState(rt.dims, self.params_full, rt.step), batch)
            grad_shard = rt.intra.reduce_scatter(self.rank, grad_full, rt.shard_bounds)
        else:
            self.loss = None
            grad_shard = np.zeros(self.len, dtype=np.float32)
            self.start_fetch(decision, target - 1)

        # Phase 3: cross-replica reduction; laggers ride along with zeros.
        self.mark()
        ftar_ok = link_ok
        if link_ok:
            try:
                ftar.ftar_all_reduce(self.ring, grad_shard, target, rt.pipe_cfg)
            except Recoverable as exc:
                log.info("replica %d rank %d: reduction failed: %s",
                         rt.rid, self.rank, exc.detail)
                ftar_ok = False
        fetch_ok = role == "healthy" or self.join_fetch(target - 1)
        statuses = rt.intra.exchange(self.rank, (ftar_ok, fetch_ok))
        vote = all(s[0] for s in statuses)
        can_install = all(s[1] for s in statuses)

        # Phase 4: commit round among leaders, outcome fanned back out.
        self.mark()
        if self.rank == 0:
            t0 = time.monotonic()
            on_commit = None
            if role == "healthy":
                on_commit = lambda: rt.ledger.append(target, rt.rid, rt.cursor + rt.R)
            rt.outcome = rt.ctrl.round(decision, vote and role == "healthy", on_commit)
            stall += time.monotonic() - t0
        committed = rt.intra.broadcast(self.rank, rt.outcome)

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

        if committed:
            advanced = role == "healthy" or can_install
            if role != "healthy" and can_install:
                self.params_full[self.off:self.off + self.len] = self.fetched.params
                self.momentum_shard[:] = self.fetched.momentum
                self.fetched = None
            if advanced:
                h = len(decision.healthy)
                denom = (h if rt.cfg.tuning.normalize_by == "healthy"
                         else rt.cfg.topology.num_replicas) * rt.R
                grad_shard *= np.float32(1.0 / denom)
                lr = model.compute_lr(rt.lr_policy, target, h,
                                      rt.cfg.topology.num_replicas)
                shard_view = self.params_full[self.off:self.off + self.len]
                model.optimizer_step(
                    model.ModelState(rt.dims, shard_view, rt.step),
                    model.OptimizerState(self.momentum_shard, rt.cfg.tuning.momentum_beta),
                    grad_shard, lr)
            if self.rank == 0 and advanced:
                rt.step = target
                if role == "healthy":
                    rt.cursor += rt.R
            # Fixed trace: both gathers run even when this replica stayed
            # behind (its junk gather is discarded by staying lagging).
            self.params_full = rt.intra.all_gather(
                self.rank, self.params_full[self.off:self.off + self.len].copy(),
                rt.shard_bounds, rt.param_count)
            momentum_full = rt.intra.all_gather(
                self.rank, self.momentum_shard.copy(), rt.shard_bounds, rt.param_count)
            if advanced:
                self.store.capture(target,
                                   self.params_full[self.off:self.off + self.len].tobytes(),
                                   self.momentum_shard.tobytes())
                if self.rank == 0:
                    rt.record_hash(target, self.params_full, momentum_full)
            # The lowest healthy replica (this step's chair) writes the
            # checkpoint, so an interval is not lost while any replica is down.
            if (role == "healthy" and rt.rid == min(decision.healthy)
                    and target % rt.cfg.checkpoint_interval == 0):
                checkpoint.write_shard(rt.ckpt_dir, target, self.rank,
                                       self.params_full[self.off:self.off + self.len].tobytes(),
                                       self.momentum_shard.tobytes())
                rt.intra.exchange(self.rank, True)
                if self.rank == 0:
                    checkpoint.write_manifest(rt.ckpt_dir, target, rt.R, rt.dims,
                                              {rt.rid: rt.cursor})

        self.mark()
        if self.rank == 0:
            rt.record_metrics(decision, role, committed, self.loss,
                              (time.monotonic() - t_start) * 1e3, stall * 1e3)
        # Always come back for one more round after the last commit: the
        # leader reports total+1, so the coordinator's frontier outlives this
        # process and a straggler can never be handed the final step again.
        # Everyone then exits on the target-past-the-end decision above.
        return True

    def run(self) -> None:
        rt = self.rt
        stop = rt.stop_serving
        server = threading.Thread(
            target=checkpoint.serve_fetches,
            args=(rt.router, self.store, stop),
            kwargs={"pred": (lambda h, r=self.rank: h.rank_id == r)},
            daemon=True, name=f"fetchsrv-r{rt.rid}k{self.rank}")
        server.start()
        try:
            if self.rank == 0:
                rt.client = QuorumClient(
                    rt.coord_addr, rt.rid, rt.incarnation,
                    round_deadline_s=rt.cfg.timeouts.quorum_round_s,
                    join_wait_s=rt.cfg.timeouts.join_wait_s,
                    connect_deadline_s=rt.cfg.timeouts.connect_s * 4)
                rt.mortality.register_closer(rt.client.close)
            rt.intra.exchange(self.rank, True)  # all ranks up before reporting
            while self.iterate():
                pass
            rt.completed = True
        except _Halt:
            pass
        except Recoverable as exc:
            log.warning("replica %d rank %d stopping: %s", rt.rid, self.rank, exc)
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
                 run_dir: str, book: AddressBook, coord_addr: transport.PeerAddress,
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

        self.listener = listener or transport.Listener()
        self.router = transport.ConnectionRouter(self.listener).start()
        self.mortality.register_closer(self.router.stop)

        # Step/cursor/params this replica can vouch for at startup.
        if restore is not None:
            ckpt_dir, step = restore
            parts, moms = [], []
            for r in range(self.R):
                p, m = checkpoint.read_shard(ckpt_dir, step, r)
                parts.append(np.frombuffer(p, dtype=np.float32))
                moms.append(np.frombuffer(m, dtype=np.float32))
            self.init_params = np.concatenate(parts)
            self.init_momentum = np.concatenate(moms)
            if self.init_params.size != self.param_count:
                raise ConfigError("restored checkpoint does not match model_dims")
            self.step = step
        else:
            self.init_params = model.init_model(self.dims, cfg.model_seed).params
            self.init_momentum = np.zeros(self.param_count, dtype=np.float32)
            self.step = 0

        ledger_path = os.path.join(run_dir, "ledger.txt")
        self.cursor = initial_cursor
        for step_, rid_, cursor_ in checkpoint.parse_ledger(ledger_path):
            if rid_ == self.rid:
                self.cursor = cursor_
        self.ledger = checkpoint.LoaderLedger(ledger_path)

        self.stop_serving = threading.Event()
        self.mortality.register_closer(self.stop_serving.set)
        self.progress = [time.monotonic()] * self.R
        self.decision: Decision | None = None
        self.outcome = False
        self.retry_target = -1
        self.retry_count = 0
        self.completed = False
        self.client: QuorumClient | None = None
        self.ctrl = ControlPlane(self.rid, incarnation, self.router, book,
                                 timeout_s=cfg.timeouts.two_pc_s)
        self.mortality.register_closer(self.ctrl.close)
        self.workers = [_RankWorker(self, r) for r in range(self.R)]
        for w in self.workers:
            w.store.capture(self.step,
                            self.init_params[w.off:w.off + w.len].tobytes(),
                            self.init_momentum[w.off:w.off + w.len].tobytes())
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

    def record_hash(self, step: int, params_full: np.ndarray,
                    momentum_full: np.ndarray) -> None:
        digest = model.hash_state(params_full, momentum_full, step)
        self._hashes_fh.write(json.dumps(
            {"step": step, "replica_id": self.rid, "hash": digest}) + "\n")

    def run(self) -> int:
        watchdog = Watchdog(self.mortality, self.progress, self.cfg.timeouts.watchdog_s)
        watchdog.start()
        threads = [threading.Thread(target=w.run, daemon=True,
                                    name=f"rank-r{self.rid}k{w.rank}")
                   for w in self.workers]
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(timeout=0.5)
        watchdog.stop()
        self.stop_serving.set()
        self.router.stop()
        if self.client is not None:
            self.client.close()
        self.ctrl.close()
        self.ledger.close()
        self._metrics_fh.close()
        self._hashes_fh.close()
        if self.mortality.code is not None:
            return self.mortality.code
        return EXIT_OK if self.completed else EXIT_FATAL
