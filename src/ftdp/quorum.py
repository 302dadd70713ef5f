"""Step agreement and group membership.

Each replica's leader rank reports the id of the step it can execute next:
a freshly started process holds the initial state and reports 1, a process
restored from a checkpoint at step k reports k+1, a replica whose step
failed re-reports the same id. The coordinator collects one report per
connected replica per round (bounded by a deadline) and answers every
reporter with a decision:

  target_step  max reported next_step; replicas at it are healthy, live
               replicas below it are behind and join the ring contributing
               zeros while they catch up. Dead replicas are simply absent.
               The target never regresses: if every live reporter is below
               a previously issued target, nobody is healthy and the round
               cannot commit, because the missing step was already executed
               by someone who has since left.
  generation   bumped whenever the healthy/behind role assignment changes
               or the target failed to advance (a retry implies the old
               ring may hold half-sent traffic), so every data connection
               can fence stragglers from abandoned attempts.

Stale incarnations are fenced: once a replica re-registers with a higher
incarnation, reports from its older self are ignored. A deliberately
scheduled rejoin (fault drills) is admission-gated so the outage lasts
exactly its scripted duration regardless of how fast the process restarts:
the restarted replica keeps reporting and stays unassigned until the gate
opens, and the round is then held open briefly so it lands in the same
decision on every run.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ftdp import transport, wire
from ftdp.errors import Fatal, INTERNAL_INVARIANT, PEER_DOWN, PROTOCOL_VIOLATION, Recoverable

log = logging.getLogger(__name__)

ROUND_DEADLINE_S = 2.0
JOIN_WAIT_S = 10.0


@dataclass(frozen=True)
class Decision:
    epoch: int
    target_step: int
    generation: int
    healthy: tuple[int, ...]
    behind: dict[int, int]  # replica -> its reported next_step

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted((*self.healthy, *self.behind)))

    def role_of(self, replica_id: int) -> str:
        if replica_id in self.healthy:
            return "healthy"
        if replica_id in self.behind:
            return "behind"
        return "unassigned"

    def encode(self) -> bytes:
        return wire.encode_decision(self.epoch, self.target_step, self.generation,
                                    list(self.healthy), dict(self.behind))

    @classmethod
    def decode(cls, payload: bytes) -> "Decision":
        epoch, target, gen, healthy, behind = wire.decode_decision(payload)
        return cls(epoch, target, gen, tuple(sorted(healthy)), behind)


@dataclass
class Report:
    next_step: int
    incarnation: int


class QuorumEngine:
    """Pure decision logic; the coordinator and the emulator both drive it."""

    def __init__(self):
        self.epoch = 0
        self.target_step = 0
        self.generation = 0
        self._incarnations: dict[int, int] = {}
        # replica -> [(admitting target, minimum incarnation)], earliest first
        self._admission: dict[int, list[tuple[int, int]]] = {}
        self._prev_roles: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def register(self, replica_id: int, incarnation: int) -> bool:
        """Track the newest incarnation of a replica; stale ones are refused."""
        cur = self._incarnations.get(replica_id, -1)
        if incarnation < cur:
            return False
        self._incarnations[replica_id] = incarnation
        return True

    def admit_after(self, replica_id: int, not_before_step: int,
                    min_incarnation: int = 0) -> None:
        """Schedule a rejoin gate.  min_incarnation scopes the gate to
        replacement processes, so it can be registered while the current
        incarnation is still alive and reporting without fencing it; the
        round can then be held for the replacement at exactly the gate step
        instead of whenever its death happens to be noticed."""
        queue = self._admission.setdefault(replica_id, [])
        queue.append((not_before_step, min_incarnation))
        queue.sort()

    def admission_gate(self, replica_id: int) -> int | None:
        queue = self._admission.get(replica_id)
        return queue[0][0] if queue else None

    def drop_admission(self, replica_id: int) -> None:
        """Discard the earliest gate only: later gates belong to failures
        that have not happened yet."""
        queue = self._admission.get(replica_id)
        if queue:
            queue.pop(0)
            if not queue:
                del self._admission[replica_id]

    def _gate_for(self, replica_id: int, incarnation: int) -> int | None:
        """Latest gate step binding this incarnation, or None if unbound."""
        queue = self._admission.get(replica_id)
        if not queue:
            return None
        steps = [step for step, floor in queue if incarnation >= floor]
        return max(steps) if steps else None

    def effective_reports(self, reports: dict[int, Report]) -> dict[int, Report]:
        """Drop stale incarnations, then hold gated rejoiners out until the
        rest of the group has reached their admission step."""
        live = {}
        for rid, rep in reports.items():
            if rep.incarnation < self._incarnations.get(rid, -1):
                log.debug("quorum: fencing stale incarnation %d of replica %d",
                          rep.incarnation, rid)
                continue
            self.register(rid, rep.incarnation)
            live[rid] = rep
        # Gates open only off non-gated reporters: a gated rejoiner alone in
        # a round must stay parked rather than drag the target backwards.
        ungated_max = max(
            (rep.next_step for rid, rep in live.items()
             if self._gate_for(rid, rep.incarnation) is None),
            default=0)
        out = {}
        for rid, rep in live.items():
            gate = self._gate_for(rid, rep.incarnation)
            if gate is None or gate <= ungated_max:
                out[rid] = rep
        return out

    def prospective_target(self, reports: dict[int, Report]) -> int:
        eff = self.effective_reports(reports)
        return max((rep.next_step for rep in eff.values()), default=self.target_step)

    def pending_joiners(self, reports: dict[int, Report]) -> set[int]:
        """Scheduled rejoiners whose gate would open at this round's target
        but whose report has not arrived yet; the round is held for them."""
        target = self.prospective_target(reports)
        eff = self.effective_reports(reports)
        return {rid for rid, queue in self._admission.items()
                if queue[0][0] <= target and rid not in eff}

    def decide(self, reports: dict[int, Report]) -> Decision:
        self.epoch += 1
        eff = self.effective_reports(reports)
        if not eff:
            # Nothing admissible: answer with current state so parked
            # reporters keep polling; roles memory is left untouched.
            return Decision(self.epoch, self.target_step, self.generation, (), {})
        target = max(rep.next_step for rep in eff.values())
        if target < self.target_step:
            # Every live reporter sits below a step that was already handed
            # out, i.e. committed by a cohort that has since gone away.
            # Re-running it with the survivors would fork the trajectory, so
            # the target holds and the reporters are parked as laggers until
            # a donor at the frontier shows up (or the run is restored).
            log.warning("quorum: live reports top out at %d but the frontier "
                        "is %d; holding the target", target, self.target_step)
            target = self.target_step
        healthy = tuple(sorted(rid for rid, rep in eff.items() if rep.next_step == target))
        behind = {rid: rep.next_step for rid, rep in sorted(eff.items())
                  if rep.next_step < target}
        roles = (healthy, tuple(sorted(behind)))
        advanced = target > self.target_step
        if roles != self._prev_roles or not advanced:
            self.generation += 1
        self._prev_roles = roles
        self.target_step = target
        for rid in (*healthy, *behind):
            queue = self._admission.get(rid)
            if not queue:
                continue
            # Consume the gates that bound this incarnation; gates scoped to
            # later replacements stay armed.
            inc = self._incarnations.get(rid, 0)
            keep = [(step, floor) for step, floor in queue if floor > inc]
            if keep:
                self._admission[rid] = keep
            else:
                self._admission.pop(rid, None)
        return Decision(self.epoch, target, self.generation, healthy, behind)


class QuorumClient:
    """Leader-rank side: one report, one decision, strictly alternating."""

    def __init__(self, addr: transport.PeerAddress, replica_id: int, incarnation: int,
                 round_deadline_s: float = ROUND_DEADLINE_S, join_wait_s: float = JOIN_WAIT_S,
                 connect_deadline_s: float = 15.0):
        self.replica_id = replica_id
        self.incarnation = incarnation
        self.round_deadline_s = round_deadline_s
        self.join_wait_s = join_wait_s
        self.last_epoch = 0
        self.conn = transport.connect(addr, wire.HELLO_QUORUM,
                                      (replica_id, 0, incarnation, 0),
                                      deadline_s=connect_deadline_s)

    def exchange(self, next_step: int, deadline_s: float | None = None) -> Decision:
        """Report readiness for next_step and wait for the round's decision."""
        resend_after = self.round_deadline_s + self.join_wait_s + 2.0
        deadline = time.monotonic() + (deadline_s if deadline_s is not None
                                       else 3 * resend_after)
        payload = wire.encode_report(self.last_epoch, next_step,
                                     self.replica_id, self.incarnation)
        self.conn.send_frame(wire.QUORUM_REPORT, next_step, self.last_epoch, payload)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise Recoverable(PEER_DOWN, "quorum coordinator unresponsive")
            try:
                frame = self.conn.recv_frame(timeout=min(resend_after, remaining))
            except Recoverable:
                if time.monotonic() >= deadline:
                    raise
                self.conn.send_frame(wire.QUORUM_REPORT, next_step, self.last_epoch, payload)
                continue
            if frame.msg_type != wire.QUORUM_DECISION:
                raise Fatal(PROTOCOL_VIOLATION, f"expected QUORUM_DECISION, got {frame.name}")
            decision = Decision.decode(frame.payload)
            if decision.epoch <= self.last_epoch:
                continue  # duplicate from a superseded round
            self.last_epoch = decision.epoch
            return decision

    def close(self) -> None:
        self.conn.close()


class _Link:
    def __init__(self, conn: transport.Connection, replica_id: int, incarnation: int):
        self.conn = conn
        self.replica_id = replica_id
        self.incarnation = incarnation
        self.alive = True


class QuorumCoordinator:
    """TCP service running the decision engine.

    One reader thread per leader connection feeds an inbox; the round loop
    waits until every connected replica has reported (or the deadline
    passes, or only a scheduled joiner is missing and the longer join wait
    applies), then answers every consumed report with the decision.
    """

    def __init__(self, listener: transport.Listener,
                 round_deadline_s: float = ROUND_DEADLINE_S,
                 join_wait_s: float = JOIN_WAIT_S,
                 expected_replicas: int | None = None):
        self.listener = listener
        self.engine = QuorumEngine()
        self.round_deadline_s = round_deadline_s
        self.join_wait_s = join_wait_s
        self.expected_replicas = expected_replicas
        self._assembled = expected_replicas is None
        self._router = transport.ConnectionRouter(listener).start()
        self._links: dict[int, _Link] = {}
        self._inbox: dict[int, Report] = {}
        self._cv = threading.Condition()
        self._running = True
        self._threads = [threading.Thread(target=self._admit_loop, daemon=True),
                         threading.Thread(target=self._round_loop, daemon=True)]
        self.decisions_made = 0

    def start(self) -> "QuorumCoordinator":
        for t in self._threads:
            t.start()
        return self

    def expect_join(self, replica_id: int, not_before_step: int,
                    min_incarnation: int = 0) -> None:
        with self._cv:
            self.engine.admit_after(replica_id, not_before_step, min_incarnation)

    def _admit_loop(self) -> None:
        while self._running:
            try:
                hello, conn = self._router.take(wire.HELLO_QUORUM, timeout=0.25)
            except Recoverable:
                continue
            with self._cv:
                old = self._links.get(hello.replica_id)
                if old is not None and old.incarnation > hello.incarnation:
                    conn.close()  # stale process talking to us
                    continue
                if old is not None:
                    old.alive = False
                    old.conn.close()
                self.engine.register(hello.replica_id, hello.incarnation)
                link = _Link(conn, hello.replica_id, hello.incarnation)
                self._links[hello.replica_id] = link
                self._cv.notify_all()
            threading.Thread(target=self._read_loop, args=(link,), daemon=True).start()

    def _read_loop(self, link: _Link) -> None:
        while self._running and link.alive:
            try:
                frame = link.conn.recv_frame(timeout=0.5, max_len=wire.REPORT_LEN)
            except Recoverable as exc:
                if exc.reason == "timeout":
                    continue
                break  # reset: the leader died
            except Fatal:
                break
            if frame.msg_type != wire.QUORUM_REPORT:
                log.warning("quorum: unexpected %s from replica %d", frame.name,
                            link.replica_id)
                break
            _epoch, next_step, replica_id, incarnation = wire.decode_report(frame.payload)
            if replica_id != link.replica_id:
                log.warning("quorum: report id %d over link of %d", replica_id,
                            link.replica_id)
                break
            with self._cv:
                self._inbox[replica_id] = Report(next_step, incarnation)
                self._cv.notify_all()
        with self._cv:
            link.alive = False
            if self._links.get(link.replica_id) is link:
                del self._links[link.replica_id]
            self._cv.notify_all()
        link.conn.close()

    def _round_loop(self) -> None:
        while self._running:
            with self._cv:
                while self._running and not self._inbox:
                    self._cv.wait(0.2)
            if not self._running:
                return
            opened = time.monotonic()
            while self._running:
                with self._cv:
                    connected = {rid for rid, ln in self._links.items() if ln.alive}
                    have = set(self._inbox)
                    joiners = self.engine.pending_joiners(self._inbox)
                elapsed = time.monotonic() - opened
                if not self._assembled:
                    # Startup barrier: the first decision should cover the
                    # whole configured group, not whoever dialed in first.
                    if len(connected) >= (self.expected_replicas or 0):
                        self._assembled = True
                    elif elapsed < self.join_wait_s:
                        with self._cv:
                            self._cv.wait(0.05)
                        continue
                    else:
                        self._assembled = True  # proceed degraded
                missing = connected - have
                if not missing and not joiners:
                    break
                if joiners and elapsed < self.join_wait_s:
                    pass  # hold the round open for the scheduled rejoin
                elif elapsed >= self.round_deadline_s:
                    break
                with self._cv:
                    self._cv.wait(0.05)
            with self._cv:
                batch = dict(self._inbox)
                self._inbox.clear()
                stragglers = self.engine.pending_joiners(batch)
                if stragglers and time.monotonic() - opened >= self.join_wait_s:
                    for rid in stragglers:
                        log.warning("quorum: scheduled rejoin of replica %d missed "
                                    "its window; de-scheduling", rid)
                        self.engine.drop_admission(rid)
                decision = self.engine.decide(batch)
                self.decisions_made += 1
                links = {rid: self._links.get(rid) for rid in batch}
            payload = decision.encode()
            for rid in batch:
                link = links.get(rid)
                if link is None or not link.alive:
                    continue
                try:
                    link.conn.send_frame(wire.QUORUM_DECISION, decision.target_step,
                                         decision.epoch, payload, timeout=1.0)
                except (Recoverable, Fatal):
                    with self._cv:
                        link.alive = False

    def stop(self) -> None:
        self._running = False
        with self._cv:
            self._cv.notify_all()
        self._router.stop()
        with self._cv:
            for link in self._links.values():
                link.conn.close()
            self._links.clear()
        for t in self._threads:
            t.join(timeout=2.0)


@dataclass
class EmulationStats:
    n_replicas: int
    rounds: int
    latency_p50_ms: float
    latency_p99_ms: float
    decide_p50_ms: float
    decide_p99_ms: float
    decide_total_s: float
    role_changes: int
    mean_healthy: float

    def format(self) -> str:
        return (f"replicas={self.n_replicas} rounds={self.rounds} "
                f"round p50={self.latency_p50_ms:.3f}ms p99={self.latency_p99_ms:.3f}ms "
                f"decide p50={self.decide_p50_ms:.3f}ms p99={self.decide_p99_ms:.3f}ms "
                f"role_changes={self.role_changes} mean_healthy={self.mean_healthy:.1f}")


def emulate_quorum(n_replicas: int, rounds: int = 200, seed: int = 0,
                   fail_rate: float = 0.02, lag_steps: int = 3) -> EmulationStats:
    """Single-threaded emulation: synthetic reporters with sampled report
    latencies drive the real decision engine. Round latency is the slowest
    included report plus the measured decide() time; no sockets involved,
    so group sizes in the thousands run in seconds."""
    if n_replicas < 1:
        raise Fatal(INTERNAL_INVARIANT, "need at least one replica")
    rng = np.random.default_rng(seed)
    engine = QuorumEngine()
    for rid in range(n_replicas):
        engine.register(rid, 1)
    next_steps = np.ones(n_replicas, dtype=np.int64)
    down = np.zeros(n_replicas, dtype=bool)
    latencies_ms: list[float] = []
    decide_ms: list[float] = []
    role_changes = 0
    healthy_counts: list[int] = []
    prev_gen = 0
    for _ in range(rounds):
        failures = rng.random(n_replicas) < fail_rate
        recoveries = down & (rng.random(n_replicas) < 0.5)
        down = (down | failures) & ~recoveries
        if down.all():
            down[int(rng.integers(n_replicas))] = False
        report_lat = rng.gamma(shape=4.0, scale=0.25, size=n_replicas)  # ms
        reports = {int(rid): Report(int(next_steps[rid]), 1)
                   for rid in np.flatnonzero(~down)}
        t0 = time.perf_counter()
        decision = engine.decide(reports)
        dt_ms = (time.perf_counter() - t0) * 1e3
        decide_ms.append(dt_ms)
        included = np.fromiter(decision.members, dtype=np.int64, count=len(decision.members))
        worst = float(report_lat[included].max()) if included.size else 0.0
        latencies_ms.append(worst)  # simulated collection latency; deterministic
        if decision.generation != prev_gen:
            role_changes += 1
            prev_gen = decision.generation
        healthy_counts.append(len(decision.healthy))
        # evolve: healthy commit the target, behind catch up toward it
        for rid in decision.healthy:
            next_steps[rid] = decision.target_step + 1
        for rid in decision.behind:
            next_steps[rid] = min(decision.target_step + 1,
                                  next_steps[rid] + lag_steps)
    lat = np.asarray(latencies_ms)
    dec = np.asarray(decide_ms)
    return EmulationStats(
        n_replicas=n_replicas,
        rounds=rounds,
        latency_p50_ms=float(np.percentile(lat, 50)),
        latency_p99_ms=float(np.percentile(lat, 99)),
        decide_p50_ms=float(np.percentile(dec, 50)),
        decide_p99_ms=float(np.percentile(dec, 99)),
        decide_total_s=float(dec.sum() / 1e3),
        role_changes=role_changes,
        mean_healthy=float(np.mean(healthy_counts)) if healthy_counts else 0.0,
    )
