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
decision on every run. The first round waits for every expected replica's
report, up to the join wait, so a run starts with its whole group.

The coordinator also chairs each step's commit. Every member's leader
votes on the link it reports on once its all-reduce is over, and the vote
is also its report for the next round. The coordinator commits once every
healthy member has voted yes, appending their ledger lines in one write,
and retries on any healthy member's no vote, lost link or silence until
the round closes. The outcome rides the next decision, so a step costs one
round trip; every member hears it, and as the ledger's one writer the
coordinator keeps the ledger in step order.

QuorumEngine holds the decision rules; QuorumCoordinator serves them, and
the commit vote, on one thread.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ftdp import checkpoint, transport, wire
from ftdp.errors import (
    Fatal, INTERNAL_INVARIANT, PEER_DOWN, PEER_RESET, PROTOCOL_VIOLATION, TIMEOUT, Recoverable,
)

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
    outcome: bool | None = None  # of the vote on epoch - 1: commit, retry, or none held

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
                                    list(self.healthy), dict(self.behind), self.outcome)

    @classmethod
    def decode(cls, payload: bytes) -> "Decision":
        epoch, target, gen, healthy, behind, outcome = wire.decode_decision(payload)
        return cls(epoch, target, gen, tuple(sorted(healthy)), behind, outcome)


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

    def pending_joiners(self, reports: dict[int, Report]) -> set[int]:
        """Scheduled rejoiners whose gate would open at this round's target
        but whose report has not arrived yet; the round is held for them."""
        eff = self.effective_reports(reports)
        target = max((rep.next_step for rep in eff.values()), default=self.target_step)
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
    """Leader-rank side: a report or a vote, each answered by one decision.
    A vote is also this replica's report for the next round."""

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
        """Report next_step and return the decision that answers it."""
        self.conn.send_frame(wire.QUORUM_REPORT, next_step, self.last_epoch,
                             wire.encode_report(self.last_epoch, next_step,
                                                self.replica_id, self.incarnation))
        return self._next_decision(deadline_s)

    def vote(self, decision: Decision, ok: bool, cursor: int) -> Decision:
        """Vote on decision's step and return the next decision, which
        carries the vote's outcome (True to commit)."""
        self.conn.send_frame(wire.QUORUM_VOTE, decision.target_step, decision.epoch,
                             wire.encode_vote(decision.epoch, decision.target_step,
                                              self.replica_id, self.incarnation, ok, cursor))
        nxt = self._next_decision()
        if nxt.epoch != decision.epoch + 1:
            raise Fatal(PROTOCOL_VIOLATION, f"the vote on epoch {decision.epoch} was "
                                            f"answered by epoch {nxt.epoch}")
        return nxt

    def _next_decision(self, deadline_s: float | None = None) -> Decision:
        """Wait for the coordinator's next decision; none by the deadline is
        PEER_DOWN. Each report or vote is answered by exactly one."""
        if deadline_s is None:
            deadline_s = 3 * (self.round_deadline_s + self.join_wait_s + 2.0)
        try:
            frame = self.conn.recv_frame(timeout=deadline_s)
        except Recoverable as exc:
            if exc.reason != TIMEOUT:
                raise
            raise Recoverable(PEER_DOWN, "quorum coordinator unresponsive") from exc
        if frame.msg_type != wire.QUORUM_DECISION:
            raise Fatal(PROTOCOL_VIOLATION, f"expected QUORUM_DECISION, got {frame.name}")
        decision = Decision.decode(frame.payload)
        self.last_epoch = decision.epoch
        return decision

    def close(self) -> None:
        self.conn.close()


@dataclass
class _Vote:
    """The commit vote on one decision's step."""
    decision: Decision
    ballots: dict[int, tuple[int, bool, int]] = field(default_factory=dict)
    # ^ replica -> (incarnation, ok, cursor) of its vote
    outcome: bool | None = None  # None while open

    def report_of(self, replica_id: int) -> Report:
        """A voter's report for the next round: the step after the vote's
        after a commit it voted ok on, else the step it held. An open vote
        reads as the retry it becomes if the round closes first."""
        incarnation, ok, _cursor = self.ballots[replica_id]
        d = self.decision
        if self.outcome and ok:
            return Report(d.target_step + 1, incarnation)
        held = d.target_step if replica_id in d.healthy else d.behind[replica_id]
        return Report(held, incarnation)


class QuorumCoordinator(transport.SelectorService):
    """TCP service running the decision engine and the commit vote on one
    thread.

    The thread is one selectors loop (serve) over the listener and every
    leader's link. It greets each dialer, admits a quorum link under
    incarnation fencing and closes any other hello at once. It reads
    reports and votes as they arrive and closes the round once every
    connected replica has reported (or the round deadline passes, or only a
    scheduled joiner is missing and the longer join wait applies). The
    decision goes to every reporter and to every member of the decision
    voted on that still has a link, and it carries that vote's outcome.

    A decision with a healthy set opens the commit vote on its step. Each
    member's leader votes on its link once its all-reduce is over, and the
    vote is also its report for the next round (see _Vote.report_of), so a
    step costs one round trip. The vote commits once every healthy member
    has voted yes; the ledger gets every healthy member's line in one write
    right then, before any decision that carries the commit leaves. It
    retries on a healthy member's no vote, lost link or replacement by a
    newer incarnation, or when the round closes with a healthy vote still
    missing. A vote on any other epoch is ignored, and is no report either.
    Between events the loop sleeps until the round can next close;
    expect_join may come from any thread.
    """

    def __init__(self, listener: transport.Listener, ledger_path: str,
                 round_deadline_s: float = ROUND_DEADLINE_S,
                 join_wait_s: float = JOIN_WAIT_S,
                 expected_replicas: int | None = None):
        super().__init__(listener, "quorum")
        self.engine = QuorumEngine()
        self.round_deadline_s = round_deadline_s
        self.join_wait_s = join_wait_s
        self.expected_replicas = expected_replicas
        self.ledger = checkpoint.LoaderLedger(ledger_path)
        self._assembled = expected_replicas is None
        self._lock = threading.Lock()  # the engine; expect_join comes from other threads
        self._links: dict[int, transport.Inbound] = {}  # replica -> its admitted link
        self._reports: dict[int, Report] = {}  # the open round's QUORUM_REPORTs, by replica
        self._opened: float | None = None  # when the open round's first report or vote came
        self._vote: _Vote | None = None  # the newest decision's commit vote

    def expect_join(self, replica_id: int, not_before_step: int,
                    min_incarnation: int = 0) -> None:
        with self._lock:
            self.engine.admit_after(replica_id, not_before_step, min_incarnation)

    def _loop(self) -> None:
        try:
            self.serve(self._read, self._tick)
        finally:
            self.ledger.close()

    def _read(self, link: transport.Inbound) -> None:
        """Greet link or take its reports and votes, as far as its socket
        allows; drop it on a fault."""
        conn = link.conn
        try:
            if link.hello is None:
                link.hello = transport.read_hello(conn)
                if link.hello is None:
                    return
                self._admit(link)
            while (frame := conn.poll_frame(max(wire.REPORT_LEN, wire.VOTE_LEN))) is not None:
                if frame.msg_type == wire.QUORUM_REPORT:
                    _epoch, next_step, rid, incarnation = wire.decode_report(frame.payload)
                elif frame.msg_type == wire.QUORUM_VOTE:
                    epoch, _target, rid, incarnation, ok, cursor = wire.decode_vote(frame.payload)
                else:
                    raise Fatal(PROTOCOL_VIOLATION, f"unexpected {frame.name}")
                if rid != link.hello.replica_id:
                    raise Fatal(PROTOCOL_VIOLATION, f"{frame.name} of replica {rid}")
                if frame.msg_type == wire.QUORUM_REPORT:
                    self._take_report(rid, Report(next_step, incarnation))
                else:
                    self._take_vote(epoch, rid, incarnation, ok, cursor)
        except (Recoverable, Fatal) as exc:
            log.debug("quorum: dropping the link of %s: %s", link.hello, exc)
            self._drop(link)

    def _admit(self, link: transport.Inbound) -> None:
        """Make link its replica's link, unless that replica already has one
        from a newer incarnation; an older one is closed."""
        hello = link.hello
        if hello.purpose != wire.HELLO_QUORUM:
            raise Fatal(PROTOCOL_VIOLATION, f"no one here claims {hello}")
        old = self._links.get(hello.replica_id)
        if old is not None:
            if old.hello.incarnation > hello.incarnation:
                raise Recoverable(PEER_RESET, "stale incarnation")
            self._drop(old)
        with self._lock:
            self.engine.register(hello.replica_id, hello.incarnation)
        self._links[hello.replica_id] = link
        link.deadline = math.inf

    def _drop(self, link: transport.Inbound) -> None:
        link.drop(self._sel)
        if link.hello and self._links.get(link.hello.replica_id) is link:
            del self._links[link.hello.replica_id]
            vote = self._vote
            if vote and vote.outcome is None and link.hello.replica_id in vote.decision.healthy:
                self._end_vote(commit=False)

    def _send(self, replicas, msg_type: int, step: int, epoch: int, payload: bytes) -> None:
        """One frame to each of replicas that has a link; a link that cannot
        take it is dropped."""
        for link in [self._links[rid] for rid in replicas if rid in self._links]:
            try:
                link.conn.send_frame(msg_type, step, epoch, payload, timeout=1.0)
            except (Recoverable, Fatal):
                self._drop(link)

    def _take_report(self, replica_id: int, report: Report) -> None:
        """Take a report. A healthy member of the open vote that reports
        will not vote, so the vote ends in retry."""
        vote = self._vote
        if vote and vote.outcome is None and replica_id in vote.decision.healthy:
            self._end_vote(commit=False)
        self._reports[replica_id] = report

    def _take_vote(self, epoch: int, replica_id: int, incarnation: int, ok: bool,
                   cursor: int) -> None:
        """Count a member's vote on the open vote; any other vote is ignored."""
        vote = self._vote
        if vote is None or epoch != vote.decision.epoch or replica_id not in vote.decision.members:
            return
        vote.ballots[replica_id] = (incarnation, ok, cursor)
        if vote.outcome is None and replica_id in vote.decision.healthy:
            if not ok:
                self._end_vote(commit=False)
            elif vote.ballots.keys() >= set(vote.decision.healthy):
                self._end_vote(commit=True)

    def _end_vote(self, commit: bool) -> None:
        """Settle the open vote; a commit first puts the step in the ledger."""
        vote = self._vote
        vote.outcome = commit
        if commit:
            d = vote.decision
            self.ledger.append(d.target_step, {rid: vote.ballots[rid][2] for rid in d.healthy})

    def _tick(self, now: float) -> float:
        """Close the open round if its rules allow; otherwise return when
        they next could without a new event (inf while no round is open)."""
        vote = self._vote
        batch = {**{rid: vote.report_of(rid) for rid in vote.ballots}, **self._reports
                 } if vote else dict(self._reports)
        if self._opened is None:
            # The round opens at its first report or vote, but not while
            # the open vote has none: its members are still at their step.
            if not batch or vote and vote.outcome is None and not vote.ballots:
                return math.inf
            self._opened = now
        elapsed = now - self._opened
        held = self._opened + self.join_wait_s
        if not self._assembled:
            # Startup barrier: the first decision should cover the whole
            # configured group, not whoever reported first; after the join
            # wait the group starts degraded.
            if len(batch) < self.expected_replicas and elapsed < self.join_wait_s:
                return held
            self._assembled = True
        with self._lock:
            joiners = self.engine.pending_joiners(batch)
        if joiners or self._links.keys() - batch.keys():
            if joiners and elapsed < self.join_wait_s:
                return held  # hold the round open for the scheduled rejoin
            if elapsed < self.round_deadline_s:
                return self._opened + self.round_deadline_s
        if vote and vote.outcome is None:
            self._end_vote(commit=False)  # a healthy member's vote is missing
        self._reports, self._opened = {}, None
        with self._lock:
            if joiners and elapsed >= self.join_wait_s:
                for rid in joiners:
                    log.warning("quorum: scheduled rejoin of replica %d missed "
                                "its window; de-scheduling", rid)
                    self.engine.drop_admission(rid)
            decision = self.engine.decide(batch)
        decision = replace(decision, outcome=vote.outcome if vote else None)
        self._send(sorted(batch.keys() | (vote.decision.members if vote else ())),
                   wire.QUORUM_DECISION, decision.target_step, decision.epoch,
                   decision.encode())
        self._vote = _Vote(decision) if decision.healthy else None
        if self._vote and not self._links.keys() >= set(decision.healthy):
            self._end_vote(commit=False)
        return math.inf


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
