"""In-process cluster: every replica runs as threads inside the test, so
multi-replica behaviour (membership churn, catch-up, commit atomicity) is
testable without spawning worker processes. Trajectories are identical to
process mode because the engine only sees sockets and files either way."""

from __future__ import annotations

import json
import os
import threading
import time

from ftdp import checkpoint, transport
from ftdp.quorum import QuorumCoordinator
from ftdp.replica import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_KILLED,
    EXIT_OK,
    FilePortBook,
    ReplicaRuntime,
    _Halt,
)
from ftdp.scenario import Failure, ScenarioConfig, Timeouts, Topology

COORD_ID = 1_000_000


def to_json(cfg: ScenarioConfig) -> str:
    """The scenario document for cfg, as load_scenario reads it."""
    doc = {
        "name": cfg.name,
        "topology": {
            "num_replicas": cfg.topology.num_replicas,
            "ranks_per_replica": cfg.topology.ranks_per_replica,
            "model_dims": list(cfg.topology.model_dims),
            "micro_batch": cfg.topology.micro_batch,
        },
        "failures": [
            {k: v for k, v in {
                "kind": f.kind, "at_step": f.at_step,
                "duration_steps": f.duration_steps,
                "concurrent_replicas": f.concurrent_replicas,
                "replicas": list(f.replicas) if f.replicas is not None else None,
                "rank": f.rank,
            }.items() if v is not None}
            for f in cfg.failures
        ],
        "lr_intervention": cfg.lr_intervention,
        "seeds": {"model": cfg.model_seed, "data": cfg.data_seed},
        "timeouts": vars(cfg.timeouts),
        "checkpoint_interval": cfg.checkpoint_interval,
        "total_steps": cfg.total_steps,
        "tuning": vars(cfg.tuning),
    }
    return json.dumps(doc, indent=2)


def quick_scenario(num_replicas=2, ranks=1, total_steps=5, failures=(),
                   micro_batch=4, dims=(3, 5, 2), interval=100,
                   lr_intervention="none", **tweaks) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name="test",
        topology=Topology(num_replicas, ranks, dims, micro_batch),
        failures=list(failures),
        lr_intervention=lr_intervention,
        model_seed=1234,
        data_seed=99,
        timeouts=Timeouts(quorum_round_s=0.4, join_wait_s=2.0, chunk_s=2.0,
                          two_pc_s=2.0, fetch_s=2.0, watchdog_s=12.0,
                          connect_s=2.0),
        checkpoint_interval=interval,
        total_steps=total_steps,
    )
    for key, val in tweaks.items():
        setattr(cfg.tuning, key, val)
    return cfg


class _Handle:
    def __init__(self, runtime: ReplicaRuntime):
        self.runtime = runtime
        self.exit_code: int | None = None
        self.thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        self.exit_code = self.runtime.run()

    def halt(self, code: int = EXIT_KILLED) -> None:
        try:
            self.runtime.mortality.die(code)
        except _Halt:
            pass


class Cluster:
    def __init__(self, cfg: ScenarioConfig, run_dir: str,
                 restore: tuple[str, int, dict[int, int]] | None = None):
        self.cfg = cfg
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.restore = restore
        self.book = FilePortBook(os.path.join(run_dir, "ports.txt"))
        self._listener = transport.Listener()
        self.coordinator = QuorumCoordinator(
            self._listener, os.path.join(run_dir, "ledger.txt"),
            round_deadline_s=cfg.timeouts.quorum_round_s,
            join_wait_s=cfg.timeouts.join_wait_s,
            expected_replicas=cfg.topology.num_replicas,
            ).start()
        self.coord_addr = transport.PeerAddress(COORD_ID, 0, "127.0.0.1",
                                                self._listener.port)
        self.handles: dict[int, _Handle] = {}
        self.respawns: dict[int, int] = {}
        # Rejoin gates go in before anything runs so a round can be held at
        # exactly the gate step; registering them when a death is observed
        # races the group, which can clear several steps per millisecond.
        # Each gate binds only the replacement (the n-th death of a replica
        # rejoins as incarnation n), never the process that is still running.
        deaths: dict[int, int] = {}
        for f in sorted(cfg.failures, key=lambda f: f.at_step):
            if f.kind == "drop_links":
                continue
            for rid in f.targets(cfg.topology.num_replicas):
                deaths[rid] = deaths.get(rid, 0) + 1
                self.coordinator.expect_join(rid, f.at_step + f.duration_steps,
                                             min_incarnation=deaths[rid])

    def spawn(self, rid: int, incarnation: int) -> _Handle:
        listener = transport.Listener()
        self.book.publish(rid, incarnation, listener.port)
        restore = None
        cursor = 0
        if self.restore is not None:
            ckpt_dir, step, cursors = self.restore
            cursor = cursors.get(rid, 0)
            if incarnation == 0:
                restore = (ckpt_dir, step)
        rt = ReplicaRuntime(self.cfg, rid, incarnation, self.run_dir,
                            self.book, self.coord_addr, listener,
                            initial_cursor=cursor, restore=restore,
                            exit_fn=lambda code: None)
        handle = _Handle(rt)
        self.handles[rid] = handle
        handle.thread.start()
        return handle

    def run(self, timeout_s: float = 90.0) -> dict[int, int]:
        """Start all replicas, respawn scripted deaths, return exit codes."""
        for rid in range(self.cfg.topology.num_replicas):
            self.spawn(rid, 0)
        deadline = time.monotonic() + timeout_s
        pending: dict[int, tuple[float, int]] = {}  # rid -> (due, incarnation)
        seen: set[tuple[int, int]] = set()
        completed = False
        try:
            while time.monotonic() < deadline:
                now = time.monotonic()
                for rid, handle in list(self.handles.items()):
                    if handle.thread.is_alive() or (rid, id(handle)) in seen:
                        continue
                    seen.add((rid, id(handle)))
                    code = handle.exit_code
                    if code == EXIT_OK:
                        completed = True
                    elif code in (EXIT_CONFIG, EXIT_INVARIANT):
                        raise AssertionError(
                            f"replica {rid} failed hard with exit code {code}")
                    elif not completed:
                        spawns = self.respawns.get(rid, 0)
                        scripted = sorted(
                            (f for f in self.cfg.failures_for(rid)
                             if f.kind in ("kill_replica", "hang_rank")),
                            key=lambda f: f.at_step)
                        if spawns >= len(scripted) + 2:
                            raise AssertionError(
                                f"replica {rid} died more often than scripted")
                        self.respawns[rid] = spawns + 1
                        due = now + self.cfg.tuning.allocation_delay_s
                        pending[rid] = (due, self.handles[rid].runtime.incarnation + 1)
                for rid, (due, inc) in list(pending.items()):
                    if now >= due and not completed:
                        del pending[rid]
                        self.spawn(rid, inc)
                    elif completed:
                        del pending[rid]
                if completed:
                    # The commit is group-synchronous: give the rest a moment
                    # to finish the same step, then halt any stragglers.
                    grace = time.monotonic() + 10.0
                    while (time.monotonic() < grace
                           and any(h.thread.is_alive() for h in self.handles.values())):
                        time.sleep(0.05)
                    for handle in self.handles.values():
                        if handle.thread.is_alive():
                            handle.halt()
                    for handle in self.handles.values():
                        handle.thread.join(timeout=5.0)
                    return {rid: h.exit_code for rid, h in self.handles.items()}
                time.sleep(0.02)
            raise AssertionError("cluster did not finish in time")
        finally:
            for handle in self.handles.values():
                if handle.thread.is_alive():
                    handle.halt()
            self.coordinator.stop()

    # -- post-run inspection ------------------------------------------------

    def ledger_entries(self) -> list[tuple[int, int, int]]:
        return checkpoint.parse_ledger(os.path.join(self.run_dir, "ledger.txt"))

    def validate_ledger(self) -> None:
        initial = None
        if self.restore is not None:
            initial = dict(self.restore[2])
        checkpoint.validate_exactly_once(self.ledger_entries(),
                                         self.cfg.topology.ranks_per_replica,
                                         initial_cursors=initial)


def read_hashes(run_dir: str) -> dict[tuple[int, int], str]:
    """(step, replica_id) -> state digest, merged over all replica files."""
    out: dict[tuple[int, int], str] = {}
    for name in sorted(os.listdir(run_dir)):
        if not name.startswith("hashes_replica"):
            continue
        with open(os.path.join(run_dir, name)) as fh:
            for line in fh:
                row = json.loads(line)
                out[(row["step"], row["replica_id"])] = row["hash"]
    return out


def read_metrics(run_dir: str) -> list[dict]:
    rows = []
    for name in sorted(os.listdir(run_dir)):
        if not name.startswith("metrics_replica"):
            continue
        with open(os.path.join(run_dir, name)) as fh:
            rows.extend(json.loads(line) for line in fh)
    return rows


def assert_replicas_agree(run_dir: str, steps: range | None = None) -> dict[int, str]:
    """Every replica that recorded a digest for a step must agree; returns
    the per-step digest."""
    merged = read_hashes(run_dir)
    per_step: dict[int, str] = {}
    for (step, rid), digest in sorted(merged.items()):
        if steps is not None and step not in steps:
            continue
        if step in per_step:
            assert per_step[step] == digest, (
                f"replica {rid} diverged at step {step}")
        else:
            per_step[step] = digest
    return per_step


def kill_failure(at_step: int, duration: int, replicas: tuple[int, ...]) -> Failure:
    return Failure("kill_replica", at_step, duration,
                   concurrent_replicas=len(replicas), replicas=replicas)
