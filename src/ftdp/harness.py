"""Scenario orchestration and measurement.

Runs a scenario end to end: an in-process quorum coordinator, one worker
process per replica (`python -m ftdp.worker`), scripted respawns with a
simulated allocation delay, and rejoin gates registered before anything
starts so admission is step-deterministic. Afterwards the per-replica
JSONL artifacts are merged into metrics.csv / hashes.csv, the exactly-once
ledger and cross-replica hash agreement are validated, and the stall and
effective-time aggregates are computed.

Exit code semantics match the workers: 0 success, 2 config error (raised
as ConfigError), 3 invariant violation, 4 runtime failure.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from ftdp import checkpoint, transport
from ftdp.errors import ConfigError, InvariantViolation
from ftdp.quorum import QuorumCoordinator
from ftdp.replica import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK
from ftdp.scenario import ScenarioConfig, load_scenario
from ftdp.worker import PORTS_FILE

log = logging.getLogger("ftdp.harness")

CSV_COLUMNS = ("step", "replica_id", "phase", "wall_ms", "healthy_count",
               "tokens_committed", "loss", "stall_ms", "event")

EXIT_FATAL = 4

# Workers run one BLAS thread per rank: the R rank threads and the N replica
# processes already use every core, and a thread pool per process on top
# of them makes the ranks fight over the same cores. A value the caller set
# in its own environment wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def effective_training_time(failure_interval: float, repair_time: float,
                            stall_time: float, num_replicas: int) -> float:
    """Fraction of wall time spent training, replica-weighted.

    Over one failure interval F, training halts entirely for the stall s,
    and runs on N-1 of N replicas for the rest of the repair window Rp:
    (F - Rp + (Rp - s) * (N-1)/N) / F.
    """
    if num_replicas < 1:
        raise ConfigError("num_replicas must be >= 1")
    if not 0 <= stall_time <= repair_time <= failure_interval:
        raise ConfigError(
            "need 0 <= stall_time <= repair_time <= failure_interval, got "
            f"s={stall_time} Rp={repair_time} F={failure_interval}")
    n = num_replicas
    return (failure_interval - repair_time
            + (repair_time - stall_time) * (n - 1) / n) / failure_interval


# ------------------------------------------------------------ artifacts


def read_metric_rows(run_dir: str) -> list[dict]:
    """All per-replica JSONL metric rows, each replica's file in write order."""
    rows: list[dict] = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("metrics_replica") and name.endswith(".jsonl"):
            with open(os.path.join(run_dir, name)) as fh:
                rows.extend(json.loads(line) for line in fh)
    return rows


def read_hash_rows(run_dir: str) -> list[dict]:
    rows: list[dict] = []
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("hashes_replica") and name.endswith(".jsonl"):
            with open(os.path.join(run_dir, name)) as fh:
                rows.extend(json.loads(line) for line in fh)
    return rows


def write_csv_artifacts(run_dir: str) -> tuple[str, str]:
    """Merge the JSONL files into metrics.csv and hashes.csv.

    Rows are ordered by (step, replica, retry-before-commit); within that,
    each replica's attempt order is preserved (the sort is stable).
    """
    rows = read_metric_rows(run_dir)
    rows.sort(key=lambda r: (r["step"], r["replica_id"], r["phase"] == "commit"))
    metrics_path = os.path.join(run_dir, "metrics.csv")
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    hash_rows = sorted(read_hash_rows(run_dir),
                       key=lambda r: (r["step"], r["replica_id"]))
    hashes_path = os.path.join(run_dir, "hashes.csv")
    with open(hashes_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=("step", "replica_id", "hash"))
        writer.writeheader()
        for row in hash_rows:
            writer.writerow(row)
    return metrics_path, hashes_path


def load_metrics_csv(path: str) -> list[dict]:
    """metrics.csv rows with numeric fields restored."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key in ("step", "replica_id", "healthy_count", "tokens_committed"):
                row[key] = int(row[key])
            for key in ("wall_ms", "stall_ms"):
                row[key] = float(row[key])
            row["loss"] = float(row["loss"]) if row["loss"] not in ("", "None") else None
            out.append(row)
    return out


def check_hash_agreement(hash_rows: list[dict]) -> dict[int, str]:
    """Every replica that recorded a digest for a step must agree."""
    per_step: dict[int, str] = {}
    for row in sorted(hash_rows, key=lambda r: (r["step"], r["replica_id"])):
        seen = per_step.setdefault(row["step"], row["hash"])
        if seen != row["hash"]:
            raise InvariantViolation(
                f"state hash divergence at step {row['step']}: "
                f"replica {row['replica_id']} disagrees")
    return per_step


# ------------------------------------------------------------ aggregates


@dataclass
class StallReport:
    steady_step_ms: float
    failure_stall_ms: float
    rejoin_stall_ms: float
    first_step_overhead_ms: float

    def in_steps(self, ms: float) -> float:
        return ms / self.steady_step_ms if self.steady_step_ms > 0 else 0.0


def measure_stall(rows: list[dict]) -> StallReport:
    """Stall figures from merged metric rows.

    Steady step time is the median committed-step wall of the replica with
    the most commits, over uneventful rows. failure_stall sums, for each
    step that needed a retry, the excess of the step's total wall (all
    attempts) over steady. rejoin_stall is the healthy-side excess at steps
    where some peer caught up; first_step_overhead is the catching-up
    replica's own excess on its catch-up step.
    """
    commits: dict[int, list[dict]] = {}
    for row in rows:
        if row["phase"] == "commit":
            commits.setdefault(row["replica_id"], []).append(row)
    if not commits:
        return StallReport(0.0, 0.0, 0.0, 0.0)
    ref = max(commits, key=lambda rid: len(commits[rid]))
    steady_rows = [r["wall_ms"] for r in commits[ref] if r["event"] == ""]
    steady = statistics.median(steady_rows) if steady_rows else 0.0

    retry_steps = {r["step"] for r in rows
                   if r["replica_id"] == ref and r["phase"] == "retry"}
    failure_stall = 0.0
    for step in retry_steps:
        total = sum(r["wall_ms"] for r in rows
                    if r["replica_id"] == ref and r["step"] == step)
        failure_stall += max(0.0, total - steady)

    catchup_rows = [r for r in rows if r["event"] == "catch-up"]
    rejoin_stall = 0.0
    overhead = 0.0
    for cu in catchup_rows:
        own = max(0.0, cu["wall_ms"] - steady)
        overhead = max(overhead, own)
        for r in commits[ref]:
            if r["step"] == cu["step"] and cu["replica_id"] != ref:
                rejoin_stall += max(0.0, r["wall_ms"] - steady)
    return StallReport(steady, failure_stall, rejoin_stall, overhead)


def measured_effective_time(rows: list[dict], num_replicas: int) -> float:
    """Replica-weighted share of the reference replica's wall time that
    advanced training: committed wall counts at healthy/N weight, retry
    wall counts as zero."""
    commits: dict[int, int] = {}
    for row in rows:
        if row["phase"] == "commit":
            commits[row["replica_id"]] = commits.get(row["replica_id"], 0) + 1
    if not commits:
        return 0.0
    ref = max(commits, key=lambda rid: commits[rid])
    mine = [r for r in rows if r["replica_id"] == ref]
    total = sum(r["wall_ms"] for r in mine)
    if total <= 0:
        return 0.0
    useful = sum(r["wall_ms"] * r["healthy_count"] / num_replicas
                 for r in mine if r["phase"] == "commit")
    return useful / total


@dataclass
class RunReport:
    exit_code: int
    run_dir: str
    scenario: str
    steps_committed: int
    retries: int
    final_loss: float | None
    sampled_hashes: dict[int, str]
    stall: StallReport
    effective_time: float
    wall_s: float
    respawns: int
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"exit_code: {self.exit_code}",
            f"wall_s: {self.wall_s:.2f}",
            f"steps_committed: {self.steps_committed}",
            f"retries: {self.retries}",
            f"respawns: {self.respawns}",
            f"final_loss: {self.final_loss}",
            f"steady_step_ms: {self.stall.steady_step_ms:.2f}",
            f"failure_stall_ms: {self.stall.failure_stall_ms:.2f}"
            f" ({self.stall.in_steps(self.stall.failure_stall_ms):.1f} steps)",
            f"rejoin_stall_ms: {self.stall.rejoin_stall_ms:.2f}"
            f" ({self.stall.in_steps(self.stall.rejoin_stall_ms):.1f} steps)",
            f"first_step_overhead_ms: {self.stall.first_step_overhead_ms:.2f}",
            f"effective_time: {self.effective_time:.4f}",
        ]
        for step in sorted(self.sampled_hashes):
            lines.append(f"hash[{step}]: {self.sampled_hashes[step]}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


# ------------------------------------------------------------ the runner


class _Worker:
    def __init__(self, proc: subprocess.Popen, incarnation: int):
        self.proc = proc
        self.incarnation = incarnation
        self.observed = False


def _spawn_worker(cfg_path: str, cfg: ScenarioConfig, rid: int, incarnation: int,
                  run_dir: str, coord_port: int, log_fh,
                  restore: tuple[str, int, dict[int, int]] | None,
                  log_level: str) -> _Worker:
    cmd = [sys.executable, "-m", "ftdp.worker",
           "--scenario", cfg_path,
           "--replica-id", str(rid),
           "--incarnation", str(incarnation),
           "--run-dir", run_dir,
           "--coordinator-port", str(coord_port),
           "--log-level", log_level]
    if restore is not None:
        ckpt_dir, step, cursors = restore
        cmd += ["--initial-cursor", str(cursors.get(rid, 0))]
        if incarnation == 0:
            cmd += ["--restore-dir", ckpt_dir, "--restore-step", str(step)]
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT, env=env)
    return _Worker(proc, incarnation)


def run_scenario(scenario_path: str, run_dir: str,
                 restore_from: str | None = None,
                 timeout_s: float = 600.0,
                 log_level: str = "warning") -> RunReport:
    """Run one scenario to completion; see the module docstring.

    The run directory must be fresh (a stale ledger or metrics file would
    corrupt the exactly-once validation of this run). `restore_from` names
    a previous run's directory; the newest usable checkpoint under it and
    the cursors its ledger records for that step become the starting point.
    """
    cfg = load_scenario(scenario_path)
    os.makedirs(run_dir, exist_ok=True)
    if os.listdir(run_dir):
        raise ConfigError(f"run dir {run_dir} is not empty")

    restore = None
    if restore_from is not None:
        ckpt_dir = os.path.join(restore_from, "checkpoints")
        latest = checkpoint.find_latest(ckpt_dir)
        if latest is None:
            raise ConfigError(f"no usable checkpoint under {ckpt_dir}")
        step, _doc = latest
        cursors = checkpoint.restore_cursors(
            os.path.join(restore_from, "ledger.txt"), step,
            cfg.topology.num_replicas)
        restore = (ckpt_dir, step, cursors)
        log.info("restoring from %s step %d cursors %s", ckpt_dir, step, cursors)

    n = cfg.topology.num_replicas
    listener = transport.Listener()
    coordinator = QuorumCoordinator(
        listener,
        round_deadline_s=cfg.timeouts.quorum_round_s,
        join_wait_s=cfg.timeouts.join_wait_s,
        expected_replicas=n,
    ).start()
    # Rejoin gates go in before any worker starts: each gate binds only the
    # replacement incarnation, so the round can be held at exactly the gate
    # step no matter how fast the group is stepping (registration at
    # death-observation time would race it).
    deaths: dict[int, int] = {}
    for f in sorted(cfg.failures, key=lambda f: f.at_step):
        if f.kind == "drop_links":
            continue
        for rid in f.targets(n):
            deaths[rid] = deaths.get(rid, 0) + 1
            coordinator.expect_join(rid, f.at_step + f.duration_steps,
                                    min_incarnation=deaths[rid])
    scripted_deaths = sum(deaths.values())

    t_start = time.monotonic()
    workers: dict[int, _Worker] = {}
    logs = {}
    respawns = 0
    notes: list[str] = []
    exit_code = EXIT_OK
    try:
        for rid in range(n):
            logs[rid] = open(os.path.join(run_dir, f"worker{rid}.log"), "ab")
            workers[rid] = _spawn_worker(scenario_path, cfg, rid, 0, run_dir,
                                         listener.port, logs[rid], restore,
                                         log_level)
        deadline = time.monotonic() + timeout_s
        pending: dict[int, tuple[float, int]] = {}  # rid -> (due, incarnation)
        spawn_counts = {rid: 0 for rid in range(n)}
        completed = False
        while True:
            now = time.monotonic()
            if now > deadline:
                raise InvariantViolation(f"run exceeded {timeout_s:.0f}s")
            for rid, worker in workers.items():
                code = worker.proc.poll()
                if code is None or worker.observed:
                    continue
                worker.observed = True
                if code == EXIT_OK:
                    completed = True
                elif code == EXIT_CONFIG:
                    raise ConfigError(f"replica {rid} rejected the config; "
                                      f"see worker{rid}.log")
                elif code == EXIT_INVARIANT:
                    raise InvariantViolation(
                        f"replica {rid} hit an invariant violation; "
                        f"see worker{rid}.log")
                elif not completed:
                    spawn_counts[rid] += 1
                    if spawn_counts[rid] > deaths.get(rid, 0) + 2:
                        raise InvariantViolation(
                            f"replica {rid} died more often than scripted")
                    pending[rid] = (now + cfg.tuning.allocation_delay_s,
                                    worker.incarnation + 1)
                    log.info("replica %d exited %d; respawn queued", rid, code)
            if not completed and all(w.proc.poll() is not None
                                     for w in workers.values()):
                # Nobody holds live state: a warm respawn would retrain from
                # scratch. Leave the artifacts for a restore run instead.
                notes.append("total state loss: every replica died")
                exit_code = EXIT_FATAL
                pending.clear()
                break
            for rid, (due, inc) in list(pending.items()):
                if completed:
                    del pending[rid]
                elif now >= due:
                    del pending[rid]
                    respawns += 1
                    workers[rid] = _spawn_worker(scenario_path, cfg, rid, inc,
                                                 run_dir, listener.port,
                                                 logs[rid], restore, log_level)
            if completed:
                grace = time.monotonic() + 10.0
                while (time.monotonic() < grace
                       and any(w.proc.poll() is None for w in workers.values())):
                    time.sleep(0.05)
                break
            time.sleep(0.05)
    finally:
        for worker in workers.values():
            if worker.proc.poll() is None:
                worker.proc.kill()
        for worker in workers.values():
            try:
                worker.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        coordinator.stop()
        for fh in logs.values():
            fh.close()
    wall_s = time.monotonic() - t_start

    # ---- validation + artifact distillation
    rows = read_metric_rows(run_dir)
    hash_rows = read_hash_rows(run_dir)
    write_csv_artifacts(run_dir)
    try:
        entries = checkpoint.parse_ledger(os.path.join(run_dir, "ledger.txt"))
        initial = restore[2] if restore is not None else None
        checkpoint.validate_exactly_once(entries, cfg.topology.ranks_per_replica,
                                         initial_cursors=initial)
        per_step = check_hash_agreement(hash_rows)
    except InvariantViolation as exc:
        notes.append(f"invariant violation: {exc}")
        log.error("%s", exc)
        exit_code = EXIT_INVARIANT
        per_step = {}

    committed_steps = [r["step"] for r in rows if r["phase"] == "commit"]
    steps_committed = max(committed_steps, default=0)
    if exit_code == EXIT_OK and steps_committed < cfg.total_steps:
        notes.append(f"run stopped at step {steps_committed} "
                     f"of {cfg.total_steps}")
        exit_code = EXIT_FATAL

    losses = [r["loss"] for r in rows
              if r["phase"] == "commit" and r["loss"] is not None]
    sample_at = sorted({s for s in (1, cfg.total_steps // 2, steps_committed)
                        if s in per_step})
    report = RunReport(
        exit_code=exit_code,
        run_dir=run_dir,
        scenario=cfg.name,
        steps_committed=steps_committed,
        retries=sum(1 for r in rows if r["phase"] == "retry"),
        final_loss=losses[-1] if losses else None,
        sampled_hashes={s: per_step[s] for s in sample_at},
        stall=measure_stall(rows),
        effective_time=measured_effective_time(rows, n),
        wall_s=wall_s,
        respawns=respawns,
        notes=notes,
    )
    with open(os.path.join(run_dir, "summary.txt"), "w") as fh:
        fh.write(report.format() + "\n")
    return report


# ------------------------------------------------------------ comparison


@dataclass
class CompareReport:
    tokens_cut: int
    final_a: float
    final_b: float
    rel_diff: float
    threshold: float
    curve_a: list[tuple[int, float]]
    curve_b: list[tuple[int, float]]

    @property
    def diverged(self) -> bool:
        return self.rel_diff > self.threshold

    def format(self) -> str:
        verdict = "DIVERGED" if self.diverged else "matched"
        return (f"final_a={self.final_a:.6f} final_b={self.final_b:.6f} "
                f"rel_diff={self.rel_diff:.4f} threshold={self.threshold} "
                f"at tokens<={self.tokens_cut}: {verdict}")


def _loss_curve(path: str) -> list[tuple[int, float]]:
    """(tokens_committed, loss) for each committed step, from the lowest
    replica id that reports losses (the leader's own micro-batch loss)."""
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.csv")
    rows = load_metrics_csv(path)
    rids = sorted({r["replica_id"] for r in rows
                   if r["phase"] == "commit" and r["loss"] is not None})
    if not rids:
        raise ConfigError(f"{path}: no committed loss rows")
    rid = rids[0]
    return [(r["tokens_committed"], r["loss"]) for r in rows
            if r["replica_id"] == rid and r["phase"] == "commit"
            and r["loss"] is not None]


def accuracy_compare(path_a: str, path_b: str, threshold: float = 0.05,
                     smooth: int = 5) -> CompareReport:
    """Align two runs on consumed tokens and compare final losses.

    The loss at a token count is noisy (single micro-batch), so the "final"
    loss is the mean of the last `smooth` committed rows at or below the
    smaller run's final token count.
    """
    curve_a = _loss_curve(path_a)
    curve_b = _loss_curve(path_b)
    cut = min(curve_a[-1][0], curve_b[-1][0])

    def tail_mean(curve: list[tuple[int, float]]) -> float:
        upto = [loss for tokens, loss in curve if tokens <= cut]
        if not upto:
            raise ConfigError("no rows at or below the shared token count")
        take = upto[-smooth:] if smooth > 1 else upto[-1:]
        return sum(take) / len(take)

    final_a = tail_mean(curve_a)
    final_b = tail_mean(curve_b)
    rel = abs(final_a - final_b) / max(abs(final_a), 1e-12)
    return CompareReport(cut, final_a, final_b, rel, threshold, curve_a, curve_b)
