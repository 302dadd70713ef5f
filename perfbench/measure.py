"""End-to-end arithmetic on the program's per-step metric rows.

Rows are the program's own records (metrics_replica*.jsonl): one per step
attempt per replica, with step, replica_id, phase ("commit" or "retry"),
wall_ms, healthy_count, tokens_committed and event ("", "retry",
"catch-up" or "lagging"). Everything here is a pure function of rows, so
selftest.py can check it on synthetic ones.

The reference replica is one that stays up for the whole run; every
figure is read from its rows unless said otherwise.
"""

from __future__ import annotations

import statistics

# A p99 needs at least ten samples beyond it.
P99_MIN_ROWS = 1000


def uneventful_walls(rows: list[dict], ref: int) -> list[float]:
    """wall_ms of the reference replica's commit rows that carry no event."""
    return [r["wall_ms"] for r in rows
            if r["replica_id"] == ref and r["phase"] == "commit" and r["event"] == ""]


def steady_walls(rows: list[dict], ref: int, num_replicas: int) -> list[float]:
    """The uneventful rows of steps at which every replica was healthy.

    A smaller group steps faster, so under failures the rows form one
    cluster per healthy count; a median over the mix would jump between
    clusters as their sizes shift. Full-strength rows are one cluster.
    """
    return [r["wall_ms"] for r in rows
            if r["replica_id"] == ref and r["phase"] == "commit" and r["event"] == ""
            and r["healthy_count"] == num_replicas]


def p99(walls: list[float]) -> float | None:
    """The 99th percentile, or None when there are too few rows for one."""
    if len(walls) < P99_MIN_ROWS:
        return None
    return statistics.quantiles(walls, n=100, method="inclusive")[98]


def throughput(rows: list[dict], ref: int) -> tuple[int, float]:
    """(tokens, wall_ms) from step 2 to the last commit.

    Tokens are those the whole group committed; the wall is the reference
    replica's, every attempt included. Step 1 is left out: it carries the
    first connections and is counted in set-up time instead.
    """
    mine = [r for r in rows if r["replica_id"] == ref]
    first = next(i for i, r in enumerate(mine)
                 if r["phase"] == "commit" and r["step"] == 1)
    commits = [r for r in mine[first:] if r["phase"] == "commit"]
    tokens = commits[-1]["tokens_committed"] - mine[first]["tokens_committed"]
    wall_ms = sum(r["wall_ms"] for r in mine[first + 1:])
    return tokens, wall_ms


def excess_at(rows: list[dict], ref: int, steps: set[int], p50: float) -> float:
    """Reference wall at the given steps beyond p50 per attempt, summed."""
    return float(sum(r["wall_ms"] - p50 for r in rows
                     if r["replica_id"] == ref and r["step"] in steps))


def failure_stalls(rows: list[dict], ref: int, p50: float,
                   struck: dict[str, list[int]]) -> dict[str, float]:
    """Survivor stall by failure kind, and the replacements' own catch-up.

    struck maps a failure kind to the steps it strikes at. A rejoin step is
    one where some replica's row carries the catch-up event.
    """
    catchups = [r for r in rows if r["event"] == "catch-up"]
    return {
        "kill_stall_ms": excess_at(rows, ref, set(struck["kill_replica"]), p50),
        "hang_stall_ms": excess_at(rows, ref, set(struck["hang_rank"]), p50),
        "link_stall_ms": excess_at(rows, ref, set(struck["drop_links"]), p50),
        "rejoin_stall_ms": excess_at(rows, ref, {r["step"] for r in catchups}, p50),
        "catchup_ms": float(sum(r["wall_ms"] for r in catchups)),
    }


def setup_seconds(called_at: float, first_commit_at: float) -> float:
    """Time from the call into run_scenario until step 1 commits."""
    if first_commit_at < called_at:
        raise ValueError("step 1 cannot commit before the run starts")
    return first_commit_at - called_at
