"""Scenario documents for the three benchmark workloads.

Each workload is a function of the benchmark seed alone: the seed picks the
model and data seeds and, for churn, where the failures fall within fixed
windows.
The program under test receives only the JSON document built here.

Outages are sized in steps, not seconds: a replacement must already be
parked at the coordinator when its rejoin gate opens, otherwise the
coordinator holds the round for it and its start-up time is charged to
every survivor (see README.md). The sizes below leave a replacement about
two and a half times the time it needs at today's step rate.
"""

from __future__ import annotations

import random

# Every workload uses this topology; only the model and failures differ.
NUM_REPLICAS = 4
RANKS = 2

TINY_DIMS = [16, 32, 8]
DENSE_DIMS = [512, 2048, 512]

# Timeouts shared by tiny and churn, so the two differ only by failures.
# chunk_s and two_pc_s set the cost of abandoning a step; watchdog_s must
# exceed a survivor's longest gap between progress marks (one abandoned
# all-reduce plus one commit round plus one quorum deadline).
FAST_TIMEOUTS = {
    "chunk_s": 0.5,
    "two_pc_s": 1.0,
    "quorum_round_s": 1.0,
    "join_wait_s": 2.0,
    "fetch_s": 2.0,
    "connect_s": 2.0,
    "watchdog_s": 2.5,
}

# Churn schedule: (kind, replica, first step, outage steps). One offset
# drawn from the seed, below CHURN_JITTER, moves every failure together, so
# the time spent at each healthy count is the same for every seed. Replica
# 3 is never a target, so it is the reference replica that stays up for the
# whole run. Replica 0 is the commit chair and the only checkpoint writer,
# so killing it moves both jobs. The hang is on rank 1, so the leader rank
# is the one left blocked at an intra-replica barrier.
CHURN_TOTAL_STEPS = 1500
CHURN_JITTER = 50
CHURN_SCHEDULE = (
    ("hang_rank", 1, 50, 1200),
    ("kill_replica", 2, 150, 400),
    ("kill_replica", 0, 600, 400),
    ("drop_links", 2, 1300, 1),
)
CHECKPOINT_INTERVAL = 100

REFERENCE_REPLICA = 3
WORKLOADS = ("tiny-4x2", "dense-4x2", "churn-4x2")


def _base(name: str, rng: random.Random, dims: list[int], micro_batch: int,
          total_steps: int, checkpoint_interval: int) -> dict:
    return {
        "name": name,
        "topology": {"num_replicas": NUM_REPLICAS, "ranks_per_replica": RANKS,
                     "model_dims": dims, "micro_batch": micro_batch},
        "total_steps": total_steps,
        "checkpoint_interval": checkpoint_interval,
        "failures": [],
        "lr_intervention": "none",
        "seeds": {"model": rng.randrange(1, 2**31), "data": rng.randrange(1, 2**31)},
    }


def make_scenario(workload: str, seed: int) -> dict:
    """The scenario document for one workload and benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tiny-4x2":
        doc = _base(workload, rng, TINY_DIMS, 32, 300, 300)
        doc["timeouts"] = dict(FAST_TIMEOUTS)
    elif workload == "dense-4x2":
        doc = _base(workload, rng, DENSE_DIMS, 8, 8, 8)
    elif workload == "churn-4x2":
        doc = _base(workload, rng, TINY_DIMS, 32, CHURN_TOTAL_STEPS,
                    CHECKPOINT_INTERVAL)
        doc["timeouts"] = dict(FAST_TIMEOUTS)
        doc["tuning"] = {"allocation_delay_s": 0.25}
        offset = rng.randrange(CHURN_JITTER)
        for kind, rid, at_step, outage in CHURN_SCHEDULE:
            failure = {"kind": kind, "at_step": at_step + offset,
                       "duration_steps": outage, "concurrent_replicas": 1,
                       "replicas": [rid]}
            if kind == "hang_rank":
                failure["rank"] = 1
            doc["failures"].append(failure)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return doc


def failure_steps(doc: dict) -> dict[str, list[int]]:
    """Steps at which each failure kind strikes, keyed by kind."""
    out: dict[str, list[int]] = {"kill_replica": [], "hang_rank": [], "drop_links": []}
    for f in doc["failures"]:
        out[f["kind"]].append(f["at_step"])
    return out
