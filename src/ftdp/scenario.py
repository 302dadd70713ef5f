"""Run configuration: topology, seeds, and the scripted failure schedule.

A scenario is a JSON document; every field that affects the training
trajectory lives here so a run is a pure function of (scenario, code).

    {
      "name": "kill_one_replica",
      "topology": {"num_replicas": 4, "ranks_per_replica": 2,
                   "model_dims": [4, 8, 2], "micro_batch": 16},
      "failures": [{"kind": "kill_replica", "at_step": 50,
                    "duration_steps": 20, "concurrent_replicas": 1,
                    "replicas": [2]}],
      "lr_intervention": "none",
      "seeds": {"model": 1234, "data": 99},
      "timeouts": {"quorum_round_s": 0.5},
      "checkpoint_interval": 100,
      "total_steps": 300
    }

Failure kinds: kill_replica (the process exits the moment it sees the
decision for at_step and is respawned, gated to rejoin duration_steps
later), hang_rank (one rank stops making progress; a sibling's bounded
wait takes the process down within about chunk_s, or the watchdog does
where no sibling reaches one, as in a replica of one rank, and it is
respawned like a kill; "rank" selects which, default 0), drop_links (the replica's data-plane links are
black-holed for duration_steps decision epochs; control traffic is
unaffected). "replicas" picks explicit
targets; without it the highest-numbered replicas are chosen, which keeps
reruns deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from ftdp.errors import ConfigError
from ftdp.model import LrPolicy

FAILURE_KINDS = ("kill_replica", "hang_rank", "drop_links")
LR_INTERVENTIONS = ("none", "sqrt", "linear")

# A replica gives up after this many consecutive failed attempts at one
# step. Commit is group-atomic, so a drop_links window at least this long
# would take down every member at once; such configs are rejected.
RETRY_BUDGET = 3


@dataclass
class Topology:
    num_replicas: int
    ranks_per_replica: int
    model_dims: tuple[int, int, int]
    micro_batch: int


@dataclass
class Failure:
    kind: str
    at_step: int
    duration_steps: int
    concurrent_replicas: int = 1
    replicas: tuple[int, ...] | None = None
    rank: int = 0  # hang_rank only

    def targets(self, num_replicas: int) -> tuple[int, ...]:
        if self.replicas is not None:
            return self.replicas
        return tuple(range(num_replicas - 1,
                           num_replicas - 1 - self.concurrent_replicas, -1))


@dataclass
class Timeouts:
    quorum_round_s: float = 2.0
    join_wait_s: float = 10.0
    chunk_s: float = 5.0
    two_pc_s: float = 5.0  # accepted, read by nothing: the commit vote ends with the round
    fetch_s: float = 5.0
    watchdog_s: float = 30.0
    connect_s: float = 5.0


@dataclass
class Tuning:
    """Optional knobs with working defaults; scenarios rarely set these."""
    initial_lr: float = 0.05
    momentum_beta: float = 0.9
    decay_horizon: int = 0
    final_lr_fraction: float = 1.0
    chunk_bytes: int = 8 * 1024 * 1024
    max_in_flight: int = 4
    normalize_by: str = "healthy"  # or "world": fixed 1/(N*R) scaling
    allocation_delay_s: float = 0.5  # respawn cost after a death


@dataclass
class ScenarioConfig:
    name: str
    topology: Topology
    failures: list[Failure]
    lr_intervention: str
    model_seed: int
    data_seed: int
    timeouts: Timeouts
    checkpoint_interval: int
    total_steps: int
    tuning: Tuning = field(default_factory=Tuning)

    def lr_policy(self) -> LrPolicy:
        return LrPolicy(initial_lr=self.tuning.initial_lr,
                        decay_horizon=self.tuning.decay_horizon,
                        final_fraction=self.tuning.final_lr_fraction,
                        intervention=self.lr_intervention)

    def failures_for(self, replica_id: int) -> list[Failure]:
        return [f for f in self.failures
                if replica_id in f.targets(self.topology.num_replicas)]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _typed(doc: dict, key: str, kind, default=None, required: bool = False):
    if key not in doc:
        _require(not required, f"missing required field '{key}'")
        return default
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    _require(isinstance(val, kind) and not isinstance(val, bool),
             f"field '{key}' must be {kind.__name__}, got {type(val).__name__}")
    return val


def _known(doc: dict, keys, where: str) -> None:
    unknown = set(doc) - set(keys)
    _require(not unknown, f"unknown {where} fields: {sorted(unknown)}")


def parse_scenario(doc: dict) -> ScenarioConfig:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    name = _typed(doc, "name", str, required=True)

    topo_doc = _typed(doc, "topology", dict, required=True)
    _known(topo_doc, [f.name for f in fields(Topology)], "topology")
    n = _typed(topo_doc, "num_replicas", int, required=True)
    r = _typed(topo_doc, "ranks_per_replica", int, required=True)
    dims = topo_doc.get("model_dims")
    mb = _typed(topo_doc, "micro_batch", int, required=True)
    _require(n >= 1, "num_replicas must be >= 1")
    _require(r >= 1, "ranks_per_replica must be >= 1")
    _require(isinstance(dims, list) and len(dims) == 3
             and all(isinstance(d, int) and d >= 1 for d in dims),
             "model_dims must be three positive integers")
    _require(mb >= 1, "micro_batch must be >= 1")
    topo = Topology(n, r, (dims[0], dims[1], dims[2]), mb)

    failures = []
    for i, fdoc in enumerate(doc.get("failures", [])):
        _require(isinstance(fdoc, dict), f"failures[{i}] must be an object")
        _known(fdoc, [f.name for f in fields(Failure)], f"failures[{i}]")
        kind = _typed(fdoc, "kind", str, required=True)
        _require(kind in FAILURE_KINDS,
                 f"failures[{i}].kind must be one of {FAILURE_KINDS}")
        at = _typed(fdoc, "at_step", int, required=True)
        dur = _typed(fdoc, "duration_steps", int, required=True)
        conc = _typed(fdoc, "concurrent_replicas", int, default=1)
        rank = _typed(fdoc, "rank", int, default=0)
        _require(at >= 1, f"failures[{i}].at_step must be >= 1")
        _require(dur >= 1, f"failures[{i}].duration_steps must be >= 1")
        _require(kind != "drop_links" or dur < RETRY_BUDGET,
                 f"failures[{i}]: a drop_links window of {dur} epochs exhausts "
                 f"the whole group's retry budget ({RETRY_BUDGET})")
        _require(1 <= conc <= n, f"failures[{i}].concurrent_replicas out of range")
        _require(0 <= rank < r, f"failures[{i}].rank out of range")
        replicas = fdoc.get("replicas")
        if replicas is not None:
            _require(isinstance(replicas, list)
                     and all(isinstance(x, int) and 0 <= x < n for x in replicas)
                     and len(set(replicas)) == len(replicas),
                     f"failures[{i}].replicas must be distinct valid replica ids")
            _require(len(replicas) == conc,
                     f"failures[{i}].replicas length must equal concurrent_replicas")
            replicas = tuple(replicas)
        failures.append(Failure(kind, at, dur, conc, replicas, rank))

    # Overlapping failure windows on one replica are ambiguous (a replica
    # already dead at a kill's step would miss it and strand its rejoin gate).
    spans: dict[int, list[tuple[int, int, str]]] = {}
    for f in failures:
        for rid in f.targets(n):
            for lo, hi, kind in spans.get(rid, []):
                if f.at_step < hi and lo < f.at_step + f.duration_steps:
                    raise ConfigError(
                        f"replica {rid}: overlapping '{kind}' and '{f.kind}' failures")
            spans.setdefault(rid, []).append(
                (f.at_step, f.at_step + f.duration_steps, f.kind))

    lr_iv = _typed(doc, "lr_intervention", str, default="none")
    _require(lr_iv in LR_INTERVENTIONS,
             f"lr_intervention must be one of {LR_INTERVENTIONS}")

    seeds = _typed(doc, "seeds", dict, default={})
    _known(seeds, ("model", "data"), "seeds")
    model_seed = _typed(seeds, "model", int, default=1234)
    data_seed = _typed(seeds, "data", int, default=99)

    tdoc = _typed(doc, "timeouts", dict, default={})
    timeouts = Timeouts()
    for key in vars(timeouts):
        if key in tdoc:
            val = _typed(tdoc, key, float)
            _require(val > 0, f"timeouts.{key} must be > 0")
            setattr(timeouts, key, val)
    _known(tdoc, vars(timeouts), "timeouts")

    gdoc = _typed(doc, "tuning", dict, default={})
    tuning = Tuning()
    for key in vars(tuning):
        if key in gdoc:
            cur = getattr(tuning, key)
            kind = str if isinstance(cur, str) else (int if isinstance(cur, int) else float)
            setattr(tuning, key, _typed(gdoc, key, kind))
    _known(gdoc, vars(tuning), "tuning")
    _require(tuning.normalize_by in ("healthy", "world"),
             "tuning.normalize_by must be 'healthy' or 'world'")
    _require(tuning.chunk_bytes >= 4, "tuning.chunk_bytes must be >= 4")
    _require(tuning.max_in_flight >= 1, "tuning.max_in_flight must be >= 1")

    interval = _typed(doc, "checkpoint_interval", int, default=100)
    total = _typed(doc, "total_steps", int, required=True)
    _require(interval >= 1, "checkpoint_interval must be >= 1")
    _require(total >= 1, "total_steps must be >= 1")
    for f in failures:
        _require(f.at_step <= total,
                 f"failure at_step {f.at_step} beyond total_steps {total}")

    _known(doc, ("name", "topology", "failures", "lr_intervention", "seeds", "timeouts",
                 "checkpoint_interval", "total_steps", "tuning"), "scenario")

    return ScenarioConfig(name=name, topology=topo, failures=failures,
                          lr_intervention=lr_iv, model_seed=model_seed,
                          data_seed=data_seed, timeouts=timeouts,
                          checkpoint_interval=interval, total_steps=total,
                          tuning=tuning)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(doc)
