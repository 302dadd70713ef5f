"""Run-config parsing: happy path, JSON round-trip, and rejection of every
malformed shape a config file can plausibly take."""

import dataclasses
import json
import os

import pytest

from ftdp.errors import ConfigError
from ftdp.scenario import Timeouts, load_scenario, parse_scenario
from helpers import to_json


def base_doc(**over):
    doc = {
        "name": "basic",
        "topology": {"num_replicas": 4, "ranks_per_replica": 2,
                     "model_dims": [8, 16, 4], "micro_batch": 8},
        "total_steps": 50,
    }
    doc.update(over)
    return doc


def test_minimal_doc_gets_defaults():
    cfg = parse_scenario(base_doc())
    assert cfg.name == "basic"
    assert cfg.topology.num_replicas == 4
    assert cfg.topology.model_dims == (8, 16, 4)
    assert cfg.lr_intervention == "none"
    assert cfg.model_seed == 1234 and cfg.data_seed == 99
    assert cfg.checkpoint_interval == 100
    assert cfg.timeouts.watchdog_s > 0
    assert cfg.tuning.normalize_by == "healthy"
    assert cfg.failures == []


def test_roundtrip_through_json():
    doc = base_doc(
        failures=[{"kind": "kill_replica", "at_step": 10, "duration_steps": 5,
                   "concurrent_replicas": 2, "replicas": [3, 1]},
                  {"kind": "hang_rank", "at_step": 30, "duration_steps": 4,
                   "rank": 1}],
        lr_intervention="sqrt",
        seeds={"model": 7, "data": 8},
        timeouts={"watchdog_s": 9.5},
        tuning={"initial_lr": 0.01, "normalize_by": "world"},
        checkpoint_interval=25,
    )
    cfg = parse_scenario(doc)
    again = parse_scenario(json.loads(to_json(cfg)))
    assert to_json(again) == to_json(cfg)
    assert again.timeouts.watchdog_s == 9.5
    assert again.tuning.initial_lr == 0.01
    assert again.failures[0].replicas == (3, 1)
    assert again.failures[1].rank == 1


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(base_doc()))
    assert load_scenario(str(path)).name == "basic"
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(str(bad))


def test_failure_targets_default_to_highest_ids():
    doc = base_doc(failures=[{"kind": "kill_replica", "at_step": 5,
                              "duration_steps": 3, "concurrent_replicas": 2}])
    f = parse_scenario(doc).failures[0]
    assert f.targets(4) == (3, 2)


def test_failures_for_filters_by_replica():
    doc = base_doc(failures=[
        {"kind": "kill_replica", "at_step": 5, "duration_steps": 3,
         "replicas": [2]},
        {"kind": "drop_links", "at_step": 20, "duration_steps": 2,
         "replicas": [1]},
    ])
    cfg = parse_scenario(doc)
    assert [f.kind for f in cfg.failures_for(2)] == ["kill_replica"]
    assert [f.kind for f in cfg.failures_for(1)] == ["drop_links"]
    assert cfg.failures_for(0) == []


REJECTED = [
    ("not an object", []),
    ("missing name", {"topology": {"num_replicas": 1, "ranks_per_replica": 1,
                                   "model_dims": [2, 2, 2], "micro_batch": 1},
                      "total_steps": 5}),
    ("missing topology", {"name": "x", "total_steps": 5}),
    ("missing total_steps", {"name": "x",
                             "topology": {"num_replicas": 1, "ranks_per_replica": 1,
                                          "model_dims": [2, 2, 2], "micro_batch": 1}}),
    ("unknown top-level key", base_doc(surprise=1)),
    ("bool where int expected", base_doc(total_steps=True)),
    ("zero replicas", base_doc(topology={"num_replicas": 0, "ranks_per_replica": 1,
                                         "model_dims": [2, 2, 2], "micro_batch": 1})),
    ("two model dims", base_doc(topology={"num_replicas": 1, "ranks_per_replica": 1,
                                          "model_dims": [2, 2], "micro_batch": 1})),
    ("negative dim", base_doc(topology={"num_replicas": 1, "ranks_per_replica": 1,
                                        "model_dims": [2, -1, 2], "micro_batch": 1})),
    ("unknown failure kind", base_doc(
        failures=[{"kind": "meteor", "at_step": 1, "duration_steps": 1}])),
    ("failure at step 0", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 0, "duration_steps": 1}])),
    ("failure past the end", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 51, "duration_steps": 1}])),
    ("rank out of range", base_doc(
        failures=[{"kind": "hang_rank", "at_step": 1, "duration_steps": 1,
                   "rank": 2}])),
    ("too many concurrent", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 1, "duration_steps": 1,
                   "concurrent_replicas": 5}])),
    ("replicas list wrong length", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 1, "duration_steps": 1,
                   "concurrent_replicas": 2, "replicas": [1]}])),
    ("duplicate replicas", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 1, "duration_steps": 1,
                   "concurrent_replicas": 2, "replicas": [1, 1]}])),
    ("replica id out of range", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 1, "duration_steps": 1,
                   "replicas": [4]}])),
    ("drop window exhausts retry budget", base_doc(
        failures=[{"kind": "drop_links", "at_step": 1, "duration_steps": 3}])),
    ("unknown lr intervention", base_doc(lr_intervention="cubic")),
    ("unknown topology key", base_doc(topology={"num_replicas": 1, "ranks_per_replica": 1,
                                                "model_dims": [2, 2, 2], "micro_batch": 1,
                                                "replicas": 4})),
    ("unknown failure key", base_doc(
        failures=[{"kind": "kill_replica", "at_step": 1, "duration_steps": 1,
                   "replica": [1]}])),  # "replicas" misspelt: it would target replica 3
    ("unknown seeds key", base_doc(seeds={"modle": 5})),
    ("unknown timeout key", base_doc(timeouts={"nap_s": 1.0})),
    ("non-positive timeout", base_doc(timeouts={"watchdog_s": 0})),
    ("unknown tuning key", base_doc(tuning={"warp": 9})),
    ("bad normalize_by", base_doc(tuning={"normalize_by": "vibes"})),
    ("tiny chunk_bytes", base_doc(tuning={"chunk_bytes": 1})),
    ("zero checkpoint interval", base_doc(checkpoint_interval=0)),
]


@pytest.mark.parametrize("label,doc", REJECTED, ids=[r[0] for r in REJECTED])
def test_rejected_configs(label, doc):
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_overlapping_windows_on_one_replica_rejected():
    # same replica, overlapping spans: ambiguous regardless of kinds
    doc = base_doc(failures=[
        {"kind": "kill_replica", "at_step": 5, "duration_steps": 10,
         "replicas": [3]},
        {"kind": "drop_links", "at_step": 8, "duration_steps": 2,
         "replicas": [3]},
    ])
    with pytest.raises(ConfigError):
        parse_scenario(doc)
    # same spans on different replicas are fine
    doc = base_doc(failures=[
        {"kind": "kill_replica", "at_step": 5, "duration_steps": 10,
         "replicas": [3]},
        {"kind": "drop_links", "at_step": 8, "duration_steps": 2,
         "replicas": [2]},
    ])
    parse_scenario(doc)
    # back-to-back windows on one replica are fine too
    doc = base_doc(failures=[
        {"kind": "kill_replica", "at_step": 5, "duration_steps": 3,
         "replicas": [3]},
        {"kind": "kill_replica", "at_step": 8, "duration_steps": 3,
         "replicas": [3]},
    ])
    parse_scenario(doc)


def test_benchmark_documents_parse():
    """The benchmark's workloads write scenario documents of their own
    (perfbench/workloads.py, loaded read-only). Each must parse, so a field
    it sets cannot be dropped from the scenario format unnoticed."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")  # no bytecode cache is written
    workloads = {"__name__": "perfbench_workloads"}
    exec(code, workloads)
    assert len(workloads["WORKLOADS"]) == 3
    for name in workloads["WORKLOADS"]:
        for seed in (1, 2):
            cfg = parse_scenario(workloads["make_scenario"](name, seed))
            assert cfg.name == name


def test_readme_timeouts_table_names_every_timeout():
    """The README's table of timeouts lists exactly the fields of
    scenario.Timeouts, each with its default, so the two cannot drift
    apart."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "README.md")
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| field | default | what it bounds |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, default = (cell.strip() for cell in line.split("|")[1:3])
        table[name.strip("`")] = float(default)
    assert table == {f.name: f.default for f in dataclasses.fields(Timeouts)}
