"""Per-layer figures from the spans of one traced scenario.

Every figure is given per committed step of the reference replica. Most
are read from the reference replica's process, summed over its threads.
Four come from elsewhere: checkpoint.fetch from every process (the
reference replica never catches up, the replacements do),
checkpoint.write_shard from every process (replica 0 alone writes
checkpoints), worker.startup from every incarnation's start-up stamp, and
quorum.decide from the harness process, which hosts the coordinator.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

import numpy as np

from perfbench_spans import FIELDS

NAME, T0, T1, STEP, PARENT, NBYTES, OK, ID = range(len(FIELDS))
MIB = float(1 << 20)

# (metric, span names summed, what is summed) for the reference process.
_REF_SUMS = (
    ("model.next_batch.ms", ("model.next_batch",), "ms"),
    ("model.forward_backward.ms", ("model.forward_backward",), "ms"),
    ("model.optimizer_step.ms", ("model.optimizer_step",), "ms"),
    ("model.hash_state.ms", ("model.hash_state",), "ms"),
    ("kernels.accumulate.ms", ("kernels.accumulate",), "ms"),
    ("kernels.copy_into.ms", ("kernels.copy_into",), "ms"),
    ("kernels.mib", ("kernels.accumulate", "kernels.copy_into"), "mib"),
    ("wire.encode.ms", ("wire.encode",), "ms"),
    ("wire.decode.ms", ("wire.decode",), "ms"),
    ("transport.send.calls", ("transport.send",), "calls"),
    ("transport.send.mib", ("transport.send",), "mib"),
    ("transport.send.ms", ("transport.send",), "ms"),
    ("transport.recv.calls", ("transport.recv",), "calls"),
    ("transport.recv.ms", ("transport.recv",), "ms"),
    ("transport.connect.calls", ("transport.connect",), "calls"),
    ("transport.connect.ms", ("transport.connect",), "ms"),
    ("ftar.all_reduce.ms", ("ftar.all_reduce",), "ms"),
    ("ftar.all_reduce.calls", ("ftar.all_reduce",), "calls"),
    ("ftar.all_reduce.mib", ("ftar.all_reduce",), "mib"),
    ("ftar.reconfig.ms", ("ftar.reconfig",), "ms"),
    ("ftar.reconfig.calls", ("ftar.reconfig",), "calls"),
    ("quorum.exchange.ms", ("quorum.exchange",), "ms"),
    ("quorum.exchange.calls", ("quorum.exchange",), "calls"),
    ("replica.intra.ms", ("replica.intra.broadcast", "replica.intra.exchange",
                          "replica.intra.reduce_scatter", "replica.intra.all_gather"), "ms"),
    ("replica.intra.reduce_scatter.ms", ("replica.intra.reduce_scatter",), "ms"),
    ("replica.intra.all_gather.ms", ("replica.intra.all_gather",), "ms"),
    ("replica.commit.ms", ("replica.commit",), "ms"),
    ("replica.commit_reconfig.ms", ("replica.commit_reconfig",), "ms"),
    ("checkpoint.capture.ms", ("checkpoint.capture",), "ms"),
    ("checkpoint.ledger.ms", ("checkpoint.ledger",), "ms"),
)

UNITS = {"ms": "ms/step", "calls": "count/step", "mib": "MiB/step"}


def load_spans(trace_dir: str) -> list[tuple[dict, np.ndarray]]:
    """(meta, spans) per process that wrote its spans; spans gain a last
    column with the index of the thread that recorded them."""
    out = []
    for meta_path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(meta_path) as fh:
            meta = json.load(fh)
        raw = np.fromfile(meta_path[:-len(".json")] + ".bin", dtype=np.int64)
        spans = raw.reshape(-1, len(FIELDS))
        thread = np.repeat(np.arange(len(meta["threads"])),
                           [n for _name, n in meta["threads"]])
        out.append((meta, np.column_stack([spans, thread])))
    return out


def _select(meta: dict, spans: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    ids = [meta["names"].index(n) for n in names if n in meta["names"]]
    return spans[np.isin(spans[:, NAME], ids)]


def _total(sel: np.ndarray, what: str) -> float:
    if what == "ms":
        return float((sel[:, T1] - sel[:, T0]).sum()) / 1e6
    if what == "calls":
        return float(len(sel))
    return float(sel[:, NBYTES].sum()) / MIB


def self_ms(spans: np.ndarray, name_id: int) -> float:
    """Total self time of the spans named name_id: each span's duration
    minus the durations of its direct children on the same thread."""
    dur = spans[:, T1] - spans[:, T0]
    total = 0
    for thread in np.unique(spans[:, -1]):
        mine = spans[:, -1] == thread
        ids, parents, durs = spans[mine, ID], spans[mine, PARENT], dur[mine]
        children = np.zeros(int(ids.max()) + 1, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], durs[has_parent])
        named = spans[mine, NAME] == name_id
        total += int((durs[named] - children[ids[named]]).sum())
    return total / 1e6


def _ratio(sel: np.ndarray) -> float:
    return float(sel[:, OK].sum()) / len(sel) if len(sel) else 0.0


def recorded_ms(rec, name: str) -> float:
    """Total duration of the spans called name held by an in-process Recorder."""
    if name not in rec.names:
        return 0.0
    name_id = rec.names.index(name)
    total = 0
    for _thread, st in rec.threads:
        spans = np.array(st.buf[:], dtype=np.int64).reshape(-1, len(FIELDS))
        sel = spans[spans[:, NAME] == name_id]
        total += int((sel[:, T1] - sel[:, T0]).sum())
    return total / 1e6


def per_layer(trace_dir: str, ref: int, committed: int,
              decide_ms: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced scenario, as {name: (value, unit)}.

    decide_ms is the coordinator's total decide() time in this scenario.
    """
    procs = load_spans(trace_dir)
    ref_procs = [(m, s) for m, s in procs if m["replica_id"] == ref]
    if len(ref_procs) != 1:
        raise RuntimeError(f"expected one traced process of replica {ref}, "
                           f"found {len(ref_procs)}")
    meta, spans = ref_procs[0]
    out: dict[str, tuple[float, str]] = {}
    for metric, names, what in _REF_SUMS:
        out[metric] = (_total(_select(meta, spans, names), what) / committed, UNITS[what])
    out["ftar.useful_ratio"] = (_ratio(_select(meta, spans, ("ftar.all_reduce",))), "ratio")
    iterate = meta["names"].index("replica.iterate")
    out["replica.iterate.self_ms"] = (self_ms(spans, iterate) / committed, "ms/step")

    fetches = [_select(m, s, ("checkpoint.fetch",)) for m, s in procs]
    fetch = np.concatenate(fetches)
    out["checkpoint.fetch.ms"] = (_total(fetch, "ms") / committed, "ms/step")
    out["checkpoint.fetch.calls"] = (_total(fetch, "calls") / committed, "count/step")
    out["checkpoint.fetch.mib"] = (_total(fetch, "mib") / committed, "MiB/step")
    out["checkpoint.fetch.useful_ratio"] = (_ratio(fetch), "ratio")
    writes = [_select(m, s, ("checkpoint.write_shard",)) for m, s in procs]
    out["checkpoint.write_shard.ms"] = (_total(np.concatenate(writes), "ms") / committed,
                                        "ms/step")

    startups = []
    for path in glob.glob(os.path.join(trace_dir, "startup-*.txt")):
        with open(path) as fh:
            startups.append(float(fh.read()))
    out["worker.startup.ms"] = (statistics.fmean(startups), "ms")

    out["quorum.decide.ms"] = (decide_ms / committed, "ms/step")
    return out
