"""Self-test of the benchmark's own arithmetic, on synthetic rows and spans.

    python3 perfbench/selftest.py

Needs numpy but not ftdp. Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook"))

import layers  # noqa: E402
import measure  # noqa: E402
import perfbench_spans  # noqa: E402

FAILED: list[str] = []


def check(what: str, got, want, tol: float = 1e-9) -> None:
    same = (got is None and want is None) or (
        got is not None and want is not None and abs(got - want) <= tol * max(1.0, abs(want)))
    print(f"{'ok  ' if same else 'FAIL'} {what}: got {got}, want {want}")
    if not same:
        FAILED.append(what)


def row(step, rid, wall, phase="commit", event="", healthy=4, tokens=0):
    return {"step": step, "replica_id": rid, "phase": phase, "wall_ms": wall,
            "healthy_count": healthy, "tokens_committed": tokens, "event": event}


def test_stalls() -> None:
    ref, p50 = 3, 10.0
    rows = []
    tokens = 0
    for step in range(1, 21):
        tokens += 256
        wall = {5: 25.0, 8: 1010.0, 12: 12.0, 15: 18.0}.get(step, 10.0)
        if step == 5:
            rows.append(row(step, ref, 30.0, "retry", "retry", tokens=tokens - 256))
        if step == 8:
            rows.append(row(step, ref, 1500.0, "retry", "retry", tokens=tokens - 256))
        if step == 12:
            rows.append(row(step, ref, 505.0, "retry", "retry", tokens=tokens - 256))
        rows.append(row(step, ref, wall, tokens=tokens))
        # A peer that is also slow at the kill step must not count: only
        # the reference replica's rows do.
        rows.append(row(step, 0, 99.0 if step == 5 else 10.0, tokens=tokens))
    rows.append(row(15, 1, 40.0, event="catch-up"))
    rows.append(row(16, 1, 10.0))
    struck = {"kill_replica": [5], "hang_rank": [8], "drop_links": [12]}
    got = measure.failure_stalls(rows, ref, p50, struck)
    check("kill stall: retry and commit rows beyond p50", got["kill_stall_ms"], 20.0 + 15.0)
    check("hang stall", got["hang_stall_ms"], 1490.0 + 1000.0)
    check("link stall", got["link_stall_ms"], 495.0 + 2.0)
    check("rejoin stall: survivor excess at the catch-up step", got["rejoin_stall_ms"], 8.0)
    check("catch-up: the replacement's own wall", got["catchup_ms"], 40.0)
    check("p50 over uneventful reference commits",
          float(np.median(measure.steady_walls(rows, ref, 4))), 10.0)
    degraded = rows + [row(21, ref, 5.0, healthy=3)]
    check("steady rows leave out steps with a replica down",
          len(measure.steady_walls(degraded, ref, 4)), 20)
    check("uneventful rows keep them", len(measure.uneventful_walls(degraded, ref)), 21)

    tokens, wall_ms = measure.throughput(rows, ref)
    check("tokens from step 2 on", tokens, 19 * 256)
    check("reference wall from step 2 on, retries included", wall_ms,
          sum(r["wall_ms"] for r in rows if r["replica_id"] == ref and r["step"] >= 2))


def test_p99_rule() -> None:
    check("p99 withheld below 1000 rows", measure.p99([1.0] * 999), None)
    walls = [float(v) for v in range(1, 1001)]
    check("p99 of 1..1000 (inclusive method)", measure.p99(walls), 990.01)


def test_setup() -> None:
    check("setup_s from call to first commit", measure.setup_seconds(10.0, 11.5), 1.5)
    try:
        measure.setup_seconds(11.5, 10.0)
    except ValueError:
        check("setup_s refuses a commit before the call", 1, 1)
    else:
        check("setup_s refuses a commit before the call", 0, 1)


def test_self_time() -> None:
    ms = 1_000_000
    # name, t0, t1, step, parent, nbytes, ok, id, thread
    spans = np.array([
        [0, 0, 100 * ms, 1, -1, 0, 1, 0, 0],   # iterate
        [1, 10 * ms, 30 * ms, 1, 0, 0, 1, 1, 0],   # child
        [2, 12 * ms, 20 * ms, 1, 1, 0, 1, 2, 0],   # grandchild: not subtracted
        [1, 40 * ms, 50 * ms, 1, 0, 0, 1, 3, 0],   # child
        [0, 0, 50 * ms, 1, -1, 0, 1, 0, 1],    # iterate on another thread
        [1, 0, 50 * ms, 1, 0, 0, 1, 1, 1],     # covers all of it
    ], dtype=np.int64)
    check("iterate self time: minus direct children only", layers.self_ms(spans, 0), 70.0)

    rec = perfbench_spans.Recorder()
    host = types.SimpleNamespace(outer=lambda: host.inner() or 7, inner=lambda: None)
    rec.wrap(host, "inner", "inner")
    rec.wrap(host, "outer", "outer")
    check("a wrapped call returns its result", host.outer(), 7)
    (_thread, st), = rec.threads
    got = np.array(st.buf, dtype=np.int64).reshape(-1, len(perfbench_spans.FIELDS))
    inner, outer = got  # the inner call ends first
    check("recorded parent is the enclosing span", int(inner[layers.PARENT]),
          int(outer[layers.ID]))
    check("the outer span has no parent", int(outer[layers.PARENT]), -1)
    rec.unwrap_all()
    check("unwrap restores the original", int(not hasattr(host.outer, "__wrapped__")), 1)


def main() -> int:
    for test in (test_stalls, test_p99_rule, test_setup, test_self_time):
        test()
    print(f"{len(FAILED)} failed" if FAILED else "all checks hold")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
