"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single "[criterion NN] PASS/FAIL ..." line (visible with
pytest -s) and fails via a collected problem list, so the printed line and
the assertion always agree. Process-mode criteria spawn real worker
processes through the harness; the numeric criteria run in-process.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ftdp import bench, ftar
from ftdp.checkpoint import find_latest, parse_ledger, validate_exactly_once
from ftdp.errors import ConfigError
from ftdp.harness import (accuracy_compare, effective_training_time,
                          load_metrics_csv, run_scenario, write_csv_artifacts)
from ftdp.model import forward_backward, init_model, next_batch
from ftdp.quorum import emulate_quorum
from ftdp.scenario import Failure

from helpers import Cluster, kill_failure, quick_scenario, read_hashes, read_metrics, to_json
from test_ftar import oracle_reduce

MIB = 1024 * 1024


def _report(num, label, t0, problems, detail=""):
    ok = not problems
    extra = detail if ok else "; ".join(str(p) for p in problems)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label} "
          f"({time.monotonic() - t0:.1f}s)" + (f": {extra}" if extra else ""))
    assert ok, f"criterion {num} {label}: {extra}"


def _fast_timeouts(cfg, chunk_s=0.5, round_s=0.2):
    cfg.timeouts.quorum_round_s = round_s
    cfg.timeouts.join_wait_s = 1.0
    cfg.timeouts.chunk_s = chunk_s
    cfg.timeouts.two_pc_s = 1.5
    cfg.timeouts.fetch_s = 1.5
    cfg.timeouts.connect_s = 1.5
    cfg.timeouts.watchdog_s = 10.0
    return cfg


# ---------------------------------------------------------------- 1


def test_criterion_01_effective_time_formula():
    t0 = time.monotonic()
    problems = []
    a = effective_training_time(18, 10, 10, 4) * 100
    b = effective_training_time(18, 10, 3, 12) * 100
    if abs(a - 44.4) > 0.1:
        problems.append(f"(18,10,10,4) -> {a:.3f}%, want 44.4 +/- 0.1")
    if abs(b - 80.1) > 0.1:
        problems.append(f"(18,10,3,12) -> {b:.3f}%, want 80.1 +/- 0.1")
    with pytest.raises(ConfigError):
        effective_training_time(1, 5, 10, 2)
    out = subprocess.run(
        [sys.executable, "-m", "ftdp.cli", "calc-eff", "18", "10", "3", "12"],
        capture_output=True, text=True)
    if out.returncode != 0 or "80.09%" not in out.stdout:
        problems.append(f"cli calc-eff: rc={out.returncode} out={out.stdout!r}")
    bad = subprocess.run(
        [sys.executable, "-m", "ftdp.cli", "calc-eff", "1", "5", "10", "2"],
        capture_output=True, text=True)
    if bad.returncode != 2:
        problems.append(f"cli precondition violation: rc={bad.returncode}, want 2")
    _report(1, "effective-time arithmetic", t0, problems,
            f"{a:.2f}% and {b:.2f}%")


# ---------------------------------------------------------------- 2


def test_criterion_02_allreduce_oracle_and_window_cap():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(0xF7A2)
    rings = {}
    cases = [(2, 1), (8, 1), (2, 1_000_000), (4, 1_000_000), (8, 9)]
    while len(cases) < 1000:
        n = 2 + len(cases) % 7
        cases.append((n, int(10 ** rng.uniform(0, 6))))
    step = 0
    try:
        for n, elems in cases:
            if n not in rings:
                rings[n] = bench._LoopbackRing(n)
            ring = rings[n]
            nbytes = elems * 4
            if nbytes <= 4096:
                chunk = int(rng.integers(1, 65)) * 4
            else:
                chunk = max(4, (nbytes >> int(rng.integers(0, 9))) & ~3)
            cfg = ftar.PipelineConfig(chunk_bytes=chunk,
                                      max_in_flight=int(rng.integers(1, 6)),
                                      per_chunk_timeout_s=30.0)
            bufs = [rng.standard_normal(elems).astype(np.float32)
                    for _ in range(n)]
            expected = oracle_reduce(bufs, cfg.chunk_bytes, cfg.max_in_flight)
            for g in ring.groups:
                g.meter = ftar.InflightMeter()
            step += 1
            ring.timed_all_reduce(bufs, step, cfg)
            for rid, buf in enumerate(bufs):
                if not np.array_equal(buf, expected):
                    problems.append(f"case (n={n}, len={elems}, S={chunk}, "
                                    f"C={cfg.max_in_flight}): member {rid} "
                                    "not bit-equal to direct sum")
            cap = cfg.chunk_bytes * cfg.max_in_flight
            for rid, g in enumerate(ring.groups):
                if g.meter.max_unacked_bytes > cap:
                    problems.append(f"case (n={n}, len={elems}): member {rid} "
                                    f"had {g.meter.max_unacked_bytes}B in "
                                    f"flight, cap {cap}B")
                if g.meter.max_unacked_chunks > cfg.max_in_flight:
                    problems.append(f"case (n={n}, len={elems}): member {rid} "
                                    f"window {g.meter.max_unacked_chunks} > "
                                    f"{cfg.max_in_flight}")
            if problems:
                break
    finally:
        for ring in rings.values():
            ring.close()
    _report(2, "all-reduce oracle equivalence + in-flight cap", t0, problems,
            f"{len(cases)} randomized cases, N in 2..8")


# ---------------------------------------------------------------- 3 + 5


@pytest.fixture(scope="module")
def survival_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("survival")
    cfg = quick_scenario(num_replicas=4, ranks=2, total_steps=300,
                         micro_batch=8, dims=(4, 8, 3), interval=400,
                         failures=(kill_failure(50, 20, (2,)),),
                         allocation_delay_s=0.3)
    cfg.timeouts.chunk_s = 1.0
    cfg.timeouts.join_wait_s = 4.0
    cfg.timeouts.watchdog_s = 30.0
    path = root / "survival.json"
    path.write_text(to_json(cfg))
    report = run_scenario(str(path), str(root / "run"), timeout_s=150)
    rows = load_metrics_csv(str(root / "run" / "metrics.csv"))
    return root / "run", report, rows, cfg


def test_criterion_03_failure_survival(survival_run):
    t0 = time.monotonic()
    run_dir, report, rows, cfg = survival_run
    problems = []
    if report.exit_code != 0:
        problems.append(f"exit {report.exit_code}: {report.notes}")
    chunk_ms = cfg.timeouts.chunk_s * 1000
    kill_retries = [r for r in rows if r["phase"] == "retry" and r["step"] == 50]
    if not kill_retries:
        problems.append("no retry recorded at the kill step")
    for r in kill_retries:
        if r["wall_ms"] > 2 * chunk_ms:
            problems.append(f"replica {r['replica_id']} took {r['wall_ms']:.0f}ms "
                            f"to abandon step 50 (> 2x chunk timeout "
                            f"{2 * chunk_ms:.0f}ms)")
    healthy = {r["step"]: r["healthy_count"] for r in rows
               if r["phase"] == "commit" and r["replica_id"] == 0}
    for step, want in ((49, 4), (50, 3), (60, 3), (70, 3), (71, 4), (300, 4)):
        if healthy.get(step) != want:
            problems.append(f"healthy[{step}] = {healthy.get(step)}, want {want}")
    if not any(r["replica_id"] == 2 and r["step"] == 70 and r["event"] == "catch-up"
               for r in rows):
        problems.append("replica 2 did not catch up at step 70")
    final = {r["replica_id"]: r["hash"] for r in _hash_rows(run_dir, 300)}
    if sorted(final) != [0, 1, 2, 3]:
        problems.append(f"step-300 hashes from replicas {sorted(final)}, want all 4")
    if len(set(final.values())) != 1:
        problems.append("step-300 state hashes differ across replicas")
    entries = parse_ledger(os.path.join(run_dir, "ledger.txt"))
    validate_exactly_once(entries, cfg.topology.ranks_per_replica)
    r2_steps = [e[0] for e in entries if e[1] == 2]
    if r2_steps != list(range(1, 50)) + list(range(71, 301)):
        problems.append("replica 2 ledger is not the contiguous prefix minus "
                        "the outage window")
    _report(3, "kill/rejoin survival, bit-identical state", t0, problems,
            f"rejoined at 70, final hash {next(iter(final.values()))[:12]}...")


def _hash_rows(run_dir, step):
    out = []
    with open(os.path.join(run_dir, "hashes.csv")) as fh:
        import csv as _csv
        for row in _csv.DictReader(fh):
            if int(row["step"]) == step:
                out.append({"replica_id": int(row["replica_id"]),
                            "hash": row["hash"]})
    return out


def test_criterion_05_catchup_timing(survival_run):
    t0 = time.monotonic()
    _, report, rows, cfg = survival_run
    problems = []
    survivors = {0, 1, 3}
    steady_pool = [r["wall_ms"] for r in rows
                   if r["phase"] == "commit" and r["event"] == ""
                   and r["healthy_count"] == 4]
    steady = statistics.median(steady_pool)
    limit = steady + cfg.timeouts.join_wait_s * 1000 * 1.2
    window = [r for r in rows
              if r["phase"] == "commit" and r["replica_id"] in survivors
              and 50 <= r["step"] <= 75]
    worst = max(window, key=lambda r: r["wall_ms"])
    if worst["wall_ms"] > limit:
        problems.append(f"replica {worst['replica_id']} step {worst['step']} "
                        f"took {worst['wall_ms']:.0f}ms; limit {limit:.0f}ms "
                        f"(steady {steady:.1f}ms + 1.2x join wait)")
    _report(5, "catch-up never blocks healthy replicas", t0, problems,
            f"worst {worst['wall_ms']:.0f}ms of {limit:.0f}ms allowed "
            f"(steady {steady:.1f}ms)")


# ---------------------------------------------------------------- 4


def test_criterion_04_retry_atomicity(tmp_path):
    t0 = time.monotonic()
    problems = []

    # Generous round deadline: a reporter starved by CPU contention must not
    # get voted out mid-window, or the trajectory legitimately forks and the
    # bit-equality below would be comparing different cluster histories.
    def scenario(failures=()):
        cfg = quick_scenario(num_replicas=2, ranks=1, total_steps=3,
                             failures=failures)
        return _fast_timeouts(cfg, round_s=1.0)

    base_dir = tmp_path / "base"
    codes = Cluster(scenario(), str(base_dir)).run(timeout_s=60)
    assert all(c == 0 for c in codes.values()), codes
    base_hashes = read_hashes(str(base_dir))
    assert len(base_hashes) == 6  # 3 steps x 2 replicas

    rng = np.random.default_rng(4242)
    cases = [(i, int(rng.integers(1, 4)), int(rng.integers(0, 2)))
             for i in range(200)]

    def one(case):
        i, at_step, victim = case
        fault = Failure("drop_links", at_step, 1, 1, (victim,))
        d = tmp_path / f"case{i}"
        cl = Cluster(scenario((fault,)), str(d))
        codes = cl.run(timeout_s=60)
        if any(c != 0 for c in codes.values()):
            return f"case {i} (step {at_step}, victim {victim}): exits {codes}"
        if read_hashes(str(d)) != base_hashes:
            return (f"case {i} (step {at_step}, victim {victim}): "
                    "hash history differs from the fault-free run")
        rows = read_metrics(str(d))
        if not any(r["phase"] == "retry" and r["step"] == at_step for r in rows):
            return f"case {i}: injected timeout produced no retry at {at_step}"
        cl.validate_ledger()
        return None

    with ThreadPoolExecutor(max_workers=2) as pool:
        for res in pool.map(one, cases):
            if res is not None:
                problems.append(res)
                if len(problems) >= 3:
                    break
    _report(4, "one injected timeout per run leaves state bit-unchanged", t0,
            problems, f"{len(cases)} randomized runs, identical batch on retry")


# ---------------------------------------------------------------- 6


def test_criterion_06_accuracy_under_failures(tmp_path):
    t0 = time.monotonic()
    problems = []
    at, dur, total = 1000, 40, 2000

    def run_one(tag, seed, lr_iv, failures):
        cfg = quick_scenario(num_replicas=4, ranks=1, total_steps=total,
                             micro_batch=256, dims=(16, 32, 64),
                             failures=failures, lr_intervention=lr_iv,
                             allocation_delay_s=0.3, initial_lr=0.01)
        cfg = replace(cfg, model_seed=1234 + seed, data_seed=99 + seed)
        d = tmp_path / f"{tag}{seed}"
        codes = Cluster(cfg, str(d)).run(timeout_s=300)
        assert all(c == 0 for c in codes.values()), (tag, seed, codes)
        write_csv_artifacts(str(d))
        return str(d)

    def window_variance(run_dir):
        rows = read_metrics(run_dir)
        return statistics.variance(
            [r["loss"] for r in rows
             if r["replica_id"] == 0 and r["phase"] == "commit"
             and at <= r["step"] < at + dur])

    kills = (kill_failure(at, dur, (2,)),)
    sqrt_wins = 0
    worst_rel = 0.0
    for seed in range(5):
        base = run_one("base", seed, "none", ())
        knone = run_one("knone", seed, "none", kills)
        ksqrt = run_one("ksqrt", seed, "sqrt", kills)
        for tag, d in (("none", knone), ("sqrt", ksqrt)):
            cmp = accuracy_compare(base, d, threshold=0.05, smooth=20)
            worst_rel = max(worst_rel, cmp.rel_diff)
            if cmp.diverged:
                problems.append(f"seed {seed} {tag}: final loss off by "
                                f"{cmp.rel_diff:.3f} (> 0.05) at equal tokens")
        sqrt_wins += window_variance(ksqrt) < window_variance(knone)
    if sqrt_wins < 4:
        problems.append(f"sqrt variance lower on only {sqrt_wins}/5 seeds")
    _report(6, "equal-token loss parity + sqrt variance damping", t0, problems,
            f"max rel diff {worst_rel:.4f}, sqrt lower on {sqrt_wins}/5 seeds")


# ---------------------------------------------------------------- 7


def test_criterion_07_quorum_emulation_scales():
    t0 = time.monotonic()
    problems = []
    small = emulate_quorum(100, rounds=120, seed=5)
    big = emulate_quorum(1000, rounds=120, seed=5)
    if not big.decide_p99_ms > 0:
        problems.append("no p99 decision latency reported at N=1000")
    ratio = big.decide_total_s / max(small.decide_total_s, 1e-9)
    if ratio >= 100:
        problems.append(f"decision cost grew {ratio:.1f}x from N=100 to "
                        "N=1000 (quadratic or worse)")
    _report(7, "quorum emulation sub-quadratic in replica count", t0, problems,
            f"p99 {big.decide_p99_ms:.3f}ms at N=1000, 10x replicas -> "
            f"{ratio:.1f}x decide cost")


# ---------------------------------------------------------------- 8


def test_criterion_08_persistence_roundtrip(tmp_path):
    t0 = time.monotonic()
    problems = []

    def scenario_json(failures=()):
        cfg = quick_scenario(num_replicas=2, ranks=1, total_steps=157,
                             micro_batch=8, dims=(4, 8, 3), interval=100,
                             failures=failures, allocation_delay_s=0.5)
        cfg.timeouts.chunk_s = 1.0
        cfg.timeouts.watchdog_s = 20.0
        return to_json(cfg)

    clean = tmp_path / "clean.json"
    clean.write_text(scenario_json())
    killall = tmp_path / "killall.json"
    killall.write_text(scenario_json(
        (Failure("kill_replica", 157, 5, 2, (0, 1)),)))

    ref = run_scenario(str(clean), str(tmp_path / "ref"), timeout_s=90)
    assert ref.exit_code == 0, ref.notes
    dead = run_scenario(str(killall), str(tmp_path / "dead"), timeout_s=90)
    if dead.exit_code != 4:
        problems.append(f"kill-all run exited {dead.exit_code}, want 4")
    if not any("total state loss" in n for n in dead.notes):
        problems.append(f"kill-all run notes: {dead.notes}")
    latest = find_latest(str(tmp_path / "dead" / "checkpoints"))
    if latest is None or latest[0] != 100:
        problems.append(f"checkpoint at step 100 missing: {latest}")
    resumed = run_scenario(str(clean), str(tmp_path / "resumed"),
                           restore_from=str(tmp_path / "dead"), timeout_s=90)
    if resumed.exit_code != 0:
        problems.append(f"restored run exited {resumed.exit_code}: "
                        f"{resumed.notes}")
    entries = parse_ledger(str(tmp_path / "resumed" / "ledger.txt"))
    if entries and min(e[0] for e in entries) != 101:
        problems.append(f"restored run first commit at {min(e[0] for e in entries)}, "
                        "want 101")
    ref_final = {r["replica_id"]: r["hash"]
                 for r in _hash_rows(tmp_path / "ref", 157)}
    res_final = {r["replica_id"]: r["hash"]
                 for r in _hash_rows(tmp_path / "resumed", 157)}
    if not ref_final or not res_final:
        problems.append("missing step-157 hashes")
    elif set(ref_final.values()) != set(res_final.values()) \
            or len(set(ref_final.values())) != 1:
        problems.append("restored state at 157 differs from the "
                        "uninterrupted run")
    _report(8, "kill-all then restore reproduces the uninterrupted run", t0,
            problems, "step-157 hashes bit-identical after restore from 100")


# ---------------------------------------------------------------- 9


def test_criterion_09_gradient_finite_difference():
    t0 = time.monotonic()
    problems = []
    rng = np.random.default_rng(31337)
    for i in range(100):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 9)),
                int(rng.integers(1, 5)))
        state = init_model(dims, int(rng.integers(1, 10_000)))
        batch = next_batch(int(rng.integers(1, 10_000)),
                           int(rng.integers(0, 4)),
                           int(rng.integers(0, 1000)),
                           int(rng.integers(1, 9)), dims)
        _, grad = forward_backward(state, batch)
        # finite differences only make sense against non-degenerate entries
        order = np.argsort(-np.abs(grad))
        pool = order[:max(4, grad.size // 2)]
        for idx in rng.choice(pool, size=min(6, pool.size), replace=False):
            p0 = float(state.params[idx])
            h = 1e-3
            state.params[idx] = np.float32(p0 + h)
            hi = float(state.params[idx])
            lp, _ = forward_backward(state, batch)
            state.params[idx] = np.float32(p0 - h)
            lo = float(state.params[idx])
            lm, _ = forward_backward(state, batch)
            state.params[idx] = np.float32(p0)
            fd = (lp - lm) / (hi - lo)
            rel = abs(fd - grad[idx]) / max(abs(float(grad[idx])), 1e-8)
            if rel >= 1e-2:
                problems.append(f"pair {i} dims {dims} coord {idx}: "
                                f"fd {fd:.6g} vs grad {grad[idx]:.6g} "
                                f"(rel {rel:.2e})")
        if len(problems) >= 3:
            break
    _report(9, "analytic gradient matches finite differences", t0, problems,
            "100 model/batch pairs, rel err < 1e-2")


# ---------------------------------------------------------------- 10


def test_criterion_10_bench_shape_informational():
    t0 = time.monotonic()
    problems = []
    with open("/proc/meminfo") as fh:
        avail_mib = next(int(line.split()[1]) // 1024 for line in fh
                         if line.startswith("MemAvailable"))
    big = 256 if avail_mib > 3500 else 64
    rows = bench.bench_ftar(group_sizes=(2, 4), sizes_mib=(16, big), reps=1,
                            chunk_mib=4.0)
    if len(rows) != 4 or any(r.naive_s <= 0 or r.chunked_s <= 0 for r in rows):
        problems.append(f"grid incomplete: {rows}")
    print(bench.format_ftar_table(rows))
    ref = next(r for r in rows if r.group_size == 4 and r.size_mib == big)
    verdict = "meets" if ref.speedup >= 0.8 else "below"
    print(f"[criterion 10] info: chunked/naive at {big} MiB, N=4 is "
          f"{ref.speedup:.2f}x ({verdict} the 0.8x reference; larger grids "
          "via `ftdp bench-ftar`)")
    _report(10, "pipelined all-reduce benchmark grid (informational)", t0,
            problems, f"N=4 {big}MiB speedup {ref.speedup:.2f}x, not gated")
