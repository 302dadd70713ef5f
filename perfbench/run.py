"""Process-mode step benchmark for ftdp.

    python3 perfbench/run.py --workload tiny-4x2 --seed 1 --seconds 25 --trace 0

Runs whole scenarios of one workload, back to back, through
ftdp.harness.run_scenario (one worker process per replica, real sockets),
until --seconds have passed; the scenario running at that moment is
finished. Every scenario's outputs are checked (oracle.py). The last line
of standard output is one JSON object: correct, attempted and failed count
scenarios; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. See README.md for what each metric means.

With --trace 1 the first half of the time runs untraced scenarios and the
second half traced ones, so the traced step time can be set beside the
untraced one; the difference is the tracing overhead. The untraced half
goes on until it holds the 1000 rows a p99 needs, or until the whole time
has passed, whichever comes first.

It builds nothing: ftdp is pure Python and runs from src/ of the checkout
this file sits in. It exits with code 2, printing no result, when src/ftdp
is not there.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(HERE, "hook")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HOOK)

import layers  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import perfbench_spans  # noqa: E402
import workloads  # noqa: E402

SCENARIO_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one scenario run yields."""
    errors: list[str]
    setup_s: float = 0.0
    rss_mib: float = 0.0
    steady: list[float] = field(default_factory=list)
    uneventful: list[float] = field(default_factory=list)
    tokens: int = 0
    wall_ms: float = 0.0
    stalls: dict[str, float] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)


class ScenarioWatch(threading.Thread):
    """Polls a running scenario from outside the program.

    It notes when any replica writes its first metric row (step 1 has
    committed), and the peak resident set (VmHWM) of every child process,
    which are the workers. Reading VmHWM after exec leaves out the
    harness process's own pages, which the forked child shares until then.
    """

    def __init__(self, run_dir: str, num_replicas: int):
        super().__init__(daemon=True, name="scenario-watch")
        self.paths = [os.path.join(run_dir, f"metrics_replica{r}.jsonl")
                      for r in range(num_replicas)]
        self.first_commit_at: float | None = None
        self.peak_kib = 0
        self.stop = threading.Event()

    def _committed(self) -> bool:
        for path in self.paths:
            try:
                if os.path.getsize(path) > 0:
                    return True
            except OSError:
                pass
        return False

    def _sample_memory(self) -> None:
        for listing in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
            with open(listing) as fh:
                pids = fh.read().split()
            for pid in pids:
                try:
                    with open(f"/proc/{pid}/status") as fh:
                        for line in fh:
                            if line.startswith("VmHWM:"):
                                self.peak_kib = max(self.peak_kib, int(line.split()[1]))
                except OSError:
                    pass  # the child exited between listing and reading

    def run(self) -> None:
        # VmHWM is a high-water mark, so sampling may start after set-up.
        while not self.stop.wait(0.002 if self.first_commit_at is None else 0.1):
            if self.first_commit_at is None:
                if self._committed():
                    self.first_commit_at = time.perf_counter()
            else:
                self._sample_memory()


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine since boot."""
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def load_program() -> bool:
    """Import ftdp from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "ftdp", "harness.py")):
        return False
    sys.path.insert(0, SRC)
    import ftdp
    return os.path.dirname(os.path.dirname(os.path.abspath(ftdp.__file__))) == SRC


def run_one(doc: dict, tag: str, traced: bool) -> Outcome:
    from ftdp import checkpoint
    from ftdp.harness import read_metric_rows, run_scenario

    run_dir = os.path.join(OUT, tag)
    trace_dir = run_dir + "-trace"
    scenario_path = run_dir + ".json"
    for path in (run_dir, trace_dir):
        shutil.rmtree(path, ignore_errors=True)
    with open(scenario_path, "w") as fh:
        json.dump(doc, fh, indent=1)

    env_path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    recorder = None
    if traced:
        os.makedirs(trace_dir)
        os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
        env_path.insert(0, HOOK)
        recorder = perfbench_spans.Recorder()
        perfbench_spans.wrap_harness_layers(recorder)
    saved_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(env_path)
    os.makedirs(run_dir)
    watch = ScenarioWatch(run_dir, doc["topology"]["num_replicas"])
    watch.start()
    called_at = time.perf_counter()
    try:
        report = run_scenario(scenario_path, run_dir, timeout_s=SCENARIO_TIMEOUT_S)
    finally:
        watch.stop.set()
        watch.join()
        os.environ.pop("PERFBENCH_TRACE_DIR", None)
        if saved_path is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = saved_path
        if recorder is not None:
            recorder.unwrap_all()

    rows = read_metric_rows(run_dir)
    errors = oracle.check_run(doc, run_dir, report.exit_code, rows, checkpoint.read_shard)
    if watch.first_commit_at is None:
        errors.append("no metric row was ever written")
    if errors:
        return Outcome(errors)  # the run directory stays for inspection

    ref = workloads.REFERENCE_REPLICA
    steady = measure.steady_walls(rows, ref, doc["topology"]["num_replicas"])
    tokens, wall_ms = measure.throughput(rows, ref)
    out = Outcome(
        errors=[],
        setup_s=measure.setup_seconds(called_at, watch.first_commit_at),
        rss_mib=watch.peak_kib / 1024.0,
        steady=steady,
        uneventful=measure.uneventful_walls(rows, ref),
        tokens=tokens,
        wall_ms=wall_ms,
        stalls=measure.failure_stalls(rows, ref, statistics.median(steady),
                                      workloads.failure_steps(doc)),
    )
    if traced:
        committed = sum(1 for r in rows if r["replica_id"] == ref and r["phase"] == "commit")
        out.layers = layers.per_layer(trace_dir, ref, committed,
                                      layers.recorded_ms(recorder, "quorum.decide"))
    for path in (run_dir, trace_dir):
        shutil.rmtree(path, ignore_errors=True)
    os.remove(scenario_path)
    return out


def end_to_end_metrics(done: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Medians over the run's scenarios; the step p50 over all their rows."""
    return {
        "tokens_per_s": (statistics.median(o.tokens / (o.wall_ms / 1e3) for o in done),
                         "tokens/s"),
        "step_p50_ms": (statistics.median([w for o in done for w in o.steady]), "ms"),
        "setup_s": (statistics.median(o.setup_s for o in done), "s"),
        "worker_rss_mib": (statistics.median(o.rss_mib for o in done), "MiB"),
    }


def per_layer_metrics(untraced: list[Outcome],
                      traced: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Layer figures from the traced scenarios; tails and stalls from the rest."""
    out = {name: (statistics.median([o.layers[name][0] for o in traced]), unit)
           for name, (_v, unit) in traced[0].layers.items()}
    plain = [w for o in untraced for w in o.steady]
    out["trace.step_p50_ms"] = (statistics.median([w for o in traced for w in o.steady]), "ms")
    out["trace.untraced_step_p50_ms"] = (statistics.median(plain), "ms")
    tail = measure.p99([w for o in untraced for w in o.uneventful])
    out["step_p99_ms"] = (0.0 if tail is None else tail, "ms")
    for name in untraced[0].stalls:
        out[name] = (statistics.median([o.stalls[name] for o in untraced]), "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_program():
        print(f"perfbench: no ftdp sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    doc = workloads.make_scenario(args.workload, args.seed)

    steal0, total0 = cpu_ticks()
    start = time.monotonic()
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    failed = 0
    n = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds and untraced and (traced or not args.trace):
            break
        # The untraced half must hold enough rows for a p99 where the
        # workload can give them in the run's time.
        tail_rows = sum(len(o.uneventful) for o in untraced)
        use_trace = bool(args.trace and untraced and elapsed >= args.seconds / 2
                         and (tail_rows >= measure.P99_MIN_ROWS or elapsed >= args.seconds))
        tag = f"{args.workload}-seed{args.seed}-{os.getpid()}-{n}"
        outcome = run_one(doc, tag, use_trace)
        n += 1
        if outcome.errors:
            failed += 1
            for err in outcome.errors:
                print(f"perfbench: {tag}: {err}", file=sys.stderr)
            if failed == n:
                break  # nothing has worked; more of the same would not help
            continue
        (traced if use_trace else untraced).append(outcome)

    if not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced)
    steal1, total1 = cpu_ticks()
    # Time the host took from this machine's CPUs; it slows every step.
    print(f"{args.workload:10s} {'(host steal share)':34s} "
          f"{(steal1 - steal0) / max(1, total1 - total0):14.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
