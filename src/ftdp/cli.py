"""Command-line entry point.

Subcommands:

  run <config>         run a scenario and write artifacts to --run-dir
  compare <a> <b>      align two runs on tokens and compare final losses
  calc-eff F Rp s N    closed-form effective-training-time fraction
  emulate-quorum <n>   synthetic load on the quorum engine; latency stats
  bench-ftar           chunked vs single-message ring all-reduce grid

Exit codes: 0 success, 2 bad arguments or config, 3 invariant violation,
4 runtime failure (including a diverged compare).
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

from ftdp.errors import (
    EXIT_CONFIG, EXIT_FATAL, EXIT_INVARIANT, EXIT_OK, ConfigError, InvariantViolation,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftdp", description="fault-tolerant data-parallel training harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="scenario JSON path")
    p_run.add_argument("--run-dir", default=None,
                       help="artifact directory (default runs/<name>-<time>)")
    p_run.add_argument("--restore-from",
                       help="previous run directory to restore from")
    p_run.add_argument("--timeout-s", type=float, default=600.0)
    p_run.add_argument("--log-level", default="warning")

    p_cmp = sub.add_parser("compare", help="compare two run reports")
    p_cmp.add_argument("report_a", help="run directory or metrics.csv")
    p_cmp.add_argument("report_b", help="run directory or metrics.csv")
    p_cmp.add_argument("--threshold", type=float, default=0.05,
                       help="relative final-loss difference that counts as "
                            "divergence (default 0.05)")
    p_cmp.add_argument("--smooth", type=int, default=5,
                       help="rows averaged for the final loss (default 5)")
    p_cmp.add_argument("--curves", action="store_true",
                       help="also print the aligned loss curves as CSV")

    p_eff = sub.add_parser(
        "calc-eff", help="effective training time for a failure model")
    p_eff.add_argument("failure_interval", type=float,
                       help="mean time between failures")
    p_eff.add_argument("repair_time", type=float,
                       help="time until the failed replica rejoins")
    p_eff.add_argument("stall_time", type=float,
                       help="time the whole group stalls per failure")
    p_eff.add_argument("num_replicas", type=int)

    p_emu = sub.add_parser("emulate-quorum",
                           help="drive the coordinator with synthetic reporters")
    p_emu.add_argument("n_replicas", type=int)
    p_emu.add_argument("--rounds", type=int, default=200)
    p_emu.add_argument("--seed", type=int, default=0)
    p_emu.add_argument("--fail-rate", type=float, default=0.02)
    p_emu.add_argument("--lag-steps", type=int, default=3)

    p_bf = sub.add_parser("bench-ftar", help="ring all-reduce benchmark grid")
    p_bf.add_argument("--group-sizes", default="2,4",
                      help="comma-separated member counts (default 2,4)")
    p_bf.add_argument("--sizes-mib", default="4,16,64",
                      help="comma-separated message sizes in MiB")
    p_bf.add_argument("--reps", type=int, default=3)
    p_bf.add_argument("--chunk-mib", type=float, default=1.0)
    p_bf.add_argument("--max-in-flight", type=int, default=4)
    return parser


def _cmd_run(args) -> int:
    from ftdp import harness
    from ftdp.scenario import load_scenario

    run_dir = args.run_dir
    if run_dir is None:
        name = load_scenario(args.config).name or "run"
        run_dir = f"runs/{name}-{time.strftime('%Y%m%d-%H%M%S')}"
    report = harness.run_scenario(args.config, run_dir,
                                  restore_from=args.restore_from,
                                  timeout_s=args.timeout_s,
                                  log_level=args.log_level)
    print(report.format())
    print(f"artifacts: {run_dir}/metrics.csv {run_dir}/hashes.csv "
          f"{run_dir}/summary.txt")
    return report.exit_code


def _cmd_compare(args) -> int:
    from ftdp import harness

    report = harness.accuracy_compare(args.report_a, args.report_b,
                                      threshold=args.threshold,
                                      smooth=args.smooth)
    if args.curves:
        by_a = dict(report.curve_a)
        by_b = dict(report.curve_b)
        print("tokens,loss_a,loss_b")
        for tokens in sorted(set(by_a) | set(by_b)):
            a = f"{by_a[tokens]:.6f}" if tokens in by_a else ""
            b = f"{by_b[tokens]:.6f}" if tokens in by_b else ""
            print(f"{tokens},{a},{b}")
    print(report.format())
    return EXIT_FATAL if report.diverged else EXIT_OK


def _cmd_calc_eff(args) -> int:
    from ftdp.harness import effective_training_time

    frac = effective_training_time(args.failure_interval, args.repair_time,
                                   args.stall_time, args.num_replicas)
    print(f"effective_time: {frac:.6f} ({frac * 100:.2f}%)")
    return EXIT_OK


def _cmd_emulate(args) -> int:
    from ftdp.quorum import emulate_quorum

    if args.n_replicas < 1:
        raise ConfigError("n_replicas must be >= 1")
    stats = emulate_quorum(args.n_replicas, rounds=args.rounds, seed=args.seed,
                           fail_rate=args.fail_rate, lag_steps=args.lag_steps)
    print(stats.format())
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma-separated integers") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"{what}: need positive integers")
    return values


def _cmd_bench_ftar(args) -> int:
    from ftdp import bench

    group_sizes = _parse_int_list(args.group_sizes, "--group-sizes")
    sizes = _parse_int_list(args.sizes_mib, "--sizes-mib")
    if any(n < 2 for n in group_sizes):
        raise ConfigError("--group-sizes: a ring needs at least 2 members")
    printed_header = False

    def progress(row):
        nonlocal printed_header
        table = bench.format_ftar_table([row])
        head, line = table.split("\n")
        if not printed_header:
            print(head)
            printed_header = True
        print(line, flush=True)

    bench.bench_ftar(group_sizes=group_sizes, sizes_mib=sizes, reps=args.reps,
                     chunk_mib=args.chunk_mib,
                     max_in_flight=args.max_in_flight, progress=progress)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "calc-eff": _cmd_calc_eff,
    "emulate-quorum": _cmd_emulate,
    "bench-ftar": _cmd_bench_ftar,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, getattr(args, "log_level", "warning").upper(),
                      logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"ftdp: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"ftdp: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
