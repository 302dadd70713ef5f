"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads tiny-4x2,churn-4x2] [--trace 0]

Runs perfbench/run.py once per workload and seed, one run at a time, with
the run length from BENCHMARK.json, and prints for each workload and
metric the median, the first and third quartiles and their distance as a
share of the median (the spread). With --trace 0 it also checks each
end-to-end spread against its bound. Exits 1 when a run failed or was
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        steal = []
        for seed in seed_range(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            shares.add(result["failed"] / result["attempted"])
            steal += [float(ln.split()[-1]) for ln in lines if "(host steal share)" in ln]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(next(iter(values.values()), []))} runs, "
              f"failed share {sorted(shares)}, host steal per run "
              f"{' '.join(f'{v:.3f}' for v in steal)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals * 3)
            spread = (q3 - q1) / med if med else float("nan")
            verdict = ""
            if name in bounds and name != "setup_s":
                verdict = "ok" if spread <= bounds[name] / 3 else "WIDE"
            print(f"  {name:34s} {med:14.4f} {units[name]:10s} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {spread:7.4f} {verdict}")
            print(f"  {'':34s} runs: {' '.join(f'{v:.4g}' for v in vals)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
