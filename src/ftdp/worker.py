"""Worker process entry point: hosts one replica (all its rank threads).

Launched by the harness as `python -m ftdp.worker`. The process publishes
its listener port to the shared ports file, then runs the replica to
completion. Exit codes: 0 finished, 2 bad configuration, 3 invariant
violation, 4 runtime failure (including watchdog), 9 scripted kill. The
harness respawns anything but 0/2/3 while the run is incomplete.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from ftdp import transport
from ftdp.errors import EXIT_CONFIG, ConfigError
from ftdp.replica import FilePortBook, ReplicaRuntime
from ftdp.scenario import load_scenario

PORTS_FILE = "ports.txt"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftdp.worker",
        description="Run one training replica; normally spawned by the harness.")
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--replica-id", type=int, required=True)
    parser.add_argument("--incarnation", type=int, default=0)
    parser.add_argument("--run-dir", required=True,
                        help="shared artifact directory for this run")
    parser.add_argument("--coordinator-host", default="127.0.0.1")
    parser.add_argument("--coordinator-port", type=int, required=True)
    parser.add_argument("--initial-cursor", type=int, default=0,
                        help="data cursor to start from when the ledger has "
                             "no line for this replica yet")
    parser.add_argument("--restore-dir",
                        help="checkpoint directory to load state from")
    parser.add_argument("--restore-step", type=int,
                        help="checkpointed step to load (with --restore-dir)")
    parser.add_argument("--log-level", default="warning")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")

    try:
        if (args.restore_dir is None) != (args.restore_step is None):
            raise ConfigError("--restore-dir and --restore-step go together")
        cfg = load_scenario(args.scenario)
        if not 0 <= args.replica_id < cfg.topology.num_replicas:
            raise ConfigError(f"replica id {args.replica_id} out of range")
        os.makedirs(args.run_dir, exist_ok=True)
        listener = transport.Listener()
        book = FilePortBook(os.path.join(args.run_dir, PORTS_FILE))
        book.publish(args.replica_id, args.incarnation, listener.port)
        coord = transport.PeerAddress(-1, 0, args.coordinator_host,
                                      args.coordinator_port)
        restore = ((args.restore_dir, args.restore_step)
                   if args.restore_dir is not None else None)
        runtime = ReplicaRuntime(cfg, args.replica_id, args.incarnation,
                                 args.run_dir, book, coord, listener,
                                 initial_cursor=args.initial_cursor,
                                 restore=restore)
    except ConfigError as exc:
        print(f"worker: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return runtime.run()


if __name__ == "__main__":
    sys.exit(main())
