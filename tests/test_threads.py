"""Threads per replica process: the main thread, one I/O thread and one
thread per rank on a steady step, plus a fetch thread per lagging rank
during catch-up. No thread is started per inbound connection or per fetch
served."""

import os
import subprocess
import threading
import time

from ftdp import harness

from helpers import Cluster, kill_failure, quick_scenario, read_metrics, to_json


def test_failure_free_workers_peak_at_four_threads(tmp_path, monkeypatch):
    """A 2x2 run in process mode; each worker's /proc/<pid>/task is sampled
    until it exits. Main, I/O and two rank threads make four."""
    procs = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        procs.append(proc)
        return proc

    monkeypatch.setattr(harness.subprocess, "Popen", recording_popen)
    peaks: dict[int, int] = {}
    done = threading.Event()

    def sample():
        while not done.is_set():
            for proc in list(procs):
                try:
                    n = len(os.listdir(f"/proc/{proc.pid}/task"))
                except OSError:
                    continue  # exited
                peaks[proc.pid] = max(peaks.get(proc.pid, 0), n)
            time.sleep(0.005)

    cfg = quick_scenario(num_replicas=2, ranks=2, total_steps=60, micro_batch=8,
                         dims=(4, 8, 3))
    path = tmp_path / "threads.json"
    path.write_text(to_json(cfg))
    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        report = harness.run_scenario(str(path), str(tmp_path / "run"), timeout_s=60)
    finally:
        done.set()
        sampler.join()
    assert report.exit_code == 0, report.notes
    assert len(procs) == 2
    assert [peaks.get(p.pid) for p in procs] == [4, 4]


def test_catch_up_starts_threads_only_for_lagging_ranks_fetches(tmp_path, monkeypatch):
    """An in-process 3x2 run in which replica 2 dies and catches up. Every
    thread started is a replica's main, I/O or rank thread, the coordinator's
    one thread, or a fetch thread of a rank of the lagging replica."""
    started = []
    real_start = threading.Thread.start

    def recording_start(self):
        started.append(self._target or self.run)  # run() drops _target
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    cfg = quick_scenario(num_replicas=3, ranks=2, total_steps=10,
                         failures=[kill_failure(3, 3, (2,))])
    cluster = Cluster(cfg, str(tmp_path))
    assert cluster.run(timeout_s=60) == {0: 0, 1: 0, 2: 0}
    monkeypatch.undo()
    assert any(r["replica_id"] == 2 and r["event"] == "catch-up"
               for r in read_metrics(str(tmp_path)))

    by_target: dict[str, list] = {}
    for target in started:
        fn = getattr(target, "__func__", target)
        by_target.setdefault(fn.__qualname__, []).append(target)
    runtimes = cfg.topology.num_replicas + sum(cluster.respawns.values())
    fetchers = by_target.pop("_RankWorker._fetch_loop", [])
    assert fetchers and {f.__self__.rt.rid for f in fetchers} == {2}
    assert {name: len(ts) for name, ts in by_target.items()} == {
        "QuorumCoordinator._loop": 1,  # whatever the replicas and respawns
        "_Handle._main": runtimes,  # stands in for each process's main thread
        "_RankWorker.run": runtimes * cfg.topology.ranks_per_replica,
        "ConnectionRouter._loop": runtimes,
    }
