"""Ring all-reduce microbenchmark.

Chunk pipelining against a single-message baseline (same engine, chunk
size = whole segment, window of one), across group sizes and message
sizes, over loopback sockets and the real code path.

Loopback has no propagation delay, so pipelining gains here are from
overlapping send/reduce/recv work, not from hiding latency; the point of
the grid is a regression check, not a network model.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ftdp import ftar, transport

MIB = 1024 * 1024


@dataclass
class FtarRow:
    group_size: int
    size_mib: float
    naive_s: float
    chunked_s: float

    @property
    def speedup(self) -> float:
        return self.naive_s / self.chunked_s if self.chunked_s > 0 else 0.0

    def mibps(self, seconds: float) -> float:
        return self.size_mib / seconds if seconds > 0 else 0.0


def format_ftar_table(rows: list[FtarRow]) -> str:
    lines = [f"{'n':>3} {'MiB':>8} {'naive MiB/s':>12} {'chunked MiB/s':>14} "
             f"{'speedup':>8}"]
    for r in rows:
        lines.append(f"{r.group_size:>3} {r.size_mib:>8.1f} "
                     f"{r.mibps(r.naive_s):>12.1f} "
                     f"{r.mibps(r.chunked_s):>14.1f} {r.speedup:>8.2f}")
    return "\n".join(lines)


class _LoopbackRing:
    def __init__(self, n: int):
        self.n = n
        self.listeners = [transport.Listener() for _ in range(n)]
        self.routers = [transport.ConnectionRouter(ls).start()
                        for ls in self.listeners]
        self.groups = [ftar.RingGroup(rid, 0, self.routers[rid])
                       for rid in range(n)]
        addrs = {rid: transport.PeerAddress(rid, 0, "127.0.0.1",
                                            self.listeners[rid].port)
                 for rid in range(n)}
        self._parallel(lambda g: g.reconfig(addrs, 1, deadline_s=10.0))

    def _parallel(self, fn):
        errs: list[BaseException] = []

        def go(group):
            try:
                fn(group)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errs.append(exc)

        threads = [threading.Thread(target=go, args=(g,)) for g in self.groups]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errs:
            raise errs[0]

    def timed_all_reduce(self, bufs: list[np.ndarray],
                         step: int, cfg: ftar.PipelineConfig) -> float:
        start = time.perf_counter()
        self._parallel(lambda g: ftar.ftar_all_reduce(g, bufs[g.self_replica],
                                                      step, cfg))
        return time.perf_counter() - start

    def close(self):
        for g in self.groups:
            g.close_links()
        for r in self.routers:
            r.stop()
        for ls in self.listeners:
            ls.close()


def bench_ftar(group_sizes=(2, 4), sizes_mib=(4, 16), reps: int = 3,
               chunk_mib: float = 1.0, max_in_flight: int = 4,
               progress=None) -> list[FtarRow]:
    """Best-of-`reps` wall time per (group size, message size) cell.

    The baseline uses the same engine with the chunk size pinned to the
    whole message, so every ring phase moves one message and nothing
    overlaps. Buffers are regenerated per repetition (the reduction is in
    place).
    """
    rows = []
    for n in group_sizes:
        ring = _LoopbackRing(n)
        try:
            for size_mib in sizes_mib:
                elems = int(size_mib * MIB) // 4
                naive = ftar.PipelineConfig(chunk_bytes=max(4, elems * 4),
                                            max_in_flight=1,
                                            per_chunk_timeout_s=60.0)
                chunked = ftar.PipelineConfig(chunk_bytes=int(chunk_mib * MIB),
                                              max_in_flight=max_in_flight,
                                              per_chunk_timeout_s=60.0)
                step = 0
                times = {"naive": [], "chunked": []}
                for rep in range(reps):
                    for label, cfg in (("naive", naive), ("chunked", chunked)):
                        rng = np.random.default_rng(1000 + rep)
                        bufs = [rng.standard_normal(elems).astype(np.float32)
                                for _ in range(n)]
                        step += 1
                        times[label].append(ring.timed_all_reduce(bufs, step, cfg))
                row = FtarRow(n, size_mib, min(times["naive"]),
                              min(times["chunked"]))
                rows.append(row)
                if progress is not None:
                    progress(row)
        finally:
            ring.close()
    return rows
