"""Span recording around calls into ftdp's public functions.

Used in two places: the start-up hook (sitecustomize.py, next to this file)
installs it in every worker process of a traced scenario, and the benchmark
harness process installs the coordinator part in itself. Nothing under
src/ is changed: functions are wrapped where callers look them up, as
module attributes and class methods.

A span is eight 64-bit integers kept in a per-thread array until process
exit: name id, start and end (perf_counter_ns), step, parent span id,
payload bytes, ok (0 when the call raised), span id. The parent is the
enclosing span on the same thread. The step is the one the enclosing
iterate() call was attempting, or -1 outside iterate().

At exit each process writes <pid>.bin (the arrays, thread after thread)
and <pid>.json (names, threads, replica id and incarnation). A process
that leaves through os._exit (a scripted kill, the watchdog) writes
nothing, so its spans are lost. Worker start-up is the exception: it is
written the moment the worker reaches the coordinator, to startup-<pid>.txt.
"""

from __future__ import annotations

import array
import functools
import json
import os
import sys
import threading
import time

FIELDS = ("name", "t0", "t1", "step", "parent", "nbytes", "ok", "id")
_clock = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("buf", "stack", "count", "step")

    def __init__(self):
        self.buf = array.array("q")
        self.stack: list[int] = []
        self.count = 0
        self.step = -1


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[tuple[str, _ThreadState]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self.threads.append((threading.current_thread().name, st))
        return st

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def wrap(self, owner, attr: str, name: str, nbytes=None, step_of=None) -> None:
        """Replace owner.attr with a recording wrapper.

        nbytes(args, kwargs, result) gives the payload size of a call that
        returned; step_of(args) marks the wrapped call as the one that sets
        the step of the spans nested in it.
        """
        fn = getattr(owner, attr)
        name_id = self._name_id(name)
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            span_id = st.count
            st.count += 1
            parent = st.stack[-1] if st.stack else -1
            outer_step = st.step
            if step_of is not None:
                st.step = step_of(args)
            st.stack.append(span_id)
            ok = 0
            size = 0
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
                ok = 1
                if nbytes is not None:
                    size = nbytes(args, kwargs, out)
                return out
            finally:
                t1 = _clock()
                st.stack.pop()
                st.buf.extend((name_id, t0, t1, st.step, parent, size, ok, span_id))
                st.step = outer_step

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def dump(self, out_dir: str, meta: dict) -> None:
        pid = os.getpid()
        with self._lock:
            threads = list(self.threads)
        counts = []
        with open(os.path.join(out_dir, f"{pid}.bin"), "wb") as fh:
            for _name, st in threads:
                buf = st.buf[:]  # a snapshot; daemon threads may still append
                buf.tofile(fh)
                counts.append(len(buf) // len(FIELDS))
        doc = dict(meta, pid=pid, names=self.names,
                   threads=[[name, n] for (name, _st), n in zip(threads, counts)])
        with open(os.path.join(out_dir, f"{pid}.json"), "w") as fh:
            json.dump(doc, fh)


def _payload_len(args, kwargs, _out) -> int:
    payload = args[4] if len(args) > 4 else kwargs.get("payload", b"")
    return len(payload)


def _frame_len(_args, _kwargs, frame) -> int:
    return len(frame.payload)


def _fetched_len(_args, _kwargs, out) -> int:
    params, momentum = out
    return len(params) + len(momentum)


def wrap_worker_layers(rec: Recorder) -> None:
    """Wrap the public functions every worker process calls."""
    from ftdp import checkpoint, ftar, kernels, model, quorum, replica, transport, wire

    for fn in ("next_batch", "forward_backward", "optimizer_step", "hash_state"):
        rec.wrap(model, fn, f"model.{fn}")
    for fn in ("accumulate", "copy_into"):
        rec.wrap(kernels, fn, f"kernels.{fn}", nbytes=lambda a, _k, _o: len(a[1]))
    rec.wrap(wire, "encode_chunk", "wire.encode")
    rec.wrap(wire, "encode_frame", "wire.encode")
    rec.wrap(wire, "decode_chunk", "wire.decode")
    rec.wrap(wire, "decode_frame", "wire.decode")
    rec.wrap(transport.Connection, "send_frame", "transport.send", nbytes=_payload_len)
    rec.wrap(transport.Connection, "recv_frame", "transport.recv", nbytes=_frame_len)
    rec.wrap(transport, "connect", "transport.connect")
    rec.wrap(ftar, "ftar_all_reduce", "ftar.all_reduce",
             nbytes=lambda a, _k, _o: a[1].nbytes)
    rec.wrap(ftar.RingGroup, "reconfig", "ftar.reconfig")
    rec.wrap(quorum.QuorumClient, "exchange", "quorum.exchange")
    for fn in ("broadcast", "exchange", "reduce_scatter", "all_gather"):
        rec.wrap(replica.IntraGroup, fn, f"replica.intra.{fn}")
    rec.wrap(replica.ControlPlane, "round", "replica.commit")
    rec.wrap(replica.ControlPlane, "reconfig", "replica.commit_reconfig")
    rec.wrap(replica._RankWorker, "iterate", "replica.iterate",
             step_of=lambda a: a[0].rt.step + 1)
    rec.wrap(checkpoint, "fetch_shard", "checkpoint.fetch", nbytes=_fetched_len)
    rec.wrap(checkpoint.SnapshotStore, "capture", "checkpoint.capture")
    rec.wrap(checkpoint, "write_shard", "checkpoint.write_shard")
    rec.wrap(checkpoint.LoaderLedger, "append", "checkpoint.ledger")


def wrap_harness_layers(rec: Recorder) -> None:
    """Wrap what the harness process runs itself: the coordinator's decisions."""
    from ftdp import quorum

    rec.wrap(quorum.QuorumEngine, "decide", "quorum.decide")


def _process_age_ms() -> float:
    """Milliseconds since this process was created."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started_s = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return (time.clock_gettime(time.CLOCK_BOOTTIME) - started_s) * 1e3


def _argv_int(flag: str) -> int:
    argv = sys.argv
    return int(argv[argv.index(flag) + 1]) if flag in argv else -1


def install_worker(out_dir: str) -> Recorder:
    """Trace this worker process; called from sitecustomize at start-up."""
    from ftdp import quorum

    rec = Recorder()
    wrap_worker_layers(rec)

    connect = quorum.QuorumClient.__init__

    @functools.wraps(connect)
    def connect_and_stamp(self, *args, **kwargs):
        connect(self, *args, **kwargs)
        path = os.path.join(out_dir, f"startup-{os.getpid()}.txt")
        with open(path, "w") as fh:
            fh.write(f"{_process_age_ms():.3f}\n")

    quorum.QuorumClient.__init__ = connect_and_stamp

    def at_exit() -> None:
        rec.dump(out_dir, {"replica_id": _argv_int("--replica-id"),
                           "incarnation": _argv_int("--incarnation")})

    import atexit
    atexit.register(at_exit)
    return rec
