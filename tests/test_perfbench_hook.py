"""The benchmark's trace hook wraps ftdp functions by name. A name it wraps
that ftdp no longer has makes every traced worker fail at start-up, so
this check keeps the two in step."""

import importlib
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_perfbench_hook_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(PERFBENCH, "hook"))
    spans = importlib.import_module("perfbench_spans")
    rec = spans.Recorder()
    try:
        spans.wrap_worker_layers(rec)
        spans.wrap_harness_layers(rec)
    except AttributeError as exc:
        pytest.fail(f"the trace hook wraps a name ftdp lacks: {exc}")
    finally:
        rec.unwrap_all()

    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
