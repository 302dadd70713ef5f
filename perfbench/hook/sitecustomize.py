"""Start-up hook of the traced benchmark run.

The benchmark puts this directory on the worker processes' import path only
for traced scenarios, together with PERFBENCH_TRACE_DIR naming where the
spans go. Python imports sitecustomize at start-up, before the worker's own
code runs, so the wrappers are in place for the whole life of the process.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_spans

    perfbench_spans.install_worker(os.environ["PERFBENCH_TRACE_DIR"])
