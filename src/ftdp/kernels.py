"""Reduce/copy kernels of the ring's data plane, in numpy.

Both treat src as float32 values and work elementwise in order, so a
reduction gives the same bits on every replica.
"""

from __future__ import annotations

import numpy as np


def accumulate(dst: np.ndarray, src: bytes | bytearray | memoryview) -> None:
    view = np.frombuffer(src, dtype=np.float32)
    if view.shape[0] != dst.shape[0]:
        raise ValueError("accumulate: src byte length does not match dst")
    dst += view


# Nothing in ftdp calls copy_into; perfbench's trace hook wraps it by name.
def copy_into(dst: np.ndarray, src: bytes | bytearray | memoryview) -> None:
    view = np.frombuffer(src, dtype=np.float32)
    if view.shape[0] != dst.shape[0]:
        raise ValueError("copy_into: src byte length does not match dst")
    dst[:] = view
