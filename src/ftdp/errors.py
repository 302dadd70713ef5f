"""Error taxonomy shared by the transport, collective, and engine layers.

Two severities. Recoverable failures (lost peers, timeouts, resets) are
retried by the caller after regrouping; Fatal failures (protocol garbage,
non-finite payloads, broken internal invariants) terminate the process
immediately rather than risk corrupting replicated state.
"""

from __future__ import annotations

# Recoverable reasons
TIMEOUT = "timeout"
PEER_RESET = "peer_reset"
PEER_DOWN = "peer_down"

# Fatal reasons
PROTOCOL_VIOLATION = "protocol_violation"
NUMERICAL = "numerical"
INTERNAL_INVARIANT = "internal_invariant"

RECOVERABLE_REASONS = frozenset({TIMEOUT, PEER_RESET, PEER_DOWN})
FATAL_REASONS = frozenset({PROTOCOL_VIOLATION, NUMERICAL, INTERNAL_INVARIANT})


class FtdpError(Exception):
    """Base class; carries a reason tag from the fixed taxonomy."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class Recoverable(FtdpError):
    def __init__(self, reason: str, detail: str = ""):
        if reason not in RECOVERABLE_REASONS:
            raise ValueError(f"not a recoverable reason: {reason}")
        super().__init__(reason, detail)


class Fatal(FtdpError):
    def __init__(self, reason: str, detail: str = ""):
        if reason not in FATAL_REASONS:
            raise ValueError(f"not a fatal reason: {reason}")
        super().__init__(reason, detail)


class ConfigError(Exception):
    """Bad scenario or runtime configuration. Maps to exit code 2."""


class InvariantViolation(Exception):
    """A checked run invariant failed. Maps to exit code 3."""
