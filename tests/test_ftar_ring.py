"""The all-reduce behaviour tests of test_ftar.py, run again on the ring path.

Their arrays are small, so in test_ftar.py each partition takes the gather
path. Here the gather path is switched off, so every assertion also holds
for reduce-scatter + all-gather. Left out: tests that drive a bare _Pipe or
never reach a partition (path-blind), the cut-short chunk tests (each is
pinned to one path in test_ftar.py), and the 4 MiB-chunk test, whose
partitions are already above the gather limit.
"""

import pytest

from ftdp import ftar
from test_ftar import (  # noqa: F401 - collected here a second time
    ring4,
    test_absent_peer_times_out_recoverably,
    test_all_reduce_starts_no_thread,
    test_bad_chunk_header_is_fatal_before_its_data,
    test_empty_buffer,
    test_hand_case_four_members,
    test_hand_case_multi_partition,
    test_inflight_window_respected,
    test_membership_changes_and_generation_bumps,
    test_nonfinite_payload_is_fatal_everywhere,
    test_out_of_sequence_chunk_is_fatal,
    test_peer_death_surfaces_as_recoverable,
    test_randomized_against_oracle,
    test_retry_after_failure_with_fresh_generation,
    test_reused_staging_stays_exact_across_calls_and_a_retry,
    test_stale_chunks_of_other_lengths_are_skipped,
    test_stale_generation_frames_are_dropped,
    test_unexpected_frame_type_is_fatal,
)


@pytest.fixture(autouse=True)
def forced_ring():
    # A patch of its own, so that a test's monkeypatch.undo() keeps it.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ftar, "GATHER_MAX_BYTES", 0)
        yield
