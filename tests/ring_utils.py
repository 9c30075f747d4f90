"""The check a test makes when it reads a count next to its record ring.

Counts are exact counters; the records beside them are a ring of the
:data:`~repro.network.engine.RECENT_RECORDS` most recent.  A test that
means a count asserts the counter, and that the ring holds the most
recent ``min(count, RECENT_RECORDS)`` of those records.
"""

from __future__ import annotations

from repro.network.engine import RECENT_RECORDS


def counted(count: int, ring) -> int:
    """``count``, once ``ring`` is seen to hold the most recent of them."""
    assert len(ring) == min(count, RECENT_RECORDS)
    return count
