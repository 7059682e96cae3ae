"""Elastic runtime vocabulary: resize plans and pair shards.

The epoch loop in :mod:`repro.faults.supervisor` rebuilds the comm world
between epochs, and that boundary is where the rank pool may grow or
shrink, with the headline invariant that a rescaled run is
bitwise-identical to a fixed-size run.  This package holds the two
pieces that invariant needs and that never touch a comm world:

- :mod:`repro.elastic.plan` — :class:`ResizeRequest`/:class:`ResizePlan`,
  the declarative "grow to N at epoch E" schedule the loop consumes.
- :mod:`repro.elastic.sharding` — the one rule that places pairs on
  ranks or engines (sorted pairs dealt round-robin).
"""

from repro.elastic.plan import ResizePlan, ResizeRequest
from repro.elastic.sharding import shard_pairs

__all__ = [
    "ResizePlan",
    "ResizeRequest",
    "shard_pairs",
]
