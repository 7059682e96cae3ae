"""Elastic runtime vocabulary: resize plans and rank-count-independent shards.

The epoch loop in :mod:`repro.faults.supervisor` rebuilds the comm world
between epochs, and that boundary is where the rank pool may grow or
shrink, with the headline invariant that a rescaled run is
bitwise-identical to a fixed-size run.  This package holds the two
pieces that invariant needs and that never touch a comm world:

- :mod:`repro.elastic.plan` — :class:`ResizeRequest`/:class:`ResizePlan`,
  the declarative "grow to N at epoch E" schedule the loop consumes.
- :mod:`repro.elastic.sharding` — rank-count-independent pair sharding
  (stable hash over pair ids, never ``i % size``).
"""

from repro.elastic.plan import ResizePlan, ResizeRequest
from repro.elastic.sharding import shard_pairs, stable_shard

__all__ = [
    "ResizePlan",
    "ResizeRequest",
    "shard_pairs",
    "stable_shard",
]
