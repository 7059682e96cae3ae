"""The one rule that places pairs on ranks or engines.

:func:`shard_pairs` deals the *sorted* pair list round-robin.  Every
place that splits a pair list uses it — Approach 3
(``backtest/distributed.py``), the block-parallel correlation engine
(``corr/parallel.py``) and the Figure-1 workflow's ``n_corr_engines``
split (``marketminer/session.py``) — so a rank trades exactly the pairs
it correlates and no series has to move between ranks.  The contract:

- **balanced**: shard lengths differ by at most one at every size;
- **order- and type-independent**: the shards are a function of the
  *set* of pairs — the order they arrive in, and whether the ids are
  ``int`` or ``np.int64``, change nothing;
- **regroups on a resize**: a pair's shard depends on the pool size, as
  it does under any ``% size`` rule.  Results do not care, because every
  merge downstream is exact (dict-union of per-pair series, SUM
  all-reduce of disjoint zero-padded partials, ``ResultStore.merged``).

It replaced contiguous blocks (correlation stage) beside an FNV-1a hash
of the pair's ``repr`` (strategy stage).  The hash promised membership
that survives a resize and did not deliver it (``hash % size`` regroups
exactly as ``i % size`` does, and under NumPy 2 ``repr(np.int64(0))`` is
not ``repr(0)``: 44 of a 12-symbol universe's 66 pairs moved when ids
came from an array); what it delivered was imbalance, measured on the
all-pairs list of 4 / 6 / 8 / 16 / 24 / 61 symbols:

======  ==========  ================  ====================
pairs   2 shards    3 shards          4 shards
======  ==========  ================  ====================
6       4/2         1/2/3             2/2/2/0
15      9/6         6/6/3             5/4/4/2
28      16/12       9/9/10            8/8/8/4
120     64/56       41/46/33          31/30/33/26
276     144/132     94/95/87          71/68/73/64
1 830   930/900     612/611/607       462/451/468/449
======  ==========  ================  ====================

The fullest shard sets a run's wall clock — 4/2 is a third more work on
the critical path than the 3/3 that dealing the sorted list gives.  (The
SGE simulator's ``i % n_slots`` models a grid array job and is not pair
placement; ``marketminer/scheduler.py`` places components, not pairs.)
"""

from __future__ import annotations


def shard_pairs(
    pairs: list[tuple[int, int]], size: int
) -> list[list[tuple[int, int]]]:
    """Split ``pairs`` into ``size`` shards: sorted, dealt round-robin.

    Every pair lands in exactly one shard, shard ``r`` is
    ``sorted(pairs)[r::size]``, and with more shards than pairs the
    trailing shards are empty.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    ordered = sorted(pairs)
    return [ordered[r::size] for r in range(size)]
