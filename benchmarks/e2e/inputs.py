"""Seeded benchmark inputs: sizes, synthetic market, tick stores, samples.

Everything the program under test receives is derived from ``--seed``
here: the :class:`~repro.taq.synthetic.SyntheticMarket` that is ingested
into a store, the pair sample, and the serve request order.  The program
sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.corr.measures import CorrelationType
from repro.store import StoreReader, StoreWriter
from repro.strategy.params import StrategyParams, paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

from benchmarks.e2e.trace import Tracer

#: Run outputs (trace files, reports) and the temporary stores live here;
#: the directory is git-ignored.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Bar width in seconds (the paper's Δs).
DELTA_S = 30


@dataclass(frozen=True)
class Sizes:
    """Workload shapes.  ``FULL`` is what BENCHMARK.json measures."""

    #: ``narrow`` store (study_robust): symbols x full-length days.
    narrow_symbols: int
    narrow_days: int
    #: ``wide`` store (study_pearson, stream_*): symbols x days.  Pass
    #: ``k`` of a run works on day ``k % wide_days`` (and the stream
    #: workloads on pair sample ``k % wide_days``), because how much
    #: strategy work a day holds depends on the market it drew: a run
    #: that sums over several days reads the same from seed to seed.  A
    #: full-size run goes round the days twice or more, so that each day
    #: is timed by the fastest of its visits.
    wide_symbols: int
    wide_days: int
    #: Session length of every ingested day, seconds.
    trading_seconds: int
    #: Bars per day each workload consumes (a prefix of the stored day).
    robust_bars: int
    pearson_bars: int
    stream_bars: int
    #: Seeded pair sample streamed through the Figure-1 pipeline.
    stream_pairs: int
    #: stream_paced emits bar ``s`` at ``t0 + s * paced_interval_s``.
    paced_interval_s: float
    #: Canonical parameter vector the Table-I grid varies around.
    base_params: StrategyParams
    #: Table-I factor levels used (14 = the paper's full 42-set grid).
    grid_levels: int
    #: Table-I level override of the single streamed parameter set.
    stream_override: dict
    #: Oracle sample: pairs (all of them, if the universe has fewer)
    #: recomputed through ``backtest_pair_day``.
    oracle_pairs: int
    #: serve_mix: seconds between clock-scheduled session lifecycles.
    serve_lifecycle_every_s: float


FULL = Sizes(
    narrow_symbols=4,
    narrow_days=2,
    wide_symbols=24,
    wide_days=4,
    trading_seconds=23_400,
    robust_bars=780,
    pearson_bars=390,
    stream_bars=390,
    stream_pairs=100,
    # 37 % of replay capacity on a quiet machine.  At 8 ms (56 %) a slow
    # stretch of the VM saturated the ranks, the generator waited for the
    # GIL at every bar and ran more than 5 ms late on one bar in twenty.
    paced_interval_s=0.012,
    base_params=StrategyParams(),
    grid_levels=14,
    stream_override={"m": 50},
    oracle_pairs=8,
    serve_lifecycle_every_s=2.5,
)

#: ``--smoke``: the same five workloads at toy size, all checks on.
SMOKE = Sizes(
    narrow_symbols=4,
    narrow_days=2,
    wide_symbols=6,
    wide_days=2,
    trading_seconds=3_600,
    robust_bars=120,
    pearson_bars=120,
    stream_bars=120,
    stream_pairs=8,
    # A paced run is invalid once the generator is more than 5 ms late on
    # a tenth of its 120 bars.  At 4 ms a bar one 50 ms pause (a full
    # garbage collection takes 25-45 ms here) did that in 1 run of 20; at
    # 6 ms it takes 75 ms.
    paced_interval_s=0.006,
    base_params=StrategyParams(m=20, w=10, y=4, rt=10, hp=8, st=5, d=0.001),
    grid_levels=1,
    stream_override={},
    oracle_pairs=4,
    serve_lifecycle_every_s=1.0,
)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def make_market(seed: int, n_symbols: int, sizes: Sizes) -> SyntheticMarket:
    """The seeded synthetic market over the first ``n_symbols`` names."""
    return SyntheticMarket(
        default_universe(n_symbols),
        SyntheticMarketConfig(trading_seconds=sizes.trading_seconds),
        seed=seed,
    )


def time_grid(bars: int) -> TimeGrid:
    """Grid covering the first ``bars`` intervals of a day."""
    return TimeGrid(DELTA_S, trading_seconds=bars * DELTA_S)


def table1_grid(sizes: Sizes, pearson_only: bool = False) -> list[StrategyParams]:
    """The Table-I parameter grid (optionally its Pearson third)."""
    grid = paper_parameter_grid(sizes.base_params, n_levels=sizes.grid_levels)
    if pearson_only:
        grid = [p for p in grid if p.ctype == CorrelationType.PEARSON]
    return grid


def all_pairs(n_symbols: int) -> list[tuple[int, int]]:
    """Every unordered pair of the first ``n_symbols`` symbols."""
    return list(default_universe(n_symbols).pairs())


def sample_pairs(
    seed: int, n_symbols: int, k: int, draw: int = 0
) -> list[tuple[int, int]]:
    """The ``draw``-th seeded sample of ``k`` distinct pairs, sorted."""
    pairs = all_pairs(n_symbols)
    if k >= len(pairs):
        return pairs
    idx = rng_for(seed, 100 + draw).choice(len(pairs), size=k, replace=False)
    return sorted(pairs[i] for i in idx)


class TempStores:
    """Owner of the temporary store directories of one benchmark process."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._root = Path(tempfile.mkdtemp(prefix="stores-", dir=OUT_DIR))
        self._n = 0

    def fresh(self) -> Path:
        """A new empty directory for one ingest."""
        self._n += 1
        path = self._root / f"store{self._n}"
        path.mkdir()
        return path

    def close(self) -> None:
        """Remove every store this process wrote."""
        shutil.rmtree(self._root, ignore_errors=True)


@dataclass
class Ingested:
    """One ingested store plus what was learnt while writing it."""

    market: SyntheticMarket
    reader: StoreReader
    rows: int
    #: sha256 over every ingested quote byte: the input fingerprint.
    digest: str


def ingest(
    market: SyntheticMarket, n_days: int, root: Path, tracer: Tracer
) -> Ingested:
    """Generate ``n_days`` and write them to a fresh store at ``root``."""
    writer = StoreWriter(
        root, market.universe, market.config.trading_seconds
    )
    sha = hashlib.sha256()
    rows = 0
    for day in range(n_days):
        with tracer.span("taq.synthetic"):
            quotes = market.quotes(day)
        with tracer.span("store.ingest"):
            writer.write_day(day, quotes)
        sha.update(quotes.tobytes())
        rows += int(quotes.size)
    writer.finalize(source={"kind": "synthetic", "seed": market.seed})
    return Ingested(market, StoreReader(root), rows, sha.hexdigest())
