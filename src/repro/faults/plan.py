"""Seeded, deterministic fault plans for chaos testing.

A :class:`FaultPlan` is a *schedule* of faults, not a probability: every
fault names the exact message (per-sender data-plane send index), the
exact operation count (crash/stall) and the exact run *attempt* it fires
on.  Two runs of the same plan on the same workflow therefore inject the
same faults at the same points, on either MPI backend — which is what
makes the headline invariant testable at all (recovered results must be
bitwise-identical to a fault-free run, so the faults themselves must be
reproducible).

Attempt scoping is what lets the supervisor make progress: the
supervisor numbers every ``run_spmd`` invocation globally (across epochs
and restarts), and a fault fires only on its declared ``attempt``.  A
crash injected at attempt 0 therefore does not re-fire on the retry at
attempt 1.

``seeded_plan`` derives a randomised-but-reproducible plan from a seed;
``named_plan`` holds the small registry used by ``repro chaos`` and the
check.sh chaos smoke stage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Message fault kinds understood by the injector.
MESSAGE_KINDS = ("drop", "duplicate", "delay")


@dataclass(frozen=True)
class MessageFault:
    """Fault one data-plane message (tag >= 0) at a specific send.

    ``nth`` is the 0-based index among the sender rank's matching
    data-plane sends (matching = ``src``/``dst`` constraints, counted per
    fault).  ``src``/``dst`` are world ranks; ``None`` matches any rank.
    ``delay`` reorders: the message is held back and released *after*
    the sender's next data-plane send to the same destination, breaking
    FIFO so the receiver's sequence check detects it deterministically.
    """

    kind: str
    src: int | None = None
    dst: int | None = None
    nth: int = 0
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise ValueError(
                f"unknown message fault kind {self.kind!r} "
                f"(expected one of {MESSAGE_KINDS})"
            )
        if self.nth < 0:
            raise ValueError(f"nth must be >= 0, got {self.nth}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")


@dataclass(frozen=True)
class RankCrash:
    """Kill ``rank`` when its operation counter reaches ``at_op``.

    The operation counter increments on every communicator operation the
    injector sees (all sends and receives, any tag, collectives
    included), so ``at_op`` is deterministic for a deterministic
    workload regardless of backend.
    """

    rank: int
    at_op: int
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.at_op < 1:
            raise ValueError(f"at_op must be >= 1, got {self.at_op}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")


@dataclass(frozen=True)
class RankStall:
    """Freeze ``rank`` for ``seconds`` when its op counter hits ``at_op``.

    A stall past the communicator deadline surfaces as ``RecvTimeout``
    on peers (or a heartbeat termination under the process backend); a
    short stall is absorbed and must not change results.
    """

    rank: int
    at_op: int
    seconds: float
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.at_op < 1:
            raise ValueError(f"at_op must be >= 1, got {self.at_op}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, fully deterministic schedule of faults.

    ``recoverable`` declares whether a supervised session is expected to
    converge to the fault-free result under this plan — the chaos CLI
    and soak tests only assert bitwise identity for recoverable plans.
    """

    name: str
    messages: tuple[MessageFault, ...] = ()
    crashes: tuple[RankCrash, ...] = ()
    stalls: tuple[RankStall, ...] = ()
    seed: int = 0
    recoverable: bool = True

    def __post_init__(self) -> None:
        # Tolerate lists at construction time; store tuples (hashable,
        # immutable, picklable across both backends).
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stalls", tuple(self.stalls))

    @property
    def empty(self) -> bool:
        return not (self.messages or self.crashes or self.stalls)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "recoverable": self.recoverable,
            "messages": [vars(f).copy() for f in self.messages],
            "crashes": [vars(f).copy() for f in self.crashes],
            "stalls": [vars(f).copy() for f in self.stalls],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            name=data["name"],
            seed=data.get("seed", 0),
            recoverable=data.get("recoverable", True),
            messages=tuple(
                MessageFault(**f) for f in data.get("messages", ())
            ),
            crashes=tuple(RankCrash(**f) for f in data.get("crashes", ())),
            stalls=tuple(RankStall(**f) for f in data.get("stalls", ())),
        )


def seeded_plan(
    seed: int,
    size: int,
    n_message_faults: int = 2,
    n_crashes: int = 1,
    max_nth: int = 12,
    max_op: int = 60,
    name: str | None = None,
) -> FaultPlan:
    """Derive a reproducible randomised recoverable plan from ``seed``.

    Same (seed, size, knobs) always yields the same plan — handy for
    soak loops that want variety without losing reproducibility.
    """
    if size < 2:
        raise ValueError(f"seeded plans need size >= 2, got {size}")
    rng = random.Random(seed)
    messages = []
    for _ in range(n_message_faults):
        messages.append(
            MessageFault(
                kind=rng.choice(MESSAGE_KINDS),
                src=rng.randrange(size),
                dst=None,
                nth=rng.randrange(max_nth),
            )
        )
    crashes = tuple(
        RankCrash(rank=rng.randrange(size), at_op=1 + rng.randrange(max_op))
        for _ in range(n_crashes)
    )
    return FaultPlan(
        name=name if name is not None else f"seeded-{seed}",
        messages=tuple(messages),
        crashes=crashes,
        seed=seed,
    )


@dataclass(frozen=True)
class _PlanSpec:
    build: object = field(repr=False)
    doc: str = ""


def _plan_dup(size: int, stall_seconds: float) -> FaultPlan:
    # Both from rank 0: a source has a rank of its own whenever there is
    # a spare one, so rank 0 is the only rank that sends data-plane
    # envelopes at every size above 1 (at 2 ranks, rank 1 sends none).
    return FaultPlan(
        name="dup",
        messages=(
            MessageFault("duplicate", src=0, nth=3),
            MessageFault("duplicate", src=0, nth=5),
        ),
    )


def _plan_drop_dup(size: int, stall_seconds: float) -> FaultPlan:
    return FaultPlan(
        name="drop-dup",
        messages=(
            MessageFault("drop", src=0, nth=4),
            MessageFault("duplicate", src=0, nth=9),
        ),
    )


def _plan_crash_mid(size: int, stall_seconds: float) -> FaultPlan:
    # ``at_op`` counts rank 0's communicator ops.  A source has a rank of
    # its own whenever there is a spare one, so at every size above 1
    # rank 0 hosts only the collector and makes about 30 ops an epoch:
    # one quote send per interval (20 at the default checkpoint_every),
    # the EOS and the collectives.  Op 12 is therefore mid-feed in epoch
    # 0 at every size above 1.  Killing the feed rather than a consumer
    # also leaves no envelope queued for the dead rank, which on the
    # process backend would hold each sender's exit for its join timeout.
    return FaultPlan(
        name="crash-mid",
        crashes=(RankCrash(rank=0, at_op=12),),
    )


def _plan_stall(size: int, stall_seconds: float) -> FaultPlan:
    return FaultPlan(
        name="stall",
        stalls=(
            RankStall(
                rank=min(1, size - 1), at_op=25, seconds=stall_seconds
            ),
        ),
    )


def _plan_delay(size: int, stall_seconds: float) -> FaultPlan:
    return FaultPlan(
        name="delay",
        messages=(MessageFault("delay", src=0, nth=6),),
    )


_NAMED = {
    "dup": _PlanSpec(_plan_dup, "duplicate two envelopes (live dedup)"),
    "drop-dup": _PlanSpec(
        _plan_drop_dup, "drop one envelope + duplicate another (restart)"
    ),
    "crash-mid": _PlanSpec(
        _plan_crash_mid, "crash one rank mid-session (restart)"
    ),
    "stall": _PlanSpec(
        _plan_stall, "stall one rank past the recv deadline (restart)"
    ),
    "delay": _PlanSpec(
        _plan_delay, "reorder one envelope past its successor (restart)"
    ),
}

#: Names accepted by ``named_plan`` / ``repro chaos --plan``.
PLAN_NAMES = tuple(_NAMED)


def plan_descriptions() -> dict[str, str]:
    """{name: one-line description} for the named-plan registry."""
    return {name: spec.doc for name, spec in _NAMED.items()}


def named_plan(
    name: str,
    size: int = 3,
    stall_seconds: float = 2.0,
    at_op: int | None = None,
) -> FaultPlan:
    """Build a named recoverable plan sized for a ``size``-rank session.

    ``at_op`` overrides the crash/stall trigger op so the same named plan
    can target short workloads (the Approach-3 backtest performs an order
    of magnitude fewer communicator ops than a Figure-1 session).
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    try:
        spec = _NAMED[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r} (have {', '.join(PLAN_NAMES)})"
        ) from None
    plan = spec.build(size, stall_seconds)
    if at_op is not None:
        plan = FaultPlan(
            name=plan.name,
            messages=plan.messages,
            crashes=tuple(
                RankCrash(rank=c.rank, at_op=at_op, attempt=c.attempt)
                for c in plan.crashes
            ),
            stalls=tuple(
                RankStall(
                    rank=st.rank, at_op=at_op, seconds=st.seconds,
                    attempt=st.attempt,
                )
                for st in plan.stalls
            ),
            seed=plan.seed,
            recoverable=plan.recoverable,
        )
    return plan
