"""Declarative health rules evaluated against the live sampler.

A rule is ``metric agg[window] cmp threshold`` — e.g.

* ``mpi.pending.depth mean[5] > 100``   (queue-depth growth)
* ``mpi.recv.retries rate[10] > 2``     (retry storm)
* ``strategy.stale_corr.age last > 30`` (stale correlations)

Rules are evaluated by the :class:`~repro.obs.live.sampler.TimeSeriesSampler`
after every tick, entirely from the sampled rings (no registry access),
and fire structured :class:`HealthEvent`\\ s on the *transition* into and
out of violation — a sustained breach produces one ``fired`` event, not
one per tick.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Aggregations a rule may apply over its window of samples.
AGGS = ("last", "mean", "max", "min", "rate", "delta")

#: Comparison operators.
CMPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class HealthRule:
    """One declarative threshold rule over a sampled series."""

    name: str
    metric: str
    agg: str = "last"
    window: float | None = None
    cmp: str = ">"
    threshold: float = 0.0

    def __post_init__(self):
        if self.agg not in AGGS:
            raise ValueError(
                f"rule {self.name!r}: unknown agg {self.agg!r} "
                f"(expected one of {', '.join(AGGS)})"
            )
        if self.cmp not in CMPS:
            raise ValueError(
                f"rule {self.name!r}: unknown cmp {self.cmp!r} "
                f"(expected one of {', '.join(CMPS)})"
            )

    @classmethod
    def parse(cls, text: str, name: str | None = None) -> "HealthRule":
        """Parse ``"metric agg[window] cmp threshold"``.

        The window suffix is optional (``mean`` = mean over the whole
        ring); ``agg`` defaults to ``last`` when only three fields are
        given (``"metric > 5"``).
        """
        parts = text.split()
        if len(parts) == 3:
            metric, cmp, threshold = parts
            agg, window = "last", None
        elif len(parts) == 4:
            metric, agg_part, cmp, threshold = parts
            if "[" in agg_part:
                if not agg_part.endswith("]"):
                    raise ValueError(f"bad health rule {text!r}: unclosed '['")
                agg, win_text = agg_part[:-1].split("[", 1)
                window = float(win_text)
            else:
                agg, window = agg_part, None
        else:
            raise ValueError(
                f"bad health rule {text!r}: expected "
                f"'metric [agg[window]] cmp threshold'"
            )
        return cls(
            name=name or metric,
            metric=metric,
            agg=agg,
            window=window,
            cmp=cmp,
            threshold=float(threshold),
        )

    def describe(self) -> str:
        win = f"[{self.window:g}]" if self.window is not None else ""
        return f"{self.metric} {self.agg}{win} {self.cmp} {self.threshold:g}"

    # -- evaluation ---------------------------------------------------------

    def value(self, sampler) -> float:
        """The rule's aggregated observation from the sampler rings."""
        if self.agg == "rate":
            return sampler.rate(self.metric, self.window)
        if self.agg == "delta":
            return sampler.delta(self.metric, self.window)
        t, v = sampler._windowed(self.metric, self.window)
        if v.size == 0:
            return float("nan")
        if self.agg == "last":
            return float(v[-1])
        if self.agg == "mean":
            return float(v.mean())
        if self.agg == "max":
            return float(v.max())
        return float(v.min())

    def breached(self, value: float) -> bool:
        if value != value:  # NaN: no data yet, never a breach
            return False
        if self.cmp == ">":
            return value > self.threshold
        if self.cmp == ">=":
            return value >= self.threshold
        if self.cmp == "<":
            return value < self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class HealthEvent:
    """A rule transitioning into (``fired``) or out of violation."""

    rule: str
    metric: str
    fired: bool
    value: float
    threshold: float
    t: float
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "fired": self.fired,
            "value": self.value,
            "threshold": self.threshold,
            "t": self.t,
            "description": self.description,
        }


class HealthMonitor:
    """Evaluates a rule set on each sampler tick, edge-triggered.

    Tracks which rules are currently in violation and emits a
    :class:`HealthEvent` only on state transitions, so the event stream
    stays small no matter how long a breach lasts.
    """

    __slots__ = ("rules", "active")

    def __init__(self, rules=()):
        self.rules: list[HealthRule] = []
        self.active: set[str] = set()
        for rule in rules:
            self.add(rule)

    def add(self, rule: "HealthRule | str", name: str | None = None) -> None:
        if isinstance(rule, str):
            rule = HealthRule.parse(rule, name=name)
        # Add-once rule configuration, not per-tick telemetry.
        self.rules.append(rule)

    def evaluate(self, sampler, now: float) -> list[HealthEvent]:
        """Check every rule against the sampler; return transition events."""
        events: list[HealthEvent] = []
        for rule in self.rules:
            value = rule.value(sampler)
            breached = rule.breached(value)
            was_active = rule.name in self.active
            if breached and not was_active:
                self.active.add(rule.name)
            elif not breached and was_active:
                self.active.discard(rule.name)
            else:
                continue
            events.append(
                HealthEvent(
                    rule=rule.name,
                    metric=rule.metric,
                    fired=breached,
                    value=value,
                    threshold=rule.threshold,
                    t=now,
                    description=rule.describe(),
                )
            )
        return events
