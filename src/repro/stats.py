"""One declaration per simulator counter.

A stats dataclass field states, where it is declared, everything the
consumers of that counter need: its name in the observability
taxonomy (``repro.obs``), and how its values combine. Every consumer
reads the declaration instead of keeping its own copy:

* the obs taxonomy and its end-of-run harvest;
* :func:`repro.analysis.metrics.harvest`, the raw integers behind
  ``RunMetrics``, and :func:`~repro.analysis.metrics.mean` over trials;
* the shard coordinator's merge of per-shard harvests and mailbox
  snapshots.

A plain field (``revocations: int = 0``) is a summed counter named
``<prefix>.<field>``, where the prefix belongs to the stats source
(see :func:`repro.machine.machine.stats_sources`). :func:`metric`
declares anything else: a high-water mark folded by ``max`` (a
gauge), a renamed obs name, a different rule across shards, or no obs
name at all.

Imports only the standard library, so any module can declare its
stats with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional, Tuple

#: Fold rules.
SUM = "sum"
MAX = "max"

_KEY = "repro.stats"


@dataclass(frozen=True)
class Rule:
    """How one counter is published and combined."""

    #: Obs name within the source's prefix; None keeps the field out of
    #: the obs taxonomy.
    obs: Optional[str]
    #: Across the nodes or services of one machine, and across trials.
    fold: str = SUM
    #: Across the shards of one sharded run.
    shards: str = SUM

    @property
    def kind(self) -> str:
        """A max-folded high-water mark is a gauge; a sum a counter."""
        return "gauge" if self.fold == MAX else "counter"


def metric(obs: Optional[str] = "", *, fold: str = SUM,
           shards: Optional[str] = None, default: Any = 0,
           factory: Optional[Callable[[], Any]] = None) -> Any:
    """A dataclass field carrying its :class:`Rule`.

    ``obs=""`` names the metric after the field and ``obs=None`` leaves
    it out of the taxonomy. ``shards`` defaults to ``fold``.
    """
    rule = Rule(obs, fold, fold if shards is None else shards)
    if factory is not None:
        return field(default_factory=factory, metadata={_KEY: rule})
    return field(default=default, metadata={_KEY: rule})


@lru_cache(maxsize=None)
def rules(cls) -> Tuple[Tuple[str, Rule], ...]:
    """``(field name, rule)`` for every field of the dataclass ``cls``,
    with undeclared fields as summed counters and ``obs=""`` resolved
    to the field name."""
    out = []
    for f in fields(cls):
        rule = f.metadata.get(_KEY)
        if rule is None:
            rule = Rule(f.name)
        elif rule.obs == "":
            rule = Rule(f.name, rule.fold, rule.shards)
        out.append((f.name, rule))
    return tuple(out)


def fold(how: str, values: Iterable[Any]) -> Any:
    """Combine ``values`` by ``how``: ``max`` (0 when there are none) or
    ``sum``, which adds bucket vectors elementwise."""
    values = list(values)
    if how == MAX:
        return max(values, default=0)
    if values and isinstance(values[0], list):
        return [sum(column) for column in zip(*values)]
    return sum(values)


__all__ = ["MAX", "SUM", "Rule", "fold", "metric", "rules"]
