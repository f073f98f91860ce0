"""Run specifications: the picklable unit of parallel execution.

A :class:`RunSpec` is a pure-data description of one simulation run — a
registered *kind* (which names an executor function, see
:mod:`repro.runner.registry`) plus a flat mapping of JSON-scalar
parameters. Specs are hashable, picklable, order-insensitive in their
parameters, and serialize stably, which makes them usable both as
process-pool work items and as persistent cache keys.

Determinism contract: a spec fully determines its
:class:`~repro.analysis.metrics.RunMetrics`. Identical specs produce
bit-identical metrics whether executed serially, in a worker process,
or replayed from the on-disk cache. Anything that could perturb results
must therefore be part of the spec (or of the cost-model version baked
into :func:`spec_key`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.costs import COST_MODEL_VERSION

#: Bump when the spec/cache serialization format itself changes.
SPEC_FORMAT_VERSION = 1

_SCALARS = (type(None), bool, int, float, str)


@dataclass(frozen=True)
class RunSpec:
    """One simulation run: an executor kind plus its parameters.

    ``params`` is a tuple of sorted ``(name, value)`` pairs so the spec
    is hashable and its identity does not depend on keyword order.
    Plan a run with :func:`~repro.runner.bind_spec`, which checks the
    parameters against the kind's executor and calls :meth:`make`.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "RunSpec":
        for name, value in params.items():
            if not isinstance(value, _SCALARS):
                raise TypeError(
                    f"RunSpec parameter {name}={value!r} is not a JSON "
                    "scalar; specs must be pure data"
                )
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def __getitem__(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"


def spec_key(spec: RunSpec,
             cost_model_version: int = None) -> str:
    """Stable content hash of a spec, for cache addressing.

    The key covers the spec itself, the cache format version and the
    cost-model version: bumping ``COST_MODEL_VERSION`` in
    ``repro.core.costs`` invalidates every previously cached result.
    """
    if cost_model_version is None:
        # Late import of the *current* value so tests can monkeypatch
        # repro.core.costs.COST_MODEL_VERSION and observe invalidation.
        from repro.core import costs
        cost_model_version = costs.COST_MODEL_VERSION
    payload = json.dumps(
        {
            "format": SPEC_FORMAT_VERSION,
            "cost_model_version": cost_model_version,
            "kind": spec.kind,
            "params": list(spec.params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


__all__ = ["RunSpec", "spec_key", "SPEC_FORMAT_VERSION",
           "COST_MODEL_VERSION"]
