"""The executor registry: spec kinds → runnable entry points.

Executors are referenced by dotted path (``"module:function"``) rather
than by object so that a :class:`~repro.runner.spec.RunSpec` stays pure
data: a worker process resolves the kind locally with a lazy import,
which sidesteps both pickling of callables and import cycles (the
experiment modules import the runner, not vice versa).

An executor is a callable ``fn(**params) -> (RunMetrics, extra)`` where
``extra`` is a JSON-serializable dict of kind-specific scalars (e.g.
the ablations' auxiliary counters). It must be deterministic in its
parameters.

The executor's signature is the kind's schema: :func:`bind_spec` binds a
run's parameters against it, so each parameter name and default is
written once, in the executor.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable, Dict, Tuple

from repro.analysis.metrics import RunMetrics
from repro.runner.spec import RunSpec

Executor = Callable[..., Tuple[RunMetrics, Dict[str, Any]]]

#: kind -> "module:function". Extend here when adding a new run kind.
EXECUTORS: Dict[str, str] = {
    "multiprog": "repro.experiments.multiprog:execute_multiprog",
    "synth": "repro.experiments.synth_sweeps:execute_synth",
    "standalone": "repro.experiments.standalone:execute_standalone",
    "ablate_two_case": "repro.experiments.ablations:execute_two_case",
    "ablate_timeout": "repro.experiments.ablations:execute_timeout",
    "ablate_queue_depth":
        "repro.experiments.ablations:execute_queue_depth",
    "ablate_architecture":
        "repro.experiments.ablations:execute_architecture",
    "ablate_bulk": "repro.experiments.ablations:execute_bulk",
    "ablate_delivery": "repro.experiments.ablations:execute_delivery",
    "faulted": "repro.faults.runner:execute_faulted",
    "mailbox": "repro.experiments.mailbox_sweeps:run_mailbox",
    "fast_path": "repro.experiments.micro:execute_fast_path",
    "buffered_path": "repro.experiments.micro:execute_buffered_path",
}

_resolved: Dict[str, Executor] = {}


class UnknownRunKind(ValueError):
    """A spec named a kind with no registered executor."""


def resolve(kind: str) -> Executor:
    """Import and memoize the executor for ``kind``."""
    fn = _resolved.get(kind)
    if fn is None:
        try:
            target = EXECUTORS[kind]
        except KeyError:
            raise UnknownRunKind(
                f"no executor registered for run kind {kind!r}; "
                f"known kinds: {sorted(EXECUTORS)}"
            ) from None
        module_name, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(module_name), attr)
        _resolved[kind] = fn
    return fn


def bind_spec(kind: str, **params: Any) -> RunSpec:
    """The :class:`RunSpec` of one ``kind`` run with ``params``.

    The parameters are bound against the executor's signature, so an
    unknown or missing name raises :class:`TypeError` here, at plan
    time, rather than in a worker. A positional-or-keyword parameter
    always joins the spec, its default filled in. A keyword-only one
    (after the executor's ``*``) joins only when it differs from its
    default, so a parameter added later leaves the keys of the runs
    planned before it unchanged.
    """
    signature = inspect.signature(resolve(kind))
    unknown = sorted(params.keys() - signature.parameters.keys())
    if unknown:
        raise TypeError(f"{kind} run has no parameter {unknown}; its "
                        f"parameters are {list(signature.parameters)}")
    try:
        bound = signature.bind(**params)
    except TypeError as exc:
        raise TypeError(f"{kind} run: {exc}") from None
    bound.apply_defaults()
    keyword_only = inspect.Parameter.KEYWORD_ONLY
    return RunSpec.make(kind, **{
        name: value for name, value in bound.arguments.items()
        if signature.parameters[name].kind is not keyword_only
        or value != signature.parameters[name].default})


def execute_spec(spec: RunSpec) -> Tuple[RunMetrics, Dict[str, Any]]:
    """Run one spec in-process and return ``(metrics, extra)``."""
    return resolve(spec.kind)(**spec.as_dict())


__all__ = ["EXECUTORS", "bind_spec", "execute_spec", "resolve",
           "UnknownRunKind"]
