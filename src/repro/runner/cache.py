"""Persistent on-disk result cache for simulation runs.

Layout: one JSON file per run under the cache directory (default
``.repro_cache/`` in the working directory, overridable with the
``REPRO_CACHE_DIR`` environment variable), named by the spec's content
hash::

    .repro_cache/
        a1b2c3....json    # {"spec": ..., "metrics": ..., "extra": ...}

The hash (see :func:`repro.runner.spec.spec_key`) covers the spec, the
cache format version and ``repro.core.costs.COST_MODEL_VERSION`` —
bumping the cost model orphans every stale entry, which is exactly the
invalidation rule the determinism contract needs. Orphaned files are
ignored (and removed by :meth:`ResultCache.prune`).

JSON round-trips Python floats exactly (shortest-repr), so a cached
:class:`~repro.analysis.metrics.RunMetrics` is bit-identical to the
freshly computed one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.analysis.metrics import RunMetrics
from repro.runner.spec import SPEC_FORMAT_VERSION, RunSpec, spec_key

#: Default cache directory name, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass
class PruneReport:
    """What :meth:`ResultCache.prune` removed (and kept)."""

    stale: int = 0     # entries from an old format/cost-model version
    tmp: int = 0       # orphaned *.tmp files from killed writers
    kept: int = 0      # entries still valid under the current versions
    #: Files that vanished between glob and unlink — a concurrent
    #: writer's ``os.replace`` or another pruner got there first. The
    #: race is benign (the file is gone either way) but reported so a
    #: contended cache directory is visible rather than silent.
    missing: int = 0

    @property
    def removed(self) -> int:
        return self.stale + self.tmp


#: Historical alias (the original name of the prune report).
PruneStats = PruneReport


class ResultCache:
    """File-per-run JSON cache, addressed by spec content hash."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR",
                                       DEFAULT_CACHE_DIR)
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec_key(spec)}.json"

    def get(self, spec: RunSpec) -> Optional[Tuple[RunMetrics, Dict[str, Any]]]:
        """Load ``(metrics, extra)`` for a spec, or None on a miss.

        Unreadable or malformed entries count as misses — a corrupt
        file must never poison a sweep.
        """
        path = self._path(spec)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            metrics = RunMetrics(**payload["metrics"])
            extra = payload.get("extra", {})
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return metrics, extra

    def put(self, spec: RunSpec, metrics: RunMetrics,
            extra: Optional[Dict[str, Any]] = None) -> None:
        """Store one result atomically (write-to-temp then rename)."""
        from repro.core import costs  # late: current (patchable) version

        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": SPEC_FORMAT_VERSION,
            "cost_model_version": costs.COST_MODEL_VERSION,
            "spec": {"kind": spec.kind, "params": spec.as_dict()},
            "metrics": asdict(metrics),
            "extra": extra or {},
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self._path(spec))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for p in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every cached entry (and leftover ``*.tmp`` files);
        returns the number of entries removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.directory.glob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def prune(self) -> PruneReport:
        """Remove stale entries and orphaned temp files.

        An entry is stale when its content no longer hashes to its
        filename under the *current* ``SPEC_FORMAT_VERSION`` and
        ``COST_MODEL_VERSION`` — i.e. nothing will ever look it up
        again — or when it is unreadable. ``*.tmp`` files are leftovers
        from writers killed between ``mkstemp`` and the atomic rename;
        they are always garbage.
        """
        report = PruneReport()
        if not self.directory.is_dir():
            return report
        for path in self.directory.glob("*.tmp"):
            try:
                path.unlink()
                report.tmp += 1
            except FileNotFoundError:
                report.missing += 1
            except OSError:
                pass
        for path in self.directory.glob("*.json"):
            # The glob snapshot races against concurrent writers: a
            # file may be replaced or removed between listing and the
            # stat/unlink below. Vanished files are counted, never
            # allowed to abort the prune mid-way.
            if self._is_stale(path):
                try:
                    path.unlink()
                    report.stale += 1
                except FileNotFoundError:
                    report.missing += 1
                except OSError:
                    pass
            else:
                report.kept += 1
        return report

    @staticmethod
    def _is_stale(path: Path) -> bool:
        """True when no current-version lookup can ever hit ``path``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            spec = RunSpec(payload["spec"]["kind"],
                           tuple(sorted(payload["spec"]["params"].items())))
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return True
        # spec_key embeds the format and cost-model versions, so one
        # recomputation covers both version fields and plain corruption.
        return spec_key(spec) != path.stem


__all__ = ["ResultCache", "PruneReport", "PruneStats", "DEFAULT_CACHE_DIR"]
