"""On-disk result cache for sweep scenarios.

Results are stored one JSON file per scenario under
``<root>/<bundle_hash>/<scenario_hash>.json`` where both hashes are content
hashes (see ``hashing.py``).  Repeated sweeps over the same trace therefore
only evaluate scenarios that were added or changed — and a fully cached
sweep skips trace replay and perf-model calibration entirely.

The cache is tolerant by construction: a missing, corrupted or
schema-mismatched entry is simply a miss, never an error.

Writes are atomic — :meth:`SweepCache.store` writes to a dot-prefixed
temporary file in the entry's bucket and renames it into place with
``os.replace`` — so concurrent writers (sweep pool workers, service workers, multiple
server processes sharing one cache root) can never leave a torn entry
behind, and readers only ever see complete payloads.

A long-lived shared cache is operable through :meth:`disk_stats` and
:meth:`prune` (oldest-first eviction down to a byte budget), surfaced by
the ``repro-lumos cache`` CLI subcommand.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

_CACHE_SCHEMA = 1


@dataclass
class CacheStats:
    """Hit/miss counters for one sweep run."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class SweepCache:
    """Content-addressed store of evaluated scenario results."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _entry_path(self, bundle_hash: str, scenario_hash: str) -> Path:
        return self.root / bundle_hash[:32] / f"{scenario_hash[:32]}.json"

    def lookup(self, bundle_hash: str, scenario_hash: str) -> dict[str, Any] | None:
        """Return the cached result payload, or None on any kind of miss."""
        path = self._entry_path(bundle_hash, scenario_hash)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("schema") != _CACHE_SCHEMA:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload.get("result")

    def store(self, bundle_hash: str, scenario_hash: str, result: dict[str, Any]) -> None:
        """Persist one evaluated scenario result (atomic, concurrency-safe).

        The payload is written to a dot-prefixed temporary file in the
        entry's bucket (invisible to ``entries()``'s ``*/*.json`` glob)
        and renamed into place with ``os.replace``, so a reader or a
        concurrent writer can never observe a torn entry.
        """
        path = self._entry_path(bundle_hash, scenario_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": _CACHE_SCHEMA, "result": result}
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def entries(self) -> int:
        """Number of cached scenario results on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def disk_stats(self) -> dict[str, Any]:
        """Sizes of what is on disk: entry/bundle counts and total bytes."""
        entry_count = 0
        total_bytes = 0
        bundles: set[str] = set()
        if self.root.is_dir():
            for entry in self.root.glob("*/*.json"):
                try:
                    size = entry.stat().st_size
                except OSError:  # deleted underneath us — it no longer counts
                    continue
                entry_count += 1
                total_bytes += size
                bundles.add(entry.parent.name)
        return {
            "root": str(self.root),
            "entries": entry_count,
            "bundles": len(bundles),
            "total_bytes": total_bytes,
        }

    def prune(self, max_size_bytes: int) -> dict[str, Any]:
        """Evict oldest entries (by mtime) until the cache fits the budget.

        Tolerates concurrent deletion races (an entry vanishing between
        listing and unlinking counts as evicted: removed, its bytes freed)
        and removes bucket directories left empty.  Returns a summary dict
        with ``removed`` / ``freed_bytes`` / ``remaining_entries`` /
        ``remaining_bytes``.
        """
        listed: list[tuple[float, int, Path]] = []
        if self.root.is_dir():
            for entry in self.root.glob("*/*.json"):
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                listed.append((stat.st_mtime, stat.st_size, entry))
        listed.sort(key=lambda item: (item[0], str(item[2])))
        total = sum(size for _, size, _ in listed)
        removed = 0
        freed = 0
        for _, size, entry in listed:
            if total - freed <= max_size_bytes:
                break
            try:
                entry.unlink()
            except FileNotFoundError:
                pass  # deleted concurrently: already evicted
            except OSError:
                continue
            removed += 1
            freed += size
        if self.root.is_dir():
            for bucket in self.root.iterdir():
                if bucket.is_dir():
                    with contextlib.suppress(OSError):
                        if not any(bucket.iterdir()):
                            bucket.rmdir()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_entries": len(listed) - removed,
            "remaining_bytes": total - freed,
        }

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob("*/*.json"):
            entry.unlink(missing_ok=True)
            removed += 1
        for bucket in self.root.iterdir():
            if bucket.is_dir() and not any(bucket.iterdir()):
                bucket.rmdir()
        return removed
