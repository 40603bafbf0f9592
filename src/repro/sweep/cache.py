"""Content-addressed on-disk result cache for scenario sweeps.

A cache entry is addressed by the SHA-256 of the scenario's full
identity — name, canonicalized parameters, per-scenario version, and a
global code-version salt — so re-running a sweep only executes
configurations whose identity changed.  Bumping :data:`CODE_SALT`
invalidates every entry at once (do this when a change alters results
across the board); bumping one scenario's ``version`` invalidates just
that scenario.

Entries are JSON documents written via a temp file + atomic
:func:`os.replace`, so concurrent writers (parallel sweeps sharing a
cache directory) can never expose a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

__all__ = ["CODE_SALT", "ResultCache", "atomic_write_json", "cache_key"]

#: global code-version salt folded into every cache key.  Bump whenever a
#: change to the pipeline alters scenario results across the board.
CODE_SALT = "2026.10-1"


def cache_key(
    name: str,
    params: dict[str, Any],
    *,
    version: str = "1",
    salt: str = CODE_SALT,
) -> str:
    """SHA-256 identity of one scenario configuration (hex digest).

    Stable under parameter reordering (parameters are canonicalized) and
    distinct across names, parameter values, scenario versions and code
    salts.
    """
    from repro.sweep.scenario import canonical_params

    payload = "\n".join(["repro-sweep", salt, version, name,
                         canonical_params(params)])
    return hashlib.sha256(payload.encode()).hexdigest()


def atomic_write_json(path: Path, document: Any) -> None:
    """Write ``document`` as JSON to ``path`` via temp file + rename.

    The rename is atomic on POSIX, so readers either see the old file or
    the complete new one — never a partial write.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(document, fh, separators=(",", ":"))
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on write failure
            tmp.unlink()


class ResultCache:
    """Directory of content-addressed scenario results.

    ``get``/``put`` speak full cache documents (scenario identity +
    result payload); keys come from :func:`cache_key`.  The directory is
    created lazily on first write so a read-only sweep never touches
    disk.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = Path(__file__).resolve().parents[3] / ".cache" / "sweep"
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """Filesystem path of the entry addressed by ``key``."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached document for ``key``, or ``None`` on a miss.

        Unreadable/corrupt entries count as misses (they are simply
        overwritten on the next put).
        """
        path = self.path_for(key)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, document: dict[str, Any]) -> Path:
        """Store ``document`` under ``key`` (atomically); returns its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        atomic_write_json(path, document)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
