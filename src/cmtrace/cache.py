"""Content-addressed result cache for the deterministic table commands.

Keys are sha256 digests of a canonical JSON encoding of (operation,
inputs, precision, package version); bumping the version therefore
invalidates every prior entry without any bookkeeping.  Only exact,
deterministic computations are cached (traces, class numbers, exact
formula and Poincare tables) — quadrature results are not.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import warnings
from fractions import Fraction
from pathlib import Path

from . import __version__
from .reports import rational_str


def _canonical(obj):
    """JSON-safe canonical form: rationals become 'num/den' strings."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def cache_key(operation: str, inputs: dict, precision) -> str:
    blob = json.dumps(
        {"operation": operation, "inputs": _canonical(inputs),
         "precision": precision, "version": __version__},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("CMTRACE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cmtrace"


class Cache:
    """File-per-entry store; writes go through a single in-process lock
    and an atomic rename, so concurrent readers never see torn files."""

    def __init__(self, directory=None, enabled: bool = True):
        self.dir = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def get(self, key: str):
        if not self.enabled:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if (not isinstance(entry, dict) or entry.get("version") != __version__
                    or "payload" not in entry):
                raise ValueError("stale or malformed entry")
            return entry["payload"]
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            warnings.warn(f"discarding corrupt cache entry {path.name}: {exc}",
                          stacklevel=2)
            with self._lock:
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            return None

    def put(self, key: str, payload) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump({"version": __version__, "key": key,
                               "payload": _canonical(payload)}, fh)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
