"""Content-addressed on-disk JSON store.

One :class:`Store` backs both on-disk caches of the repository: the
experiment runner's run records (keyed by the sha256 of
:meth:`repro.experiments.ExperimentRunner.cache_key`) and the serve
subsystem's job artifacts (keyed by
:func:`repro.serve.wire.job_fingerprint`).  Both keys embed the code
fingerprint, so a lookup can never return a stale entry — a source edit
simply makes old entries unreachable.

Entries live at ``root/<key[:2]>/<key>.json``.  Writes go to a tmp file
that :func:`os.replace` renames into place, so any number of processes
sharing one root may store the same key concurrently and readers always
observe either nothing or one complete document.  Keys must be lowercase
hex: any other key is a miss that touches no file, so a key taken from a
request path can never name a file outside the root.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable

__all__ = ["Store"]

log = logging.getLogger(__name__)

_HEX_KEY = re.compile(r"[0-9a-f]+")


def _object(doc: Any) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("entry root must be an object")
    return doc


class Store:
    """Sharded JSON store with atomic writes and counted traffic.

    Thread-safe: counters are guarded by a lock and the filesystem
    operations are atomic on their own.  Constructing a store touches no
    file; the root is created by the first :meth:`put`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path | None:
        if not _HEX_KEY.fullmatch(key):
            return None
        return self.root / key[:2] / f"{key}.json"

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def get(self, key: str, build: Callable[[Any], Any] = _object) -> Any:
        """``build(document)`` for the entry under *key*, or None.

        *build* checks the document's shape (the default accepts any JSON
        object).  An entry that fails to parse, or that *build* rejects
        with ``TypeError`` or ``ValueError``, is evicted so it misses
        exactly once instead of being re-parsed on every lookup.
        """
        path = self._path(key)
        if path is None:
            self._count("misses")
            return None
        try:
            with path.open() as fh:
                value = build(json.load(fh))
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, TypeError, ValueError):
            log.warning("evicting unreadable store entry %s", path)
            try:
                path.unlink()
            except OSError:
                pass
            self._count("misses")
            return None
        self._count("hits")
        return value

    def put(self, key: str, doc: Any) -> None:
        """Store the JSON document *doc* under *key*; last writer wins.

        Best-effort: a full or read-only disk degrades the caller to
        compute-always, it does not fail the caller.
        """
        path = self._path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(doc, fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._count("puts")

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "puts": self.puts}
