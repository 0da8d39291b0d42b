"""Disk persistence for the autotune plan cache.

One store file holds every tuned decision for one machine, as JSON:

.. code-block:: json

    {
      "schema": 4,
      "fingerprint": "9f2c...",
      "entries": {
        "20x20x20|m1|J16|ROW_MAJOR|T1": {
          "plan": { ... plan_to_dict ... },
          "source": "estimator",
          "seconds": 1.2e-4,
          "trials": {"<digest>": 1.2e-4, "<digest>": 2.0e-4}
        }
      }
    }

Schema-4 stores written before the run-time calibration tier was removed
may also carry a ``calibration`` section; it is ignored on load and
dropped by the next :meth:`PlanStore.save`.

The header reuses :mod:`repro.core.serialize`'s schema-version +
machine-fingerprint envelope, so the three failure modes a persistent
cache meets in the wild are told apart and surfaced as distinct
exceptions: :class:`~repro.util.errors.StoreCorruptError` (truncated or
mangled JSON — e.g. a reader racing a non-atomic writer),
:class:`~repro.util.errors.SchemaMismatchError` (file from another
release) and :class:`~repro.util.errors.FingerprintMismatchError` (file
from another machine).  Writes go through a unique temp file that
:func:`repro.resilience.recovery.publish_file` fsyncs, renames into
place and follows with a directory fsync, so a concurrent reader only
ever sees the old or the new file — never a half-written one — and a
power loss cannot publish a torn store either.
"""

from __future__ import annotations

import json
import logging
import os
import time

from repro.core.serialize import cache_header, check_cache_header
from repro.resilience.faults import active_faults, record_degradation
from repro.resilience.recovery import _publish_text
from repro.util.errors import StoreCorruptError

log = logging.getLogger("repro.autotune")

#: Environment variable overriding the default store location.
CACHE_PATH_ENV = "REPRO_PLAN_CACHE"

#: Read attempts before a transient OSError is surfaced (NFS hiccups,
#: EINTR-ish conditions); a missing file never retries.
_RETRY_ATTEMPTS = 3

#: First backoff sleep; doubles per retry.  Module-level so tests can
#: patch it to zero.
_RETRY_BASE_SECONDS = 0.05


def default_cache_path() -> str:
    """Where the plan cache lives unless told otherwise.

    ``$REPRO_PLAN_CACHE`` wins; otherwise ``$XDG_CACHE_HOME/repro`` (or
    ``~/.cache/repro``) ``/plans.json``.
    """
    override = os.environ.get(CACHE_PATH_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return os.path.join(base, "repro", "plans.json")


class PlanStore:
    """Atomic load/save of one machine's plan-cache file.

    The store is deliberately dumb: it moves header-checked dicts
    between disk and memory and raises the typed errors above.  Policy —
    what to do when a file is bad, what the entries mean — lives in
    :class:`repro.autotune.cache.PlanCache`.  A store with no *path*
    holds nothing: it loads ``{}`` and saves and clears nothing.
    """

    def __init__(self, path: str | None, fingerprint: str | None = None) -> None:
        self.path = path
        self.fingerprint = fingerprint

    def exists(self) -> bool:
        return self.path is not None and os.path.exists(self.path)

    def load(self) -> dict:
        """The entries mapping from disk (``{}`` when no file exists).

        Raises :class:`StoreCorruptError`, :class:`SchemaMismatchError`
        or :class:`FingerprintMismatchError`; never returns a partially
        trusted payload.  Transient ``OSError`` reads (shared
        filesystems, EINTR-ish conditions) are retried with exponential
        backoff before giving up; a missing file returns ``{}`` at once.
        """
        text = self._read_with_retries()
        if text is None:
            return {}
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreCorruptError(
                f"plan store {self.path} is not valid JSON "
                f"(half-written or mangled): {exc}"
            ) from exc
        check_cache_header(payload, self.fingerprint)
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            raise StoreCorruptError(
                f"plan store {self.path} has no entries object"
            )
        for key, entry in entries.items():
            if not isinstance(entry, dict) or "plan" not in entry:
                raise StoreCorruptError(
                    f"plan store {self.path} entry {key!r} is malformed"
                )
        return entries

    def _read_with_retries(self) -> str | None:
        """The raw store text, or None for a missing file.

        A cache read failing transiently should not cost the process its
        warm cache: retry up to :data:`_RETRY_ATTEMPTS` times, doubling
        the backoff each round and counting every retry
        (``store_retries``), and only then raise
        :class:`StoreCorruptError` — which :class:`repro.autotune.cache
        .PlanCache` already converts into a cold-cache restart.
        """
        if self.path is None:
            return None
        last_exc: OSError | None = None
        for attempt in range(_RETRY_ATTEMPTS):
            try:
                faults = active_faults()
                if faults is not None:
                    faults.check("store-read-error", path=self.path)
                with open(self.path) as fh:
                    return fh.read()
            except FileNotFoundError:
                return None
            except OSError as exc:
                last_exc = exc
                if attempt + 1 < _RETRY_ATTEMPTS:
                    delay = _RETRY_BASE_SECONDS * (2 ** attempt)
                    log.warning(
                        "transient error reading plan store %s (%s); "
                        "retry %d/%d in %.2fs",
                        self.path, exc, attempt + 1,
                        _RETRY_ATTEMPTS - 1, delay,
                    )
                    record_degradation(
                        "store_retries",
                        store_retry=attempt + 1,
                        store_error=type(exc).__name__,
                    )
                    time.sleep(delay)
        raise StoreCorruptError(
            f"cannot read plan store {self.path} after "
            f"{_RETRY_ATTEMPTS} attempts: {last_exc}"
        ) from last_exc

    def save(self, entries: dict) -> None:
        """Atomically replace the store file with *entries*."""
        if self.path is None:
            return
        payload = cache_header(self.fingerprint)
        payload["entries"] = entries
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        _publish_text(self.path, json.dumps(payload, indent=2), ".plans-")

    def clear(self) -> bool:
        """Delete the store file; True when one existed."""
        if self.path is None:
            return False
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            return False
        log.info("cleared plan store %s", self.path)
        return True
