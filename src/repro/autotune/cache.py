"""The persistent plan cache: per-signature tuned decisions that survive.

Every process used to pay the parameter estimator (and the exhaustive
tuner, when asked) again for signatures the machine had already planned.
:class:`PlanCache` memoizes those decisions across processes: entries
are keyed by the full dispatch signature — tensor shape, product mode,
output rank J, storage layout, thread budget — inside a store file
stamped with this machine's fingerprint, so a key never resolves to a
decision tuned for different hardware.

Besides the chosen plan, an entry remembers *evidence*: the best
measured seconds per candidate plan digest (``trials``).  The online
refinement loop (:class:`repro.autotune.session.AutotuneSession`) feeds
these and promotes a measured winner over the estimator's guess — the
measure-and-promote pattern of cuDNN-style autotune caches.

Robustness contract: a store file that is corrupt, from another schema
version, or from another machine is *never* trusted — the cache logs
the reason, counts an invalidation (visible in :class:`repro.perf
.profiler.HotCounters` and in :attr:`PlanCache.stats`) and degrades to
an empty cache, i.e. the plain estimator path.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from repro.autotune.store import PlanStore, default_cache_path
from repro.core.plan import TtmPlan
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.obs.counters import Counters
from repro.perf.profiler import active_hot_counters
from repro.tensor.layout import Layout
from repro.util.dtypes import canonical_dtype
from repro.util.errors import CacheError, DtypeError, PlanError

log = logging.getLogger("repro.autotune")


def plan_digest(plan: TtmPlan) -> str:
    """A short content digest identifying one exact plan configuration."""
    text = json.dumps(plan_to_dict(plan), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class PlanKey(NamedTuple):
    """The dispatch signature an autotuned decision is valid for.

    The dtype is part of the signature: a float32 plan and a float64
    plan for the same geometry make different threshold (and kernel)
    decisions and must never resolve to each other.

    A key is a plain tuple: it hashes and compares equal to
    ``(shape, mode, j, layout, threads, dtype)``, so a warm path can look
    an entry up with that tuple and never build a key.
    """

    shape: tuple[int, ...]
    mode: int
    j: int
    layout: Layout
    threads: int
    dtype: str = "float64"

    @classmethod
    def make(
        cls,
        shape: Sequence[int],
        mode: int,
        j: int,
        layout: Layout | str,
        threads: int,
        dtype: str = "float64",
    ) -> "PlanKey":
        return cls(
            shape=tuple(int(s) for s in shape),
            mode=int(mode),
            j=int(j),
            layout=Layout.parse(layout),
            threads=int(threads),
            dtype=canonical_dtype(dtype).name,
        )

    def encode(self) -> str:
        """The JSON-object key form, e.g.
        ``20x20x20|m1|J16|ROW_MAJOR|T4|float64``."""
        dims = "x".join(str(s) for s in self.shape)
        return (
            f"{dims}|m{self.mode}|J{self.j}|{self.layout.name}"
            f"|T{self.threads}|{self.dtype}"
        )

    @classmethod
    def decode(cls, text: str) -> "PlanKey":
        try:
            dims, mode, j, layout, threads, dtype = text.split("|")
            return cls(
                shape=tuple(int(s) for s in dims.split("x")),
                mode=int(mode.removeprefix("m")),
                j=int(j.removeprefix("J")),
                layout=Layout[layout],
                threads=int(threads.removeprefix("T")),
                dtype=canonical_dtype(dtype).name,
            )
        except (ValueError, KeyError, DtypeError) as exc:
            raise PlanError(f"malformed plan-cache key {text!r}") from exc


@dataclass
class CacheEntry:
    """One cached decision plus the measurements backing it."""

    plan: TtmPlan
    source: str = "estimator"  # "estimator" | "tuned" | "measured"
    seconds: float | None = None  # best measured seconds of ``plan``
    trials: dict = field(default_factory=dict)  # digest -> best seconds

    def to_dict(self) -> dict:
        return {
            "plan": plan_to_dict(self.plan),
            "source": self.source,
            "seconds": self.seconds,
            "trials": dict(self.trials),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheEntry":
        return cls(
            plan=plan_from_dict(payload["plan"]),
            source=str(payload.get("source", "estimator")),
            seconds=payload.get("seconds"),
            trials={
                str(k): float(v)
                for k, v in dict(payload.get("trials", {})).items()
            },
        )


class CacheStats(Counters):
    """Lifetime tallies of one cache instance (mirrored to HotCounters).

    Lookups from the multi-tenant serving layer carry a ``tenant``
    label, so a shared cache also reports exact per-tenant rows (see
    :meth:`PlanCache.tenant_stats`).
    """

    names = ("hits", "misses", "promotions", "invalidations", "evictions")

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class PlanCache:
    """Disk-backed, fingerprint-guarded map from :class:`PlanKey` to plan.

    Every :class:`~repro.core.intensli.InTensLi` plans through one:
    :meth:`in_memory` until ``attach_plan_cache`` swaps in another.

    Parameters
    ----------
    path:
        Store file location; defaults to :func:`repro.autotune.store
        .default_cache_path` (respects ``$REPRO_PLAN_CACHE``).
    fingerprint:
        Machine stamp for the store file.  Defaults to this host's
        :func:`repro.perf.machine.machine_fingerprint`; pass an explicit
        value in tests or for portable (unstamped) caches.
    autosave:
        Persist after every mutation (entries are small; saves are
        atomic).  Turn off for bulk loads and call :meth:`save` once.
    tenant_quota:
        When set, the most entries any single tenant may have inserted
        and still resident; a tenant's insertion over quota evicts that
        tenant's oldest entry (counted in ``stats.evictions``).  Kept as
        the ``default_tenant_quota`` attribute; per tenant overrides via
        :meth:`set_tenant_quota`.

    ``stats`` (mirrored to HotCounters) counts every :meth:`get` and
    :meth:`count`; :meth:`lookup` counts nothing.

    ``generation`` goes up whenever an answer may change (a pin by a
    non-``"estimator"`` :meth:`put`/:meth:`keep`, :meth:`promote`, an
    eviction, :meth:`clear`, :meth:`reload`); the facade drops its
    cached chain plans when it moves.

    Thread safety: entry mutation happens under one reentrant lock and
    stats accounting under the registry's own, so concurrent readers
    under the multi-tenant serving layer observe exact
    hit/miss/promotion numbers.
    """

    def __init__(
        self,
        path: str | None = None,
        fingerprint: str | None = None,
        autosave: bool = True,
        store: PlanStore | None = None,
        tenant_quota: int | None = None,
    ) -> None:
        if store is None:
            if fingerprint is None:
                from repro.perf.machine import machine_fingerprint

                fingerprint = machine_fingerprint()
            store = PlanStore(path or default_cache_path(), fingerprint)
        self.store = store
        self.autosave = autosave
        self.stats = CacheStats()
        self.default_tenant_quota = tenant_quota
        self._lock = threading.RLock()
        self._entries: dict[PlanKey, CacheEntry] = {}
        self._tenant_keys: dict[str, list[PlanKey]] = {}
        self._tenant_quotas: dict[str, int] = {}
        self.generation = 0
        self.reload()

    @classmethod
    def in_memory(cls) -> "PlanCache":
        """A cache on a pathless store: no file, no fingerprint."""
        return cls(store=PlanStore(None), autosave=False)

    # -- bookkeeping ----------------------------------------------------------

    def count(self, event: str, n: int = 1, tenant: str | None = None) -> None:
        """Add *n* to ``stats`` (and *tenant*'s row) and to HotCounters."""
        self.stats.add(event, n, tenant)
        counters = active_hot_counters()
        if counters is not None:
            counters.add(f"plan_cache_{event}", n)

    # -- tenants ---------------------------------------------------------------

    def set_tenant_quota(self, tenant: str, max_entries: int | None) -> None:
        """Cap how many entries *tenant* may keep resident (None: default)."""
        with self._lock:
            if max_entries is None:
                self._tenant_quotas.pop(tenant, None)
            else:
                if max_entries < 1:
                    raise CacheError(
                        f"tenant quota must be >= 1, got {max_entries}"
                    )
                self._tenant_quotas[tenant] = int(max_entries)

    def tenant_quota(self, tenant: str) -> int | None:
        """The effective entry quota for *tenant* (None: unlimited)."""
        with self._lock:
            return self._tenant_quotas.get(tenant, self.default_tenant_quota)

    def tenant_stats(self, tenant: str) -> CacheStats:
        """Lifetime hit/miss/eviction tallies attributed to *tenant*."""
        return self.stats.tenant(tenant)

    def tenants(self) -> list[str]:
        """Every tenant that has touched the cache, sorted."""
        return self.stats.tenants()

    def tenant_entries(self, tenant: str) -> int:
        """How many resident entries *tenant* inserted (owned entries)."""
        with self._lock:
            return len(self._tenant_keys.get(tenant, []))

    @property
    def path(self) -> str | None:
        return self.store.path

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    def items(self) -> Iterator[tuple[PlanKey, CacheEntry]]:
        with self._lock:
            snapshot = sorted(
                self._entries.items(), key=lambda kv: kv[0].encode()
            )
        return iter(snapshot)

    # -- persistence ----------------------------------------------------------

    def reload(self) -> int:
        """(Re)read the store; invalid files invalidate to an empty cache."""
        fresh: dict[PlanKey, CacheEntry] = {}
        try:
            raw = self.store.load()
            for key_text, payload in raw.items():
                key = PlanKey.decode(key_text)
                fresh[key] = CacheEntry.from_dict(payload)
        except (CacheError, PlanError) as exc:
            # One bad entry poisons the file: a partially trusted cache
            # is worse than none.  Count it, log it, start estimating.
            fresh = {}
            self.count("invalidations")
            log.warning(
                "ignoring plan cache %s (%s: %s); falling back to the "
                "estimator path",
                self.store.path,
                type(exc).__name__,
                exc,
            )
        with self._lock:
            self._entries = fresh
            self._tenant_keys = {}
            self.generation += 1
            return len(self._entries)

    def save(self) -> None:
        self.store.save(
            {key.encode(): entry.to_dict() for key, entry in self.items()}
        )

    def _autosave(self) -> None:
        if self.autosave:
            self.save()

    def clear(self) -> int:
        """Drop every entry and delete the store file; returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries = {}
            self._tenant_keys = {}
            self.generation += 1
        self.store.clear()
        return dropped

    # -- the cache proper ------------------------------------------------------

    def get(self, key: PlanKey, tenant: str | None = None) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            self.count("hits" if entry is not None else "misses", tenant=tenant)
            return entry

    def lookup(
        self,
        shape: tuple[int, ...],
        mode: int,
        j: int,
        layout: Layout,
        threads: int,
        dtype: str,
    ) -> TtmPlan | None:
        """The plan under the key of these canonical fields, or None.

        The key is the plain tuple a :class:`PlanKey` of the same fields
        hashes and compares equal to, read without a lock.  Counts
        nothing: the caller counts the hit, or the miss it then
        estimates.  ``InTensLi.ttm``'s warm path makes the same read of
        ``_entries`` inline, to save this frame.
        """
        entry = self._entries.get((shape, mode, j, layout, threads, dtype))
        return None if entry is None else entry.plan

    def peek(self, key: PlanKey) -> CacheEntry | None:
        """Like :meth:`get` but without touching the hit/miss stats."""
        with self._lock:
            return self._entries.get(key)

    def put(
        self,
        key: PlanKey,
        plan: TtmPlan,
        source: str = "estimator",
        seconds: float | None = None,
        tenant: str | None = None,
    ) -> CacheEntry:
        entry = CacheEntry(plan=plan, source=source, seconds=seconds)
        if seconds is not None:
            entry.trials[plan_digest(plan)] = float(seconds)
        with self._lock:
            if tenant is not None and key not in self._entries:
                self._charge_tenant_insert(key, tenant)
            self._entries[key] = entry
            if source != "estimator":
                self.generation += 1
            self._autosave()
        return entry

    def keep(
        self,
        plan: TtmPlan,
        threads: int,
        source: str = "estimator",
        tenant: str | None = None,
    ) -> CacheEntry:
        """:meth:`put` *plan* under its own signature at *threads*."""
        key = PlanKey.make(
            plan.shape, plan.mode, plan.j, plan.layout, threads, plan.dtype
        )
        return self.put(key, plan, source, tenant=tenant)

    def _charge_tenant_insert(self, key: PlanKey, tenant: str) -> None:
        """Record *tenant* inserting *key*, evicting over quota (locked)."""
        owned = self._tenant_keys.setdefault(tenant, [])
        if key in owned:
            return
        quota = self._tenant_quotas.get(tenant, self.default_tenant_quota)
        while quota is not None and len(owned) >= quota:
            oldest = owned.pop(0)
            if self._entries.pop(oldest, None) is not None:
                self.generation += 1
                self.count("evictions", tenant=tenant)
                log.info(
                    "tenant %s over plan-cache quota (%d); evicted %s",
                    tenant,
                    quota,
                    oldest.encode(),
                )
        owned.append(key)

    def record_trial(self, key: PlanKey, plan: TtmPlan, seconds: float) -> None:
        """Fold one measurement into a key's evidence (keeps the minimum)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise CacheError(f"no cache entry for {key.encode()!r}")
            digest = plan_digest(plan)
            best = entry.trials.get(digest)
            if best is None or seconds < best:
                entry.trials[digest] = float(seconds)
            if digest == plan_digest(entry.plan):
                entry.seconds = entry.trials[digest]
            self._autosave()

    def promote(self, key: PlanKey, plan: TtmPlan, seconds: float) -> CacheEntry:
        """Install a measured winner over the current decision for *key*."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = CacheEntry(plan=plan)
            log.info(
                "promoting measured plan for %s: %.3g s (was %s, %s s)",
                key.encode(),
                seconds,
                entry.source,
                "un-timed" if entry.seconds is None else f"{entry.seconds:.3g}",
            )
            entry.plan = plan
            entry.source = "measured"
            entry.seconds = float(seconds)
            self.generation += 1
            entry.trials[plan_digest(plan)] = min(
                float(seconds),
                entry.trials.get(plan_digest(plan), float("inf")),
            )
            self.count("promotions")
            self._autosave()
        return entry
