"""Plan (de)serialization: persisting offline-autotuning decisions.

The paper's framework is an *offline* autotuner: the GEMM benchmark and
the derived configuration are computed once per machine and reused.
:class:`~repro.gemm.bench.GemmProfile` already serializes; this module
adds JSON round-tripping for plans and for whole plan caches, so a
deployment can pin its tuned configurations in version control and skip
estimation at run time.

Plan-cache files carry a versioned header — ``{"schema": N,
"fingerprint": ...}`` — so readers can tell three failure modes apart:
a file written under an incompatible schema, a file autotuned on a
different machine (see :meth:`repro.perf.machine.MachineInfo
.fingerprint`), and plain corruption.  The persistent autotune store
(:mod:`repro.autotune.store`) builds on the same header helpers.
Legacy headerless files (a bare JSON list of plans) still load.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.core.plan import Strategy, TtmPlan
from repro.resilience.recovery import _publish_text
from repro.tensor.layout import Layout
from repro.util.errors import (
    FingerprintMismatchError,
    PlanError,
    SchemaMismatchError,
    StoreCorruptError,
)

#: Version of the on-disk plan/cache format.  Bump when the envelope or
#: the per-plan payload changes incompatibly; readers reject other
#: versions with :class:`SchemaMismatchError` rather than guessing.
#: Version 3 added the plan dtype (and dtype-qualified cache keys):
#: pre-dtype stores planned every signature as float64, so their entries
#: would shadow float32 plans — readers invalidate them wholesale.
#: Version 4 added an optional ``calibration`` section for a run-time
#: threshold fit (since removed; readers ignore the section), and v3
#: stores invalidate wholesale too.
SCHEMA_VERSION = 4


def plan_to_dict(plan: TtmPlan) -> dict:
    """A JSON-safe dict capturing every plan field."""
    return {
        "shape": list(plan.shape),
        "mode": plan.mode,
        "j": plan.j,
        "layout": plan.layout.name,
        "strategy": plan.strategy.value,
        "component_modes": list(plan.component_modes),
        "loop_modes": list(plan.loop_modes),
        "loop_threads": plan.loop_threads,
        "kernel_threads": plan.kernel_threads,
        "kernel": plan.kernel,
        "batch_modes": list(plan.batch_modes),
        "dtype": plan.dtype,
    }


def plan_from_dict(payload: dict) -> TtmPlan:
    """Reconstruct (and fully re-validate) a plan from its dict form."""
    try:
        return TtmPlan(
            shape=tuple(int(s) for s in payload["shape"]),
            mode=int(payload["mode"]),
            j=int(payload["j"]),
            layout=Layout[payload["layout"]],
            strategy=Strategy(payload["strategy"]),
            component_modes=tuple(int(m) for m in payload["component_modes"]),
            loop_modes=tuple(int(m) for m in payload["loop_modes"]),
            loop_threads=int(payload["loop_threads"]),
            kernel_threads=int(payload["kernel_threads"]),
            kernel=str(payload["kernel"]),
            # Absent in caches written before batched execution existed;
            # such plans simply run the per-iteration path.
            batch_modes=tuple(int(m) for m in payload.get("batch_modes", ())),
            # Absent in pre-dtype payloads (schema <= 2, all float64).
            dtype=str(payload.get("dtype", "float64")),
        )
    except KeyError as exc:
        raise PlanError(f"plan payload missing field {exc}") from exc


def cache_header(fingerprint: str | None = None) -> dict:
    """The envelope header every versioned cache file leads with."""
    return {"schema": SCHEMA_VERSION, "fingerprint": fingerprint}


def check_cache_header(
    payload: dict, expected_fingerprint: str | None = None
) -> None:
    """Validate a cache envelope's schema version and machine stamp.

    Raises :class:`StoreCorruptError` for a malformed header,
    :class:`SchemaMismatchError` for a different schema version, and
    :class:`FingerprintMismatchError` when both the file and the caller
    declare fingerprints and they disagree.  Files written without a
    fingerprint (``None``) are accepted anywhere — the portable,
    geometry-only deployment mode.
    """
    if not isinstance(payload, dict):
        raise StoreCorruptError(
            f"cache payload must be an object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if not isinstance(schema, int):
        raise StoreCorruptError(f"cache header has no integer schema: {schema!r}")
    if schema != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"cache schema {schema} != supported {SCHEMA_VERSION}"
        )
    found = payload.get("fingerprint")
    if (
        expected_fingerprint is not None
        and found is not None
        and found != expected_fingerprint
    ):
        raise FingerprintMismatchError(
            f"cache fingerprint {found!r} does not match this machine "
            f"({expected_fingerprint!r})"
        )


def plans_to_json(
    plans: Iterable[TtmPlan], fingerprint: str | None = None
) -> str:
    """Serialize a collection of plans (e.g. an InTensLi cache)."""
    payload = cache_header(fingerprint)
    payload["plans"] = [plan_to_dict(p) for p in plans]
    return json.dumps(payload, indent=2)


def plans_from_json(
    text: str, expected_fingerprint: str | None = None
) -> list[TtmPlan]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreCorruptError(f"plan cache is not valid JSON: {exc}") from exc
    if isinstance(payload, list):
        # Legacy schema-1 files: a bare list, no header, no fingerprint.
        return [plan_from_dict(p) for p in payload]
    if not isinstance(payload, dict):
        raise PlanError("plan cache JSON must be a list of plan objects")
    check_cache_header(payload, expected_fingerprint)
    plans = payload.get("plans")
    if not isinstance(plans, list):
        raise PlanError("plan cache JSON must be a list of plan objects")
    return [plan_from_dict(p) for p in plans]


def save_plans(
    plans: Iterable[TtmPlan], path: str, fingerprint: str | None = None
) -> None:
    _publish_text(path, plans_to_json(plans, fingerprint=fingerprint),
                  ".plans-")


def load_plans(
    path: str, expected_fingerprint: str | None = None
) -> list[TtmPlan]:
    with open(path) as fh:
        return plans_from_json(fh.read(), expected_fingerprint)
