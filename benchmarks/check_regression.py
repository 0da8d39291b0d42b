"""Compare exported benchmark series against a committed baseline.

The quick benches export their printed tables as JSON via
``REPRO_BENCH_JSON=<dir>`` (see :func:`benchmarks.common.print_series`).
This checker compares a fresh export against ``benchmarks/baselines/``
and fails when a tracked metric regressed by more than the allowed
fraction (default: 30%).

Only *ratio* metrics (the ``speedup`` columns) are compared by default:
they pit two code paths against each other on the same host, so they
transfer across machines, while raw GFLOP/s or microsecond columns do
not.  The exception is the serving series (``ABSOLUTE_GATES``), whose
p99 latency and sustained GFLOP/s are the service-level objective
itself — those gate absolutely, in the direction that matters (latency
may not rise, throughput may not fall, beyond the tolerance).  A third
kind, ``HARD_CEILINGS``, gates against a fixed budget rather than the
baseline — the crash-journal overhead column must stay under its
ceiling no matter how cheap the baseline host measured it.  Other
absolute columns are reported for context but never gate.
``ABSOLUTE_GATES`` also holds the estimator's regret (``fig12_regret``),
a same-host ratio that may not rise.

Usage::

    REPRO_BENCH_JSON=results python benchmarks/bench_batched_inttm.py --quick
    REPRO_BENCH_JSON=results python benchmarks/bench_autotune_cache.py --quick
    python benchmarks/check_regression.py benchmarks/baselines results

Stdlib-only by design: the CI job that runs it installs nothing beyond
the test dependencies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Headers whose columns gate the check.  Values are higher-is-better
#: ratios ("12.8x"); a drop below ``baseline * (1 - tolerance)`` fails.
RATIO_HEADERS = ("speedup",)

#: Per-series absolute gates: exact header -> "higher" (may not fall
#: below ``baseline * (1 - tolerance)``) or "lower" (may not rise above
#: ``baseline * (1 + tolerance)``).  Reserved for series whose absolute
#: numbers *are* the contract — the serving SLO columns.
ABSOLUTE_GATES: dict[str, dict[str, str]] = {
    "serving_quick": {"p99 (ms)": "lower", "GF/s": "higher"},
    # Estimator regret: geometric-mean best / predicted rate over the
    # fig12 sizes, both priced from one exhaustive sweep, may not rise.
    # Like the speedups it is a same-host ratio, so it transfers.
    "fig12_regret": {"regret": "lower"},
}

#: Per-series fixed ceilings: exact header -> maximum allowed value,
#: regardless of what the baseline measured.  Unlike the relative gates
#: these encode an engineering budget, not drift detection: the journal
#: overhead column, for example, must stay under 5% on *any* host, even
#: one whose baseline happened to measure 0.5%.  Every row in the
#: current run is held to the ceiling.
HARD_CEILINGS: dict[str, dict[str, float]] = {
    "ooc_journal_quick": {"journal ovh %": 5.0},
}


def parse_metric(text: str) -> float | None:
    """Parse a table cell like ``"12.8x"``/``"33.2"``; None if not numeric."""
    cleaned = text.strip().rstrip("x%")
    try:
        return float(cleaned)
    except ValueError:
        return None


def load_series(path: str) -> dict[str, dict]:
    """Map series name -> {"headers": [...], "rows": [[...], ...]}."""
    series = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict) and "headers" in payload and "rows" in payload:
            series[name[: -len(".json")]] = payload
    return series


def row_keys(rows: list[list[str]]) -> list[tuple[str, int]]:
    """Stable row identity: first cell plus occurrence index."""
    seen: dict[str, int] = {}
    keys = []
    for row in rows:
        label = row[0] if row else ""
        n = seen.get(label, 0)
        seen[label] = n + 1
        keys.append((label, n))
    return keys


def compare_series(
    name: str, baseline: dict, current: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Return (report lines, failure lines) for one series."""
    report: list[str] = []
    failures: list[str] = []
    headers = baseline["headers"]
    if current["headers"] != headers:
        failures.append(
            f"{name}: header mismatch (baseline {headers!r} vs "
            f"current {current['headers']!r}); regenerate the baseline"
        )
        return report, failures
    absolute = ABSOLUTE_GATES.get(name, {})
    gated: dict[int, str] = {
        i: "higher"
        for i, h in enumerate(headers)
        if any(tag in h.lower() for tag in RATIO_HEADERS)
    }
    for i, h in enumerate(headers):
        if h in absolute:
            gated[i] = absolute[h]
    hard = HARD_CEILINGS.get(name, {})
    hard_cols = {i: hard[h] for i, h in enumerate(headers) if h in hard}
    if not gated and not hard_cols:
        report.append(f"{name}: no gated columns; informational only")
        return report, failures
    current_rows = dict(zip(row_keys(current["rows"]), current["rows"]))
    for key, base_row in zip(row_keys(baseline["rows"]), baseline["rows"]):
        cur_row = current_rows.get(key)
        if cur_row is None:
            failures.append(f"{name}: row {key[0]!r} missing from current run")
            continue
        for i, direction in sorted(gated.items()):
            base_val = parse_metric(base_row[i])
            cur_val = parse_metric(cur_row[i])
            if base_val is None or cur_val is None:
                failures.append(
                    f"{name}: {key[0]} {headers[i]}: non-numeric cell "
                    f"({base_row[i]!r} vs {cur_row[i]!r})"
                )
                continue
            if direction == "lower":
                bound = base_val * (1.0 + tolerance)
                ok = cur_val <= bound
                bound_name = "ceiling"
            else:
                bound = base_val * (1.0 - tolerance)
                ok = cur_val >= bound
                bound_name = "floor"
            verdict = "ok" if ok else "REGRESSED"
            report.append(
                f"{name}: {key[0]:16s} {headers[i]:12s} "
                f"baseline {base_val:8.2f}  current {cur_val:8.2f}  "
                f"{bound_name} {bound:8.2f}  {verdict}"
            )
            if not ok:
                moved = "fell" if direction == "higher" else "rose"
                failures.append(
                    f"{name}: {key[0]} {headers[i]} {moved} to {cur_val:.2f} "
                    f"(baseline {base_val:.2f}, allowed {bound_name} "
                    f"{bound:.2f})"
                )
    for key, cur_row in current_rows.items():
        for i, ceiling in sorted(hard_cols.items()):
            cur_val = parse_metric(cur_row[i])
            if cur_val is None:
                failures.append(
                    f"{name}: {key[0]} {headers[i]}: non-numeric cell "
                    f"({cur_row[i]!r}) under a hard ceiling"
                )
                continue
            ok = cur_val <= ceiling
            verdict = "ok" if ok else "REGRESSED"
            report.append(
                f"{name}: {key[0]:16s} {headers[i]:12s} "
                f"hard ceiling {ceiling:8.2f}  current {cur_val:8.2f}  "
                f"{verdict}"
            )
            if not ok:
                failures.append(
                    f"{name}: {key[0]} {headers[i]} at {cur_val:.2f} "
                    f"exceeds the fixed ceiling {ceiling:.2f}"
                )
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="directory of committed baseline JSON")
    parser.add_argument("current", help="directory of freshly exported JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop before failing (default 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = load_series(args.baseline)
    current = load_series(args.current)
    if not baseline:
        print(f"error: no baseline series in {args.baseline}", file=sys.stderr)
        return 2
    all_failures: list[str] = []
    for name, base in sorted(baseline.items()):
        if name not in current:
            all_failures.append(f"{name}: series missing from current run")
            continue
        report, failures = compare_series(name, base, current[name], args.tolerance)
        for line in report:
            print(line)
        all_failures.extend(failures)
    for name in sorted(set(current) - set(baseline)):
        print(f"{name}: new series (no baseline yet); informational only")
    if all_failures:
        print(f"\n{len(all_failures)} regression check(s) failed:", file=sys.stderr)
        for line in all_failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nall regression checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
