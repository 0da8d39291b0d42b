"""Unit tests for the ``repro.obs`` tracing subsystem."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core import InTensLi
from repro.core.inttm import ttm_inplace
from repro.obs import (
    NULL_TRACER,
    SpanCollector,
    Tracer,
    active_tracer,
    assert_spans_well_nested,
    check_spans_well_nested,
    render_span_tree,
    snapshot,
    spans_to_chrome_trace,
    spans_to_jsonl,
    tracing,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.counters import Counters
from repro.perf.profiler import active_hot_counters
from repro.tensor.dense import DenseTensor


# -- tracer mechanics ---------------------------------------------------------


def test_default_tracer_is_null_and_disabled():
    tracer = active_tracer()
    assert tracer is NULL_TRACER
    assert not tracer.enabled
    # span() is a working no-op context manager.
    with tracer.span("anything", whatever=1) as span:
        assert span is None
    assert tracer.current_span() is None
    assert tracer.snapshot() == {"spans": [], "counters": {}}


class _Tally(Counters):
    names = ("events",)


def test_counter_adds_are_exact_across_threads():
    counters = _Tally()
    threads, per_thread = 8, 500
    barrier = threading.Barrier(threads)

    def adder(i):
        barrier.wait()
        for _ in range(per_thread):
            counters.add("events", tenant=f"t{i % 3}")

    pool = [threading.Thread(target=adder, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert counters.events == threads * per_thread
    assert counters.tenants() == ["t0", "t1", "t2"]
    rows = [counters.tenant(t).events for t in counters.tenants()]
    assert rows == [3 * per_thread, 3 * per_thread, 2 * per_thread]
    assert counters.tenant("nobody").events == 0
    assert counters.tenants() == ["t0", "t1", "t2"]


def test_tracing_installs_and_restores():
    assert active_tracer() is NULL_TRACER
    with tracing() as tracer:
        assert active_tracer() is tracer
        assert tracer.enabled
        # The tracer's counters become the active hot-counter sink.
        assert active_hot_counters() is tracer.counters
        with tracing() as inner:  # blocks nest
            assert active_tracer() is inner
        assert active_tracer() is tracer
    assert active_tracer() is NULL_TRACER
    assert active_hot_counters() is None


def test_tracing_restores_on_exception():
    with pytest.raises(RuntimeError):
        with tracing():
            raise RuntimeError("boom")
    assert active_tracer() is NULL_TRACER


def test_spans_nest_and_carry_attrs():
    tracer = Tracer()
    with tracer.span("outer", a=1) as outer:
        with tracer.span("inner") as inner:
            inner.set(b=2)
            assert tracer.current_span() is inner
        assert tracer.current_span() is outer
    spans = tracer.collector.spans()
    assert [s.name for s in spans] == ["inner", "outer"]  # completion order
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None
    assert by_name["outer"].attrs == {"a": 1}
    assert by_name["inner"].attrs == {"b": 2}
    assert by_name["outer"].duration >= by_name["inner"].duration >= 0.0
    assert_spans_well_nested(spans)


def test_explicit_parent_attaches_worker_spans():
    tracer = Tracer()
    with tracer.span("dispatch") as parent:
        def worker():
            with tracer.span("work", parent=parent):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    spans = tracer.collector.spans()
    by_name = {s.name: s for s in spans}
    assert by_name["work"].parent_id == by_name["dispatch"].span_id
    assert by_name["work"].thread_id != by_name["dispatch"].thread_id
    assert_spans_well_nested(spans)


def test_collector_is_thread_safe():
    tracer = Tracer()

    def hammer():
        for _ in range(200):
            with tracer.span("s"):
                pass

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tracer.collector.spans()) == 800
    assert_spans_well_nested(tracer.collector.spans())


def test_snapshot_folds_counters_and_spans():
    with tracing() as tracer:
        x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
        u = np.random.default_rng(1).standard_normal((3, 5))
        ttm_inplace(x, u, 1)
        snap = snapshot()
    assert snap["spans"], "traced execution produced no spans"
    assert snap["counters"]["dispatches"] >= 1
    assert snap["counters"]["tuner_sweeps"] == 0  # zero names stay listed
    assert snap == tracer.snapshot()
    # Outside the block, snapshot() degrades to the counter-only view.
    outside = snapshot()
    assert outside["spans"] == []


# -- validator ---------------------------------------------------------------


def _span_dict(span_id, name, start, end, parent_id=None, thread_id=1):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "thread_id": thread_id,
        "thread_name": "t",
        "start": start,
        "end": end,
        "duration": None if end is None else end - start,
        "attrs": {},
    }


def test_validator_flags_orphans_overlaps_and_unclosed():
    problems = check_spans_well_nested(
        [
            _span_dict(1, "a", 0.0, 10.0),
            _span_dict(2, "orphan", 1.0, 2.0, parent_id=99),
            _span_dict(3, "unclosed", 1.0, None),
            _span_dict(4, "escapee", 5.0, 20.0, parent_id=1),
            _span_dict(5, "overlap", 8.0, 15.0),
        ]
    )
    text = "\n".join(problems)
    assert "orphan" in text
    assert "never closed" in text
    assert "escapes parent" in text
    assert "partially overlaps" in text
    with pytest.raises(AssertionError):
        assert_spans_well_nested([_span_dict(1, "x", 0.0, None)])


def test_validator_accepts_disjoint_siblings():
    assert (
        check_spans_well_nested(
            [
                _span_dict(1, "root", 0.0, 10.0),
                _span_dict(2, "a", 1.0, 2.0, parent_id=1),
                _span_dict(3, "b", 3.0, 4.0, parent_id=1),
            ]
        )
        == []
    )


# -- exporters ---------------------------------------------------------------


def _collect_demo_spans():
    with tracing() as tracer:
        x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
        u = np.random.default_rng(1).standard_normal((3, 5))
        InTensLi().ttm(x, u, 1)
    return tracer.collector.spans()


def test_jsonl_export_round_trips(tmp_path):
    spans = _collect_demo_spans()
    text = spans_to_jsonl(spans)
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == len(spans)
    assert {line["name"] for line in lines} >= {"ttm", "plan", "execute"}
    path = tmp_path / "spans.jsonl"
    write_jsonl(spans, str(path))
    assert path.read_text() == text
    assert spans_to_jsonl([]) == ""


def test_chrome_trace_export_is_loadable(tmp_path):
    spans = _collect_demo_spans()
    payload = spans_to_chrome_trace(spans, pid=42)
    events = payload["traceEvents"]
    assert len(events) == len(spans)
    for event in events:
        assert event["ph"] == "X"
        assert event["pid"] == 42
        assert event["ts"] >= 0 and event["dur"] >= 0
    names = {e["name"] for e in events}
    assert {"ttm", "plan", "gemm-kernel"} <= names
    # plan -> ... -> gemm-kernel ancestry is recorded via args.parent_id.
    by_id = {e["args"]["span_id"]: e for e in events}
    kernel = next(e for e in events if e["name"] == "gemm-kernel")
    seen = set()
    node = kernel
    while "parent_id" in node["args"]:
        node = by_id[node["args"]["parent_id"]]
        seen.add(node["name"])
    assert "ttm" in seen  # kernel chains up to the root call
    path = tmp_path / "trace.json"
    write_chrome_trace(spans, str(path))
    reloaded = json.loads(path.read_text())
    assert reloaded["traceEvents"]


def test_render_span_tree_indents_children():
    spans = _collect_demo_spans()
    text = render_span_tree(spans)
    lines = text.splitlines()
    assert lines[0].startswith("ttm")
    assert any(line.startswith("  plan") for line in lines)
    assert any("gemm-kernel" in line for line in lines)
    assert "mode=1" in text


# -- pipeline wiring ---------------------------------------------------------


def test_traced_facade_emits_the_documented_span_names():
    spans = _collect_demo_spans()
    names = {s.name for s in spans}
    assert {
        "ttm",
        "plan",
        "cache-lookup",
        "partition",
        "execute",
        "gemm-kernel",
    } <= names
    assert "parfor-dispatch" not in names  # P_L == 1: no parallel region
    by_id = {s.span_id: s for s in spans}
    parent = {s.name: by_id[s.parent_id].name for s in spans
              if s.parent_id is not None}
    assert parent["plan"] == parent["execute"] == "ttm"
    assert parent["gemm-kernel"] == "execute"
    assert_spans_well_nested(spans)


def test_generated_executor_also_traces_kernels():
    """A loop nest of gemm-layer calls still traces one kernel span.

    The executor's ``gemm-kernel`` span covers the whole compiled call;
    the blocked kernel sees it as current and opens none of its own.
    """
    import dataclasses

    from repro.core.inttm import default_plan

    plan = default_plan((4, 5, 6), 1, 3, "C", batched=False)
    plan = dataclasses.replace(plan, kernel="blocked")
    x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
    u = np.random.default_rng(1).standard_normal((3, 5))
    lib = InTensLi()
    with tracing() as tracer:
        y = lib.execute(plan, x, u)
    assert y.shape == plan.out_shape
    spans = tracer.collector.spans()
    names = {s.name for s in spans}
    assert {"execute", "gemm-kernel"} <= names
    kernels = [s for s in spans if s.name == "gemm-kernel"]
    assert len(kernels) == 1
    assert kernels[0].attrs["kernel"] == "blocked"
    assert kernels[0].attrs["dispatches"] == plan.loop_iterations
    assert_spans_well_nested(spans)


def test_generated_blas_collapse_traces_execute_only():
    """The matmul fast path records execute plus one fused kernel span."""
    with tracing() as tracer:
        x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
        u = np.random.default_rng(1).standard_normal((3, 5))
        InTensLi().ttm(x, u, 1)
    spans = tracer.collector.spans()
    names = {s.name for s in spans}
    assert {"ttm", "plan", "execute"} <= names
    execute = next(s for s in spans if s.name == "execute")
    assert "executor" not in execute.attrs
    assert execute.attrs["flops"] > 0
    kernels = [s for s in spans if s.name == "gemm-kernel"]
    assert len(kernels) == 1 and kernels[0].attrs["dispatches"] == 1
    assert_spans_well_nested(spans)


def test_tuner_sweep_emits_span():
    from repro.core.tuner import ExhaustiveTuner

    x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
    u = np.random.default_rng(1).standard_normal((3, 5))
    with tracing() as tracer:
        ExhaustiveTuner(min_seconds=0.0, min_repeats=1).sweep(x, u, 1)
    sweeps = [s for s in tracer.collector.spans() if s.name == "tuner-sweep"]
    assert len(sweeps) == 1
    assert sweeps[0].attrs["candidates"] >= 1
    assert "best" in sweeps[0].attrs


def test_autotune_session_refine_emits_span(tmp_path):
    from repro.autotune import AutotuneSession

    session = AutotuneSession(
        path=str(tmp_path / "plans.json"), refine=True, refine_trials=1,
        min_seconds=0.0,
    )
    x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
    u = np.random.default_rng(1).standard_normal((3, 5))
    with tracing() as tracer:
        session.ttm(x, u, 1)
    names = {s.name for s in tracer.collector.spans()}
    assert "autotune-refine" in names
    assert "cache-lookup" in names
    assert_spans_well_nested(tracer.collector.spans())


def test_parallel_loop_spans_attach_to_dispatch():
    import dataclasses

    from repro.core.inttm import default_plan

    shape = (6, 5, 4)
    plan = default_plan(shape, 2, 3, "C", degree=1, batched=False)
    plan = dataclasses.replace(plan, loop_threads=2)
    assert plan.loop_iterations > 1  # a real parallel loop nest
    x = DenseTensor(np.random.default_rng(0).standard_normal(shape))
    u = np.random.default_rng(1).standard_normal((3, 4))
    with tracing() as tracer:
        ttm_inplace(x, u, plan=plan)
    spans = tracer.collector.spans()
    assert_spans_well_nested(spans)
    by_id = {s.span_id: s for s in spans}
    # Worker bodies adopt the dispatching call's kernel span, so the
    # whole parallel call traces as one kernel with the region inside.
    kernels = [s for s in spans if s.name == "gemm-kernel"]
    assert len(kernels) == 1
    assert by_id[kernels[0].parent_id].name == "execute"
    assert kernels[0].attrs["dispatches"] == plan.loop_iterations
    dispatch = next(s for s in spans if s.name == "parfor-dispatch")
    assert dispatch.parent_id == kernels[0].span_id


def test_disabled_tracing_adds_no_spans_and_keeps_results_identical():
    x = DenseTensor(np.random.default_rng(0).standard_normal((4, 5, 6)))
    u = np.random.default_rng(1).standard_normal((3, 5))
    collector = SpanCollector()
    baseline = ttm_inplace(x, u, 1)
    with tracing(Tracer(collector=collector)):
        traced = ttm_inplace(x, u, 1)
    after = ttm_inplace(x, u, 1)  # back to the null tracer
    assert np.allclose(baseline.data, traced.data)
    assert np.allclose(baseline.data, after.data)
    count_during = len(collector)
    assert count_during > 0
    assert len(collector) == count_during  # nothing recorded after exit


# -- CLI ---------------------------------------------------------------------


def test_cli_trace_prints_tree_and_exports(tmp_path, capsys):
    from repro.cli import main

    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    rc = main(
        [
            "trace",
            "ttm",
            "--shape",
            "6x5x4",
            "--chrome",
            str(chrome),
            "--jsonl",
            str(jsonl),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ttm" in out and "gemm-kernel" in out
    assert "counters:" in out
    payload = json.loads(chrome.read_text())
    names = {e["name"] for e in payload["traceEvents"]}
    assert {"ttm", "plan", "gemm-kernel"} <= names
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert lines


def test_cli_trace_chain_workload(capsys):
    from repro.cli import main

    rc = main(["trace", "chain", "--shape", "5x4x3", "--j", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    # The chain workload runs the fused path: one plan span, one exec
    # span per run, one chain-step span per mode of the chain.
    assert "chain-plan" in out and "chain-exec" in out
    assert out.count("chain-step") == 6  # 3 steps x 2 runs
