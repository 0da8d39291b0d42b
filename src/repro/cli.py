"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the host configuration (the table-2 analogue).
``calibrate [probe]``
    Measure this host's roofline (peak GEMM + STREAM triad).
``plan SHAPE MODE J``
    Print the input-adaptive plan and the generated source for one TTM
    input, e.g. ``python -m repro plan 100x100x100 1 16``.
``profile OUT.json``
    Measure the GEMM shape benchmark on this host and save it for reuse
    (the paper's offline-autotuning artifact).
``predict SHAPE MODE J``
    Rank all candidate configurations by model-predicted throughput.
``bench NAME``
    Run one paper experiment's harness (e.g. ``fig10``); ``bench list``
    enumerates them.
``cache show | clear | warm SHAPE MODE J``
    Inspect, delete, or pre-populate the persistent autotune plan cache
    (``$REPRO_PLAN_CACHE`` or ``~/.cache/repro/plans.json``).
``explain chain SHAPE STEPS``
    Show how the chain planner orders and buffers a multi-TTM chain,
    e.g. ``python -m repro explain chain 40x40x40x40 0:8,1:8,2:8,3:8``.
``trace [WORKLOAD]``
    Run a demo workload under the :mod:`repro.obs` tracer, print the
    span tree, and optionally export Chrome-trace / JSON-lines files
    (``--chrome trace.json`` loads in ``chrome://tracing``/Perfetto).
``serve``
    Run the multi-tenant serving engine against a deterministic trace
    and print a load report (``--verify`` checks every result against
    the Algorithm-1 oracle; ``--fail-on-shed`` makes any shed or wrong
    result a non-zero exit — the CI smoke gate).
``loadgen OUT.json``
    Generate a deterministic multi-tenant request trace for ``serve
    --trace`` (the ramulator2 ``gen_trace.py`` pattern).
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.util.errors import ReproError

_BENCHES = {
    "fig04": "bench_fig04_copy_overhead",
    "fig05": "bench_fig05_gemm_shapes",
    "fig08": "bench_fig08_thresholds",
    "fig09": "bench_fig09_inttm_sweep",
    "fig10": "bench_fig10_comparison",
    "fig11": "bench_fig11_mode_variability",
    "fig12": "bench_fig12_heuristic_vs_exhaustive",
    "table1": "bench_table1_representations",
    "table2": "bench_table2_platforms",
    "intensity": "bench_intensity_model",
    "mttkrp": "bench_mttkrp",
    "tucker": "bench_tucker_e2e",
    "sparse": "bench_sparse_ttm",
    "distributed": "bench_distributed_ttm",
    "batched": "bench_batched_inttm",
    "autotune": "bench_autotune_cache",
    "chain": "bench_ttm_chain",
    "ablation-chain": "bench_ablation_chain",
    "ablation-estimator": "bench_ablation_estimator",
    "ablation-degree": "bench_ablation_degree",
    "ablation-kernels": "bench_ablation_kernels",
    "ablation-threads": "bench_ablation_threads",
    "dtype": "bench_dtype",
    "serving": "bench_serving",
    "ooc": "bench_ooc_ttm",
}


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise SystemExit(f"error: cannot parse shape {text!r}; use e.g. 100x100x100")
    if not shape or any(s < 1 for s in shape):
        raise SystemExit(f"error: invalid shape {shape}")
    return shape


def cmd_info(_args) -> int:
    from repro.perf.machine import machine_info

    for label, value in machine_info().table_rows():
        print(f"{label:24s} {value}")
    return 0


def cmd_calibrate_probe(_args) -> int:
    from repro.perf.calibrate import host_platform

    platform = host_platform()
    print(platform.name)
    print(f"peak (all cores)   {platform.peak_gflops:.1f} GFLOP/s")
    print(f"memory bandwidth   {platform.bandwidth_gbs:.1f} GB/s")
    print(f"last-level cache   {platform.llc_bytes / 2**20:.0f} MiB")
    print(f"cores / threads    {platform.cores} / {platform.threads_with_smt}")
    return 0


def cmd_plan(args) -> int:
    from repro.core import InTensLi, generate_source
    from repro.core.explain import explain_plan

    shape = _parse_shape(args.shape)
    lib = InTensLi(max_threads=args.threads)
    plan = lib.plan(shape, args.mode, args.j, args.layout)
    if args.explain:
        thresholds = lib.estimator.thresholds_for(args.j)
        print(explain_plan(plan, thresholds, lib.estimator.pth_bytes))
    else:
        print(plan.describe())
    print()
    print(generate_source(plan))
    return 0


def cmd_profile(args) -> int:
    from repro.gemm.bench import default_shape_grid, measure_profile

    grid = default_shape_grid(m_values=(args.j,))
    threads = (1,) if args.threads == 1 else (1, args.threads)
    print(
        f"measuring {len(grid) * len(threads)} GEMM shapes "
        f"(m={args.j}, threads={threads}) ..."
    )
    profile = measure_profile(grid, threads=threads)
    profile.save(args.output)
    print(f"saved {profile!r} to {args.output}")
    return 0


def cmd_predict(args) -> int:
    from repro.core import InTensLi, enumerate_plans, rank_plans

    shape = _parse_shape(args.shape)
    lib = InTensLi(max_threads=args.threads)
    plans = enumerate_plans(
        shape, args.mode, args.j, args.layout, max_threads=args.threads
    )
    chosen = lib.plan(shape, args.mode, args.j, args.layout)
    for plan, gflops in rank_plans(plans, lib.profile):
        marker = "  <- estimator" if plan == chosen else ""
        print(f"{gflops:8.2f} GFLOP/s (predicted)  {plan.describe()}{marker}")
    return 0


def cmd_verify(_args) -> int:
    """Check every TTM entry point against the equation-(1) oracle."""
    from repro.baselines import ttm_copy, ttm_ctf_like
    from repro.core import InTensLi
    from repro.core.inttm import ttm_inplace
    from repro.testing import assert_ttm_consistent

    entry_points = {
        "inttm (generated)": InTensLi().ttm,
        "ttm_inplace (default plan)": ttm_inplace,
        "ttm_copy (Algorithm 1)": ttm_copy,
        "ttm_ctf_like": ttm_ctf_like,
    }
    failures = 0
    for name, fn in entry_points.items():
        try:
            checked = assert_ttm_consistent(fn)
        except AssertionError as exc:
            print(f"FAIL  {name}: {exc}")
            failures += 1
        else:
            print(f"ok    {name}: {checked} cases")
    if failures:
        print(f"{failures} entry point(s) failed verification",
              file=sys.stderr)
        return 1
    print("all TTM entry points agree with the equation-(1) oracle")
    return 0


def cmd_cache_show(args) -> int:
    from repro.autotune import PlanCache, default_cache_path
    from repro.perf.machine import machine_fingerprint

    path = args.path or default_cache_path()
    cache = PlanCache(path=path, autosave=False)
    print(f"store        {path}")
    print(f"fingerprint  {machine_fingerprint()}")
    print(f"entries      {len(cache)}")
    if cache.stats.invalidations:
        print("status       INVALIDATED (corrupt/stale/foreign store file)")
    for key, entry in cache.items():
        timed = "-" if entry.seconds is None else f"{entry.seconds:.3g}s"
        print(
            f"  {key.encode():40s} {entry.source:9s} {timed:>9s} "
            f"trials={len(entry.trials)}"
        )
        if args.verbose:
            print(f"    {entry.plan.describe()}")
    return 0


def cmd_cache_clear(args) -> int:
    from repro.autotune import PlanStore, default_cache_path

    path = args.path or default_cache_path()
    if PlanStore(path).clear():
        print(f"removed {path}")
    else:
        print(f"no cache at {path}")
    return 0


def cmd_cache_warm(args) -> int:
    from repro.autotune import AutotuneSession, default_cache_path
    from repro.core import InTensLi

    path = args.path or default_cache_path()
    shape = _parse_shape(args.shape)
    session = AutotuneSession(
        InTensLi(max_threads=args.threads), path=path
    )
    fresh = session.warm(
        [(shape, args.mode, j, args.layout) for j in args.j]
    )
    total = len(session.cache)
    noun = "entry" if total == 1 else "entries"
    print(f"warmed {total} {noun} ({fresh} new) in {path}")
    for key, entry in session.cache.items():
        print(f"  {key.encode():40s} {entry.plan.describe()}")
    return 0


def _parse_chain_steps(text: str) -> list[tuple[int, int]]:
    """Parse a chain signature like ``0:8,1:8,2:16`` into (mode, J) pairs."""
    pairs: list[tuple[int, int]] = []
    try:
        for part in text.split(","):
            mode_text, j_text = part.split(":")
            pairs.append((int(mode_text), int(j_text)))
    except ValueError:
        raise SystemExit(
            f"error: cannot parse chain steps {text!r}; "
            "use comma-separated MODE:J pairs, e.g. 0:8,1:8,2:16"
        )
    if not pairs or any(j < 1 for _m, j in pairs):
        raise SystemExit(f"error: invalid chain steps {text!r}")
    return pairs


def cmd_explain(args) -> int:
    from repro.core import InTensLi
    from repro.core.explain import explain_chain

    shape = _parse_shape(args.shape)
    steps = _parse_chain_steps(args.steps)
    lib = InTensLi(max_threads=args.threads)
    plan = lib.plan_chain(
        shape, steps, args.layout, dtype=args.dtype, order=args.order
    )
    print(explain_chain(plan, flops_per_byte=lib.machine_balance))
    return 0


_BYTE_SUFFIXES = {
    "k": 1 << 10, "kib": 1 << 10, "kb": 1000,
    "m": 1 << 20, "mib": 1 << 20, "mb": 1000**2,
    "g": 1 << 30, "gib": 1 << 30, "gb": 1000**3,
}


def _parse_bytes(text: str) -> int:
    """Parse a byte budget like ``8MiB``, ``64k``, or ``1048576``."""
    t = text.strip().lower()
    for suffix in sorted(_BYTE_SUFFIXES, key=len, reverse=True):
        if t.endswith(suffix):
            return int(float(t[: -len(suffix)]) * _BYTE_SUFFIXES[suffix])
    return int(t)


def cmd_tile_explain(args) -> int:
    from repro.core import InTensLi
    from repro.core.tiling import explain_tiling
    from repro.resilience.memory import available_bytes
    from repro.util.errors import ResourceError

    shape = _parse_shape(args.shape)
    budget = _parse_bytes(args.budget) if args.budget else available_bytes()
    lib = InTensLi(max_threads=args.threads)
    try:
        info = explain_tiling(
            shape, args.mode, args.j, args.layout, dtype=args.dtype,
            budget=budget, planner=lib.plan,
        )
    except ResourceError as exc:
        print(f"untileable: {exc}")
        return 1
    print(f"input       {args.shape} mode={args.mode} J={args.j} "
          f"{info['layout']}/{info['dtype']}")
    print(f"budget      {info['budget']} bytes"
          + ("" if args.budget else " (probed)"))
    print(f"untiled     {info['base_footprint_bytes']} bytes "
          "(output + kernel working sets)")
    print(f"decision    {info['reason']}")
    print(f"parts       {'x'.join(str(p) for p in info['parts'])} "
          f"-> {info['n_tiles']} tile(s)")
    print(f"tile shape  {'x'.join(str(s) for s in info['max_tile_shape'])} "
          f"(~{info['tile_footprint_bytes']} bytes each, "
          f"{'packed' if info['packed'] else 'pure views'})")
    print(f"base plan   {info['base_plan']}")
    if info["n_tiles"] > 1:
        # The tile-level plan shows what the estimator chose for the tile
        # geometry — often a different degree/batching than the full tensor.
        tile_plan = lib.plan(
            tuple(info["max_tile_shape"]), args.mode, args.j, args.layout,
            dtype=args.dtype,
        )
        print(f"tile plan   {tile_plan.describe()}")
    return 0


#: Demo workloads the ``trace`` subcommand can run under the tracer.
TRACE_WORKLOADS = ("ttm", "chain")


def _run_trace_workload(args) -> None:
    import numpy as np

    from repro.core import InTensLi
    from repro.tensor.dense import DenseTensor

    rng = np.random.default_rng(0)
    shape = _parse_shape(args.shape)
    lib = InTensLi(max_threads=args.threads)
    x = DenseTensor(rng.standard_normal(shape), args.layout)
    if args.workload == "ttm":
        # Two identical calls: the first trace shows the full
        # plan -> partition path, the second a pure cache hit.
        u = rng.standard_normal((args.j, shape[args.mode]))
        lib.ttm(x, u, args.mode)
        lib.ttm(x, u, args.mode)
    else:  # chain: project every mode, fused (the Tucker access pattern)
        # Two identical calls: the first shows chain planning plus cold
        # scratch allocations, the second a chain-plan cache hit with
        # every buffer reused.
        steps = [
            (mode, rng.standard_normal((args.j, shape[mode])))
            for mode in range(len(shape))
        ]
        lib.ttm_chain(x, steps, order="auto")
        lib.ttm_chain(x, steps, order="auto")


def cmd_trace(args) -> int:
    from repro.obs import (
        Tracer,
        render_span_tree,
        tracing,
        write_chrome_trace,
        write_jsonl,
    )

    tracer = Tracer()
    with tracing(tracer):
        _run_trace_workload(args)
    spans = tracer.collector.spans()
    print(render_span_tree(spans))
    counters = tracer.counters.as_dict()
    interesting = {k: v for k, v in counters.items() if v}
    if interesting:
        print()
        print("counters:")
        for name in sorted(interesting):
            value = interesting[name]
            if isinstance(value, float):
                print(f"  {name:26s} {value:.3g}")
            else:
                print(f"  {name:26s} {value}")
    if args.chrome:
        write_chrome_trace(spans, args.chrome)
        print(f"\nwrote Chrome trace ({len(spans)} spans) to {args.chrome}")
    if args.jsonl:
        write_jsonl(spans, args.jsonl)
        print(f"wrote JSON-lines spans to {args.jsonl}")
    return 0


def _load_or_generate_trace(args):
    from repro.serve.workload import default_tenants, generate_trace, load_trace

    if getattr(args, "trace", None):
        return load_trace(args.trace)
    return generate_trace(
        default_tenants(args.tenants),
        args.requests,
        seed=args.seed,
        pattern=args.pattern,
    )


def cmd_serve(args) -> int:
    import asyncio

    from repro.obs import Tracer, tracing, write_chrome_trace
    from repro.serve import ServeConfig, TtmServer
    from repro.serve.workload import replay

    trace = _load_or_generate_trace(args)
    config = ServeConfig(
        max_inflight=max(args.concurrency * 4, 64),
        max_batch=args.max_batch,
        batch_window_s=args.window,
        default_deadline_s=args.deadline,
        watchdog_s=args.watchdog,
        max_threads=args.threads,
    )
    if args.workers is not None:
        config.workers = args.workers
    tracer = Tracer() if args.chrome else None

    async def _run():
        server = TtmServer(config=config)
        await server.start()
        try:
            return await replay(
                server,
                trace,
                concurrency=args.concurrency,
                open_loop=args.open_loop,
                verify=args.verify,
            )
        finally:
            await server.stop()

    if tracer is not None:
        with tracing(tracer):
            report = asyncio.run(_run())
    else:
        report = asyncio.run(_run())
    print(report.describe())
    if args.report:
        report.save(args.report)
        print(f"\nwrote load report to {args.report}")
    if args.chrome:
        spans = tracer.collector.spans()
        write_chrome_trace(spans, args.chrome)
        print(f"wrote Chrome trace ({len(spans)} spans) to {args.chrome}")
    if args.fail_on_shed and (report.shed["total"] or report.wrong):
        print(
            f"error: {report.shed['total']} shed, {report.wrong} wrong "
            "results with --fail-on-shed",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_loadgen(args) -> int:
    from collections import Counter

    from repro.serve.workload import default_tenants, generate_trace, save_trace

    trace = generate_trace(
        default_tenants(args.tenants),
        args.requests,
        seed=args.seed,
        pattern=args.pattern,
        rate_hz=args.rate,
    )
    save_trace(trace, args.output)
    mix = Counter(entry.tenant for entry in trace)
    span = trace[-1].issue_s - trace[0].issue_s if len(trace) > 1 else 0.0
    print(
        f"wrote {len(trace)} requests ({args.pattern}, seed {args.seed}, "
        f"{span:.3f}s span) to {args.output}"
    )
    for tenant in sorted(mix):
        print(f"  {tenant:<12} {mix[tenant]:>6} requests")
    return 0


def cmd_bench(args) -> int:
    if args.name == "list":
        for name in sorted(_BENCHES):
            print(name)
        return 0
    module_name = _BENCHES.get(args.name)
    if module_name is None:
        print(
            f"error: unknown experiment {args.name!r}; "
            f"try: {', '.join(sorted(_BENCHES))}",
            file=sys.stderr,
        )
        return 2
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if root not in sys.path:
        sys.path.insert(0, root)
    module = importlib.import_module(f"benchmarks.{module_name}")
    module.main()
    return 0


def cmd_recover_show(args) -> int:
    from repro.resilience.recovery import describe_journal

    for label, value in describe_journal(args.journal):
        print(f"{label:<18} {value}")
    return 0


def cmd_recover_resume(args) -> int:
    from repro.resilience.recovery import resume_job

    summary = resume_job(args.journal)
    kind = summary.pop("kind", "?")
    detail = ", ".join(f"{k}={v}" for k, v in summary.items())
    print(f"resumed {kind}: {detail}")
    return 0


def cmd_recover_verify(args) -> int:
    from repro.resilience.recovery import verify_journal

    report = verify_journal(args.journal, out_path=args.out)
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="INTENSLI reproduction: in-place, input-adaptive TTM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print host configuration").set_defaults(
        fn=cmd_info
    )

    calibrate = sub.add_parser(
        "calibrate", help="measure this host's roofline (probe)"
    )
    calibrate.set_defaults(fn=cmd_calibrate_probe)
    calibrate_sub = calibrate.add_subparsers(dest="calibrate_command")
    calibrate_sub.add_parser(
        "probe", help="one-off roofline probe (peak GEMM + STREAM triad)"
    ).set_defaults(fn=cmd_calibrate_probe)

    sub.add_parser(
        "verify", help="self-test every TTM entry point against the oracle"
    ).set_defaults(fn=cmd_verify)

    plan = sub.add_parser("plan", help="show the plan for one TTM input")
    plan.add_argument("shape", help="tensor shape, e.g. 100x100x100")
    plan.add_argument("mode", type=int, help="0-based product mode")
    plan.add_argument("j", type=int, help="output rank J")
    plan.add_argument("--layout", default="C", choices=["C", "F"])
    plan.add_argument("--threads", type=int, default=1)
    plan.add_argument(
        "--explain", action="store_true",
        help="print the decision rationale (strategy, degree, PTH, kernel)",
    )
    plan.set_defaults(fn=cmd_plan)

    profile = sub.add_parser("profile", help="measure + save a GEMM profile")
    profile.add_argument("output", help="output JSON path")
    profile.add_argument("--j", type=int, default=16)
    profile.add_argument("--threads", type=int, default=1)
    profile.set_defaults(fn=cmd_profile)

    predict = sub.add_parser(
        "predict", help="rank candidate plans by predicted GFLOP/s"
    )
    predict.add_argument("shape")
    predict.add_argument("mode", type=int)
    predict.add_argument("j", type=int)
    predict.add_argument("--layout", default="C", choices=["C", "F"])
    predict.add_argument("--threads", type=int, default=1)
    predict.set_defaults(fn=cmd_predict)

    trace = sub.add_parser(
        "trace", help="run a demo workload under the repro.obs tracer"
    )
    trace.add_argument(
        "workload",
        nargs="?",
        default="ttm",
        choices=TRACE_WORKLOADS,
        help="demo workload: 'ttm' (plan+execute twice, showing the "
        "cache hit) or 'chain' (fused multi-TTM chain twice, showing "
        "the chain-plan cache hit and scratch reuse)",
    )
    trace.add_argument("--shape", default="24x24x24")
    trace.add_argument("--mode", type=int, default=1)
    trace.add_argument("--j", type=int, default=8)
    trace.add_argument("--layout", default="C", choices=["C", "F"])
    trace.add_argument("--threads", type=int, default=1)
    trace.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="export a chrome://tracing / Perfetto trace_event JSON file",
    )
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="export spans as JSON-lines",
    )
    trace.set_defaults(fn=cmd_trace)

    explain = sub.add_parser(
        "explain", help="explain a planner decision"
    )
    explain_sub = explain.add_subparsers(dest="what", required=True)
    chain = explain_sub.add_parser(
        "chain", help="show a fused TTM chain's order and buffer schedule"
    )
    chain.add_argument("shape", help="tensor shape, e.g. 40x40x40x40")
    chain.add_argument(
        "steps",
        help="chain signature as comma-separated MODE:J pairs, "
        "e.g. 0:8,1:8,2:16",
    )
    chain.add_argument("--layout", default="C", choices=["C", "F"])
    chain.add_argument("--threads", type=int, default=1)
    chain.add_argument("--dtype", default="float64")
    chain.add_argument(
        "--order", default="auto",
        choices=["auto", "greedy", "optimal", "given"],
        help="ordering policy: auto (roofline DP), greedy (flop "
        "exchange rule), optimal (flop DP), given (as written)",
    )
    chain.set_defaults(fn=cmd_explain)

    tile = sub.add_parser(
        "tile", help="out-of-core tiling planner tools"
    )
    tile_sub = tile.add_subparsers(dest="what", required=True)
    tile_explain = tile_sub.add_parser(
        "explain",
        help="show how a TTM would be tiled under a memory budget",
    )
    tile_explain.add_argument("shape", help="tensor shape, e.g. 512x512x512")
    tile_explain.add_argument("mode", type=int, help="0-based product mode")
    tile_explain.add_argument("j", type=int, help="output rank J")
    tile_explain.add_argument("--layout", default="C", choices=["C", "F"])
    tile_explain.add_argument("--dtype", default="float64")
    tile_explain.add_argument("--threads", type=int, default=1)
    tile_explain.add_argument(
        "--budget", default=None, metavar="BYTES",
        help="memory budget (accepts suffixes: 64k, 8MiB, 2g); "
        "defaults to the live probe / $REPRO_MEM_LIMIT",
    )
    tile_explain.set_defaults(fn=cmd_tile_explain)

    serve = sub.add_parser(
        "serve", help="replay a request trace through the serving engine"
    )
    serve.add_argument(
        "--requests", type=int, default=2000,
        help="requests to generate when --trace is not given",
    )
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--pattern", default="random", choices=["random", "stream"]
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a trace written by 'loadgen' instead of generating one",
    )
    serve.add_argument(
        "--concurrency", type=int, default=64,
        help="closed-loop in-flight submission cap",
    )
    serve.add_argument(
        "--open-loop", action="store_true",
        help="fire requests at trace timestamps (can overload the server)",
    )
    serve.add_argument(
        "--verify", action="store_true",
        help="check every result against the Algorithm-1 oracle",
    )
    serve.add_argument(
        "--fail-on-shed", action="store_true",
        help="exit 1 on any shed or wrong result (the CI smoke gate)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request latency budget (default: none)",
    )
    serve.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="batch execution watchdog (default: none)",
    )
    serve.add_argument(
        "--window", type=float, default=0.002, metavar="SECONDS",
        help="micro-batch collection window",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--workers", type=int, default=None,
        help="serving worker threads (default: ServeConfig's, 1)",
    )
    serve.add_argument("--threads", type=int, default=1)
    serve.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the load report as JSON",
    )
    serve.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="export per-request span trees as a Chrome trace",
    )
    serve.set_defaults(fn=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="generate a deterministic multi-tenant request trace"
    )
    loadgen.add_argument("output", help="output trace JSON path")
    loadgen.add_argument("--requests", type=int, default=2000)
    loadgen.add_argument("--tenants", type=int, default=4)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--pattern", default="random", choices=["random", "stream"]
    )
    loadgen.add_argument(
        "--rate", type=float, default=2000.0, metavar="HZ",
        help="mean arrival rate encoded in the trace timestamps",
    )
    loadgen.set_defaults(fn=cmd_loadgen)

    bench = sub.add_parser("bench", help="run one paper experiment")
    bench.add_argument("name", help="experiment id (or 'list')")
    bench.set_defaults(fn=cmd_bench)

    cache = sub.add_parser(
        "cache", help="inspect or manage the autotune plan cache"
    )
    cache_sub = cache.add_subparsers(dest="action", required=True)

    show = cache_sub.add_parser("show", help="list cached plan decisions")
    show.add_argument("--path", default=None, help="store file override")
    show.add_argument(
        "--verbose", action="store_true", help="also print each full plan"
    )
    show.set_defaults(fn=cmd_cache_show)

    clear = cache_sub.add_parser("clear", help="delete the cache store file")
    clear.add_argument("--path", default=None, help="store file override")
    clear.set_defaults(fn=cmd_cache_clear)

    warm = cache_sub.add_parser(
        "warm", help="pre-plan signatures so first requests skip the estimator"
    )
    warm.add_argument("shape", help="tensor shape, e.g. 100x100x100")
    warm.add_argument("mode", type=int, help="0-based product mode")
    warm.add_argument(
        "j", type=int, nargs="+", help="output rank(s) J to warm"
    )
    warm.add_argument("--layout", default="C", choices=["C", "F"])
    warm.add_argument("--threads", type=int, default=1)
    warm.add_argument("--path", default=None, help="store file override")
    warm.set_defaults(fn=cmd_cache_warm)

    recover = sub.add_parser(
        "recover",
        help="inspect, resume, or verify a journaled out-of-core job",
    )
    recover_sub = recover.add_subparsers(dest="action", required=True)

    rshow = recover_sub.add_parser(
        "show", help="summarize a journal: kind, progress, status"
    )
    rshow.add_argument("journal", help="journal manifest path")
    rshow.set_defaults(fn=cmd_recover_show)

    rresume = recover_sub.add_parser(
        "resume",
        help="finish an interrupted job from its manifest "
        "(requires recorded input paths)",
    )
    rresume.add_argument("journal", help="journal manifest path")
    rresume.set_defaults(fn=cmd_recover_resume)

    rverify = recover_sub.add_parser(
        "verify",
        help="re-checksum the landed result against the journal's "
        "commit records (exit 1 on any mismatch)",
    )
    rverify.add_argument("journal", help="journal manifest path")
    rverify.add_argument(
        "--out", default=None,
        help="output file override (defaults to the journal's recorded "
        "out_path)",
    )
    rverify.set_defaults(fn=cmd_recover_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
