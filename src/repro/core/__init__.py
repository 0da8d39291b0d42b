"""The paper's contribution: input-adaptive, in-place TTM (INTENSLI).

Pipeline (figure 7): inputs (tensor geometry, layout, mode, a GEMM shape
benchmark, thread budget) feed the **parameter estimator**, which fixes
the four plan parameters — loop modes ``M_L``, component modes ``M_C``,
loop threads ``P_L``, kernel threads ``P_C`` — and the kernel choice;
the plan then runs as **generated** specialized code
(:mod:`repro.core.codegen`) through the one executor entry point,
:func:`repro.core.inttm.ttm_inplace`.

Most users want the :class:`repro.core.intensli.InTensLi` facade or the
top-level :func:`repro.ttm`.
"""

from repro.core.plan import TtmPlan, Strategy
from repro.core.partition import (
    Thresholds,
    choose_degree,
    derive_thresholds,
    kernel_working_set_bytes,
)
from repro.core.threads import ThreadAllocation, allocate_threads, DEFAULT_PTH_BYTES
from repro.core.estimator import ParameterEstimator
from repro.core.inttm import ttm_inplace
from repro.core.codegen import compile_plan, generate_source
from repro.core.tuner import ExhaustiveTuner, TunerResult, enumerate_plans
from repro.core.predict import predict_gflops, predict_seconds, rank_plans
from repro.core.serialize import (
    SCHEMA_VERSION,
    cache_header,
    check_cache_header,
    load_plans,
    plan_from_dict,
    plan_to_dict,
    plans_from_json,
    plans_to_json,
    save_plans,
)
from repro.core.chain import (
    ChainPlan,
    ChainStep,
    ScratchPool,
    chain_cost,
    chain_flops,
    chain_intermediate_bytes,
    execute_chain,
    greedy_order,
    optimal_order,
    plan_chain,
    ttm_chain,
)
from repro.core.tiling import (
    StreamChunk,
    TileSpec,
    TilingPlan,
    TilingPlanner,
    execute_tiled,
    explain_tiling,
    ttm_stream,
    ttm_stream_collect,
    ttm_tiled,
)
from repro.core.intensli import InTensLi

__all__ = [
    "TtmPlan",
    "Strategy",
    "Thresholds",
    "choose_degree",
    "derive_thresholds",
    "kernel_working_set_bytes",
    "ThreadAllocation",
    "allocate_threads",
    "DEFAULT_PTH_BYTES",
    "ParameterEstimator",
    "ttm_inplace",
    "compile_plan",
    "generate_source",
    "ExhaustiveTuner",
    "TunerResult",
    "enumerate_plans",
    "ChainPlan",
    "ChainStep",
    "ScratchPool",
    "chain_cost",
    "chain_flops",
    "chain_intermediate_bytes",
    "execute_chain",
    "greedy_order",
    "optimal_order",
    "plan_chain",
    "ttm_chain",
    "predict_gflops",
    "predict_seconds",
    "rank_plans",
    "load_plans",
    "plan_from_dict",
    "plan_to_dict",
    "plans_from_json",
    "plans_to_json",
    "save_plans",
    "SCHEMA_VERSION",
    "cache_header",
    "check_cache_header",
    "StreamChunk",
    "TileSpec",
    "TilingPlan",
    "TilingPlanner",
    "execute_tiled",
    "explain_tiling",
    "ttm_stream",
    "ttm_stream_collect",
    "ttm_tiled",
    "InTensLi",
]
