"""Compilation and cycle-level simulation of workloads on the PIM chip."""

from .compiler import CompiledWorkload, CompilerConfig, compile_workload
from .engine import ENGINES, run_vectorized
from .ensemble import run_ensemble
from .level_cache import (
    attach_shared_store,
    clear_level_cache,
    detach_shared_store,
    level_cache_stats,
    set_level_cache_budget,
)
from .results import (
    GroupResult,
    MacroResult,
    SimulationResult,
    assemble_result,
    attach_traces,
)
from .runtime import CONTROLLERS, PIMRuntime, RuntimeConfig, simulate
from .scheduler import OperatorSchedule, SchedulePhase, schedule_operators
from .trace import (
    OperatorRtogProfile,
    profile_operator_rtog,
    profile_task_rtog,
    rtog_histogram,
)

__all__ = [
    "CompilerConfig", "CompiledWorkload", "compile_workload",
    "RuntimeConfig", "PIMRuntime", "simulate",
    "CONTROLLERS", "ENGINES",
    "run_vectorized", "run_ensemble",
    "attach_shared_store", "clear_level_cache", "detach_shared_store",
    "level_cache_stats", "set_level_cache_budget",
    "SimulationResult", "MacroResult", "GroupResult", "assemble_result",
    "attach_traces",
    "OperatorSchedule", "SchedulePhase", "schedule_operators",
    "OperatorRtogProfile", "profile_operator_rtog", "profile_task_rtog", "rtog_histogram",
]
