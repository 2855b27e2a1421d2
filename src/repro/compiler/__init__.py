"""The compiler: optimization, register allocation, scheduling, lowering."""

from repro.compiler.callconv import insert_prologue_epilogue, lower_calls
from repro.compiler.frame import FrameLayout, InArg, LocalSlot, OutArg
from repro.compiler.lower import layout_function, lower_module
from repro.compiler.opt import OptOptions, optimize_module
from repro.compiler.pipeline import (
    CompileOptions,
    CompileOutput,
    CompileStats,
    FrontEnd,
    compile_back,
    compile_front,
    compile_module,
)
from repro.compiler.regalloc.allocator import (
    AllocationOptions,
    AllocationResult,
    allocate_function,
    apply_allocation,
)
from repro.compiler.regalloc.interference import (
    InterferenceGraph,
    build_interference,
)
from repro.compiler.regalloc.priority import priority_order, reference_weights
from repro.compiler.regalloc.rc_rewrite import (
    ConnectionAllocator,
    check_encodable,
    insert_connects,
)
from repro.compiler.sched.depgraph import DepGraph
from repro.compiler.sched.listsched import schedule_block_instrs, schedule_function

__all__ = [
    "AllocationOptions",
    "AllocationResult",
    "CompileOptions",
    "CompileOutput",
    "CompileStats",
    "DepGraph",
    "FrameLayout",
    "FrontEnd",
    "InArg",
    "InterferenceGraph",
    "LocalSlot",
    "OptOptions",
    "OutArg",
    "ConnectionAllocator",
    "allocate_function",
    "apply_allocation",
    "build_interference",
    "check_encodable",
    "compile_back",
    "compile_front",
    "compile_module",
    "insert_connects",
    "insert_prologue_epilogue",
    "layout_function",
    "lower_calls",
    "lower_module",
    "optimize_module",
    "priority_order",
    "reference_weights",
    "schedule_block_instrs",
    "schedule_function",
]
