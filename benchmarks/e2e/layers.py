"""Traced calls into the program's layers, shared by every workload.

Each helper calls one public entry point of a layer inside a span named
after that layer, so the same code runs traced and untraced (a disabled
:class:`~trace.Tracer` makes the spans free).
"""

from __future__ import annotations

from repro.compiler import compile_module
from repro.ir import run_module
from repro.observe import PassMetrics
from repro.sim import FastSimulator, Simulator

#: Compiler pipeline stage (as ``PassMetrics`` names it) -> layer name.
#: Layer names keep to ``[A-Za-z0-9_.-]``; the connect optimizer and the
#: checker live in ``repro.analyze``.
PASS_LAYERS = {
    "optimize": "compiler.optimize",
    "profile": "compiler.profile",
    "alias": "compiler.alias",
    "schedule-pre": "compiler.schedule-pre",
    "lower-calls": "compiler.lower-calls",
    "allocate": "compiler.allocate",
    "spill+frame": "compiler.spill-frame",
    "connect-insert": "compiler.connect-insert",
    "schedule": "compiler.schedule",
    "layout": "compiler.layout",
    "connect-opt": "analyze.connect-opt",
    "check": "analyze.check",
}

#: The compile span; its self time is compile work outside the passes.
COMPILE_SPAN = "compiler.other"


def compile_traced(tracer, module, config, options=None):
    """``compile_module`` in a span, with per-pass child spans from
    ``PassMetrics`` when tracing (collection never changes the code)."""
    metrics = PassMetrics() if tracer.enabled else None
    with tracer.span(COMPILE_SPAN):
        out = compile_module(module, config, options, metrics=metrics)
        if metrics is not None:
            tracer.add_children([(PASS_LAYERS[r.name], r.seconds)
                                 for r in metrics.records])
    return out


def fast_simulator_traced(tracer, program, config):
    """Decode (``Simulator``) and code generation (``FastSimulator``) as
    two spans; the decode list is handed over as ``Simulator`` documents,
    so the fast engine does not decode again."""
    with tracer.span("sim.decode"):
        ref = Simulator(program, config)
    with tracer.span("sim.codegen"):
        return FastSimulator(program, config, decoded=ref._decoded)


def simulate_traced(tracer, program, config):
    """Decode, generate and execute on the fast engine; returns the
    result and whether the fast engine (not its fallback) ran."""
    sim = fast_simulator_traced(tracer, program, config)
    with tracer.span("sim.exec"):
        result = sim.run()
    return result, sim.ran_fastpath


def golden_checksum(tracer, module):
    """The original module's checksum from the IR interpreter."""
    with tracer.span("ir.golden"):
        result = run_module(module)
    return result.load_word(module.global_addr("checksum"))


def checksum_matches(got, golden) -> bool:
    """Compiled code reproduces the interpreter exactly, up to the FP
    reassociation rounding the optimizer is allowed (1e-9 relative)."""
    if isinstance(golden, float):
        return abs(got - golden) <= 1e-9 * max(abs(golden), 1e-30)
    return got == golden
