"""Tracing phase (paper §5.2): execution trees and dynamic dependences.

One :class:`~repro.tracing.builder.TraceBuilder`, fed by either
execution engine (the interpreter's hooks through
:class:`~repro.tracing.tracer.Tracer`, or the compiled backend's
closures), produces

* an :class:`~repro.tracing.execution_tree.ExecutionTree` whose nodes are
  unit activations (procedure/function calls, loop units, and loop
  iterations) annotated with input and output values, and
* a :class:`~repro.tracing.dynamic_deps.DynamicDependenceGraph` over
  statement occurrences, the raw material for interprocedural dynamic
  slicing (paper §7).
"""

from repro.tracing.execution_tree import Binding, ExecutionTree, ExecNode, NodeKind
from repro.tracing.dynamic_deps import DynamicDependenceGraph, Occurrence
from repro.tracing.tracer import TraceResult, Tracer, trace_program, trace_source

__all__ = [
    "Binding",
    "DynamicDependenceGraph",
    "ExecNode",
    "ExecutionTree",
    "NodeKind",
    "Occurrence",
    "TraceResult",
    "Tracer",
    "trace_program",
    "trace_source",
]
