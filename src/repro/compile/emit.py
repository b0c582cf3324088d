"""Inline trace emission for the compiled backend.

The interpreter backend routes every observable event through the
:class:`~repro.pascal.interpreter.ExecutionHooks` protocol — one or two
Python calls per statement before any work happens. The compiled
backend inverts this: statement closures emitted by
:mod:`repro.compile.compiler` write occurrences, dependence edges and
per-cell writer maps *directly* into the :class:`TraceSession` (via
:func:`enter_stmt` and the inlined read/write recording in
:mod:`repro.compile.ops`), which inline the per-statement rules of
:class:`~repro.tracing.builder.TraceBuilder`. Activations go through
the builder's own methods (``enter_call``/``exit_call``, the loop
methods), with binding plans bound to slot accessors at compile time.

The session *is* the builder, so
:func:`repro.tracing.tracer.trace_program` drives either backend
through one code path, including degraded-trace salvage.
"""

from __future__ import annotations

from repro.pascal.errors import PascalRuntimeError, StepLimitExceeded
from repro.pascal.interpreter import (
    _RecursionHeadroom,
    ExecutionResult,
    GotoSignal,
)
from repro.tracing.builder import TraceBuilder
from repro.tracing.dynamic_deps import Occurrence
from repro.compile.runtime import _DEADLINE_MASK, Runtime


def enter_stmt(rt: "TraceSession", stmt_id: int, line: int, location) -> None:
    """Traced statement prologue: step/deadline accounting plus
    :meth:`TraceBuilder.push_occurrence`, inlined. The matching epilogue
    is ``rt.occ_stack.pop()``, which statement closures skip when
    unwinding — exactly like the interpreter's ``after_stmt`` hook, so
    goto-unwinding quirks replicate."""
    steps = rt.steps + 1
    rt.steps = steps
    if steps > rt.step_limit:
        raise StepLimitExceeded(
            f"execution exceeded {rt.step_limit} steps", location
        )
    if rt.budget is not None and not steps & _DEADLINE_MASK:
        rt.budget.check(location)
    node = rt.cur_node
    rt.last_active_node_id = node.node_id
    occ = rt.occ_count + 1
    rt.occ_count = occ
    rt.occurrences[occ] = Occurrence(occ, stmt_id, node.node_id, line)
    ost = rt.occ_stack
    # Control/nesting dependence on the enclosing occurrence.
    rt.adj.append([ost[-1]] if ost else [])
    node.occurrence_ids.append(occ)
    ost.append(occ)


class TraceSession(Runtime, TraceBuilder):
    """Runtime state for one traced compiled run, and the trace builder
    its closures feed: ``run()`` executes the program's traced closures,
    ``result(execution)`` packages the :class:`TraceResult`."""

    __slots__ = TraceBuilder.STATE

    def __init__(
        self,
        program,
        io=None,
        step_limit: int = 2_000_000,
        budget=None,
        max_tree_nodes: int | None = None,
        profiler=None,
    ):
        Runtime.__init__(self, program, io=io, step_limit=step_limit, budget=budget)
        TraceBuilder.__init__(
            self,
            program.analysis,
            program.side_effects,
            max_tree_nodes=max_tree_nodes,
            profiler=profiler,
        )

    def run(self) -> ExecutionResult:
        frame = self.globals_frame
        self.enter_main(self.program.analysis.main)
        with _RecursionHeadroom():
            try:
                self.program.traced_main(self, frame)
            except GotoSignal as signal:
                raise PascalRuntimeError(
                    f"goto {signal.label.name} escaped the program", signal.location
                )
            finally:
                self.exit_main(self.io.text)
        return ExecutionResult(io=self.io, globals_frame=frame, steps=self.steps)
