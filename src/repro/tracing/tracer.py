"""The tracer: the interpreter's adapter to the trace builder (paper §5.2).

:class:`Tracer` is an :class:`~repro.pascal.interpreter.ExecutionHooks`
implementation that forwards every hook event to the shared
:class:`~repro.tracing.builder.TraceBuilder`; the rules for the
execution tree and the dynamic dependences live there, shared with the
compiled backend. :func:`trace_program` drives either engine through
one path and yields a :class:`TraceResult` bundling the execution tree,
the dynamic dependence graph, and the analyses the debugging phase
needs.

Loop units: when a :class:`LoopUnitInfo` registry is supplied (produced
by the transformation phase's loop-unit pass), each registered loop
becomes a unit node in the execution tree with per-iteration child nodes
— the paper's treatment of loops as debuggable units (§5.1, §6.1).
"""

from __future__ import annotations

from repro.analysis.sideeffects import SideEffects, analyze_side_effects
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import PascalRuntimeError
from repro.pascal.interpreter import (
    Cell,
    ExecutionHooks,
    ExecutionResult,
    Frame,
    Interpreter,
    PascalIO,
)
from repro.pascal.semantics import AnalyzedProgram, RoutineInfo
from repro.pascal.symbols import Symbol
from repro.tracing.builder import (
    LoopUnitInfo,
    TraceBuilder,
    TraceResult,
    UnitPlan,
    loop_plan,
    routine_plan,
)


def _frame_lookup(symbol: Symbol):
    """Bind a planned symbol to the interpreter's frame lookup."""

    def lookup(tracer: "Tracer", frame: Frame) -> Cell | None:
        try:
            return tracer.interpreter._lookup_cell(symbol, frame)
        except PascalRuntimeError:
            return None

    return lookup


class Tracer(TraceBuilder, ExecutionHooks):
    """Feeds the interpreter's hook events to the trace builder."""

    def __init__(
        self,
        analysis: AnalyzedProgram,
        side_effects: SideEffects | None = None,
        loop_units: dict[int, LoopUnitInfo] | None = None,
        max_tree_nodes: int | None = None,
        profiler=None,
    ):
        super().__init__(
            analysis,
            side_effects if side_effects is not None else analyze_side_effects(analysis),
            max_tree_nodes=max_tree_nodes,
            profiler=profiler,
        )
        self.interpreter: Interpreter | None = None
        self._plans: dict[Symbol, UnitPlan] = {}
        self._loop_plans = {
            stmt_id: loop_plan(unit).bind(_frame_lookup)
            for stmt_id, unit in (loop_units or {}).items()
        }

    def attach(self, interpreter: Interpreter) -> None:
        self.interpreter = interpreter

    def _plan(self, info: RoutineInfo) -> UnitPlan:
        plan = self._plans.get(info.symbol)
        if plan is None:
            plan = self._plans[info.symbol] = routine_plan(
                self.analysis, self.side_effects, info.symbol
            ).bind(_frame_lookup)
        return plan

    # ------------------------------------------------------------------
    # statements

    def before_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        self.push_occurrence(stmt.node_id, stmt.location.line)

    def after_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        self.occ_stack.pop()

    cell_read = TraceBuilder.record_read

    def cell_write(self, cell: Cell, index: int | None, value: object) -> None:
        self.record_write(cell, index)

    def io_write(self, text: str) -> None:
        self.record_print()

    # ------------------------------------------------------------------
    # units

    def enter_routine(
        self, call: ast.Node | None, info: RoutineInfo, frame: Frame
    ) -> None:
        if info.is_main:
            self.enter_main(info)
            return
        cells = frame.cells
        self.enter_call(
            self._plan(info), frame, call.node_id, [cells[p] for p in info.params]
        )

    def exit_routine(
        self, info: RoutineInfo, frame: Frame, via_goto: Symbol | None
    ) -> None:
        if info.is_main:
            self.exit_main(self.interpreter.io.text)
        else:
            self.exit_call(self._plan(info), frame, via_goto, frame.result_cell)

    def loop_enter(self, stmt: ast.Stmt, frame: Frame) -> None:
        plan = self._loop_plans.get(stmt.node_id)
        if plan is not None:
            self.enter_loop(plan, frame)

    def loop_iteration(self, stmt: ast.Stmt, frame: Frame, iteration: int) -> None:
        plan = self._loop_plans.get(stmt.node_id)
        if plan is not None:
            self.next_iteration(plan, frame, iteration)

    def loop_exit(self, stmt: ast.Stmt, frame: Frame, iterations: int) -> None:
        plan = self._loop_plans.get(stmt.node_id)
        if plan is not None:
            self.exit_loop(plan, frame)


def trace_program(
    analysis: AnalyzedProgram,
    inputs: list[object] | None = None,
    side_effects: SideEffects | None = None,
    loop_units: dict[int, LoopUnitInfo] | None = None,
    step_limit: int = 2_000_000,
    tolerate_errors: bool = False,
    budget=None,
    degrade: bool = False,
    backend: str | None = None,
    profiler=None,
) -> TraceResult:
    """Run an analyzed program under the tracer (the paper's tracing phase).

    With ``tolerate_errors``, a run that dies with a runtime error (bad
    index, division by zero, step limit...) still yields its partial
    execution tree: every activation open at the moment of the crash is
    closed with its values as of that moment, so the debugger can chase
    the crash the same way it chases a wrong value.

    ``backend`` selects the execution engine: ``"interp"`` (the
    tree-walking interpreter driving a :class:`Tracer` through hooks) or
    ``"compiled"`` (closures from :mod:`repro.compile` with inline
    event emission). ``None`` defers to ``REPRO_BACKEND``. Both produce
    the same :class:`TraceResult`, bit-for-bit.

    ``budget`` (a :class:`repro.resilience.Budget`) bounds the trace:
    deadline and step/depth limits in the interpreter, plus a tree-node
    cap in the tracer. With ``degrade``, blowing the budget does not
    raise — the partial execution tree built so far is salvaged, capped
    at ``budget.salvage_depth``, and returned with ``degraded`` set, so
    the debugger can still localize on partial information.

    ``profiler`` (a :class:`repro.obs.profiler.HotspotProfiler`)
    observes activation enter/exit boundaries on either backend for
    self-time hot-spot attribution; ``None`` costs nothing.
    """
    from repro import obs
    from repro.pascal.errors import (
        PascalError,
        PascalRuntimeError,
        StepLimitExceeded,
    )
    from repro.resilience import faults
    from repro.resilience.budget import DEFAULT_SALVAGE_DEPTH
    from repro.compile import compile_program, resolve_backend
    from repro.resilience.errors import BudgetExceeded, TraceAborted

    backend = resolve_backend(backend)
    max_tree_nodes = budget.max_tree_nodes if budget is not None else None
    io = PascalIO(inputs)
    if backend == "compiled":
        from repro.compile.emit import TraceSession

        # One object is both the runner and the trace builder.
        builder = runner = TraceSession(
            compile_program(analysis, side_effects=side_effects, loop_units=loop_units),
            io=io,
            step_limit=step_limit,
            budget=budget,
            max_tree_nodes=max_tree_nodes,
            profiler=profiler,
        )
    else:
        builder = Tracer(
            analysis,
            side_effects=side_effects,
            loop_units=loop_units,
            max_tree_nodes=max_tree_nodes,
            profiler=profiler,
        )
        runner = Interpreter(
            analysis, io=io, hooks=builder, step_limit=step_limit, budget=budget
        )
        builder.attach(runner)
    error: Exception | None = None
    degraded_reason: str | None = None
    with obs.span("trace.execute", program=analysis.program.name, backend=backend):
        spec = faults.fire("trace", key=analysis.program.name)
        if spec is not None:
            raise PascalRuntimeError(f"{spec.message} [trace]")
        try:
            execution = runner.run()
        except PascalError as raised:
            budget_blown = isinstance(
                raised, (BudgetExceeded, TraceAborted, StepLimitExceeded)
            )
            if degrade and budget_blown:
                degraded_reason = str(raised)
            elif not tolerate_errors:
                raise
            error = raised
            frame = runner.globals_frame
            assert frame is not None  # run() builds it before executing
            execution = ExecutionResult(
                io=runner.io, globals_frame=frame, steps=runner.steps
            )
    result = builder.result(execution, error)
    result.backend = backend
    if degraded_reason is not None:
        from repro.resilience.degrade import cap_depth

        result.degraded = True
        result.degraded_reason = degraded_reason
        salvage_depth = (
            budget.salvage_depth if budget is not None else DEFAULT_SALVAGE_DEPTH
        )
        result.truncated_nodes = cap_depth(result.tree.root, salvage_depth)
        if result.truncated_nodes:
            # Re-anchor the indexes on the surviving activations so the
            # debugger and the slicer never chase a dropped node.
            alive = {node.node_id for node in result.tree.walk()}
            result.tree.occurrence_owner = {
                occ: node
                for occ, node in result.tree.occurrence_owner.items()
                if node.node_id in alive
            }
            result.tree.output_writers = {
                key: writers
                for key, writers in result.tree.output_writers.items()
                if key[0] in alive
            }
        if obs.enabled():
            obs.add("resilience.degraded_traces")
    if obs.enabled():
        # End-of-trace accounting only: the per-statement hot path stays
        # untouched (see the null-hook fast path in the interpreter).
        nodes = result.tree.size()
        occurrences = len(result.dependence_graph)
        edges = result.dependence_graph.edge_count()
        obs.add("trace.runs")
        obs.add("trace.nodes", nodes)
        obs.add("trace.occurrences", occurrences)
        obs.add("trace.dep_edges", edges)
        obs.add("trace.steps", execution.steps)
        obs.add("backend.steps", execution.steps)
        obs.set_max_gauge("trace.peak_nodes", nodes)
        obs.set_max_gauge("trace.peak_occurrences", occurrences)
        obs.set_max_gauge("trace.peak_dep_edges", edges)
        # The journal's trace record. ``root`` anchors replay: node ids
        # are process-global, so a replayer normalizes recorded ids by
        # the difference between its own root id and this one.
        obs.emit(
            "trace",
            program=analysis.program.name,
            backend=backend,
            root=result.tree.root.node_id,
            nodes=nodes,
            occurrences=occurrences,
            dep_edges=edges,
            steps=execution.steps,
            degraded=result.degraded,
            degraded_reason=result.degraded_reason,
        )
    return result


def trace_source(
    source: str,
    inputs: list[object] | None = None,
    step_limit: int = 2_000_000,
    tolerate_errors: bool = False,
    budget=None,
    degrade: bool = False,
    backend: str | None = None,
    profiler=None,
) -> TraceResult:
    """Parse, analyze, and trace a program in one call."""
    from repro.pascal.semantics import analyze_source

    analysis = analyze_source(source)
    return trace_program(
        analysis,
        inputs=inputs,
        step_limit=step_limit,
        tolerate_errors=tolerate_errors,
        budget=budget,
        degrade=degrade,
        backend=backend,
        profiler=profiler,
    )
