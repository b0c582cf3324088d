"""The trace builder: one set of tracing rules for both execution engines.

The paper's tracing phase (§5.2, with the §6 trace actions
``create_exectree_rec`` and ``save_incoming/outgoing_values``) is one
semantics: which activations become execution-tree nodes, which values
are snapshotted at their boundaries, and which statement occurrences a
value depends on. :class:`TraceBuilder` owns those rules; the engines
only report events to it:

* the tree-walking interpreter through :class:`~repro.tracing.tracer.Tracer`,
  a thin :class:`~repro.pascal.interpreter.ExecutionHooks` adapter;
* the compiled backend through :class:`~repro.compile.emit.TraceSession`,
  whose closures call the activation methods directly and inline the
  per-statement rules (:meth:`TraceBuilder.push_occurrence`,
  :meth:`~TraceBuilder.record_read`, :meth:`~TraceBuilder.record_write`)
  to keep a Python call off every statement.

Dependence bookkeeping lives on the storage cells: ``Cell.writers`` is
``None`` until a traced write, then maps element index (``None`` = the
whole cell) to the occurrence that last wrote it. A whole write clears
the map, so the writers of a unit's output are ``set(writers.values())``
and nothing ever scans the whole trace.

Binding snapshots follow :class:`UnitPlan`\\ s: one per routine — a pure
function of the analysis, its side effects and entry liveness, built
lazily and memoized per analysis (:func:`routine_plan`) — and one per
loop unit (:func:`loop_plan`). An engine binds a plan once, mapping each
planned symbol to a ``(builder, frame) -> Cell | None`` accessor: the
compiler to a slot accessor, the interpreter to a frame lookup.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.analysis.sideeffects import SideEffects
from repro.pascal import ast_nodes as ast
from repro.pascal.interpreter import ExecutionResult
from repro.pascal.semantics import AnalyzedProgram
from repro.pascal.symbols import Symbol
from repro.pascal.values import UNDEFINED, copy_value
from repro.tracing.dynamic_deps import DynamicDependenceGraph, Occurrence
from repro.tracing.execution_tree import (
    Binding,
    BindingMode,
    ExecNode,
    ExecutionTree,
    NodeKind,
)


@dataclass(frozen=True)
class LoopUnitInfo:
    """Static description of one loop unit (computed by the transformation
    phase): which variables flow in and out of the loop."""

    stmt_id: int
    name: str
    inputs: tuple[Symbol, ...]
    outputs: tuple[Symbol, ...]


@dataclass
class TraceResult:
    """Everything the debugging phase needs from one traced run."""

    analysis: AnalyzedProgram
    side_effects: SideEffects
    tree: ExecutionTree
    dependence_graph: DynamicDependenceGraph
    execution: ExecutionResult
    #: the runtime error that ended the run, when traced tolerantly
    error: Exception | None = None
    #: unit active when the error struck (for the user's orientation)
    crash_unit: str | None = None
    #: the trace blew its resource budget and this is a salvaged,
    #: depth-capped partial tree (see docs/ROBUSTNESS.md)
    degraded: bool = False
    degraded_reason: str | None = None
    #: activations dropped when capping the salvaged tree's depth
    truncated_nodes: int = 0
    #: which execution backend produced this trace ("interp" | "compiled")
    backend: str = "interp"

    @property
    def root(self) -> ExecNode:
        return self.tree.root

    @property
    def crashed(self) -> bool:
        return self.error is not None


# ----------------------------------------------------------------------
# binding plans


class UnitPlan:
    """What one unit's activations snapshot.

    ``inputs``/``outputs`` hold ``(name, is_global, ref)`` entries in
    binding order; ``ref`` is the planned :class:`Symbol`, or, in a
    plan returned by :meth:`bind`, the engine's cell accessor (``None``
    when the symbol has no storage there: snapshotted as UNDEFINED).
    ``by_value`` flags each formal parameter passed by value.
    """

    __slots__ = ("name", "routine", "stmt_id", "inputs", "outputs", "by_value")

    def __init__(self, name, inputs, outputs, routine=None, stmt_id=None, by_value=()):
        self.name = name
        self.routine = routine
        self.stmt_id = stmt_id
        self.inputs = inputs
        self.outputs = outputs
        self.by_value = by_value

    def bind(self, accessor_of) -> "UnitPlan":
        """This plan with every symbol mapped through ``accessor_of``."""
        return UnitPlan(
            self.name,
            [(name, is_global, accessor_of(ref)) for name, is_global, ref in self.inputs],
            [(name, is_global, accessor_of(ref)) for name, is_global, ref in self.outputs],
            self.routine,
            self.stmt_id,
            self.by_value,
        )


#: id(analysis) -> {routine symbol -> UnitPlan}; an entry lives exactly
#: as long as its analysis (plans hold symbols only, never the analysis)
_ROUTINE_PLANS: dict[int, dict[Symbol, UnitPlan]] = {}


def routine_plan(
    analysis: AnalyzedProgram, side_effects: SideEffects, routine: Symbol
) -> UnitPlan:
    """The binding plan of one routine, built on first use and shared by
    every later trace of the same analysis (on either backend), so a
    warm re-trace recomputes no liveness. Every caller passes the side
    effects of that same analysis, so whichever arrives first builds it."""
    plans = _ROUTINE_PLANS.get(id(analysis))
    if plans is None:
        plans = _ROUTINE_PLANS[id(analysis)] = {}
        weakref.finalize(analysis, _ROUTINE_PLANS.pop, id(analysis), None)
    plan = plans.get(routine)
    if plan is None:
        plan = plans[routine] = _build_routine_plan(analysis, side_effects, routine)
    return plan


def _build_routine_plan(analysis, side_effects, routine) -> UnitPlan:
    info = analysis.routines[routine]
    effects = side_effects.of(routine)
    live = _entry_live(analysis, side_effects, info) if (
        effects.ref_params or effects.gref
    ) else frozenset()
    inputs = [
        (param.name, False, param)
        for param in info.params
        if param.param_mode in (ast.ParamMode.VALUE, ast.ParamMode.IN_)
        or (param in effects.ref_params and param in live)
    ]
    inputs += [
        (symbol.name, True, symbol)
        for symbol in sorted(effects.gref, key=lambda s: s.name)
        if symbol in live
    ]
    outputs = [
        (param.name, False, param)
        for param in info.params
        if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT)
        and param in effects.mod_params
    ]
    outputs += [
        (symbol.name, True, symbol)
        for symbol in sorted(effects.gmod, key=lambda s: s.name)
    ]
    by_value = tuple(param.param_mode == ast.ParamMode.VALUE for param in info.params)
    return UnitPlan(info.name, inputs, outputs, routine=routine, by_value=by_value)


def _entry_live(analysis, side_effects, info) -> set[Symbol]:
    """Symbols whose *incoming* value the routine may actually use.

    A var parameter (or read global) that is always overwritten before
    any read carries no meaningful input value; the variables live
    after the entry node (parameter binding) are exactly the right
    filter for "In" bindings.
    """
    from repro.analysis import dataflow
    from repro.analysis.cfg import build_cfg

    cfg = build_cfg(info, analysis)
    return dataflow.live_variables(cfg, side_effects).live_out[cfg.entry]


def loop_plan(unit: LoopUnitInfo) -> UnitPlan:
    """The binding plan of one loop unit (and each of its iterations)."""
    return UnitPlan(
        unit.name,
        [(symbol.name, False, symbol) for symbol in unit.inputs],
        [(symbol.name, False, symbol) for symbol in unit.outputs],
        stmt_id=unit.stmt_id,
    )


# ----------------------------------------------------------------------
# the builder


class TraceBuilder:
    """Execution tree plus dynamic dependence graph of one traced run.

    A mixin for the two engine adapters: the state attributes are
    listed in :attr:`STATE` (a subclass with ``__slots__`` declares
    them) and set up by :meth:`__init__`.
    """

    __slots__ = ()

    STATE = (
        "analysis", "side_effects", "ddg", "occurrences", "adj", "occ_count",
        "occ_stack", "cur_node", "print_occs", "node_count", "max_tree_nodes",
        "last_active_node_id", "prof", "root", "tree_index", "output_writers",
    )

    def __init__(
        self,
        analysis: AnalyzedProgram,
        side_effects: SideEffects,
        max_tree_nodes: int | None = None,
        profiler=None,
    ):
        self.analysis = analysis
        self.side_effects = side_effects
        ddg = DynamicDependenceGraph()
        self.ddg = ddg
        # Aliases the compiled closures write directly.
        self.occurrences = ddg.occurrences
        self.adj = ddg._adj
        self.occ_count = 0
        #: occurrence ids of the statements executing, innermost last
        self.occ_stack: list[int] = []
        #: the open activation statements execute in
        self.cur_node: ExecNode | None = None
        self.print_occs: set[int] = set()
        #: memory guard: abort the trace when the tree outgrows this
        self.node_count = 0
        self.max_tree_nodes = max_tree_nodes
        self.last_active_node_id = 0
        #: optional hot-spot profiler observing activation boundaries
        #: (:class:`repro.obs.profiler.HotspotProfiler`)
        self.prof = profiler
        self.root: ExecNode | None = None
        self.tree_index: dict[int, ExecNode] = {}
        #: (exec node id, output name) -> occurrence ids that last wrote it
        self.output_writers: dict[tuple[int, str], set[int]] = {}

    # ------------------------------------------------------------------
    # per-statement rules (inlined by the compiled backend)

    def push_occurrence(self, stmt_id: int, line: int) -> None:
        """A statement occurrence begins in the current activation, with
        a control/nesting edge to the enclosing occurrence. The engine
        pops ``occ_stack`` when the statement finishes normally."""
        node = self.cur_node
        self.last_active_node_id = node.node_id
        occ = self.occ_count + 1
        self.occ_count = occ
        self.occurrences[occ] = Occurrence(occ, stmt_id, node.node_id, line)
        ost = self.occ_stack
        self.adj.append([ost[-1]] if ost else [])
        node.occurrence_ids.append(occ)
        ost.append(occ)

    def record_read(self, cell, index: int | None) -> None:
        """The current occurrence read ``cell`` (element ``index``): it
        depends on that location's last writer, and an element read also
        on the last whole-cell write."""
        writers = cell.writers
        if writers is None or not self.occ_stack:
            return
        current = self.occ_stack[-1]
        edges = self.adj[current]
        writer = writers.get(index)
        if writer is not None and writer != current and writer not in edges:
            edges.append(writer)
        if index is not None:
            whole = writers.get(None)
            if whole is not None and whole != current and whole not in edges:
                edges.append(whole)

    def record_write(self, cell, index: int | None) -> None:
        """The current occurrence wrote ``cell`` (element ``index``); a
        whole write supersedes every element write."""
        ost = self.occ_stack
        if not ost:
            return
        writers = cell.writers
        if writers is None:
            cell.writers = {index: ost[-1]}
        else:
            if index is None:
                writers.clear()
            writers[index] = ost[-1]

    def record_print(self) -> None:
        """The current occurrence wrote program output, so the printed
        output is sliceable."""
        if self.occ_stack:
            self.print_occs.add(self.occ_stack[-1])

    # ------------------------------------------------------------------
    # activations

    def _count_node(self) -> None:
        """Memory guard: a tree node pins bindings and dependence
        bookkeeping, so runaway traces are aborted (and salvaged by
        :func:`~repro.tracing.tracer.trace_program` when degradation is
        enabled)."""
        self.node_count += 1
        if self.max_tree_nodes is not None and self.node_count > self.max_tree_nodes:
            from repro.resilience.errors import TraceAborted

            raise TraceAborted(
                f"execution tree exceeded {self.max_tree_nodes} activations",
                reason="tree-nodes",
            )

    def _open(self, node: ExecNode, parent: ExecNode) -> None:
        parent.add_child(node)
        self.tree_index[node.node_id] = node
        self.cur_node = node

    def _cells(self, entries, frame):
        """``(name, is_global, cell-or-None)`` for each plan entry."""
        return [
            (name, is_global, None if acc is None else acc(self, frame))
            for name, is_global, acc in entries
        ]

    def _snapshot(self, entries, frame) -> list[Binding]:
        return [
            Binding(
                name,
                BindingMode.IN,
                UNDEFINED if cell is None else copy_value(cell.value),
                is_global,
            )
            for name, is_global, cell in self._cells(entries, frame)
        ]

    def _close(self, node: ExecNode, plan, frame, writers: bool) -> list[Binding]:
        """Snapshot ``node``'s outputs; with ``writers``, also record the
        occurrences that last wrote each (the slice criteria)."""
        outputs = []
        for name, is_global, cell in self._cells(plan.outputs, frame):
            if cell is None:
                outputs.append(Binding(name, BindingMode.OUT, UNDEFINED, is_global))
                continue
            outputs.append(
                Binding(name, BindingMode.OUT, copy_value(cell.value), is_global)
            )
            if writers:
                self.output_writers[(node.node_id, name)] = _writers(cell)
        node.outputs = outputs
        return outputs

    def enter_main(self, info) -> None:
        self._count_node()
        node = ExecNode(kind=NodeKind.MAIN, unit_name=info.name, routine=info.symbol)
        self.root = node
        self.tree_index[node.node_id] = node
        self.cur_node = node
        if self.prof is not None:
            self.prof.enter_unit(info.name)

    def exit_main(self, text: str) -> None:
        """Close the root. The program's observable result is what it
        printed — the externally visible symptom a session starts from —
        so the root carries it as its output."""
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        if text:
            node.outputs = [Binding("output", BindingMode.OUT, text)]
            self.output_writers[(node.node_id, "output")] = set(self.print_occs)
        self.cur_node = None

    def enter_call(self, plan: UnitPlan, frame, call_site_id: int, param_cells) -> None:
        """Open a CALL activation whose parameters are already bound to
        ``param_cells`` (formals first, in order), and attribute the
        incoming parameter values to the call-site occurrence."""
        self._count_node()
        node = ExecNode(
            kind=NodeKind.CALL,
            unit_name=plan.name,
            routine=plan.routine,
            call_site_id=call_site_id,
        )
        node.inputs = self._snapshot(plan.inputs, frame)
        self._open(node, self.cur_node)
        if self.prof is not None:
            self.prof.enter_unit(plan.name)
        ost = self.occ_stack
        if ost:
            call_occ = ost[-1]
            for by_value, cell in zip(plan.by_value, param_cells):
                writers = cell.writers
                if by_value or writers is None:
                    cell.writers = {None: call_occ}
                elif None not in writers:
                    # First sight of a by-reference cell (e.g. seeded input).
                    writers[None] = call_occ

    def exit_call(self, plan: UnitPlan, frame, via_goto: Symbol | None, result_cell) -> None:
        """Close the current CALL activation: snapshot its outputs and
        their writers, and attribute reading the function result to the
        caller's occurrence."""
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        node.via_goto = via_goto.name if via_goto is not None else None
        outputs = self._close(node, plan, frame, writers=True)
        self.cur_node = node.parent
        if result_cell is not None:
            outputs.append(
                Binding(plan.name, BindingMode.RESULT, copy_value(result_cell.value))
            )
            self.output_writers[(node.node_id, plan.name)] = _writers(result_cell)
            self.record_read(result_cell, None)

    def enter_loop(self, plan: UnitPlan, frame) -> None:
        self._count_node()
        node = ExecNode(kind=NodeKind.LOOP, unit_name=plan.name, loop_stmt_id=plan.stmt_id)
        node.inputs = self._snapshot(plan.inputs, frame)
        self._open(node, self.cur_node)
        if self.prof is not None:
            self.prof.enter_unit(plan.name)

    def next_iteration(self, plan: UnitPlan, frame, iteration: int) -> None:
        """Close the open iteration of the current loop unit, if any, and
        open iteration ``iteration`` (1-based)."""
        self._count_node()
        loop_node = self.cur_node
        if loop_node.kind is NodeKind.ITERATION:
            self._close(loop_node, plan, frame, writers=False)
            loop_node = loop_node.parent
        node = ExecNode(
            kind=NodeKind.ITERATION,
            unit_name=plan.name,
            loop_stmt_id=plan.stmt_id,
            iteration=iteration,
        )
        node.inputs = self._snapshot(plan.inputs, frame)
        self._open(node, loop_node)

    def exit_loop(self, plan: UnitPlan, frame) -> None:
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        if node.kind is NodeKind.ITERATION:
            self._close(node, plan, frame, writers=False)
            node = node.parent
        self._close(node, plan, frame, writers=True)
        self.cur_node = node.parent

    # ------------------------------------------------------------------
    # result

    def result(
        self, execution: ExecutionResult, error: Exception | None = None
    ) -> TraceResult:
        """Package the run; ``error`` is the runtime error that ended it."""
        assert self.root is not None, "no traced run"
        tree = ExecutionTree(root=self.root)
        tree_index = self.tree_index
        tree.occurrence_owner = {
            occ_id: tree_index[occ.exec_node_id]
            for occ_id, occ in self.occurrences.items()
        }
        tree.output_writers = self.output_writers
        result = TraceResult(
            analysis=self.analysis,
            side_effects=self.side_effects,
            tree=tree,
            dependence_graph=self.ddg,
            execution=execution,
            error=error,
        )
        if error is not None:
            crash_node = tree_index.get(self.last_active_node_id)
            result.crash_unit = crash_node.unit_name if crash_node is not None else None
        return result


def _writers(cell) -> set[int]:
    writers = cell.writers
    return set(writers.values()) if writers else set()
