"""Weiser-style static slicing, intra- and interprocedural (paper §4).

The slicer runs a need-driven backward closure over per-routine program
dependence graphs. Interprocedural propagation follows Weiser's original
scheme (context-insensitive):

* *down*: a needed call site makes the callee's relevant outputs a new
  criterion at the callee's exit (only the outputs that are actually
  needed — the formals bound to needed actuals and needed globals);
* *up*: when a routine's entry is needed for some parameters or globals,
  every call site of that routine adds a criterion on the argument
  variables just before the call.

A computed slice can be *extracted* as a runnable program (the paper's
"a slice is an independent program" — Figure 2(b)): statements outside
the slice are dropped, pruned branches become empty statements, unused
routines and variable declarations disappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.cfg import CFG, CFGNode, NodeKind, build_cfg
from repro.analysis.defuse import target_root
from repro.analysis.dependence import ProgramDependenceGraph, build_pdg
from repro.analysis.sideeffects import SideEffects, analyze_side_effects
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import NameLookupError
from repro.pascal.semantics import AnalyzedProgram, RoutineInfo
from repro.pascal.symbols import Symbol, SymbolKind
from repro.slicing.criteria import StaticCriterion

#: special marker meaning "needed for control flow", not a data value
_CONTROL = object()


@dataclass
class StaticSlice:
    """The result of a static slice: which program points are included."""

    analysis: AnalyzedProgram
    criterion: StaticCriterion
    #: routine symbol -> included CFG nodes
    included_nodes: dict[Symbol, set[CFGNode]] = field(default_factory=dict)
    #: AST statement node ids covered by the slice
    included_stmt_ids: set[int] = field(default_factory=set)
    #: routines with at least one included node
    routines: set[Symbol] = field(default_factory=set)

    def contains_stmt(self, stmt: ast.Stmt) -> bool:
        return stmt.node_id in self.included_stmt_ids

    def statement_count(self) -> int:
        return len(self.included_stmt_ids)

    def extract_program(self) -> ast.Program:
        """Materialize the slice as an independent, runnable program."""
        return _SliceExtractor(self).extract()


class _RoutineSliceState:
    """Per-routine slicing state: PDG plus the need sets."""

    def __init__(self, info: RoutineInfo, pdg: ProgramDependenceGraph):
        self.info = info
        self.pdg = pdg
        self.cfg = pdg.cfg
        #: node -> set of symbols (or _CONTROL) the node is needed for
        self.needed: dict[CFGNode, set[object]] = {}
        #: criteria already processed, to guarantee termination
        self.seen_criteria: set[tuple[object, frozenset[Symbol]]] = set()


class StaticSlicer:
    def __init__(
        self,
        analysis: AnalyzedProgram,
        side_effects: SideEffects | None = None,
        call_graph: CallGraph | None = None,
    ):
        self.analysis = analysis
        self.call_graph = (
            call_graph if call_graph is not None else build_call_graph(analysis)
        )
        self.side_effects = (
            side_effects
            if side_effects is not None
            else analyze_side_effects(analysis, self.call_graph)
        )
        self._states: dict[Symbol, _RoutineSliceState] = {}
        #: (routine, point, frozenset of symbols) worklist
        self._worklist: list[tuple[Symbol, object, frozenset[Symbol]]] = []

    # ------------------------------------------------------------------

    def slice(self, criterion: StaticCriterion) -> StaticSlice:
        info = self.analysis.routine_named(criterion.routine)
        symbols = self._resolve_variables(info, criterion.variables)
        point: object = "exit" if criterion.at_exit else criterion.stmt_id
        self._worklist.append((info.symbol, point, frozenset(symbols)))

        while self._worklist:
            routine, point, variables = self._worklist.pop()
            self._process_criterion(routine, point, variables)

        result = StaticSlice(analysis=self.analysis, criterion=criterion)
        for symbol, state in self._states.items():
            included = {
                node
                for node in state.needed
                if node.kind not in (NodeKind.ENTRY, NodeKind.EXIT)
            }
            if not included and not state.needed:
                continue
            result.included_nodes[symbol] = included
            if included:
                result.routines.add(symbol)
            for node in included:
                if node.stmt is not None:
                    result.included_stmt_ids.add(node.stmt.node_id)
        return result

    # ------------------------------------------------------------------

    def _state(self, routine: Symbol) -> _RoutineSliceState:
        state = self._states.get(routine)
        if state is None:
            info = self.analysis.routines[routine]
            pdg = build_pdg(build_cfg(info, self.analysis), self.side_effects)
            state = _RoutineSliceState(info, pdg)
            self._states[routine] = state
        return state

    def _resolve_variables(
        self, info: RoutineInfo, names: frozenset[str]
    ) -> set[Symbol]:
        symbols: set[Symbol] = set()
        for name in names:
            symbol = info.scope.lookup(name)
            if symbol is None or symbol.kind not in (
                SymbolKind.VARIABLE,
                SymbolKind.PARAMETER,
                SymbolKind.RESULT,
            ):
                raise NameLookupError(
                    f"no variable {name!r} visible in routine {info.name!r}"
                )
            symbols.add(symbol)
        return symbols

    def _point_node(self, state: _RoutineSliceState, point: object) -> CFGNode:
        if point == "exit":
            return state.cfg.exit
        assert isinstance(point, int)
        node = state.cfg.node_of_stmt.get(point)
        if node is None:
            raise KeyError(f"no CFG node for statement id {point}")
        return node

    def _process_criterion(
        self, routine: Symbol, point: object, variables: frozenset[Symbol]
    ) -> None:
        state = self._state(routine)
        key = (point, variables)
        if key in state.seen_criteria:
            return
        state.seen_criteria.add(key)

        point_node = self._point_node(state, point)
        reaching = state.pdg.reaching
        seeds: list[tuple[CFGNode, Symbol]] = []
        for symbol in variables:
            for def_node in reaching.reaching_defs_of(point_node, symbol):
                seeds.append((def_node, symbol))
        for def_node, symbol in seeds:
            self._need(state, def_node, symbol)

    def _need(self, state: _RoutineSliceState, node: CFGNode, reason: object) -> None:
        """Mark ``node`` as needed for ``reason`` and propagate."""
        existing = state.needed.get(node)
        if existing is not None and reason in existing:
            return
        if existing is None:
            existing = set()
            state.needed[node] = existing
            is_new_node = True
        else:
            is_new_node = False
        existing.add(reason)

        if is_new_node:
            self._propagate_local(state, node)
            self._propagate_into_callees(state, node)
        elif isinstance(reason, Symbol):
            # A known call node needed for an additional output symbol.
            self._propagate_into_callees(state, node, only_symbol=reason)
        if node.kind is NodeKind.ENTRY and isinstance(reason, Symbol):
            self._propagate_to_callers(state, reason)

    def _propagate_local(self, state: _RoutineSliceState, node: CFGNode) -> None:
        """Follow intraprocedural data and control dependences."""
        for symbol, def_node in state.pdg.data_deps.get(node, ()):
            self._need(state, def_node, symbol)
        for pred in state.pdg.control_deps.get(node, ()):
            self._need(state, pred, _CONTROL)
        # Parameters and read globals are defined by ENTRY; reaching
        # definitions already point there, handled via data_deps.

    def _propagate_into_callees(
        self,
        state: _RoutineSliceState,
        node: CFGNode,
        only_symbol: Symbol | None = None,
    ) -> None:
        """A needed node containing calls pulls relevant callee outputs in."""
        stmt = node.stmt
        if stmt is None:
            return
        calls = self._calls_at(node)
        for call in calls:
            callee = self.analysis.call_target.get(call.node_id)
            if callee is None or callee.kind is not SymbolKind.ROUTINE:
                continue
            effects = self.side_effects.of(callee)
            needed_outputs: set[Symbol] = set()
            needed_reasons = (
                {only_symbol} if only_symbol is not None else state.needed[node]
            )
            # Only the outputs feeding *needed* symbols matter. A node
            # needed purely for control (a caller-side call site pulled
            # in by upward propagation) does not need any callee output.
            for param, arg in zip(callee.params, call.args):
                if param.param_mode not in (ast.ParamMode.VAR, ast.ParamMode.OUT):
                    continue
                if param not in effects.mod_params:
                    continue
                root = target_root(arg, self.analysis)
                if root in needed_reasons:
                    needed_outputs.add(param)
            for global_symbol in effects.gmod:
                if global_symbol in needed_reasons:
                    needed_outputs.add(global_symbol)
            if isinstance(call, ast.FuncCall):
                # A function's result always feeds the expression the
                # needed node evaluates.
                callee_info = self.analysis.routines[callee]
                if callee_info.result_symbol is not None:
                    needed_outputs.add(callee_info.result_symbol)
            if needed_outputs:
                self._worklist.append(
                    (callee, "exit", frozenset(needed_outputs))
                )

    def _calls_at(self, node: CFGNode) -> list[ast.Node]:
        """All user calls evaluated at this CFG node."""
        stmt = node.stmt
        assert stmt is not None
        calls: list[ast.Node] = []

        def collect_expr(expr: ast.Expr) -> None:
            for sub in expr.walk():
                if isinstance(sub, ast.FuncCall):
                    target = self.analysis.call_target.get(sub.node_id)
                    if target is not None and target.kind is SymbolKind.ROUTINE:
                        calls.append(sub)

        if node.kind is NodeKind.STMT:
            if isinstance(stmt, ast.ProcCall):
                target = self.analysis.call_target.get(stmt.node_id)
                if target is not None and target.kind is SymbolKind.ROUTINE:
                    calls.append(stmt)
                for arg in stmt.args:
                    collect_expr(arg)
            elif isinstance(stmt, ast.Assign):
                collect_expr(stmt.value)
                collect_expr(stmt.target)
        elif node.kind is NodeKind.PRED:
            condition = getattr(stmt, "condition")
            collect_expr(condition)
        elif node.kind is NodeKind.FOR_INIT:
            assert isinstance(stmt, ast.For)
            collect_expr(stmt.start)
            collect_expr(stmt.stop)
        return calls

    def _propagate_to_callers(
        self, state: _RoutineSliceState, symbol: Symbol
    ) -> None:
        """The routine needs an incoming value: charge every call site."""
        routine = state.info.symbol
        if state.info.is_main:
            return
        for site in self.call_graph.sites_by_callee.get(routine, ()):
            caller_state = self._state(site.caller)
            call_node = caller_state.cfg.node_of_stmt.get(site.node.node_id)
            if call_node is None:
                # A function call embedded in some statement: find the node
                # whose statement contains it.
                call_node = self._find_containing_node(caller_state, site.node)
            if call_node is None:
                continue
            self._need(caller_state, call_node, _CONTROL)
            variables: set[Symbol] = set()
            if symbol.kind is SymbolKind.PARAMETER and symbol.owner is routine:
                position = list(routine.params).index(symbol)
                if position < len(site.args):
                    arg = site.args[position]
                    from repro.analysis.defuse import expression_uses

                    variables |= expression_uses(arg, self.analysis)
            else:
                variables.add(symbol)  # a global / enclosing non-local
            if variables and call_node.stmt is not None:
                # Anchor the criterion at the CFG node evaluating the call
                # (for calls embedded in expressions, their host statement).
                self._worklist.append(
                    (site.caller, call_node.stmt.node_id, frozenset(variables))
                )

    def _find_containing_node(
        self, state: _RoutineSliceState, call: ast.Node
    ) -> CFGNode | None:
        for node in state.cfg.nodes:
            if node.stmt is None:
                continue
            for sub in node.stmt.walk():
                if sub is call:
                    return node
        return None


def static_slice(
    analysis: AnalyzedProgram,
    criterion: StaticCriterion,
    side_effects: SideEffects | None = None,
) -> StaticSlice:
    """Compute a static slice of an analyzed program."""
    return StaticSlicer(analysis, side_effects=side_effects).slice(criterion)


# ----------------------------------------------------------------------
# slice extraction


class _SliceExtractor:
    """Builds a runnable program containing only the sliced statements."""

    def __init__(self, computed: StaticSlice):
        self.slice = computed
        self.analysis = computed.analysis

    def extract(self) -> ast.Program:
        program = self.analysis.program
        block = self._extract_block(program.block, self.analysis.main)
        extracted = ast.Program(
            name=program.name, block=block, location=program.location
        )
        self._prune_declarations(extracted)
        return extracted

    def _routine_included(self, routine: ast.RoutineDecl) -> bool:
        for info in self.analysis.all_routines():
            if info.decl is routine:
                return info.symbol in self.slice.routines
        return False

    def _extract_block(self, block: ast.Block, info: RoutineInfo) -> ast.Block:
        routines = [
            self._extract_routine(routine)
            for routine in block.routines
            if self._routine_included(routine) or self._has_included_nested(routine)
        ]
        body = self._filter_stmt(block.body)
        if not isinstance(body, ast.Compound):
            body = ast.Compound(statements=[body] if body is not None else [])
        return ast.Block(
            labels=[ast.clone(label) for label in block.labels],  # type: ignore[misc]
            consts=[ast.clone(const) for const in block.consts],  # type: ignore[misc]
            types=[ast.clone(decl) for decl in block.types],  # type: ignore[misc]
            variables=[ast.clone(var) for var in block.variables],  # type: ignore[misc]
            routines=routines,
            body=body,
        )

    def _has_included_nested(self, routine: ast.RoutineDecl) -> bool:
        return any(
            self._routine_included(nested) or self._has_included_nested(nested)
            for nested in routine.block.routines
        )

    def _extract_routine(self, routine: ast.RoutineDecl) -> ast.RoutineDecl:
        info = next(
            info for info in self.analysis.all_routines() if info.decl is routine
        )
        block = self._extract_block(routine.block, info)
        return ast.RoutineDecl(
            name=routine.name,
            params=[ast.clone(param) for param in routine.params],  # type: ignore[misc]
            result_type=(
                ast.clone(routine.result_type)  # type: ignore[arg-type]
                if routine.result_type is not None
                else None
            ),
            block=block,
            location=routine.location,
        )

    def _filter_stmt(self, stmt: ast.Stmt) -> ast.Stmt | None:
        """Keep a statement iff it (or something inside it) is in the slice."""
        included = self.slice.contains_stmt(stmt)
        if isinstance(stmt, ast.Compound):
            kept = [
                filtered
                for child in stmt.statements
                if (filtered := self._filter_stmt(child)) is not None
            ]
            if not kept and not included:
                return None
            return ast.Compound(
                statements=kept, location=stmt.location, label=stmt.label
            )
        if isinstance(stmt, ast.If):
            then_branch = self._filter_stmt(stmt.then_branch)
            else_branch = (
                self._filter_stmt(stmt.else_branch)
                if stmt.else_branch is not None
                else None
            )
            if not included and then_branch is None and else_branch is None:
                return None
            return ast.If(
                condition=ast.clone(stmt.condition),  # type: ignore[arg-type]
                then_branch=(
                    then_branch
                    if then_branch is not None
                    else ast.EmptyStmt(location=stmt.location)
                ),
                else_branch=else_branch,
                location=stmt.location,
                label=stmt.label,
            )
        if isinstance(stmt, ast.While):
            body = self._filter_stmt(stmt.body)
            if not included and body is None:
                return None
            return ast.While(
                condition=ast.clone(stmt.condition),  # type: ignore[arg-type]
                body=body if body is not None else ast.EmptyStmt(location=stmt.location),
                location=stmt.location,
                label=stmt.label,
            )
        if isinstance(stmt, ast.Repeat):
            kept = [
                filtered
                for child in stmt.body
                if (filtered := self._filter_stmt(child)) is not None
            ]
            if not included and not kept:
                return None
            return ast.Repeat(
                body=kept if kept else [ast.EmptyStmt(location=stmt.location)],
                condition=ast.clone(stmt.condition),  # type: ignore[arg-type]
                location=stmt.location,
                label=stmt.label,
            )
        if isinstance(stmt, ast.For):
            body = self._filter_stmt(stmt.body)
            if not included and body is None:
                return None
            return ast.For(
                variable=stmt.variable,
                start=ast.clone(stmt.start),  # type: ignore[arg-type]
                stop=ast.clone(stmt.stop),  # type: ignore[arg-type]
                downto=stmt.downto,
                body=body if body is not None else ast.EmptyStmt(location=stmt.location),
                location=stmt.location,
                label=stmt.label,
            )
        if included:
            return ast.clone(stmt)  # type: ignore[return-value]
        # Labelled statements survive as empty targets so gotos stay legal.
        if stmt.label is not None:
            return ast.EmptyStmt(location=stmt.location, label=stmt.label)
        return None

    # ------------------------------------------------------------------

    def _prune_declarations(self, program: ast.Program) -> None:
        """Drop variable declarations the sliced program never mentions."""
        mentioned: set[str] = set()

        def note_names(node: ast.Node) -> None:
            for sub in node.walk():
                if isinstance(sub, ast.VarRef):
                    mentioned.add(sub.name)
                elif isinstance(sub, (ast.ProcCall, ast.FuncCall)):
                    mentioned.add(sub.name)
                elif isinstance(sub, ast.For):
                    mentioned.add(sub.variable)

        def collect(block: ast.Block) -> None:
            note_names(block.body)
            for routine in block.routines:
                for param in routine.params:
                    mentioned.add(param.name)
                collect(routine.block)

        collect(program.block)

        def prune(block: ast.Block) -> None:
            block.variables = [
                var for var in block.variables if var.name in mentioned
            ]
            for routine in block.routines:
                prune(routine.block)

        prune(program.block)
