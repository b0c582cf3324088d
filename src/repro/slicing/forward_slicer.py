"""Forward static slicing (extension; cf. [Kamkar-91a]'s overview).

A *forward* slice answers the dual question to Weiser's: which
statements may be *affected by* the value computed at a program point?
Useful for impact analysis ("if I fix this assignment, what else
changes?") after GADT has localized a bug.

This implementation is intraprocedural over the same PDGs the backward
slicer uses: the slice is the forward closure over data-dependence edges
plus, for every predicate in the slice, everything control-dependent on
it. (Interprocedural forward slicing would follow values into callees;
the paper's method does not require it, so it is out of scope.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, CFGNode, NodeKind, build_cfg
from repro.analysis.dependence import ProgramDependenceGraph, build_pdg
from repro.analysis.sideeffects import SideEffects, analyze_side_effects
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import NameLookupError
from repro.pascal.semantics import AnalyzedProgram
from repro.pascal.symbols import Symbol, SymbolKind


@dataclass(frozen=True)
class ForwardCriterion:
    """The definitions of ``variables`` at statement ``stmt_id`` in
    ``routine`` (or all their definitions anywhere in the routine when
    ``stmt_id`` is None)."""

    routine: str
    variables: frozenset[str]
    stmt_id: int | None = None

    @classmethod
    def at_statement(
        cls, routine: str, stmt_id: int, *variables: str
    ) -> "ForwardCriterion":
        return cls(routine=routine, variables=frozenset(variables), stmt_id=stmt_id)

    @classmethod
    def all_definitions(cls, routine: str, *variables: str) -> "ForwardCriterion":
        return cls(routine=routine, variables=frozenset(variables), stmt_id=None)


@dataclass
class ForwardSlice:
    """Nodes potentially affected by the criterion definitions."""

    criterion: ForwardCriterion
    nodes: set[CFGNode] = field(default_factory=set)
    stmt_ids: set[int] = field(default_factory=set)

    def contains_stmt(self, stmt: ast.Stmt) -> bool:
        return stmt.node_id in self.stmt_ids

    def __len__(self) -> int:
        return len(self.stmt_ids)


def forward_static_slice(
    analysis: AnalyzedProgram,
    criterion: ForwardCriterion,
    side_effects: SideEffects | None = None,
) -> ForwardSlice:
    """Compute the intraprocedural forward slice for ``criterion``."""
    effects = (
        side_effects if side_effects is not None else analyze_side_effects(analysis)
    )
    info = analysis.routine_named(criterion.routine)
    cfg = build_cfg(info, analysis)
    pdg = build_pdg(cfg, effects)
    symbols = _resolve(info, criterion.variables)

    forward_data, forward_control = _invert(pdg)

    seeds: set[CFGNode] = set()
    for node in cfg.nodes:
        if node.kind in (NodeKind.ENTRY, NodeKind.EXIT):
            continue
        if criterion.stmt_id is not None:
            if node.stmt is None or node.stmt.node_id != criterion.stmt_id:
                continue
        from repro.analysis.dataflow import node_def_use

        defs = node_def_use(cfg, node, effects).defs
        if defs & symbols:
            seeds.add(node)

    visited: set[CFGNode] = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for successor in forward_data.get(node, ()):
            if successor not in visited:
                visited.add(successor)
                stack.append(successor)
        for controlled in forward_control.get(node, ()):
            if controlled not in visited:
                visited.add(controlled)
                stack.append(controlled)

    result = ForwardSlice(criterion=criterion, nodes=visited)
    result.stmt_ids = {
        node.stmt.node_id
        for node in visited
        if node.stmt is not None
    }
    return result


def _resolve(info, names: frozenset[str]) -> set[Symbol]:
    symbols: set[Symbol] = set()
    for name in names:
        symbol = info.scope.lookup(name)
        if symbol is None or symbol.kind not in (
            SymbolKind.VARIABLE,
            SymbolKind.PARAMETER,
            SymbolKind.RESULT,
        ):
            raise NameLookupError(f"no variable {name!r} visible in {info.name!r}")
        symbols.add(symbol)
    return symbols


def _invert(
    pdg: ProgramDependenceGraph,
) -> tuple[dict[CFGNode, set[CFGNode]], dict[CFGNode, set[CFGNode]]]:
    forward_data: dict[CFGNode, set[CFGNode]] = {}
    forward_control: dict[CFGNode, set[CFGNode]] = {}
    for node, deps in pdg.data_deps.items():
        for _symbol, def_node in deps:
            forward_data.setdefault(def_node, set()).add(node)
    for node, preds in pdg.control_deps.items():
        for pred in preds:
            forward_control.setdefault(pred, set()).add(node)
    return forward_data, forward_control
