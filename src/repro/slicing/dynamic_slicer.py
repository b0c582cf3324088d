"""Interprocedural dynamic slicing (paper §7, [Kamkar-91b]).

Given a traced execution and a dynamic criterion (a wrong output value of
one unit activation), the slice is the backward closure over the dynamic
dependence graph starting from the occurrences that produced that value.

The closure is restricted to the criterion activation's subtree: the
debugger already knows the activation's *inputs* (it asked about them, or
their correctness is implied by the search so far), so computation above
the criterion node is never part of the returned slice — exactly why the
paper's Figure 8 is rooted at ``computs`` and contains only its left
subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.pascal.errors import NameLookupError
from repro.slicing.criteria import DynamicCriterion
from repro.tracing.execution_tree import ExecNode, ExecutionTree
from repro.tracing.tracer import TraceResult


@dataclass
class DynamicSlice:
    """Result of one dynamic slice."""

    criterion: DynamicCriterion
    #: occurrence ids in the slice (restricted to the criterion subtree)
    occurrences: set[int] = field(default_factory=set)
    #: execution-tree node ids owning at least one slice occurrence
    relevant_node_ids: set[int] = field(default_factory=set)

    def is_relevant(self, node: ExecNode) -> bool:
        return node.node_id in self.relevant_node_ids

    def __len__(self) -> int:
        return len(self.occurrences)


def dynamic_slice(
    trace: TraceResult,
    criterion: DynamicCriterion,
    restrict_to_subtree: bool = True,
) -> DynamicSlice:
    """Compute the dynamic slice for ``criterion`` over ``trace``.

    ``restrict_to_subtree=False`` follows dependences past the criterion
    activation's inputs into the rest of the execution (a whole-execution
    slice, useful for analysis rather than tree pruning).
    """
    with obs.span(
        "slice.dynamic", unit=criterion.node.unit_name, variable=criterion.variable
    ):
        return _dynamic_slice(trace, criterion, restrict_to_subtree)


def _dynamic_slice(
    trace: TraceResult,
    criterion: DynamicCriterion,
    restrict_to_subtree: bool,
) -> DynamicSlice:
    tree = trace.tree
    node = criterion.node
    seeds = tree.output_writers.get((node.node_id, criterion.variable))
    if seeds is None:
        raise NameLookupError(
            f"unit {node.unit_name!r} (node {node.node_id}) has no recorded "
            f"output {criterion.variable!r}"
        )

    subtree_ids: set[int] | None = None
    if restrict_to_subtree:
        subtree_ids = {descendant.node_id for descendant in node.walk()}

    ddg = trace.dependence_graph

    def in_scope(occ_id: int) -> bool:
        if subtree_ids is None:
            return True
        occ = ddg.occurrences.get(occ_id)
        return occ is not None and occ.exec_node_id in subtree_ids

    seeds_in_scope = {occ for occ in seeds if in_scope(occ)}
    visited = set(seeds_in_scope)
    stack = list(seeds_in_scope)
    while stack:
        occ = stack.pop()
        for dep in ddg.deps_of(occ):
            if dep not in visited and in_scope(dep):
                visited.add(dep)
                stack.append(dep)

    relevant_nodes = {
        ddg.occurrences[occ].exec_node_id
        for occ in visited
        if occ in ddg.occurrences
    }
    if obs.enabled():
        obs.add("slice.computed")
        obs.observe("slice.occurrences", len(visited))
        obs.observe("slice.relevant_nodes", len(relevant_nodes))
    return DynamicSlice(
        criterion=criterion,
        occurrences=visited,
        relevant_node_ids=relevant_nodes,
    )
