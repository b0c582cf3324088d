"""The rules the trace builder shares between the two execution engines."""

import pytest

from repro.analysis import dataflow
from repro.cache import clear_caches
from repro.pascal.interpreter import run_source
from repro.tracing.tracer import trace_program
from repro.transform import transform_source
from repro.workloads import FIGURE4_SOURCE, ledger_program

LEDGER_SOURCE = ledger_program().source

BACKENDS = ["interp", "compiled"]

#: a program whose routines read var parameters and globals on entry,
#: so their "In" bindings need entry liveness
LIVENESS_SOURCE = """
program live;
var total, count: integer;
    data: array[1..3] of integer;
procedure bump(var acc: integer; step: integer);
begin acc := acc + step; count := count + 1 end;
procedure reset(var acc: integer);
begin acc := 0 end;
function sum(n: integer): integer;
var i, s: integer;
begin
  s := 0;
  for i := 1 to n do s := s + data[i];
  sum := s
end;
begin
  data[1] := 1; data[2] := 2; data[3] := 3;
  count := 0;
  reset(total);
  bump(total, sum(3));
  bump(total, 4);
  writeln(total, ' ', count)
end.
"""


def _fresh(source):
    """A transformed program no earlier trace has seen (new analysis)."""
    clear_caches()
    return transform_source(source)


def _trace(transformed, backend):
    return trace_program(
        transformed.analysis,
        side_effects=transformed.side_effects,
        loop_units=transformed.loop_units,
        backend=backend,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_entry_liveness_is_computed_once_per_analysis(backend, monkeypatch):
    transformed = _fresh(LIVENESS_SOURCE)
    calls = []
    original = dataflow.live_variables

    def counting(cfg, side_effects=None):
        calls.append(cfg)
        return original(cfg, side_effects)

    monkeypatch.setattr(dataflow, "live_variables", counting)
    first = _trace(transformed, backend)
    after_first = len(calls)
    second = _trace(transformed, backend)
    assert after_first > 0
    assert len(calls) == after_first
    assert first.tree.render() == second.tree.render()


def _shape(trace):
    """Dependence edges and output writers with node ids replaced by
    pre-order positions (node ids are process-global)."""
    position = {node.node_id: index for index, node in enumerate(trace.tree.walk())}
    ddg = trace.dependence_graph
    edges = {occ: sorted(ddg.deps_of(occ)) for occ in ddg.occurrences}
    writers = {
        (position[node_id], name): sorted(occs)
        for (node_id, name), occs in trace.tree.output_writers.items()
    }
    return edges, writers


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("source", [FIGURE4_SOURCE, LEDGER_SOURCE, LIVENESS_SOURCE])
def test_retrace_gives_identical_dependences(backend, source):
    transformed = transform_source(source)
    first = _trace(transformed, backend)
    second = _trace(transformed, backend)
    assert first.tree.output_writers
    assert _shape(first) == _shape(second)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_agree_on_dependences(backend):
    transformed = transform_source(LIVENESS_SOURCE)
    assert _shape(_trace(transformed, backend)) == _shape(_trace(transformed, "interp"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_untraced_run_records_no_writers(backend):
    result = run_source(LIVENESS_SOURCE, backend=backend)
    assert result.output == "10 2\n"
    cells = list(result.globals_frame.cells.values())
    assert cells
    assert all(cell.writers is None for cell in cells)
