"""Tree-walking interpreter for Mini-Pascal with observation hooks.

The interpreter executes analyzed programs and exposes an
:class:`ExecutionHooks` interface through which the tracing phase builds
execution trees and the dynamic slicer records dependences. Storage is
modelled with explicit :class:`Cell` objects so that ``var`` parameter
aliasing is physical: a dynamic data dependence is simply "last write to
this cell (and element)", no matter which name performed it.

Parameter modes:

* value parameters copy their argument (arrays deeply),
* ``var`` parameters share the caller's cell,
* ``in``/``out`` parameters (produced by the globals-to-parameters
  transformation) also share the caller's cell — this makes the
  transformed program *exactly* equivalent to direct global access, the
  property the transformation phase relies on; the modes are enforced
  statically (no assignment to ``in`` parameters).

Global gotos (exit side effects) propagate as :class:`GotoSignal` through
routine frames until a frame whose statement list defines the label
catches them, faithfully modelling the paper's pre-transformation
semantics.

Execution speed (see ``docs/PERFORMANCE.md``): statements and expressions
are dispatched through precomputed per-node-type tables instead of
``isinstance`` chains, and when no observer is attached (``hooks=None``,
the plain ``run_source`` case) the interpreter switches to a *null-hook
fast path* that skips every :class:`ExecutionHooks` callback — the hot
loop then pays nothing for the tracing machinery it is not using.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pascal import ast_nodes as ast
from repro.pascal.errors import (
    PascalRuntimeError,
    SourceLocation,
    StepLimitExceeded,
    UndefinedValueError,
)
from repro.pascal.semantics import (
    AnalyzedProgram,
    BUILTIN_FUNCTIONS,
    IO_PROCEDURES,
    TRACE_PROCEDURES,
    RoutineInfo,
)
from repro.pascal.symbols import ArrayTypeInfo, Symbol, SymbolKind
from repro.pascal.values import (
    ArrayValue,
    UNDEFINED,
    copy_value,
    default_value,
    format_value,
)

class GotoSignal(Exception):
    """Non-local transfer of control, unwinding to the defining label."""

    def __init__(self, label: Symbol, location: SourceLocation):
        self.label = label
        self.location = location
        super().__init__(f"goto {label.name}")


class Cell:
    """One unit of storage. Arrays occupy a single cell holding an
    :class:`~repro.pascal.values.ArrayValue` mutated in place.

    ``writers`` is the trace's dependence bookkeeping for this cell:
    ``None`` until a traced run writes it, then element index (``None``
    = whole cell) -> the occurrence id that last wrote that location
    (see :mod:`repro.tracing.builder`)."""

    __slots__ = ("value", "symbol", "writers")

    def __init__(self, value: object = UNDEFINED, symbol: Symbol | None = None):
        self.value = value
        self.symbol = symbol
        self.writers: dict[int | None, int] | None = None

    def __repr__(self) -> str:
        name = self.symbol.name if self.symbol is not None else "?"
        return f"<Cell {name}={self.value!r}>"


@dataclass(slots=True)
class Frame:
    """An activation record: one per routine call, plus one for globals."""

    routine: RoutineInfo
    cells: dict[Symbol, Cell] = field(default_factory=dict)
    result_cell: Cell | None = None
    depth: int = 0

    def cell(self, symbol: Symbol) -> Cell:
        return self.cells[symbol]


class ExecutionHooks:
    """Override any subset of these no-op callbacks to observe execution."""

    def enter_routine(
        self, call: ast.Node | None, info: RoutineInfo, frame: Frame
    ) -> None:
        """A routine frame was created and parameters bound (pre-body)."""

    def exit_routine(
        self, info: RoutineInfo, frame: Frame, via_goto: Symbol | None
    ) -> None:
        """The routine body finished (``via_goto`` set for exit side effects)."""

    def before_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        """A statement occurrence is about to execute."""

    def after_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        """A statement occurrence finished normally."""

    def cell_read(self, cell: Cell, index: int | None) -> None:
        """A scalar or array element was read (``index`` None = whole cell)."""

    def cell_write(self, cell: Cell, index: int | None, value: object) -> None:
        """A scalar or array element was written."""

    def branch(self, stmt: ast.Stmt, frame: Frame, taken: object) -> None:
        """A conditional's predicate evaluated to ``taken``."""

    def loop_enter(self, stmt: ast.Stmt, frame: Frame) -> None:
        """A while/repeat/for statement occurrence began."""

    def loop_iteration(self, stmt: ast.Stmt, frame: Frame, iteration: int) -> None:
        """Iteration ``iteration`` (1-based) of the loop body is starting."""

    def loop_exit(self, stmt: ast.Stmt, frame: Frame, iterations: int) -> None:
        """The loop occurrence finished after ``iterations`` body runs."""

    def trace_action(
        self, stmt: ast.ProcCall, frame: Frame, values: list[object]
    ) -> None:
        """An inserted ``gadt_*`` trace action executed."""

    def io_write(self, text: str) -> None:
        """The program wrote ``text`` to its output."""


#: Shared no-op hook instance used when execution is unobserved. Hot
#: paths additionally test ``self._hk is None`` so the fast path never
#: pays for a Python-level no-op call.
_NULL_HOOKS = ExecutionHooks()


class PascalIO:
    """Pluggable standard input/output for ``read``/``write``.

    ``inputs`` supplies values for ``read``; output is collected in
    ``output_chunks`` (joined by :attr:`text`).
    """

    def __init__(self, inputs: list[object] | None = None):
        self.inputs = list(inputs or [])
        self._cursor = 0
        self.output_chunks: list[str] = []

    def read_value(self, location: SourceLocation) -> object:
        if self._cursor >= len(self.inputs):
            raise PascalRuntimeError("read past end of input", location)
        value = self.inputs[self._cursor]
        self._cursor += 1
        return value

    def write(self, text: str) -> None:
        self.output_chunks.append(text)

    @property
    def text(self) -> str:
        return "".join(self.output_chunks)

    @property
    def lines(self) -> list[str]:
        text = self.text
        if text.endswith("\n"):
            text = text[:-1]
        return text.split("\n") if text else []


@dataclass
class ExecutionResult:
    """Outcome of running a whole program."""

    io: PascalIO
    globals_frame: Frame
    steps: int

    @property
    def output(self) -> str:
        return self.io.text

    def global_value(self, name: str) -> object:
        for symbol, cell in self.globals_frame.cells.items():
            if symbol.name == name:
                return cell.value
        raise KeyError(f"no global named {name!r}")


@dataclass
class UnitCallResult:
    """Outcome of calling one routine in isolation (testing / oracles)."""

    routine: str
    result: object = None
    out_values: dict[str, object] = field(default_factory=dict)
    globals_after: dict[str, object] = field(default_factory=dict)
    output: str = ""
    #: label name if the routine terminated through a global goto
    via_goto: str | None = None


#: maximum Pascal call depth. The tree-walking interpreter spends several
#: Python frames per Pascal frame, so execution temporarily raises the
#: Python recursion limit to keep this bound the one that fires.
_MAX_DEPTH = 150

#: wall-clock deadline checks fire when ``steps & _DEADLINE_MASK == 0``
#: (mirrors repro.resilience.budget.DEADLINE_CHECK_MASK; duplicated here
#: so the substrate stays free of upward imports)
_DEADLINE_MASK = 0x3FF

#: Pascal integers are bounded; we use 64-bit limits (far beyond the
#: paper-era 16/32-bit maxint, but still overflow-checked so runaway
#: arithmetic fails diagnosably instead of growing without bound).
MAX_INT = 2**63 - 1
MIN_INT = -(2**63)


class _RecursionHeadroom:
    """Context manager giving the interpreter Python-stack headroom."""

    def __enter__(self) -> None:
        import sys

        self._saved = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self._saved, 20_000))

    def __exit__(self, *exc_info) -> None:
        import sys

        sys.setrecursionlimit(self._saved)


class Interpreter:
    def __init__(
        self,
        analysis: AnalyzedProgram,
        io: PascalIO | None = None,
        hooks: ExecutionHooks | None = None,
        step_limit: int = 2_000_000,
        budget=None,
    ):
        self.analysis = analysis
        self.io = io if io is not None else PascalIO()
        self.hooks = hooks if hooks is not None else _NULL_HOOKS
        # A resource budget (repro.resilience.Budget) tightens the step
        # limit and call depth and adds a wall-clock deadline. The budget
        # is duck-typed — this module never imports the resilience layer,
        # keeping the substrate free of upward dependencies.
        if budget is not None:
            step_limit = budget.effective_step_limit(step_limit)
            self._max_depth = budget.effective_call_depth(_MAX_DEPTH)
            if budget.deadline_at is None:
                budget.start()
        else:
            self._max_depth = _MAX_DEPTH
        self._budget = budget
        self.step_limit = step_limit
        self.steps = 0
        self.globals_frame: Frame | None = None
        self._frames: list[Frame] = []
        # Null-hook fast path: a bare ExecutionHooks (or None) observes
        # nothing, so skip every callback. ``_hk`` is the single flag the
        # hot paths test; the per-statement wrapper is swapped wholesale.
        observed = hooks is not None and type(hooks) is not ExecutionHooks
        self._hk: ExecutionHooks | None = self.hooks if observed else None
        if not observed:
            self._exec_stmt = self._exec_stmt_fast  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # entry points

    def run(self) -> ExecutionResult:
        """Execute the whole program from its main body."""
        frame = self._make_globals_frame()
        hk = self._hk
        if hk is not None:
            hk.enter_routine(None, self.analysis.main, frame)
        via_goto: Symbol | None = None
        with _RecursionHeadroom():
            try:
                self._exec_stmt(self.analysis.main.block.body, frame)
            except GotoSignal as signal:
                raise PascalRuntimeError(
                    f"goto {signal.label.name} escaped the program", signal.location
                )
            finally:
                if hk is not None:
                    hk.exit_routine(self.analysis.main, frame, via_goto)
        return ExecutionResult(io=self.io, globals_frame=frame, steps=self.steps)

    def call_routine_by_name(
        self,
        name: str,
        args: list[object],
        globals_in: dict[str, object] | None = None,
    ) -> UnitCallResult:
        """Call one routine in isolation with concrete argument values.

        ``var``/``out`` arguments are given fresh cells seeded with the
        provided values; their final values come back in ``out_values``.
        Globals are default-initialized, then overridden by ``globals_in``.
        Used by the test-case runner and the reference oracle.
        """
        info = self.analysis.routine_named(name)
        globals_frame = self._make_globals_frame()
        if globals_in:
            by_name = {symbol.name: cell for symbol, cell in globals_frame.cells.items()}
            for global_name, value in globals_in.items():
                if global_name not in by_name:
                    raise KeyError(f"no global named {global_name!r}")
                by_name[global_name].value = copy_value(value)

        if len(args) != len(info.params):
            raise PascalRuntimeError(
                f"{name} expects {len(info.params)} argument(s), got {len(args)}"
            )
        arg_cells: list[Cell] = []
        bound: list[tuple[Symbol, Cell]] = []
        for param, value in zip(info.params, args):
            adapted = self._adapt_value(copy_value(value), param.type)
            cell = Cell(adapted, symbol=param)
            arg_cells.append(cell)
            bound.append((param, cell))
        via_goto: str | None = None
        with _RecursionHeadroom():
            try:
                result = self._run_routine_body(None, info, bound)
            except GotoSignal as signal:
                # An exit side effect escaping an isolated call: report it
                # as part of the outcome rather than crashing the caller.
                result = None
                via_goto = signal.label.name

        out_values = {
            param.name: copy_value(cell.value)
            for param, cell in zip(info.params, arg_cells)
            if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT)
        }
        globals_after = {
            symbol.name: copy_value(cell.value)
            for symbol, cell in globals_frame.cells.items()
        }
        return UnitCallResult(
            routine=name,
            result=result,
            out_values=out_values,
            globals_after=globals_after,
            output=self.io.text,
            via_goto=via_goto,
        )

    # ------------------------------------------------------------------
    # frames

    def _make_globals_frame(self) -> Frame:
        frame = Frame(routine=self.analysis.main)
        for symbol in self.analysis.main.locals:
            assert symbol.type is not None
            frame.cells[symbol] = Cell(default_value(symbol.type), symbol=symbol)
        self.globals_frame = frame
        self._frames = [frame]
        return frame

    def _lookup_cell(self, symbol: Symbol, frame: Frame) -> Cell:
        """Find the cell for a symbol visible from ``frame``.

        Walks the *static* chain: the current frame, then frames of
        enclosing routines on the call stack, then globals.
        """
        cell = frame.cells.get(symbol)
        if cell is not None:
            return cell
        if symbol.owner is None:
            assert self.globals_frame is not None
            cell = self.globals_frame.cells.get(symbol)
            if cell is not None:
                return cell
        else:
            # Non-local from an enclosing routine: nearest frame of the owner.
            for candidate in reversed(self._frames):
                if candidate.routine.symbol is symbol.owner:
                    cell = candidate.cells.get(symbol)
                    if cell is not None:
                        return cell
                    if (
                        candidate.result_cell is not None
                        and symbol.kind is SymbolKind.RESULT
                    ):
                        return candidate.result_cell
        raise PascalRuntimeError(f"no storage for {symbol.qualified_name}")

    # ------------------------------------------------------------------
    # routine calls

    def _call_routine(
        self, call: ast.Node, target: Symbol, args: list[ast.Expr], frame: Frame
    ) -> object:
        info = self.analysis.routines[target]
        bound: list[tuple[Symbol, Cell]] = []
        for param, arg in zip(target.params, args):
            if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT, ast.ParamMode.IN_):
                cell, index = self._resolve_reference(arg, frame)
                if index is not None:
                    raise PascalRuntimeError(
                        "array elements cannot be passed by reference", arg.location
                    )
                bound.append((param, cell))
            else:
                value = self._eval(arg, frame)
                adapted = self._adapt_value(copy_value(value), param.type)
                bound.append((param, Cell(adapted, symbol=param)))
        return self._run_routine_body(call, info, bound)

    def _run_routine_body(
        self,
        call: ast.Node | None,
        info: RoutineInfo,
        bound: list[tuple[Symbol, Cell]],
    ) -> object:
        if len(self._frames) >= self._max_depth:
            raise PascalRuntimeError(f"call depth exceeded in {info.name}")
        frame = Frame(routine=info, depth=len(self._frames))
        for param, cell in bound:
            frame.cells[param] = cell
        for local in info.locals:
            assert local.type is not None
            frame.cells[local] = Cell(default_value(local.type), symbol=local)
        if info.result_symbol is not None:
            frame.result_cell = Cell(UNDEFINED, symbol=info.result_symbol)

        self._frames.append(frame)
        hk = self._hk
        if hk is not None:
            hk.enter_routine(call, info, frame)
        via_goto: Symbol | None = None
        try:
            self._exec_stmt(info.block.body, frame)
        except GotoSignal as signal:
            via_goto = signal.label
            raise
        finally:
            if hk is not None:
                hk.exit_routine(info, frame, via_goto)
            self._frames.pop()

        if frame.result_cell is not None:
            if frame.result_cell.value is UNDEFINED:
                raise UndefinedValueError(
                    f"function {info.name} returned without assigning a result",
                    info.decl.location,
                )
            return frame.result_cell.value
        return None

    # ------------------------------------------------------------------
    # statements

    def _tick(self, stmt: ast.Stmt) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(
                f"execution exceeded {self.step_limit} steps", stmt.location
            )
        if self._budget is not None and (self.steps & _DEADLINE_MASK) == 0:
            self._budget.check(stmt.location)

    def _exec_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        """Traced statement dispatch (hooks observe every statement)."""
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(
                f"execution exceeded {self.step_limit} steps", stmt.location
            )
        if self._budget is not None and (self.steps & _DEADLINE_MASK) == 0:
            self._budget.check(stmt.location)
        handler = _STMT_DISPATCH.get(stmt.__class__)
        if handler is None:
            handler = _register_subclass(_STMT_DISPATCH, stmt, "execute")
        hooks = self.hooks
        hooks.before_stmt(stmt, frame)
        handler(self, stmt, frame)
        hooks.after_stmt(stmt, frame)

    def _exec_stmt_fast(self, stmt: ast.Stmt, frame: Frame) -> None:
        """Null-hook statement dispatch (installed as ``_exec_stmt`` when
        no observer is attached): no callback overhead at all."""
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(
                f"execution exceeded {self.step_limit} steps", stmt.location
            )
        if self._budget is not None and (self.steps & _DEADLINE_MASK) == 0:
            self._budget.check(stmt.location)
        handler = _STMT_DISPATCH.get(stmt.__class__)
        if handler is None:
            handler = _register_subclass(_STMT_DISPATCH, stmt, "execute")
        handler(self, stmt, frame)

    # individual statement handlers (dispatch table targets) -----------

    def _exec_empty(self, stmt: ast.EmptyStmt, frame: Frame) -> None:
        pass

    def _exec_compound(self, stmt: ast.Compound, frame: Frame) -> None:
        self._exec_stmt_list(stmt.statements, frame)

    def _exec_if(self, stmt: ast.If, frame: Frame) -> None:
        condition = self._eval(stmt.condition, frame)
        hk = self._hk
        if hk is not None:
            hk.branch(stmt, frame, condition)
        if condition:
            self._exec_stmt(stmt.then_branch, frame)
        elif stmt.else_branch is not None:
            self._exec_stmt(stmt.else_branch, frame)

    def _exec_goto(self, stmt: ast.Goto, frame: Frame) -> None:
        label = self.analysis.goto_target[stmt.node_id]
        raise GotoSignal(label, stmt.location)

    def _exec_stmt_list(self, statements: list[ast.Stmt], frame: Frame) -> None:
        # The label map is only consulted when a goto actually unwinds to
        # this list, so build it lazily inside the handler — the common
        # path pays nothing per list execution.
        labels = None
        position = 0
        while position < len(statements):
            try:
                self._exec_stmt(statements[position], frame)
            except GotoSignal as signal:
                if labels is None:
                    labels = {
                        stmt.label: index
                        for index, stmt in enumerate(statements)
                        if stmt.label is not None
                    }
                frame_owner = None if frame.routine.is_main else frame.routine.symbol
                if signal.label.owner is frame_owner and signal.label.name in labels:
                    position = labels[signal.label.name]
                    continue
                raise
            position += 1

    def _exec_assign(self, stmt: ast.Assign, frame: Frame) -> None:
        value = self._eval(stmt.value, frame)
        cell, index = self._resolve_reference(stmt.target, frame)
        self._store(cell, index, value, stmt.target)

    def _store(
        self, cell: Cell, index: int | None, value: object, target: ast.Expr
    ) -> None:
        if index is None:
            target_type = self.analysis.expr_type.get(target.node_id)
            if isinstance(target_type, ArrayTypeInfo):
                value = self._adapt_value(copy_value(value), target_type)
            cell.value = value
        else:
            array = cell.value
            if not isinstance(array, ArrayValue):
                raise PascalRuntimeError("indexed store into non-array", target.location)
            if not array.in_bounds(index):
                raise PascalRuntimeError(
                    f"index {index} out of bounds [{array.low}..{array.high}]",
                    target.location,
                )
            array.set(index, value)
        hk = self._hk
        if hk is not None:
            hk.cell_write(cell, index, value)

    def _exec_proc_call(self, stmt: ast.ProcCall, frame: Frame) -> None:
        if stmt.name in IO_PROCEDURES:
            self._exec_io(stmt, frame)
            return
        if stmt.name in TRACE_PROCEDURES:
            values = [
                self._eval(arg, frame)
                for arg in stmt.args
                if not isinstance(arg, ast.StringLiteral)
            ]
            hk = self._hk
            if hk is not None:
                hk.trace_action(stmt, frame, values)
            return
        target = self.analysis.call_target[stmt.node_id]
        self._call_routine(stmt, target, stmt.args, frame)

    def _exec_io(self, stmt: ast.ProcCall, frame: Frame) -> None:
        if stmt.name in ("write", "writeln"):
            hk = self._hk
            for arg in stmt.args:
                value = self._eval(arg, frame)
                text = value if isinstance(value, str) else format_value(value)
                self.io.write(text)
                if hk is not None:
                    hk.io_write(text)
            if stmt.name == "writeln":
                self.io.write("\n")
                if hk is not None:
                    hk.io_write("\n")
            return
        for arg in stmt.args:
            value = self.io.read_value(stmt.location)
            cell, index = self._resolve_reference(arg, frame)
            self._store(cell, index, value, arg)

    def _exec_while(self, stmt: ast.While, frame: Frame) -> None:
        hk = self._hk
        if hk is not None:
            hk.loop_enter(stmt, frame)
        iterations = 0
        try:
            while True:
                self._tick(stmt)
                condition = self._eval(stmt.condition, frame)
                if hk is not None:
                    hk.branch(stmt, frame, condition)
                if not condition:
                    break
                iterations += 1
                if hk is not None:
                    hk.loop_iteration(stmt, frame, iterations)
                self._exec_stmt(stmt.body, frame)
        finally:
            if hk is not None:
                hk.loop_exit(stmt, frame, iterations)

    def _exec_repeat(self, stmt: ast.Repeat, frame: Frame) -> None:
        hk = self._hk
        if hk is not None:
            hk.loop_enter(stmt, frame)
        iterations = 0
        try:
            while True:
                self._tick(stmt)
                iterations += 1
                if hk is not None:
                    hk.loop_iteration(stmt, frame, iterations)
                self._exec_stmt_list(stmt.body, frame)
                condition = self._eval(stmt.condition, frame)
                if hk is not None:
                    hk.branch(stmt, frame, condition)
                if condition:
                    break
        finally:
            if hk is not None:
                hk.loop_exit(stmt, frame, iterations)

    def _exec_for(self, stmt: ast.For, frame: Frame) -> None:
        symbol = self.analysis.for_symbol[stmt.node_id]
        cell = self._lookup_cell(symbol, frame)
        start = self._expect_int(self._eval(stmt.start, frame), stmt.start)
        stop = self._expect_int(self._eval(stmt.stop, frame), stmt.stop)
        hk = self._hk
        if hk is not None:
            hk.loop_enter(stmt, frame)
        iterations = 0
        try:
            step = -1 if stmt.downto else 1
            current = start
            while (current >= stop) if stmt.downto else (current <= stop):
                self._tick(stmt)
                iterations += 1
                cell.value = current
                if hk is not None:
                    hk.cell_write(cell, None, current)
                    hk.loop_iteration(stmt, frame, iterations)
                self._exec_stmt(stmt.body, frame)
                current += step
        finally:
            if hk is not None:
                hk.loop_exit(stmt, frame, iterations)

    # ------------------------------------------------------------------
    # expressions

    def _eval(self, expr: ast.Expr, frame: Frame) -> object:
        handler = _EXPR_DISPATCH.get(expr.__class__)
        if handler is None:
            handler = _register_subclass(_EXPR_DISPATCH, expr, "evaluate")
        return handler(self, expr, frame)

    def _eval_literal(self, expr: ast.Expr, frame: Frame) -> object:
        return expr.value  # type: ignore[attr-defined]

    def _eval_array_literal(self, expr: ast.ArrayLiteral, frame: Frame) -> object:
        return ArrayValue.from_values(
            self._eval(element, frame) for element in expr.elements
        )

    def _eval_var(self, expr: ast.VarRef, frame: Frame) -> object:
        symbol = self.analysis.ref_symbol[expr.node_id]
        if symbol.kind is SymbolKind.CONSTANT:
            return symbol.const_value
        cell = self._lookup_cell(symbol, frame)
        hk = self._hk
        if hk is not None:
            hk.cell_read(cell, None)
        if cell.value is UNDEFINED:
            raise UndefinedValueError(
                f"'{symbol.name}' used before assignment", expr.location
            )
        return cell.value

    def _eval_indexed(self, expr: ast.IndexedRef, frame: Frame) -> object:
        cell, index = self._resolve_reference(expr, frame)
        assert index is not None
        array = cell.value
        if not isinstance(array, ArrayValue):
            raise PascalRuntimeError("indexing a non-array value", expr.location)
        if not array.in_bounds(index):
            raise PascalRuntimeError(
                f"index {index} out of bounds [{array.low}..{array.high}]",
                expr.location,
            )
        hk = self._hk
        if hk is not None:
            hk.cell_read(cell, index)
        value = array.get(index)
        if value is UNDEFINED:
            raise UndefinedValueError(
                f"array element [{index}] used before assignment", expr.location
            )
        return value

    def _resolve_reference(
        self, expr: ast.Expr, frame: Frame
    ) -> tuple[Cell, int | None]:
        """Resolve an lvalue to (cell, element-index-or-None)."""
        if isinstance(expr, ast.VarRef):
            symbol = self.analysis.ref_symbol[expr.node_id]
            if symbol.kind is SymbolKind.CONSTANT:
                raise PascalRuntimeError(
                    f"'{symbol.name}' is a constant", expr.location
                )
            return self._lookup_cell(symbol, frame), None
        if isinstance(expr, ast.IndexedRef):
            cell, index = self._resolve_reference(expr.base, frame)
            if index is not None:
                raise PascalRuntimeError(
                    "multi-dimensional arrays are not supported", expr.location
                )
            element = self._expect_int(self._eval(expr.index, frame), expr.index)
            return cell, element
        raise PascalRuntimeError("expression is not a variable", expr.location)

    def _eval_func_call(self, expr: ast.FuncCall, frame: Frame) -> object:
        if expr.name in BUILTIN_FUNCTIONS:
            values = [
                self._expect_int(self._eval(arg, frame), arg) for arg in expr.args
            ]
            return self._eval_builtin_call(expr, values)
        target = self.analysis.call_target[expr.node_id]
        return self._call_routine(expr, target, expr.args, frame)

    @staticmethod
    def _check_overflow(value: int, expr: ast.Expr) -> int:
        if MIN_INT <= value <= MAX_INT:
            return value
        raise PascalRuntimeError("integer overflow", expr.location)

    def _eval_builtin_call(self, expr: ast.FuncCall, values: list[int]) -> object:
        result = self._eval_builtin(expr.name, values)
        if isinstance(result, bool) or not isinstance(result, int):
            return result
        return self._check_overflow(result, expr)

    @staticmethod
    def _eval_builtin(name: str, values: list[int]) -> object:
        if name == "abs":
            return abs(values[0])
        if name == "sqr":
            return values[0] * values[0]
        if name == "odd":
            return values[0] % 2 != 0
        if name == "min":
            return min(values[0], values[1])
        if name == "max":
            return max(values[0], values[1])
        raise PascalRuntimeError(f"unknown builtin {name}")

    def _eval_unary(self, expr: ast.UnaryOp, frame: Frame) -> object:
        value = self._eval(expr.operand, frame)
        if expr.op == "-":
            return -self._expect_int(value, expr.operand)
        if expr.op == "not":
            return not self._expect_bool(value, expr.operand)
        raise PascalRuntimeError(f"unknown unary operator {expr.op}", expr.location)

    def _eval_binary(self, expr: ast.BinaryOp, frame: Frame) -> object:
        op = expr.op
        # 'and'/'or' are evaluated eagerly, as in classic Pascal.
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if op in ("+", "-", "*", "div", "mod", "/"):
            a = self._expect_int(left, expr.left)
            b = self._expect_int(right, expr.right)
            if op == "+":
                return self._check_overflow(a + b, expr)
            if op == "-":
                return self._check_overflow(a - b, expr)
            if op == "*":
                return self._check_overflow(a * b, expr)
            if b == 0:
                raise PascalRuntimeError("division by zero", expr.location)
            quotient = abs(a) // abs(b)
            if (a >= 0) != (b >= 0):
                quotient = -quotient
            if op in ("div", "/"):
                return quotient
            return a - quotient * b  # mod
        if op == "and":
            return self._expect_bool(left, expr.left) and self._expect_bool(
                right, expr.right
            )
        if op == "or":
            return self._expect_bool(left, expr.left) or self._expect_bool(
                right, expr.right
            )
        if op in ("=", "<>"):
            equal = self._values_equal(left, right)
            return equal if op == "=" else not equal
        if op in ("<", "<=", ">", ">="):
            a = self._expect_int(left, expr.left)
            b = self._expect_int(right, expr.right)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        raise PascalRuntimeError(f"unknown operator {op}", expr.location)

    # ------------------------------------------------------------------
    # small helpers

    @staticmethod
    def _values_equal(left: object, right: object) -> bool:
        if isinstance(left, ArrayValue) and isinstance(right, ArrayValue):
            return left == right
        return left == right

    @staticmethod
    def _expect_int(value: object, expr: ast.Expr) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise PascalRuntimeError(
                f"expected an integer, got {format_value(value)}", expr.location
            )
        return value

    @staticmethod
    def _expect_bool(value: object, expr: ast.Expr) -> bool:
        if not isinstance(value, bool):
            raise PascalRuntimeError(
                f"expected a boolean, got {format_value(value)}", expr.location
            )
        return value

    def _adapt_value(self, value: object, target_type: object) -> object:
        """Widen an array-literal value to a larger declared array type."""
        if (
            isinstance(target_type, ArrayTypeInfo)
            and isinstance(value, ArrayValue)
            and (value.low, value.high) != (target_type.low, target_type.high)
        ):
            if len(value.elements) > target_type.length:
                raise PascalRuntimeError(
                    f"array value with {len(value.elements)} elements does not "
                    f"fit array[{target_type.low}..{target_type.high}]"
                )
            widened = ArrayValue(target_type.low, target_type.high)
            for offset, element in enumerate(value.elements):
                widened.elements[offset] = element
            return widened
        return value


# ----------------------------------------------------------------------
# dispatch tables
#
# Precomputed per-node-type tables replace the former ``isinstance``-elif
# chains: statement/expression dispatch is a single dict lookup on the
# node's concrete class. Unknown classes (e.g. an ast subclass defined by
# an extension) fall back to an ``isinstance`` scan once, then are
# memoized into the table.

_STMT_DISPATCH: dict[type, object] = {
    ast.EmptyStmt: Interpreter._exec_empty,
    ast.Compound: Interpreter._exec_compound,
    ast.Assign: Interpreter._exec_assign,
    ast.ProcCall: Interpreter._exec_proc_call,
    ast.If: Interpreter._exec_if,
    ast.While: Interpreter._exec_while,
    ast.Repeat: Interpreter._exec_repeat,
    ast.For: Interpreter._exec_for,
    ast.Goto: Interpreter._exec_goto,
}

_EXPR_DISPATCH: dict[type, object] = {
    ast.IntLiteral: Interpreter._eval_literal,
    ast.BoolLiteral: Interpreter._eval_literal,
    ast.StringLiteral: Interpreter._eval_literal,
    ast.VarRef: Interpreter._eval_var,
    ast.IndexedRef: Interpreter._eval_indexed,
    ast.ArrayLiteral: Interpreter._eval_array_literal,
    ast.FuncCall: Interpreter._eval_func_call,
    ast.UnaryOp: Interpreter._eval_unary,
    ast.BinaryOp: Interpreter._eval_binary,
}


def _register_subclass(table: dict[type, object], node: ast.Node, verb: str):
    """Memoize dispatch for an ast subclass not directly in the table."""
    for base, handler in list(table.items()):
        if isinstance(node, base):
            table[node.__class__] = handler
            return handler
    raise PascalRuntimeError(
        f"cannot {verb} {type(node).__name__}", node.location
    )


def run_source(
    source: str,
    inputs: list[object] | None = None,
    hooks: ExecutionHooks | None = None,
    step_limit: int = 2_000_000,
    budget=None,
    backend: str | None = None,
) -> ExecutionResult:
    """Parse, analyze, and run a program in one call.

    Analysis is served from the content-addressed cache (keyed on the
    source text), so repeated runs of the same program only pay for
    execution. ``budget`` (a :class:`repro.resilience.Budget`) adds a
    wall-clock deadline and tightens the step/depth limits; exhaustion
    raises :class:`repro.resilience.BudgetExceeded`.

    ``backend`` picks the execution engine (``"interp"`` |
    ``"compiled"``; ``None`` defers to ``REPRO_BACKEND``). Custom
    ``hooks`` force the interpreter — the hook protocol is exactly the
    indirection the compiled backend removes."""
    from repro.pascal.semantics import analyze_source

    analysis = analyze_source(source)
    if hooks is None:
        from repro.compile import resolve_backend

        if resolve_backend(backend) == "compiled":
            from repro.compile import run_compiled

            return run_compiled(
                analysis, io=PascalIO(inputs), step_limit=step_limit,
                budget=budget,
            )
    interpreter = Interpreter(
        analysis, io=PascalIO(inputs), hooks=hooks, step_limit=step_limit,
        budget=budget,
    )
    return interpreter.run()
