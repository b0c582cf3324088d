"""The mini-Pascal closure compiler (the compiled backend's front half).

One :class:`Compiler` pass walks the analyzed AST and emits a tree of
Python closures — one per statement/expression — specialized on
everything the analysis already knows: symbol→slot assignments, static
``up``-link hop counts for nested routines, operator identity, loop-unit
membership, binding plans. Two passes run per program (``traced=False``
and ``traced=True``), producing the two entry points bundled in
:class:`CompiledProgram`.

Traced closures carry their event emission *inline*: the statement
prologue (:func:`repro.compile.emit.enter_stmt`) allocates the
occurrence and its control edge, stores append writer ids into per-cell
maps, reads append data edges straight onto the occurrence's adjacency
list, and call/loop closures drive the session's activation methods.
There is no hook indirection anywhere on the hot path.

Conformance: closure bodies replicate the interpreter's handlers
statement-for-statement — same evaluation order, same step accounting
(statements tick before any hook-equivalent work; loop iterations tick
separately), same error messages/locations, same goto-unwinding
behavior (occurrence-stack pops are skipped while unwinding, statement
lists catch :class:`GotoSignal` for their own labels only).
"""

from __future__ import annotations

from repro.analysis.sideeffects import analyze_side_effects
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import PascalRuntimeError, UndefinedValueError
from repro.pascal.interpreter import Cell, GotoSignal
from repro.pascal.semantics import (
    AnalyzedProgram,
    IO_PROCEDURES,
    TRACE_PROCEDURES,
)
from repro.pascal.symbols import ArrayTypeInfo, SymbolKind
from repro.pascal.values import ArrayValue, UNDEFINED, copy_value, format_value
from repro.compile import ops
from repro.compile.emit import enter_stmt
from repro.compile.runtime import CFrame, adapt_value, tick
from repro.tracing.builder import UnitPlan, loop_plan, routine_plan


class CompiledProgram:
    """Both compiled forms of one analyzed program (plain and traced),
    plus everything a :class:`~repro.compile.runtime.Runtime` needs to
    set up a run. Holds a strong reference to its analysis so the
    ``id(analysis)``-keyed compile cache can never alias a reused id."""

    __slots__ = (
        "analysis",
        "side_effects",
        "loop_units",
        "global_symbols",
        "plain_main",
        "traced_main",
    )

    def __init__(self, analysis, side_effects, loop_units, plain_main, traced_main):
        self.analysis = analysis
        self.side_effects = side_effects
        self.loop_units = loop_units
        self.global_symbols = list(analysis.main.locals)
        self.plain_main = plain_main
        self.traced_main = traced_main


def compile_analysis(
    analysis: AnalyzedProgram, side_effects=None, loop_units=None
) -> CompiledProgram:
    """Compile an analyzed program into both backend forms."""
    if side_effects is None:
        side_effects = analyze_side_effects(analysis)
    loop_units = dict(loop_units) if loop_units else {}
    plain_main = Compiler(analysis, side_effects, loop_units, traced=False).compile_main()
    traced_main = Compiler(analysis, side_effects, loop_units, traced=True).compile_main()
    return CompiledProgram(analysis, side_effects, loop_units, plain_main, traced_main)


def _lex_depth(routine_symbol) -> int:
    """Lexical nesting depth of a routine (top-level = 0)."""
    depth = 0
    owner = routine_symbol.owner
    while owner is not None:
        depth += 1
        owner = owner.owner
    return depth


class _Layout:
    """Slot assignment for one routine's frame: parameters, then locals,
    then (for functions) the result cell."""

    __slots__ = ("slot_of", "local_symbols", "result_slot", "lex_depth")

    def __init__(self, info):
        slot_of = {}
        index = 0
        for param in info.params:
            slot_of[param] = index
            index += 1
        self.local_symbols = list(info.locals)
        for local in self.local_symbols:
            slot_of[local] = index
            index += 1
        self.result_slot = None
        if info.result_symbol is not None:
            slot_of[info.result_symbol] = index
            self.result_slot = index
        self.slot_of = slot_of
        self.lex_depth = _lex_depth(info.symbol)


class _Ctx:
    """Where a statement is being compiled: which routine (``owner`` is
    None for the main body) and at what lexical depth."""

    __slots__ = ("info", "owner", "lex_depth")

    def __init__(self, info, owner, lex_depth):
        self.info = info
        self.owner = owner
        self.lex_depth = lex_depth


def _local_cell_factory(symbol):
    value_type = symbol.type
    if isinstance(value_type, ArrayTypeInfo):
        low, high = value_type.low, value_type.high
        from repro.pascal.values import ArrayValue

        return lambda: Cell(ArrayValue(low, high), symbol)
    return lambda: Cell(UNDEFINED, symbol)


class Compiler:
    def __init__(self, analysis, side_effects, loop_units, traced: bool):
        self.analysis = analysis
        self.side_effects = side_effects
        self.loop_units = loop_units
        self.traced = traced
        self.global_slot: dict = {}
        self.layouts: dict = {}
        self.body_refs: dict = {}
        self.plans: dict = {}

    # ------------------------------------------------------------------
    # program assembly

    def compile_main(self):
        main = self.analysis.main
        for index, symbol in enumerate(main.locals):
            self.global_slot[symbol] = index
        routines = [
            (symbol, info)
            for symbol, info in self.analysis.routines.items()
            if not info.is_main
        ]
        for symbol, info in routines:
            self.layouts[symbol] = _Layout(info)
            self.body_refs[symbol] = [None]
        for symbol, info in routines:
            ctx = _Ctx(info, owner=symbol, lex_depth=self.layouts[symbol].lex_depth)
            self.body_refs[symbol][0] = self.compile_stmt(ctx, info.block.body)
        main_ctx = _Ctx(main, owner=None, lex_depth=0)
        return self.compile_stmt(main_ctx, main.block.body)

    # ------------------------------------------------------------------
    # storage access

    def cell_accessor(self, ctx: _Ctx, symbol):
        """Compile symbol access to a ``(rt, frame) -> Cell`` closure:
        a globals-slab index, an own-frame slot, or a static-link walk."""
        owner = symbol.owner
        if owner is None:
            index = self.global_slot[symbol]
            return lambda rt, f: rt.gslots[index]
        layout = self.layouts[owner]
        index = layout.slot_of[symbol]
        hops = ctx.lex_depth - layout.lex_depth
        if hops == 0:
            return lambda rt, f: f.slots[index]
        if hops == 1:
            return lambda rt, f: f.up.slots[index]

        def walk(rt, f):
            frame = f
            remaining = hops
            while remaining:
                frame = frame.up
                remaining -= 1
            return frame.slots[index]

        return walk

    def _up_getter(self, ctx: _Ctx, target):
        """Static link for a frame of ``target`` created from ``ctx``."""
        owner = target.owner
        if owner is None:
            return lambda f: None
        hops = ctx.lex_depth - self.layouts[owner].lex_depth
        if hops == 0:
            return lambda f: f
        if hops == 1:
            return lambda f: f.up

        def walk(f):
            frame = f
            remaining = hops
            while remaining:
                frame = frame.up
                remaining -= 1
            return frame

        return walk

    # ------------------------------------------------------------------
    # binding plans (traced mode)

    def bind_plan(self, ctx: _Ctx, plan: UnitPlan) -> UnitPlan:
        """Map each planned symbol to its slot accessor from ``ctx``;
        None when the symbol has no storage reachable there (the builder
        snapshots such bindings as UNDEFINED rather than failing)."""

        def accessor_of(symbol):
            try:
                return self.cell_accessor(ctx, symbol)
            except KeyError:
                return None

        return plan.bind(accessor_of)

    def loop_unit_plan(self, ctx: _Ctx, stmt_id: int) -> UnitPlan | None:
        """The bound plan of the loop unit at ``stmt_id``, if it is one."""
        unit = self.loop_units.get(stmt_id)
        return None if unit is None else self.bind_plan(ctx, loop_plan(unit))

    def plan_of(self, target) -> UnitPlan:
        plan = self.plans.get(target)
        if plan is None:
            callee_ctx = _Ctx(
                self.analysis.routines[target],
                owner=target,
                lex_depth=self.layouts[target].lex_depth,
            )
            plan = self.plans[target] = self.bind_plan(
                callee_ctx, routine_plan(self.analysis, self.side_effects, target)
            )
        return plan

    # ------------------------------------------------------------------
    # calls

    def compile_call(self, ctx: _Ctx, call, args):
        """Compile a routine call (procedure statement body or function
        expression) to a ``(rt, frame) -> result`` closure."""
        target = self.analysis.call_target[call.node_id]
        info = self.analysis.routines[target]
        layout = self.layouts[target]
        body_ref = self.body_refs[target]
        binders = [
            self._param_binder(ctx, param, arg)
            for param, arg in zip(info.params, args)
        ]
        up_getter = self._up_getter(ctx, target)
        local_factories = [
            _local_cell_factory(symbol) for symbol in layout.local_symbols
        ]
        result_slot = layout.result_slot
        result_symbol = info.result_symbol
        name = info.name
        decl_location = info.decl.location

        if not self.traced:

            def run_call_plain(rt, f):
                slots = [binder(rt, f) for binder in binders]
                if rt.depth >= rt.max_depth:
                    raise PascalRuntimeError(f"call depth exceeded in {name}")
                for make in local_factories:
                    slots.append(make())
                if result_slot is not None:
                    slots.append(Cell(UNDEFINED, result_symbol))
                frame = CFrame(slots, up_getter(f))
                rt.depth += 1
                try:
                    body_ref[0](rt, frame)
                finally:
                    rt.depth -= 1
                if result_slot is not None:
                    value = slots[result_slot].value
                    if value is UNDEFINED:
                        raise UndefinedValueError(
                            f"function {name} returned without assigning a result",
                            decl_location,
                        )
                    return value
                return None

            return run_call_plain

        plan = self.plan_of(target)
        call_site_id = call.node_id

        def run_call(rt, f):
            slots = [binder(rt, f) for binder in binders]
            if rt.depth >= rt.max_depth:
                raise PascalRuntimeError(f"call depth exceeded in {name}")
            for make in local_factories:
                slots.append(make())
            result_cell = None
            if result_slot is not None:
                result_cell = Cell(UNDEFINED, result_symbol)
                slots.append(result_cell)
            frame = CFrame(slots, up_getter(f))
            rt.depth += 1
            # The formals are the first slots.
            rt.enter_call(plan, frame, call_site_id, slots)
            via_goto = None
            try:
                body_ref[0](rt, frame)
            except GotoSignal as signal:
                via_goto = signal.label
                raise
            finally:
                rt.exit_call(plan, frame, via_goto, result_cell)
                rt.depth -= 1
            if result_cell is not None:
                value = result_cell.value
                if value is UNDEFINED:
                    raise UndefinedValueError(
                        f"function {name} returned without assigning a result",
                        decl_location,
                    )
                return value
            return None

        return run_call

    def _param_binder(self, ctx: _Ctx, param, arg):
        """Compile one argument to a ``(rt, f) -> Cell`` closure."""
        if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT, ast.ParamMode.IN_):
            if isinstance(arg, ast.VarRef):
                symbol = self.analysis.ref_symbol[arg.node_id]
                if symbol.kind is SymbolKind.CONSTANT:
                    const_name = symbol.name
                    location = arg.location

                    def constant_ref(rt, f):
                        raise PascalRuntimeError(
                            f"'{const_name}' is a constant", location
                        )

                    return constant_ref
                return self.cell_accessor(ctx, symbol)
            resolver = ops.compile_resolver(self, ctx, arg)
            location = arg.location

            def element_ref(rt, f):
                cell, index = resolver(rt, f)
                if index is not None:
                    raise PascalRuntimeError(
                        "array elements cannot be passed by reference", location
                    )
                return cell

            return element_ref
        evaluate = ops.compile_expr(self, ctx, arg)
        param_type = param.type
        if isinstance(param_type, ArrayTypeInfo):

            def bind_array_value(rt, f):
                return Cell(
                    adapt_value(copy_value(evaluate(rt, f)), param_type), param
                )

            return bind_array_value

        def bind_value(rt, f):
            return Cell(evaluate(rt, f), param)

        return bind_value

    # ------------------------------------------------------------------
    # stores

    def compile_store(self, ctx: _Ctx, target):
        """Compile an lvalue to a ``(rt, f, value) -> None`` store closure
        (resolution happens at store time, i.e. after the assigned value
        was computed — the interpreter's order)."""
        if isinstance(target, ast.VarRef):
            symbol = self.analysis.ref_symbol[target.node_id]
            if symbol.kind is SymbolKind.CONSTANT:
                const_name = symbol.name
                location = target.location

                def constant_store(rt, f, value):
                    raise PascalRuntimeError(
                        f"'{const_name}' is a constant", location
                    )

                return constant_store
            acc = self.cell_accessor(ctx, symbol)
            target_type = self.analysis.expr_type.get(target.node_id)
            adapts = isinstance(target_type, ArrayTypeInfo)
            if not self.traced:
                if adapts:

                    def store_plain_array(rt, f, value):
                        acc(rt, f).value = adapt_value(copy_value(value), target_type)

                    return store_plain_array

                def store_plain(rt, f, value):
                    acc(rt, f).value = value

                return store_plain
            if adapts:

                def store_array(rt, f, value):
                    cell = acc(rt, f)
                    cell.value = adapt_value(copy_value(value), target_type)
                    ost = rt.occ_stack
                    if ost:
                        writers = cell.writers
                        if writers is None:
                            cell.writers = {None: ost[-1]}
                        else:
                            # A whole write supersedes element writes.
                            writers.clear()
                            writers[None] = ost[-1]

                return store_array

            def store(rt, f, value):
                cell = acc(rt, f)
                cell.value = value
                ost = rt.occ_stack
                if ost:
                    writers = cell.writers
                    if writers is None:
                        cell.writers = {None: ost[-1]}
                    else:
                        writers.clear()
                        writers[None] = ost[-1]

            return store

        if isinstance(target, ast.IndexedRef):
            resolver = ops.compile_resolver(self, ctx, target)
            location = target.location
            if not self.traced:

                def store_element_plain(rt, f, value):
                    cell, index = resolver(rt, f)
                    array = cell.value
                    if not isinstance(array, ArrayValue):
                        raise PascalRuntimeError(
                            "indexed store into non-array", location
                        )
                    if not (array.low <= index <= array.high):
                        raise PascalRuntimeError(
                            f"index {index} out of bounds [{array.low}..{array.high}]",
                            location,
                        )
                    array.elements[index - array.low] = value

                return store_element_plain

            def store_element(rt, f, value):
                cell, index = resolver(rt, f)
                array = cell.value
                if not isinstance(array, ArrayValue):
                    raise PascalRuntimeError("indexed store into non-array", location)
                if not (array.low <= index <= array.high):
                    raise PascalRuntimeError(
                        f"index {index} out of bounds [{array.low}..{array.high}]",
                        location,
                    )
                array.elements[index - array.low] = value
                ost = rt.occ_stack
                if ost:
                    writers = cell.writers
                    if writers is None:
                        cell.writers = {index: ost[-1]}
                    else:
                        writers[index] = ost[-1]

            return store_element

        location = target.location

        def bad_store(rt, f, value):
            raise PascalRuntimeError("expression is not a variable", location)

        return bad_store

    # ------------------------------------------------------------------
    # statements

    def compile_stmt(self, ctx: _Ctx, stmt):
        factory = self._STMT_FACTORIES.get(stmt.__class__)
        if factory is None:
            for klass, candidate in list(self._STMT_FACTORIES.items()):
                if isinstance(stmt, klass):
                    self._STMT_FACTORIES[stmt.__class__] = candidate
                    factory = candidate
                    break
            else:
                raise PascalRuntimeError(
                    f"cannot execute {type(stmt).__name__}", stmt.location
                )
        return factory(self, ctx, stmt)

    def compile_stmt_list(self, ctx: _Ctx, statements):
        closures = [self.compile_stmt(ctx, stmt) for stmt in statements]
        labels = {
            stmt.label: position
            for position, stmt in enumerate(statements)
            if stmt.label is not None
        }
        count = len(closures)
        if not labels:
            if count == 1:
                return closures[0]

            def run_list(rt, f):
                for closure in closures:
                    closure(rt, f)

            return run_list
        frame_owner = ctx.owner

        def run_list_with_labels(rt, f):
            position = 0
            while position < count:
                try:
                    closures[position](rt, f)
                except GotoSignal as signal:
                    label = signal.label
                    if label.owner is frame_owner and label.name in labels:
                        position = labels[label.name]
                        continue
                    raise
                position += 1

        return run_list_with_labels

    def _stmt_empty(self, ctx: _Ctx, stmt):
        location = stmt.location
        if not self.traced:
            _tick = tick

            def empty_plain(rt, f):
                _tick(rt, location)

            return empty_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def empty(rt, f):
            enter(rt, stmt_id, line, location)
            rt.occ_stack.pop()

        return empty

    def _stmt_compound(self, ctx: _Ctx, stmt):
        body = self.compile_stmt_list(ctx, stmt.statements)
        location = stmt.location
        if not self.traced:
            _tick = tick

            def compound_plain(rt, f):
                _tick(rt, location)
                body(rt, f)

            return compound_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def compound(rt, f):
            enter(rt, stmt_id, line, location)
            body(rt, f)
            rt.occ_stack.pop()

        return compound

    def _stmt_assign(self, ctx: _Ctx, stmt):
        evaluate = ops.compile_expr(self, ctx, stmt.value)
        store = self.compile_store(ctx, stmt.target)
        location = stmt.location
        if not self.traced:
            _tick = tick

            def assign_plain(rt, f):
                _tick(rt, location)
                store(rt, f, evaluate(rt, f))

            return assign_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def assign(rt, f):
            enter(rt, stmt_id, line, location)
            store(rt, f, evaluate(rt, f))
            rt.occ_stack.pop()

        return assign

    def _stmt_if(self, ctx: _Ctx, stmt):
        condition = ops.compile_expr(self, ctx, stmt.condition)
        then_closure = self.compile_stmt(ctx, stmt.then_branch)
        else_closure = (
            self.compile_stmt(ctx, stmt.else_branch)
            if stmt.else_branch is not None
            else None
        )
        location = stmt.location
        if not self.traced:
            _tick = tick
            if else_closure is None:

                def if_plain(rt, f):
                    _tick(rt, location)
                    if condition(rt, f):
                        then_closure(rt, f)

                return if_plain

            def if_else_plain(rt, f):
                _tick(rt, location)
                if condition(rt, f):
                    then_closure(rt, f)
                else:
                    else_closure(rt, f)

            return if_else_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line
        if else_closure is None:

            def if_stmt(rt, f):
                enter(rt, stmt_id, line, location)
                if condition(rt, f):
                    then_closure(rt, f)
                rt.occ_stack.pop()

            return if_stmt

        def if_else(rt, f):
            enter(rt, stmt_id, line, location)
            if condition(rt, f):
                then_closure(rt, f)
            else:
                else_closure(rt, f)
            rt.occ_stack.pop()

        return if_else

    def _stmt_goto(self, ctx: _Ctx, stmt):
        label = self.analysis.goto_target[stmt.node_id]
        location = stmt.location
        if not self.traced:
            _tick = tick

            def goto_plain(rt, f):
                _tick(rt, location)
                raise GotoSignal(label, location)

            return goto_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def goto(rt, f):
            enter(rt, stmt_id, line, location)
            raise GotoSignal(label, location)

        return goto

    def _stmt_proc_call(self, ctx: _Ctx, stmt):
        if stmt.name in IO_PROCEDURES:
            return self._stmt_io(ctx, stmt)
        if stmt.name in TRACE_PROCEDURES:
            return self._stmt_trace_action(ctx, stmt)
        call = self.compile_call(ctx, stmt, stmt.args)
        location = stmt.location
        if not self.traced:
            _tick = tick

            def proc_call_plain(rt, f):
                _tick(rt, location)
                call(rt, f)

            return proc_call_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def proc_call(rt, f):
            enter(rt, stmt_id, line, location)
            call(rt, f)
            rt.occ_stack.pop()

        return proc_call

    def _stmt_trace_action(self, ctx: _Ctx, stmt):
        evaluators = [
            ops.compile_expr(self, ctx, arg)
            for arg in stmt.args
            if not isinstance(arg, ast.StringLiteral)
        ]
        location = stmt.location
        if not self.traced:
            _tick = tick

            def trace_action_plain(rt, f):
                _tick(rt, location)
                for evaluate in evaluators:
                    evaluate(rt, f)

            return trace_action_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def trace_action(rt, f):
            enter(rt, stmt_id, line, location)
            for evaluate in evaluators:
                evaluate(rt, f)
            rt.occ_stack.pop()

        return trace_action

    def _stmt_io(self, ctx: _Ctx, stmt):
        location = stmt.location
        if stmt.name in ("write", "writeln"):
            evaluators = [ops.compile_expr(self, ctx, arg) for arg in stmt.args]
            newline = stmt.name == "writeln"
            if not self.traced:
                _tick = tick
                _format = format_value

                def write_plain(rt, f):
                    _tick(rt, location)
                    chunks = rt.io.output_chunks
                    for evaluate in evaluators:
                        value = evaluate(rt, f)
                        chunks.append(
                            value if isinstance(value, str) else _format(value)
                        )
                    if newline:
                        chunks.append("\n")

                return write_plain
            enter = enter_stmt
            stmt_id = stmt.node_id
            line = location.line
            _format = format_value

            def write(rt, f):
                enter(rt, stmt_id, line, location)
                ost = rt.occ_stack
                current = ost[-1]
                chunks = rt.io.output_chunks
                print_occs = rt.print_occs
                for evaluate in evaluators:
                    value = evaluate(rt, f)
                    chunks.append(value if isinstance(value, str) else _format(value))
                    print_occs.add(current)
                if newline:
                    chunks.append("\n")
                    print_occs.add(current)
                ost.pop()

            return write
        # read / readln
        stores = [self.compile_store(ctx, arg) for arg in stmt.args]
        if not self.traced:
            _tick = tick

            def read_plain(rt, f):
                _tick(rt, location)
                read_value = rt.io.read_value
                for store in stores:
                    store(rt, f, read_value(location))

            return read_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line

        def read(rt, f):
            enter(rt, stmt_id, line, location)
            read_value = rt.io.read_value
            for store in stores:
                store(rt, f, read_value(location))
            rt.occ_stack.pop()

        return read

    # ------------------------------------------------------------------
    # loops

    def _stmt_while(self, ctx: _Ctx, stmt):
        condition = ops.compile_expr(self, ctx, stmt.condition)
        body = self.compile_stmt(ctx, stmt.body)
        location = stmt.location
        _tick = tick
        if not self.traced:

            def while_plain(rt, f):
                _tick(rt, location)
                while True:
                    _tick(rt, location)
                    if not condition(rt, f):
                        break
                    body(rt, f)

            return while_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line
        plan = self.loop_unit_plan(ctx, stmt_id)

        def while_stmt(rt, f):
            enter(rt, stmt_id, line, location)
            if plan is not None:
                rt.enter_loop(plan, f)
            iterations = 0
            try:
                while True:
                    _tick(rt, location)
                    if not condition(rt, f):
                        break
                    if plan is not None:
                        iterations += 1
                        rt.next_iteration(plan, f, iterations)
                    body(rt, f)
            finally:
                if plan is not None:
                    rt.exit_loop(plan, f)
            rt.occ_stack.pop()

        return while_stmt

    def _stmt_repeat(self, ctx: _Ctx, stmt):
        body = self.compile_stmt_list(ctx, stmt.body)
        condition = ops.compile_expr(self, ctx, stmt.condition)
        location = stmt.location
        _tick = tick
        if not self.traced:

            def repeat_plain(rt, f):
                _tick(rt, location)
                while True:
                    _tick(rt, location)
                    body(rt, f)
                    if condition(rt, f):
                        break

            return repeat_plain
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line
        plan = self.loop_unit_plan(ctx, stmt_id)

        def repeat_stmt(rt, f):
            enter(rt, stmt_id, line, location)
            if plan is not None:
                rt.enter_loop(plan, f)
            iterations = 0
            try:
                while True:
                    _tick(rt, location)
                    if plan is not None:
                        iterations += 1
                        rt.next_iteration(plan, f, iterations)
                    body(rt, f)
                    if condition(rt, f):
                        break
            finally:
                if plan is not None:
                    rt.exit_loop(plan, f)
            rt.occ_stack.pop()

        return repeat_stmt

    def _stmt_for(self, ctx: _Ctx, stmt):
        symbol = self.analysis.for_symbol[stmt.node_id]
        acc = self.cell_accessor(ctx, symbol)
        start_ev = ops.compile_expr(self, ctx, stmt.start)
        stop_ev = ops.compile_expr(self, ctx, stmt.stop)
        start_loc = stmt.start.location
        stop_loc = stmt.stop.location
        location = stmt.location
        step = -1 if stmt.downto else 1
        if stmt.downto:
            keeps_going = lambda current, stop: current >= stop  # noqa: E731
        else:
            keeps_going = lambda current, stop: current <= stop  # noqa: E731
        _tick = tick
        _expect_int = ops.expect_int
        if not self.traced:

            def for_plain(rt, f):
                _tick(rt, location)
                cell = acc(rt, f)
                start = start_ev(rt, f)
                if type(start) is not int:
                    start = _expect_int(start, start_loc)
                stop = stop_ev(rt, f)
                if type(stop) is not int:
                    stop = _expect_int(stop, stop_loc)
                current = start
                while keeps_going(current, stop):
                    _tick(rt, location)
                    cell.value = current
                    body(rt, f)
                    current += step

            body = self.compile_stmt(ctx, stmt.body)
            return for_plain
        body = self.compile_stmt(ctx, stmt.body)
        enter = enter_stmt
        stmt_id = stmt.node_id
        line = location.line
        plan = self.loop_unit_plan(ctx, stmt_id)

        def for_stmt(rt, f):
            enter(rt, stmt_id, line, location)
            cell = acc(rt, f)
            start = start_ev(rt, f)
            if type(start) is not int:
                start = _expect_int(start, start_loc)
            stop = stop_ev(rt, f)
            if type(stop) is not int:
                stop = _expect_int(stop, stop_loc)
            ost = rt.occ_stack
            if plan is not None:
                rt.enter_loop(plan, f)
            iterations = 0
            try:
                current = start
                while keeps_going(current, stop):
                    _tick(rt, location)
                    cell.value = current
                    writers = cell.writers
                    if writers is None:
                        cell.writers = {None: ost[-1]}
                    else:
                        writers.clear()
                        writers[None] = ost[-1]
                    if plan is not None:
                        iterations += 1
                        rt.next_iteration(plan, f, iterations)
                    body(rt, f)
                    current += step
            finally:
                if plan is not None:
                    rt.exit_loop(plan, f)
            ost.pop()

        return for_stmt


Compiler._STMT_FACTORIES = {
    ast.EmptyStmt: Compiler._stmt_empty,
    ast.Compound: Compiler._stmt_compound,
    ast.Assign: Compiler._stmt_assign,
    ast.ProcCall: Compiler._stmt_proc_call,
    ast.If: Compiler._stmt_if,
    ast.While: Compiler._stmt_while,
    ast.Repeat: Compiler._stmt_repeat,
    ast.For: Compiler._stmt_for,
    ast.Goto: Compiler._stmt_goto,
}
