"""Spans around the calls into each layer, recorded from the benchmark.

A traced run replaces the public entry point of each layer with a timing
wrapper (every module that imported the function gets the wrapper, and
methods are wrapped on their class), runs the sessions, and puts the
originals back. Spans stay in memory until the run ends.

Attribution: a layer's time is the self time of its spans (duration
less the spans it called), except for the layers in ``OPAQUE``, whose
whole duration counts, callees included: building the reference oracle
transforms and traces the fixed program, and that cost belongs to the
oracle, not to the session's own transform and trace. What no layer
span covers inside a session is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

#: (span name, module, attribute path) of each wrapped entry point
ENTRY_POINTS = (
    ("pascal.analyze", "repro.pascal.semantics", "analyze_source"),
    ("transform.transform", "repro.transform.pipeline", "transform_source"),
    ("compile.compile", "repro.compile", "compile_program"),
    ("tracing.trace", "repro.tracing.tracer", "trace_program"),
    ("core.present", "repro.core.presentation", "present_tree"),
    ("oracle.build", "repro.core.oracle", "ReferenceOracle.from_source"),
    ("oracle.answer", "repro.core.oracle", "ReferenceOracle.answer"),
    ("core.debug", "repro.core.algorithmic", "AlgorithmicDebugger.debug"),
    ("tgen.lookup", "repro.tgen.lookup", "TestCaseLookup.consult"),
    ("mutants.screen", "repro.pascal.interpreter", "run_source"),
)

#: layers whose spans absorb the spans they call
OPAQUE = frozenset(
    {"oracle.build", "oracle.answer", "tgen.lookup", "core.present", "cli.render"}
)

#: the spans that open a unit of sessions; their self time is unattributed
ROOTS = frozenset({"session", "batch"})


def _trace_counts(result) -> dict:
    return {
        "tree_nodes": result.tree.size(),
        "occurrences": len(result.dependence_graph),
    }


def _debug_counts(result) -> dict:
    return {
        "slices": result.slices,
        "test_db_answers": result.queries_by_source.get("test-db", 0),
    }


#: attributes recorded from an entry point's return value
_RESULT_ATTRS = {"tracing.trace": _trace_counts, "core.debug": _debug_counts}


class SpanRecorder:
    """In-memory spans: ``[session, name, parent, start, end, unit, attrs]``.

    ``unit`` is the unit of work (between two kernel samples) the span
    ran in, which fixes the factor that converts it to reference seconds.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.session: int | None = None
        self.unit: int | None = None
        self._next_session = 0

    @contextmanager
    def span(self, name: str, new_session: bool = False):
        prior_session = self.session
        if new_session:
            self.session = self._next_session
            self._next_session += 1
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [self.session, name, parent, time.perf_counter(), None, self.unit, {}]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record[6]
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()
            self.session = prior_session

    def wrap(self, name: str, function, new_session: bool = False):
        describe = _RESULT_ATTRS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name, new_session=new_session) as attrs:
                result = function(*args, **kwargs)
            if describe is not None:
                attrs.update(describe(result))
            return result

        return wrapper

    def count(self, name: str) -> int:
        return sum(1 for record in self.spans if record[1] == name)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, (session, name, parent, start, end, unit, attrs) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "session": session,
                            "parent": parent,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            **attrs,
                        }
                    )
                    + "\n"
                )

    def attribute(self, factors: dict[int, float], depth: int | None = None) -> tuple[dict, dict]:
        """Per-layer reference seconds and per-layer counts.

        Times are self times (``OPAQUE`` layers: whole durations); counts
        are span counts plus the attributes recorded from results, over
        spans not folded into an opaque caller. ``depth`` keeps only the
        sessions on call trees of that depth.
        """
        children: dict[int | None, list[int]] = {}
        for index, record in enumerate(self.spans):
            children.setdefault(record[2], []).append(index)
        seconds: dict[str, float] = {}
        counts: dict[str, float] = {}

        def duration(index: int) -> float:
            record = self.spans[index]
            return (record[4] - record[3]) * factors[record[5]]

        def visit(index: int) -> None:
            record = self.spans[index]
            name = record[1]
            counts[name] = counts.get(name, 0) + 1
            for key, value in record[6].items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            own = duration(index)
            if name in OPAQUE:
                seconds[name] = seconds.get(name, 0.0) + own
                return
            called = children.get(index, [])
            seconds[name] = seconds.get(name, 0.0) + own - sum(
                duration(child) for child in called
            )
            for child in called:
                visit(child)

        for root in children.get(None, []):
            if depth is None or self.spans[root][6].get("depth") == depth:
                visit(root)
        return seconds, counts


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Attributes replaced by wrappers while installed; ``uninstall``
    puts the originals back."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, owner, attr: str, wrapped) -> None:
        """Replace ``owner.attr`` (a module or class attribute, taken raw,
        so a classmethod's wrapper must be a classmethod) by ``wrapped``."""
        self._patches.append((owner, attr, vars(owner)[attr], wrapped))

    def install(self) -> None:
        for owner, attr, _raw, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _wrapped in self._patches:
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


class Instrumentation(Patches):
    """The entry-point wrappers of one recorder."""

    def __init__(self, recorder: SpanRecorder, extra_modules=()) -> None:
        super().__init__()
        for name, module_name, path in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                # a method: wrap it once, on its class
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(name, raw.__func__))
                else:
                    wrapped = recorder.wrap(name, raw)
                self.add(owner, attr, wrapped)
                continue
            # a function: replace every module-level binding of it
            wrapped = recorder.wrap(name, raw)
            modules = [
                module
                for module_key, module in list(sys.modules.items())
                if module_key == "repro" or module_key.startswith("repro.")
            ]
            for module in [*modules, *extra_modules]:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self.add(module, key, wrapped)
