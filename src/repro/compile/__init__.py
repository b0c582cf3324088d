"""``repro.compile`` — the compiled execution backend.

Compiles a mini-Pascal :class:`~repro.pascal.semantics.AnalyzedProgram`
into Python closures once, then runs the closures with trace events
emitted inline (see :mod:`repro.compile.compiler` and
:mod:`repro.compile.emit`). The tree-walking interpreter in
:mod:`repro.pascal.interpreter` stays as the conformance oracle; both
backends sit behind ``run_source(..., backend=...)`` /
``trace_source(..., backend=...)`` and the CLI's ``--backend`` flag,
with the ``REPRO_BACKEND`` environment variable as the process default.

Compiled programs are content-addressed in :mod:`repro.cache` (cache
name ``"compile"``): within a process, re-tracing the same analyzed
program — the mutant sweep's hot pattern is hundreds of traces over a
handful of programs — skips compilation entirely. The cache is marked
non-persistable: closures capture symbol objects and analysis tables by
identity, so they are meaningless outside the process that built them.
"""

from __future__ import annotations

import os

from repro import cache, obs

BACKENDS = ("interp", "compiled")
ENV_VAR = "REPRO_BACKEND"

_COMPILE_CACHE = cache.register("compile", max_entries=64, persistable=False)


def default_backend() -> str:
    """The process-wide default backend (``REPRO_BACKEND`` or interp)."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return "interp"
    backend = raw.strip().lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"invalid {ENV_VAR}={raw!r}: expected one of {', '.join(BACKENDS)}"
        )
    return backend


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit backend choice, or fall back to the default."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {', '.join(BACKENDS)}"
        )
    return backend


def _loop_fingerprint(loop_units) -> tuple:
    """A hashable identity for the loop-unit registration, which changes
    the traced code the compiler emits."""
    if not loop_units:
        return ()
    return tuple(
        sorted(
            (
                stmt_id,
                unit.name,
                tuple(symbol.uid for symbol in unit.inputs),
                tuple(symbol.uid for symbol in unit.outputs),
            )
            for stmt_id, unit in loop_units.items()
        )
    )


def compile_program(analysis, side_effects=None, loop_units=None):
    """The :class:`~repro.compile.compiler.CompiledProgram` for an
    analyzed program, compiled at most once per (analysis, loop-unit)
    pair per process."""
    from repro.compile.compiler import compile_analysis

    key = (id(analysis), _loop_fingerprint(loop_units))
    hits_before = _COMPILE_CACHE.hits

    def build():
        with obs.span("compile.time", program=analysis.program.name):
            program = compile_analysis(
                analysis, side_effects=side_effects, loop_units=loop_units
            )
        obs.add("compile.programs")
        return program

    program = _COMPILE_CACHE.get_or_build(key, build)
    if _COMPILE_CACHE.hits > hits_before:
        obs.add("compile.cache_hits")
    return program


def run_compiled(
    analysis, io=None, step_limit: int = 2_000_000, budget=None
):
    """Plain (untraced) compiled execution; the compiled counterpart of
    ``Interpreter(...).run()``."""
    from repro.compile.runtime import Runtime

    program = compile_program(analysis)
    return Runtime(program, io=io, step_limit=step_limit, budget=budget).run()
