"""The benchmark's debugging session: what ``repro debug --reference`` does.

:func:`debug_session` makes the same public calls, in the same order and
with the same arguments, as ``repro.cli.cmd_debug`` run with
``--reference FIXED --backend B --strategy S`` (plus ``--testdb`` when a
test lookup is given), and returns the text that command prints on
stdout. ``test_cli_session.py`` checks that the two agree.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.compile import ENV_VAR, compile_program
from repro.core import GadtSystem, ReferenceOracle
from repro.pascal.semantics import analyze_source
from repro.transform import transform_source


@dataclass
class SessionOutcome:
    """What one session printed and decided."""

    stdout: str
    bug_unit: str | None
    user_questions: int


@contextmanager
def cli_backend(backend: str):
    """Export the backend the way ``repro.cli.main`` does for
    ``--backend``: every engine the command starts, including the
    reference oracle's (whose constructor takes no backend), sees it."""
    prior = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = backend
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prior


def debug_session(
    source: str,
    reference: str,
    backend: str,
    strategy: str,
    test_lookup=None,
    render_span=nullcontext,
    split_front_end: bool = False,
) -> SessionOutcome:
    """One reference-oracle debugging session, as ``cmd_debug`` runs it.

    ``test_lookup`` is a zero-argument callable that opens the session's
    test-database lookup (``cmd_debug`` opens it after the oracle).
    ``render_span`` wraps the printing steps, so a traced run can time
    them. ``split_front_end`` (traced runs only) first calls the
    analysis, transform and compile entry points on their own, so each
    shows as its own span and the pipeline's calls then hit the caches.
    """
    with cli_backend(backend):
        if split_front_end:
            analyze_source(source)
            transformed = transform_source(source)
            if backend == "compiled":
                compile_program(
                    transformed.analysis,
                    side_effects=transformed.side_effects,
                    loop_units=transformed.loop_units,
                )
        system = GadtSystem.from_source(
            source, program_inputs=[], budget=None, degrade=False, backend=backend
        )
        with render_span():
            lines = ["Execution tree:", system.trace.tree.render()]

        oracle = ReferenceOracle.from_source(reference, program_inputs=[])
        debugger = system.debugger(
            oracle,
            strategy=strategy,
            test_lookup=test_lookup() if test_lookup is not None else None,
            enable_slicing=True,
        )
        result = debugger.debug(assume_symptom=True)

        with render_span():
            lines.append(result.session.render())
            if result.bug_node is not None:
                lines.append(system.explain_bug(result))
            lines.append(
                f"questions: {result.user_questions} user, "
                f"{result.auto_answers} automatic; slices: {result.slices}"
            )
    return SessionOutcome(
        stdout="\n".join(lines) + "\n",
        bug_unit=result.bug_unit,
        user_questions=result.user_questions,
    )
