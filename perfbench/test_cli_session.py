"""The benchmark's session runner prints what ``repro debug`` prints.

One program from each ``cold-debug`` family is debugged twice: through
``cli_session.debug_session`` and through ``repro.cli.main(["debug", ...])``
with the flags the workload stands for. Transcript and verdict must be
identical, so the benchmark keeps timing what users run.

Run:  python3 -m pytest perfbench/test_cli_session.py
"""

import contextlib
import io
import sys
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

import cli_session
import workloads
from kernel import HostClock, Stretches
from repro.cache import clear_caches
from repro.cli import main

PROGRAMS = {
    "tree": lambda: workloads.call_tree_pair(5, Random(3))[0],
    "corpus": lambda: workloads.corpus_pair(Random(3)),
    "ledger": lambda: workloads.ledger("transfer"),
}


@pytest.mark.parametrize("family", sorted(PROGRAMS))
def test_session_matches_cli(family, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    program = PROGRAMS[family]()
    buggy = tmp_path / "buggy.pas"
    fixed = tmp_path / "fixed.pas"
    buggy.write_text(program.source)
    fixed.write_text(program.fixed)

    clear_caches()
    probe = workloads.SessionProbe()
    probe.begin(Stretches(HostClock()))
    with probe.installed():
        probe.start()
        outcome = cli_session.debug_session(
            program.source, program.fixed, backend="compiled", strategy="dq-optimal"
        )

    clear_caches()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([
            "debug", str(buggy), "--reference", str(fixed),
            "--backend", "compiled", "--strategy", "dq-optimal",
        ])

    assert outcome.stdout == printed.getvalue()
    assert code == (0 if outcome.bug_unit is not None else 1)
    assert f"inside the body of {outcome.bug_unit}" in outcome.stdout
    if program.guaranteed:
        assert workloads.blames(outcome.bug_unit, program.unit)
    (probed,) = probe.sessions
    assert probed.traced and probed.oracle_s > 0
    assert probed.first_question_s() > 0
