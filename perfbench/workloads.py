"""The three workloads: their inputs, made from the seed, and their work.

A run is a fixed number of *cycles*; each cycle is a fixed list of units
of work with the same mix of program families, so every run has the same
composition whatever its seed, and the median and tail sessions always
fall inside the same family (see ``README.md``).

* ``cold-debug`` - one-shot ``repro debug --reference --backend compiled
  --strategy dq-optimal`` sessions, caches cleared before each as in a
  fresh CLI process. Per cycle: two call trees of depth 5 and two of
  depth 6 (mirrored buggy leaves and input from the seed), one ledger
  bug, one goto-corpus program paired with a behaviour-changing mutant.
* ``warm-debug`` - a long-lived process re-debugging two depth-7 and two
  depth-8 call trees (mirrored buggy leaves) and the ledger with caches
  warm, interp backend, slicing on, the ledger answered from a test
  database through ``GadtSystem.store_lookup``. Per cycle: each of the
  four strategies on the four trees and on one ledger bug.
* ``mutant-sweep`` - ``evaluate_mutants`` (the ``repro mutate
  --evaluate`` defaults) over ``generate_mutants`` of the ledger, a
  depth-4 call tree and corpus programs 1-3. The programs are fixed: the
  cost of sweeping a corpus program swings 15x between corpus seeds,
  which would drown any change in the noise. Mutants are evaluated in
  the order ``generate_mutants`` returns them, as the CLI does; the seed
  sets the call tree's input.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from random import Random

from repro.cache import clear_caches
from repro.core import GadtSystem, ReferenceOracle
from repro.pascal import run_source
from repro.pascal.semantics import analyze_source
from repro.store import ShardedReportStore
from repro.tgen import CaseRunner, generate_frames, instantiate_cases
from repro.tgen.corpus import generate_program
from repro.workloads import (
    CallTreeSpec,
    generate_call_tree_program,
    ledger_program,
)
from repro.workloads import mutants as mutants_module
from repro.workloads.ledger import fee_frame_selector, fee_instantiator, fee_spec
from repro.workloads.mutants import evaluate_mutants, generate_mutants

import cli_session
import spans

#: the four search strategies warm sessions rotate through
STRATEGIES = ("top-down", "bottom-up", "divide-and-query", "dq-optimal")

#: the step cap ``benchmarks/run_corpus.py`` uses for corpus programs
CORPUS_STEP_LIMIT = 500_000

#: a session slower than this (wall seconds) counts as timed out
SESSION_LIMIT_S = 60.0


@dataclass(frozen=True)
class Program:
    """One buggy program with its bug-free reference and planted unit."""

    family: str
    source: str
    fixed: str
    unit: str
    #: the repository's tests guarantee that this family localizes; a
    #: miss here makes the run incorrect (corpus misses are only counted)
    guaranteed: bool
    depth: int | None = None


@dataclass
class SessionRecord:
    """One session's verdict and timings (raw seconds)."""

    family: str
    seconds: float
    localized: bool
    guaranteed: bool
    failed: bool = False
    #: ran the debugger's search (mutants screened out did not)
    debugged: bool = True
    user_questions: int = 0
    first_question_s: float | None = None
    equivalent: bool = False
    detail: str = ""
    #: the stretch between two kernel samples the session ran in
    segment: int = 0


def blames(unit: str | None, planted: str) -> bool:
    """The rule ``evaluate_mutants`` uses: the planted routine or a loop
    unit inside it."""
    return unit is not None and (unit == planted or unit.startswith(planted + "$"))


def call_tree(depth: int, leaf: int, value: int) -> Program:
    generated = generate_call_tree_program(
        CallTreeSpec(depth=depth, buggy_leaf=leaf, seed_value=value)
    )
    return Program(
        "tree", generated.source, generated.fixed_source, generated.buggy_unit,
        guaranteed=True, depth=depth,
    )


def call_tree_pair(depth: int, rng: Random) -> list[Program]:
    """Two trees whose buggy leaves mirror each other. How many questions
    top-down and bottom-up search ask depends on the buggy leaf's path;
    a mirrored pair takes the other branch at every level, so the pair's
    total does not depend on the seed."""
    leaf = rng.randrange(2**depth)
    value = rng.randrange(1, 50)
    return [call_tree(depth, leaf, value), call_tree(depth, 2**depth - 1 - leaf, value)]


def ledger(bug: str) -> Program:
    generated = ledger_program(bug)
    return Program(
        "ledger", generated.source, generated.fixed_source, generated.buggy_unit,
        guaranteed=True,
    )


def corpus_pair(rng: Random) -> Program:
    """A corpus program and its first behaviour-changing mutant, as
    ``benchmarks/run_corpus.py`` picks it (at most ten probes)."""
    while True:
        seed = rng.randrange(1_000_000)
        source = generate_program(seed)
        baseline = run_source(source, step_limit=CORPUS_STEP_LIMIT).output
        candidates = generate_mutants(source)
        Random(seed).shuffle(candidates)
        for mutant in candidates[:10]:
            try:
                output = run_source(mutant.source, step_limit=CORPUS_STEP_LIMIT).output
            except Exception:
                continue  # crashing mutants are out of scope, as in run_corpus
            if output != baseline:
                return Program(
                    "corpus", mutant.source, source, mutant.unit, guaranteed=False
                )


# ----------------------------------------------------------------------
# debugging sessions


@dataclass
class ProbedSession:
    """What :class:`SessionProbe` saw of one session."""

    started: float
    #: the stretch between two kernel samples the session ran in
    stretch: int
    #: seconds spent building reference oracles inside the session
    oracle_s: float = 0.0
    #: when the session first put a question to the (simulated) user
    asked: float | None = None
    #: the session got past screening and started tracing
    traced: bool = False

    def first_question_s(self) -> float | None:
        """Seconds from the session's start to its first question, less
        the oracle's build (an interactive user costs nothing to build)."""
        if self.asked is None:
            return None
        return self.asked - self.started - self.oracle_s


class SessionProbe(spans.Patches):
    """Light wrappers that let the untraced path see inside sessions it
    does not start itself: oracle builds, the first question, the start
    of tracing, and the start of each mutant's session in the sweep.

    Before each mutant the probe starts a new stretch, with a kernel
    sample: most mutants take a few milliseconds, shorter than the
    host's fast and slow modes last, so only samples taken right around
    one tell the speed it ran at.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sessions: list[ProbedSession] = []
        self._stretches = None
        build = vars(ReferenceOracle)["from_source"].__func__
        answer = ReferenceOracle.answer
        trace = vars(GadtSystem)["from_source"].__func__
        mutant_session = mutants_module._debug_one_mutant
        probe = self

        def probed_build(cls, *args, **kwargs):
            started = time.perf_counter()
            try:
                return build(cls, *args, **kwargs)
            finally:
                if probe.sessions:
                    probe.sessions[-1].oracle_s += time.perf_counter() - started

        def probed_answer(oracle, query):
            if probe.sessions and probe.sessions[-1].asked is None:
                probe.sessions[-1].asked = time.perf_counter()
            return answer(oracle, query)

        def probed_trace(cls, *args, **kwargs):
            if probe.sessions:
                probe.sessions[-1].traced = True
            return trace(cls, *args, **kwargs)

        def probed_mutant_session(*args, **kwargs):
            probe._stretches.split()
            probe.start()
            return mutant_session(*args, **kwargs)

        self.add(ReferenceOracle, "from_source", classmethod(probed_build))
        self.add(ReferenceOracle, "answer", probed_answer)
        self.add(GadtSystem, "from_source", classmethod(probed_trace))
        self.add(mutants_module, "_debug_one_mutant", probed_mutant_session)

    def begin(self, stretches) -> None:
        """Forget the last unit of work; split ``stretches`` from now on."""
        self.sessions = []
        self._stretches = stretches

    def start(self) -> None:
        """A session starts now."""
        self.sessions.append(
            ProbedSession(time.perf_counter(), self._stretches.index)
        )


@dataclass
class DebugWork:
    """One ``repro debug --reference`` session."""

    program: Program
    backend: str
    strategy: str
    cold: bool
    test_db: Path | None = None

    def before(self) -> None:
        if self.cold:
            # a fresh CLI process: empty caches, no garbage
            clear_caches()
            gc.collect()

    def run(self, probe: SessionProbe | None = None, recorder=None) -> list:
        """Run the session, through ``probe`` (untraced) or ``recorder``
        (traced); return its record."""
        program = self.program
        lookup = None
        if self.test_db is not None:
            test_db = self.test_db

            def lookup():
                return GadtSystem.store_lookup(
                    test_db,
                    specs=[fee_spec()],
                    selectors={"fee": fee_frame_selector},
                    menu=None,
                )

        if probe is not None:
            probe.start()
        started = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span("session", new_session=True) as attrs:
                    if program.depth is not None:
                        attrs["depth"] = program.depth
                    outcome = cli_session.debug_session(
                        program.source, program.fixed, self.backend, self.strategy,
                        test_lookup=lookup,
                        render_span=lambda: recorder.span("cli.render"),
                        split_front_end=True,
                    )
            else:
                outcome = cli_session.debug_session(
                    program.source, program.fixed, self.backend, self.strategy,
                    test_lookup=lookup,
                )
        except Exception as error:  # the session's failure, not the run's
            return [
                SessionRecord(
                    program.family, time.perf_counter() - started, localized=False,
                    guaranteed=program.guaranteed, failed=True,
                    detail=f"{type(error).__name__}: {error}",
                )
            ]
        seconds = time.perf_counter() - started
        timed_out = seconds > SESSION_LIMIT_S
        return [
            SessionRecord(
                program.family,
                seconds,
                localized=blames(outcome.bug_unit, program.unit) and not timed_out,
                guaranteed=program.guaranteed,
                failed=timed_out,
                user_questions=outcome.user_questions,
                first_question_s=probe.sessions[0].first_question_s() if probe else None,
                detail=f"blamed {outcome.bug_unit}, planted {program.unit}",
            )
        ]


# ----------------------------------------------------------------------
# the mutant sweep


@dataclass
class SweepWork:
    """``evaluate_mutants`` over one program's mutants, one session each."""

    program: Program
    mutants: list = field(default_factory=list)

    def generate(self) -> None:
        """The sweep's one-off preparation for this program."""
        self.mutants = generate_mutants(self.program.source)

    def before(self) -> None:
        # a fresh ``repro mutate`` process: empty caches, no garbage
        clear_caches()
        gc.collect()

    def run(self, probe: SessionProbe | None = None, recorder=None) -> list:
        """Sweep, through ``probe`` (untraced) or ``recorder`` (traced);
        return one record per mutant (none when traced)."""
        if recorder is not None:
            with recorder.span("batch", new_session=True):
                evaluate_mutants(self.program.source, self.mutants)
            return []
        outcomes = evaluate_mutants(self.program.source, self.mutants)
        if len(probe.sessions) != len(outcomes):
            raise RuntimeError(
                f"{len(outcomes)} mutants evaluated but {len(probe.sessions)} "
                f"sessions seen: evaluate_mutants no longer calls "
                f"_debug_one_mutant once per mutant"
            )
        records = []
        for outcome, probed in zip(outcomes, probe.sessions):
            debugged = outcome.status in ("localized", "mislocalized", "not_localized")
            # a mutant that ran clean through screening and then raised
            # while traced or debugged is a failed session, not a crash
            # the sweep screens out
            broke = outcome.status == "crashed" and probed.traced
            failed = (
                outcome.status in ("timed_out", "infra_error")
                or broke
                or outcome.seconds > SESSION_LIMIT_S
            )
            records.append(
                SessionRecord(
                    self.program.family,
                    outcome.seconds,
                    localized=outcome.status == "localized"
                    and blames(outcome.localized_unit, outcome.mutant.unit)
                    and not failed,
                    guaranteed=self.program.guaranteed,
                    failed=failed,
                    debugged=debugged,
                    user_questions=outcome.user_questions,
                    first_question_s=probed.first_question_s(),
                    equivalent=outcome.status == "equivalent",
                    detail=f"{outcome.status}: {outcome.mutant.description}",
                    segment=probed.stretch,
                )
            )
        return records


# ----------------------------------------------------------------------
# workload set-up


@dataclass
class Plan:
    """A workload ready to run: the one-off preparation (timed as part
    of ``setup_s``), in steps short enough to be timed between two kernel
    samples each, and the list of units of work of one cycle each."""

    prepare: list[Callable[[], object]]
    cycles: list[list]


def corpus_pairs(seed: int, count: int) -> list[Program]:
    """``count`` corpus pairs, picked in a child process: picking them
    analyzes and prints hundreds of mutants, and the heap that leaves
    behind would otherwise set the run's peak RSS."""
    done = subprocess.run(
        [sys.executable, __file__, str(seed), str(count)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [Program(**fields) for fields in json.loads(done.stdout)]


def cold_debug(rng: Random, cycles: int, work_dir: Path) -> Plan:
    bugs = ["fee", "transfer", "interest"]
    rng.shuffle(bugs)
    pairs = corpus_pairs(rng.randrange(1 << 30), cycles)
    plan = []
    for index in range(cycles):
        programs = [
            *call_tree_pair(5, rng), *call_tree_pair(6, rng),
            ledger(bugs[index % 3]), pairs[index],
        ]
        plan.append(
            [DebugWork(p, "compiled", "dq-optimal", cold=True) for p in programs]
        )
    return Plan(prepare=[], cycles=plan)


def _write_fee_reports(program: Program, directory: Path) -> None:
    """The testing phase for ``fee`` on one ledger build, into a store."""
    spec = fee_spec()
    cases = instantiate_cases(spec, generate_frames(spec), fee_instantiator)
    with ShardedReportStore(directory) as store:
        CaseRunner(analyze_source(program.source)).run_all(cases, database=store)


def warm_debug(rng: Random, cycles: int, work_dir: Path) -> Plan:
    trees = [*call_tree_pair(7, rng), *call_tree_pair(8, rng)]
    bugs = ["fee", "transfer", "interest"]
    rng.shuffle(bugs)
    ledgers = {bug: ledger(bug) for bug in bugs}
    databases = {}
    for bug, program in ledgers.items():
        databases[bug] = work_dir / f"testdb-{bug}"
        _write_fee_reports(program, databases[bug])

    # what a long-lived process pays once: every program's first
    # session, with the caches empty
    first_sessions = [DebugWork(tree, "interp", "top-down", cold=False) for tree in trees]
    first_sessions += [
        DebugWork(program, "interp", "top-down", cold=False, test_db=databases[bug])
        for bug, program in ledgers.items()
    ]

    plan = []
    turn = 0
    for _ in range(cycles):
        cycle = []
        for strategy in STRATEGIES:
            bug = bugs[turn % 3]
            turn += 1
            cycle += [DebugWork(tree, "interp", strategy, cold=False) for tree in trees]
            cycle.append(
                DebugWork(ledgers[bug], "interp", strategy, cold=False, test_db=databases[bug])
            )
        plan.append(cycle)
    return Plan(
        prepare=[clear_caches, *(work.run for work in first_sessions)], cycles=plan
    )


#: corpus programs in the sweep (76-89 mutants each, most screened out)
SWEEP_CORPUS_SEEDS = (1, 2, 3)


def mutant_sweep(rng: Random, cycles: int, work_dir: Path) -> Plan:
    tree = call_tree(4, 0, rng.randrange(1, 50))
    programs = [
        Program("ledger", ledger_program().fixed_source, "", "", guaranteed=True),
        Program("tree", tree.fixed, "", "", guaranteed=True),
    ] + [
        Program("corpus", generate_program(seed), "", "", guaranteed=False)
        for seed in SWEEP_CORPUS_SEEDS
    ]
    works = [SweepWork(program) for program in programs]
    return Plan(
        prepare=[clear_caches, *(work.generate for work in works)],
        cycles=[list(works) for _ in range(cycles)],
    )


WORKLOADS = {
    "cold-debug": cold_debug,
    "warm-debug": warm_debug,
    "mutant-sweep": mutant_sweep,
}


if __name__ == "__main__":
    # ``workloads.py SEED COUNT``: print corpus pairs as JSON
    pair_rng = Random(int(sys.argv[1]))
    print(json.dumps([asdict(corpus_pair(pair_rng)) for _ in range(int(sys.argv[2]))]))
