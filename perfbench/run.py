"""Benchmark of the GADT pipeline: ``repro debug`` and ``repro mutate``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-debug --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each unit
of work twice, untraced and then with spans around every layer's entry
point, and prints the per-layer metrics (``README.md`` lists them all).
The last line of stdout is the result as one JSON object; the line
before it records the host's measured speed during the run.

Every time is in *reference seconds*: the raw duration times the ratio
of the reference kernel's nominal time to the geometric mean of its
times measured just before and just after the work (see ``kernel.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: reference seconds one cycle of each workload takes at this commit;
#: a run is ``--seconds`` worth of cycles
CYCLE_S = {"cold-debug": 1.15, "warm-debug": 2.6, "mutant-sweep": 9.7}

#: fresh-interpreter imports per run (after one unmeasured warm-up that
#: writes the bytecode caches); the median is reported
IMPORT_SAMPLES = 11
#: repetitions of the workload's one-off preparation; median reported
PREPARE_SAMPLES = 2

#: host speeds (reference over median kernel time) at which the scaling
#: was checked against a fixed session: it holds to about 8% there,
#: and over-corrects below, where the kernel slows more than the
#: pipeline does (at speed 0.52 a warm session read 10% fast)
CHECKED_SPEEDS = (0.6, 1.2)

#: spans each workload's traced run must record at least once
EXPECTED_SPANS = {
    "cold-debug": (
        "session", "pascal.analyze", "transform.transform", "compile.compile",
        "tracing.trace", "core.present", "cli.render", "oracle.build",
        "oracle.answer", "core.debug",
    ),
    "warm-debug": (
        "session", "pascal.analyze", "transform.transform", "tracing.trace",
        "core.present", "cli.render", "oracle.build", "oracle.answer",
        "core.debug", "tgen.lookup",
    ),
    "mutant-sweep": (
        "batch", "session", "mutants.screen", "pascal.analyze",
        "transform.transform", "tracing.trace", "core.present",
        "oracle.build", "oracle.answer", "core.debug",
    ),
}

#: adjacent call-tree depths whose traced times give the doubling ratios
DOUBLING_DEPTHS = {"cold-debug": (5, 6), "warm-debug": (7, 8)}


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


def _preflight() -> None:
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(f"no program sources at {SRC}")
    if "REPRO_BACKEND" in os.environ:
        raise BenchmarkError(
            "REPRO_BACKEND is set; each workload names its backend itself, "
            "so unset it"
        )
    sys.path.insert(0, str(SRC))


class GcWatch:
    """GC pauses and generation-2 collections while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.pause_s = 0.0
        self.gen2 = 0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            self._started = None
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2 += 1


def _cache_totals() -> tuple[int, int]:
    from repro.cache import cache_stats

    stats = cache_stats().values()
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def _import_sample() -> float:
    code = (
        "import time; started = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - started)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _reset_peak_rss() -> bool:
    """Start the process's peak-RSS count afresh (Linux), so the set-up's
    allocations do not count; False where that is not possible."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset: bool) -> float:
    if reset:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _harrell_davis(values: list[float], quantile: float) -> float:
    """The Harrell-Davis estimate of a quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density, so that
    one noisy session next to the quantile moves it little.

    The tail sits where sessions are sparse (warm runs: the ten or so
    sessions a generation-2 collection lands in), and there the plain
    order statistic jumps with every session's noise.
    """
    ordered = sorted(values)
    count = len(ordered)
    a, b = quantile * (count + 1), (1 - quantile) * (count + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # integration steps per order statistic
    weights = [0.0] * count
    for step in range(steps * count):
        x = (step + 0.5) / (steps * count)
        weights[step // steps] += math.exp(
            log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        )
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it
    (Harrell-Davis estimate), and that percentile (the maximum, as 100,
    below 11 samples)."""
    count = len(values)
    if count < 11:
        return max(values), 100
    percentile = math.floor(100 * (1 - 10 / count))
    return _harrell_davis(values, percentile / 100), percentile


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import cli_session
    import spans
    import workloads
    from kernel import REFERENCE_KERNEL_S, HostClock, Stretches

    out_dir = HERE / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        clock = HostClock()

        # set-up: fresh-interpreter imports, then the one-off preparation
        _import_sample()
        imports = [clock.timed(_import_sample) for _ in range(IMPORT_SAMPLES)]
        cycles = max(1, round(seconds / CYCLE_S[workload]))
        if trace:
            cycles = max(1, cycles // 2)
        plan = workloads.WORKLOADS[workload](Random(seed), cycles, work_dir)
        prepares = [
            sum(clock.timed(step) for step in plan.prepare)
            for _ in range(PREPARE_SAMPLES)
        ]
        import_s = _median(imports)
        setup_s = import_s + _median(prepares)

        recorder = spans.SpanRecorder()
        probe = workloads.SessionProbe()
        instrumentation = None
        if trace:
            instrumentation = spans.Instrumentation(recorder, extra_modules=[cli_session])
            session = workloads.mutants_module._debug_one_mutant
            instrumentation.add(
                workloads.mutants_module,
                "_debug_one_mutant",
                recorder.wrap("session", session, new_session=True),
            )

        gc.collect()
        peak_reset = _reset_peak_rss()
        watch = GcWatch()
        gc.callbacks.append(watch)
        records = []
        busy = {False: 0.0, True: 0.0}
        factors: dict[int, float] = {}
        hits = misses = 0
        unit = 0
        try:
            for cycle in plan.cycles:
                for work in cycle:
                    for traced in (False, True) if trace else (False,):
                        work.before()
                        if traced:
                            recorder.unit = unit
                            stretches = Stretches(clock)
                            with instrumentation.installed():
                                work.run(recorder=recorder)
                            stretch_factors = stretches.close()
                            factors[unit] = stretch_factors[0]
                            unit += 1
                        else:
                            hits_before, misses_before = _cache_totals()
                            watch.active = True
                            pause_before = watch.pause_s
                            stretches = Stretches(clock)
                            probe.begin(stretches)
                            try:
                                with probe.installed():
                                    session_records = work.run(probe=probe)
                            finally:
                                watch.active = False
                            stretch_factors = stretches.close()
                            hits_after, misses_after = _cache_totals()
                            hits += hits_after - hits_before
                            misses += misses_after - misses_before
                            watch.pause_s = pause_before + (
                                watch.pause_s - pause_before
                            ) * statistics.fmean(stretch_factors)
                            for record in session_records:
                                scale = stretch_factors[record.segment]
                                record.seconds *= scale
                                if record.first_question_s is not None:
                                    record.first_question_s *= scale
                            records.extend(session_records)
                        busy[traced] += sum(
                            raw * scale
                            for raw, scale in zip(stretches.durations, stretch_factors)
                        )
        finally:
            gc.callbacks.remove(watch)

        attempted = len(records)
        failed = sum(record.failed for record in records)
        misses_of_guaranteed = [
            record
            for record in records
            if record.guaranteed and record.debugged and not record.localized
        ]
        for record in records:
            if record.failed or (record.debugged and not record.localized):
                print(f"miss [{record.family}] {record.detail}", file=sys.stderr)
        correct = failed == 0 and not misses_of_guaranteed

        session_times = [record.seconds for record in records]
        tail, percentile = _tail(session_times)
        debugged = [record for record in records if record.debugged]
        first = [r.first_question_s for r in records if r.first_question_s is not None]
        end_to_end = {
            "setup_s": (setup_s, "s"),
            "sessions_per_s": (attempted / busy[False], "1/s"),
            "session_p50_s": (_median(session_times), "s"),
            "session_tail_s": (tail, "s"),
            "first_question_p50_s": (_median(first), "s"),
            "user_questions": (
                statistics.fmean(r.user_questions for r in debugged) if debugged else 0.0,
                "count",
            ),
            "localized_ratio": (
                sum(record.localized for record in records) / attempted, "ratio"
            ),
            "peak_rss_mb": (_peak_rss_mb(peak_reset), "MB"),
        }

        kernel = clock.samples
        speed = REFERENCE_KERNEL_S / statistics.median(kernel)
        host = {
            "workload": workload,
            "seed": seed,
            "cycles": cycles,
            "sessions": attempted,
            "tail_percentile": percentile,
            "kernel_median_s": statistics.median(kernel),
            "kernel_min_s": min(kernel),
            "kernel_max_s": max(kernel),
            "host_speed": speed,
            "host_speed_checked": CHECKED_SPEEDS[0] <= speed <= CHECKED_SPEEDS[1],
        }
        if not trace:
            metrics = end_to_end
        else:
            metrics = _per_layer(
                workload, recorder, factors, records, busy, watch,
                hits, misses, import_s,
            )
            recorder.write_jsonl(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        print(json.dumps({"host": host}))
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit_name}
                for name, (value, unit_name) in metrics.items()
            },
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _per_layer(workload, recorder, factors, records, busy, watch, hits, misses, import_s):
    import spans

    missing = [
        name for name in EXPECTED_SPANS[workload] if recorder.count(name) == 0
    ]
    if missing:
        raise BenchmarkError(
            f"traced run recorded no span for {', '.join(missing)}: an entry "
            f"point the benchmark wraps is no longer called"
        )
    seconds, counts = recorder.attribute(factors)
    sessions = counts["session"]

    def per_session(name: str) -> float:
        return seconds.get(name, 0.0) / sessions

    def per_call(total: str, calls: str) -> float:
        return counts.get(total, 0) / counts[calls] if counts.get(calls) else 0.0

    def doubling(layer: str) -> float:
        depths = DOUBLING_DEPTHS.get(workload)
        if depths is None:
            return 0.0
        low, high = (recorder.attribute(factors, depth=d) for d in depths)
        rate = [s.get(layer, 0.0) / c["session"] for s, c in (low, high)]
        return rate[1] / rate[0] if rate[0] else 0.0

    layers = {
        "pascal.analyze_s": per_session("pascal.analyze"),
        "transform.transform_s": per_session("transform.transform"),
        "transform.doubling_ratio": (
            doubling("transform.transform") if workload == "cold-debug" else 0.0
        ),
        "compile.compile_s": per_session("compile.compile"),
        "tracing.trace_s": per_session("tracing.trace"),
        "tracing.doubling_ratio": doubling("tracing.trace"),
        "tracing.tree_nodes": per_call("tracing.trace.tree_nodes", "tracing.trace"),
        "tracing.occurrences": per_call("tracing.trace.occurrences", "tracing.trace"),
        "core.present_s": per_session("core.present"),
        "cli.render_s": per_session("cli.render"),
        "oracle.build_s": per_session("oracle.build"),
        "oracle.answer_s": per_session("oracle.answer"),
        "oracle.queries": counts.get("oracle.answer", 0) / sessions,
        "core.search_s": per_session("core.debug"),
        "core.slices": per_call("core.debug.slices", "core.debug"),
        "tgen.lookup_s": per_session("tgen.lookup"),
        "tgen.auto_answers": per_call("core.debug.test_db_answers", "core.debug"),
        "mutants.screen_s": per_session("mutants.screen"),
        "mutants.equivalent_ratio": (
            sum(record.equivalent for record in records) / len(records)
        ),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "gc.pause_s": watch.pause_s / len(records),
        "gc.gen2_collections": watch.gen2 / len(records),
        "setup.import_s": import_s,
        "unattributed_s": sum(per_session(name) for name in spans.ROOTS),
        "trace_overhead_ratio": busy[True] / busy[False],
    }
    return {
        name: (
            value,
            "ratio" if name.endswith("_ratio")
            else "s" if name.endswith("_s")
            else "count",
        )
        for name, value in layers.items()
    }


#: hash seed every run uses: with random string hashing, set and dict
#: orders, and so the program's paths and garbage, change from process
#: to process, which alone moves the sweep's throughput by 5%
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, __file__, *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        _preflight()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
