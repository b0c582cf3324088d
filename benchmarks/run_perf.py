"""Standalone perf runner: emits ``BENCH_perf.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py [--depths 2,4,6,8]
        [--repeats 3] [--workers N] [--backend both]
        [--output BENCH_perf.json]

Runs the PERF1 stage series (un-traced run, trace, dynamic slice,
debug, mutation sweep) from :mod:`benchmarks.bench_perf_scale` and
writes one JSON document so the performance trajectory is tracked in a
stable, diffable artifact from PR to PR. Smoke mode (``--depths 2``) is
what CI runs; the full series is for local measurement.

``--backend both`` (the default) records the stage series once per
execution backend and a per-depth ``speedup_trace`` table; since
``bench_perf/4`` the artifact also embeds one ``hotspots/1`` per-unit
self-time report per backend, and since ``bench_perf/5`` a
``questions_curve`` section: user questions per strategy over call
chains of depth 2–12, demonstrating the ~O(log n) behaviour of
``dq-optimal`` against top-down's O(depth).
``benchmarks/check_regress.py`` compares a fresh artifact against the
committed one and fails CI on regression — timings normalized by a
machine factor, question counts exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# allow `python benchmarks/run_perf.py` from the repo root without -m
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_perf_scale import DEPTHS, collect_perf_report


def depth_list(text: str) -> list[int]:
    """``--depths`` value: comma-separated positive integers."""
    try:
        depths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        depths = []
    if not depths or min(depths) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return depths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--depths",
        type=depth_list,
        default=",".join(str(d) for d in DEPTHS),
        help="comma-separated call-tree depths (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N repeats per stage (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the mutation sweep (default: sequential)",
    )
    parser.add_argument(
        "--backend",
        choices=["interp", "compiled", "both"],
        default="both",
        help="execution backend(s) for the stage series (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="output path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    backends = (
        ("interp", "compiled") if args.backend == "both" else (args.backend,)
    )
    report = collect_perf_report(
        depths=args.depths, repeats=args.repeats, workers=args.workers,
        backends=backends,
    )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {output}")
    print(f"  {'backend':>9} {'leaves':>7} {'run(s)':>9} {'trace(s)':>9} "
          f"{'slice(s)':>9} {'debug(s)':>9} {'questions':>10}")
    for row in report["series"]:
        print(
            f"  {row['backend']:>9} {row['leaves']:>7} "
            f"{row['run_s']:>9.4f} {row['trace_s']:>9.4f} "
            f"{row['slice_s']:>9.4f} {row['debug_s']:>9.4f} "
            f"{row['questions']:>10}"
        )
    if report.get("speedup_trace"):
        pairs = ", ".join(
            f"depth {depth}: {ratio:.1f}x"
            for depth, ratio in report["speedup_trace"].items()
        )
        print(f"  compiled trace speedup: {pairs}")
    curve = report.get("questions_curve")
    if curve:
        by_strategy: dict[str, dict[int, int]] = {}
        for row in curve["series"]:
            by_strategy.setdefault(row["strategy"], {})[row["depth"]] = row[
                "questions"
            ]
        print("  questions to localize a leaf bug on a call chain:")
        print(
            f"  {'depth':>18}:"
            + "".join(f"{d:>4}" for d in curve["depths"])
        )
        for strategy in sorted(by_strategy):
            cells = "".join(
                f"{by_strategy[strategy].get(d, '-'):>4}"
                for d in curve["depths"]
            )
            print(f"  {strategy:>18}:{cells}")
    mutants = report["mutants"]
    by_status = ", ".join(
        f"{status} {count}" for status, count in mutants["by_status"].items()
    )
    print(
        f"  mutation sweep: {mutants['mutants']} mutants in "
        f"{mutants['seconds']:.3f}s ({mutants['workers']} worker(s)), "
        f"{mutants['correct']}/{mutants['debuggable']} localized ({by_status})"
    )
    fast = report["fast_path"]
    print(
        f"  un-traced run (depth {fast['depth']}): cold {fast['cold_s']:.4f}s, "
        f"warm {fast['warm_s']:.4f}s"
    )
    session = report["obs"]["session"]
    sources = ", ".join(
        f"{source} {count}"
        for source, count in session["queries"]["by_source"].items()
    )
    print(
        f"  obs (depth {report['obs']['depth']}): "
        f"{session['queries']['total']} queries ({sources}), "
        f"{session['interactions_saved']} interactions saved"
    )
    for backend, hotspots in report["profile"]["reports"].items():
        hottest = hotspots["units"][0] if hotspots["units"] else None
        if hottest is not None:
            print(
                f"  hotspots ({backend}, depth {report['profile']['depth']}): "
                f"{hottest['unit']} leads with {hottest['steps']} steps, "
                f"{hottest['self_s']:.4f}s self time"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
