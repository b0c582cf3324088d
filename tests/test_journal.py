"""Tests for the session flight recorder (repro.obs.journal)."""

import json
import statistics
import time

import pytest

from repro import obs
from repro.core import GadtSystem, ReferenceOracle
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    JournalWriter,
    read_journal,
    recording,
)
from repro.pascal import analyze_source
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE


@pytest.fixture(autouse=True)
def _always_clean():
    yield
    obs.disable()
    obs.reset()


class TestJournalWriter:
    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = JournalWriter(str(path), meta={"command": "debug"})
        writer.close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "journal"
        assert first["schema"] == JOURNAL_SCHEMA
        assert first["meta"] == {"command": "debug"}
        assert first["ts"] > 0

    def test_events_follow_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        obs.reset()
        obs.enable()
        writer = obs.add_sink(JournalWriter(str(path)))
        obs.emit("query", unit="p", answer="yes")
        obs.remove_sink(writer)
        writer.close()
        journal = read_journal(str(path))
        assert len(journal) == 1
        assert journal.queries()[0]["unit"] == "p"


class TestReadJournal:
    def test_round_trip_with_accessors(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            {"kind": "journal", "schema": JOURNAL_SCHEMA, "ts": 1.0,
             "meta": {"source": "x"}},
            {"kind": "trace", "seq": 1, "ts": 2.0, "root": 5},
            {"kind": "query", "seq": 2, "ts": 3.0, "unit": "u"},
            {"kind": "verdict", "seq": 3, "ts": 4.0, "unit": "u",
             "verdict": "incorrect"},
            {"kind": "span", "seq": 4, "ts": 5.0, "name": "s",
             "duration_s": 0.5},
            {"kind": "session", "seq": 5, "ts": 6.0, "report": {}},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        journal = read_journal(str(path))
        assert journal.schema == JOURNAL_SCHEMA
        assert journal.meta == {"source": "x"}
        assert len(journal) == 5
        assert journal.traces()[0]["root"] == 5
        assert journal.queries()[0]["unit"] == "u"
        assert journal.verdicts()[0]["verdict"] == "incorrect"
        assert journal.spans()[0]["name"] == "s"
        assert journal.session()["seq"] == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            read_journal(str(tmp_path / "absent.jsonl"))

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "query"}\n')
        with pytest.raises(JournalError, match="not a journal"):
            read_journal(str(path))

    def test_headerless_allowed_for_exporter(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "query", "ts": 1.0}\n')
        journal = read_journal(str(path), require_header=False)
        assert journal.schema is None
        assert len(journal) == 1

    def test_invalid_json(self, tmp_path):
        # a torn line anywhere but the end is corruption, not a crashed
        # writer (see TestTruncatedJournal for the tolerated case)
        path = tmp_path / "j.jsonl"
        path.write_text('{torn\n{"kind": "query", "seq": 1}\n')
        with pytest.raises(JournalError, match="invalid JSON"):
            read_journal(str(path))

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "journal", "schema": "gadt_journal/999"}\n')
        with pytest.raises(JournalError, match="unsupported journal schema"):
            read_journal(str(path))

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = json.dumps({"kind": "journal", "schema": JOURNAL_SCHEMA})
        path.write_text(header + "\n" + header + "\n")
        with pytest.raises(JournalError, match="duplicate journal header"):
            read_journal(str(path))

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(JournalError, match="expected a JSON object"):
            read_journal(str(path))


class TestRecording:
    def test_records_full_causal_chain(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with recording(str(path), meta={"source": FIGURE4_SOURCE}):
            system = GadtSystem.from_source(FIGURE4_SOURCE)
            oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
            result = system.debugger(oracle).debug()
        assert result.bug_unit == "decrement"
        assert not obs.enabled()  # restored
        journal = read_journal(str(path))
        kinds = {record["kind"] for record in journal.records}
        # the flight recorder captures every layer of the causal chain
        assert {"trace", "span", "query", "verdict", "session"} <= kinds
        assert journal.meta["source"] == FIGURE4_SOURCE
        # every query carries its node id and answer provenance
        for query in journal.queries():
            assert query["node"] > 0
            assert query["source"] in ("user", "assertion", "test-db", "cache")
        # verdicts end at the localization
        assert journal.verdicts()[-1]["verdict"] == "bug-localized"
        assert journal.session()["report"]["bug_unit"] == "decrement"

    def test_restores_prior_enabled_state(self, tmp_path):
        obs.reset()
        obs.enable()
        with recording(str(tmp_path / "j.jsonl")):
            pass
        assert obs.enabled()

    def test_events_link_to_owning_span(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with recording(str(path)):
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.emit("query", unit="u")
        journal = read_journal(str(path))
        spans = {record["name"]: record for record in journal.spans()}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        (query,) = journal.queries()
        assert query["span_id"] == spans["inner"]["span_id"]


class TestJournalOverhead:
    def test_depth8_compiled_trace_overhead_under_10_percent(self, tmp_path):
        """Acceptance: flight recording a depth-8 compiled trace costs
        <10% over the bare trace (the journal hangs off activation
        boundaries and phase seams, never the per-statement hot path).
        Cross-checked against the committed ``BENCH_perf.json``: the
        artifact this budget is tracked in must carry the same shape."""
        from pathlib import Path

        from repro.tracing import trace_source
        from repro.workloads import CallTreeSpec, generate_call_tree_program

        bench = json.loads(Path("BENCH_perf.json").read_text())
        assert bench["schema"] in ("bench_perf/4", "bench_perf/5")
        assert any(
            row["backend"] == "compiled" and row["depth"] == 8
            for row in bench["series"]
        ), "BENCH_perf.json lost its depth-8 compiled row"

        generated = generate_call_tree_program(CallTreeSpec(depth=8))
        trace_source(generated.source, backend="compiled")  # warm caches

        def bare():
            started = time.perf_counter()
            trace_source(generated.source, backend="compiled")
            return time.perf_counter() - started

        def journaled(path):
            with recording(path):
                started = time.perf_counter()
                trace_source(generated.source, backend="compiled")
                return time.perf_counter() - started

        # Host speed drifts over seconds, so each journaled trace is
        # compared with a bare one run right beside it (alternating which
        # goes first), and the budget applies to the median pair.
        ratios = []
        for pair in range(15):
            path = str(tmp_path / f"j{pair}.jsonl")
            if pair % 2:
                with_journal_s = journaled(path)
                base_s = bare()
            else:
                base_s = bare()
                with_journal_s = journaled(path)
            ratios.append(with_journal_s / base_s)
        median = statistics.median(ratios)
        assert median < 1.10, (
            f"journal overhead {median:.3f}x exceeds the 10% budget "
            f"(pairs: {[f'{r:.3f}' for r in sorted(ratios)]})"
        )


class TestTruncatedJournal:
    """A crashed writer leaves a torn final line; the readable prefix
    must still be served (and counted), while corruption anywhere else
    stays a hard error."""

    def write_journal(self, path, events=2, tail=None):
        lines = [json.dumps({
            "kind": "journal", "schema": JOURNAL_SCHEMA, "ts": 1.0,
            "meta": {"source": "x"},
        })]
        for seq in range(1, events + 1):
            lines.append(json.dumps(
                {"kind": "query", "seq": seq, "ts": 1.0 + seq, "unit": "u"}
            ))
        text = "\n".join(lines) + "\n"
        if tail is not None:
            text += tail  # the torn record: no trailing newline
        path.write_text(text)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self.write_journal(path, events=2, tail='{"kind": "query", "se')
        journal = read_journal(str(path))
        assert journal.truncated is True
        assert journal.truncated_line == 4
        assert len(journal) == 2  # the readable prefix survives
        assert journal.queries()[0]["unit"] == "u"

    def test_intact_journal_is_not_marked_truncated(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        self.write_journal(path, events=2)
        journal = read_journal(str(path))
        assert journal.truncated is False
        assert journal.truncated_line is None

    def test_truncation_bumps_the_counter_when_observing(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self.write_journal(path, tail='{"torn"')
        obs.reset()
        obs.enable()
        read_journal(str(path))
        assert obs.snapshot(include_cache=False)["counters"][
            "journal.truncated"
        ] == 1

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        self.write_journal(path, events=1)
        text = path.read_text()
        lines = text.splitlines()
        lines.insert(1, '{"kind": "query", "se')  # torn line, NOT last
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="invalid JSON"):
            read_journal(str(path))

    def test_torn_header_is_still_not_a_journal(self, tmp_path):
        path = tmp_path / "torn_header.jsonl"
        path.write_text('{"kind": "journal", "schema": ')
        with pytest.raises(JournalError, match="not a journal"):
            read_journal(str(path))
