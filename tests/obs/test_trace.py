"""Tests for the span recorder and Chrome trace export."""

import json
import os
import threading

import pytest

from repro.obs import (TraceRecorder, active_recorder, event,
                       export_chrome_trace, install, recording, span,
                       uninstall)
from repro.obs.trace import current_context


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with no global recorder installed."""
    uninstall()
    yield
    uninstall()


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


class TestSpan:
    def test_span_without_recorder_times_but_writes_nothing(self, tmp_path):
        # a recorder that exists but is not installed must stay empty
        path = tmp_path / "events.jsonl"
        with TraceRecorder(path):
            assert active_recorder() is None
            with span("anything", "cat", k=1) as s:
                assert s.set("more", 2) is s
                assert s.span_id is None
                assert current_context() is None
                assert s.seconds >= 0
        assert s.span_id is None
        assert s.seconds >= 0
        assert path.read_text() == ""

    def test_span_records_one_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with recording(path):
            with span("compile", "flow", case="fdct1") as s:
                s.set("detail", "ok")
        entries = _lines(path)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["name"] == "compile"
        assert entry["cat"] == "flow"
        assert entry["ph"] == "X"
        assert entry["pid"] == os.getpid()
        assert entry["dur"] >= 0
        args = entry["args"]
        assert args["case"] == "fdct1"
        assert args["detail"] == "ok"
        # every recorded span carries its stitchable identity
        assert args["span_id"]
        assert args["trace_id"]
        assert "parent_id" not in args  # a root span has no parent

    def test_nested_spans_both_recorded(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with recording(path):
            with span("outer"):
                with span("inner"):
                    pass
        names = [entry["name"] for entry in _lines(path)]
        # inner finishes (and is written) first
        assert names == ["inner", "outer"]

    def test_exception_tags_error_and_propagates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with recording(path):
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (entry,) = _lines(path)
        assert entry["args"]["error"] == "ValueError"

    def test_instant_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with recording(path):
            event("marker", "fuzz", seed=7)
        (entry,) = _lines(path)
        assert entry["ph"] == "i"
        assert entry["args"] == {"seed": 7}

    def test_event_without_recorder_is_silent(self):
        event("dropped")  # no raise, nothing recorded


class TestRecorderLifecycle:
    def test_recording_installs_and_uninstalls(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with recording(path) as recorder:
            assert active_recorder() is recorder
        assert active_recorder() is None

    def test_install_returns_recorder(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "e.jsonl")
        assert install(recorder) is recorder
        uninstall()
        recorder.close()

    def test_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = TraceRecorder(path)
        install(recorder)
        recorder.close()
        with span("late"):
            pass  # descriptor gone; must not raise
        assert _lines(path) == []

    def test_constructor_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("stale garbage\n")
        TraceRecorder(path).close()
        assert path.read_text() == ""


class TestThreadSafety:
    def test_concurrent_spans_parse_cleanly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        per_thread = 50

        def emit(thread_index):
            for i in range(per_thread):
                with span("work", "test", thread=thread_index, i=i):
                    pass

        with recording(path):
            threads = [threading.Thread(target=emit, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        entries = _lines(path)
        assert len(entries) == 4 * per_thread
        # every thread's spans all arrived intact (tids may be reused
        # by the OS, so count by the recorded attribute instead)
        assert {entry["args"]["thread"] for entry in entries} \
            == {0, 1, 2, 3}


class TestChromeExport:
    def test_export_sorts_and_wraps(self, tmp_path):
        events = tmp_path / "events.jsonl"
        with recording(events):
            with span("outer"):
                with span("inner"):
                    pass
        out = tmp_path / "trace.json"
        assert export_chrome_trace(events, out) == 2
        payload = json.loads(out.read_text())
        trace = payload["traceEvents"]
        # sorted by start time: outer starts before inner
        assert [entry["name"] for entry in trace] == ["outer", "inner"]
        assert payload["displayTimeUnit"] == "ms"

    def test_export_skips_torn_lines(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"name": "good", "ts": 1.0, "ph": "X"}\n'
            '{"name": "torn", "ts": 2'  # killed worker mid-write
        )
        out = tmp_path / "trace.json"
        assert export_chrome_trace(events, out) == 1
        trace = json.loads(out.read_text())["traceEvents"]
        assert [entry["name"] for entry in trace] == ["good"]

    def test_export_missing_file_yields_empty_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        assert export_chrome_trace(tmp_path / "absent.jsonl", out) == 0
        assert json.loads(out.read_text())["traceEvents"] == []

    def test_recorder_export_chrome(self, tmp_path):
        events = tmp_path / "events.jsonl"
        with recording(events) as recorder:
            with span("only"):
                pass
        assert recorder.export_chrome(tmp_path / "t.json") == 1


class TestAttrClipping:
    def test_oversized_attr_is_truncated_and_marked(self, tmp_path):
        from repro.obs.trace import MAX_ATTR_CHARS

        path = tmp_path / "events.jsonl"
        huge = "x" * (MAX_ATTR_CHARS * 4)
        with recording(path):
            with span("work", "cat", payload=huge, small="ok"):
                pass
        args = _lines(path)[0]["args"]
        assert args["truncated"] is True
        assert "chars dropped" in args["payload"]
        assert len(args["payload"]) < MAX_ATTR_CHARS + 64
        # neighbours are untouched
        assert args["small"] == "ok"

    def test_small_attrs_are_not_copied(self):
        from repro.obs.trace import _clip_attrs

        attrs = {"a": 1, "b": "short"}
        assert _clip_attrs(attrs) is attrs  # copy-on-write: no clipping

    def test_instant_events_are_clipped_too(self, tmp_path):
        from repro.obs.trace import MAX_ATTR_CHARS

        path = tmp_path / "events.jsonl"
        with recording(path):
            event("marker", blob="y" * (MAX_ATTR_CHARS * 2))
        args = _lines(path)[0]["args"]
        assert args["truncated"] is True
        assert "chars dropped" in args["blob"]

    def test_unserializable_value_measured_via_str(self, tmp_path):
        from repro.obs.trace import MAX_ATTR_CHARS, _clip_attrs

        class Weird:
            def __str__(self):
                return "w" * (MAX_ATTR_CHARS * 2)

        clipped = _clip_attrs({"odd": Weird()})
        assert clipped["truncated"] is True
        assert "chars dropped" in clipped["odd"]
