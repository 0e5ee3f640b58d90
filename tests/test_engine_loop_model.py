"""A model-based test of the engine loop over a replay that grows while it is read.

``EngineLoop`` drives one ``MetricsAgent`` on a strict replay file. Its
rules append to the file (good records, a new window, a bad record of each
kind, a partial line, a blank line), call ``step_once``, and read
``/metrics`` and ``/v1/node`` through ``server._Handler``. The machine
calls ``step_once`` itself, so nothing waits, and the agent's clock,
``server.monotonic``, is patched to a constant.

The model reads the file as the replay does: a line ends at a newline, or
at the end of the file when that is where a read stops. A step reads until
a record of a later window, a bad line, or the end of the file; reaching
the end ends the stream, also when the file grows later. After every rule
the test checks that:

* the snapshot's window never moves backwards;
* each batch holds exactly its window's good records, in file order;
* the first bad line ends the stream with its error and its line, after
  the batch before it, and every later step finds the stream ended;
* both reads answer 200, or 503 before the first window, never 500, and
  ``/v1/node`` is strict JSON for the snapshot's window.

At teardown ``stop`` has closed the replay file.
"""

import json
import math
from datetime import timedelta

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from buoyancy import server
from buoyancy.errors import ParseError, SchemaError
from buoyancy.server import AgentConfig, MetricsAgent, _Handler

from .conftest import EPOCH, record_dict
from .test_service import _agent_config_dict

#: Each bad line: the line itself from a good record, and the error it ends the stream with
#: (the error type, and the field a SchemaError names).
BAD_LINES = {
    "not-json": (lambda r: json.dumps(r)[:-1], ParseError, None),
    "not-an-object": (lambda r: json.dumps([r]), SchemaError, "<record>"),
    "missing-field": (lambda r: json.dumps({k: v for k, v in r.items() if k != "mem_refs"}), SchemaError, "mem_refs"),
    "wrong-type": (lambda r: json.dumps(dict(r, mem_refs=True)), SchemaError, "mem_refs"),
    "negative": (lambda r: json.dumps(dict(r, l1_miss=-1)), SchemaError, "l1_miss"),
    "not-finite": (lambda r: json.dumps(dict(r, kpi_value=math.nan)), SchemaError, "kpi_value"),
    "unknown-field": (lambda r: json.dumps(dict(r, surprise=1)), SchemaError, "surprise"),
    "bad-timestamp": (lambda r: json.dumps(dict(r, window_start="yesterday")), SchemaError, "window_start"),
}

#: A partial line is a prefix of this; a line holding one is never a record, as its first brace stays open.
_GOOD_TEXT = json.dumps(record_dict())


def _strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def _answer(agent: MetricsAgent, path: str) -> tuple[int, bytes]:
    answer = _Handler(agent).respond(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


class EngineLoop(RuleBasedStateMachine):
    def __init__(self, path):
        super().__init__()
        path.write_text("")
        self.path = path
        self.agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(str(path))))
        #: The file as lines, each the list of what was written to it; the last one has no newline yet.
        self.lines: list[list] = [[]]
        self.writing = 0  # the window that good records are written to
        self.ids = 0  # good records written to that window
        self.spoilt = False  # a bad or partial line is written
        # What the replay has read: lines, the batch it holds, and what the next step returns.
        self.read = 0
        self.batch: list[tuple[str, int]] = []
        self.pending_error = None
        self.ended = False
        self.windows: list[int] = []  # the window of each report, in order

    # ------------------------------------------------------------- writing

    def _write(self, text: str, item, newline: bool = True):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(text + "\n" if newline else text)
        self.lines[-1].append(item)
        if newline:
            self.lines.append([])

    # A blank line after each record puts blank lines inside windows, where a batch must not split.
    @rule(count=st.integers(1, 3), blank=st.sampled_from([None, "", " \t\r"]))
    def append_good_records(self, count, blank):
        for _ in range(count):
            wid = f"w{self.ids}"
            self.ids += 1
            record = record_dict(workload_id=wid, window_index=self.writing, kpi_value=float(self.ids))
            self._write(json.dumps(record), ("good", wid, self.writing))
            if blank is not None:
                self._write(blank, ("blank",))

    @rule(skip=st.integers(1, 2))
    def new_window(self, skip):
        self.writing += skip
        self.ids = 0

    # Nothing after the first bad line is read, so each example writes at most one bad or
    # partial line, and only from its second window on, so that most examples step first.
    @precondition(lambda self: not self.spoilt and self.writing)
    @rule(kind=st.sampled_from(sorted(BAD_LINES)))
    def append_bad_record(self, kind):
        self.spoilt = True
        make, error, field = BAD_LINES[kind]
        self._write(make(record_dict(workload_id="bad", window_index=self.writing)), ("bad", error, field))

    @precondition(lambda self: not self.spoilt and self.writing)
    @rule(cut=st.integers(1, len(_GOOD_TEXT) - 1))
    def append_partial_line(self, cut):
        self.spoilt = True
        self._write(_GOOD_TEXT[:cut], ("partial",), newline=False)

    @rule(blank=st.sampled_from(["", " ", "\t \r"]))
    def append_blank_line(self, blank):
        self._write(blank, ("blank",))

    # ------------------------------------------------------------- the model

    def _line_error(self, items, line_no):
        """The error that line ``line_no``, made of ``items``, ends the stream with, or None for a good line."""
        if items[0][0] == "partial":  # a line of more than one item starts with the partial one
            return ParseError, None, line_no
        if items[0][0] == "bad":
            return items[0][1], items[0][2], line_no
        return None

    def _expected_step(self):
        """What the next ``step_once`` returns: a batch of (id, window), an error, or None at end of stream."""
        if self.ended:
            return None
        if self.pending_error is not None:
            error, self.pending_error, self.ended = self.pending_error, None, True
            return error
        while True:
            if self.read == len(self.lines) - 1 and not self.lines[-1]:  # the end of the file, for now
                self.ended = True
                return self.batch or None
            items = self.lines[self.read]
            self.read += 1
            if items and all(item[0] == "blank" for item in items):
                continue
            error = self._line_error(items, self.read)
            if error is not None:
                if self.batch:  # the batch before a bad line comes first
                    batch, self.batch, self.pending_error = self.batch, [], error
                    return batch
                self.ended = True
                return error
            record = items[0][1:]
            if self.batch and self.batch[0][1] != record[1]:
                batch, self.batch = self.batch, [record]
                return batch
            self.batch.append(record)

    # A step with no record to read would end the stream at once; the precondition reads only the model.
    @precondition(
        lambda self: self.ended or self.pending_error or self.batch
        or any(item[0] != "blank" for items in self.lines[self.read:-1] for item in items)
    )
    @rule()
    def step(self):
        expected = self._expected_step()
        before = self.agent.snapshot()
        try:
            stepped = self.agent.step_once()
        except (ParseError, SchemaError) as exc:
            assert self.agent.snapshot() is before, "a rejected step changed the snapshot"
            assert isinstance(expected, tuple) and len(expected) == 3, f"step raised {exc!r}, expected {expected}"
            error, field, line = expected
            assert type(exc) is error, (exc, expected)
            assert getattr(exc, "field", None) == field, (exc, expected)
            assert exc.line == line, (exc, expected)
            return
        if expected is None:
            assert not stepped and self.agent.snapshot() is before, "stepped past the end of the stream"
            return
        assert isinstance(expected, list), f"stepped, expected {expected}"
        assert stepped
        report = self.agent.snapshot()
        window = expected[0][1]
        assert [wr.workload_id for wr in report.workload_reports] == [wid for wid, _ in expected]
        assert report.window_start == EPOCH + timedelta(seconds=window)
        self.windows.append(window)

    # ------------------------------------------------------------- invariants

    @invariant()
    def window_never_moves_backwards(self):
        assert self.windows == sorted(set(self.windows))

    @invariant()
    def reads_answer(self):
        report = self.agent.snapshot()
        for path in ("/metrics", "/v1/node"):
            status, body = _answer(self.agent, path)
            assert status == (503 if report is None else 200), (path, status, body)
        if report is not None:
            node = _strict_json(body.decode("utf-8"))
            assert node["window_start"] == report.window_start.isoformat()
            assert [w["workload_id"] for w in node["workload_reports"]] == [
                wr.workload_id for wr in report.workload_reports
            ]

    def teardown(self):
        self.agent.stop()
        assert self.agent._source._fh.closed


def test_engine_loop_follows_its_model(tmp_path, monkeypatch):
    monkeypatch.setattr(server, "monotonic", lambda: 1000.0)
    runs = iter(range(1 << 30))
    run_state_machine_as_test(
        lambda: EngineLoop(tmp_path / f"replay-{next(runs)}.jsonl"),
        settings=settings(max_examples=100, stateful_step_count=40, deadline=None),
    )
