"""A model-based test of the serving loop: many connections, in interleavings nobody chose.

``ServingLoop`` drives one ``HttpServer`` over an agent with a fixed
snapshot. Its rules open connections, send requests in pieces, half-close,
read in pieces, stop reading behind a small receive buffer, reset, and
move the server's clock. That clock, ``httpd.monotonic``, is patched to a
value that only ``advance_clock`` moves, so no step waits for
``CONNECTION_TIMEOUT_S`` and which rules run never hangs on timing. After
every step the test checks that:

* a connection is answered only once its head is complete, and then with
  exactly the bytes of ``_Handler(agent).respond(head)``;
* the server closes a connection before the whole answer only once the
  clock is ``CONNECTION_TIMEOUT_S`` past the connection's last request
  bytes; an unanswered connection then gets nothing, and a reader that
  stopped reading a prefix of its answer;
* a connection whose head is incomplete is closed as soon as the clock is
  that far past its last bytes, and no sooner;
* the serving thread is alive and the only thread the server added, and
  ``/healthz`` answers.

At teardown the selector holds no connection, and the process has as many
open descriptors as before the server was made.
"""

import os
import selectors
import socket
import struct
import threading
import time
from typing import Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, run_state_machine_as_test

from buoyancy import httpd
from buoyancy.httpd import make_server
from buoyancy.server import MAX_HEAD_BYTES, AgentConfig, MetricsAgent, _Handler

from .conftest import record_dict, write_jsonl
from .test_service import _agent_config_dict

MAX_CONNECTIONS = 32
#: How long a bounded poll waits for a state that should come at once.
PATIENCE_S = 5.0
TIMEOUT_S = httpd.CONNECTION_TIMEOUT_S
#: What ``advance_clock`` adds to the server's clock: binary fractions, so that
#: every sum is exact, and the timeout itself is neither reached nor passed by
#: less than 2**-10 s.
ADVANCES = [TIMEOUT_S / 4, TIMEOUT_S / 2, TIMEOUT_S - 2**-10, TIMEOUT_S + 2**-10]

_OVER = b"GET /metrics HTTP/1.0\r\nX-Pad: "
REQUESTS = [
    b"GET /metrics HTTP/1.0\r\n\r\n",
    b"GET /v1/node HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /v1/workloads/ns%2Fpod-7?x=1 HTTP/1.0\n\n",
    b"GET /v1/workloads/ghost HTTP/1.0\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
    # One byte over the limit with no blank line: the server reads all of it, so none is left unread.
    _OVER + b"a" * (MAX_HEAD_BYTES + 1 - len(_OVER)),
    b"GARBAGE\r\n\r\n",
    b"GET /metrics FTP/1.0\r\n\r\n",
    b"POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
    b"HEAD /metrics HTTP/1.0\r\n\r\n",
]
_HEALTHZ = REQUESTS[4]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _until(condition, what: str):
    """Poll ``condition`` until it holds; fail naming ``what`` after ``PATIENCE_S``."""
    deadline = time.monotonic() + PATIENCE_S
    while not condition():
        assert time.monotonic() < deadline, f"not within {PATIENCE_S} s: {what}"
        time.sleep(0.001)


class _Client:
    """One client connection and what the model knows of it."""

    def __init__(self, port: int, request: bytes, slow: bool, now: float):
        self.request, self.slow = request, slow
        self.sent = 0
        self.progress_at = now  # the server's clock at the last bytes of the request, or at the connect
        #: What the server answers once the head is complete; None while it is not.
        self.expected: Optional[bytes] = None
        self.received = bytearray()
        self.closed = False  # the client has seen the server close
        self.sock = socket.socket()
        if slow:  # set before connecting, so the window stays small
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(PATIENCE_S)
        self.sock.connect(("127.0.0.1", port))
        self.sock.setblocking(False)

    def send(self, data: bytes):
        self.sock.settimeout(PATIENCE_S)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def poll(self, limit: int = 1 << 30):
        """Read up to ``limit`` bytes of what has arrived, without waiting; note a close."""
        while limit > 0 and not self.closed:
            try:
                chunk = self.sock.recv(min(limit, 65536))
            except BlockingIOError:
                return
            except ConnectionResetError:
                chunk = b""
            self.received += chunk
            limit -= len(chunk)
            if not chunk:
                self.closed = True
                self.sock.close()


class ServingLoop(RuleBasedStateMachine):
    def __init__(self, agent: MetricsAgent, clock: list):
        super().__init__()
        self.agent, self.clock = agent, clock
        self.fds, self.threads = _open_fds(), threading.active_count()
        self.clients: list[_Client] = []
        self.opened = 0
        self.server = make_server(agent, "127.0.0.1", 0)
        # Loopback send buffers grow to megabytes; a small one, which connections inherit,
        # makes a slow reader's answer take many writes.
        self.server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        self.port = self.server.server_address[1]
        made, make = [], selectors.DefaultSelector
        selectors.DefaultSelector = lambda: made.append(make()) or made[0]
        try:
            self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
            self.thread.start()
            _until(lambda: made, "serve_forever made its selector")
        finally:
            selectors.DefaultSelector = make
        self.selector = made[0]

    def _healthz(self):
        with socket.create_connection(("127.0.0.1", self.port), timeout=PATIENCE_S) as sock:
            sock.sendall(_HEALTHZ)
            answer = b"".join(iter(lambda: sock.recv(65536), b""))
        assert answer == _Handler(self.agent).respond(_HEALTHZ)

    def _settle(self):
        """Return once the loop has handled every event before the call and woken once more.

        The loop answers a ``/healthz`` in the wake that accepts it, possibly
        before the other events of that wake; the second starts a later wake.
        """
        self._healthz()
        self._healthz()

    def _pick(self, index: int, eligible) -> _Client:
        """The ``index``-th, cyclically, of the clients ``eligible``; a precondition makes sure there is one.

        Preconditions read only what the rules did, never what the server has
        done by now, so that hypothesis can replay an example.
        """
        candidates = [c for c in self.clients if eligible(c)]
        return candidates[index % len(candidates)]

    def _complete(self, client: _Client):
        client.expected = _Handler(self.agent).respond(client.request[:client.sent]) if client.sent else b""

    def _check(self, client: _Client):
        if client.expected is None:
            assert client.received == b"", "answered before the head was complete"
        else:
            assert client.expected.startswith(client.received), "the answer differs from respond(head)"
        if client.closed and client.received != client.expected:
            assert self.clock[0] - client.progress_at >= TIMEOUT_S, "closed before the timeout"
            assert client.slow or client.expected is None, "cut off an answer that the socket could take"

    def _poll_all(self):
        for client in self.clients:
            if not client.slow or client.expected is None:  # a slow reader reads only when a rule says so
                client.poll()

    @precondition(lambda self: self.opened < MAX_CONNECTIONS)
    @rule(request=st.sampled_from(REQUESTS), slow=st.booleans())
    def open(self, request, slow):
        self.opened += 1
        self.clients.append(_Client(self.port, request, slow, self.clock[0]))

    # ``keep`` bytes stay unsent; small counts split the blank line that ends a head.
    @precondition(lambda self: any(c.expected is None for c in self.clients))
    @rule(index=st.integers(0, MAX_CONNECTIONS), keep=st.integers(0, 4) | st.integers(0, MAX_HEAD_BYTES))
    def send_part(self, index, keep):
        client = self._pick(index, lambda c: c.expected is None)
        end = len(client.request) - keep % (len(client.request) - client.sent)
        client.send(client.request[client.sent:end])
        client.sent, client.progress_at = end, self.clock[0]
        if end == len(client.request):
            self._complete(client)

    @precondition(lambda self: any(c.expected is None for c in self.clients))
    @rule(index=st.integers(0, MAX_CONNECTIONS))
    def half_close(self, index):
        client = self._pick(index, lambda c: c.expected is None)
        client.sock.shutdown(socket.SHUT_WR)
        client.progress_at = self.clock[0]
        self._complete(client)

    @precondition(lambda self: any(c.expected is not None for c in self.clients))
    @rule(index=st.integers(0, MAX_CONNECTIONS), size=st.integers(1, 8192))
    def read_part(self, index, size):
        self._pick(index, lambda c: c.expected is not None).poll(size)

    @precondition(lambda self: any(c.expected is not None for c in self.clients))
    @rule(index=st.integers(0, MAX_CONNECTIONS))
    def read_to_end(self, index):
        client = self._pick(index, lambda c: c.expected is not None)
        _until(lambda: client.poll() or client.closed, "the server closed after its answer")
        self._check(client)
        self.clients.remove(client)

    @precondition(lambda self: self.clients)
    @rule(index=st.integers(0, MAX_CONNECTIONS))
    def reset(self, index):
        client = self._pick(index, lambda c: True)
        if not client.closed:
            client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.sock.close()
        self.clients.remove(client)

    @precondition(lambda self: self.clients)
    @rule(seconds=st.sampled_from(ADVANCES))
    def advance_clock(self, seconds):
        """Move the server's clock once every answer that the sockets can take is written."""
        _until(
            lambda: self._poll_all() or all(c.closed for c in self.clients if c.expected is not None and not c.slow),
            "every answer that the sockets can take was written",
        )
        self._settle()
        self.answers_follow_the_model()
        self.clock[0] += seconds
        self._settle()
        due = [c for c in self.clients if c.expected is None and self.clock[0] - c.progress_at >= TIMEOUT_S]
        _until(lambda: self._poll_all() or all(c.closed for c in due), "each idle connection was closed when due")
        self.answers_follow_the_model()
        for client in self.clients[:]:
            if client in due or (client.expected is not None and not client.slow):
                self.clients.remove(client)

    @invariant()
    def answers_follow_the_model(self):
        self._poll_all()
        for client in self.clients:
            self._check(client)

    @invariant()
    def the_loop_serves(self):
        assert self.thread.is_alive()
        assert threading.active_count() == self.threads + 1, "serving started a thread"
        self._healthz()

    def teardown(self):
        try:
            for client in self.clients:
                client.sock.close()
            _until(lambda: len(self.selector.get_map()) == 1, "the selector holds only the listener")
        finally:
            self.server.shutdown()
            self.thread.join(timeout=PATIENCE_S)
            self.server.server_close()
        assert not self.thread.is_alive()
        assert _open_fds() == self.fds, "a descriptor outlived the server"


def test_serving_loop_follows_its_model(tmp_path, monkeypatch):
    replay = write_jsonl(tmp_path / "t.jsonl", [record_dict(workload_id=f"ns/pod-{i}") for i in range(100)])
    agent = MetricsAgent(AgentConfig.from_dict(_agent_config_dict(replay)))
    assert agent.step_once()
    agent.stop()  # closes the replay; the snapshot stays fixed
    clock = [1000.0]
    monkeypatch.setattr(httpd, "monotonic", lambda: clock[0])
    run_state_machine_as_test(
        lambda: ServingLoop(agent, clock), settings=settings(max_examples=50, stateful_step_count=30, deadline=None)
    )
