"""The agent's HTTP front end: one thread serves every connection.

``serve_forever`` runs a ``selectors`` loop over the non-blocking listener
and its connections, in the thread that calls it: for ``serve``, the main
thread. ``shutdown`` takes no lock, so a signal handler or the engine
thread may call it, and the loop returns at once. A connection is
registered for reading once, at ``accept``, read at once and answered at
once when its head is complete: at the blank line, past
``server.MAX_HEAD_BYTES``, or when the client half-closes after sending
something. ``server._Handler`` returns the answer and the loop writes it;
a write that would block switches the connection to writing. Each wake
starts with one pass over the connections, which closes those that made
no progress for ``CONNECTION_TIMEOUT_S`` and times the next wake.
"""

import logging
import selectors
import socket
from time import monotonic
from typing import Optional

from .errors import ConfigError
from .server import _HEAD_END, MAX_HEAD_BYTES, MetricsAgent, _Handler

log = logging.getLogger(__name__)

CONNECTION_TIMEOUT_S = 10.0


class _Connection:
    """One accepted connection: its request head as read so far, then what is left of its answer."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.head = bytearray()
        self.response: Optional[memoryview] = None
        self.deadline = monotonic() + CONNECTION_TIMEOUT_S

    def read(self) -> bool:
        """Read what the socket holds; True once the head is complete or the client stopped sending."""
        while True:
            try:
                chunk = self.conn.recv(16384)
            except BlockingIOError:
                return False
            self.deadline = monotonic() + CONNECTION_TIMEOUT_S
            if not chunk:
                return True
            self.head += chunk  # searched from where the new bytes could complete the blank line
            if len(self.head) > MAX_HEAD_BYTES or _HEAD_END.search(self.head, len(self.head) - len(chunk) - 3):
                return True

    def write(self) -> bool:
        """Write what the socket takes; True once the whole answer is written."""
        while self.response:
            try:
                sent = self.conn.send(self.response)
            except BlockingIOError:
                return False
            self.response = self.response[sent:]
            self.deadline = monotonic() + CONNECTION_TIMEOUT_S
        return True


class HttpServer:
    """A non-blocking listener and its connections, all served by the thread that runs ``serve_forever``."""

    def __init__(self, listener: socket.socket, agent: MetricsAgent):
        listener.setblocking(False)
        self._listener, self._agent = listener, agent
        self._stopping = False
        self._accept_paused_until: Optional[float] = None
        self.server_address = listener.getsockname()

    def serve_forever(self):
        """Serve until ``shutdown`` is called; then close the open connections and return."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            try:
                while not self._stopping:
                    for key, _ in selector.select(self._expire(selector)):
                        if key.data is None:
                            self._accept(selector)
                        else:
                            self._progress(selector, key.data)
            finally:
                for key in list(selector.get_map().values()):
                    if key.data is not None:
                        key.data.conn.close()

    def shutdown(self):
        """Wake ``serve_forever`` by shutting the listener down (Linux); it returns once woken.

        A second call, or one after ``server_close``, only sets the flag again.
        """
        self._stopping = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # already shut down or closed
            pass

    def server_close(self):
        self._listener.close()

    def _expire(self, selector) -> Optional[float]:
        """Close connections past their deadline and end a finished accept pause; seconds to the next, or None."""
        now = monotonic()
        if self._accept_paused_until is not None and now >= self._accept_paused_until:
            self._accept_paused_until = None
            selector.register(self._listener, selectors.EVENT_READ)
        nearest = self._accept_paused_until
        for connection in [key.data for key in selector.get_map().values() if key.data is not None]:
            if connection.deadline <= now:
                log.debug("http: connection dropped: no progress for %s s", CONNECTION_TIMEOUT_S)
                self._close(selector, connection)
            elif nearest is None or connection.deadline < nearest:
                nearest = connection.deadline
        return None if nearest is None else nearest - now

    def _accept(self, selector):
        try:
            conn, _ = self._listener.accept()
        except BlockingIOError:  # another event took the connection, or the client reset it
            return
        except OSError as exc:  # shut down, or out of descriptors: stop accepting for a pause
            if not self._stopping:
                log.debug("http: accept failed: %s", exc)
                selector.unregister(self._listener)
                self._accept_paused_until = monotonic() + 0.05
            return
        conn.setblocking(False)
        key = selector.register(conn, selectors.EVENT_READ, _Connection(conn))
        self._progress(selector, key.data)

    def _progress(self, selector, connection: _Connection):
        """Take one connection as far as its socket allows now: read, answer, write, close."""
        try:
            if connection.response is None:
                if not connection.read():
                    return
                if not connection.head:  # the client closed without a request
                    return self._close(selector, connection)
                connection.response = memoryview(_Handler(self._agent).respond(connection.head))
            if not connection.write():
                return selector.modify(connection.conn, selectors.EVENT_WRITE, connection)  # a no-op once switched
        except OSError as exc:  # the client went away
            log.debug("http: connection dropped: %s", exc)
        self._close(selector, connection)

    @staticmethod
    def _close(selector, connection: _Connection):
        selector.unregister(connection.conn)
        connection.conn.close()


def make_server(agent: MetricsAgent, host: str, port: int) -> HttpServer:
    """Bind the HTTP listener; an address that cannot be bound is a ConfigError, so ``serve`` exits 1."""
    try:
        listener = socket.create_server((host, port))
    except OSError as exc:
        raise ConfigError(f"cannot bind {host}:{port}: {exc}") from None
    return HttpServer(listener, agent)
