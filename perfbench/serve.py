"""The serve-1k workload: a real ``buoyancy serve`` under an open-loop load.

The agent runs in its own process. One generator in this process sends a
seeded schedule of GETs from two threads, so at most two requests are in
flight; each request is timed from when it was due. Bodies are kept and
checked after the load ends, so checking takes no processor time from the
agent while it is measured.
"""

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import gen

RATES = {"metrics": 10.0, "node": 4.0, "poll": 40.0}  # requests per second
PHASES = {"metrics": 0.0, "node": 0.05, "poll": 0.0125}  # first due time, s
WARMUP_S = 2.0  # load sent before measuring, not counted
TIMEOUT_S = 5.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
HERE = os.path.dirname(os.path.abspath(__file__))


class Agent:
    """One agent process; ``stop`` always drains its stdout and reaps it."""

    def __init__(self, config, src, log_path, spans_path=None):
        cli = ["serve", "--config", config, "--listen", "127.0.0.1:0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "buoyancy.cli", *cli]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), spans_path, *cli]
        env = dict(os.environ, PYTHONPATH=src)
        self.log_path = log_path
        self.started = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
        self.port = None
        self.stdout = ""

    def wait_ready(self):
        """Seconds from process start until the first 200 on /metrics."""
        deadline = self.started + START_TIMEOUT_S
        while self.port is None:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"agent did not start; see {self.log_path}")
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    if "listening on " in line:
                        self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        while True:
            status, _ = get(self.port, "/metrics")
            if status == 200:
                return time.perf_counter() - self.started
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"agent never served /metrics; see {self.log_path}")
            time.sleep(0.002)

    def mark(self):
        """Ask a traced agent (``launcher.py``) for a snapshot of its span totals."""
        self.proc.send_signal(signal.SIGUSR1)

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM, drain stdout, reap. Returns True on a clean exit 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.stdout, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.stdout, _ = self.proc.communicate()
            return False
        return self.proc.returncode == 0


def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        return None, b""
    finally:
        conn.close()


def plan(seed, seconds):
    """Open-loop schedule: (due offset s, kind, path), sorted by due.

    Each kind is sent at its fixed rate, as periodic scrapers and pollers
    do, with phases that interleave the kinds; so every seed meets the
    same pattern of overlapping requests. The seed picks the polled ids,
    among workloads that never leave the node.
    """
    rng = random.Random(f"serve:{seed}")
    ids = gen.stable_ids()
    items = []
    for kind, rate in RATES.items():
        for k in range(round(rate * seconds)):
            path = {"metrics": "/metrics", "node": "/v1/node"}.get(kind) or f"/v1/workloads/{rng.choice(ids)}"
            items.append((PHASES[kind] + k / rate, kind, path))
    return sorted(items)


def run_load(port, items):
    """Send ``items`` from two threads; one result dict per item.

    ``latency_s`` runs from due time to the end of the response, ``lag_s``
    from due time to send, ``service_s`` from send to the end.
    """
    results = [None] * len(items)
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = t0 + items[i][0]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, body = get(port, items[i][2])
            done = time.perf_counter()
            results[i] = {"status": status, "body": body, "latency_s": done - due,
                          "lag_s": sent - due, "service_s": done - sent, "done": done - t0}
    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def body_ok(kind, path, status, body):
    """The body checks: well formed, with N workloads, for the requested id."""
    if status != 200:
        return False
    try:
        text = body.decode("utf-8")
        if kind == "metrics":
            samples = sum(1 for line in text.split("\n") if line and not line.startswith("#"))
            return text.endswith("# EOF\n") and samples == 5 * gen.N + 4
        doc = json.loads(text)
        if kind == "node":
            return len(doc["workload_reports"]) == gen.N
        return doc["workload_id"] == path.rsplit("/", 1)[1]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return False


def final_report_ok(stdout):
    """The report ``serve`` prints on exit: one JSON node report."""
    try:
        return len(json.loads(stdout)["workload_reports"]) == gen.N
    except (ValueError, KeyError, TypeError):
        return False
