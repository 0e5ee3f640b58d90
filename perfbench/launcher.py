"""Runs ``buoyancy.cli.main`` with the span wrappers installed.

    PYTHONPATH=src python3 perfbench/launcher.py SPANS.json serve --config ...

The arguments after SPANS.json go to the CLI unchanged. The wrappers are on
from the start, so they also time the readiness probes, the warm-up load and
the final report; the measured interval is marked instead. Each SIGUSR1
takes a snapshot of the span totals; when the CLI returns (``serve`` returns
on SIGTERM), the totals accrued between the first two snapshots are written
to SPANS.json and the CLI's exit code is passed on. Without two snapshots
the launcher exits with 1 and writes nothing.
"""

import json
import signal
import sys

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)(True)
    marks = []
    signal.signal(signal.SIGUSR1, lambda *_: marks.append(tracer.totals()))
    from buoyancy.cli import main as cli_main

    code = cli_main(argv)
    if len(marks) < 2:
        sys.stderr.write(f"launcher: {len(marks)} SIGUSR1 marks, need 2\n")
        return 1
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(spans.difference(marks[1], marks[0]), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
