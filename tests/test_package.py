import os
import subprocess
import sys
import types
from pathlib import Path

import buoyancy


def test_all_lists_every_public_name_once_and_each_resolves():
    exported = buoyancy.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(buoyancy, name), name
    public = {
        name
        for name, value in vars(buoyancy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)


def test_importing_the_cli_loads_no_http_server_stack():
    """The CLI loads no subcommand's own modules until that subcommand runs.

    ``serve`` then leaves out the analysis stack and the offline commands
    the socket stack. The agent's HTTP front end is its own, since
    http.server would bring email and ssl along.
    """
    unwanted = (
        "http.server", "http.client", "socketserver", "email", "ssl",
        "buoyancy.analysis", "buoyancy.controller", "buoyancy.httpd", "statistics", "csv", "fractions", "decimal",
    )
    probe = f"import sys, buoyancy.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    src = Path(buoyancy.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
