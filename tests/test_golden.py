"""Every output in ``golden.json`` is byte-identical to the code that wrote the table.

The rows cover the agent's ``/metrics`` and ``/v1/node`` bodies on the
bundled plant config, ``render_openmetrics`` and ``report_to_json`` on a
seeded 1k-workload replay, and the ``controller-sim``, ``analyze`` and
``surface`` outputs on the bundled configs. The digests hold for Python
3.11, the version ``requires-python`` and CI name; float formatting and
the math library of another version may move the last digits. A change
that means to alter an output rewrites the table with ``python3 -m
tests.golden`` (see ``tests/golden.py``) and lists each changed row.
"""

import pytest

from . import golden


@pytest.fixture(scope="module")
def outputs():
    return golden.outputs()


@pytest.mark.parametrize("row", sorted(golden.load_table()))
def test_output_matches_its_golden_digest(outputs, row):
    assert golden.digest(outputs[row]) == golden.load_table()[row]


def test_every_output_has_a_row(outputs):
    assert sorted(outputs) == sorted(golden.load_table())
