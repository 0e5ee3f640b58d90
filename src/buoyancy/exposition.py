"""OpenMetrics text rendering of node reports.

The output is a scrape-ready exposition: one gauge family per metric,
``# HELP``/``# TYPE`` headers, samples as ``name{labels} value`` lines,
and the mandatory ``# EOF`` trailer.
"""

from operator import attrgetter

from .engine import NodeReport

CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: One row per gauge family: (name, attribute path, help). The workload rows
#: are read from each ``BuoyancyReport``, the node rows from the ``NodeReport``.
_WORKLOAD_METRICS = (
    ("resource_score_cpu", "resource_scores.cpu", "CPU resource score of a workload."),
    ("resource_score_llc", "resource_scores.llc", "Last-level-cache resource score of a workload."),
    ("resource_score_mbw", "resource_scores.mbw", "Memory-bandwidth resource score of a workload."),
    ("perf_score", "perf_score", "SLO slack score of a workload."),
    ("buoyancy_score", "buoyancy", "Buoyancy (headroom) score of a workload."),
)

_NODE_METRICS = (
    ("node_resource_score_cpu", "node_resource_scores.cpu", "Node-level CPU resource score."),
    ("node_resource_score_llc", "node_resource_scores.llc", "Node-level last-level-cache resource score."),
    ("node_resource_score_mbw", "node_resource_scores.mbw", "Node-level memory-bandwidth resource score."),
    ("node_buoyancy", "node_buoyancy", "Node-level buoyancy score."),
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """A non-finite sample value; finite ones are written with ``repr``."""
    if value != value:
        return "NaN"
    return "+Inf" if value > 0 else "-Inf"


def _family(name: str, help_text: str, labels, values) -> str:
    """One gauge family as one string: its headers and a sample line per label and value."""
    samples = "".join(
        [f"{name}{label}{repr(v) if v - v == 0.0 else _format_value(v)}\n" for label, v in zip(labels, values)]
    )
    return f"# HELP {name} {_escape_help(help_text)}\n# TYPE {name} gauge\n{samples}"


def render_openmetrics(report: NodeReport) -> str:
    """Render one report snapshot as OpenMetrics text."""
    reports = report.workload_reports
    labels = [f'{{workload_id="{_escape_label(wr.workload_id)}"}} ' for wr in reports]
    families = [_family(name, text, labels, map(attrgetter(path), reports)) for name, path, text in _WORKLOAD_METRICS]
    families += [_family(name, text, (" ",), (attrgetter(path)(report),)) for name, path, text in _NODE_METRICS]
    families.append("# EOF\n")
    return "".join(families)
