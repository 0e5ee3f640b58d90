"""Workload resource scores, buoyancy headroom, and node-level aggregation.

The package computes per-workload resource scores (CPU, last-level cache,
memory bandwidth) from raw telemetry windows, combines them with SLO
slack into a buoyancy headroom score, aggregates to node level, and ships
the operational shell around that: telemetry sources, an OpenMetrics
agent, analysis CLIs, and an extremum-seeking controller simulation.
"""

from .engine import (
    Engine,
    EngineConfig,
    NodeReport,
    buoyancy,
    log_change,
    node_buoyancy,
    node_resource_scores,
    perf_score,
)
from .errors import (
    BuoyancyError,
    ConfigError,
    InsufficientData,
    ParseError,
    SchemaError,
)
from .model import (
    BuoyancyReport,
    CacheTopology,
    ResourceScores,
    SloSpec,
    TelemetrySample,
    llc_way_size,
    theoretical_max_mbw,
)
from .scores import (
    MrcFit,
    fit_mrc,
    score_workload,
)
from .sources import (
    Allocation,
    ContentionPlant,
    PlantConfig,
    PlantSource,
    PlantWorkload,
    ReplaySource,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BuoyancyError",
    "BuoyancyReport",
    "CacheTopology",
    "ConfigError",
    "ContentionPlant",
    "Engine",
    "EngineConfig",
    "InsufficientData",
    "MrcFit",
    "NodeReport",
    "ParseError",
    "PlantConfig",
    "PlantSource",
    "PlantWorkload",
    "ReplaySource",
    "ResourceScores",
    "SchemaError",
    "SloSpec",
    "TelemetrySample",
    "buoyancy",
    "fit_mrc",
    "llc_way_size",
    "log_change",
    "node_buoyancy",
    "node_resource_scores",
    "perf_score",
    "score_workload",
    "theoretical_max_mbw",
]
