import contextlib
import gc
import json
import sys
import warnings
from datetime import datetime, timedelta, timezone

import pytest

from buoyancy import CacheTopology, TelemetrySample
from buoyancy.config import plant_config_from_dict, read_json

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)

#: The cache/memory geometry used throughout: 80/1280/12288 KiB, 12-way
#: LLC, 2666 MT/s x 8 B x 4 channels (85.312 GB/s peak).
TABLE_TOPO = CacheTopology(
    l1_size_kib=80.0,
    l2_size_kib=1280.0,
    l3_size_kib=12288.0,
    l3_ways=12,
    mem_speed_mts=2666.0,
    mem_bus_width_bytes=8.0,
    mem_channels=4,
)


@pytest.fixture
def topo():
    return TABLE_TOPO


def bundled_plant_config(seed=0, noise_sigma=0.01):
    """The plant of ``configs/agent_plant.json``, with ``seed`` and ``noise_sigma`` in place of the file's.

    Its one workload, ``webapp``, saturates memory bandwidth around half load
    while its latency knee sits near 70% load, so headroom erodes before the
    latency curve shows it. The file pairs it with a 16 ms p95 SLO and an
    allocation of 4 cores and 2048 KiB of LLC.
    """
    plant = read_json("configs/agent_plant.json", "agent config")["source"]["plant"]
    return plant_config_from_dict({**plant, "seed": seed, "noise_sigma": noise_sigma})


@contextlib.contextmanager
def no_unclosed_file(monkeypatch, path):
    """Fail if a file at ``path`` is freed while still open, within the block."""
    # An unclosed file warns when it is freed, inside a destructor, so the
    # error reaches sys.unraisablehook instead of being raised.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        yield
        gc.collect()
    # Earlier tests may leave sockets for this collection to free; only the file counts.
    assert [str(u.exc_value) for u in unraisable if str(path) in str(u.exc_value)] == []


def make_sample(
    workload_id="w1",
    window_index=0,
    window_s=1.0,
    cpu_user_time_s=0.5,
    cpu_alloc_cores=2.0,
    mem_refs=1_000_000,
    l1_miss=111_803,
    l2_miss=27_951,
    l3_miss=9_021,
    mbw_bytes=21_328_000_000,
    mbw_alloc_bytes_per_s=None,
    llc_alloc_kib=None,
    kpi_value=None,
):
    start = EPOCH + timedelta(seconds=window_index * window_s)
    return TelemetrySample(
        workload_id=workload_id,
        window_start=start,
        window_end=start + timedelta(seconds=window_s),
        cpu_user_time_s=cpu_user_time_s,
        cpu_alloc_cores=cpu_alloc_cores,
        mem_refs=mem_refs,
        l1_miss=l1_miss,
        l2_miss=l2_miss,
        l3_miss=l3_miss,
        mbw_bytes=mbw_bytes,
        mbw_alloc_bytes_per_s=mbw_alloc_bytes_per_s,
        llc_alloc_kib=llc_alloc_kib,
        kpi_value=kpi_value,
    )


def record_dict(
    workload_id="w1",
    window_index=0,
    window_s=1.0,
    cpu_user_time_s=0.5,
    cpu_alloc_cores=2.0,
    mem_refs=1_000_000,
    l1_miss=111_803,
    l2_miss=27_951,
    l3_miss=9_021,
    mbw_bytes=21_328_000_000,
    mbw_alloc_bytes_per_s=None,
    llc_alloc_kib=None,
    kpi_value=None,
):
    start = EPOCH + timedelta(seconds=window_index * window_s)
    end = start + timedelta(seconds=window_s)
    return {
        "workload_id": workload_id,
        "window_start": start.isoformat().replace("+00:00", "Z"),
        "window_end": end.isoformat().replace("+00:00", "Z"),
        "cpu_user_time_s": cpu_user_time_s,
        "cpu_alloc_cores": cpu_alloc_cores,
        "mem_refs": mem_refs,
        "l1_miss": l1_miss,
        "l2_miss": l2_miss,
        "l3_miss": l3_miss,
        "mbw_bytes": mbw_bytes,
        "mbw_alloc_bytes_per_s": mbw_alloc_bytes_per_s,
        "llc_alloc_kib": llc_alloc_kib,
        "kpi_value": kpi_value,
    }


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


def two_workload_replay(path, windows=4):
    """A small deterministic replay: w1 under an SLO, w2 without one."""
    records = []
    for i in range(windows):
        records.append(
            record_dict(
                workload_id="w1",
                window_index=i,
                cpu_user_time_s=0.5 + 0.1 * i,
                mbw_bytes=21_328_000_000 + i * 1_000_000_000,
                kpi_value=5.0 + i,
            )
        )
        records.append(
            record_dict(
                workload_id="w2",
                window_index=i,
                cpu_user_time_s=0.3,
                cpu_alloc_cores=1.0,
                mem_refs=2_000_000,
                l1_miss=300_000 + 10_000 * i,
                l2_miss=80_000,
                l3_miss=30_000,
                mbw_bytes=5_000_000_000,
                llc_alloc_kib=2048.0,
                kpi_value=None if i % 2 else 8.0 + i,
            )
        )
    return write_jsonl(path, records)
