"""Metrics exporters: Prometheus-textfile and JSON snapshot writers.

Long-running engine hosts — ``submit()`` servers, fabric shard workers —
need a scrape surface that outlives no process state: this module renders
an :class:`~repro.obs.metrics.EngineMetrics` snapshot either in the
Prometheus `textfile-collector exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (for a
node-exporter textfile directory) or as the plain ``to_dict()`` JSON (for
ad-hoc scripts).  :func:`write_metrics_snapshot` dispatches on the output
path's extension, which is what the ``--metrics-out`` CLI flag calls.

Exporters are observability-only, like the ledger: the snapshot is written
*after* engine work, nothing reads it back, and the one wall-clock value
(the ``exported`` stamp in JSON output) is operator-facing provenance that
never enters a fingerprint.  Files are written atomically (temp file + rename)
so a concurrent scraper never sees a torn snapshot.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Mapping

from repro.artifacts import write_text_atomic
from repro.obs.metrics import EngineMetrics, Histogram

__all__ = [
    "prometheus_text",
    "write_json_snapshot",
    "write_metrics_snapshot",
    "write_prometheus_snapshot",
]

#: Metric-name prefix for every exported series.
_PREFIX = "repro_engine"


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats in shortest form."""
    if float(value).is_integer():
        return str(int(value))
    return format(float(value), ".9g")


def _labels_text(labels: Mapping[str, str] | None, extra: Mapping[str, str] | None = None) -> str:
    merged: dict[str, str] = dict(labels) if labels else {}
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{name}="{str(value)}"' for name, value in sorted(merged.items())
    )
    return "{" + body + "}"


def _histogram_lines(
    name: str, histogram: Histogram, labels: Mapping[str, str] | None
) -> list[str]:
    """One Prometheus histogram: cumulative ``le`` buckets + ``_sum``/``_count``."""
    lines = [
        f"# HELP {name} {name.replace('_', ' ')} (log-spaced fixed buckets)",
        f"# TYPE {name} histogram",
    ]
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        cumulative += count
        le = _labels_text(labels, {"le": format(bound, "g")})
        lines.append(f"{name}_bucket{le} {cumulative}")
    cumulative += histogram.counts[-1]
    le = _labels_text(labels, {"le": "+Inf"})
    lines.append(f"{name}_bucket{le} {cumulative}")
    lines.append(f"{name}_sum{_labels_text(labels)} {_format_value(histogram.total)}")
    lines.append(f"{name}_count{_labels_text(labels)} {histogram.count}")
    return lines


def prometheus_text(
    metrics: EngineMetrics, *, labels: Mapping[str, str] | None = None
) -> str:
    """Render *metrics* in the Prometheus textfile exposition format.

    *labels* (e.g. ``{"shard": "0/2", "label": "matrix"}``) are attached to
    every sample so one textfile directory can hold every worker's snapshot
    side by side.
    """
    suffix = _labels_text(labels)
    lines: list[str] = []
    for name, kind, value in (
        (f"{_PREFIX}_jobs_completed_total", "counter", metrics.jobs_completed),
        (f"{_PREFIX}_batches_total", "counter", metrics.batches),
        (f"{_PREFIX}_busy_seconds_total", "counter", metrics.busy_seconds),
        (f"{_PREFIX}_capacity_seconds_total", "counter", metrics.capacity_seconds),
        (f"{_PREFIX}_worker_utilization", "gauge", metrics.worker_utilization),
    ):
        lines.append(f"# HELP {name} {name.replace('_', ' ')}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{suffix} {_format_value(float(value))}")
    lines.extend(_histogram_lines(f"{_PREFIX}_job_seconds", metrics.job_seconds, labels))
    lines.extend(
        _histogram_lines(f"{_PREFIX}_queue_latency_seconds", metrics.queue_latency, labels)
    )
    return "\n".join(lines) + "\n"


def write_prometheus_snapshot(
    path: str | Path, metrics: EngineMetrics, *, labels: Mapping[str, str] | None = None
) -> Path:
    """Atomically write a Prometheus textfile snapshot to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, prometheus_text(metrics, labels=labels))
    return path


def write_json_snapshot(
    path: str | Path, metrics: EngineMetrics, *, labels: Mapping[str, str] | None = None
) -> Path:
    """Atomically write a JSON metrics snapshot to *path*."""
    path = Path(path)
    payload: dict[str, Any] = {
        "labels": dict(labels) if labels else {},
        "metrics": metrics.to_dict(),
        "exported": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_metrics_snapshot(
    path: str | Path, metrics: EngineMetrics, *, labels: Mapping[str, str] | None = None
) -> Path:
    """Write a snapshot in the format implied by *path*'s extension.

    ``.json`` writes :func:`write_json_snapshot`; anything else (``.prom``,
    ``.txt``, …) writes the Prometheus exposition text.
    """
    path = Path(path)
    if path.suffix == ".json":
        return write_json_snapshot(path, metrics, labels=labels)
    return write_prometheus_snapshot(path, metrics, labels=labels)
