"""Per-request telemetry and aggregate serving statistics.

Every request that passes through :class:`repro.serving.InferenceServer`
gets a :class:`RequestTelemetry` record with the full latency breakdown
(queue wait, scatter/gather, emulated compute and transfer, fusion), and
:class:`ServingReport` aggregates a run's records into throughput,
p50/p95/p99 latency, and per-worker health — the numbers a serving
dashboard would plot.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

# Version stamp on every exported report dict; bump on breaking shape
# changes so downstream consumers of `repro serve --json` can dispatch.
SERVING_SCHEMA_VERSION = 1


def percentile(values: Sequence[float], q: float) -> float | None:
    """Linear-interpolated percentile (``q`` in [0, 100]); None when empty.

    An empty window has no percentile — returning ``None`` (not NaN)
    keeps aggregate reports JSON-serializable: ``json.dumps`` renders
    ``None`` as ``null`` but emits the non-standard token ``NaN`` for
    ``float("nan")``, which breaks downstream parsers of the CLI's
    machine-readable output.
    """
    if not len(values):
        return None
    return float(np.percentile(values, q))


def _round(value: float | None, digits: int, scale: float = 1.0):
    """Scale+round for display/json rows; passes ``None`` through."""
    if value is None:
        return None
    return round(value * scale, digits)


@dataclasses.dataclass
class RequestTelemetry:
    """Latency breakdown for one served request (all durations seconds)."""

    request_id: int
    num_samples: int                   # images in this request
    enqueued_at: float                 # perf_counter timestamps
    enqueued_wall: float = 0.0         # wall clock (unix s): aligns spans
    dispatched_at: float = 0.0
    completed_at: float = 0.0
    batch_requests: int = 0            # requests coalesced into its batch
    batch_samples: int = 0             # images in that batch
    queue_s: float = 0.0               # enqueue -> dispatch
    gather_s: float = 0.0              # scatter -> last worker reply
    fusion_s: float = 0.0              # fusion forward
    emulated_compute_s: float = 0.0    # critical-path worker compute
    emulated_transfer_s: float = 0.0   # critical-path feature transfer
    bytes_out: int = 0                 # input bytes scattered to workers
    bytes_in: int = 0                  # encoded feature bytes gathered
    degraded: bool = False             # zero-filled features were used
    workers_down: tuple[str, ...] = ()
    error: str | None = None

    @property
    def total_s(self) -> float:
        return self.completed_at - self.enqueued_at

    @property
    def service_s(self) -> float:
        return self.completed_at - self.dispatched_at


@dataclasses.dataclass
class ServingReport:
    """Aggregate statistics over a window of completed requests."""

    completed: int
    failed: int
    wall_seconds: float
    throughput_rps: float              # requests / second
    throughput_sps: float              # samples (images) / second
    # Latency stats are None for an empty window (no completed requests):
    # there is no meaningful percentile, and None stays valid JSON.
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None
    latency_mean_s: float | None
    queue_mean_s: float | None
    gather_mean_s: float | None
    fusion_mean_s: float | None
    # Weighted by request: each completed request adds the request count
    # of its batch.  The serving.batch_samples histogram instead counts
    # samples once per batch, so the two differ by definition.
    mean_batch_requests: float | None
    degraded_requests: int
    worker_health: dict[str, str]      # worker_id -> "up" | reason it is down
    wire_bytes_out: int = 0            # total input bytes scattered
    wire_bytes_in: int = 0             # total encoded feature bytes gathered
    effective_bw_mbps: float = 0.0     # gathered wire Mbit per wall second
    started_at: float | None = None    # wall clock (unix s) the window began
    metrics: dict | None = None        # registry snapshot, when requested

    # Packed column layout for the single-pass aggregation below.
    _COLS = ("total", "queue", "gather", "fusion", "samples",
             "batch_requests", "bytes_out", "bytes_in", "ok", "degraded")

    @staticmethod
    def from_records(records: Iterable[RequestTelemetry],
                     wall_seconds: float,
                     worker_health: dict[str, str] | None = None,
                     started_at: float | None = None,
                     metrics: dict | None = None,
                     ) -> "ServingReport":
        # One python pass packs every record into a (n, 10) float64 matrix;
        # all aggregation (masking, sums, means, percentiles) then runs as
        # numpy column reductions.  At loadgen scale this path executes per
        # report per rate point, so it must not re-walk the records once
        # per field.
        records = list(records)
        n = len(records)
        cols = np.empty((n, len(ServingReport._COLS)), dtype=np.float64)
        for i, r in enumerate(records):
            cols[i] = (r.completed_at - r.enqueued_at, r.queue_s, r.gather_s,
                       r.fusion_s, r.num_samples, r.batch_requests,
                       r.bytes_out, r.bytes_in, r.error is None, r.degraded)
        ok = cols[:, 8].astype(bool) if n else np.zeros(0, dtype=bool)
        done = cols[ok]
        completed = int(done.shape[0])
        failed = n - completed
        wall = max(wall_seconds, 1e-12)

        if completed:
            totals = done[:, 0]
            p50, p95, p99 = (float(v) for v in
                             np.percentile(totals, (50, 95, 99)))
            means = done[:, :4].mean(axis=0)
            lat_mean, queue_mean, gather_mean, fusion_mean = \
                (float(v) for v in means)
            batch_mean = float(done[:, 5].mean())
        else:
            p50 = p95 = p99 = lat_mean = None
            queue_mean = gather_mean = fusion_mean = batch_mean = None
        sums = done[:, (4, 6, 7, 9)].sum(axis=0) if completed else \
            np.zeros(4)
        samples, wire_out, wire_in, degraded = (float(v) for v in sums)

        return ServingReport(
            completed=completed,
            failed=failed,
            wall_seconds=wall_seconds,
            throughput_rps=completed / wall,
            throughput_sps=samples / wall,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            latency_mean_s=lat_mean,
            queue_mean_s=queue_mean,
            gather_mean_s=gather_mean,
            fusion_mean_s=fusion_mean,
            mean_batch_requests=batch_mean,
            degraded_requests=int(degraded),
            worker_health=dict(worker_health or {}),
            wire_bytes_out=int(wire_out),
            wire_bytes_in=int(wire_in),
            effective_bw_mbps=wire_in * 8 / 1e6 / wall,
            started_at=started_at,
            metrics=metrics,
        )

    def to_dict(self) -> dict:
        """JSON-serializable view (empty-window stats are ``null``)."""
        data = dataclasses.asdict(self)
        data["schema_version"] = SERVING_SCHEMA_VERSION
        return data

    def row(self) -> dict:
        """One flat dict, ready for :func:`repro.core.metrics.format_table`."""
        down = sorted(w for w, s in self.worker_health.items() if s != "up")
        return {
            "completed": self.completed,
            "failed": self.failed,
            "rps": round(self.throughput_rps, 2),
            "img/s": round(self.throughput_sps, 2),
            "p50_ms": _round(self.latency_p50_s, 3, 1e3),
            "p95_ms": _round(self.latency_p95_s, 3, 1e3),
            "p99_ms": _round(self.latency_p99_s, 3, 1e3),
            "queue_ms": _round(self.queue_mean_s, 3, 1e3),
            "fusion_ms": _round(self.fusion_mean_s, 3, 1e3),
            "batch_reqs": _round(self.mean_batch_requests, 2),
            "wire_in_kb": round(self.wire_bytes_in / 1024, 1),
            "wire_out_kb": round(self.wire_bytes_out / 1024, 1),
            "bw_mbps": round(self.effective_bw_mbps, 3),
            "degraded": self.degraded_requests,
            "down": ",".join(down) or "-",
        }
