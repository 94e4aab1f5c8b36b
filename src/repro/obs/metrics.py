"""Metrics registry: named counters, gauges, and histograms.

The always-on complement to tracing: cheap enough to leave recording in
every hot path (one dict lookup + one locked add), aggregated on demand
into JSON-safe snapshots that :class:`repro.serving.ServingReport` embeds
and a future gateway tier can roll up across replicas.

Naming conventions (see ``docs/architecture.md`` → Observability):

* dotted lowercase names, ``_total`` suffix for monotonic counters
  (``serving.requests_total``), plain nouns for gauges
  (``serving.queue_depth``), ``_seconds``/``_bytes`` unit suffixes for
  histograms and size counters;
* one instrument per ``(name, labels)`` pair — labels are sorted into the
  snapshot key as ``name{k=v,...}`` so the same fleet position always
  aggregates to the same series (e.g. ``edge.inflight{worker=w0}``).

Instruments are process-local.  Worker *spans* cross the process boundary
via the wire protocol (:mod:`repro.obs.trace`); worker-side metrics stay
in the worker process by design — the server-side cluster records the
authoritative per-worker dispatch/reply/bytes series for the fleet.
"""

from __future__ import annotations

import bisect
import threading

# Geometric bounds from 1 µs to ~17 s — wide enough for a codec decode
# and a cold model rebuild on the same scale.
DEFAULT_SECONDS_BOUNDS = tuple(1e-6 * 4 ** i for i in range(13))

METRICS_SCHEMA_VERSION = 1


class Counter:
    """Monotonic counter; ``inc`` only."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, in-flight requests)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bound bucketed distribution with count/sum/min/max.

    Buckets are cumulative-less (each holds its own count); quantiles are
    estimated by linear interpolation inside the winning bucket — coarse,
    but bounded-memory and mergeable across snapshots, which is what a
    fleet rollup needs.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_SECONDS_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty "
                             "sequence")
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last = overflow
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            return _bucket_quantile(self.bounds, self._counts, self._count,
                                    self._min, self._max, q)

    def snapshot(self) -> dict:
        """Counts, moments and p50/p95/p99 from one lock acquisition."""
        with self._lock:
            count, total = self._count, self._sum
            counts = list(self._counts)
            lo, hi = self._min, self._max
        p50, p95, p99 = (
            _bucket_quantile(self.bounds, counts, count, lo, hi, q)
            for q in (0.5, 0.95, 0.99))
        mean = total / count if count else None
        return {"type": "histogram", "count": count, "sum": total,
                "mean": mean, "min": lo, "max": hi,
                "p50": p50, "p95": p95, "p99": p99,
                "bounds": list(self.bounds), "buckets": counts}


def _bucket_quantile(bounds, counts, count, lo, hi, q) -> float | None:
    """Interpolate quantile ``q`` inside its bucket, clamped to [lo, hi].

    Without the clamp, interpolation inside the first or last occupied
    bucket reaches past the data (e.g. below a minimum that sits on a
    bucket's upper bound).
    """
    if count == 0:
        return None
    rank = q * count
    seen = 0
    for index, bucket in enumerate(counts):
        if bucket == 0:
            continue
        if seen + bucket >= rank:
            left = 0.0 if index == 0 else bounds[index - 1]
            right = bounds[index] if index < len(bounds) else hi
            frac = min(max((rank - seen) / bucket, 0.0), 1.0)
            return min(max(left + (right - left) * frac, lo), hi)
        seen += bucket
    return hi


def _series_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for every instrument in a process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, labels: dict, factory):
        key = _series_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = factory()
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        instrument = self._get(name, labels, Counter)
        if not isinstance(instrument, Counter):
            raise TypeError(f"{_series_key(name, labels)!r} is already a "
                            f"{type(instrument).__name__}")
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        instrument = self._get(name, labels, Gauge)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"{_series_key(name, labels)!r} is already a "
                            f"{type(instrument).__name__}")
        return instrument

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_SECONDS_BOUNDS,
                  **labels) -> Histogram:
        instrument = self._get(name, labels, lambda: Histogram(bounds))
        if not isinstance(instrument, Histogram):
            raise TypeError(f"{_series_key(name, labels)!r} is already a "
                            f"{type(instrument).__name__}")
        return instrument

    # -- aggregation ----------------------------------------------------
    def snapshot(self, prefix: str = "") -> dict:
        """JSON-safe ``{series_key: instrument snapshot}``, sorted.

        ``prefix`` filters to one namespace (e.g. ``"serving."``) so a
        report can embed just its own slice.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        return {key: instrument.snapshot() for key, instrument in items
                if key.startswith(prefix)}

    def render_text(self, prefix: str = "") -> str:
        """Human-readable dump (the CLI's ``--metrics`` output)."""
        lines = []
        for key, snap in self.snapshot(prefix).items():
            if snap["type"] == "histogram":
                if snap["count"] == 0:
                    continue
                lines.append(
                    f"{key}  count={snap['count']} mean={snap['mean']:.3g} "
                    f"p50={snap['p50']:.3g} p95={snap['p95']:.3g} "
                    f"max={snap['max']:.3g}")
            else:
                value = snap["value"]
                shown = int(value) if float(value).is_integer() else \
                    round(value, 6)
                lines.append(f"{key}  {shown}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (test isolation / fresh runs)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry all built-in hooks record into."""
    return _registry
