"""Per-layer accounting from the spans :mod:`repro.obs` already emits.

The span tree of one traced batch (names as the program emits them)::

    request ─ request.queue                       (one per request)
    batch.form                                    (trace = first request)
    batch.serve ─┬ batch.gather
                 ├ batch.fusion
                 └ worker.request ─┬ worker.forward      (one per worker,
                                   ├ codec.encode         in the worker
                                   └ worker.emulate       process)
    codec.decode                                  (trace = batch)

A request's client-side latency (due time → labels in hand) splits into
stages that do not overlap along its blocking path; they sum to the
latency exactly, request by request:

    queue + serve self + transport overhead + (slowest worker: forward +
    encode + emulate + self) + fusion + residual

where *self* is a span minus the part of it its children cover, transport
overhead is ``batch.gather`` minus the slowest ``worker.request`` (IPC,
polling and decode), and the residual is what the server never sees:
send lateness, ``submit()``, and handing the labels back to the client.
"""

from __future__ import annotations

import collections
import statistics

import numpy as np

# Accounting stages, in blocking-path order.
STAGES = ("serving.batcher.queue", "serving.server.serve_self",
          "edge.transport.overhead", "edge.runtime.forward",
          "edge.codec.encode", "edge.runtime.emulate",
          "edge.runtime.worker_self", "serving.server.fusion",
          "serving.server.residual")


def self_time(parent, children) -> float:
    """``parent``'s duration minus the union of its children's intervals."""
    lo, hi = parent.ts, parent.ts + parent.duration_s
    cuts = sorted((max(lo, c.ts), min(hi, c.ts + c.duration_s))
                  for c in children)
    covered, edge = 0.0, lo
    for start, end in cuts:
        start = max(start, edge)
        if end > start:
            covered += end - start
            edge = end
    return parent.duration_s - covered


def _median_ms(values) -> float:
    if not len(values):
        raise ValueError("no spans to take a median of")
    return float(np.median(values)) * 1e3


class TraceIndex:
    """Spans of one traced phase, joined per batch and per request."""

    def __init__(self, spans):
        self.by_name = collections.defaultdict(list)
        children = collections.defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        self.children = children
        self.serve = {s.trace_id: s for s in self.by_name["batch.serve"]}
        self.gather = {s.trace_id: s for s in self.by_name["batch.gather"]}
        self.fusion = {s.trace_id: s for s in self.by_name["batch.fusion"]}
        self.queue = {s.trace_id: s for s in self.by_name["request.queue"]}
        self.batch_of = {s.trace_id: s.attrs["batch_id"]
                         for s in self.by_name["request"]}
        self.workers = collections.defaultdict(list)
        for span in self.by_name["worker.request"]:
            self.workers[span.trace_id].append(span)

    def child(self, span, name: str):
        for c in self.children[span.span_id]:
            if c.name == name:
                return c
        raise KeyError(f"{span.name} {span.span_id} has no {name} child")

    def slowest_worker(self, batch_id):
        return max(self.workers[batch_id], key=lambda s: s.duration_s)

    def stages(self, request_id, latency_s: float) -> dict[str, float]:
        """Blocking-path split of one request's latency (seconds)."""
        batch = self.batch_of[request_id]
        serve = self.serve[batch]
        gather, fusion = self.gather[batch], self.fusion[batch]
        worker = self.slowest_worker(batch)
        forward = self.child(worker, "worker.forward")
        encode = self.child(worker, "codec.encode")
        emulate = self.child(worker, "worker.emulate")
        queue = self.queue[request_id].duration_s
        return {
            "serving.batcher.queue": queue,
            "serving.server.serve_self": self_time(serve, [gather, fusion]),
            "edge.transport.overhead": gather.duration_s - worker.duration_s,
            "edge.runtime.forward": forward.duration_s,
            "edge.codec.encode": encode.duration_s,
            "edge.runtime.emulate": emulate.duration_s,
            "edge.runtime.worker_self": self_time(
                worker, [forward, encode, emulate]),
            "serving.server.fusion": fusion.duration_s,
            "serving.server.residual": latency_s - queue - serve.duration_s,
        }


def account(index: TraceIndex, phase) -> tuple[dict, dict]:
    """Per-layer metrics and the latency accounting of one traced phase.

    Returns ``(metrics, accounting)``.  ``accounting`` holds each stage's
    median (ms), their sum, the traced p50 and the gap between the two,
    and each stage's mean over the requests in the p45-p55 latency band.
    """
    served = [o for o in phase.served if o.request_id in index.batch_of]
    if len(served) != len(phase.served):
        raise RuntimeError(f"{len(phase.served) - len(served)} served "
                           "requests have no request span")
    per_stage = collections.defaultdict(list)
    latencies = []
    for outcome in served:
        latency = outcome.done - outcome.due
        latencies.append(latency)
        for stage, seconds in index.stages(outcome.request_id,
                                           latency).items():
            per_stage[stage].append(seconds)
    stage_ms = {stage: _median_ms(per_stage[stage]) for stage in STAGES}
    p50_ms = _median_ms(latencies)
    total_ms = sum(stage_ms.values())
    # Medians do not add up; the stage means of the requests ranked
    # 45th-55th percentile by latency do, to their mean latency.
    order = np.argsort(latencies)
    band = order[int(0.45 * len(order)):int(0.55 * len(order)) + 1]
    accounting = {"stages_ms": stage_ms, "sum_ms": total_ms,
                  "p50_ms": p50_ms,
                  "gap_pct": 100.0 * (total_ms - p50_ms) / p50_ms,
                  "band_ms": {stage: 1e3 * float(np.mean(
                      np.asarray(per_stage[stage])[band])) for stage in STAGES},
                  "band_latency_ms": 1e3 * float(np.mean(
                      np.asarray(latencies)[band]))}

    wall = phase.span_s
    spans = index.by_name
    serves = spans["batch.serve"]
    workers = spans["worker.request"]
    busy_by_worker = collections.defaultdict(float)
    for span in workers:
        busy_by_worker[span.process] += span.duration_s
    samples = sum(s.attrs["samples"] for s in workers)
    forwards = [s.duration_s for s in spans["worker.forward"]]
    overheads = [index.gather[b].duration_s
                 - index.slowest_worker(b).duration_s for b in index.gather]
    metrics = {
        "serving.batcher.queue_ms": _median_ms(
            [s.duration_s for s in spans["request.queue"]]),
        "serving.batcher.form_ms": _median_ms(
            [s.duration_s for s in spans["batch.form"]]),
        "serving.batcher.requests_per_batch": statistics.fmean(
            s.attrs["requests"] for s in serves),
        "serving.batcher.samples_per_batch": statistics.fmean(
            s.attrs["samples"] for s in serves),
        "serving.server.gather_ms": _median_ms(
            [s.duration_s for s in spans["batch.gather"]]),
        "serving.server.fusion_ms": _median_ms(
            [s.duration_s for s in spans["batch.fusion"]]),
        "serving.server.busy_frac": sum(s.duration_s for s in serves) / wall,
        "serving.server.residual_ms": stage_ms["serving.server.residual"],
        "edge.transport.overhead_ms": _median_ms(overheads),
        "edge.runtime.forward_ms": _median_ms(forwards),
        "edge.runtime.forward_ms_per_img": 1e3 * sum(forwards) / samples,
        "edge.runtime.busy_frac": max(busy_by_worker.values()) / wall,
        "edge.runtime.emulate_ms": _median_ms(
            [s.duration_s for s in spans["worker.emulate"]]),
        "edge.codec.encode_ms": _median_ms(
            [s.duration_s for s in spans["codec.encode"]]),
        "edge.codec.decode_ms": _median_ms(
            [s.duration_s for s in spans["codec.decode"]]),
        "edge.codec.bytes_per_img": sum(
            s.attrs["nbytes"] for s in spans["codec.encode"]) / samples,
        "obs.accounting_gap_pct": accounting["gap_pct"],
    }
    return metrics, accounting


def batch_mix(index: TraceIndex) -> dict[int, int]:
    """How many batches of each size the workers ran."""
    return dict(collections.Counter(
        s.attrs["samples"] for s in index.by_name["batch.serve"]))


def served_forward_s(index: TraceIndex) -> float:
    """Mean ``worker.forward`` per worker per batch, as served."""
    return statistics.fmean(s.duration_s
                            for s in index.by_name["worker.forward"])
