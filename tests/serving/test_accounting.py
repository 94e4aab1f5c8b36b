"""Batch accounting: the report, the counters and the spans agree.

One parametrised scenario per batch outcome — served, degraded, no live
workers, every worker erroring, and an exception inside the serve loop.
For each, the ``serving.failed_total``/``serving.degraded_total`` deltas
must equal the report's failed/degraded counts, a failed record's
``request`` span must carry its error, a failed batch must emit no
``batch.serve`` span, and every telemetry record must have exactly one
``request`` span.  Requests still queued when the server stops are
accounted the same way.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.obs import (
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
)
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    RequestError,
    ServerConfig,
    build_demo_system,
)


@pytest.fixture(scope="module")
def system():
    return build_demo_system(num_workers=2)


def inputs(system, count, seed=0):
    return np.random.default_rng(seed).normal(
        size=(count, *system.input_shape)).astype(np.float32)


def try_infer(server, x):
    try:
        server.infer(x, timeout=30.0)
    except RequestError:
        pass


def served(server, system):
    for seed in range(3):
        server.infer(inputs(system, 2, seed=seed))


def degraded(server, system):
    server.infer(inputs(system, 2))
    server.cluster.kill_worker("w0")
    deadline = time.perf_counter() + 10.0
    while not server.stats().degraded_requests \
            and time.perf_counter() < deadline:
        try_infer(server, inputs(system, 2))   # kill may land mid-batch


def no_live_workers(server, system):
    server.infer(inputs(system, 2))
    server.cluster.kill_worker("w0")
    server.cluster.kill_worker("w1")
    try_infer(server, inputs(system, 2))


def all_workers_erroring(server, system):
    # Bypass submit-side validation: every worker replies ("error", ...).
    server._input_shape = None
    try_infer(server, np.zeros((2, 5, 8, 8), dtype=np.float32))


def serve_loop_exception(server, system):
    server._fusion = None              # predict() raises inside the loop
    try_infer(server, inputs(system, 2))


OUTCOMES = {
    # name: (drive, expected failed > 0, expected degraded > 0)
    "served": (served, False, False),
    "degraded": (degraded, False, True),
    "no_live_workers": (no_live_workers, True, False),
    "all_workers_erroring": (all_workers_erroring, True, False),
    "serve_loop_exception": (serve_loop_exception, True, False),
}


def counter(name):
    return get_registry().counter(name).value


@dataclasses.dataclass
class Run:
    report: object
    records: list
    spans: list
    failed_delta: float
    degraded_delta: float


@pytest.fixture(scope="module", params=list(OUTCOMES))
def run(request, system):
    """Drive one outcome through a traced 2-worker server."""
    drive, expect_failed, expect_degraded = OUTCOMES[request.param]
    enable_tracing()
    get_tracer().clear()
    failed_before = counter("serving.failed_total")
    degraded_before = counter("serving.degraded_total")
    server = InferenceServer(
        system.make_cluster(), system.fusion,
        ServerConfig(batching=BatchingConfig(max_batch_samples=8,
                                             max_wait_s=0.002),
                     worker_timeout_s=5.0))
    try:
        with server:
            drive(server, system)
    finally:
        disable_tracing()
    report = server.stats()
    assert (report.failed > 0) == expect_failed
    assert (report.degraded_requests > 0) == expect_degraded
    return Run(report, server.records(), get_tracer().spans(),
               counter("serving.failed_total") - failed_before,
               counter("serving.degraded_total") - degraded_before)


def request_spans(run):
    spans = {}
    for span in run.spans:
        if span.name == "request":
            assert span.trace_id not in spans, "two request spans"
            spans[span.trace_id] = span
    return spans


def test_counters_report_and_spans_agree(run):
    assert run.failed_delta == run.report.failed
    assert run.degraded_delta == run.report.degraded_requests
    records = {r.request_id: r for r in run.records}
    served_batches = {s.trace_id for s in run.spans
                      if s.name == "batch.serve"}
    for request_id, span in request_spans(run).items():
        record = records[request_id]
        if record.error is None:
            assert span.attrs["batch_id"] in served_batches
        else:
            assert span.attrs["error"] == record.error
            assert span.attrs["batch_id"] not in served_batches


def test_every_record_has_one_request_span(run):
    assert sorted(request_spans(run)) == \
        sorted(r.request_id for r in run.records)


def test_requests_drained_by_stop_count_as_failed(system):
    server = InferenceServer(system.make_cluster(), system.fusion)
    server._serve_loop = lambda: None  # nothing serves the queue
    failed_before = counter("serving.failed_total")
    enable_tracing()
    get_tracer().clear()
    try:
        with server:
            futures = [server.submit(inputs(system, 1, seed=seed))
                       for seed in range(3)]
    finally:
        disable_tracing()
    for future in futures:
        with pytest.raises(RequestError, match="server stopped"):
            future.result(1.0)
    assert server.stats().failed == 3
    assert counter("serving.failed_total") - failed_before == 3
    spans = [s for s in get_tracer().spans() if s.name == "request"]
    assert sorted(s.trace_id for s in spans) == \
        sorted(f.request_id for f in futures)
    assert all(s.attrs["error"] == "server stopped" for s in spans)
