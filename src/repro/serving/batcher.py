"""Request queue and dynamic batcher.

Clients submit single requests (one or a few images each) and get a
:class:`ServedFuture` back immediately.  The serving loop pulls
:class:`Batch` objects from the :class:`DynamicBatcher`: it blocks for the
first pending request, then keeps coalescing arrivals until either
``max_batch_samples`` images are collected or ``max_wait_s`` has elapsed
since the batch opened — the classic dynamic-batching policy (max batch
size + max wait deadline) from Clipper-style serving systems.  With
``max_batch_samples=1`` / ``max_wait_s=0`` it degenerates to FIFO
one-request-at-a-time dispatch, which is the baseline the benchmarks
compare against.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time

import numpy as np

from .telemetry import RequestTelemetry


class RequestError(RuntimeError):
    """The server failed (or refused) to serve a request."""


class QueueFullError(RequestError):
    """Admission control rejected the request: the queue is at capacity."""


class ServedFuture:
    """Handle to an in-flight request; resolves to per-sample labels."""

    def __init__(self, request_id: int, x: np.ndarray,
                 telemetry: RequestTelemetry):
        self.request_id = request_id
        self.x = x
        self.telemetry = telemetry
        self._done = threading.Event()
        self._result: np.ndarray | None = None
        self._error: Exception | None = None

    def set_result(self, labels: np.ndarray) -> None:
        self._result = labels
        self._done.set()

    def set_error(self, error: Exception) -> None:
        self._error = error
        self.telemetry.error = str(error)
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until served; returns predicted labels for every sample."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not served within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclasses.dataclass
class Batch:
    """Coalesced requests dispatched as one fused forward, and the one
    timing record of that batch: the batcher stamps formation, the server
    the rest, and ``InferenceServer._finish`` derives telemetry, metrics
    and spans from it.  Times are ``perf_counter`` except ``*_wall`` (unix
    s); ``dispatched_at == 0`` means never dispatched.
    """

    requests: list[ServedFuture]
    formed_wall: float = 0.0           # first request taken off the queue
    form_s: float = 0.0                # ...until the batch closed
    dispatched_at: float = 0.0
    dispatched_wall: float = 0.0
    batch_id: int | None = None        # scatter request id = trace id
    span_id: str | None = None         # batch.serve span, minted pre-dispatch
    workers: int = 0                   # hosting workers at dispatch
    gather_s: float = 0.0              # scatter -> last reply or failure
    fusion_at: float = 0.0
    fusion_s: float = 0.0
    completed_at: float = 0.0
    emulated_compute_s: float = 0.0    # slowest worker's emulated compute
    emulated_transfer_s: float = 0.0   # slowest worker's emulated transfer
    bytes_out: int = 0                 # input bytes scattered
    bytes_in: int = 0                  # encoded feature bytes gathered
    missing: tuple[str, ...] = ()      # fusion slots without features

    @property
    def sizes(self) -> list[int]:
        return [len(r.x) for r in self.requests]

    @property
    def num_samples(self) -> int:
        return sum(self.sizes)

    def concatenated(self) -> np.ndarray:
        if len(self.requests) == 1:
            return self.requests[0].x
        return np.concatenate([r.x for r in self.requests], axis=0)


@dataclasses.dataclass(frozen=True)
class BatchingConfig:
    max_batch_samples: int = 16    # flush when this many images are pending
    max_wait_s: float = 0.002      # ...or this long after the batch opened
    queue_capacity: int = 4096     # admission-control bound on pending requests


class DynamicBatcher:
    """Thread-safe request queue with deadline-based batch formation."""

    def __init__(self, config: BatchingConfig | None = None):
        self.config = config or BatchingConfig()
        self._queue: "queue.Queue[ServedFuture]" = queue.Queue(
            maxsize=self.config.queue_capacity)
        self._closed = threading.Event()

    # -- client side ----------------------------------------------------
    def submit(self, future: ServedFuture) -> None:
        if self._closed.is_set():
            raise RequestError("server is shut down")
        try:
            self._queue.put_nowait(future)
        except queue.Full:
            raise QueueFullError(
                f"queue at capacity ({self.config.queue_capacity})") from None

    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def pending(self) -> int:
        return self._queue.qsize()

    def drain(self) -> list[ServedFuture]:
        """Remove and return everything still queued (used at shutdown)."""
        out = []
        while True:
            try:
                out.append(self._queue.get_nowait())
            except queue.Empty:
                return out

    # -- server side ----------------------------------------------------
    def next_batch(self, poll_interval: float = 0.05) -> Batch | None:
        """Block for the next batch; ``None`` once closed and drained.

        The batch opens when the first request arrives; further requests
        join until the sample cap or the wait deadline is hit.  Requests
        never split across batches, so one oversized request (more samples
        than ``max_batch_samples``) still dispatches — alone.
        """
        config = self.config
        while True:
            try:
                first = self._queue.get(timeout=poll_interval)
                break
            except queue.Empty:
                if self._closed.is_set():
                    return None
        form_wall = time.time()
        form_t0 = time.perf_counter()
        requests = [first]
        num_samples = len(first.x)
        deadline = form_t0 + config.max_wait_s
        while num_samples < config.max_batch_samples:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and self._queue.empty():
                break
            try:
                nxt = self._queue.get(timeout=max(0.0, remaining))
            except queue.Empty:
                break
            requests.append(nxt)
            num_samples += len(nxt.x)
        return Batch(requests=requests, formed_wall=form_wall,
                     form_s=time.perf_counter() - form_t0)
