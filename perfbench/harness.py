"""Traffic and fleet lifecycle, timed from outside the program.

* :func:`set_up` builds the system, starts the server (which spawns the
  workers) and answers one request, timing each step.
* :func:`paced` is the open-loop sender: one thread submits each request
  at its scheduled time and never waits for replies; a collector thread
  stamps each reply.  Latency runs from the *due* time, so a late sender
  charges its lateness to the requests it delayed.
* :func:`saturate` keeps a fixed backlog outstanding so the batcher is
  always full, for the throughput ceiling.

Every reply is checked against labels computed in-process by
:func:`repro.serving.demo.fused_labels` with the workload's codec.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import queue
import threading
import time

import numpy as np

REPLY_TIMEOUT_S = 30.0


@dataclasses.dataclass(slots=True)
class Outcome:
    """One attempted request, as the client saw it."""

    request_id: int | None
    due: float                 # scheduled send time (perf_counter)
    sent: float                # when submit() was called
    done: float = 0.0          # when labels (or the error) were in hand
    ok: bool = False
    wrong: bool = False        # answered with labels that differ from the reference


@dataclasses.dataclass
class PhaseResult:
    outcomes: list[Outcome]
    depth_max: float = 0.0     # peak of the serving.queue_depth gauge seen

    @property
    def served(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def wrong(self) -> int:
        return sum(o.wrong for o in self.outcomes)

    def latencies_ms(self) -> np.ndarray:
        return np.array([(o.done - o.due) * 1e3 for o in self.served])

    def window_latencies_ms(self, window_s: float) -> list[np.ndarray]:
        """Latencies grouped into whole ``window_s`` windows of due time;
        a trailing partial window is dropped."""
        start = min(o.due for o in self.outcomes)
        whole = int((max(o.due for o in self.outcomes) - start) // window_s)
        windows: list[list[float]] = [[] for _ in range(whole)]
        for o in self.served:
            k = int((o.due - start) // window_s)
            if k < whole:
                windows[k].append((o.done - o.due) * 1e3)
        return [np.array(w) for w in windows]

    def lags_ms(self) -> np.ndarray:
        return np.array([(o.sent - o.due) * 1e3 for o in self.outcomes])

    @property
    def span_s(self) -> float:
        """First send to last completion."""
        served = self.served
        if not served:
            return 0.0
        return max(o.done for o in served) - min(o.sent for o in self.outcomes)


class Inputs:
    """A seeded pool of images and their reference labels."""

    def __init__(self, system, images_per_request: int, pool_size: int,
                 seed: int):
        from repro.serving.demo import fused_labels

        self._rng = np.random.default_rng(seed)
        shape = tuple(system.input_shape)
        self.pool = self._rng.standard_normal(
            (pool_size,) + shape).astype(np.float32)
        self.expected = fused_labels(system.models, system.fusion, self.pool,
                                     codec=system.codec)
        self.per_request = images_per_request

    def draw(self) -> np.ndarray:
        return self._rng.integers(0, len(self.pool), self.per_request)

    def correct(self, index: np.ndarray, labels: np.ndarray) -> bool:
        return np.array_equal(np.asarray(labels), self.expected[index])


def _resolve(inputs: Inputs, item, outcome: Outcome) -> None:
    """Wait for one reply and grade it (failed, degraded, wrong or ok)."""
    from repro.serving.batcher import RequestError

    future, index = item
    try:
        labels = future.result(REPLY_TIMEOUT_S)
    except (RequestError, TimeoutError):
        outcome.done = time.perf_counter()
        return
    outcome.done = time.perf_counter()
    if future.telemetry.degraded:
        return
    outcome.wrong = not inputs.correct(index, labels)
    outcome.ok = not outcome.wrong


def _submit(server, inputs: Inputs, due: float):
    """Send one request; returns (outcome, pending item or None if refused)."""
    from repro.serving.batcher import RequestError

    index = inputs.draw()
    x = inputs.pool[index]
    sent = time.perf_counter()
    try:
        future = server.submit(x)
    except RequestError:
        return Outcome(None, due, sent, done=sent), None
    return Outcome(future.request_id, due, sent), (future, index)


def paced(server, inputs: Inputs, arrivals) -> PhaseResult:
    """Open loop: submit at each scheduled time, never waiting for replies."""
    from repro.obs import get_registry

    depth = get_registry().gauge("serving.queue_depth")
    pending: "queue.SimpleQueue" = queue.SimpleQueue()
    outcomes: list[Outcome] = []

    def collect():
        while True:
            entry = pending.get()
            if entry is None:
                return
            outcome, item = entry
            _resolve(inputs, item, outcome)

    collector = threading.Thread(target=collect, name="perfbench-collector",
                                 daemon=True)
    collector.start()
    depth_max = 0.0
    try:
        start = time.perf_counter()
        for offset in arrivals:
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcome, item = _submit(server, inputs, due)
            outcomes.append(outcome)
            if item is not None:
                pending.put((outcome, item))
            depth_max = max(depth_max, depth.value)
    finally:
        pending.put(None)
        collector.join()
    return PhaseResult(outcomes, depth_max)


def saturate(server, inputs: Inputs, seconds: float,
             window: int) -> PhaseResult:
    """Closed backlog of ``window`` requests for ``seconds``, then drain."""
    inflight: collections.deque = collections.deque()
    outcomes: list[Outcome] = []
    end = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        while now < end and len(inflight) < window:
            outcome, item = _submit(server, inputs, now)
            outcomes.append(outcome)
            if item is not None:
                inflight.append((outcome, item))
            now = time.perf_counter()
        if not inflight:
            return PhaseResult(outcomes)
        outcome, item = inflight.popleft()
        _resolve(inputs, item, outcome)


# ----------------------------------------------------------------------
@dataclasses.dataclass
class Setup:
    server: object
    system: object
    build_s: float
    spawn_s: float
    first_request_s: float

    @property
    def total_s(self) -> float:
        return self.build_s + self.spawn_s + self.first_request_s


def set_up(workload) -> Setup:
    """Build, start and answer one request; the server is left running."""
    from repro.serving.server import InferenceServer

    t0 = time.perf_counter()
    system = workload.build()
    server = InferenceServer(system.make_cluster(), system.fusion)
    t1 = time.perf_counter()
    server.start()
    t2 = time.perf_counter()
    try:
        x = np.zeros((workload.images_per_request,) + tuple(system.input_shape),
                     dtype=np.float32)
        server.infer(x, timeout=REPLY_TIMEOUT_S)
    except BaseException:
        server.stop()
        raise
    t3 = time.perf_counter()
    return Setup(server, system, t1 - t0, t2 - t1, t3 - t2)


def worker_peak_rss_mb() -> list[float]:
    """Peak RSS (VmHWM) of every live child process, in MB (10^6 bytes)."""
    import multiprocessing

    peaks = []
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) * 1024 / 1e6)
    return peaks


def model_mb(system) -> float:
    """Serialized sub-model weights shipped to the workers, in MB."""
    return sum(len(spec.state_blob) for spec in system.specs) / 1e6


# ----------------------------------------------------------------------
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "REPRO_BACKEND", "REPRO_PROFILE_INNER")
BUSY_THRESHOLD = 0.5           # share of all cores busy before the run


def _cpu_times() -> tuple[int, int]:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields), idle


def environment(sample_s: float = 0.5) -> dict:
    """Host stamp: cores, load, BLAS build, thread variables, busy flag."""
    import numpy

    total0, idle0 = _cpu_times()
    time.sleep(sample_s)
    total1, idle1 = _cpu_times()
    busy = 1.0 - (idle1 - idle0) / max(total1 - total0, 1)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "cpu_busy_before": round(busy, 3),
        "host_busy": busy > BUSY_THRESHOLD,
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }
