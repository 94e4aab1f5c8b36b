"""Uncontended replay of the sub-model forward, in the benchmark process.

After the fleet has shut down, the first sub-model's in-process twin runs
``extract_features`` at every batch size the served run produced, the way
a worker calls it.  Weighted by how often each size was served, this gives
the forward cost with the host to itself, which the served
``worker.forward`` spans are compared against (``contention_x``).

A second pass runs under :class:`repro.obs.ProfilingBackend` and reads
only each kernel histogram's ``count``/``sum`` and the byte counters:
``Histogram.quantile`` can report values below the observed minimum, so
no quantile is used.  Bytes are computed by the backend from operand and
result sizes, not measured traffic.
"""

from __future__ import annotations

import time

import numpy as np

# The kernels an fp32 ViT forward calls.  Every ``Linear`` goes through
# ``linear_act`` and the patch embedding through ``conv_im2col`` + ``einsum``;
# ``linear``, ``linear_q8`` and ``log_softmax`` are never reached.
OPS = ("matmul", "einsum", "linear_act", "softmax", "layer_norm",
       "conv_im2col")
WORKER_CHUNK = 64              # WorkerSpec.batch_size default


def _forward(model, x) -> float:
    from repro.core.inference import extract_features

    t0 = time.perf_counter()
    extract_features(model, x, WORKER_CHUNK, keep_workspaces=True)
    return time.perf_counter() - t0


def _kernel_totals(registry, backend_name: str) -> dict[str, tuple]:
    """(calls, seconds, bytes) per op, read from count/sum and counters."""
    out = {}
    for op in OPS:
        hist = registry.histogram(f"kernel.{op}_seconds", backend=backend_name)
        nbytes = registry.counter(f"kernel.{op}_bytes_total",
                                  backend=backend_name)
        out[op] = (hist.count, hist.sum, nbytes.value)
    return out


def replay(model, pool: np.ndarray, mix: dict[int, int],
           budget_s: float) -> dict:
    """Weighted replay of ``mix`` (batch size -> batches served)."""
    from repro import nn, obs

    sizes = sorted(mix)
    batches = {s: np.resize(pool, (s,) + pool.shape[1:]) for s in sizes}
    for s in sizes:                                   # warm workspaces
        _forward(model, batches[s])
    timings = {s: [] for s in sizes}
    deadline = time.perf_counter() + budget_s / 2
    while True:
        for s in sizes:
            timings[s].append(_forward(model, batches[s]))
        if time.perf_counter() > deadline or len(timings[sizes[0]]) >= 7:
            break
    forward = {s: float(np.median(timings[s])) for s in sizes}

    registry = obs.get_registry()
    backend = obs.ProfilingBackend(nn.get_backend())
    inner = backend.inner.name
    kernels, profiled = {}, {}
    with nn.use_backend(backend):
        for s in sizes:
            _forward(model, batches[s])
            before = _kernel_totals(registry, inner)
            profiled[s] = _forward(model, batches[s])
            after = _kernel_totals(registry, inner)
            kernels[s] = {op: tuple(a - b for a, b in zip(after[op],
                                                          before[op]))
                          for op in OPS}

    n_batches = sum(mix.values())
    images = sum(s * c for s, c in mix.items())
    weighted = lambda per_size: sum(mix[s] * per_size(s) for s in sizes)
    kernel_s = weighted(lambda s: sum(k[1] for k in kernels[s].values()))
    out = {
        "core.inference.forward_ms_per_img":
            1e3 * weighted(lambda s: forward[s]) / images,
        "replay_forward_s": weighted(lambda s: forward[s]) / n_batches,
        "core.inference.dispatch_frac":
            1.0 - kernel_s / weighted(lambda s: profiled[s]),
    }
    for op in OPS:
        calls = weighted(lambda s: kernels[s][op][0])
        seconds = weighted(lambda s: kernels[s][op][1])
        nbytes = weighted(lambda s: kernels[s][op][2])
        out[f"nn.{op}.ms_per_img"] = 1e3 * seconds / images
        out[f"nn.{op}.calls_per_img"] = calls / images
        out[f"nn.{op}.mb_per_img"] = nbytes / 1e6 / images
    return out
