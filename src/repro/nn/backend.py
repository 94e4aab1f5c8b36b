"""Array-kernel backend layer: the seam between autograd and the hot kernels.

:class:`ArrayBackend` names the eleven kernels that dominate the cost of
the small pruned sub-models this repo serves, and only those: ``matmul``,
``einsum``, the linear family (``linear``, ``linear_act``,
``linear_q8``), ``softmax``, ``log_softmax``, ``layer_norm``, ``gelu``,
and the im2col convolution lowering (``conv_im2col`` / ``col2im``).  They
are the kernels a tuned backend overrides (see
:class:`~repro.nn.blocked.BlockedBackend`) or that
:class:`~repro.obs.ProfilingBackend` times; it times nine of them and
passes ``gelu`` and ``col2im`` through untimed.  The differentiation rules
in :mod:`repro.nn.ops` call these kernels through the active backend and
do the rest of their array math (elementwise glue, reductions, indexing)
in plain numpy.

Selection::

    from repro import nn
    nn.set_backend("numpy")            # by registered name
    nn.set_backend(MyBackend())        # or an instance
    with nn.use_backend("numpy"):      # scoped override
        ...

The ``REPRO_BACKEND`` environment variable picks the initial backend at
import time (default ``"numpy"``).

Workspaces
----------
:class:`Workspace` is a shape-keyed cache of pre-allocated scratch buffers
(im2col columns, attention score matrices, MLP hidden activations).  Modules
own one workspace each; ops accept it optionally and only *reuse* buffers
while :func:`repro.nn.tensor.is_inference` is true.  Invariants:

* a buffer is keyed by ``(tag, shape, dtype)`` — same key, same storage;
* a buffer's contents are only valid until the owning module's next
  forward call: under ``inference_mode()`` outputs may alias workspace
  storage, so callers must copy anything they keep across calls
  (:func:`repro.core.predict` does);
* under plain ``no_grad()`` (without ``inference_mode()``) every op output
  is freshly allocated, so seed semantics are unchanged.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import warnings
from typing import Callable

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Workspace:
    """Cache of pre-allocated scratch storage for the inference fast path.

    Storage is **per thread** (concurrent inference on a shared model must
    not write into the same scratch — the mode flags in
    :mod:`repro.nn.tensor` are thread-local for the same reason) and keyed
    by ``(tag, dtype)``: each tag owns one flat grow-on-demand allocation,
    and :meth:`buffer` returns a contiguous view of the requested shape.
    Memory per tag is therefore bounded by the largest request seen, no
    matter how many distinct (e.g. ragged-final-batch) shapes pass through.

    Per-thread stores are kept in one id-keyed dict (not a
    ``threading.local``) so :meth:`nbytes` / :meth:`per_thread` can report
    the *whole* scratch footprint of a long-lived server, not just the
    calling thread's slice.
    """

    __slots__ = ("_stores", "_lock")

    def __init__(self):
        # thread ident -> {(tag, dtype): flat array}.  Single dict-key
        # reads/writes are GIL-atomic, so the hot buffer() path needs no
        # lock; the lock only serializes snapshots and first-touch setup.
        self._stores: dict[int, dict[tuple, np.ndarray]] = {}
        self._lock = threading.Lock()

    def _storage(self) -> dict[tuple, np.ndarray]:
        ident = threading.get_ident()
        store = self._stores.get(ident)
        if store is None:
            with self._lock:
                store = self._stores.setdefault(ident, {})
        return store

    def buffer(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A contiguous scratch view of ``shape``; contents unspecified.

        Views handed out for the same tag share (and overwrite) the same
        storage — valid only until the owner's next request for that tag.
        """
        dt = np.dtype(dtype)
        key = (tag, dt.str)
        need = 1
        for dim in shape:
            need *= int(dim)
        store = self._storage()
        flat = store.get(key)
        if flat is None or flat.size < need:
            flat = np.empty(need, dtype=dt)
            store[key] = flat
        return flat[:need].reshape(shape)

    def clear(self) -> None:
        """Release this thread's scratch storage."""
        with self._lock:
            self._stores.pop(threading.get_ident(), None)

    def clear_all(self) -> None:
        """Release every thread's scratch storage."""
        with self._lock:
            self._stores.clear()

    def nbytes(self) -> int:
        """Total scratch bytes held across *all* threads that ever used
        this workspace (dead threads' stores stay counted until cleared —
        they still hold the memory)."""
        with self._lock:
            return sum(b.nbytes for store in self._stores.values()
                       for b in store.values())

    def per_thread(self) -> dict[int, int]:
        """Scratch bytes per thread ident — the telemetry breakdown."""
        with self._lock:
            return {ident: sum(b.nbytes for b in store.values())
                    for ident, store in self._stores.items()}

    def __len__(self) -> int:
        return len(self._storage())


def scratch(workspace: Workspace | None, tag: str, shape, dtype) -> np.ndarray:
    """A buffer from ``workspace`` when caching is active, else a fresh array.

    Ops call this for their fast-path outputs/scratch; passing ``None`` (or
    running outside ``inference_mode()``, which is how modules decide whether
    to hand their workspace down) degrades to plain allocation.
    """
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.buffer(tag, shape, dtype)


# Activations linear_act/linear_q8 may fuse as a post-GEMM epilogue.
ACTIVATIONS = ("gelu", "relu", "sigmoid", "tanh")


def _gelu_tanh_term(x, out=None) -> np.ndarray:
    """``1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))`` into ``out``.

    The one GELU formula both :meth:`ArrayBackend.gelu` and the ``"gelu"``
    epilogue scale ``x`` by.  ``x ** 3`` hits numpy's generic float pow
    (~70x slower than two multiplies for float32), so the cube is
    ``x*x*x``.  ``out`` must not alias ``x``.
    """
    t = np.multiply(x, x, out=out)
    t *= x
    t *= 0.044715
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    t += 1.0
    return t


def apply_activation(name: str, buf, tmp=None) -> np.ndarray:
    """Apply a named activation to ``buf`` **in place**.

    The shared epilogue of the linear kernels.  ``tmp`` is optional
    same-shape scratch; only ``gelu`` needs it (its tanh term must be
    built while ``buf`` still holds x).
    """
    if name == "relu":
        return np.maximum(buf, 0.0, out=buf)
    if name == "sigmoid":
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        buf += 1.0
        return np.divide(1.0, buf, out=buf)
    if name == "tanh":
        return np.tanh(buf, out=buf)
    if name == "gelu":
        buf *= _gelu_tanh_term(buf, tmp)
        buf *= 0.5
        return buf
    raise ValueError(f"unknown activation {name!r}; "
                     f"supported: {list(ACTIVATIONS)}")


class ArrayBackend:
    """The kernels a backend may replace, with numpy reference bodies.

    Exactly the eleven kernels that a tuned backend overrides or that
    :class:`~repro.obs.ProfilingBackend` times: ``matmul``, ``einsum``,
    the linear family (``linear``, ``linear_act``, ``linear_q8``),
    ``softmax``, ``log_softmax``, ``layer_norm``, ``gelu`` and the
    convolution lowering (``conv_im2col`` / ``col2im``).  Everything else
    the framework computes is plain numpy.  :class:`NumpyBackend` is the
    reference implementation; subclasses override any subset.  Methods
    accept and return plain ``np.ndarray`` — Tensors never cross this
    boundary.
    """

    name = "abstract"

    # -- linear algebra ----------------------------------------------------
    def matmul(self, a, b, out=None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def einsum(self, spec, *operands) -> np.ndarray:
        return np.einsum(spec, *operands, optimize=True)

    def linear(self, x, weight, bias=None, out=None) -> np.ndarray:
        """Affine map ``x @ weight.T + bias`` collapsed to one GEMM.

        ``x`` may have arbitrary leading dimensions; ``weight`` is stored
        ``(out_features, in_features)`` as in ``torch.nn.Linear``.
        """
        lead = x.shape[:-1]
        x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        out2 = out.reshape(-1, weight.shape[0]) if out is not None else None
        y = np.matmul(x2, weight.T, out=out2)
        if bias is not None:
            y += bias
        return y.reshape(lead + (weight.shape[0],))

    def linear_act(self, x, weight, bias=None, activation=None,
                   out=None) -> np.ndarray:
        """:meth:`linear` with an optional fused activation epilogue.

        The reference implementation just chains the two; tuned backends
        override it to apply the epilogue on cache-hot output blocks.
        """
        y = self.linear(x, weight, bias, out=out)
        if activation is not None:
            apply_activation(activation, y)
        return y

    def linear_q8(self, x, weight_q8, scale, bias=None, activation=None,
                  out=None) -> np.ndarray:
        """int8-weight affine map with fp32 accumulation.

        ``weight_q8`` is ``(out_features, in_features)`` int8 and ``scale``
        the per-output-channel dequantization scale (see
        :mod:`repro.nn.quantize`).  Because the scale is per *output*
        channel it folds into the GEMM result's columns
        (``(x @ q.T) * scale == x @ (q * scale[:, None]).T``), so the
        weight itself only needs a dtype widen, never a scaled copy.
        """
        lead = x.shape[:-1]
        n_out = weight_q8.shape[0]
        x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        out2 = out.reshape(-1, n_out) if out is not None else None
        y = np.matmul(x2, weight_q8.astype(np.float32).T, out=out2)
        y *= scale
        if bias is not None:
            y += bias
        if activation is not None:
            apply_activation(activation, y)
        return y.reshape(lead + (n_out,))

    # -- fused elementwise / normalization kernels -------------------------
    def gelu(self, x, out=None) -> np.ndarray:
        """Tanh-approximation GELU (see :func:`_gelu_tanh_term`)."""
        y = _gelu_tanh_term(x, out)
        y *= x
        y *= 0.5
        return y

    def softmax(self, x, axis=-1, out=None) -> np.ndarray:
        shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=axis, keepdims=True)
        return shifted

    def log_softmax(self, x, axis=-1, out=None) -> np.ndarray:
        shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        shifted -= log_sum
        return shifted

    def layer_norm(self, x, weight, bias, eps: float, out=None) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        centered = np.subtract(x, mu, out=out)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        var += eps
        np.sqrt(var, out=var)
        centered /= var
        centered *= weight
        centered += bias
        return centered

    # -- convolution lowering ----------------------------------------------
    def conv_im2col(self, x, kh: int, kw: int, stride: int, pad: int,
                    out=None) -> tuple[np.ndarray, int, int]:
        """Lower (N, C, H, W) to receptive-field columns.

        Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
        ``(N, C*kh*kw, out_h*out_w)``.  ``out`` (from a workspace) receives
        the gathered columns to avoid reallocating per call.
        """
        n, c, h, w = x.shape
        if pad:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out_h = (h + 2 * pad - kh) // stride + 1
        out_w = (w + 2 * pad - kw) // stride + 1
        s = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
            writeable=False,
        )
        transposed = windows.transpose(0, 1, 4, 5, 2, 3)
        shape = (n, c * kh * kw, out_h * out_w)
        if out is not None:
            cols = out
            np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), transposed)
        else:
            cols = np.ascontiguousarray(transposed).reshape(shape)
        return cols.reshape(shape), out_h, out_w

    def col2im(self, cols, x_shape, kh: int, kw: int, stride: int,
               pad: int) -> np.ndarray:
        """Scatter-add columns back onto the input; inverse of conv_im2col."""
        n, c, h, w = x_shape
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
        out_h = (h + 2 * pad - kh) // stride + 1
        out_w = (w + 2 * pad - kw) // stride + 1
        cols = cols.reshape(n, c, kh, kw, out_h, out_w)
        for i in range(kh):
            for j in range(kw):
                padded[:, :, i:i + stride * out_h:stride,
                       j:j + stride * out_w:stride] += cols[:, :, i, j]
        if pad:
            return padded[:, :, pad:-pad, pad:-pad]
        return padded


class NumpyBackend(ArrayBackend):
    """The default backend: plain numpy with the fused kernels above."""

    name = "numpy"


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
def _blocked_factory() -> ArrayBackend:
    from .blocked import BlockedBackend   # deferred: blocked imports this module

    return BlockedBackend()


def _profiled_factory() -> ArrayBackend:
    # Deferred: repro.obs imports this module.  Registered by name so
    # REPRO_BACKEND=profiled reaches spawned worker processes too; the
    # wrapped backend comes from REPRO_PROFILE_INNER (default numpy).
    from ..obs.profile import ProfilingBackend

    inner = os.environ.get("REPRO_PROFILE_INNER", "numpy")
    if inner == "profiled":            # would recurse into this factory
        inner = "numpy"
    return ProfilingBackend(_resolve(inner))


_REGISTRY: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
    "blocked": _blocked_factory,
    "profiled": _profiled_factory,
}
_state = threading.local()


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` for :func:`set_backend`."""
    if not callable(factory):
        raise TypeError("factory must be callable")
    _REGISTRY[name] = factory


def available_backends() -> list[str]:
    return sorted(_REGISTRY)


# Default-constructed singleton per registered name.  Backends carry warm
# state (packed-weight caches, scratch arenas, thread pools), so resolving
# a *name* must return the same instance every time — a fresh instance per
# ``use_backend("blocked")`` entry would silently repack every weight on
# every scoped switch.  Explicitly constructed instances bypass this.
_INSTANCES: dict[str, ArrayBackend] = {}


def _resolve(backend: str | ArrayBackend) -> ArrayBackend:
    if isinstance(backend, ArrayBackend):
        return backend
    if backend not in _REGISTRY:
        raise ValueError(
            f"unknown backend {backend!r}; registered backends: "
            f"{available_backends()}")
    instance = _INSTANCES.get(backend)
    if instance is None:
        instance = _INSTANCES[backend] = _REGISTRY[backend]()
    return instance


def _initial_backend() -> ArrayBackend:
    """Resolve ``REPRO_BACKEND`` at import time, surviving bad values.

    A typo in the environment must degrade to the numpy reference with a
    warning — raising here would make ``import repro`` itself crash.
    """
    name = os.environ.get("REPRO_BACKEND", "numpy")
    try:
        return _resolve(name)
    except ValueError as exc:
        warnings.warn(f"ignoring REPRO_BACKEND: {exc}; "
                      f"falling back to 'numpy'", RuntimeWarning,
                      stacklevel=2)
        return NumpyBackend()


_default_backend: ArrayBackend = _initial_backend()


def set_backend(backend: str | ArrayBackend) -> ArrayBackend:
    """Install the process-wide default backend (name or instance)."""
    global _default_backend
    _default_backend = _resolve(backend)
    return _default_backend


def get_backend() -> ArrayBackend:
    """The active backend: innermost :func:`use_backend` override, else the
    process default."""
    override = getattr(_state, "stack", None)
    if override:
        return override[-1]
    return _default_backend


@contextlib.contextmanager
def use_backend(backend: str | ArrayBackend):
    """Scoped (and thread-local) backend override."""
    resolved = _resolve(backend)
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    stack.append(resolved)
    try:
        yield resolved
    finally:
        stack.pop()
