"""``BlockedBackend``: the tuned CPU implementation of :class:`ArrayBackend`.

The reference :class:`~repro.nn.backend.NumpyBackend` leans on BLAS for the
big GEMMs, which is already near the roofline for large matrices.  What it
leaves on the table — and what dominates at the paper's operating point of
*small pruned sub-models* serving *small batches* on edge devices — is
everything around the GEMM:

* **Pre-transposed weight packing.**  ``linear`` computes ``x @ W.T`` with
  ``W`` stored ``(out, in)``; for the skinny matrices of edge sub-models the
  BLAS transposed-B path costs up to 2x over a plain NN GEMM.  Weights small
  enough to pack (``pack_limit``, default 1 MiB) are cached once in
  ``(in, out)`` contiguous layout, keyed by array identity and dropped via
  weakref when the weight is released.  Large weights keep the NT path: at
  ViT-Base scale the forward is weight-*streaming* bound and a second
  resident copy only adds cache pressure.
* **Fused bias + activation epilogues.**  ``linear_act`` applies
  gelu/relu/sigmoid/tanh on row blocks of the GEMM output while they are
  cache-hot, with a per-thread scratch instead of per-call allocations.
* **Cache-blocked int8 GEMM** (``linear_q8``): per-output-channel scales,
  fp32 accumulation, and tile-wise ``int8 -> f32`` widening so the fp32
  image of the weight never materializes whole — the resident model stays
  int8-sized.
* **Thread-parallel row blocking.**  With more than one usable core,
  ``linear``/``linear_act``/``linear_q8`` split output rows across a thread
  pool (numpy's GEMM releases the GIL).  ``num_threads`` defaults to the
  scheduler affinity, so a single-core container degrades to the sequential
  path with zero overhead.

The other kernels (``gelu``, ``log_softmax``, the conv lowering) inherit
the reference bodies, so the backend stays a drop-in:
``nn.set_backend("blocked")``.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np

from .backend import NumpyBackend, apply_activation


# exp(_EXP_CLIP) stays finite in fp32 with headroom for the softmax sum.
_EXP_CLIP = np.float32(80.0)

# Row-block size for the fused softmax: big enough to amortize the python
# loop, small enough that a block round-trips through L2/L3, not DRAM.
_SOFTMAX_BLOCK_BYTES = 1 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):   # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class BlockedBackend(NumpyBackend):
    """Cache-blocked, weight-packing, epilogue-fusing CPU backend."""

    name = "blocked"

    def __init__(self, num_threads: int | None = None,
                 pack_limit: int = 1 << 20,
                 block_rows: int = 256):
        if num_threads is None:
            num_threads = min(8, _usable_cpus())
        self._num_threads = max(1, int(num_threads))
        self._pack_limit = int(pack_limit)
        self._block_rows = int(block_rows)
        self._pool = None
        self._pool_lock = threading.Lock()
        # id(weight) -> (weakref to the weight, packed layout).  Optimizer
        # steps and load_state_dict rebind parameter arrays (fresh ids), so
        # identity keying stays correct across train/infer cycles; the
        # weakref callback prunes entries when the original array dies.
        self._packed: dict[int, tuple[weakref.ref, np.ndarray]] = {}
        self._packed_lock = threading.Lock()
        self._scratch = threading.local()

    # -- internals ---------------------------------------------------------
    def _get_pool(self):
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._pool = ThreadPoolExecutor(
                        max_workers=self._num_threads,
                        thread_name_prefix="repro-blocked")
        return self._pool

    def _packed_transpose(self, weight: np.ndarray) -> np.ndarray | None:
        """The cached ``(in, out)`` contiguous copy of ``weight``, or
        ``None`` when the weight is too large to be worth packing."""
        if weight.nbytes > self._pack_limit * weight.dtype.itemsize // 4:
            # itemsize-aware limit: an int8 weight is 4x denser, so the
            # same parameter count packs at 4x the fp32 byte budget.
            if weight.nbytes > self._pack_limit:
                return None
        key = id(weight)
        with self._packed_lock:
            entry = self._packed.get(key)
            if entry is not None and entry[0]() is weight:
                return entry[1]
        packed = np.ascontiguousarray(weight.T)
        ref = weakref.ref(weight, lambda _, k=key: self._prune_packed(k))
        with self._packed_lock:
            self._packed[key] = (ref, packed)
        return packed

    def _prune_packed(self, key: int) -> None:
        """Weakref-callback target: drop a dead weight's packed copy.

        Fires on whatever thread drops the last reference, so it takes
        the cache lock like every other ``_packed`` access.  No deadlock
        risk: the locked regions above never release array references.
        """
        with self._packed_lock:
            self._packed.pop(key, None)

    def _tmp(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Grow-on-demand per-thread scratch (epilogues, q8 tiles)."""
        store = getattr(self._scratch, "store", None)
        if store is None:
            store = self._scratch.store = {}
        dt = np.dtype(dtype)
        need = 1
        for dim in shape:
            need *= int(dim)
        flat = store.get((tag, dt.str))
        if flat is None or flat.size < need:
            flat = np.empty(need, dtype=dt)
            store[(tag, dt.str)] = flat
        return flat[:need].reshape(shape)

    def _parallel_rows(self, m: int, work) -> bool:
        """Run ``work(lo, hi)`` over row ranges on the pool; False if the
        problem is too small (or the box too narrow) to split."""
        if self._num_threads <= 1 or m < 2 * self._block_rows:
            return False
        chunks = min(self._num_threads, max(1, m // self._block_rows))
        step = -(-m // chunks)
        futures = [self._get_pool().submit(work, lo, min(lo + step, m))
                   for lo in range(0, m, step)]
        for future in futures:
            future.result()
        return True

    # -- fp32 linear -------------------------------------------------------
    def linear(self, x, weight, bias=None, out=None) -> np.ndarray:
        return self.linear_act(x, weight, bias, activation=None, out=out)

    def linear_act(self, x, weight, bias=None, activation=None,
                   out=None) -> np.ndarray:
        lead = x.shape[:-1]
        n_out = weight.shape[0]
        x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        m = x2.shape[0]
        y = out.reshape(m, n_out) if out is not None \
            else np.empty((m, n_out), dtype=x2.dtype)
        packed = self._packed_transpose(weight)
        wt = packed if packed is not None else weight.T

        def run(lo: int, hi: int) -> None:
            block = y[lo:hi]
            np.matmul(x2[lo:hi], wt, out=block)
            if bias is not None:
                block += bias
            if activation is not None:
                apply_activation(
                    activation, block,
                    tmp=self._tmp("epilogue", block.shape, block.dtype))

        if not self._parallel_rows(m, run):
            if m <= self._block_rows:
                run(0, m)
            else:
                # Sequential cache blocking: the epilogue touches each
                # output block while the GEMM just wrote it.
                for lo in range(0, m, self._block_rows):
                    run(lo, min(lo + self._block_rows, m))
        return y.reshape(lead + (n_out,))

    # -- int8 linear -------------------------------------------------------
    def linear_q8(self, x, weight_q8, scale, bias=None, activation=None,
                  out=None) -> np.ndarray:
        lead = x.shape[:-1]
        n_out = weight_q8.shape[0]
        x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        m = x2.shape[0]
        y = out.reshape(m, n_out) if out is not None \
            else np.empty((m, n_out), dtype=np.float32)
        packed = self._packed_transpose(weight_q8)   # (in, out) int8 or None

        def epilogue(block) -> None:
            block *= scale if block.shape[-1] == n_out \
                else scale[: block.shape[-1]]
            if bias is not None:
                block += bias if block.shape[-1] == n_out \
                    else bias[: block.shape[-1]]

        if packed is not None:
            # Small weight: widen the whole packed transpose into
            # per-thread scratch once per call, NN GEMM, scale the output.
            wt = self._tmp("q8_deq", packed.shape, np.float32)
            np.copyto(wt, packed, casting="safe")

            def run(lo: int, hi: int) -> None:
                block = y[lo:hi]
                np.matmul(x2[lo:hi], wt, out=block)
                epilogue(block)

            if not self._parallel_rows(m, run):
                run(0, m)
        else:
            # Large weight: tile over output columns so only one
            # ``tile_cols x in`` fp32 image exists at a time — resident
            # memory stays int8-sized no matter the model.
            tile_cols = max(64, min(n_out,
                                    (self._pack_limit // 4)
                                    // max(1, weight_q8.shape[1])))
            tile = None
            for j in range(0, n_out, tile_cols):
                hi = min(j + tile_cols, n_out)
                tile = self._tmp("q8_tile",
                                 (hi - j, weight_q8.shape[1]), np.float32)
                np.copyto(tile, weight_q8[j:hi], casting="safe")
                np.matmul(x2, tile.T, out=y[:, j:hi])
                y[:, j:hi] *= scale[j:hi]
                if bias is not None:
                    y[:, j:hi] += bias[j:hi]
        if activation is not None:
            apply_activation(activation, y,
                             tmp=self._tmp("epilogue", y.shape, y.dtype))
        return y.reshape(lead + (n_out,))

    # -- fused softmax -----------------------------------------------------
    def softmax(self, x, axis=-1, out=None) -> np.ndarray:
        """Softmax via clipping instead of the max-shift.

        The reference kernel's row-max + subtract exists only to keep
        ``exp`` finite; clipping to ±:data:`_EXP_CLIP` gives the same
        overflow safety in one cheap elementwise pass instead of a
        (short-row-hostile) reduction plus a broadcast subtract — softmax
        is scale-invariant only up to fp rounding, and inputs this deep
        in the clip range (attention logits) agree to the last ulp or
        two.  The normalizing sum runs as a GEMV against a ones vector,
        which BLAS handles far better than numpy's short-row reduce.

        The clip/exp/sum/scale passes run over **row blocks** sized to
        stay cache-resident: a ViT-Base batch-8 score tensor is ~150 MB,
        and streaming it from DRAM four times costs more than the exp
        itself.  Blocking touches each element in one trip from memory.
        """
        if axis not in (-1, x.ndim - 1):
            return super().softmax(x, axis=axis, out=out)
        d = x.shape[-1]
        y = out if out is not None else np.empty_like(x)
        x2 = x.reshape(-1, d)
        y2 = y.reshape(-1, d)
        rows = max(1, _SOFTMAX_BLOCK_BYTES // max(1, d * x.itemsize))
        ones = self._ones(d, y2.dtype)
        for r0 in range(0, x2.shape[0], rows):
            xa = x2[r0:r0 + rows]
            ya = y2[r0:r0 + rows]
            np.clip(xa, -_EXP_CLIP, _EXP_CLIP, out=ya)
            np.exp(ya, out=ya)
            norm = np.matmul(ya, ones)
            np.divide(1.0, norm, out=norm)
            ya *= norm[:, None]
        return y

    def _ones(self, n: int, dtype) -> np.ndarray:
        ones = self._tmp("ones", (n,), dtype)
        ones.fill(1.0)
        return ones

    # -- fused layer norm --------------------------------------------------
    def layer_norm(self, x, weight, bias, eps: float, out=None) -> np.ndarray:
        """Two-pass layer norm with GEMV reductions and merged affine.

        The reference kernel makes ~7 elementwise/reduce passes; this one
        computes the mean as a GEMV, E[x^2] as a row self-dot, merges
        ``inv_std`` with the affine ``weight`` into one per-row scale
        matrix, and writes the output in three in-place sweeps.
        ``max(var, 0)`` guards the E[x^2] - mean^2 cancellation from
        going negative in fp32.
        """
        d = x.shape[-1]
        x2 = np.ascontiguousarray(x.reshape(-1, d))
        inv_d = np.float32(1.0 / d)
        mu = np.matmul(x2, self._ones(d, x2.dtype))
        mu *= inv_d
        ss = np.einsum("rd,rd->r", x2, x2, optimize=False)
        ss *= inv_d
        var = ss - mu * mu
        np.maximum(var, 0.0, out=var)
        var += eps
        np.sqrt(var, out=var)
        inv = np.divide(1.0, var, out=var)
        scale = self._tmp("ln_scale", x2.shape, x2.dtype)
        np.multiply(inv[:, None], weight, out=scale)
        y = np.subtract(x2, mu[:, None],
                        out=out.reshape(-1, d) if out is not None else None)
        y *= scale
        y += bias
        return y.reshape(x.shape)

    # -- batched matmul / einsum -------------------------------------------
    def matmul(self, a, b, out=None) -> np.ndarray:
        """Batched matmul with contiguity repair for strided operands.

        Attention feeds transposed Q/K/V *views* here; BLAS falls off its
        fast path on non-unit inner strides, so smallish strided operands
        are first gathered into per-thread scratch.  (``b`` keeps a plain
        last-axis transpose as-is — that maps to the GEMM's NT case.)
        """
        if a.ndim > 2 and not a.flags.c_contiguous and a.nbytes <= (1 << 22):
            packed = self._tmp("mm_a", a.shape, a.dtype)
            np.copyto(packed, a)
            a = packed
        if (b.ndim > 2 and b.nbytes <= (1 << 22)
                and not b.flags.c_contiguous
                and not b.transpose(
                    tuple(range(b.ndim - 2)) + (b.ndim - 1, b.ndim - 2)
                ).flags.c_contiguous):
            packed = self._tmp("mm_b", b.shape, b.dtype)
            np.copyto(packed, b)
            b = packed
        return np.matmul(a, b, out=out)

    def einsum(self, spec, *operands) -> np.ndarray:
        # The convolution lowering "ok,nkp->nop" is a plain broadcast
        # matmul; np.einsum spends more time planning a contraction path
        # per call than the tiny GEMM itself takes.
        if spec == "ok,nkp->nop" and len(operands) == 2:
            return np.matmul(operands[0], operands[1])
        return super().einsum(spec, *operands)
