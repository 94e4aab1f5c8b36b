"""Backend layer: registry/selection, workspaces, fused-kernel correctness."""

import subprocess
import sys

import numpy as np
import pytest

from repro import nn
from repro.nn.backend import (
    ArrayBackend,
    NumpyBackend,
    Workspace,
    available_backends,
    get_backend,
    register_backend,
    scratch,
    set_backend,
    use_backend,
)


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
def test_numpy_backend_is_default():
    assert "numpy" in available_backends()
    assert isinstance(get_backend(), NumpyBackend)


def test_set_backend_rejects_unknown_name():
    with pytest.raises(ValueError, match="registered backends"):
        set_backend("no-such-backend")


def test_bad_env_var_falls_back_to_numpy_with_warning():
    """A typo in REPRO_BACKEND must degrade, not crash the import."""
    code = ("import warnings; warnings.simplefilter('error'); "
            "import sys; "
            "\ntry:\n    import repro.nn\nexcept RuntimeWarning as w:\n"
            "    print('warned:', 'REPRO_BACKEND' in str(w))\n"
            "    sys.exit(0)\nprint('no warning')")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "REPRO_BACKEND": "no-such", "PATH": "/usr/bin:/bin"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    )
    assert out.stdout.strip() == "warned: True"
    code = "import repro.nn as nn; print(nn.get_backend().name)"
    out = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "REPRO_BACKEND": "no-such", "PATH": "/usr/bin:/bin"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    )
    assert out.stdout.strip() == "numpy"


def test_use_backend_scoped_override():
    class Tagged(NumpyBackend):
        name = "tagged"

    default = get_backend()
    with use_backend(Tagged()) as active:
        assert get_backend() is active
        assert get_backend().name == "tagged"
    assert get_backend() is default


def test_use_backend_restores_on_exception():
    default = get_backend()
    with pytest.raises(RuntimeError):
        with use_backend(NumpyBackend()):
            raise RuntimeError("boom")
    assert get_backend() is default


def test_register_backend_and_set_by_name():
    class Custom(NumpyBackend):
        name = "custom-test"

    register_backend("custom-test", Custom)
    assert "custom-test" in available_backends()
    previous = get_backend()
    try:
        active = set_backend("custom-test")
        assert isinstance(active, Custom)
        assert get_backend() is active
    finally:
        set_backend(previous)


def test_env_var_selects_initial_backend():
    code = ("import repro.nn as nn; "
            "print(nn.get_backend().name)")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "REPRO_BACKEND": "numpy", "PATH": "/usr/bin:/bin"},
        cwd=__file__.rsplit("/tests/", 1)[0],
    )
    assert out.stdout.strip() == "numpy"


def test_ops_route_through_active_backend():
    """A custom backend's primitives are what nn ops actually execute."""
    class Counting(NumpyBackend):
        name = "counting"

        def __init__(self):
            self.linear_calls = 0

        def linear(self, x, weight, bias=None, out=None):
            self.linear_calls += 1
            return super().linear(x, weight, bias, out)

    counting = Counting()
    layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
    x = nn.Tensor(np.random.default_rng(1).normal(size=(2, 4)).astype(np.float32))
    with use_backend(counting):
        with nn.no_grad():
            layer(x)
    assert counting.linear_calls == 1


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------
def test_workspace_reuses_storage_for_same_tag():
    ws = Workspace()
    a = ws.buffer("x", (3, 4), np.float32)
    b = ws.buffer("x", (3, 4), np.float32)
    assert np.shares_memory(a, b)
    assert len(ws) == 1


def test_workspace_grow_and_slice_bounds_memory_across_shapes():
    """Different shapes under one tag share one flat allocation (the ragged
    final predict() batch must not double a model's scratch footprint)."""
    ws = Workspace()
    big = ws.buffer("x", (8, 4), np.float32)
    small = ws.buffer("x", (3, 4), np.float32)
    assert np.shares_memory(big, small)
    assert len(ws) == 1
    assert ws.nbytes() == 8 * 4 * 4          # max request, not the sum
    assert small.flags["C_CONTIGUOUS"]


def test_workspace_distinguishes_tag_and_dtype():
    ws = Workspace()
    base = ws.buffer("x", (3, 4), np.float32)
    assert not np.shares_memory(ws.buffer("y", (3, 4), np.float32), base)
    assert not np.shares_memory(ws.buffer("x", (3, 4), np.float64), base)
    assert len(ws) == 3


def test_workspace_storage_is_thread_local():
    """Two threads asking for the same tag must never share scratch —
    concurrent inference on one model would otherwise corrupt outputs."""
    import threading

    ws = Workspace()
    mine = ws.buffer("x", (4,), np.float32)
    theirs = {}

    def worker():
        theirs["buf"] = ws.buffer("x", (4,), np.float32)
        theirs["buf"][:] = 7.0

    mine[:] = 1.0
    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert not np.shares_memory(mine, theirs["buf"])
    np.testing.assert_array_equal(mine, 1.0)


def test_workspace_clear_and_nbytes():
    ws = Workspace()
    ws.buffer("x", (8,), np.float32)
    assert ws.nbytes() == 32
    ws.clear()
    assert len(ws) == 0


def test_workspace_nbytes_totals_across_threads():
    """nbytes() is the whole server's scratch footprint; per_thread()
    breaks it down for telemetry."""
    import threading

    ws = Workspace()
    ws.buffer("x", (8,), np.float32)          # 32 bytes on this thread
    done = threading.Event()

    def worker():
        ws.buffer("x", (16,), np.float32)     # 64 bytes on the other thread
        done.set()

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert done.is_set()
    assert ws.nbytes() == 32 + 64
    breakdown = ws.per_thread()
    assert sorted(breakdown.values()) == [32, 64]
    assert threading.get_ident() in breakdown
    ws.clear()                                # current thread only
    assert ws.nbytes() == 64
    ws.clear_all()
    assert ws.nbytes() == 0 and ws.per_thread() == {}


def test_scratch_without_workspace_allocates_fresh():
    a = scratch(None, "x", (2, 2), np.float32)
    b = scratch(None, "x", (2, 2), np.float32)
    assert a is not b
    assert a.shape == (2, 2)


def test_module_workspace_is_lazy_and_clearable():
    layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
    assert "_workspace" not in layer.__dict__
    ws = layer.workspace
    assert layer.workspace is ws
    ws.buffer("t", (2,), np.float32)
    layer.clear_workspaces()
    assert len(ws) == 0


# ----------------------------------------------------------------------
# Fused kernels match their naive formulations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def b() -> ArrayBackend:
    return NumpyBackend()


def test_gelu_kernel_matches_reference(b):
    x = np.random.default_rng(0).normal(size=(5, 7)).astype(np.float32)
    ref = 0.5 * x * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
    np.testing.assert_allclose(b.gelu(x), ref, rtol=1e-6, atol=1e-7)


def test_softmax_kernel(b):
    x = np.random.default_rng(1).normal(size=(4, 9)).astype(np.float32)
    out = b.softmax(x, axis=-1)
    exp = np.exp(x - x.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(out, exp / exp.sum(axis=-1, keepdims=True),
                               rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)


def test_log_softmax_kernel(b):
    x = np.random.default_rng(2).normal(size=(4, 9)).astype(np.float32)
    np.testing.assert_allclose(np.exp(b.log_softmax(x, axis=-1)),
                               b.softmax(x, axis=-1), rtol=1e-5, atol=1e-6)


def test_layer_norm_kernel(b):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    w = rng.normal(size=8).astype(np.float32)
    bias = rng.normal(size=8).astype(np.float32)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + 1e-5) * w + bias
    np.testing.assert_allclose(b.layer_norm(x, w, bias, 1e-5), ref,
                               rtol=1e-5, atol=1e-6)


def test_linear_kernel_and_out_buffer(b):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    w = rng.normal(size=(3, 8)).astype(np.float32)
    bias = rng.normal(size=3).astype(np.float32)
    ref = x @ w.T + bias
    np.testing.assert_allclose(b.linear(x, w, bias), ref, rtol=1e-5, atol=1e-6)
    buf = np.empty((2, 5, 3), dtype=np.float32)
    out = b.linear(x, w, bias, out=buf)
    assert out.base is buf or out is buf
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


def test_conv_im2col_roundtrip_shapes(b):
    x = np.random.default_rng(5).normal(size=(2, 3, 8, 8)).astype(np.float32)
    cols, oh, ow = b.conv_im2col(x, 3, 3, stride=1, pad=1)
    assert (oh, ow) == (8, 8)
    assert cols.shape == (2, 3 * 9, 64)
    buf = np.empty_like(cols)
    cols2, _, _ = b.conv_im2col(x, 3, 3, stride=1, pad=1, out=buf)
    np.testing.assert_array_equal(cols, cols2)
    assert cols2.base is buf or cols2 is buf


def test_one_hot_kernel():
    out = nn.ops.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(out, np.eye(3, dtype=np.float32)[[0, 2, 1]])


def test_protocol_is_the_eleven_kernels():
    """ArrayBackend names exactly the kernels a backend overrides or the
    profiler times; everything else is plain numpy at the call site."""
    public = sorted(name for name in dir(ArrayBackend)
                    if not name.startswith("_")
                    and callable(getattr(ArrayBackend, name)))
    assert public == sorted([
        "matmul", "einsum", "linear", "linear_act", "linear_q8",
        "softmax", "log_softmax", "layer_norm", "gelu",
        "conv_im2col", "col2im"])
