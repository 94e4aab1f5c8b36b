"""ProfilingBackend tests: kernel timing, byte accounting, delegation."""

import numpy as np
import pytest

from repro import nn
from repro.obs import PROFILED_KERNELS, ProfilingBackend, get_registry
from repro.nn.backend import NumpyBackend, _resolve


def kernel_count(op: str, backend: str = "numpy") -> int:
    return get_registry().histogram(f"kernel.{op}_seconds",
                                    backend=backend).count


def kernel_bytes(op: str, backend: str = "numpy") -> float:
    return get_registry().counter(f"kernel.{op}_bytes_total",
                                  backend=backend).value


class TestConstruction:
    def test_default_inner_is_numpy(self):
        backend = ProfilingBackend()
        assert isinstance(backend.inner, NumpyBackend)
        assert backend.name == "profiled[numpy]"

    def test_refuses_double_wrap(self):
        with pytest.raises(TypeError):
            ProfilingBackend(ProfilingBackend())

    def test_registered_name_resolves(self):
        backend = _resolve("profiled")
        assert isinstance(backend, ProfilingBackend)
        # Per-name singleton, like every registered backend.
        assert _resolve("profiled") is backend


class TestTiming:
    def test_matmul_observed_with_bytes(self):
        backend = ProfilingBackend()
        a = np.ones((4, 8), dtype=np.float32)
        b = np.ones((8, 2), dtype=np.float32)
        before = kernel_count("matmul")
        bytes_before = kernel_bytes("matmul")
        y = backend.matmul(a, b)
        np.testing.assert_allclose(y, a @ b)
        assert kernel_count("matmul") == before + 1
        assert kernel_bytes("matmul") - bytes_before == \
            a.nbytes + b.nbytes + y.nbytes

    def test_every_profiled_kernel_has_instruments(self):
        backend = ProfilingBackend()
        for op in PROFILED_KERNELS:
            assert op in backend._seconds and op in backend._bytes

    def test_softmax_matches_inner(self):
        backend = ProfilingBackend()
        x = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        before = kernel_count("softmax")
        np.testing.assert_allclose(backend.softmax(x),
                                   backend.inner.softmax(x))
        assert kernel_count("softmax") == before + 1

    def test_untimed_methods_delegate_to_inner(self):
        class Counting(NumpyBackend):
            name = "counting"

            def __init__(self):
                self.calls = []

            def gelu(self, x, out=None):
                self.calls.append("gelu")
                return super().gelu(x, out=out)

            def col2im(self, cols, x_shape, kh, kw, stride, pad):
                self.calls.append("col2im")
                return super().col2im(cols, x_shape, kh, kw, stride, pad)

        inner = Counting()
        backend = ProfilingBackend(inner)
        x = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        np.testing.assert_array_equal(backend.gelu(x),
                                      NumpyBackend().gelu(x))
        cols = np.ones((1, 4, 4), dtype=np.float32)
        gx = backend.col2im(cols, (1, 1, 3, 3), 2, 2, 1, 0)
        assert gx.shape == (1, 1, 3, 3)
        assert inner.calls == ["gelu", "col2im"]


class TestEndToEnd:
    def test_model_forward_profiles_kernels(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(6, 8, rng=rng), nn.ReLU(),
                              nn.Linear(8, 3, rng=rng))
        x = rng.normal(size=(2, 6)).astype(np.float32)
        before = kernel_count("linear")
        with nn.use_backend(ProfilingBackend()):
            with nn.inference_mode():
                model(nn.Tensor(x))
        assert kernel_count("linear") > before
