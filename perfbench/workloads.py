"""The three serving workloads: what fleet they build and what traffic hits it.

Every workload serves a 2-worker fleet on the default ``multiprocess``
transport, default backend and default environment.  Model weights are
fixed (seed 0) so every run measures the same program; the run's
``--seed`` only draws the arrival schedule and the input images.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

NUM_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], object]                # -> repro.serving.demo.DemoSystem
    traffic: Callable[[float, int], object]    # (seconds, seed) -> ArrivalTrace
    rate_label: str                            # the paced schedule, for humans
    images_per_request: int = 1
    pool_size: int = 256                       # distinct input images per run
    saturation_window: int = 64                # requests kept outstanding
    window_s: float = 4.0                      # latency statistics window


def _demo(**kwargs):
    from repro.serving.demo import build_demo_system

    return build_demo_system(num_workers=NUM_WORKERS, model_kind="vit",
                             seed=0, transport="multiprocess", **kwargs)


def _build_overhead():
    return _demo(time_scale=0.0, codec="raw32")


def _build_burst():
    from repro.edge.network import tc_capped_link

    return _demo(time_scale=1.0, codec="q8", link=tc_capped_link())


def _compute_config():
    """Paper-shaped sub-model: ViT-Small at 32x32/patch 8, pruned to hp=3."""
    from repro.models.vit import vit_small_config
    from repro.splitting.schedule import submodel_config

    base = dataclasses.replace(vit_small_config(10, 32), patch_size=8)
    return submodel_config(base, 3, 10)


def _build_compute():
    from repro.edge.device import DeviceModel
    from repro.edge.network import LinkModel
    from repro.edge.runtime import WorkerSpec
    from repro.models.fusion import build_fusion_for
    from repro.models.vit import VisionTransformer
    from repro.serving.demo import DemoSystem

    config = _compute_config()
    models = [VisionTransformer(config, rng=np.random.default_rng(index))
              for index in range(NUM_WORKERS)]
    fusion = build_fusion_for([m.feature_dim() for m in models],
                              num_classes=10,
                              rng=np.random.default_rng(1000))
    link = LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0)
    specs = [WorkerSpec.from_model(
        f"w{index}", model, "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=f"w{index}", macs_per_second=1e12),
        link=link, codec="raw32")
        for index, model in enumerate(models)]
    return DemoSystem(specs=specs, models=models, fusion=fusion,
                      input_shape=(3, config.image_size, config.image_size),
                      num_classes=10, time_scale=0.0,
                      transport="multiprocess", codec="raw32")


OVERHEAD_RPS = 300.0
COMPUTE_RPS = 20.0
BURST = dict(base_rps=100.0, burst_rps=300.0, burst_every_s=2.5,
             burst_duration_s=0.5)


def _poisson(rate: float):
    def traffic(seconds: float, seed: int):
        from repro.serving.traffic import poisson_trace

        return poisson_trace(rate, seconds, seed=seed)
    return traffic


def _bursts(seconds: float, seed: int):
    from repro.serving.traffic import burst_trace

    return burst_trace(duration_s=seconds, seed=seed, **BURST)


WORKLOADS = {
    "overhead": Workload(
        "overhead", _build_overhead, _poisson(OVERHEAD_RPS),
        f"Poisson {OVERHEAD_RPS:g} rps"),
    "compute": Workload(
        "compute", _build_compute, _poisson(COMPUTE_RPS),
        f"Poisson {COMPUTE_RPS:g} rps", pool_size=32, saturation_window=32),
    "burst": Workload(
        "burst", _build_burst, _bursts,
        "base {base_rps:g} rps, {burst_rps:g} rps for {burst_duration_s:g} s "
        "every {burst_every_s:g} s".format(**BURST),
        images_per_request=8, saturation_window=16,
        window_s=2 * BURST["burst_every_s"]),
}
