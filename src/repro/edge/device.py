"""Edge-device performance model calibrated against the paper's testbed.

The paper measures single-sample inference latency on Raspberry Pi 4B
boards (Table I).  Latency there is compute-bound, so we model a device as
an effective MAC throughput plus memory/energy budgets.  The throughput
constant is calibrated so that ViT-Base's analytic MAC count maps exactly
to the paper's measured 36.94 s; ViT-Small and ViT-Large then land within
±9 % of their measured values (pinned in ``tests/edge/test_device.py``).
"""

from __future__ import annotations

import dataclasses

from ..assignment.problem import DeviceSpec
from ..models.vit import vit_base_config
from ..profiling import paper_flops

# Paper Table I: ViT-Base takes 36.94 s on a Raspberry Pi 4B.
_VIT_BASE_LATENCY_S = 36.94
PI4B_MACS_PER_SECOND = paper_flops(vit_base_config()) / _VIT_BASE_LATENCY_S

# Raspberry Pi 4B (4 GB variant): usable application memory.
PI4B_MEMORY_BYTES = 4 * 2 ** 30

# Default per-device energy budget expressed as FLOPs, following the
# paper's formulation (E_i in Eq. 1).  Chosen to be ample for single-sample
# workloads; experiments override it when studying energy pressure.
PI4B_ENERGY_FLOPS = 100e9


@dataclasses.dataclass(frozen=True)
class DeviceModel:
    """A simulated edge device: compute throughput + resource budgets."""

    device_id: str
    macs_per_second: float = PI4B_MACS_PER_SECOND
    memory_bytes: int = PI4B_MEMORY_BYTES
    energy_flops: float = PI4B_ENERGY_FLOPS

    def compute_seconds(self, macs: float) -> float:
        """Wall-clock seconds to execute ``macs`` multiply-accumulates."""
        if macs < 0:
            raise ValueError("macs must be non-negative")
        return macs / self.macs_per_second

    def to_spec(self) -> DeviceSpec:
        return DeviceSpec(device_id=self.device_id,
                          memory_bytes=self.memory_bytes,
                          energy_flops=self.energy_flops)


def raspberry_pi_4b(device_id: str) -> DeviceModel:
    return DeviceModel(device_id=device_id)


def make_fleet(count: int, prefix: str = "pi", **overrides) -> list[DeviceModel]:
    """A homogeneous fleet of Raspberry-Pi-class devices."""
    return [DeviceModel(device_id=f"{prefix}-{i}", **overrides)
            for i in range(count)]


def heterogeneous_fleet(throughputs: list[float],
                        prefix: str = "dev") -> list[DeviceModel]:
    """A fleet with per-device throughput multipliers (e.g. mixed Pi models)."""
    return [DeviceModel(device_id=f"{prefix}-{i}",
                        macs_per_second=PI4B_MACS_PER_SECOND * factor)
            for i, factor in enumerate(throughputs)]
