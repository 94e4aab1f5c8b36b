"""Convolutional Spiking Neural Network for the Split-SNN baseline.

EC-SNN — the Split-SNN comparator in Table III / Fig. 7 — converts a
VGG-style CNN into a rate-coded spiking network and splits it across edge
devices.  We implement a leaky integrate-and-fire (LIF) network trained
with surrogate gradients (the standard approach for deep SNNs): the spike
nonlinearity is a Heaviside step in the forward pass and a fast-sigmoid
derivative in the backward pass.

The network integrates inputs over ``time_steps`` simulation steps and
classifies from the accumulated output current, matching the rate-coding
scheme used by the EC-SNN paper's CSNN backbone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..nn.tensor import Tensor, is_grad_enabled


def spike_fn(membrane: Tensor, threshold: float = 1.0,
             surrogate_scale: float = 5.0) -> Tensor:
    """Heaviside spike with fast-sigmoid surrogate gradient.

    Forward: ``spike = 1[v >= threshold]``.
    Backward: ``d spike / d v = scale / (1 + scale*|v - threshold|)^2``.
    """
    v = membrane.data
    spikes = (v >= threshold).astype(v.dtype)
    if not is_grad_enabled():
        # Graph-free path: no surrogate, no closure.
        return Tensor._noback(spikes)
    diff = np.abs(v - threshold)
    surrogate = surrogate_scale / (1.0 + surrogate_scale * diff) ** 2

    def backward(grad):
        return [(membrane, grad * surrogate)]

    return Tensor._make(spikes, (membrane,), backward)


class LIFState:
    """Per-layer membrane state carried across time steps."""

    def __init__(self):
        self.membrane: Tensor | None = None

    def reset(self) -> None:
        self.membrane = None


class LIFConvLayer(nn.Module):
    """Conv -> LIF neuron layer with decaying membrane and reset-by-subtraction."""

    def __init__(self, in_channels: int, out_channels: int, decay: float = 0.5,
                 threshold: float = 1.0, rng: np.random.Generator | None = None):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, kernel_size=3, padding=1,
                              rng=rng)
        self.decay = decay
        self.threshold = threshold
        self.state = LIFState()

    def forward(self, x: Tensor) -> Tensor:
        current = self.conv(x)
        if self.state.membrane is None:
            membrane = current
        else:
            membrane = self.state.membrane * self.decay + current
        spikes = spike_fn(membrane, self.threshold)
        # Reset by subtraction keeps residual charge (better rate coding).
        self.state.membrane = membrane - spikes * self.threshold
        return spikes

    def reset_state(self) -> None:
        self.state.reset()


@dataclasses.dataclass(frozen=True)
class SNNConfig:
    image_size: int = 32
    in_channels: int = 3
    num_classes: int = 10
    channels: tuple[int, ...] = (32, 64, 128)
    time_steps: int = 4
    decay: float = 0.5
    threshold: float = 1.0
    classifier_hidden: int = 128
    width_scale: float = 1.0
    name: str = "csnn"

    def scaled_channels(self) -> tuple[int, ...]:
        return tuple(max(1, int(round(c * self.width_scale))) for c in self.channels)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "SNNConfig":
        data = dict(data)
        data["channels"] = tuple(data["channels"])
        return SNNConfig(**data)


class ConvSNN(nn.Module):
    """Rate-coded convolutional SNN: repeated LIF conv blocks + pooling."""

    def __init__(self, config: SNNConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or nn.init.default_rng()
        self.config = config

        channels = config.scaled_channels()
        self.lif_layers = nn.ModuleList([])
        in_ch = config.in_channels
        for out_ch in channels:
            self.lif_layers.append(
                LIFConvLayer(in_ch, out_ch, config.decay, config.threshold, rng=rng))
            in_ch = out_ch
        self.pool = nn.AvgPool2d(2)

        spatial = config.image_size // (2 ** len(channels))
        if spatial < 1:
            raise ValueError("image too small for the configured depth")
        self._flat_dim = in_ch * spatial * spatial
        hidden = max(8, int(round(config.classifier_hidden * config.width_scale)))
        self.fc_hidden = nn.Linear(self._flat_dim, hidden, rng=rng)
        self.fc_out = nn.Linear(hidden, config.num_classes, rng=rng)

    def reset_states(self) -> None:
        for layer in self.lif_layers:
            layer.reset_state()

    def _step(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.lif_layers:
            out = self.pool(layer(out))
        return nn.ops.flatten(out, 1)

    def forward_features(self, x: Tensor) -> Tensor:
        """Time-averaged penultimate activations (the transmitted feature)."""
        self.reset_states()
        accumulated = None
        for _ in range(self.config.time_steps):
            feat = self.fc_hidden(self._step(x)).relu()
            accumulated = feat if accumulated is None else accumulated + feat
        return accumulated * (1.0 / self.config.time_steps)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc_out(self.forward_features(x))

    def feature_dim(self) -> int:
        return self.fc_hidden.out_features


def csnn_tiny_config(num_classes: int = 10, image_size: int = 32,
                     width_scale: float = 1.0, time_steps: int = 4) -> SNNConfig:
    return SNNConfig(image_size=image_size, num_classes=num_classes,
                     width_scale=width_scale, time_steps=time_steps,
                     name="csnn-tiny")
