"""Shared fixtures for the benchmark harness.

Benchmarks regenerate every table and figure of the paper at reproduction
scale: analytic/simulated experiments use the full-size ViT configs, while
trained experiments use scaled-down models on synthetic data, since the
paper's datasets and pretrained weights are not available offline.  Each
bench prints the rows/series the paper reports; run with
``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.training import TrainConfig, train_classifier
from repro.data import cifar10_like, gtzan_like
from repro.models.snn import ConvSNN, SNNConfig
from repro.models.vgg import VGG, vgg8_micro_config
from repro.models.vit import ViTConfig, VisionTransformer

IMAGE = 16
TRAIN_PER_CLASS = 48
TEST_PER_CLASS = 16


def print_table(title: str, rows) -> None:
    from repro.core.metrics import format_table

    print(f"\n=== {title} ===")
    print(format_table(rows))


@pytest.fixture(scope="session")
def bench_dataset():
    return cifar10_like(image_size=IMAGE, train_per_class=TRAIN_PER_CLASS,
                        test_per_class=TEST_PER_CLASS, noise_std=0.3)


@pytest.fixture(scope="session")
def bench_audio_dataset():
    return gtzan_like(image_size=IMAGE, train_per_class=TRAIN_PER_CLASS,
                      test_per_class=TEST_PER_CLASS)


def tiny_vit_config(num_classes=10, in_channels=3):
    return ViTConfig(image_size=IMAGE, patch_size=4, in_channels=in_channels,
                     num_classes=num_classes, depth=2, embed_dim=32,
                     num_heads=4, name="vit-bench")


@pytest.fixture(scope="session")
def trained_vit(bench_dataset):
    model = VisionTransformer(tiny_vit_config(), rng=np.random.default_rng(0))
    train_classifier(model, bench_dataset.x_train, bench_dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=0))
    return model


@pytest.fixture(scope="session")
def trained_audio_vit(bench_audio_dataset):
    model = VisionTransformer(tiny_vit_config(in_channels=1),
                              rng=np.random.default_rng(0))
    train_classifier(model, bench_audio_dataset.x_train,
                     bench_audio_dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=0))
    return model


@pytest.fixture(scope="session")
def trained_vgg(bench_dataset):
    model = VGG(vgg8_micro_config(num_classes=10, image_size=IMAGE,
                                  width_scale=0.25),
                rng=np.random.default_rng(0))
    train_classifier(model, bench_dataset.x_train, bench_dataset.y_train,
                     TrainConfig(epochs=8, lr=2e-3, seed=0))
    return model


@pytest.fixture(scope="session")
def trained_snn(bench_dataset):
    # EC-SNN converts the CNN backbone to spikes, so the SNN's conv widths
    # track the VGG's (16/32/64 at width_scale 0.25); the time-step
    # multiplier then makes it the slowest method, as in the paper's Fig. 7.
    cfg = SNNConfig(image_size=IMAGE, num_classes=10, channels=(16, 32, 64),
                    time_steps=3, classifier_hidden=64)
    model = ConvSNN(cfg, rng=np.random.default_rng(0))
    train_classifier(model, bench_dataset.x_train, bench_dataset.y_train,
                     TrainConfig(epochs=8, lr=2e-3, seed=0))
    return model
