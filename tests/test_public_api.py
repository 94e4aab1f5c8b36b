"""Public-API hygiene: documented modules, importable __all__ entries."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.nn",
    "repro.models",
    "repro.profiling",
    "repro.data",
    "repro.pruning",
    "repro.splitting",
    "repro.assignment",
    "repro.edge",
    "repro.core",
    "repro.baselines",
    "repro.serving",
    "repro.planning",
    "repro.store",
    "repro.obs",
]

MODULES = SUBPACKAGES + [
    "repro.nn.tensor", "repro.nn.ops", "repro.nn.modules", "repro.nn.optim",
    "repro.nn.losses", "repro.nn.serialization", "repro.nn.init",
    "repro.nn.gradcheck",
    "repro.models.vit", "repro.models.vgg", "repro.models.snn",
    "repro.models.fusion", "repro.models.analysis",
    "repro.profiling.flops", "repro.profiling.memory",
    "repro.profiling.energy",
    "repro.data.synthetic", "repro.data.datasets", "repro.data.loaders",
    "repro.pruning.surgery", "repro.pruning.importance",
    "repro.pruning.structured", "repro.pruning.pipeline",
    "repro.pruning.channel",
    "repro.splitting.class_assignment", "repro.splitting.schedule",
    "repro.splitting.fusion",
    "repro.assignment.problem", "repro.assignment.greedy",
    "repro.assignment.optimal",
    "repro.edge.device", "repro.edge.network", "repro.edge.sim_core",
    "repro.edge.simulator", "repro.edge.runtime",
    "repro.core.training", "repro.core.edvit", "repro.core.metrics",
    "repro.core.experiments",
    "repro.baselines.split_cnn", "repro.baselines.split_snn",
    "repro.serving.batcher", "repro.serving.server", "repro.serving.loadgen",
    "repro.serving.telemetry", "repro.serving.demo",
    "repro.planning.plan", "repro.planning.planner", "repro.planning.replan",
    "repro.planning.execute",
    "repro.store.store",
    "repro.obs.trace", "repro.obs.metrics", "repro.obs.profile",
    "repro.obs.export",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", SUBPACKAGES + ["repro"])
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.__all__ lists missing {entry!r}"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_is_sorted(name):
    module = importlib.import_module(name)
    assert list(module.__all__) == sorted(module.__all__), \
        f"{name}.__all__ is not sorted"


def test_public_classes_documented():
    """Every public class reachable from the top subpackages is documented."""
    undocumented = []
    for name in SUBPACKAGES:
        module = importlib.import_module(name)
        for entry in module.__all__:
            obj = getattr(module, entry)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{name}.{entry}")
    assert not undocumented, f"undocumented classes: {undocumented}"


def test_version_string():
    assert repro.__version__.count(".") == 2
