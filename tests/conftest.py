"""Shared fixtures.

The expensive fixture is ``tiny_context`` — a trained VGG-11 on the
tiny synthetic CIFAR-10 — shared (session-scoped) by the integration
tests so the suite trains it exactly once.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, get_context, get_scale


@pytest.fixture(scope="session", autouse=True)
def _isolated_runs_root(tmp_path_factory):
    """Point the run registry at a scratch directory for the whole
    session, so observed runs inside tests never touch ``runs/``."""
    root = tmp_path_factory.mktemp("runs_root")
    previous = os.environ.get("REPRO_RUNS_ROOT")
    os.environ["REPRO_RUNS_ROOT"] = str(root)
    yield str(root)
    if previous is None:
        os.environ.pop("REPRO_RUNS_ROOT", None)
    else:
        os.environ["REPRO_RUNS_ROOT"] = previous


@pytest.fixture(scope="session", autouse=True)
def _reap_resource_tracker():
    """Stop multiprocessing's resource tracker (started by shared-memory
    model publishing) at session end and wait for it, so no helper
    process outlives the test run."""
    yield
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_config():
    return ExperimentConfig(
        arch="vgg11", dataset="cifar10", timesteps=2, scale=get_scale("tiny"), seed=0
    )


@pytest.fixture(scope="session")
def tiny_context(tiny_config):
    """A trained tiny VGG-11 context (trained once per test session)."""
    return get_context(tiny_config)


@pytest.fixture
def converted_tiny_vgg():
    """A converted T=2 tiny VGG-11 (eval mode) and a batch of
    16 images: the workload of the paired timing gates."""
    from repro.conversion import ConversionConfig, convert_dnn_to_snn
    from repro.data import DataLoader
    from repro.models import vgg11

    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=10, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 10, 16), 16)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
    snn.eval()
    return snn, rng.random((16, 3, 8, 8))
