"""Shared fixtures for the test suite.

Two worlds are used throughout:

* ``tiny_world`` — a very small, fast world for unit-level checks;
* ``small_study`` — one session-scoped end-to-end study (world, data
  sources, campaigns, pipeline) shared by the integration, analysis and
  experiment tests, so the expensive parts are computed once;
* ``tiny_study`` and ``oracle_study`` — tiny studies at seeds 7 and 23 that
  engine tests run fresh engines over.

``detection_mode`` runs a test once with the corpus-detection index's numpy
bulk pass and once with its per-path fallback.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig, GeneratorConfig
from repro.study import RemotePeeringStudy
from repro.topology.generator import WorldGenerator
from repro.topology.world import World
from repro.traixroute import detector


@pytest.fixture(scope="session")
def tiny_world() -> World:
    """A tiny ground-truth world (seed 7)."""
    return WorldGenerator(GeneratorConfig.tiny(seed=7)).generate()

@pytest.fixture(scope="session")
def tiny_world_alt() -> World:
    """A second tiny world with a different seed, for determinism checks."""
    return WorldGenerator(GeneratorConfig.tiny(seed=8)).generate()


@pytest.fixture(scope="session")
def small_study() -> RemotePeeringStudy:
    """One shared end-to-end study on the small configuration."""
    return RemotePeeringStudy(ExperimentConfig.small(seed=11))


@pytest.fixture(scope="session")
def small_outcome(small_study):
    """The pipeline outcome of the shared study."""
    return small_study.outcome


@pytest.fixture(scope="session")
def tiny_study() -> RemotePeeringStudy:
    """A cheaper end-to-end study on the tiny configuration."""
    return RemotePeeringStudy(ExperimentConfig.tiny(seed=7))


@pytest.fixture(scope="session")
def oracle_study() -> RemotePeeringStudy:
    """A tiny seed-23 study, whose ping campaign has a rounding looking
    glass; tests run engines over it or over copies of its inputs, and
    never edit the inputs themselves."""
    study = RemotePeeringStudy(ExperimentConfig.tiny(seed=23))
    study.inputs  # build the dataset, campaigns and prefix map once
    return study


@pytest.fixture(params=["numpy", "fallback"])
def detection_mode(request, monkeypatch):
    """Run a test with the bulk detection pass and with the per-path loop."""
    if request.param == "numpy":
        if detector._np is None:
            pytest.skip("numpy not installed; the bulk pass is unavailable")
    else:
        monkeypatch.setattr(detector, "_np", None)
    return request.param
