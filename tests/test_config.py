"""Unit tests for the configuration dataclasses."""

import importlib.util
from pathlib import Path

import pytest

from repro.config import (
    CampaignConfig,
    DataSourceNoiseConfig,
    ExperimentConfig,
    GeneratorConfig,
    InferenceConfig,
)
from repro.exceptions import ConfigurationError


class TestGeneratorConfig:
    def test_defaults_are_valid(self):
        config = GeneratorConfig()
        assert config.n_ixps >= 2
        assert 0.0 <= config.base_remote_fraction <= 1.0

    def test_tiny_is_smaller_than_default(self):
        tiny, default = GeneratorConfig.tiny(), GeneratorConfig()
        assert tiny.n_ixps < default.n_ixps
        assert tiny.n_ases < default.n_ases

    def test_small_is_between_tiny_and_default(self):
        tiny, small, default = GeneratorConfig.tiny(), GeneratorConfig.small(), GeneratorConfig()
        assert tiny.n_ases < small.n_ases < default.n_ases

    def test_rejects_too_few_ixps(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(n_ixps=1)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(base_remote_fraction=1.5)

    def test_rejects_inverted_size_bounds(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(largest_ixp_members=10, smallest_ixp_members=20)

    def test_rejects_remote_bands_summing_above_one(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(remote_same_metro_fraction=0.7, remote_regional_fraction=0.6)

    def test_rejects_tier_fractions_summing_to_one(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(tier1_fraction=0.5, tier2_fraction=0.5)

    def test_is_frozen(self):
        config = GeneratorConfig()
        with pytest.raises(Exception):
            config.n_ixps = 99  # type: ignore[misc]


class TestNoiseConfig:
    def test_defaults_are_valid(self):
        config = DataSourceNoiseConfig()
        assert 0.0 <= config.pdb_interface_coverage <= 1.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            DataSourceNoiseConfig(he_interface_coverage=2.0)

    def test_rejects_negative_coordinate_error(self):
        with pytest.raises(ConfigurationError):
            DataSourceNoiseConfig(facility_coordinate_error_km=-5.0)


class TestCampaignConfig:
    def test_defaults_are_valid(self):
        config = CampaignConfig()
        assert config.ping_rounds >= 1

    def test_rejects_zero_rounds(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(ping_rounds=0)

    def test_rejects_bad_stretch(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(remote_path_stretch=(0.9, 1.2))
        with pytest.raises(ConfigurationError):
            CampaignConfig(local_path_stretch=(1.5, 1.1))

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(lg_response_rate=-0.1)

    def test_rejects_negative_atlas_probe_cap(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(max_atlas_probes_per_ixp=-2)
        assert CampaignConfig(max_atlas_probes_per_ixp=0).max_atlas_probes_per_ixp == 0

    def test_rejects_fewer_than_one_destination_per_source(self):
        for count in (0, -3):
            with pytest.raises(ConfigurationError):
                CampaignConfig(traceroute_destinations_per_source=count)
        CampaignConfig(traceroute_destinations_per_source=1)

    def test_rejects_bad_management_lan_rtt_range(self):
        for bounds in ((12.0, 1.5), (-1.0, 2.0), (-2.0, -1.0)):
            with pytest.raises(ConfigurationError):
                CampaignConfig(management_lan_extra_rtt_ms=bounds)
        CampaignConfig(management_lan_extra_rtt_ms=(0.0, 0.0))


class TestInferenceConfig:
    def test_defaults_are_valid(self):
        config = InferenceConfig()
        assert config.rtt_baseline_threshold_ms == pytest.approx(10.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigurationError):
            InferenceConfig(rtt_baseline_threshold_ms=0.0)

    def test_rejects_zero_neighbours(self):
        with pytest.raises(ConfigurationError):
            InferenceConfig(min_private_neighbours=0)

    def test_rejects_fewer_than_one_coherent_vote_facility(self):
        for count in (0, -1):
            with pytest.raises(ConfigurationError):
                InferenceConfig(max_coherent_vote_facilities=count)
        assert InferenceConfig(max_coherent_vote_facilities=1).max_coherent_vote_facilities == 1

    def test_steps_can_be_disabled(self):
        config = InferenceConfig(enable_step4_multi_ixp=False, enable_step5_private_links=False)
        assert not config.enable_step4_multi_ixp
        assert not config.enable_step5_private_links


class TestExperimentConfig:
    def test_default_bundle(self):
        config = ExperimentConfig()
        assert config.studied_ixp_count == 30

    def test_tiny_and_small_bundles(self):
        assert ExperimentConfig.tiny().studied_ixp_count < ExperimentConfig().studied_ixp_count
        assert ExperimentConfig.small().generator.n_ixps == GeneratorConfig.small().n_ixps

    def test_rejects_zero_studied_ixps(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(studied_ixp_count=0)

    def test_seed_propagates_to_generator(self):
        config = ExperimentConfig.small(seed=99)
        assert config.generator.seed == 99


def _example(name: str):
    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstartConfig:
    @pytest.mark.parametrize(
        ("example", "scale"),
        [
            *(pytest.param("quickstart", scale, id=scale)
              for scale in ("tiny", "small", "default")),
            *(pytest.param("generate_experiments_report", scale, id=f"report-{scale}")
              for scale in ("tiny", "small", "default")),
        ],
    )
    def test_seed_reaches_the_generator_at_every_scale(self, example, scale):
        assert _example(example).build_config(scale, 5).generator.seed == 5
