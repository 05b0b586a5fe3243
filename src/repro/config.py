"""Configuration dataclasses for the generator, measurements and inference.

Every knob that shapes the synthetic world, the noise injected into data
sources, the measurement campaigns and the inference thresholds lives here, so
that experiments can state their parameters in one place and tests can build
small, fast worlds.

The defaults encode the calibration targets listed in DESIGN.md §5 (the
statistical shape of the paper's ecosystem), not the paper's absolute counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from repro.constants import CASTRO_RTT_THRESHOLD_MS, PING_CAMPAIGN_ROUNDS
from repro.exceptions import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def require_fraction(value: float, name: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` lies in [0, 1]."""
    _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic world generator.

    The world built from the defaults is "paper shaped": ~28% of memberships
    remote overall, ~40% at the two largest IXPs, ~15% of IXPs wide-area,
    ~27% of remote peers on fractional ports, a remote-peer distance mix in
    which ~18% sit within the IXP metro and ~40% within ~1,000 km.
    """

    seed: int = 20180901
    n_ixps: int = 40
    n_ases: int = 1200
    n_resellers: int = 8
    largest_ixp_members: int = 280
    smallest_ixp_members: int = 18
    ixp_size_decay: float = 0.72
    n_major_markets: int = 30
    facilities_per_major_city: tuple[int, int] = (2, 7)
    facilities_per_minor_city: tuple[int, int] = (1, 2)
    wide_area_ixp_fraction: float = 0.15
    wide_area_extra_cities: tuple[int, int] = (3, 14)
    reseller_disallowed_fraction: float = 0.15
    federation_pairs: int = 2
    tier1_fraction: float = 0.012
    tier2_fraction: float = 0.16
    base_remote_fraction: float = 0.27
    largest_ixp_remote_fraction: float = 0.40
    no_reseller_remote_fraction: float = 0.12
    remote_same_metro_fraction: float = 0.18
    remote_regional_fraction: float = 0.22
    remote_colocated_reseller_fraction: float = 0.05
    reseller_share_of_remote: float = 0.75
    federation_share_of_remote: float = 0.05
    fractional_port_share_of_reseller: float = 0.36
    private_link_probability: float = 0.30
    max_private_links_per_as: int = 14
    months: int = 15
    local_join_spread: float = 0.08
    remote_join_spread: float = 0.40
    local_departure_rate: float = 0.04
    remote_departure_rate: float = 0.05
    backbone_interfaces_per_router: tuple[int, int] = (1, 2)

    def __post_init__(self) -> None:
        _require(self.n_ixps >= 2, "n_ixps must be at least 2")
        _require(self.n_ases >= 20, "n_ases must be at least 20")
        _require(self.n_resellers >= 1, "n_resellers must be at least 1")
        _require(
            self.largest_ixp_members >= self.smallest_ixp_members >= 2,
            "IXP size bounds must satisfy largest >= smallest >= 2",
        )
        _require(self.ixp_size_decay > 0, "ixp_size_decay must be positive")
        _require(self.months >= 1, "months must be at least 1")
        for name in (
            "wide_area_ixp_fraction",
            "reseller_disallowed_fraction",
            "tier1_fraction",
            "tier2_fraction",
            "base_remote_fraction",
            "largest_ixp_remote_fraction",
            "no_reseller_remote_fraction",
            "remote_same_metro_fraction",
            "remote_regional_fraction",
            "remote_colocated_reseller_fraction",
            "reseller_share_of_remote",
            "federation_share_of_remote",
            "fractional_port_share_of_reseller",
            "private_link_probability",
            "local_join_spread",
            "remote_join_spread",
            "local_departure_rate",
            "remote_departure_rate",
        ):
            require_fraction(getattr(self, name), name)
        _require(
            self.tier1_fraction + self.tier2_fraction < 1.0,
            "tier1_fraction + tier2_fraction must be below 1",
        )
        _require(
            self.remote_same_metro_fraction + self.remote_regional_fraction <= 1.0,
            "remote distance-band fractions must sum to at most 1",
        )
        _require(
            self.reseller_share_of_remote + self.federation_share_of_remote <= 1.0,
            "reseller + federation shares of remote connections must sum to at most 1",
        )

    @classmethod
    def tiny(cls, seed: int = 7) -> "GeneratorConfig":
        """A very small world for fast unit tests."""
        return cls(
            seed=seed,
            n_ixps=6,
            n_ases=160,
            n_resellers=3,
            largest_ixp_members=40,
            smallest_ixp_members=8,
            n_major_markets=10,
            federation_pairs=1,
            months=8,
        )

    @classmethod
    def small(cls, seed: int = 11) -> "GeneratorConfig":
        """A small-but-representative world for integration tests."""
        return cls(
            seed=seed,
            n_ixps=15,
            n_ases=450,
            n_resellers=5,
            largest_ixp_members=90,
            smallest_ixp_members=12,
            n_major_markets=18,
            federation_pairs=1,
            months=12,
        )


@dataclass(frozen=True)
class DataSourceNoiseConfig:
    """How lossy and conflicting each simulated database view is.

    Coverage is the probability that a ground-truth record appears in the
    source at all; the conflict rate is the probability that a present record
    carries a wrong value (e.g. a wrong ASN for an IXP interface).  The
    defaults roughly follow the relative source quality of Table 1 (websites >
    HE > PDB > PCH) and the colocation-data gaps of Fig. 5 (facility lists
    missing for ~18% of remote peers, spurious for ~5%).
    """

    seed_offset: int = 101
    website_publication_rate: float = 0.55
    website_port_capacity_rate: float = 0.85
    he_interface_coverage: float = 0.93
    he_conflict_rate: float = 0.003
    pdb_interface_coverage: float = 0.72
    pdb_conflict_rate: float = 0.003
    pch_interface_coverage: float = 0.20
    pch_conflict_rate: float = 0.004
    pdb_prefix_coverage: float = 0.88
    he_prefix_coverage: float = 0.62
    pch_prefix_coverage: float = 0.64
    facility_missing_rate_remote: float = 0.18
    facility_missing_rate_local: float = 0.04
    facility_spurious_reseller_rate: float = 0.05
    facility_coordinate_error_rate: float = 0.12
    facility_coordinate_error_km: float = 400.0
    inflect_correction_rate: float = 0.75
    pdb_port_capacity_coverage: float = 0.80
    pdb_traffic_coverage: float = 0.85
    website_facility_list_top_n: int = 50

    def __post_init__(self) -> None:
        for name in (
            "website_publication_rate",
            "website_port_capacity_rate",
            "he_interface_coverage",
            "he_conflict_rate",
            "pdb_interface_coverage",
            "pdb_conflict_rate",
            "pch_interface_coverage",
            "pch_conflict_rate",
            "pdb_prefix_coverage",
            "he_prefix_coverage",
            "pch_prefix_coverage",
            "facility_missing_rate_remote",
            "facility_missing_rate_local",
            "facility_spurious_reseller_rate",
            "facility_coordinate_error_rate",
            "inflect_correction_rate",
            "pdb_port_capacity_coverage",
            "pdb_traffic_coverage",
        ):
            require_fraction(getattr(self, name), name)
        _require(self.facility_coordinate_error_km >= 0, "coordinate error must be >= 0")
        _require(self.website_facility_list_top_n >= 0, "website_facility_list_top_n must be >= 0")


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of the ping / traceroute measurement campaigns."""

    seed_offset: int = 202
    ping_rounds: int = PING_CAMPAIGN_ROUNDS
    lg_presence_rate: float = 0.60
    max_atlas_probes_per_ixp: int = 3
    lg_response_rate: float = 0.95
    atlas_response_rate: float = 0.75
    lg_integer_rounding_rate: float = 0.45
    atlas_management_lan_rate: float = 0.18
    atlas_dead_probe_rate: float = 0.20
    management_lan_extra_rtt_ms: tuple[float, float] = (1.5, 12.0)
    jitter_ms: float = 0.3
    remote_path_stretch: tuple[float, float] = (1.05, 1.6)
    local_path_stretch: tuple[float, float] = (1.0, 1.15)
    ttl_anomaly_rate: float = 0.02
    traceroute_hop_loss_rate: float = 0.03
    traceroute_sources_per_ixp: int = 40
    traceroute_destinations_per_source: int = 35
    hot_potato_compliance: float = 0.78

    def __post_init__(self) -> None:
        _require(self.ping_rounds >= 1, "ping_rounds must be at least 1")
        for name in (
            "lg_presence_rate",
            "lg_response_rate",
            "atlas_response_rate",
            "lg_integer_rounding_rate",
            "atlas_management_lan_rate",
            "atlas_dead_probe_rate",
            "ttl_anomaly_rate",
            "traceroute_hop_loss_rate",
            "hot_potato_compliance",
        ):
            require_fraction(getattr(self, name), name)
        _require(self.jitter_ms >= 0, "jitter_ms must be non-negative")
        low, high = self.remote_path_stretch
        _require(1.0 <= low <= high, "remote_path_stretch must be an increasing pair >= 1")
        low, high = self.local_path_stretch
        _require(1.0 <= low <= high, "local_path_stretch must be an increasing pair >= 1")
        low, high = self.management_lan_extra_rtt_ms
        _require(0.0 <= low <= high, "management_lan_extra_rtt_ms must be an increasing pair >= 0")
        _require(self.max_atlas_probes_per_ixp >= 0, "max_atlas_probes_per_ixp must be >= 0")
        _require(self.traceroute_sources_per_ixp >= 0, "traceroute_sources_per_ixp must be >= 0")
        _require(
            self.traceroute_destinations_per_source >= 1,
            "traceroute_destinations_per_source must be at least 1",
        )


@dataclass(frozen=True)
class InferenceConfig:
    """Thresholds and switches of the five-step inference pipeline."""

    rtt_baseline_threshold_ms: float = CASTRO_RTT_THRESHOLD_MS
    atlas_route_server_filter_ms: float = 1.0
    lg_rounding_adjustment_ms: float = 1.0
    feasible_facility_tolerance_km: float = 25.0
    min_private_neighbours: int = 2
    max_coherent_vote_facilities: int = 6
    enable_step1_port_capacity: bool = True
    enable_step3_colocation_rtt: bool = True
    enable_step4_multi_ixp: bool = True
    enable_step5_private_links: bool = True

    def __post_init__(self) -> None:
        _require(self.rtt_baseline_threshold_ms > 0, "rtt_baseline_threshold_ms must be positive")
        _require(
            self.atlas_route_server_filter_ms > 0, "atlas_route_server_filter_ms must be positive"
        )
        _require(self.lg_rounding_adjustment_ms >= 0, "lg_rounding_adjustment_ms must be >= 0")
        _require(
            self.feasible_facility_tolerance_km >= 0, "feasible_facility_tolerance_km must be >= 0"
        )
        _require(self.min_private_neighbours >= 1, "min_private_neighbours must be >= 1")
        _require(
            self.max_coherent_vote_facilities >= 1, "max_coherent_vote_facilities must be >= 1"
        )


def config_fingerprint(
    config: InferenceConfig, field_names: Iterable[str]
) -> tuple[tuple[str, object], ...]:
    """A stable, hashable fingerprint of a subset of an :class:`InferenceConfig`.

    The step-graph engine keys cached step results by the fingerprint of the
    config fields each step *declares* it reads, so two configurations that
    agree on a step's declared fields share that step's cached result.  The
    fingerprint is the sorted tuple of ``(field_name, value)`` pairs — order
    independent, equality-comparable and usable as (part of) a dict key.

    Unknown field names raise :class:`~repro.exceptions.ConfigurationError`
    immediately: a typo in a step's declaration would otherwise silently
    desynchronise the cache from the config values the step actually reads.
    """
    known = {f.name for f in fields(InferenceConfig)}
    unknown = sorted(name for name in field_names if name not in known)
    if unknown:
        listed = ", ".join(repr(name) for name in unknown)
        raise ConfigurationError(
            f"unknown InferenceConfig field(s) {listed} in fingerprint declaration")
    return tuple((name, getattr(config, name)) for name in sorted(field_names))


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of all configurations used by an experiment run."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    noise: DataSourceNoiseConfig = field(default_factory=DataSourceNoiseConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    studied_ixp_count: int = 30

    def __post_init__(self) -> None:
        _require(self.studied_ixp_count >= 1, "studied_ixp_count must be at least 1")

    @classmethod
    def tiny(cls, seed: int = 7) -> "ExperimentConfig":
        """Small bundle for fast tests."""
        return cls(generator=GeneratorConfig.tiny(seed=seed), studied_ixp_count=5)

    @classmethod
    def small(cls, seed: int = 11) -> "ExperimentConfig":
        """Mid-size bundle for integration tests."""
        return cls(generator=GeneratorConfig.small(seed=seed), studied_ixp_count=10)
