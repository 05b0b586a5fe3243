"""The accessor → domain tables the declaration checker is built on.

These tables are the single place where "reading *this* attribute or calling
*this* method touches *that* dataset domain" is written down.  Both halves
of the checker consume them: the static rule
(:mod:`repro.contracts.stepdecl`) maps syntactic accesses through them, and
the dynamic cross-check (:mod:`repro.contracts.dynamic`) wraps the same
names in recording proxies — so the two can never disagree about what an
access *means*, only about which accesses happen.

The tables are **closed-world**: the static rule reports a violation for
any dataset/geo-index member it cannot map, so adding an accessor to
:class:`~repro.datasources.merge.ObservedDataset` without extending the
table fails CI instead of silently under-declaring.
"""

from __future__ import annotations

from repro.datasources.merge import (
    DOMAIN_AS_FACILITIES,
    DOMAIN_ATTRIBUTES,
    DOMAIN_CAPACITIES,
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_IXP_PREFIXES,
)

#: ObservedDataset *method* -> the domains one call reads.
DATASET_ACCESSOR_DOMAINS: dict[str, tuple[str, ...]] = {
    "ixp_for_ip": (DOMAIN_IXP_PREFIXES,),
    "ixp_ids": (DOMAIN_IXP_PREFIXES, DOMAIN_IXP_FACILITIES),
    "interfaces_of_ixp": (DOMAIN_INTERFACES,),
    "members_of_ixp": (DOMAIN_INTERFACES,),
    "asn_of_interface": (DOMAIN_INTERFACES,),
    "ixp_of_interface": (DOMAIN_INTERFACES,),
    "facilities_of_ixp": (DOMAIN_IXP_FACILITIES,),
    "facilities_of_as": (DOMAIN_AS_FACILITIES,),
    "has_facility_data_for_as": (DOMAIN_AS_FACILITIES,),
    "facility_location": (DOMAIN_FACILITY_LOCATIONS,),
    "common_facilities": (DOMAIN_IXP_FACILITIES, DOMAIN_AS_FACILITIES),
    "port_capacity": (DOMAIN_CAPACITIES,),
    "min_capacity": (DOMAIN_CAPACITIES,),
}

#: ObservedDataset *field* -> the domain a direct read belongs to.
DATASET_FIELD_DOMAINS: dict[str, tuple[str, ...]] = {
    "ixp_prefixes": (DOMAIN_IXP_PREFIXES,),
    "interface_ixp": (DOMAIN_INTERFACES,),
    "interface_asn": (DOMAIN_INTERFACES,),
    "ixp_facilities": (DOMAIN_IXP_FACILITIES,),
    "as_facilities": (DOMAIN_AS_FACILITIES,),
    "facility_locations": (DOMAIN_FACILITY_LOCATIONS,),
    "port_capacities": (DOMAIN_CAPACITIES,),
    "min_physical_capacity": (DOMAIN_CAPACITIES,),
    "traffic_levels": (DOMAIN_ATTRIBUTES,),
    "user_populations": (DOMAIN_ATTRIBUTES,),
    "customer_cone_sizes": (DOMAIN_ATTRIBUTES,),
    "countries": (DOMAIN_ATTRIBUTES,),
}

#: Dataset members that are versioning machinery, not data reads.  Mutators
#: are listed too: *calling* one is not a read.
DATASET_NEUTRAL_MEMBERS: frozenset[str] = frozenset(
    {
        "generation",
        "journal",
        "version_token",
        "domain_token",
        "domain_generation",
        "record_change",
        "bump_generation",
        "set_ixp_prefix",
        "remove_ixp_prefix",
        "set_interface",
        "remove_interface",
        "set_facility_location",
        "add_ixp_facility",
        "remove_ixp_facility",
        "add_as_facility",
        "remove_as_facility",
        "set_port_capacity",
        "set_min_capacity",
        "set_attribute",
    }
)

#: GeoDistanceIndex method -> the dataset domains one call depends on.  The
#: index syncs itself against every geo domain, but each *answer* only
#: depends on the domains listed here — the precise data contract a step
#: inherits by calling the method.
GEO_ACCESSOR_DOMAINS: dict[str, tuple[str, ...]] = {
    "facility_distance_km": (DOMAIN_FACILITY_LOCATIONS,),
    "pair_distance_km": (DOMAIN_FACILITY_LOCATIONS,),
    "ixp_profile": (DOMAIN_IXP_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "as_profile": (DOMAIN_AS_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "feasible_ixp_facilities": (DOMAIN_IXP_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "feasible_as_facilities": (DOMAIN_AS_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "ixp_pair_span_km": (DOMAIN_IXP_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "as_ixp_span_km": (
        DOMAIN_AS_FACILITIES,
        DOMAIN_IXP_FACILITIES,
        DOMAIN_FACILITY_LOCATIONS,
    ),
    "common_facility_span_km": (
        DOMAIN_AS_FACILITIES,
        DOMAIN_IXP_FACILITIES,
        DOMAIN_FACILITY_LOCATIONS,
    ),
    "majority_facility_vote": (DOMAIN_AS_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
}

#: GeoDistanceIndex members that are plumbing, not data reads.
GEO_NEUTRAL_MEMBERS: frozenset[str] = frozenset({"dataset"})

#: InferenceInputs members that are versioned data inputs (their version
#: tokens enter step cache keys, so reading one must be declared).
VERSIONED_INPUT_MEMBERS: frozenset[str] = frozenset(
    {"ping_result", "corpus", "prefix2as"}
)

#: InferenceInputs members exempt from declaration: the dataset (covered by
#: domain declarations), the shared geo index (covered per accessor call)
#: and the world-backed, immutable alias resolver.
NEUTRAL_INPUT_MEMBERS: frozenset[str] = frozenset(
    {"dataset", "geo_index", "alias_resolver"}
)

#: Constructing a CorpusDetectionIndex (repro.traixroute.detector) walks the
#: corpus against the dataset's LANs, interfaces and facilities; the engine's
#: traceroute node inherits these reads wholesale.
CORPUS_DETECTION_DOMAINS: tuple[str, ...] = (
    DOMAIN_IXP_PREFIXES,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
)
CORPUS_DETECTION_INPUTS: tuple[str, ...] = ("corpus", "prefix2as")

#: STEP_GRAPH node name -> the PipelineEngine method implementing it.
STEP_IMPLEMENTATIONS: dict[str, str] = {
    "step1": "_compute_step1",
    "step2": "_compute_step2",
    "step3": "_compute_step3",
    "traceroute": "_compute_traceroute",
    "step4": "_compute_step4",
    "step5": "_compute_step5",
    "baseline": "_compute_baseline",
}
