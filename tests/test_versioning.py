"""Tests for the generation-stamped dataset-versioning layer.

Covers the :mod:`repro.versioning` primitives, the prefix map's rebuild on
change (with a stateful oracle), the journal-emitting dataset mutators
(including the historical size-guard trap: in-place replacement at unchanged
size), the selective eviction of the geodesic-distance index and the engine's
cross-revision step reuse.
"""

from __future__ import annotations

import dataclasses
import ipaddress
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import ExperimentConfig
from repro.core.engine import PipelineEngine
from repro.core.inputs import InferenceInputs
from repro.core.step4_multi_ixp import MultiIXPRouterKind
from repro.core.types import InferenceStep, PeeringClassification
from repro.datasources.merge import (
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_PREFIXES,
    ObservedDataset,
)
from repro.datasources.prefix2as import Prefix2ASMap
from repro.geo.coordinates import GeoPoint, offset_point
from repro.geo.distindex import GEO_ACCESSOR_DOMAINS, GeoDistanceIndex
from repro.measurement.results import TracerouteCorpus
from repro.study import RemotePeeringStudy
from repro.versioning import Change, ChangeJournal, ChangeKind, Versioned
from tests.detection_strategies import (
    ASNS,
    FACILITIES,
    IXPS,
    detection_inputs,
    edits,
    forwarding_path,
    reference_answers,
)
from tests.helpers import (
    build_scenario,
    corpus_copy,
    dataset_copy,
    dual_city_scenario,
    ping_copy,
    prefix2as_copy,
    scenario_configs,
)


def _change(domain: str, key: object = "k") -> Change:
    return Change(ChangeKind.ADD, domain, key)


class TestChangeJournal:
    def test_since_returns_changes_after_generation(self):
        journal = ChangeJournal()
        journal.append(1, _change("a", "k1"))
        journal.append(2, _change("b", "k2"))
        journal.append(3, _change("a", "k3"))
        assert [c.key for c in journal.since(0)] == ["k1", "k2", "k3"]
        assert [c.key for c in journal.since(1)] == ["k2", "k3"]
        assert journal.since(3) == []

    def test_domain_filter(self):
        journal = ChangeJournal()
        journal.append(1, _change("a", "k1"))
        journal.append(2, _change("b", "k2"))
        assert [c.key for c in journal.since(0, domains=("a",))] == ["k1"]
        assert journal.since(0, domains=("missing",)) == []

    def test_truncation_raises_floor(self):
        journal = ChangeJournal(bound=3)
        for generation in range(1, 6):
            journal.append(generation, _change("a", generation))
        # Generations 1 and 2 were dropped: replay from before them is gone.
        assert journal.floor == 2
        assert journal.since(1) is None
        assert [c.key for c in journal.since(2)] == [3, 4, 5]

    def test_opaque_mark_poisons_replay(self):
        journal = ChangeJournal()
        journal.append(1, _change("a"))
        journal.mark_opaque(2)
        assert journal.since(1) is None
        assert journal.since(2) == []


class TestVersionedMixin:
    def test_record_change_bumps_global_and_domain_generations(self):
        container = Versioned()
        assert container.generation == 0
        container.record_change(_change("a"))
        container.record_change(_change("b"))
        assert container.generation == 2
        assert container.domain_generation("a") == 1
        assert container.domain_generation("b") == 2
        assert container.domain_generation("untouched") == 0

    def test_opaque_bump_counts_against_every_domain(self):
        container = Versioned()
        container.record_change(_change("a"))
        container.bump_generation()
        assert container.generation == 2
        assert container.domain_generation("a") == 2
        assert container.domain_generation("never-seen") == 2
        assert container.journal.since(1) is None


class TestPrefix2ASIncremental:
    def _filled(self) -> Prefix2ASMap:
        mapping = Prefix2ASMap()
        mapping.add("10.0.0.0/8", 65000)
        mapping.add("10.1.0.0/16", 65001)
        mapping.add("192.0.2.0/24", 65002)
        return mapping

    def test_post_build_add_is_visible_after_a_rebuild(self):
        mapping = self._filled()
        assert mapping.lookup("10.1.0.1") == 65001
        assert mapping.full_rebuilds == 1
        mapping.add("10.1.2.0/24", 65009)
        assert mapping.lookup("10.1.2.1") == 65009
        assert mapping.lookup("10.1.3.1") == 65001
        assert mapping.full_rebuilds == 2, "one rebuild serves every lookup after the add"

    def test_generation_bumps_on_real_changes_only(self):
        mapping = self._filled()
        generation = mapping.generation
        mapping.add("10.1.0.0/16", 65001)  # idempotent re-registration
        assert mapping.generation == generation
        mapping.add("10.1.0.0/16", 64999)
        assert mapping.generation == generation + 1

    def test_removal_forces_rebuild(self):
        mapping = self._filled()
        assert mapping.lookup("10.1.0.1") == 65001
        assert mapping.remove("10.1.0.0/16")
        assert mapping.lookup("10.1.0.1") == 65000, "range must fall to the outer prefix"
        assert mapping.full_rebuilds == 2
        assert not mapping.remove("10.1.0.0/16")

    def test_version_token_tracks_generation(self):
        mapping = self._filled()
        token = mapping.version_token()
        mapping.add("172.16.0.0/12", 65100)
        assert mapping.version_token() != token


#: Nested IPv4 and IPv6 prefixes: default routes, host routes and the top of
#: each address space.
_NESTED_PREFIXES = (
    "0.0.0.0/0",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.1.2.128/25",
    "10.1.2.7/32",
    "10.1.3.0/32",
    "172.16.0.0/12",
    "255.255.255.0/24",
    "255.255.255.255/32",
    "::/0",
    "2001:db8::/32",
    "2001:db8:1::/48",
    "2001:db8:1::/64",
    "2001:db8:1::1/128",
    "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ff00/120",
    "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
)
#: Seventy sibling /24s inside 172.16.0.0/12, so one bulk add is a large
#: batch of edits between two builds.
_SIBLING_PREFIXES = tuple(f"172.16.{index}.0/24" for index in range(70))
_PREFIX_POOL = _NESTED_PREFIXES + _SIBLING_PREFIXES
#: The ASN extremes: a lookup that tests its answer for truth loses AS 0.
_POOL_ASNS = (0, 1, 64512, 2**32 - 1)


def _edge_probes() -> dict[str, list[str]]:
    """Each pool prefix's first and last address and their outer neighbours,
    mapped to the pool prefixes containing it, longest first."""
    networks = [ipaddress.ip_network(prefix) for prefix in _PREFIX_POOL]
    addresses = set()
    for network in networks:
        first, last = int(network.network_address), int(network.broadcast_address)
        for numeric in (first - 1, first, last, last + 1):
            if 0 <= numeric < 2**network.max_prefixlen:
                addresses.add(type(network.network_address)(numeric))
    longest_first = sorted(networks, key=lambda network: -network.prefixlen)
    return {
        str(address): [str(network) for network in longest_first if address in network]
        for address in addresses
    }


_EDGE_PROBES = _edge_probes()


class PrefixMapMachine(RuleBasedStateMachine):
    """One ``Prefix2ASMap`` under journalled add, replace and remove, checked
    after every step against a model dict and a cold map."""

    def __init__(self) -> None:
        super().__init__()
        self.mapping = Prefix2ASMap()
        self.model: dict[str, int] = {}

    @rule(prefix=st.sampled_from(_PREFIX_POOL), asn=st.sampled_from(_POOL_ASNS))
    def add(self, prefix, asn):
        self.mapping.add(prefix, asn)
        self.model[prefix] = asn

    @rule(prefix=st.sampled_from(_PREFIX_POOL))
    def remove(self, prefix):
        assert self.mapping.remove(prefix) == (prefix in self.model)
        self.model.pop(prefix, None)

    @rule(first=st.integers(0, len(_POOL_ASNS) - 1), stride=st.integers(0, 1))
    def bulk_add(self, first, stride):
        """Every sibling at once; stride 0 gives adjacent siblings one ASN."""
        for offset, prefix in enumerate(_SIBLING_PREFIXES):
            asn = _POOL_ASNS[(first + stride * offset) % len(_POOL_ASNS)]
            self.mapping.add(prefix, asn)
            self.model[prefix] = asn

    @rule(prefix=st.sampled_from(_PREFIX_POOL), offset=st.integers(0, 2**16))
    def probe(self, prefix, offset):
        """An address inside a pool prefix, against a containment scan."""
        network = ipaddress.ip_network(prefix)
        address = network[offset % network.num_addresses]
        covering = [key for key in self.model if address in ipaddress.ip_network(key)]
        longest = max(covering, key=lambda key: ipaddress.ip_network(key).prefixlen, default=None)
        expected = None if longest is None else self.model[longest]
        assert self.mapping.lookup(str(address)) == expected

    @invariant()
    def answers_match_brute_force_and_a_cold_map(self):
        assert self.mapping._prefixes == self.model
        cold = Prefix2ASMap()
        for prefix, asn in self.model.items():
            cold.add(prefix, asn)
        for address, covering in _EDGE_PROBES.items():
            expected = next((self.model[key] for key in covering if key in self.model), None)
            assert self.mapping.lookup(address) == expected, address
            assert cold.lookup(address) == expected, address


TestPrefixMapOracle = PrefixMapMachine.TestCase
TestPrefixMapOracle.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class TestDatasetMutators:
    def test_prefix_remap_at_unchanged_size_is_visible_without_invalidate(self):
        """The historical size-guard trap, caught by generation stamps."""
        dataset = ObservedDataset(
            ixp_prefixes={"185.1.0.0/24": "ixp-a", "185.2.0.0/24": "ixp-b"})
        assert dataset.ixp_for_ip("185.1.0.9") == "ixp-a"
        changed = dataset.set_ixp_prefix("185.1.0.0/24", "ixp-b")
        assert changed
        # Same dict size, no manual reset — and yet:
        assert dataset.ixp_for_ip("185.1.0.9") == "ixp-b"

    def test_prefix_removal_rebuilds_lan_view(self):
        dataset = ObservedDataset(
            ixp_prefixes={"185.1.0.0/24": "ixp-a", "185.1.0.0/16": "ixp-wide"})
        assert dataset.ixp_for_ip("185.1.0.9") == "ixp-a"
        dataset.remove_ixp_prefix("185.1.0.0/24")
        assert dataset.ixp_for_ip("185.1.0.9") == "ixp-wide"

    def test_interface_reassignment_at_unchanged_size_is_visible(self):
        dataset = ObservedDataset()
        dataset.set_interface("185.1.0.1", "ixp-a", 65001)
        assert dataset.interfaces_of_ixp("ixp-a") == {"185.1.0.1": 65001}
        assert dataset.members_of_ixp("ixp-a") == {65001}
        dataset.set_interface("185.1.0.1", "ixp-a", 65999)
        assert dataset.interfaces_of_ixp("ixp-a") == {"185.1.0.1": 65999}
        assert dataset.members_of_ixp("ixp-a") == {65999}

    def test_lan_prefix_spellings_share_one_key(self):
        dataset = ObservedDataset()
        assert dataset.set_ixp_prefix("2001:DB8::/32", "ixp-a")
        assert dataset.set_ixp_prefix("2001:db8::/32", "ixp-b")
        assert dict(dataset.ixp_prefixes) == {"2001:db8::/32": "ixp-b"}
        assert [change.kind for change in dataset.journal.since(0)] == [
            ChangeKind.ADD, ChangeKind.REPLACE]
        assert dataset.ixp_for_ip("2001:db8::1") == "ixp-b"

    def test_lan_prefix_removal_accepts_any_spelling(self):
        dataset = ObservedDataset()
        dataset.set_ixp_prefix("2001:DB8::/32", "ixp-a")
        assert dataset.ixp_for_ip("2001:db8::1") == "ixp-a"
        assert dataset.remove_ixp_prefix("2001:db8::/32")
        assert dict(dataset.ixp_prefixes) == {}
        assert dataset.ixp_for_ip("2001:db8::1") is None

    def test_lan_prefix_with_host_bits_is_rejected_before_any_write(self):
        from repro.exceptions import DataSourceError

        with pytest.raises(DataSourceError):
            ObservedDataset(ixp_prefixes={"10.0.0.1/8": "ixp-a"})
        for built in (False, True):
            dataset = ObservedDataset(ixp_prefixes={"10.0.0.0/8": "ixp-a"})
            if built:
                assert dataset.ixp_for_ip("10.0.0.1") == "ixp-a"
            generation = dataset.generation
            with pytest.raises(DataSourceError):
                dataset.set_ixp_prefix("10.0.0.1/8", "ixp-b")
            with pytest.raises(DataSourceError):
                dataset.remove_ixp_prefix("10.0.0.1/8")
            assert dataset.generation == generation
            assert dataset.journal.since(0) == []
            assert dict(dataset.ixp_prefixes) == {"10.0.0.0/8": "ixp-a"}
            assert dataset.ixp_for_ip("10.0.0.1") == "ixp-a"

    def test_mutators_are_idempotent_without_generation_churn(self):
        dataset = ObservedDataset()
        assert dataset.set_interface("185.1.0.1", "ixp-a", 65001)
        assert dataset.set_ixp_prefix("185.1.0.0/24", "ixp-a")
        assert dataset.add_as_facility(65001, "fac-1")
        generation = dataset.generation
        # Re-applying the same records (an idempotent feed refresh) must not
        # bump anything — downstream caches stay warm.
        assert not dataset.set_interface("185.1.0.1", "ixp-a", 65001)
        assert not dataset.set_ixp_prefix("185.1.0.0/24", "ixp-a")
        assert not dataset.add_as_facility(65001, "fac-1")
        assert dataset.generation == generation

    def test_unknown_domains_and_attributes_fail_loudly(self):
        from repro.exceptions import DataSourceError

        dataset = ObservedDataset()
        with pytest.raises(DataSourceError):
            dataset.domain_token("interfacse")  # a declaration typo
        with pytest.raises(DataSourceError):
            dataset.set_attribute("facility_locations", "fac-1", None)
        assert dataset.set_attribute("countries", 65001, "NL")

    def test_domain_tokens_move_independently(self):
        dataset = ObservedDataset()
        dataset.set_interface("185.1.0.1", "ixp-a", 65001)
        prefix_token = dataset.domain_token(DOMAIN_IXP_PREFIXES)
        interface_token = dataset.domain_token(DOMAIN_INTERFACES)
        location_token = dataset.domain_token(DOMAIN_FACILITY_LOCATIONS)
        dataset.set_interface("185.1.0.2", "ixp-a", 65002)
        assert dataset.domain_token(DOMAIN_INTERFACES) != interface_token
        assert dataset.domain_token(DOMAIN_IXP_PREFIXES) == prefix_token
        assert dataset.domain_token(DOMAIN_FACILITY_LOCATIONS) == location_token


class TestOneWritePath:
    """Public collections refuse writes: the mutators are the only writers.

    Each test tries one write shape and checks that the container's version
    (its generation, or a report's key count) and the answers of its derived
    views are unchanged afterwards.
    """

    IXP = "ixp-ams-test"

    def _dataset(self):
        dataset = dual_city_scenario().dataset
        index = GeoDistanceIndex(dataset)
        return dataset, index, self._answers(dataset, index)

    def _answers(self, dataset, index):
        origin = dataset.facility_location("fac-001")
        return (
            dataset.generation,
            dataset.interfaces_of_ixp(self.IXP),
            dataset.members_of_ixp(self.IXP),
            dataset.ixp_for_ip("185.1.0.2"),
            dataset.ixp_ids(),
            dataset.port_capacity(self.IXP, 65003),
            index.ixp_profile(origin, self.IXP),
            index.as_profile(origin, 65002),
            index.majority_facility_vote(frozenset({65001, 65002, 65003})),
        )

    def test_subscript_assignment(self):
        dataset, index, before = self._dataset()
        with pytest.raises(TypeError):
            dataset.interface_asn["185.1.0.2"] = 64000
        assert self._answers(dataset, index) == before

    def test_subscript_assignment_through_an_alias(self):
        dataset, index, before = self._dataset()
        backing = dataset.ixp_facilities
        with pytest.raises(TypeError):
            backing[self.IXP] = frozenset()
        assert self._answers(dataset, index) == before

    def test_subscript_deletion(self):
        dataset, index, before = self._dataset()
        with pytest.raises(TypeError):
            del dataset.port_capacities[(self.IXP, 65003)]
        assert self._answers(dataset, index) == before

    def test_clear(self):
        dataset, index, before = self._dataset()
        with pytest.raises(AttributeError):
            dataset.as_facilities.clear()
        with pytest.raises(AttributeError):
            dataset.interface_asn.clear()
        assert self._answers(dataset, index) == before

    def test_wholesale_rebind(self):
        dataset, index, before = self._dataset()
        with pytest.raises(AttributeError):
            dataset.ixp_prefixes = {"185.1.0.0/24": "ixp-elsewhere"}
        with pytest.raises(AttributeError):
            dataset.customer_cone_sizes = {}
        assert self._answers(dataset, index) == before

    def test_add_to_a_footprint(self):
        dataset, index, before = self._dataset()
        with pytest.raises(AttributeError):
            dataset.as_facilities[65002].add("fac-001")
        with pytest.raises(AttributeError):
            dataset.ixp_facilities[self.IXP].add("fac-002")
        assert self._answers(dataset, index) == before

    def test_append_to_paths_or_series(self):
        scenario = dual_city_scenario()
        vp = scenario.add_vantage_point(
            scenario.world.ixps[self.IXP], scenario.world.facilities["fac-001"])
        scenario.add_route_server_series(vp, [0.3])
        scenario.add_ping_series(vp, "185.1.0.2", [8.2, 8.6])
        ping = scenario.ping_result
        corpus = TracerouteCorpus(paths=[forwarding_path(["10.1.0.9", "185.1.0.2"])])

        def answers():
            return (ping.generation, ping.series_for_ixp(self.IXP), ping.series,
                    corpus.generation, corpus.paths, corpus.paths_from(65001))

        before = answers()
        with pytest.raises(AttributeError):
            corpus.paths.append(forwarding_path(["10.2.0.9"]))
        with pytest.raises(AttributeError):
            ping.series.append(ping.series[0])
        with pytest.raises(AttributeError):
            ping.route_server_series.append(ping.route_server_series[0])
        with pytest.raises(TypeError):
            ping.vantage_points["vp-x"] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            ping.series[0].samples = ()
        assert answers() == before

    def test_report_results_clear(self, tiny_study):
        outcome = tiny_study.outcome
        report, summary = outcome.report, outcome.rtt_summary

        def answers():
            return (len(report), report.results_for_ixp(outcome.ixp_ids[0]),
                    len(summary.observations),
                    summary.observations_for_ixp(outcome.ixp_ids[0]))

        before = answers()
        with pytest.raises(AttributeError):
            report.results.clear()
        with pytest.raises(TypeError):
            summary.observations[("ixp", "ip")] = None
        assert answers() == before


class TestMergeJournal:
    def test_fresh_merge_journals_only_additions(self, tiny_world):
        from repro.config import DataSourceNoiseConfig
        from repro.datasources.hurricane import HurricaneElectricSource
        from repro.datasources.inflect import InflectSource
        from repro.datasources.ixp_websites import IXPWebsiteSource
        from repro.datasources.merge import DatasetMerger
        from repro.datasources.pch import PacketClearingHouseSource
        from repro.datasources.peeringdb import PeeringDBSource

        # Noise creates conflicting records (e.g. PDB coordinates corrected
        # by Inflect), so this pins that the merge resolves each key *before*
        # writing: a lower-preference value that reached the mutators would
        # be replaced later and journal a REPLACE.
        noise = DataSourceNoiseConfig()
        snapshots = [
            source(tiny_world, noise).snapshot()
            for source in (IXPWebsiteSource, HurricaneElectricSource, PeeringDBSource,
                           PacketClearingHouseSource, InflectSource)
        ]
        dataset, _ = DatasetMerger(snapshots).merge()
        changes = dataset.journal.since(0)
        assert changes is not None
        assert len(changes) == 1426
        assert {change.kind for change in changes} == {ChangeKind.ADD}


class TestGeoSelectiveEviction:
    def _scenario(self):
        scenario = build_scenario()
        ams1 = scenario.add_facility("Amsterdam")
        ams2 = scenario.add_facility("Amsterdam", offset_km=6.0)
        fra = scenario.add_facility("Frankfurt")
        ixp = scenario.add_ixp("AMS", [ams1, ams2], prefix="185.1.0.0/24")
        scenario.add_as(65001, ams1)
        scenario.add_as(65002, fra)
        return scenario, ams1, ams2, fra, ixp

    def test_facility_move_evicts_only_touching_memos(self):
        scenario, ams1, ams2, fra, ixp = self._scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        origin = ams1.location
        index.facility_distance_km(origin, ams2.facility_id)
        index.facility_distance_km(origin, fra.facility_id)
        index.ixp_profile(origin, ixp.ixp_id)
        index.as_profile(origin, 65001)
        index.as_profile(origin, 65002)
        index.as_ixp_span_km(65001, ixp.ixp_id)
        index.as_ixp_span_km(65002, ixp.ixp_id)
        vote = index.majority_facility_vote(frozenset({65001, 65002}))

        moved = offset_point(fra.location, 40.0, 90.0)
        assert dataset.set_facility_location(fra.facility_id, moved)
        # Lazily synced on the next lookup: untouched memos survive...
        assert index.facility_distance_km(origin, ams2.facility_id) is not None
        assert (origin, ams2.facility_id) in index._point_km
        # ...while everything touching the moved facility was evicted.
        assert (origin, fra.facility_id) not in index._point_km
        assert (origin, ixp.ixp_id) in index._ixp_profiles
        assert (origin, 65001) in index._as_profiles
        assert (origin, 65002) not in index._as_profiles
        assert (65001, ixp.ixp_id) in index._as_ixp_spans
        assert (65002, ixp.ixp_id) not in index._as_ixp_spans
        # ...votes depend only on colocation sets, never geometry.
        assert index.majority_facility_vote(frozenset({65001, 65002})) == vote
        assert index.incremental_evictions == 1
        assert index.wholesale_invalidations == 0
        # Recomputed values reflect the move, bit-identical to a fresh index.
        fresh = GeoDistanceIndex(dataset)
        assert index.facility_distance_km(origin, fra.facility_id) == (
            fresh.facility_distance_km(origin, fra.facility_id))
        assert index.as_ixp_span_km(65002, ixp.ixp_id) == (
            fresh.as_ixp_span_km(65002, ixp.ixp_id))

    def test_colocation_change_evicts_footprint_memos_and_votes(self):
        scenario, ams1, ams2, fra, ixp = self._scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        origin = ams1.location
        index.as_profile(origin, 65001)
        index.as_profile(origin, 65002)
        index.majority_facility_vote(frozenset({65001, 65002}))
        assert dataset.add_as_facility(65001, fra.facility_id)
        index.facility_distance_km(origin, ams1.facility_id)  # trigger sync
        assert (origin, 65001) not in index._as_profiles
        assert (origin, 65002) in index._as_profiles
        assert frozenset({65001, 65002}) not in index._majority_votes
        fresh = GeoDistanceIndex(dataset)
        assert index.as_profile(origin, 65001) == fresh.as_profile(origin, 65001)
        assert index.majority_facility_vote(frozenset({65001, 65002})) == (
            fresh.majority_facility_vote(frozenset({65001, 65002})))

    def test_vote_and_common_span_sync_even_as_first_lookup(self):
        """Every memoised accessor must replay the journal, not just some.

        In an ablation run (Steps 3/4 off) the Step 5 vote can be the first
        geo call after a revision; it must not serve the stale memo.
        """
        scenario, ams1, ams2, fra, ixp = self._scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        stale_vote = index.majority_facility_vote(frozenset({65001}))
        assert stale_vote == {ams1.facility_id}
        index.common_facility_span_km(65001, ixp.ixp_id)
        assert dataset.add_as_facility(65001, ams2.facility_id)
        # No other accessor runs first: the vote itself must sync.
        assert index.majority_facility_vote(frozenset({65001})) == {
            ams1.facility_id, ams2.facility_id}
        fresh = GeoDistanceIndex(dataset)
        assert index.common_facility_span_km(65001, ixp.ixp_id) == (
            fresh.common_facility_span_km(65001, ixp.ixp_id))

    def test_opaque_bump_invalidates_wholesale(self):
        scenario, ams1, ams2, fra, ixp = self._scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        index.facility_distance_km(ams1.location, fra.facility_id)
        dataset.bump_generation()
        index.facility_distance_km(ams1.location, ams2.facility_id)
        assert index.wholesale_invalidations == 1
        assert (ams1.location, fra.facility_id) not in index._point_km

    def test_oversized_batch_invalidates_wholesale(self):
        scenario, ams1, ams2, fra, ixp = self._scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        index.facility_distance_km(ams1.location, ams2.facility_id)
        for step in range(70):
            dataset.set_facility_location(
                fra.facility_id, offset_point(fra.location, 1.0 + step, 10.0))
        index.facility_distance_km(ams1.location, fra.facility_id)
        assert index.wholesale_invalidations == 1


#: Facility coordinates the geometry oracle moves facilities between.
GEO_POINTS = [
    GeoPoint(52.37, 4.90),
    GeoPoint(52.30, 4.94),
    GeoPoint(50.11, 8.68),
    GeoPoint(48.86, 2.35),
]
#: FACILITIES plus two more; "fac-4" starts without coordinates.
GEO_FACILITIES = [*FACILITIES, "fac-3", "fac-4"]
GEO_ORIGINS = [GeoPoint(52.0, 5.0), GeoPoint(50.0, 8.0)]
GEO_RINGS = [(0.0, 300.0), (200.0, 1_000.0)]
#: Arguments for every GeoDistanceIndex accessor the contracts tables name.
GEO_ARGUMENTS = {
    "facility_distance_km": list(product(GEO_ORIGINS, GEO_FACILITIES)),
    "pair_distance_km": list(product(GEO_FACILITIES, GEO_FACILITIES)),
    "ixp_profile": list(product(GEO_ORIGINS, IXPS)),
    "as_profile": list(product(GEO_ORIGINS, ASNS)),
    "feasible_ixp_facilities": [
        (origin, ixp_id, *ring) for origin, ixp_id, ring in product(GEO_ORIGINS, IXPS, GEO_RINGS)
    ],
    "feasible_as_facilities": [
        (origin, asn, *ring) for origin, asn, ring in product(GEO_ORIGINS, ASNS, GEO_RINGS)
    ],
    "ixp_pair_span_km": list(product(IXPS, IXPS)),
    "as_ixp_span_km": list(product(ASNS, IXPS)),
    "common_facility_span_km": list(product(ASNS, IXPS)),
    "majority_facility_vote": [
        (frozenset(voters),) for size in (1, 2, 3) for voters in combinations(ASNS, size)
    ],
}

#: One journalled geometry edit: a dataset mutator name and its arguments.
geo_edits = st.one_of(
    st.tuples(
        st.just("set_facility_location"),
        st.tuples(st.sampled_from(GEO_FACILITIES), st.sampled_from(GEO_POINTS)),
    ),
    *(
        st.tuples(
            st.just(name),
            st.tuples(st.sampled_from(owners), st.sampled_from(GEO_FACILITIES)),
        )
        for name, owners in (
            ("add_ixp_facility", IXPS),
            ("remove_ixp_facility", IXPS),
            ("add_as_facility", ASNS),
            ("remove_as_facility", ASNS),
        )
    ),
)


def _geo_answers(index: GeoDistanceIndex) -> dict[str, list[object]]:
    return {
        name: [getattr(index, name)(*args) for args in GEO_ARGUMENTS[name]]
        for name in GEO_ACCESSOR_DOMAINS
    }


class TestGeoJournalOracle:
    @given(
        setup=st.lists(geo_edits, max_size=12),
        steps=st.lists(geo_edits, min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_selective_eviction_matches_a_fresh_index(self, setup, steps):
        """After every journalled edit, every memoised answer equals a
        fresh index's, through selective eviction alone."""
        assert set(GEO_ARGUMENTS) == set(GEO_ACCESSOR_DOMAINS)
        dataset = ObservedDataset(facility_locations=dict(zip(GEO_FACILITIES, GEO_POINTS[:3])))
        for name, args in setup:
            getattr(dataset, name)(*args)
        index = GeoDistanceIndex(dataset)
        _geo_answers(index)
        applied = 0
        for name, args in steps:
            applied += getattr(dataset, name)(*args)
            assert _geo_answers(index) == _geo_answers(GeoDistanceIndex(dataset))
            assert index.incremental_evictions == applied
            assert index.wholesale_invalidations == 0


class TestCorpusDetectionIndex:
    def _fixture(self):
        from repro.measurement.results import TracerouteCorpus
        from repro.routing.forwarding import ForwardingHop, ForwardingPath
        from repro.traixroute.detector import CorpusDetectionIndex

        dataset = ObservedDataset()
        dataset.set_ixp_prefix("185.1.0.0/24", "ixp-a")
        dataset.set_interface("185.1.0.1", "ixp-a", 65001)
        dataset.set_interface("185.1.0.2", "ixp-a", 65002)
        prefix2as = Prefix2ASMap()
        prefix2as.add("10.1.0.0/16", 65001)
        prefix2as.add("10.2.0.0/16", 65002)
        prefix2as.add("10.3.0.0/16", 65003)

        def hop(ip):
            return ForwardingHop(ip=ip, asn=None, rtt_ms=1.0)

        crossing_path = ForwardingPath(
            source_asn=65001, destination_asn=65002, destination_ip="10.2.0.9",
            hops=[hop("10.1.0.9"), hop("185.1.0.2"), hop("10.2.0.9")])
        plain_path = ForwardingPath(
            source_asn=65001, destination_asn=65003, destination_ip="10.3.0.9",
            hops=[hop("10.1.0.9"), hop("10.3.0.9")])
        corpus = TracerouteCorpus(paths=[crossing_path, plain_path])
        index = CorpusDetectionIndex(dataset, prefix2as, corpus)
        return dataset, prefix2as, corpus, index

    def _reference(self, dataset, prefix2as, corpus):
        from repro.traixroute.detector import CrossingDetector

        detector = CrossingDetector(dataset, prefix2as)
        return (detector.detect_corpus(corpus),
                detector.private_adjacencies_corpus(corpus))

    def test_initial_results_match_a_fresh_detector(self):
        dataset, prefix2as, corpus, index = self._fixture()
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        crossings, _ = index.results()
        assert [c.ixp_id for c in crossings] == ["ixp-a"]
        assert index.full_scans == 1

    def test_prefix_remap_redetects_only_touched_paths(self):
        dataset, prefix2as, corpus, index = self._fixture()
        index.results()
        # Re-mapping the entry prefix makes entry AS == far AS: the crossing
        # must disappear, via selective re-detection, not a full re-scan.
        prefix2as.add("10.1.0.0/16", 65002)
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        crossings, _ = index.results()
        assert crossings == []
        assert index.full_scans == 1
        assert index.paths_redetected == 2  # both paths contain 10.1.0.9

    def test_untouched_prefix_remap_redetects_nothing(self):
        dataset, prefix2as, corpus, index = self._fixture()
        index.results()
        prefix2as.add("172.16.0.0/12", 65009)
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        assert index.paths_redetected == 0
        assert index.full_scans == 1

    def test_lan_prefix_remap_is_selective_too(self):
        dataset, prefix2as, corpus, index = self._fixture()
        before, _ = index.results()
        assert before
        dataset.set_ixp_prefix("185.1.0.0/24", "ixp-gone")
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        crossings, _ = index.results()
        assert crossings == []  # rule 3: members of "ixp-gone" are unknown
        assert index.full_scans == 1

    def test_colocation_change_refreshes_rule3_membership(self):
        """A journalled ixp_facilities change can make an IXP known."""
        from repro.measurement.results import TracerouteCorpus
        from repro.routing.forwarding import ForwardingHop, ForwardingPath
        from repro.traixroute.detector import CorpusDetectionIndex

        dataset = ObservedDataset()
        # ixp-b is referenced by interfaces only: it is outside ixp_ids()
        # (no LAN prefix, no facility), so rule 3 suppresses its crossings.
        dataset.set_interface("185.9.0.1", "ixp-b", 65001)
        dataset.set_interface("185.9.0.2", "ixp-b", 65002)
        prefix2as = Prefix2ASMap()
        prefix2as.add("10.1.0.0/16", 65001)
        prefix2as.add("10.2.0.0/16", 65002)

        def hop(ip):
            return ForwardingHop(ip=ip, asn=None, rtt_ms=1.0)

        corpus = TracerouteCorpus(paths=[ForwardingPath(
            source_asn=65001, destination_asn=65002, destination_ip="10.2.0.9",
            hops=[hop("10.1.0.9"), hop("185.9.0.2"), hop("10.2.0.9")])])
        index = CorpusDetectionIndex(dataset, prefix2as, corpus)
        assert index.results()[0] == []
        # The colocation record brings ixp-b into ixp_ids(): the crossing
        # must appear without a full re-scan, exactly as a fresh detector
        # would report it.
        assert dataset.add_ixp_facility("ixp-b", "fac-1")
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        crossings, _ = index.results()
        assert [c.ixp_id for c in crossings] == ["ixp-b"]
        assert index.full_scans == 1
        assert index.paths_redetected == 1

    def test_interface_change_rebuilds(self):
        """Re-owning a LAN hop re-detects only the path holding an address
        on that IXP's LAN, without a full scan."""
        dataset, prefix2as, corpus, index = self._fixture()
        index.results()
        # 185.1.0.2 changes its answers and ixp-a its member set; the plain
        # path holds no ixp-a address.
        dataset.set_interface("185.1.0.2", "ixp-a", 65003)
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        assert index.full_scans == 1
        assert index.paths_redetected == 1

    def test_corpus_growth_detects_only_appended_paths(self):
        from repro.routing.forwarding import ForwardingHop, ForwardingPath

        dataset, prefix2as, corpus, index = self._fixture()
        index.results()

        def hop(ip):
            return ForwardingHop(ip=ip, asn=None, rtt_ms=1.0)

        corpus.extend([ForwardingPath(
            source_asn=65002, destination_asn=65001, destination_ip="10.1.0.9",
            hops=[hop("10.2.0.9"), hop("185.1.0.1"), hop("10.1.0.9")])])
        assert index.results() == self._reference(dataset, prefix2as, corpus)
        crossings, _ = index.results()
        assert len(crossings) == 2
        assert index.full_scans == 1
        assert index.paths_redetected == 0

    @given(inputs=detection_inputs(), steps=st.lists(edits, min_size=3, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_journalled_edits_match_a_fresh_index(self, inputs, steps):
        """After every edit the index equals a fresh one without a full scan,
        and it re-detected exactly the stored paths holding an address whose
        answers changed or whose LAN owner's rule-3 member set changed."""
        from repro.traixroute.detector import CorpusDetectionIndex, CrossingDetector

        dataset, prefix2as, corpus = inputs
        index = CorpusDetectionIndex(dataset, prefix2as, corpus)
        index.results()
        for name, args in steps:
            stored = corpus.paths
            ips = {hop.ip for path in stored for hop in path.hops} - {None}
            before = reference_answers(dataset, prefix2as, ips)
            members = CrossingDetector(dataset, prefix2as)._members
            redetected = index.paths_redetected
            _apply_edit(dataset, prefix2as, corpus, name, args)

            fresh = CorpusDetectionIndex(dataset, prefix2as, corpus)
            assert index.results() == fresh.results()
            assert index.full_scans == 1
            after = reference_answers(dataset, prefix2as, ips)
            now = CrossingDetector(dataset, prefix2as)._members
            regrouped = {
                ixp_id
                for ixp_id in members.keys() | now.keys()
                if members.get(ixp_id, set()) != now.get(ixp_id, set())
            }
            affected = {
                ip for ip in ips if before[ip] != after[ip] or after[ip][0] in regrouped
            }
            holding = sum(any(hop.ip in affected for hop in path.hops) for path in stored)
            assert index.paths_redetected == redetected + holding


def _apply_edit(dataset, prefix2as, corpus, name, args):
    """Apply one drawn edit through its journal-emitting mutator."""
    if name == "prefix_add":
        prefix2as.add(*args)
    elif name == "prefix_remove":
        prefix2as.remove(*args)
    elif name == "extend":
        corpus.extend([forwarding_path(hops) for hops in args[0]])
    else:
        getattr(dataset, name)(*args)


@pytest.fixture(scope="module")
def revision_study() -> RemotePeeringStudy:
    """A private tiny study this module may mutate across its tests."""
    study = RemotePeeringStudy(ExperimentConfig.tiny(seed=21))
    study.outcome  # materialise the pipeline through the shared engine
    return study


def _stats_snapshot(engine: PipelineEngine) -> dict[str, tuple[int, int]]:
    return {
        label: (stats.hits, stats.misses)
        for label, stats in engine.cache.stats.items()
    }


def _engine_over(study, dataset, prefix2as, ping_result=None, corpus=None) -> PipelineEngine:
    """An engine with a fresh geo index; the study's campaigns stand in for
    a ping result or corpus not given."""
    geo_index = GeoDistanceIndex(dataset)
    inputs = InferenceInputs(
        dataset=dataset,
        ping_result=study.ping_result if ping_result is None else ping_result,
        corpus=study.traceroute_corpus if corpus is None else corpus,
        prefix2as=prefix2as,
        alias_resolver=study.alias_resolver,
        geo_index=geo_index,
    )
    return PipelineEngine(inputs, delay_model=study.delay_model, geo_index=geo_index)


def _fresh_outcome(study: RemotePeeringStudy):
    """Rebuild everything from the current dataset state (the reference)."""
    engine = _engine_over(study, study.dataset, prefix2as_copy(study.prefix2as))
    return engine.run(study.config.inference, study.studied_ixp_ids)


class TestEngineCrossRevisionReuse:
    def test_facility_move_reuses_geometry_free_steps(self, revision_study):
        study = revision_study
        engine = study.engine
        facility_id = sorted(study.dataset.facility_locations)[0]
        moved = offset_point(
            study.dataset.facility_locations[facility_id], 35.0, 120.0)
        assert study.dataset.set_facility_location(facility_id, moved)

        before = _stats_snapshot(engine)
        outcome = engine.run(study.config.inference, study.studied_ixp_ids)
        after = _stats_snapshot(engine)

        for reused in ("step1", "step2", "traceroute", "baseline"):
            assert after[reused][1] == before[reused][1], (
                f"{reused} must replay from cache across a facility move")
            assert after[reused][0] > before[reused][0]
        for recomputed in ("step3", "step4", "step5"):
            assert after[recomputed][1] > before[recomputed][1], (
                f"{recomputed} must recompute after a facility move")

        fresh = _fresh_outcome(study)
        assert outcome.report == fresh.report
        assert outcome.baseline_report == fresh.baseline_report

    def test_prefix2as_remap_reuses_the_whole_per_ixp_layer(self, revision_study):
        study = revision_study
        engine = study.engine
        prefixes = sorted(study.prefix2as._prefixes)
        victims = prefixes[:: max(1, len(prefixes) // 3)][:3]
        for prefix in victims:
            study.prefix2as.add(prefix, study.prefix2as._prefixes[prefix] + 1)

        before = _stats_snapshot(engine)
        outcome = engine.run(study.config.inference, study.studied_ixp_ids)
        after = _stats_snapshot(engine)

        for reused in ("step1", "step2", "step3", "baseline"):
            assert after[reused][1] == before[reused][1], (
                f"{reused} must replay from cache across a prefix2as re-map")
        for recomputed in ("traceroute", "step4", "step5"):
            assert after[recomputed][1] > before[recomputed][1], (
                f"{recomputed} must recompute after a prefix2as re-map")

        fresh = _fresh_outcome(study)
        assert outcome.report == fresh.report
        assert outcome.baseline_report == fresh.baseline_report

    def test_config_and_revision_staleness_compose(self, revision_study):
        study = revision_study
        engine = study.engine
        config = replace(study.config.inference, enable_step5_private_links=False)
        before = _stats_snapshot(engine)
        engine.run(config, study.studied_ixp_ids)
        after = _stats_snapshot(engine)
        # No data changed: only the step5 re-key misses; everything else hits.
        for reused in ("step1", "step2", "step3", "step4", "traceroute", "baseline"):
            assert after[reused][1] == before[reused][1]
        assert after["step5"][1] == before["step5"][1] + 1


def _assert_same_outcome(outcome, cold) -> None:
    assert outcome.report == cold.report
    assert list(outcome.report.results) == list(cold.report.results)
    assert outcome.baseline_report == cold.baseline_report
    assert list(outcome.baseline_report.results) == list(cold.baseline_report.results)
    for table in ("observations", "usable_vps", "discarded_vps",
                  "queried_per_vp", "responsive_per_vp"):
        assert getattr(outcome.rtt_summary, table) == getattr(cold.rtt_summary, table)
    assert outcome.feasible == cold.feasible
    assert list(outcome.feasible) == list(cold.feasible)
    assert outcome.crossings == cold.crossings
    assert outcome.private_adjacencies == cold.private_adjacencies
    assert [(r.asn, r.interface_ips, r.ixp_ids, r.kind) for r in outcome.multi_ixp_routers] \
        == [(r.asn, r.interface_ips, r.ixp_ids, r.kind) for r in cold.multi_ixp_routers]


class TestEngineOutcomeOracle:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_warm_engine_matches_a_cold_one(self, oracle_study, data):
        """One engine, driven through drawn scenarios, studied-IXP subsets,
        journalled edits and campaign appends, equals a cold engine over
        copies after every run."""
        study = oracle_study
        dataset = dataset_copy(study.dataset)
        prefix2as = prefix2as_copy(study.prefix2as)
        ping = ping_copy(study.ping_result)
        corpus = corpus_copy(study.traceroute_corpus)
        engine = _engine_over(study, dataset, prefix2as, ping, corpus)
        configs = scenario_configs(study.config.inference)
        studied = list(study.studied_ixp_ids)
        facilities = sorted(set().union(*(dataset.ixp_facilities[i] for i in studied)))
        members = sorted(set().union(*(dataset.members_of_ixp(i) for i in studied)))
        remappable = sorted(p for p, asn in prefix2as._prefixes.items() if asn in members)
        member_series = [s for s in ping.series if s.ixp_id in studied and s.samples]
        vp_ids = sorted(ping.vantage_points)
        paths = corpus.paths
        interfaces = sorted(ip for ip, owner in dataset.interface_ixp.items() if owner in studied)
        for _ in range(data.draw(st.integers(1, 5), label="runs")):
            edit = data.draw(st.sampled_from(
                (None, "move", "add_as_facility", "remove_as_facility", "remap",
                 "reown", "remove_interface", "add_series", "register_vantage_point",
                 "extend")), label="edit")
            if edit == "move":
                facility = data.draw(st.sampled_from(facilities))
                distance_km = data.draw(st.sampled_from((5.0, 30.0, 150.0)))
                moved = offset_point(dataset.facility_locations[facility], distance_km, 60.0)
                dataset.set_facility_location(facility, moved)
            elif edit == "add_as_facility":
                dataset.add_as_facility(
                    data.draw(st.sampled_from(members)), data.draw(st.sampled_from(facilities)))
            elif edit == "remove_as_facility":
                asn = data.draw(st.sampled_from(members))
                held = sorted(dataset.as_facilities.get(asn, ()))
                if held:
                    dataset.remove_as_facility(asn, data.draw(st.sampled_from(held)))
            elif edit == "remap":
                prefix2as.add(
                    data.draw(st.sampled_from(remappable)), data.draw(st.sampled_from(members)))
            elif edit == "reown":
                # refresh_default's heavy edit: an interface moves to another
                # member of its IXP (unless an earlier edit removed it).
                ip = data.draw(st.sampled_from(interfaces))
                ixp_id = dataset.interface_ixp.get(ip)
                others = sorted(dataset.members_of_ixp(ixp_id) - {dataset.interface_asn.get(ip)}
                                if ixp_id is not None else ())
                if others:
                    dataset.set_interface(ip, ixp_id, data.draw(st.sampled_from(others)))
            elif edit == "remove_interface":
                dataset.remove_interface(data.draw(st.sampled_from(interfaces)))
            elif edit == "add_series":
                series = data.draw(st.sampled_from(member_series))
                shift_ms = data.draw(st.sampled_from((-2.0, -0.5, 0.5)))
                ping.add_series(replace(series, samples=tuple(
                    replace(sample, rtt_ms=max(0.0, sample.rtt_ms + shift_ms))
                    for sample in series.samples)))
            elif edit == "register_vantage_point":
                ping.register_vantage_point(
                    ping.vantage_points[data.draw(st.sampled_from(vp_ids))])
            elif edit == "extend":
                corpus.extend([data.draw(st.sampled_from(paths))])
            config = data.draw(st.sampled_from(configs), label="config")
            ixp_ids = data.draw(
                st.lists(st.sampled_from(studied), min_size=1, unique=True), label="ixp_ids")
            outcome = engine.run(config, ixp_ids)
            cold = _engine_over(study, dataset_copy(dataset), prefix2as_copy(prefix2as),
                                ping_copy(ping), corpus_copy(corpus))
            _assert_same_outcome(outcome, cold.run(config, ixp_ids))


@pytest.fixture(scope="module")
def readonly_study() -> RemotePeeringStudy:
    """A private tiny study whose outcomes the refused-write tests poke."""
    study = RemotePeeringStudy(ExperimentConfig.tiny(seed=29))
    study.outcome  # fill the engine's cache
    return study


class TestReadOnlyOutcome:
    """Everything reachable from an outcome refuses writes.

    The step cache shares the records, analyses, crossings and routers of
    an outcome with every run that hits the same keys.  Each test tries one
    family of write shapes through the study's outcome, each write on its
    own; afterwards a rerun of the study's engine, every node a cache hit,
    must still equal a cold engine's outcome over copies of the inputs.
    """

    def _outcome(self, study):
        return study.engine.run(study.config.inference, study.studied_ixp_ids)

    def _assert_cache_intact(self, study) -> None:
        before = _stats_snapshot(study.engine)
        outcome = self._outcome(study)
        after = _stats_snapshot(study.engine)
        assert {label: misses for label, (_, misses) in after.items()} == {
            label: misses for label, (_, misses) in before.items()}
        cold = _engine_over(study, dataset_copy(study.dataset), prefix2as_copy(study.prefix2as))
        _assert_same_outcome(outcome, cold.run(study.config.inference, study.studied_ixp_ids))

    def _classified(self, outcome, step):
        return next(r for r in outcome.report.results.values() if r.step is step)

    def _analysis(self, outcome):
        return next(a for a in outcome.feasible.values() if a.feasible_ixp_facilities)

    def test_attribute_assignment(self, readonly_study):
        outcome = self._outcome(readonly_study)
        result = self._classified(outcome, InferenceStep.RTT_COLOCATION)
        with pytest.raises(AttributeError):
            outcome.crossings = ()
        with pytest.raises(AttributeError):
            result.classification = PeeringClassification.UNKNOWN
        with pytest.raises(AttributeError):
            self._analysis(outcome).classification = PeeringClassification.UNKNOWN
        with pytest.raises(AttributeError):
            outcome.multi_ixp_routers[0].kind = MultiIXPRouterKind.UNCLASSIFIED
        self._assert_cache_intact(readonly_study)

    def test_item_assignment_and_deletion(self, readonly_study):
        outcome = self._outcome(readonly_study)
        key, analysis = next(iter(outcome.feasible.items()))
        evidence = self._classified(outcome, InferenceStep.MULTI_IXP_ROUTER).evidence
        with pytest.raises(TypeError):
            outcome.feasible[key] = analysis
        with pytest.raises(TypeError):
            del outcome.feasible[key]
        with pytest.raises(TypeError):
            evidence["router_kind"] = "local"
        with pytest.raises(TypeError):
            del evidence["involved_ixps"]
        self._assert_cache_intact(readonly_study)

    def test_mutating_methods(self, readonly_study):
        outcome = self._outcome(readonly_study)
        evidence = self._classified(outcome, InferenceStep.PRIVATE_CONNECTIVITY).evidence
        with pytest.raises(AttributeError):
            outcome.crossings.append(outcome.crossings[0])
        with pytest.raises(AttributeError):
            outcome.crossings.clear()
        with pytest.raises(AttributeError):
            self._analysis(outcome).feasible_ixp_facilities.add("fac-elsewhere")
        with pytest.raises(AttributeError):
            evidence.update(common_facilities=())
        self._assert_cache_intact(readonly_study)


class TestConcurrentLazyCreation:
    """Build-once guarantees under a real thread pool (concurrency PR).

    Regression tests for the two check-then-act windows the static
    concurrency rule motivated closing: GenerationGuardedIndex's lazy build
    and Versioned's lazy journal creation.  A barrier releases every worker
    into the racy window at once, so a regression to unguarded
    check-then-act has a realistic chance of double-building.
    """

    def test_guarded_index_builds_once_under_thread_pool_hammer(self):
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        from repro.versioning import GenerationGuardedIndex

        workers = 8
        index: GenerationGuardedIndex = GenerationGuardedIndex()
        barrier = Barrier(workers)
        builds: list[int] = []

        def build() -> dict:
            builds.append(1)
            return {"payload": object()}

        def hammer(_: int) -> dict:
            barrier.wait()
            return index.get(("gen", 1), build)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(hammer, range(workers)))

        assert len(builds) == 1, "token-stable concurrent gets must build once"
        assert all(result is results[0] for result in results)
        assert index.is_built

    def test_guarded_index_rebuild_after_token_change_is_single(self):
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        from repro.versioning import GenerationGuardedIndex

        workers = 8
        index: GenerationGuardedIndex = GenerationGuardedIndex()
        index.get(("gen", 1), lambda: {"stale": True})
        barrier = Barrier(workers)
        builds: list[int] = []

        def rebuild() -> dict:
            builds.append(1)
            return {"fresh": True}

        def hammer(_: int) -> dict:
            barrier.wait()
            return index.get(("gen", 2), rebuild)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(hammer, range(workers)))

        assert len(builds) == 1
        assert all(result is results[0] for result in results)

    def test_prefix_map_builds_its_index_once_under_caller_threads(self, monkeypatch):
        from threading import Barrier, BrokenBarrierError, Thread

        import repro.datasources.prefix2as as prefix2as_module

        prefix_map = Prefix2ASMap()
        prefix_map.add("10.0.0.0/8", 64500)
        # Each build waits until a second thread has reached the lookup as
        # well.  An unguarded check-then-act lets that thread into a second
        # build, which releases both; a guarded one keeps it waiting for the
        # first build, so the barrier times out and one build completes.
        barrier = Barrier(2)
        builds: list[int] = []
        build_index = prefix2as_module.LPMIndex

        def blocking_build(entries):
            builds.append(1)
            try:
                barrier.wait(timeout=1.0)
            except BrokenBarrierError:
                pass
            return build_index(entries)

        monkeypatch.setattr(prefix2as_module, "LPMIndex", blocking_build)
        answers: list[int | None] = []
        threads = [
            Thread(target=lambda: answers.append(prefix_map.lookup("10.1.2.3")))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert answers == [64500, 64500]
        assert len(builds) == 1, "caller threads must share one index build"
        assert prefix_map.full_rebuilds == 1

    def test_lazy_journal_creation_is_race_free(self):
        from concurrent.futures import ThreadPoolExecutor
        from threading import Barrier

        workers = 8
        for _ in range(20):
            dataset = ObservedDataset()
            barrier = Barrier(workers)

            def journal_of(_: int) -> ChangeJournal:
                barrier.wait()
                return dataset.journal

            with ThreadPoolExecutor(max_workers=workers) as pool:
                journals = list(pool.map(journal_of, range(workers)))

            first = journals[0]
            assert all(journal is first for journal in journals), (
                "concurrent lazy journal access must create exactly one "
                "journal — a second one would silently drop changes")
