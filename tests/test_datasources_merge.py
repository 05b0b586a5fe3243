"""Unit tests for the dataset merge (preference order, Table 1 statistics)."""

import pytest

from repro.config import DataSourceNoiseConfig
from repro.datasources.merge import (
    SOURCE_PREFERENCE,
    DatasetMerger,
    ObservedDataset,
    build_observed_dataset,
)
from repro.datasources.records import (
    InterfaceRecord,
    PrefixRecord,
    SourceName,
    SourceSnapshot,
)
from repro.exceptions import DataSourceError


def _snapshot(source, interfaces=(), prefixes=()):
    snapshot = SourceSnapshot(source=source)
    for ip, asn, ixp in interfaces:
        snapshot.interfaces.append(InterfaceRecord(ip=ip, asn=asn, ixp_id=ixp, source=source))
    for prefix, ixp in prefixes:
        snapshot.prefixes.append(PrefixRecord(prefix=prefix, ixp_id=ixp, source=source))
    return snapshot


class TestPreferenceOrder:
    def test_preference_order_matches_paper(self):
        assert SOURCE_PREFERENCE == (
            SourceName.WEBSITE, SourceName.HE, SourceName.PDB, SourceName.PCH)

    def test_higher_preference_wins_conflicts(self):
        website = _snapshot(SourceName.WEBSITE, interfaces=[("185.1.0.1", 65001, "ixp-a")])
        pdb = _snapshot(SourceName.PDB, interfaces=[("185.1.0.1", 65999, "ixp-a")])
        dataset, stats = DatasetMerger([pdb, website]).merge()
        assert dataset.interface_asn["185.1.0.1"] == 65001
        assert stats.contributions[SourceName.PDB].interfaces_conflicts == 1
        assert stats.contributions[SourceName.WEBSITE].interfaces_conflicts == 0

    def test_unique_records_counted(self):
        he = _snapshot(SourceName.HE, interfaces=[("185.1.0.1", 65001, "ixp-a"),
                                                  ("185.1.0.2", 65002, "ixp-a")])
        pch = _snapshot(SourceName.PCH, interfaces=[("185.1.0.2", 65002, "ixp-a")])
        _, stats = DatasetMerger([he, pch]).merge()
        assert stats.contributions[SourceName.HE].interfaces_unique == 1
        assert stats.contributions[SourceName.PCH].interfaces_unique == 0

    def test_merge_requires_at_least_one_snapshot(self):
        with pytest.raises(DataSourceError):
            DatasetMerger([])

    def test_totals_count_distinct_keys(self):
        he = _snapshot(SourceName.HE, prefixes=[("185.1.0.0/24", "ixp-a")],
                       interfaces=[("185.1.0.1", 65001, "ixp-a")])
        pdb = _snapshot(SourceName.PDB, prefixes=[("185.1.0.0/24", "ixp-a")],
                        interfaces=[("185.1.0.1", 65001, "ixp-a")])
        _, stats = DatasetMerger([he, pdb]).merge()
        assert stats.total_prefixes == 1
        assert stats.total_interfaces == 1

    def test_rows_include_total_line(self):
        he = _snapshot(SourceName.HE, interfaces=[("185.1.0.1", 65001, "ixp-a")])
        _, stats = DatasetMerger([he]).merge()
        rows = stats.rows()
        assert rows[-1]["source"] == "Total"


class TestObservedDatasetQueries:
    def test_ixp_for_ip_uses_longest_prefix(self):
        dataset = ObservedDataset(ixp_prefixes={"185.1.0.0/24": "ixp-a"})
        assert dataset.ixp_for_ip("185.1.0.77") == "ixp-a"
        assert dataset.ixp_for_ip("10.0.0.1") is None

    def test_ixp_for_ip_prefers_nested_prefix_over_earlier_broad_one(self):
        # Regression test for the seed first-match bug: the broad prefix is
        # registered FIRST, so a first-match scan in insertion order answered
        # "ixp-broad" for addresses inside the nested, more-specific LAN.
        dataset = ObservedDataset(
            ixp_prefixes={"185.0.0.0/8": "ixp-broad", "185.1.0.0/24": "ixp-lan"})
        assert dataset.ixp_for_ip("185.1.0.77") == "ixp-lan"
        assert dataset.ixp_for_ip("185.2.0.77") == "ixp-broad"

    def test_ixp_for_ip_index_refreshes_when_prefixes_are_added(self):
        dataset = ObservedDataset(ixp_prefixes={"185.0.0.0/8": "ixp-broad"})
        assert dataset.ixp_for_ip("185.1.0.77") == "ixp-broad"
        dataset.set_ixp_prefix("185.1.0.0/24", "ixp-lan")
        assert dataset.ixp_for_ip("185.1.0.77") == "ixp-lan"

    def test_merge_produces_lpm_semantics_for_nested_lans(self):
        he = _snapshot(SourceName.HE, prefixes=[("185.0.0.0/8", "ixp-broad"),
                                                ("185.1.0.0/24", "ixp-lan")])
        dataset, _ = DatasetMerger([he]).merge()
        assert dataset.ixp_for_ip("185.1.0.5") == "ixp-lan"
        assert dataset.ixp_for_ip("185.9.0.5") == "ixp-broad"

    def test_members_and_interfaces_of_ixp(self):
        dataset = ObservedDataset(
            interface_ixp={"185.1.0.1": "ixp-a", "185.1.0.2": "ixp-a", "185.2.0.1": "ixp-b"},
            interface_asn={"185.1.0.1": 1, "185.1.0.2": 2, "185.2.0.1": 3},
        )
        assert dataset.members_of_ixp("ixp-a") == {1, 2}
        assert dataset.interfaces_of_ixp("ixp-b") == {"185.2.0.1": 3}

    def test_cached_ixp_views_refresh_when_interfaces_are_added(self):
        dataset = ObservedDataset(
            interface_ixp={"185.1.0.1": "ixp-a"},
            interface_asn={"185.1.0.1": 1},
        )
        assert dataset.members_of_ixp("ixp-a") == {1}
        dataset.set_interface("185.1.0.2", "ixp-a", 2)
        assert dataset.members_of_ixp("ixp-a") == {1, 2}
        assert dataset.interfaces_of_ixp("ixp-a") == {"185.1.0.1": 1, "185.1.0.2": 2}

    def test_cached_ixp_views_return_copies(self):
        dataset = ObservedDataset(
            interface_ixp={"185.1.0.1": "ixp-a"},
            interface_asn={"185.1.0.1": 1},
        )
        dataset.interfaces_of_ixp("ixp-a")["185.1.0.9"] = 9
        dataset.members_of_ixp("ixp-a").add(9)
        assert dataset.interfaces_of_ixp("ixp-a") == {"185.1.0.1": 1}
        assert dataset.members_of_ixp("ixp-a") == {1}

    def test_interface_without_asn_record_does_not_poison_other_ixps(self):
        dataset = ObservedDataset(
            interface_ixp={"185.1.0.1": "ixp-a", "185.2.0.1": "ixp-b"},
            interface_asn={"185.1.0.1": 1},  # ixp-b's interface has no ASN record
        )
        assert dataset.interfaces_of_ixp("ixp-a") == {"185.1.0.1": 1}
        assert dataset.members_of_ixp("ixp-b") == set()

    def test_common_facilities(self):
        dataset = ObservedDataset(
            ixp_facilities={"ixp-a": {"fac-1", "fac-2"}},
            as_facilities={65001: {"fac-2", "fac-3"}},
        )
        assert dataset.common_facilities("ixp-a", 65001) == {"fac-2"}
        assert dataset.common_facilities("ixp-a", 99999) == set()

    def test_capacity_lookups(self):
        dataset = ObservedDataset(
            port_capacities={("ixp-a", 65001): 100},
            min_physical_capacity={"ixp-a": 1_000},
        )
        assert dataset.port_capacity("ixp-a", 65001) == 100
        assert dataset.port_capacity("ixp-a", 65002) is None
        assert dataset.min_capacity("ixp-a") == 1_000
        assert dataset.min_capacity("ixp-b") is None


class TestBuildObservedDataset:
    def test_full_build_covers_most_interfaces(self, tiny_world):
        dataset, stats = build_observed_dataset(tiny_world)
        active = len(tiny_world.active_memberships())
        assert stats.total_interfaces >= 0.9 * active
        assert len(dataset.interface_ixp) == stats.total_interfaces

    def test_interface_asn_mostly_correct(self, tiny_world):
        dataset, _ = build_observed_dataset(tiny_world)
        wrong = sum(
            1 for ip, asn in dataset.interface_asn.items()
            if tiny_world.membership_for_interface(ip).asn != asn
        )
        assert wrong / len(dataset.interface_asn) < 0.02

    def test_caida_and_apnic_attributes_attached(self, tiny_world):
        dataset, _ = build_observed_dataset(tiny_world)
        assert dataset.customer_cone_sizes
        assert dataset.user_populations

    def test_inflect_corrects_coordinates(self, tiny_world):
        from repro.geo.coordinates import geodesic_distance_km
        noise = DataSourceNoiseConfig(facility_coordinate_error_rate=1.0,
                                      facility_coordinate_error_km=500.0,
                                      inflect_correction_rate=1.0)
        dataset, _ = build_observed_dataset(tiny_world, noise)
        # With full Inflect coverage every coordinate is corrected back.
        for facility_id, location in dataset.facility_locations.items():
            truth = tiny_world.facility(facility_id).location
            assert geodesic_distance_km(location, truth) < 1.0
