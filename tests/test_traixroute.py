"""Unit tests for the IXP crossing detector (traIXroute rules)."""

import pytest
from hypothesis import given, settings

from repro.datasources.merge import ObservedDataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.measurement.results import TracerouteCorpus
from repro.routing.forwarding import ForwardingHop, ForwardingPath
from repro.traixroute.detector import CorpusDetectionIndex, CrossingDetector
from tests.detection_strategies import (
    detection_inputs,
    forwarding_path,
    reference_answers,
)


def _path(hops, source=65001, destination=65002):
    path = ForwardingPath(source_asn=source, destination_asn=destination,
                          destination_ip="100.0.0.1")
    for index, (ip, asn) in enumerate(hops):
        path.hops.append(ForwardingHop(ip=ip, asn=asn, rtt_ms=float(index)))
    return path


@pytest.fixture()
def detector():
    dataset = ObservedDataset(
        ixp_prefixes={"185.1.0.0/24": "ixp-a"},
        interface_ixp={"185.1.0.2": "ixp-a", "185.1.0.1": "ixp-a"},
        interface_asn={"185.1.0.2": 65002, "185.1.0.1": 65001},
    )
    prefix2as = Prefix2ASMap()
    prefix2as.add("5.0.0.0/22", 65001)
    prefix2as.add("5.0.4.0/22", 65002)
    prefix2as.add("5.0.8.0/22", 65003)
    return CrossingDetector(dataset, prefix2as)


class TestTripletRule:
    def test_valid_crossing_detected(self, detector):
        path = _path([("5.0.0.1", 65001), ("185.1.0.2", 65002), ("5.0.4.1", 65002)])
        crossings = detector.detect(path)
        assert len(crossings) == 1
        crossing = crossings[0]
        assert crossing.ixp_id == "ixp-a"
        assert crossing.entry_asn == 65001
        assert crossing.far_asn == 65002

    def test_no_crossing_without_ixp_hop(self, detector):
        path = _path([("5.0.0.1", 65001), ("5.0.4.1", 65002), ("5.0.4.2", 65002)])
        assert detector.detect(path) == []

    def test_third_hop_must_match_ixp_interface_owner(self, detector):
        path = _path([("5.0.0.1", 65001), ("185.1.0.2", 65002), ("5.0.8.1", 65003)])
        assert detector.detect(path) == []

    def test_first_hop_must_be_different_as(self, detector):
        path = _path([("5.0.4.2", 65002), ("185.1.0.2", 65002), ("5.0.4.1", 65002)])
        assert detector.detect(path) == []

    def test_both_ases_must_be_members(self, detector):
        # AS 65003 is not a member of ixp-a.
        path = _path([("5.0.8.1", 65003), ("185.1.0.2", 65002), ("5.0.4.1", 65002)])
        assert detector.detect(path) == []

    def test_missing_hops_break_the_triplet(self, detector):
        path = _path([("5.0.0.1", 65001), (None, None), ("5.0.4.1", 65002)])
        assert detector.detect(path) == []

    def test_corpus_detection_aggregates(self, detector):
        good = _path([("5.0.0.1", 65001), ("185.1.0.2", 65002), ("5.0.4.1", 65002)])
        bad = _path([("5.0.0.1", 65001), ("5.0.4.1", 65002), ("5.0.4.2", 65002)])
        corpus = TracerouteCorpus(paths=[good, bad, good])
        assert len(detector.detect_corpus(corpus)) == 2


class TestPrivateAdjacencies:
    def test_adjacency_extracted_for_as_change(self, detector):
        path = _path([("5.0.0.1", 65001), ("5.0.4.1", 65002), ("5.0.4.2", 65002)])
        adjacencies = detector.private_adjacencies(path)
        assert len(adjacencies) == 1
        assert adjacencies[0].near_asn == 65001
        assert adjacencies[0].far_asn == 65002

    def test_ixp_hops_are_excluded(self, detector):
        path = _path([("5.0.0.1", 65001), ("185.1.0.2", 65002), ("5.0.4.1", 65002)])
        assert detector.private_adjacencies(path) == []

    def test_same_as_hops_are_not_adjacencies(self, detector):
        path = _path([("5.0.4.1", 65002), ("5.0.4.2", 65002)])
        assert detector.private_adjacencies(path) == []

    def test_unmapped_ips_are_ignored(self, detector):
        path = _path([("203.0.113.1", None), ("5.0.4.1", 65002)])
        assert detector.private_adjacencies(path) == []


class TestIPClassification:
    def test_ixp_of_ip_by_interface_and_prefix(self, detector):
        assert detector.ixp_of_ip("185.1.0.2") == "ixp-a"
        assert detector.ixp_of_ip("185.1.0.200") == "ixp-a"  # prefix match only
        assert detector.ixp_of_ip("5.0.0.1") is None

    def test_asn_of_ip_prefers_interface_data(self, detector):
        assert detector.asn_of_ip("185.1.0.1") == 65001
        assert detector.asn_of_ip("5.0.8.3") == 65003
        assert detector.asn_of_ip("203.0.113.7") is None

    def test_classifications_are_memoised_per_detector(self, detector):
        assert detector.ixp_of_ip("185.1.0.200") == "ixp-a"
        assert detector.asn_of_ip("203.0.113.7") is None
        assert detector._ixp_memo["185.1.0.200"] == "ixp-a"
        assert detector._asn_memo["203.0.113.7"] is None
        # Repeated probes return the memoised answers.
        assert detector.ixp_of_ip("185.1.0.200") == "ixp-a"
        assert detector.asn_of_ip("203.0.113.7") is None


class TestNestedLANPrefixes:
    """Regression tests for the seed first-match-vs-longest-prefix bug."""

    @pytest.fixture()
    def nested_detector(self):
        # The broad (bogus) prefix is registered BEFORE the real peering LAN
        # nested inside it; a first-match scan would classify every LAN hop
        # as belonging to "ixp-broad".
        dataset = ObservedDataset(
            ixp_prefixes={"185.0.0.0/8": "ixp-broad", "185.1.0.0/24": "ixp-a"},
            interface_ixp={"185.1.0.2": "ixp-a", "185.1.0.1": "ixp-a"},
            interface_asn={"185.1.0.2": 65002, "185.1.0.1": 65001},
        )
        prefix2as = Prefix2ASMap()
        prefix2as.add("5.0.0.0/22", 65001)
        prefix2as.add("5.0.4.0/22", 65002)
        return CrossingDetector(dataset, prefix2as)

    def test_lan_hop_resolves_to_most_specific_owner(self, nested_detector):
        assert nested_detector.ixp_of_ip("185.1.0.200") == "ixp-a"
        assert nested_detector.ixp_of_ip("185.9.9.9") == "ixp-broad"

    def test_crossing_attributed_to_nested_lan_owner(self, nested_detector):
        # The middle hop is an unknown LAN address (prefix match only), so
        # the triplet rule must attribute the crossing via true LPM.
        path = _path([("5.0.0.1", 65001), ("185.1.0.2", 65002), ("5.0.4.1", 65002)])
        crossings = nested_detector.detect(path)
        assert len(crossings) == 1
        assert crossings[0].ixp_id == "ixp-a"


class TestBulkMatchesReference:
    """A full scan of the corpus index equals the per-path detector.

    Besides the results, every interned address must hold the three answers
    a fresh detector gives it: re-classification and re-detection after a
    revision compare against them.
    """

    @staticmethod
    def _assert_matches_reference(dataset, prefix2as, corpus):
        index = CorpusDetectionIndex(dataset, prefix2as, corpus)
        reference = CrossingDetector(dataset, prefix2as)
        expected = (
            reference.detect_corpus(corpus),
            reference.private_adjacencies_corpus(corpus),
        )
        assert index.results() == expected
        answers = {
            ip: (index._lan[i], index._far[i], index._asn[i])
            for ip, i in index._address_ids.items()
            if ip is not None
        }
        assert set(answers) == {
            hop.ip for path in corpus.paths for hop in path.hops
        } - {None}
        assert answers == reference_answers(dataset, prefix2as, answers)
        return expected

    def test_unanswered_hops_short_paths_and_repeats(self):
        dataset = ObservedDataset()
        dataset.set_ixp_prefix("185.1.0.0/24", "ixp-a")
        dataset.set_interface("185.1.0.1", "ixp-a", 65001)
        dataset.set_interface("185.1.0.2", "ixp-a", 65002)
        prefix2as = Prefix2ASMap()
        prefix2as.add("10.1.0.0/16", 65001)
        prefix2as.add("10.2.0.0/16", 65002)
        prefix2as.add("10.3.0.0/16", 65003)
        entry, lan, exit_ = "10.1.0.9", "185.1.0.2", "10.2.0.9"
        corpus = TracerouteCorpus(
            paths=[
                forwarding_path(hops)
                for hops in [
                    [None, entry, lan, exit_],
                    [entry, None, lan, exit_],
                    [entry, lan, exit_, None],
                    [],
                    [entry],
                    [entry, "10.3.0.9"],
                    [entry, lan, exit_, "185.1.0.1", entry],
                ]
            ]
        )
        crossings, adjacencies = self._assert_matches_reference(
            dataset, prefix2as, corpus
        )
        assert [(c.entry_asn, c.far_asn) for c in crossings] == [
            (65001, 65002),
            (65001, 65002),
            (65001, 65002),
            (65002, 65001),
        ]
        assert [(a.near_asn, a.far_asn) for a in adjacencies] == [(65001, 65003)]

    @given(inputs=detection_inputs())
    @settings(max_examples=100, deadline=None)
    def test_drawn_inputs(self, inputs):
        self._assert_matches_reference(*inputs)


class TestOnGeneratedCorpus:
    def test_detector_finds_crossings_in_simulated_corpus(self, small_study):
        outcome = small_study.outcome
        assert outcome.crossings, "the simulated corpus should contain IXP crossings"
        members_ok = 0
        for crossing in outcome.crossings[:200]:
            members = small_study.dataset.members_of_ixp(crossing.ixp_id)
            assert crossing.far_asn in members
            if crossing.entry_asn in members:
                members_ok += 1
        assert members_ok == min(200, len(outcome.crossings))

    def test_crossings_match_ground_truth_memberships(self, small_study):
        world = small_study.world
        sampled = small_study.outcome.crossings[:100]
        for crossing in sampled:
            membership = world.membership_for_interface(crossing.ixp_interface_ip)
            assert membership.ixp_id == crossing.ixp_id
