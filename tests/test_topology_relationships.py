"""Unit tests for the AS relationship graph and customer cones."""

import pytest

from repro.exceptions import TopologyError
from repro.topology.relationships import ASRelationshipGraph, Relationship


@pytest.fixture()
def simple_hierarchy() -> ASRelationshipGraph:
    """AS1 is provider of AS2 and AS3; AS2 is provider of AS4; AS3 peers AS5."""
    graph = ASRelationshipGraph()
    graph.add_customer_provider(customer=2, provider=1)
    graph.add_customer_provider(customer=3, provider=1)
    graph.add_customer_provider(customer=4, provider=2)
    graph.add_peering(3, 5)
    return graph


class TestConstruction:
    def test_self_provider_rejected(self):
        graph = ASRelationshipGraph()
        with pytest.raises(TopologyError):
            graph.add_customer_provider(customer=1, provider=1)

    def test_self_peering_rejected(self):
        graph = ASRelationshipGraph()
        with pytest.raises(TopologyError):
            graph.add_peering(1, 1)

    def test_isolated_asn_registration(self):
        graph = ASRelationshipGraph()
        graph.add_asn(42)
        assert 42 in graph.asns
        assert graph.customer_cone(42) == frozenset({42})


class TestQueries:
    def test_providers_and_customers(self, simple_hierarchy):
        assert simple_hierarchy.providers_of(2) == {1}
        assert simple_hierarchy.customers_of(1) == {2, 3}
        assert simple_hierarchy.customers_of(4) == set()

    def test_peers(self, simple_hierarchy):
        assert simple_hierarchy.peers_of(3) == {5}
        assert simple_hierarchy.peers_of(5) == {3}

    def test_relationship_between(self, simple_hierarchy):
        assert simple_hierarchy.relationship_between(2, 1) == "c2p"
        assert simple_hierarchy.relationship_between(1, 2) == "p2c"
        assert simple_hierarchy.relationship_between(3, 5) == "p2p"
        assert simple_hierarchy.relationship_between(2, 5) is None

    def test_is_provider_of(self, simple_hierarchy):
        assert simple_hierarchy.is_provider_of(1, 2)
        assert not simple_hierarchy.is_provider_of(2, 1)

    def test_unknown_asn_queries_are_empty(self):
        graph = ASRelationshipGraph()
        assert graph.providers_of(99) == set()
        assert graph.customers_of(99) == set()
        assert graph.peers_of(99) == set()


class TestCustomerCones:
    def test_cone_includes_self(self, simple_hierarchy):
        assert 1 in simple_hierarchy.customer_cone(1)

    def test_cone_is_transitive(self, simple_hierarchy):
        assert simple_hierarchy.customer_cone(1) == frozenset({1, 2, 3, 4})

    def test_peering_does_not_extend_cone(self, simple_hierarchy):
        assert 5 not in simple_hierarchy.customer_cone(3)

    def test_stub_cone_size_is_one(self, simple_hierarchy):
        assert simple_hierarchy.customer_cone_size(4) == 1
        assert simple_hierarchy.customer_cone_size(5) == 1

    def test_all_cone_sizes(self, simple_hierarchy):
        sizes = simple_hierarchy.all_cone_sizes()
        assert sizes[1] == 4
        assert sizes[2] == 2

    def test_cone_cache_invalidated_on_new_edge(self, simple_hierarchy):
        assert simple_hierarchy.customer_cone_size(2) == 2
        simple_hierarchy.add_customer_provider(customer=6, provider=2)
        assert simple_hierarchy.customer_cone_size(2) == 3


class TestValidationAndExport:
    def test_acyclic_validation_passes(self, simple_hierarchy):
        simple_hierarchy.validate_acyclic()

    def test_cycle_detected(self):
        graph = ASRelationshipGraph()
        graph.add_customer_provider(customer=2, provider=1)
        graph.add_customer_provider(customer=1, provider=2)
        with pytest.raises(TopologyError):
            graph.validate_acyclic()

    def test_cycle_error_names_its_edges(self):
        graph = ASRelationshipGraph()
        graph.add_customer_provider(customer=2, provider=1)
        graph.add_customer_provider(customer=3, provider=2)
        graph.add_customer_provider(customer=1, provider=3)
        graph.add_customer_provider(customer=4, provider=1)
        with pytest.raises(TopologyError, match=r"cycle: \[\(2, 3\), \(3, 1\), \(1, 2\)\]$"):
            graph.validate_acyclic()

    def test_edges_export_covers_all_relationships(self, simple_hierarchy):
        edges = simple_hierarchy.edges()
        c2p = [e for e in edges if e.relationship is Relationship.CUSTOMER_TO_PROVIDER]
        p2p = [e for e in edges if e.relationship is Relationship.PEER_TO_PEER]
        assert len(c2p) == 3
        assert len(p2p) == 1

    def test_degree_summary(self, simple_hierarchy):
        summary = simple_hierarchy.degree_summary()
        assert summary[1]["customers"] == 2
        assert summary[4]["providers"] == 1
        assert summary[5]["peers"] == 1
