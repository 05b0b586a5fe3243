"""Unit tests for the prefix2as mapping and MIDAR-like alias resolution."""

import pytest

from repro.alias.midar import AliasResolver
from repro.datasources.prefix2as import Prefix2ASMap, Prefix2ASSource


class TestPrefix2ASMap:
    def test_exact_lookup(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.0/24", 65001)
        assert mapping.lookup("100.0.0.17") == 65001

    def test_longest_prefix_wins(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.0/16", 65001)
        mapping.add("100.0.1.0/24", 65002)
        assert mapping.lookup("100.0.1.5") == 65002
        assert mapping.lookup("100.0.2.5") == 65001

    def test_miss_returns_none(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.0/24", 65001)
        assert mapping.lookup("203.0.113.1") is None

    def test_len_counts_prefixes(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.0/24", 65001)
        mapping.add("100.0.1.0/24", 65002)
        assert len(mapping) == 2

    def test_host_route_lookup(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.5/32", 65005)
        assert mapping.lookup("100.0.0.5") == 65005
        assert mapping.lookup("100.0.0.6") is None

    def test_nested_prefix_wins_regardless_of_insertion_order(self):
        broad_first = Prefix2ASMap()
        broad_first.add("100.0.0.0/8", 65001)
        broad_first.add("100.0.1.0/24", 65002)
        assert broad_first.lookup("100.0.1.5") == 65002
        assert broad_first.lookup("100.9.0.5") == 65001

        nested_first = Prefix2ASMap()
        nested_first.add("100.0.1.0/24", 65002)
        nested_first.add("100.0.0.0/8", 65001)
        assert nested_first.lookup("100.0.1.5") == 65002
        assert nested_first.lookup("100.9.0.5") == 65001

    def test_add_after_lookup_rebuilds_the_index(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.0/8", 65001)
        assert mapping.lookup("100.0.1.5") == 65001
        mapping.add("100.0.1.0/24", 65002)
        assert mapping.lookup("100.0.1.5") == 65002

    def test_re_adding_a_prefix_overwrites_the_asn(self):
        mapping = Prefix2ASMap()
        mapping.add("100.0.0.0/24", 65001)
        mapping.add("100.0.0.0/24", 65009)
        assert mapping.lookup("100.0.0.1") == 65009
        assert len(mapping) == 1


class TestPrefix2ASSource:
    def test_snapshot_maps_routed_and_infrastructure_space(self, tiny_world):
        mapping = Prefix2ASSource(tiny_world).snapshot()
        # Routed prefixes resolve to their originating AS.
        prefix, asn = next(iter(tiny_world.routed_prefixes.items()))
        probe_ip = prefix.split("/")[0].rsplit(".", 1)[0] + ".1"
        assert mapping.lookup(probe_ip) == asn
        # Backbone interfaces resolve to the router owner.
        router = next(iter(tiny_world.routers.values()))
        backbone = [ip for ip in router.interface_ips if ip in tiny_world.interfaces
                    and tiny_world.interfaces[ip].kind.value != "ixp-lan"]
        if backbone:
            assert mapping.lookup(backbone[0]) == router.asn

    def test_snapshot_size(self, tiny_world):
        mapping = Prefix2ASSource(tiny_world).snapshot()
        expected = len(tiny_world.routed_prefixes) + len(tiny_world.infrastructure_prefixes)
        assert len(mapping) == expected


class TestAliasResolver:
    def test_groups_interfaces_of_same_router(self, tiny_world):
        resolver = AliasResolver(tiny_world, miss_rate=0.0)
        router = max(tiny_world.routers.values(), key=lambda r: len(r.interface_ips))
        assert len(router.interface_ips) > 1
        assert {resolver.router_of(ip) for ip in router.interface_ips} == {router.router_id}

    def test_does_not_merge_different_routers(self, tiny_world):
        resolver = AliasResolver(tiny_world, miss_rate=0.0)
        routers = list(tiny_world.routers.values())[:2]
        first, second = (resolver.router_of(r.interface_ips[0]) for r in routers)
        assert first is not None and second is not None
        assert first != second

    def test_unknown_ips_become_singletons(self, tiny_world):
        resolver = AliasResolver(tiny_world, miss_rate=0.0)
        assert resolver.router_of("203.0.113.1") is None

    def test_full_miss_rate_yields_only_singletons(self, tiny_world):
        resolver = AliasResolver(tiny_world, miss_rate=1.0)
        router = max(tiny_world.routers.values(), key=lambda r: len(r.interface_ips))
        assert all(resolver.router_of(ip) is None for ip in router.interface_ips)

    def test_miss_rate_is_persistent_across_calls(self, tiny_world):
        resolver = AliasResolver(tiny_world, miss_rate=0.3)
        ips = sorted(tiny_world.interfaces)
        first = [resolver.router_of(ip) for ip in ips]
        second = [resolver.router_of(ip) for ip in ips]
        assert first == second
        # Some interfaces resolve and some do not, so the draw is exercised.
        assert None in first and any(answer is not None for answer in first)

    def test_invalid_miss_rate_rejected(self, tiny_world):
        with pytest.raises(ValueError):
            AliasResolver(tiny_world, miss_rate=1.5)
