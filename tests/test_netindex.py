"""Unit tests for the shared longest-prefix-match index subsystem."""

import pytest

from repro.netindex import LPMIndex, parse_prefix


def _index(entries):
    """An index over ``(prefix string, value)`` pairs."""
    return LPMIndex((parse_prefix(prefix), value) for prefix, value in entries)


class TestLPMIndexBasics:
    def test_empty_index_misses(self):
        index = LPMIndex()
        assert index.lookup("10.0.0.1") is None
        assert len(index) == 0
        assert not index

    def test_single_prefix(self):
        index = _index([("100.0.0.0/24", "a")])
        assert index.lookup("100.0.0.17") == "a"
        assert index.lookup("100.0.1.17") is None
        assert len(index) == 1
        assert index

    def test_boundary_addresses(self):
        index = _index([("100.0.0.0/24", "a")])
        assert index.lookup("100.0.0.0") == "a"
        assert index.lookup("100.0.0.255") == "a"
        assert index.lookup("99.255.255.255") is None
        assert index.lookup("100.0.1.0") is None

    def test_none_value_rejected(self):
        with pytest.raises(ValueError):
            _index([("100.0.0.0/24", None)])

    def test_parse_prefix_triples(self):
        assert parse_prefix("100.0.1.0/24") == (4, 0x64000100, 24)
        assert parse_prefix("2001:db8::/32") == (6, 0x20010DB8 << 96, 32)

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            parse_prefix("100.0.0.1/24")  # host bits set


class TestLongestPrefixSemantics:
    def test_nested_prefix_wins_regardless_of_insertion_order(self):
        # Broad prefix registered FIRST — the seed first-match scan would
        # have answered "outer" for addresses inside the nested /24.
        index = _index([("185.0.0.0/8", "outer"), ("185.1.0.0/24", "inner")])
        assert index.lookup("185.1.0.7") == "inner"
        assert index.lookup("185.2.0.7") == "outer"

        reversed_order = _index([("185.1.0.0/24", "inner"), ("185.0.0.0/8", "outer")])
        assert reversed_order.lookup("185.1.0.7") == "inner"
        assert reversed_order.lookup("185.2.0.7") == "outer"

    def test_three_levels_of_nesting(self):
        index = _index([
            ("10.0.0.0/8", "l8"),
            ("10.1.0.0/16", "l16"),
            ("10.1.2.0/24", "l24"),
        ])
        assert index.lookup("10.1.2.3") == "l24"
        assert index.lookup("10.1.3.3") == "l16"
        assert index.lookup("10.2.0.1") == "l8"
        assert index.lookup("11.0.0.1") is None

    def test_sibling_prefixes_inside_outer(self):
        index = _index([
            ("10.0.0.0/8", "outer"),
            ("10.1.0.0/24", "a"),
            ("10.3.0.0/24", "b"),
        ])
        assert index.lookup("10.1.0.9") == "a"
        assert index.lookup("10.3.0.9") == "b"
        assert index.lookup("10.2.0.9") == "outer"  # gap between siblings
        assert index.lookup("10.255.0.9") == "outer"  # after the last sibling

    def test_host_route_is_most_specific(self):
        index = _index([
            ("100.0.0.0/16", "net"),
            ("100.0.0.5/32", "host"),
        ])
        assert index.lookup("100.0.0.5") == "host"
        assert index.lookup("100.0.0.6") == "net"

    def test_host_route_alone(self):
        index = _index([("100.0.0.5/32", "host")])
        assert index.lookup("100.0.0.5") == "host"
        assert index.lookup("100.0.0.6") is None

    def test_duplicate_prefix_last_registration_wins(self):
        index = _index([("100.0.0.0/24", "old"), ("100.0.0.0/24", "new")])
        assert index.lookup("100.0.0.1") == "new"
        assert len(index) == 1

    def test_prefix_ending_at_address_space_boundary(self):
        index = _index([("255.255.255.0/24", "top")])
        assert index.lookup("255.255.255.255") == "top"
        assert index.lookup("255.255.254.1") is None

    def test_nested_prefix_sharing_outer_end(self):
        index = _index([("10.0.0.0/16", "outer"), ("10.0.255.0/24", "inner")])
        assert index.lookup("10.0.255.200") == "inner"
        assert index.lookup("10.0.254.200") == "outer"

    def test_nested_prefix_sharing_outer_start(self):
        index = _index([("10.0.0.0/16", "outer"), ("10.0.0.0/24", "inner")])
        assert index.lookup("10.0.0.200") == "inner"
        assert index.lookup("10.0.1.200") == "outer"


class TestMemoisation:
    def test_repeated_lookup_hits_and_misses_are_memoised(self):
        index = _index([("100.0.0.0/24", "a")])
        assert index.lookup("100.0.0.1") == "a"
        assert index.lookup("203.0.113.1") is None
        # Second round served from the memo (same answers).
        assert index.lookup("100.0.0.1") == "a"
        assert index.lookup("203.0.113.1") is None
        # The memo stores values, misses as None.
        assert index._memo == {"100.0.0.1": "a", "203.0.113.1": None}


class TestIPv6:
    def test_v4_and_v6_tables_are_independent(self):
        index = _index([
            ("100.0.0.0/24", "v4"),
            ("2001:db8::/32", "v6"),
            ("2001:db8:1::/48", "v6-inner"),
        ])
        assert index.lookup("100.0.0.1") == "v4"
        assert index.lookup("2001:db8::1") == "v6"
        assert index.lookup("2001:db8:1::1") == "v6-inner"
        assert index.lookup("2001:db9::1") is None


class TestGenerationGuardedIndex:
    """The shared version-token lazy-cache helper (ex-SizeGuardedIndex)."""

    def test_builds_lazily_and_once_per_token(self):
        from repro.versioning import GenerationGuardedIndex
        backing = {"a": 1}
        builds = []

        def build():
            builds.append(len(backing))
            return dict(backing)

        guard = GenerationGuardedIndex()
        assert not guard.is_built
        assert guard.get((0, len(backing)), build) == {"a": 1}
        assert guard.get((0, len(backing)), build) == {"a": 1}
        assert builds == [1], "same token must not rebuild"

    def test_size_change_triggers_rebuild(self):
        from repro.versioning import GenerationGuardedIndex
        backing = {"a": 1}
        guard = GenerationGuardedIndex()
        assert guard.get((0, len(backing)), lambda: dict(backing)) == {"a": 1}
        backing["b"] = 2
        assert guard.get((0, len(backing)), lambda: dict(backing)) == {"a": 1, "b": 2}
        del backing["a"]
        del backing["b"]
        assert guard.get((0, len(backing)), lambda: dict(backing)) == {}

    def test_generation_bump_triggers_rebuild_at_same_size(self):
        from repro.versioning import GenerationGuardedIndex
        backing = {"a": 1}
        guard = GenerationGuardedIndex()
        assert guard.get((0, len(backing)), lambda: dict(backing)) == {"a": 1}
        # Replace the key set at unchanged size: the size half cannot see
        # it, but the owner's generation bump re-keys the payload.
        del backing["a"]
        backing["b"] = 2
        assert guard.get((1, len(backing)), lambda: dict(backing)) == {"b": 2}
