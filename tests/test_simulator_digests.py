"""Byte identity of the simulator's output.

The traceroute corpus and the world's memberships are pure functions of the
seed, so any change to route selection, hop expansion, RTT sampling or the
order of RNG draws shows up as a changed digest here.  The tiny and small
digests were recorded with the sorted-neighbour-list BFS the routing layer
started from, and the default ones with the pairwise realization lists the
graph kept before it derived IXP crossings from member bitmasks; a speed-up
must leave them untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import ExperimentConfig, GeneratorConfig
from repro.study import RemotePeeringStudy


@pytest.fixture(scope="module")
def default_study() -> RemotePeeringStudy:
    """The default-scale study (seed 20180901); only its world and corpus are built."""
    return RemotePeeringStudy(ExperimentConfig(generator=GeneratorConfig(seed=20180901)))


#: Digests per study fixture: corpus paths, corpus hops, world memberships.
EXPECTED = {
    "default_study": {
        "paths": "51fd9e46df2dc3efa10b47c0b3071aee149fe18d96605a97fce05e3c25cdc619",
        "hops": "1b0fa09c62fb9fefc9a057c41947292e2003919a39534dc205d6c6acc300980f",
        "memberships": "1d192a5a79bab5e1dab42895416c77d34a5eadb5d979431b0591cd17498b8df9",
    },
    "tiny_study": {
        "paths": "6616c60577cc5787a2e1d1da0fbe8f0e14d75d7bf125ff816da045d2bac48576",
        "hops": "257d025cf9bc876f5a28c2f30572d1c1f767123b4de8be003de2b4fd3c48791e",
        "memberships": "e037117a13675e80889638eb7d11c8ac4e657e464b130ccebcc20a9dd94aebd9",
    },
    "small_study": {
        "paths": "1c313465f8e5c0ecfbdb7c5e1575573e23c9a873c8d34fc8a8ef020d8a8dc436",
        "hops": "26002c7f8156c1ac7749a95824250af668c21ae72a66c46fca6843db6ec50862",
        "memberships": "646713408c1ec8a0f95f84d0a73ec4b835e1fc41a1ccbbb4d3444583def398d8",
    },
}


def _path_digest(corpus) -> str:
    digest = hashlib.sha256()
    for path in corpus.paths:
        digest.update(f"{path.source_asn}|{path.destination_asn}|{path.destination_ip}\n".encode())
    return digest.hexdigest()


def _hop_digest(corpus) -> str:
    digest = hashlib.sha256()
    for path in corpus.paths:
        for hop in path.hops:
            digest.update(
                f"{hop.ip}|{hop.asn}|{hop.rtt_ms!r}|{hop.is_ixp_lan}|{hop.ixp_id}\n".encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _membership_digest(world) -> str:
    digest = hashlib.sha256()
    for membership in world.memberships:
        digest.update(f"{membership!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("fixture", sorted(EXPECTED))
def test_simulator_output_is_byte_identical(fixture, request):
    study = request.getfixturevalue(fixture)
    observed = {
        "paths": _path_digest(study.traceroute_corpus),
        "hops": _hop_digest(study.traceroute_corpus),
        "memberships": _membership_digest(study.world),
    }
    assert observed == EXPECTED[fixture]
