import random

import pytest

from netloom.network import (
    BUILTIN_SPACES, MessageFlow, Network, NetworkSpace, Participant, ParticipantLink,
    build_fragment, emit, export_json, parse_network,
)
from netloom.query import build_index, search, tokenize, traverse
from netloom.reconstruct import reconstruct

from generators import make_scenario
from helpers import store_from_sources
from oracles import bfs_nodes


def network_from(records):
    return emit(reconstruct(store_from_sources({"srca": records})))


def random_network(rng, n_systems=12, n_flows=18):
    scenario = make_scenario(rng, n_systems=n_systems, n_flows=n_flows, n_sources=2)
    return emit(reconstruct(store_from_sources(scenario.source_records)))


def linked_network(rng, n_participants=14, n_edges=24):
    """Participants in both built-in spaces, flows within a space and
    participant links across them."""
    participants = [
        Participant(f"p{i:02d}", f"P {i}", rng.choice(BUILTIN_SPACES)) for i in range(n_participants)
    ]
    flows, links = [], []
    for k in range(n_edges):
        a, b = rng.sample(participants, 2)
        if a.space == b.space:
            flows.append(MessageFlow(f"f{k:02d}", a.id, b.id, f"if{k}"))
        else:
            links.append(ParticipantLink(f"l{k:02d}", a.id, b.id, "realizes"))
    return build_fragment(participants, flows, links)


def network_of(*participants):
    """A network holding ``participants`` in one space, in the given order."""
    return Network("", (NetworkSpace("integration", tuple(participants)),))


# Letters whose lowercase form differs in length or leaves ASCII
# (dotted and dotless i, final sigma, sharp s, the fi ligature, the
# Kelvin sign), next to plain ASCII and punctuation.
FUZZ_ALPHABET = "abeiksyERTKS01" + "İıΣσςßẞﬁéK" + " -_./:'!"


def fuzz_text(rng, longest):
    return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, longest)))


def scan_search(network, query):
    """Brute-force oracle mirroring the search contract."""
    tokens = tokenize(query)
    if not tokens:
        return []
    hits = []
    for s in network.spaces:
        for p in s.participants:
            bag = set(tokenize(p.label))
            for k, v in p.props.items():
                bag.update(tokenize(k))
                bag.update(tokenize(v))
            if all(t in bag for t in tokens):
                label_matches = sum(1 for t in tokens if t in set(tokenize(p.label)))
                hits.append((-label_matches, p.id))
    return [pid for _, pid in sorted(hits)]


class TestTokenize:
    def test_label_tokens(self):
        assert tokenize("ERP Prod-01") == ["erp", "prod", "01"]

    def test_empty(self):
        assert tokenize("  --  ") == []


class TestSearch:
    def test_simple_match(self):
        network = network_from(
            [
                {"kind": "system", "id": "a", "name": "ERP Prod", "type": "application"},
                {"kind": "system", "id": "b", "name": "CRM", "type": "application"},
            ]
        )
        index = build_index(network)
        assert search(index, "erp") == ["srca/a"]

    def test_empty_query_empty_result(self):
        network = network_from(
            [{"kind": "system", "id": "a", "name": "ERP", "type": "application"}]
        )
        assert search(build_index(network), "") == []

    def test_conjunctive_tokens(self):
        network = network_from(
            [
                {"kind": "system", "id": "a", "name": "ERP Prod", "type": "application"},
                {"kind": "system", "id": "b", "name": "ERP Test", "type": "application"},
            ]
        )
        index = build_index(network)
        assert search(index, "erp prod") == ["srca/a"]

    def test_props_are_searchable(self):
        network = network_from(
            [
                {"kind": "system", "id": "a", "name": "Core", "type": "application",
                 "env": "production"},
            ]
        )
        assert search(build_index(network), "production") == ["srca/a"]
        index = build_index(network_of(
            Participant("a", "Core", "integration", {"Region-Code": "x"}),
        ))
        assert search(index, "region") == ["a"]
        assert search(index, "code x") == ["a"]

    def test_label_matches_rank_before_prop_matches(self):
        network = network_from(
            [
                {"kind": "system", "id": "b", "name": "Billing", "type": "application",
                 "note": "erp adjacent"},
                {"kind": "system", "id": "z", "name": "ERP", "type": "application"},
            ]
        )
        assert search(build_index(network), "erp") == ["srca/z", "srca/b"]
        index = build_index(network_of(
            Participant("c", "ERP", "integration"),
            Participant("a", "Billing", "integration", {"note": "erp adjacent"}),
            Participant("b", "erp", "integration"),
        ))
        assert search(index, "erp") == ["b", "c", "a"]
        assert search(index, "erp erp") == ["b", "c", "a"]

    def test_matches_scan_oracle_on_random_networks(self):
        rng = random.Random(71)
        for _ in range(10):
            network = random_network(rng)
            index = build_index(network)
            queries = ["system", "system 003", "v1", "k0", "nothing-here", "net example"]
            for q in queries:
                assert search(index, q) == scan_search(network, q)

    def test_token_must_match_whole(self):
        index = build_index(network_of(
            Participant("a", "System", "integration"),
            Participant("b", "terp", "integration", {"note": "systems"}),
        ))
        assert search(index, "sys") == []
        assert search(index, "erp") == []
        assert search(index, "system") == ["a"]

    def test_matches_scan_oracle_on_adversarial_text(self):
        rng = random.Random(76)
        for _ in range(200):
            participants = [
                Participant(
                    f"p{i:02d}",
                    fuzz_text(rng, 12),
                    "integration",
                    {fuzz_text(rng, 6): fuzz_text(rng, 10) for _ in range(rng.randint(0, 3))},
                )
                for i in rng.sample(range(20), 8)
            ]
            network = network_of(*participants)
            index = build_index(network)
            words = [t for p in participants for t in tokenize(p.label)]
            queries = [fuzz_text(rng, 6) for _ in range(10)]
            for word in rng.sample(words, min(5, len(words))):
                queries.append(word[: rng.randint(1, len(word))])
            for q in queries:
                assert search(index, q) == scan_search(network, q), q

    def test_every_participant_retrievable_by_own_tokens(self):
        rng = random.Random(72)
        network = random_network(rng)
        index = build_index(network)
        for s in network.spaces:
            for p in s.participants:
                for token in tokenize(p.label):
                    assert p.id in search(index, token)


class TestTraverse:
    def chain_network(self):
        return network_from(
            [
                {"kind": "system", "id": "a", "name": "A", "type": "application"},
                {"kind": "system", "id": "b", "name": "B", "type": "application"},
                {"kind": "system", "id": "c", "name": "C", "type": "application"},
                {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
                 "interface_name": "ab", "receiver_address": "http://1"},
                {"kind": "in_conf", "id": "i1", "owner_system_id": "b",
                 "interface_name": "ab", "endpoint_address": "http://1"},
                {"kind": "out_conf", "id": "o2", "owner_system_id": "b",
                 "interface_name": "bc", "receiver_address": "http://2"},
                {"kind": "in_conf", "id": "i2", "owner_system_id": "c",
                 "interface_name": "bc", "endpoint_address": "http://2"},
            ]
        )

    def test_depth_zero_only_start(self):
        index = build_index(self.chain_network())
        fragment = traverse(index, "srca/a", 0)
        assert list(fragment.participants()) == ["srca/a"]
        assert fragment.counts()["flows"] == 0

    def test_chain_depth_one(self):
        index = build_index(self.chain_network())
        fragment = traverse(index, "srca/a", 1)
        assert sorted(fragment.participants()) == ["srca/a", "srca/b"]
        flows = [f for s in fragment.spaces for f in s.flows]
        assert len(flows) == 1
        assert (flows[0].source, flows[0].target) == ("srca/a", "srca/b")

    def test_unknown_start(self):
        index = build_index(self.chain_network())
        with pytest.raises(KeyError, match="ghost"):
            traverse(index, "ghost", 1)

    def test_negative_depth(self):
        index = build_index(self.chain_network())
        with pytest.raises(ValueError, match="depth must be >= 0"):
            traverse(index, "srca/a", -1)

    def test_matches_bfs_oracle_on_random_networks(self):
        rng = random.Random(73)
        for _ in range(8):
            network = random_network(rng)
            index = build_index(network)
            adjacency = {}
            for s in network.spaces:
                for f in s.flows:
                    adjacency.setdefault(f.source, set()).add(f.target)
                    adjacency.setdefault(f.target, set()).add(f.source)
            start = sorted(network.participants())[0]
            for depth in (0, 1, 2, 5):
                fragment = traverse(index, start, depth)
                assert set(fragment.participants()) == bfs_nodes(start, adjacency, depth)

    @pytest.mark.parametrize("spaces", [None, ["integration"], ["business-process"]])
    def test_follow_links_matches_bfs_oracle_on_random_networks(self, spaces):
        rng = random.Random(77)
        for _ in range(8):
            network = linked_network(rng)
            assert network.participant_links and network.counts()["flows"]
            index = build_index(network)
            allowed = set(spaces or [s.name for s in network.spaces])
            space_of = {pid: p.space for pid, p in network.participants().items()}
            edges = [(f.source, f.target) for s in network.spaces for f in s.flows]
            edges += [(l.left, l.right) for l in network.participant_links]
            adjacency = {}
            for a, b in edges:
                if space_of[b] in allowed:
                    adjacency.setdefault(a, set()).add(b)
                if space_of[a] in allowed:
                    adjacency.setdefault(b, set()).add(a)
            for start in sorted(network.participants())[:6]:
                for depth in (0, 1, 2, 5):
                    fragment = traverse(index, start, depth, follow_links=True, spaces=spaces)
                    assert set(fragment.participants()) == bfs_nodes(start, adjacency, depth)

    def test_monotone_in_depth(self):
        rng = random.Random(74)
        network = random_network(rng)
        index = build_index(network)
        start = sorted(network.participants())[0]
        previous = set()
        for depth in range(5):
            now = set(traverse(index, start, depth).participants())
            assert previous <= now
            previous = now

    def test_follow_links_crosses_spaces(self):
        network = network_from(
            [
                {"kind": "system", "id": "erp", "name": "Order Engine",
                 "type": "application"},
                {"kind": "system", "id": "bp", "name": "Order Engine",
                 "type": "process", "space": "business-process"},
            ]
        )
        index = build_index(network)
        without = traverse(index, "srca/erp", 1, follow_links=False)
        assert len(without.participants()) == 1
        with_links = traverse(index, "srca/erp", 1, follow_links=True)
        assert len(with_links.participants()) == 2
        assert len(with_links.participant_links) == 1

    def test_space_filter_truncates(self):
        network = network_from(
            [
                {"kind": "system", "id": "erp", "name": "Order Engine",
                 "type": "application"},
                {"kind": "system", "id": "bp", "name": "Order Engine",
                 "type": "process", "space": "business-process"},
            ]
        )
        index = build_index(network)
        fragment = traverse(
            index, "srca/erp", 3, follow_links=True, spaces=["integration"]
        )
        assert list(fragment.participants()) == ["srca/erp"]

    def test_fragment_is_valid_network(self):
        rng = random.Random(75)
        network = random_network(rng)
        index = build_index(network)
        start = sorted(network.participants())[0]
        fragment = traverse(index, start, 2)
        # Round-trips through the canonical serialization.
        assert parse_network(export_json(fragment)) == fragment
        ids = set(fragment.participants())
        for s in fragment.spaces:
            for f in s.flows:
                assert f.source in ids and f.target in ids
