import importlib
import itertools
import random
import time

import pytest

from netloom.datalog import Program, StratificationError, evaluate, parse_program, stratify
from netloom.model import (
    ComplexProperty,
    InterfaceRef,
    Origin,
    RawStore,
    SystemEntity,
    content_id,
    to_facts,
)
from netloom.network import MessageFlowLink
from netloom.reconstruct import (
    ReconstructionError,
    builtin_program,
    flow_id_for,
    host_classes,
    merge_properties,
    reconstruct,
)

from generators import make_scenario
from helpers import commit_records, fact_base, store_from_sources
from oracles import sym_trans_closure, union_find_classes

# ``import netloom.reconstruct`` would give the re-exported function.
reconstruct_mod = importlib.import_module("netloom.reconstruct")


def sys_entity(src, obj, name, kind="application", props=None, complexes=(), space=None):
    o = Origin(src, obj, "test", 0)
    return SystemEntity.create(
        f"{src}/{obj}", name, kind, o,
        simple_props=props or {}, complex_props=complexes, space=space,
    )


class TestBuiltinProgram:
    def test_parses_and_stratifies(self):
        program = builtin_program()
        assert len(program.rules) >= 5
        strata = stratify(program)
        assert sum(len(s) for s in strata) == len(program.rules)

    def test_equiv_sys_matches_key_match_closure(self):
        # Oracle: brute-force pairwise key matches, then symmetric and
        # transitive closure over the matched components.
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 8)
            names = [f"Sys {rng.randint(0, 4)}" for _ in range(n)]
            sources = [rng.choice(["srca", "srcb", "srcc"]) for _ in range(n)]
            records = {}
            ids = []
            for i in range(n):
                records.setdefault(sources[i], []).append(
                    {"kind": "system", "id": f"s{i}", "name": names[i], "type": "application"}
                )
                ids.append(f"{sources[i]}/s{i}")
            store = store_from_sources(records)

            derived = evaluate(builtin_program(), to_facts(store))
            engine_pairs = derived.get("equiv_sys", set())
            base_pairs = {
                (ids[i], ids[j])
                for i in range(n)
                for j in range(n)
                if sources[i] != sources[j]
                and names[i].strip().lower() == names[j].strip().lower()
            }
            assert engine_pairs == sym_trans_closure(base_pairs)
            # The lifted partition is a true equivalence relation over
            # every system, singletons included.
            recon = reconstruct(store)
            assert sorted(
                m for members in recon.classes.systems.values() for m in members
            ) == sorted(ids)

    def test_host_equivalence_follows_system_equivalence(self):
        # A detected system equivalence leads to a host equivalence.
        edb = {
            "equiv_sys": {("s1", "s2")},
            "runs_on": {("s1", "h1"), ("s2", "h2")},
        }
        rules = parse_program(
            "equiv_host(H1, H2) :- equiv_sys(S1, S2), runs_on(S1, H1), runs_on(S2, H2)."
        )
        derived = evaluate(rules, edb)
        assert ("h1", "h2") in derived["equiv_host"]


class TestMergeProperties:
    def test_disjoint_props_union_no_conflicts(self):
        a = sys_entity("srca", "s1", "ERP", props={"desc": "ERP"})
        b = sys_entity("srcb", "s1", "ERP", props={"owner": "ops"})
        merged, conflicts = merge_properties([a, b])
        assert merged.props["desc"] == "ERP"
        assert merged.props["owner"] == "ops"
        assert conflicts == ()

    def test_trust_rank_resolves_conflicts_and_logs_loser(self):
        a = sys_entity("prod-source", "s1", "ERP", props={"env": "prod"})
        b = sys_entity("test-source", "s1", "ERP", props={"env": "test"})
        merged, conflicts = merge_properties([a, b], trust={"prod-source": 2, "test-source": 1})
        assert merged.props["env"] == "prod"
        assert len(conflicts) == 1
        conflict = conflicts[0]
        assert (conflict.loser_value, conflict.loser_source) == ("test", "test-source")

    def test_tie_breaks_on_lexicographic_source(self):
        a = sys_entity("srcb", "s1", "ERP", props={"env": "b-val"})
        b = sys_entity("srca", "s1", "ERP", props={"env": "a-val"})
        merged, _ = merge_properties([a, b])
        assert merged.props["env"] == "a-val"

    def test_complex_props_dedup_by_digest(self):
        o1, o2 = Origin("srca", "s1", "", 0), Origin("srcb", "s1", "", 0)
        equal_a = ComplexProperty.create("deploy", {"z": 1, "a": [1, 2]}, o1)
        equal_b = ComplexProperty.create("deploy", {"a": [1, 2], "z": 1}, o2)
        different = ComplexProperty.create("deploy", {"a": [9]}, o2)
        a = sys_entity("srca", "s1", "ERP", complexes=(equal_a,))
        b = sys_entity("srcb", "s1", "ERP", complexes=(equal_b, different))
        merged, _ = merge_properties([a, b])
        assert len(merged.complex_props) == 2
        digests = {cp.digest for cp in merged.complex_props}
        assert equal_a.digest in digests and different.digest in digests

    def test_order_insensitive_against_fold_oracle(self):
        rng = random.Random(31)
        for _ in range(15):
            members = []
            trust = {}
            for i in range(5):
                src = f"src{i % 3}"
                trust[src] = rng.randint(0, 2)
                props = {
                    f"k{rng.randint(0, 3)}": f"v{rng.randint(0, 2)}"
                    for _ in range(rng.randint(0, 4))
                }
                members.append(sys_entity(src, f"s{i}", "Same Name", props=props))

            # Oracle: pairwise fold with the stated rule, in random order.
            def fold(acc, member):
                for k, v in member.simple_props.items():
                    entry = (-trust.get(member.origin.source_id, 0),
                             member.origin.source_id, v)
                    if k not in acc or entry < acc[k]:
                        acc[k] = entry
                return acc

            expected = {}
            order = members[:]
            rng.shuffle(order)
            for m in order:
                fold(expected, m)
            expected_props = {k: e[2] for k, e in expected.items()}

            results = []
            for perm in itertools.permutations(members):
                results.append(merge_properties(list(perm), trust))
            assert all(r == results[0] for r in results)
            merged, _ = results[0]
            assert {**merged.props, "space": merged.space} == expected_props

    def test_empty_member_list_rejected(self):
        with pytest.raises(ReconstructionError, match="empty"):
            merge_properties([])


def erp_records(src_tag, props, complex_payload, flow_suffix, address):
    return [
        {
            "kind": "system",
            "id": "erp",
            "name": "ERP",
            "type": "application",
            **props,
            "deployment": complex_payload,
        },
        {
            "kind": "system",
            "id": "crm",
            "name": f"CRM {src_tag}",
            "type": "application",
        },
        {
            "kind": "out_conf",
            "id": f"oc-{flow_suffix}",
            "owner_system_id": "erp",
            "interface_name": f"if-{flow_suffix}",
            "receiver_address": address,
        },
        {
            "kind": "in_conf",
            "id": f"ic-{flow_suffix}",
            "owner_system_id": "crm",
            "interface_name": f"if-{flow_suffix}",
            "endpoint_address": address,
        },
    ]


class TestReconstruct:
    def test_two_sources_merge_props_and_complex(self):
        # Same system from two sources: simple props are added to the
        # joint instance, equivalent complex properties merge into one.
        payload = {"zone": "eu", "tier": ["web"]}
        records_a = erp_records("A", {"desc": "ERP"}, payload, "a", "http://a/1")
        records_b = erp_records("B", {"owner": "ops"}, payload, "b", "http://b/2")
        store = store_from_sources({"srca": records_a, "srcb": records_b})
        recon = reconstruct(store)

        erp = next(p for p in recon.participants if p.label == "ERP")
        assert recon.classes.systems[erp.id] == ("srca/erp", "srcb/erp")
        assert erp.props["desc"] == "ERP"
        assert erp.props["owner"] == "ops"
        assert len(erp.complex_props) == 1

    def test_new_source_adds_second_distinct_flow(self):
        # The merged system stays connected through two distinct flows.
        payload = {"zone": "eu"}
        records_a = erp_records("A", {}, payload, "a", "http://a/1")
        records_b = erp_records("B", {}, payload, "b", "http://b/2")
        store = store_from_sources({"srca": records_a, "srcb": records_b})
        recon = reconstruct(store)

        erp_id = next(p.id for p in recon.participants if p.label == "ERP")
        outgoing = [f for f in recon.flows if f.source == erp_id]
        assert len(outgoing) == 2
        assert {f.interface for f in outgoing} == {"if-a", "if-b"}

    def test_scattered_scenario_recovers_ground_truth(self):
        rng = random.Random(42)
        for _ in range(5):
            scenario = make_scenario(rng, n_systems=15, n_flows=25, n_sources=3)
            store = store_from_sources(scenario.source_records)
            recon = reconstruct(store)
            got = {(f.source, f.target, f.interface) for f in recon.flows}
            assert got == scenario.true_edges  # precision = recall = 1.0

    def test_equivalence_classes_match_manifest(self):
        rng = random.Random(43)
        scenario = make_scenario(rng, n_systems=12, n_flows=15, n_sources=3)
        store = store_from_sources(scenario.source_records)
        recon = reconstruct(store)
        for i, members in scenario.class_members.items():
            canonical = scenario.canonical_ids[i]
            assert recon.classes.systems.get(canonical) == tuple(sorted(members))

    def test_cross_middleware_flow(self):
        # Matching configs owned by systems from different sources.
        records_a = [
            {"kind": "system", "id": "a", "name": "App A", "type": "application"},
            {
                "kind": "out_conf",
                "id": "oc",
                "owner_system_id": "a",
                "interface_name": "orders",
                "receiver_address": "HTTP://Hub:80/orders/",
            },
        ]
        records_b = [
            {"kind": "system", "id": "b", "name": "App B", "type": "application"},
            {
                "kind": "in_conf",
                "id": "ic",
                "owner_system_id": "b",
                "interface_name": "orders",
                "endpoint_address": "http://hub/orders",
            },
        ]
        store = store_from_sources({"srca": records_a, "srcb": records_b})
        recon = reconstruct(store)
        assert len(recon.flows) == 1
        flow = recon.flows[0]
        assert flow.source == "srca/a"
        assert flow.target == "srcb/b"
        assert recon.supporting == {flow.id: (("srca/oc", "srcb/ic"),)}

    def test_flow_lifting_soundness(self):
        rng = random.Random(44)
        scenario = make_scenario(rng, n_systems=10, n_flows=18, n_sources=2)
        store = store_from_sources(scenario.source_records)
        recon = reconstruct(store)
        assert set(recon.supporting) == {f.id for f in recon.flows}
        for flow in recon.flows:
            assert recon.supporting[flow.id]
            for out_id, in_id in recon.supporting[flow.id]:
                oc = store.out_confs[out_id]
                ic = store.in_confs[in_id]
                assert oc.owner_system_id in recon.classes.systems[flow.source]
                assert ic.owner_system_id in recon.classes.systems[flow.target]

    def test_duplicate_snapshot_under_new_source_id_same_classes(self):
        records = [
            {"kind": "system", "id": "s1", "name": "ERP", "type": "application"},
            {"kind": "system", "id": "s2", "name": "CRM", "type": "application"},
        ]
        store = store_from_sources({"srca": records})
        baseline = len(reconstruct(store).participants)
        duplicated = store_from_sources({"srca": records, "srcb": records})
        assert len(reconstruct(duplicated).participants) == baseline

    def test_merge_idempotence_at_fixpoint(self):
        rng = random.Random(45)
        scenario = make_scenario(rng, n_systems=8, n_flows=10, n_sources=2)
        store = store_from_sources(scenario.source_records)
        facts = to_facts(store)
        derived = evaluate(builtin_program(), facts)
        model = fact_base(facts, derived)
        again = evaluate(builtin_program(), model)
        assert all(rows <= model.get(pred, set()) for pred, rows in again.items())

    def test_extra_rules_can_extend_equivalence(self):
        records_a = [
            {"kind": "system", "id": "x", "name": "Billing", "type": "application",
             "serial": "777"},
        ]
        records_b = [
            {"kind": "system", "id": "y", "name": "Payments", "type": "application",
             "serial": "777"},
        ]
        store = store_from_sources({"srca": records_a, "srcb": records_b})
        assert len(reconstruct(store).participants) == 2
        extra = parse_program(
            'equiv_sys(A, B) :- prop(A, "serial", S), prop(B, "serial", S).'
        )
        recon = reconstruct(store, extra_rules=extra)
        assert len(recon.participants) == 1
        assert recon.classes.systems == {"srca/x": ("srca/x", "srcb/y")}

    def test_classes_through_ids_outside_the_store_match_union_find(self):
        # Extra rules pair store entities with ids the store lacks. The
        # closed rows then pair those entities with each other directly,
        # and the classes must equal a union-find over the rows that
        # pair two store ids.
        rng = random.Random(48)
        scenario = make_scenario(rng, n_systems=12, n_flows=6, n_sources=3)
        store = store_from_sources(scenario.source_records)
        extra = parse_program(
            'equiv_sys(A, "ghost") :- system(A, _, "tenant").\n'
            'equiv_sys(A, 7) :- system(A, _, "middleware"), origin(A, "srcb", _).\n'
            'equiv_host(H, "nowhere") :- runs_on(S, H), system(S, _, "tenant").'
        )
        recon = reconstruct(store, extra_rules=extra)
        derived = evaluate(builtin_program().union(extra), to_facts(store))
        for pred, members, classes in (
            ("equiv_sys", store.systems, recon.classes.systems),
            ("equiv_host", store.hosts, recon.classes.hosts),
        ):
            pairs = {(a, b) for a, b in derived[pred] if a in members and b in members}
            assert classes == union_find_classes(members, pairs)
        tenants = sorted(s.id for s in store.systems.values() if s.kind == "tenant")
        assert len(tenants) > 2
        assert tuple(tenants) in recon.classes.systems.values()

    def test_extra_rules_must_not_redefine_edb(self):
        store = RawStore.empty()
        extra = parse_program('system(a, "X", k) :- host(a, "h").')
        with pytest.raises(ReconstructionError, match="system"):
            reconstruct(store, extra_rules=extra)

    def test_correlation_lifts_to_cross_space_link(self):
        records_a = [
            {"kind": "system", "id": "erp", "name": "ERP", "type": "application"},
        ]
        records_b = [
            {"kind": "system", "id": "proc", "name": "Order to Cash",
             "type": "process", "space": "business-process"},
            {"kind": "correlation", "id": "c1",
             "left_space": "business-process", "left_id": "proc",
             "right_space": "integration", "right_id": "srca/erp",
             "link_kind": "implemented-by"},
        ]
        store = store_from_sources({"srca": records_a, "srcb": records_b})
        recon = reconstruct(store)
        assert len(recon.participant_links) == 1
        link = recon.participant_links[0]
        assert link.kind == "implemented-by"
        space = {p.id: p.space for p in recon.participants}
        assert {space[link.left], space[link.right]} == {"integration", "business-process"}

    def test_same_name_cross_space_link(self):
        records = [
            {"kind": "system", "id": "erp", "name": "Order Engine", "type": "application"},
            {"kind": "system", "id": "bp", "name": "Order Engine",
             "type": "process", "space": "business-process"},
        ]
        store = store_from_sources({"srca": records})
        recon = reconstruct(store)
        assert any(l.kind == "same-name" for l in recon.participant_links)

    def test_correlation_between_flows_lifts_to_flow_link(self):
        # An integration flow and a business-process flow, bridged by a
        # correlation that names the derived flow ids.
        integration_flow_id = flow_id_for("srca/a", "srca/b", InterfaceRef("wire"))
        business_flow_id = flow_id_for("srca/p", "srca/q", InterfaceRef("doc"))
        records = [
            {"kind": "system", "id": "a", "name": "App A", "type": "application"},
            {"kind": "system", "id": "b", "name": "App B", "type": "application"},
            {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
             "interface_name": "wire", "receiver_address": "http://1"},
            {"kind": "in_conf", "id": "i1", "owner_system_id": "b",
             "interface_name": "wire", "endpoint_address": "http://1"},
            {"kind": "system", "id": "p", "name": "Proc P", "type": "process",
             "space": "business-process"},
            {"kind": "system", "id": "q", "name": "Proc Q", "type": "process",
             "space": "business-process"},
            {"kind": "out_conf", "id": "o2", "owner_system_id": "p",
             "interface_name": "doc", "receiver_address": "doc://x"},
            {"kind": "in_conf", "id": "i2", "owner_system_id": "q",
             "interface_name": "doc", "endpoint_address": "doc://x"},
            {"kind": "correlation", "id": "c1",
             "left_space": "business-process", "left_id": business_flow_id,
             "right_space": "integration", "right_id": integration_flow_id,
             "link_kind": "realized-by"},
        ]
        recon = reconstruct(store_from_sources({"srca": records}))
        assert recon.flow_links == (
            MessageFlowLink(
                content_id("fl", business_flow_id, integration_flow_id, "realized-by"),
                business_flow_id,
                integration_flow_id,
                "realized-by",
            ),
        )

    def test_correlation_naming_unknown_flow_contributes_nothing(self):
        records = [
            {"kind": "system", "id": "a", "name": "A", "type": "application"},
            {"kind": "correlation", "id": "c1",
             "left_space": "business-process", "left_id": "flow:doesnotexist00",
             "right_space": "integration", "right_id": "flow:alsomissing0000",
             "link_kind": "realized-by"},
        ]
        recon = reconstruct(store_from_sources({"srca": records}))
        assert recon.flow_links == ()
        assert recon.participant_links == ()

    @pytest.mark.parametrize("flow_side", ["left", "right"])
    def test_correlation_of_a_flow_and_a_system_contributes_nothing(self, flow_side):
        flow = flow_id_for("srca/a", "srca/b", InterfaceRef("wire"))
        ends = {"left": ("integration", flow), "right": ("business-process", "srca/p")}
        if flow_side == "right":
            ends = {"left": ends["right"], "right": ends["left"]}
        records = [
            {"kind": "system", "id": "a", "name": "App A", "type": "application"},
            {"kind": "system", "id": "b", "name": "App B", "type": "application"},
            {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
             "interface_name": "wire", "receiver_address": "http://1"},
            {"kind": "in_conf", "id": "i1", "owner_system_id": "b",
             "interface_name": "wire", "endpoint_address": "http://1"},
            {"kind": "system", "id": "p", "name": "Proc P", "type": "process",
             "space": "business-process"},
            {"kind": "correlation", "id": "c1",
             "left_space": ends["left"][0], "left_id": ends["left"][1],
             "right_space": ends["right"][0], "right_id": ends["right"][1],
             "link_kind": "realized-by"},
        ]
        recon = reconstruct(store_from_sources({"srca": records}))
        assert [f.id for f in recon.flows] == [flow]
        assert recon.flow_links == ()
        assert recon.participant_links == ()

    def test_stale_cross_source_references_survive_shrinking_reload(self):
        # srcb's config references srca's system; srca then reloads
        # without it. Inference must keep working and simply drop the
        # evidence that no longer resolves.
        records_a = [
            {"kind": "system", "id": "erp", "name": "ERP", "type": "application"},
            {"kind": "system", "id": "gw", "name": "Gateway", "type": "middleware"},
        ]
        records_b = [
            {"kind": "system", "id": "crm", "name": "CRM", "type": "application"},
            {"kind": "out_conf", "id": "oc", "owner_system_id": "srca/erp",
             "interface_name": "x", "receiver_address": "http://1"},
            {"kind": "in_conf", "id": "ic", "owner_system_id": "crm",
             "interface_name": "x", "endpoint_address": "http://1"},
        ]
        store = store_from_sources({"srca": records_a, "srcb": records_b})
        assert len(reconstruct(store).flows) == 1
        shrunk = commit_records(store, [records_a[1]], "srca")
        recon = reconstruct(shrunk)
        assert recon.flows == ()
        assert {p.label for p in recon.participants} == {"Gateway", "CRM"}

    def test_same_space_correlation_rejected(self):
        records = [
            {"kind": "system", "id": "a", "name": "A", "type": "application"},
            {"kind": "system", "id": "b", "name": "B", "type": "application"},
            {"kind": "correlation", "id": "c1",
             "left_space": "integration", "left_id": "a",
             "right_space": "integration", "right_id": "b",
             "link_kind": "related"},
        ]
        store = store_from_sources({"srca": records})
        with pytest.raises(ReconstructionError, match="bridge"):
            reconstruct(store)

    def test_same_space_flow_correlation_rejected(self):
        # Two integration flows named by one correlation: the flow link
        # would not bridge spaces.
        first = flow_id_for("srca/a", "srca/b", InterfaceRef("one"))
        second = flow_id_for("srca/b", "srca/a", InterfaceRef("two"))
        records = [
            {"kind": "system", "id": "a", "name": "App A", "type": "application"},
            {"kind": "system", "id": "b", "name": "App B", "type": "application"},
            {"kind": "out_conf", "id": "o1", "owner_system_id": "a",
             "interface_name": "one", "receiver_address": "http://1"},
            {"kind": "in_conf", "id": "i1", "owner_system_id": "b",
             "interface_name": "one", "endpoint_address": "http://1"},
            {"kind": "out_conf", "id": "o2", "owner_system_id": "b",
             "interface_name": "two", "receiver_address": "http://2"},
            {"kind": "in_conf", "id": "i2", "owner_system_id": "a",
             "interface_name": "two", "endpoint_address": "http://2"},
            {"kind": "correlation", "id": "c1",
             "left_space": "integration", "left_id": first,
             "right_space": "integration", "right_id": second,
             "link_kind": "related"},
        ]
        store = store_from_sources({"srca": records})
        with pytest.raises(ReconstructionError, match="must bridge different spaces"):
            reconstruct(store)

    def test_conflicts_match_merge_properties_per_class(self):
        # Oracle: every source stamps its own value of "owner" on each
        # system it reports (some sources agree), so classes spanning
        # sources disagree. Each lifted participant, in class order, and
        # its conflicts must be what merge_properties makes of its class,
        # with only non-empty conflicts kept.
        rng = random.Random(49)
        seen = 0
        for _ in range(6):
            scenario = make_scenario(rng, n_systems=15, n_flows=10, n_sources=3)
            records = {
                src: [
                    {**r, "owner": f"team-{rng.randint(0, 2)}"}
                    if r["kind"] == "system" else r
                    for r in recs
                ]
                for src, recs in scenario.source_records.items()
            }
            store = store_from_sources(records)
            recon = reconstruct(store)
            classes = sorted(recon.classes.systems.items())
            assert len(recon.participants) == len(classes)
            for participant, (pid, members) in zip(recon.participants, classes):
                expected = merge_properties([store.systems[m] for m in members])
                assert (participant, recon.conflicts.get(pid, ())) == expected
                seen += len(expected[1])
            assert all(recon.conflicts.values())
        assert seen > 0

    def test_hosts_merge_via_shared_hostname_and_propagation(self):
        rng = random.Random(46)
        scenario = make_scenario(rng, n_systems=10, n_flows=5, n_sources=3)
        store = store_from_sources(scenario.source_records)
        recon = reconstruct(store)
        for i, canonical in scenario.host_canonical_ids.items():
            assert canonical in recon.classes.hosts

    def test_large_same_key_class_merges_without_cubic_cost(self):
        # One class of 200 same-key systems over two sources: the closure
        # is 40,000 pairs, which a join over the transitivity rule would
        # build in ~k^3 steps (~40 s); kept as classes it takes ~1 s.
        records = {"srca": [], "srcb": []}
        for i in range(200):
            name = " hot KEY " if i % 3 == 0 else "Hot Key"
            records["srca" if i % 2 else "srcb"].append(
                {"kind": "system", "id": f"s{i}", "name": name, "type": "application"}
            )
        store = store_from_sources(records)
        start = time.perf_counter()
        recon = reconstruct(store)
        elapsed = time.perf_counter() - start
        assert len(recon.participants) == 1
        assert [len(ms) for ms in recon.classes.systems.values()] == [200]
        assert elapsed < 10.0

    def test_deterministic_output(self):
        rng = random.Random(47)
        scenario = make_scenario(rng, n_systems=10, n_flows=12, n_sources=3)
        store = store_from_sources(scenario.source_records)
        assert reconstruct(store) == reconstruct(store)


class TestProgramSlice:
    """``reconstruct`` evaluates only the rules that the lifted
    predicates depend on; host classes come from their own slice."""

    def test_localhost_hosts_derive_no_equiv_host_or_flow_row(self, monkeypatch):
        records = {"srca": [], "srcb": []}
        for i in range(800):
            records["srca" if i % 2 else "srcb"].append(
                {"kind": "host", "id": f"h{i}", "hostname": "localhost"}
            )
        records["srca"] += [
            {"kind": "system", "id": "s", "name": "ERP", "type": "application"},
            {"kind": "runs_on", "id": "r", "system_id": "s", "host_id": "h1"},
        ]
        store = store_from_sources(records)
        derived = []
        real = reconstruct_mod.evaluate

        def recording(program, edb):
            idb = real(program, edb)
            derived.append(idb)
            return idb

        monkeypatch.setattr(reconstruct_mod, "evaluate", recording)
        recon = reconstruct(store)
        assert len(derived) == 1
        assert not derived[0].keys() & {"equiv_host", "flow"}
        hosts = sorted(store.hosts)
        chain = set(zip(hosts, hosts[1:]))
        assert recon.classes.hosts == union_find_classes(store.hosts, chain)
        assert len(derived) == 2 and derived[1]["equiv_host"]

    def test_extra_rule_reading_equiv_host_merges_systems_on_a_shared_hostname(
        self, monkeypatch
    ):
        records = {
            "srca": [
                {"kind": "system", "id": "x", "name": "Billing", "type": "application"},
                {"kind": "host", "id": "h", "hostname": "pay.example.net"},
                {"kind": "runs_on", "id": "r", "system_id": "x", "host_id": "h"},
            ],
            "srcb": [
                {"kind": "system", "id": "y", "name": "Payments", "type": "application"},
                {"kind": "host", "id": "h", "hostname": "PAY.example.net"},
                {"kind": "runs_on", "id": "r", "system_id": "y", "host_id": "h"},
            ],
        }
        store = store_from_sources(records)
        assert len(reconstruct(store).participants) == 2
        extra = parse_program(
            "equiv_sys(A, B) :- runs_on(A, H1), runs_on(B, H2), equiv_host(H1, H2), "
            "system(A, _, K), system(B, _, K)."
        )
        recon = reconstruct(store, extra_rules=extra)
        assert recon.classes.systems == {"srca/x": ("srca/x", "srcb/y")}
        (merged,) = recon.participants
        assert merged.origins == (("srca", "x"), ("srcb", "y"))
        monkeypatch.setattr(Program, "slice", lambda self, predicates: self)
        assert recon == reconstruct(store, extra_rules=extra)

    def test_negative_cycle_outside_the_slice_still_fails(self):
        store = store_from_sources(
            {"srca": [{"kind": "system", "id": "s", "name": "ERP", "type": "application"}]}
        )
        extra = parse_program(
            "p(X) :- system(X, _, _), not q(X).\nq(X) :- system(X, _, _), not p(X)."
        )
        with pytest.raises(StratificationError, match="negative cycle"):
            reconstruct(store, extra_rules=extra)
        with pytest.raises(StratificationError, match="negative cycle"):
            host_classes(store, extra_rules=extra)


class TestFlowIds:
    def test_stable(self):
        a = flow_id_for("x", "y", InterfaceRef("if1", "urn:n", "op"))
        b = flow_id_for("x", "y", InterfaceRef("if1", "urn:n", "op"))
        assert a == b and a.startswith("flow:")

    def test_distinct_per_interface(self):
        assert flow_id_for("x", "y", InterfaceRef("if1")) != flow_id_for(
            "x", "y", InterfaceRef("if2")
        )
