import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netloom.datalog import (
    Atom,
    ParseError,
    Program,
    Rule,
    StratificationError,
    Variable,
    _closure_rules,
    _format_term,
    _generate_rule_functions,
    evaluate,
    evaluate_naive,
    parse_program,
    stratify,
)

from generators import random_builtin_program, random_program_text
from helpers import cyclic_garbage, fact_base
from oracles import reachability_closure, sym_trans_closure

TC_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def edges_to_facts(edges):
    return {"edge": set(edges)}


def path_pairs(derived):
    return derived.get("path", set())


SYMMETRY = "eq(B, A) :- eq(A, B)."
TRANSITIVITY = "eq(A, C) :- eq(A, B), eq(B, C)."
EQ_RULES = f"{SYMMETRY}\n{TRANSITIVITY}\neq(X, Y) :- link(X, Y).\n"


def random_pair_facts(rng, pred, n_pairs, consts):
    return {pred: {(rng.choice(consts), rng.choice(consts)) for _ in range(n_pairs)}}


def eq_pairs(derived):
    return derived.get("eq", set())


class TestParser:
    def test_single_rule(self):
        program = parse_program("path(X,Y) :- edge(X,Y).")
        assert len(program.rules) == 1
        assert program.arities == {"path": 2, "edge": 2}

    def test_unsafe_negation_reports_variable(self):
        with pytest.raises(ParseError, match="unsafe variable X"):
            parse_program("p(X) :- not q(X).")

    def test_empty_text_is_empty_program(self):
        program = parse_program("")
        assert program.rules == ()

    def test_unsafe_head_variable(self):
        with pytest.raises(ParseError, match="unsafe variable Y"):
            parse_program("p(X, Y) :- q(X).")

    def test_unsafe_comparison_variable(self):
        with pytest.raises(ParseError, match="unsafe variable Y"):
            parse_program("p(X) :- q(X), X < Y.")

    def test_arity_conflict(self):
        with pytest.raises(ParseError, match="arity conflict for q"):
            parse_program("p(X) :- q(X). r(X) :- q(X, X).")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X) :- q(X)\nr(Y) :- q(Y).")
        assert err.value.line is not None

    def test_end_of_input_in_rule_body_reports_position(self):
        # The error points just past the trailing comma (line 1, col 13).
        with pytest.raises(ParseError, match="line 1, column 14") as err:
            parse_program("p(X) :- q(X),")
        assert (err.value.line, err.value.column) == (1, 14)

    def test_comments_and_multiline(self):
        program = parse_program(
            """% transitive closure
            path(X, Y) :-
                edge(X, Y).   % base case
            """
        )
        assert len(program.rules) == 1

    def test_duplicate_rules_are_merged(self):
        program = parse_program("p(X) :- q(X). p(X) :- q(X).")
        assert len(program.rules) == 1

    def test_quoted_strings_and_integers(self):
        program = parse_program('p(X) :- q(X, "Hello \\"World\\"", 42).')
        atom = program.rules[0].body[0]
        assert atom.args[1] == 'Hello "World"'
        assert atom.args[2] == 42

    def test_zero_arity_atoms(self):
        program = parse_program("p :- q.")
        assert program.arities == {"p": 0, "q": 0}

    def test_reserved_head(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_program("norm_eq(X, Y) :- q(X, Y).")

    def test_infix_builtins(self):
        program = parse_program("p(X) :- q(X, Y), X != Y, X <= Y, X < Y, X = Y.")
        assert len(program.rules[0].body) == 5

    def test_norm_eq_call_form(self):
        program = parse_program("p(X) :- q(X, Y), norm_eq(X, Y).")
        comp = program.rules[0].body[1]
        assert comp.op == "norm_eq"


class TestStratify:
    def test_negation_forces_two_strata(self):
        program = parse_program("p :- not q. q :- r.")
        strata = stratify(program)
        assert len(strata) == 2
        assert str(strata[0][0]) == "q :- r."
        assert str(strata[1][0]) == "p :- not q."

    def test_positive_program_single_stratum(self):
        strata = stratify(parse_program(TC_RULES))
        assert len(strata) == 1
        assert len(strata[0]) == 2

    def test_negative_cycle_rejected(self):
        program = parse_program("p :- not q. q :- not p.")
        with pytest.raises(StratificationError, match="negative cycle"):
            stratify(program)

    def test_concatenation_preserves_rules(self):
        program = parse_program("a(X) :- b(X). c(X) :- a(X), not b(X). b(X) :- d(X).")
        strata = stratify(program)
        flattened = [r for s in strata for r in s]
        assert sorted(map(str, flattened)) == sorted(map(str, program.rules))


class TestEvaluate:
    def test_transitive_closure_small(self):
        program = parse_program(TC_RULES)
        derived = evaluate(program, edges_to_facts({("a", "b"), ("b", "c")}))
        assert path_pairs(derived) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_empty_edb_no_bodyless_rules(self):
        program = parse_program(TC_RULES)
        assert evaluate(program, {}) == {}

    def test_random_graph_matches_reachability_oracle(self):
        rng = random.Random(7)
        nodes = [f"n{i}" for i in range(30)]
        edges = set()
        for _ in range(60):
            edges.add((rng.choice(nodes), rng.choice(nodes)))
        expected = reachability_closure(nodes, edges)
        derived = evaluate(parse_program(TC_RULES), edges_to_facts(edges))
        assert path_pairs(derived) == expected

    def test_negation(self):
        program = parse_program(
            """
            reachable(X, Y) :- edge(X, Y).
            reachable(X, Z) :- reachable(X, Y), edge(Y, Z).
            node(X) :- edge(X, Y).
            node(Y) :- edge(X, Y).
            isolated_from_a(X) :- node(X), not reachable(a, X).
            """
        )
        derived = evaluate(program, edges_to_facts({("a", "b"), ("c", "d")}))
        isolated = {x for (x,) in derived["isolated_from_a"]}
        assert isolated == {"a", "c", "d"}

    def test_builtin_comparisons_are_type_strict(self):
        program = parse_program("same(X, Y) :- val(X), val(Y), X = Y.")
        derived = evaluate(program, {"val": {(1,), ("1",)}})
        assert derived["same"] == {(1, 1), ("1", "1")}

    def test_norm_eq_matches_despite_case_and_spacing(self):
        program = parse_program("m(X, Y) :- l(X), r(Y), norm_eq(X, Y).")
        derived = evaluate(program, {"l": {("Queue.A ",)}, "r": {("queue.a",)}})
        assert derived == {"m": {("Queue.A ", "queue.a")}}

    def test_equality_is_a_filter_not_a_binder(self):
        # Y never appears in a positive atom: unsafe per the dialect.
        with pytest.raises(ParseError, match="unsafe variable Y"):
            parse_program('tagged(X, Y) :- item(X), Y = "fixed".')

    def test_equality_against_constant(self):
        program = parse_program('keep(X) :- item(X, T), T = "good".')
        derived = evaluate(program, {"item": {("a", "good"), ("b", "bad")}})
        assert derived == {"keep": {("a",)}}

    def test_bodyless_rule_emits_fact(self):
        derived = evaluate(parse_program("root(a)."), {})
        assert derived == {"root": {("a",)}}

    def test_edb_fact_not_reported_as_derived(self):
        program = parse_program(TC_RULES)
        edb = {"edge": {("a", "b")}, "path": {("a", "b")}}
        assert evaluate(program, edb) == {}

    def test_non_ground_edb_rejected(self):
        program = parse_program(TC_RULES)
        with pytest.raises(ValueError, match="not ground"):
            evaluate(program, {"edge": {(Variable("X"), "b")}})

    def test_naive_rejects_non_ground_edb(self):
        program = parse_program(TC_RULES)
        with pytest.raises(ValueError, match="not ground"):
            evaluate_naive(program, {"edge": {(Variable("X"), "b")}})

    @pytest.mark.parametrize("evaluator", [evaluate, evaluate_naive])
    def test_edb_row_conflicting_with_program_arity_rejected(self, evaluator):
        program = parse_program(TC_RULES)
        with pytest.raises(ValueError, match="conflict in arity"):
            evaluator(program, {"edge": {("a", "b", "c")}})

    @pytest.mark.parametrize("evaluator", [evaluate, evaluate_naive])
    def test_edb_rows_of_mixed_length_rejected(self, evaluator):
        program = parse_program(TC_RULES)
        with pytest.raises(ValueError, match="conflict in arity"):
            evaluator(program, {"node": {("a",), ("b", "c")}})

    @pytest.mark.parametrize("evaluator", [evaluate, evaluate_naive])
    def test_edb_is_not_mutated(self, evaluator):
        # eq is an equivalence predicate, whose EDB rows seed classes.
        program = parse_program(EQ_RULES + TC_RULES)
        edb = {"edge": {("a", "b"), ("b", "c")}, "eq": {("a", "b")}, "path": {("a", "b")}}
        before = {pred: set(rows) for pred, rows in edb.items()}
        evaluator(program, edb)
        assert edb == before

    def test_accepts_any_iterable_of_rows(self):
        program = parse_program(TC_RULES)
        rows = [("a", "b"), ("b", "c"), ("a", "b")]
        assert evaluate(program, {"edge": iter(rows)}) == evaluate(
            program, {"edge": set(rows)}
        )


class TestEvaluateNaive:
    def test_matches_evaluate_on_tc(self):
        program = parse_program(TC_RULES)
        edb = edges_to_facts({("a", "b"), ("b", "c"), ("c", "a")})
        assert evaluate_naive(program, edb) == evaluate(program, edb)

    def test_single_fact_no_rules(self):
        assert evaluate_naive(parse_program(""), {"p": {("a",)}}) == {}

    def test_bodyless_rule(self):
        assert evaluate_naive(parse_program("root(a)."), {}) == {"root": {("a",)}}


class TestFixpointProperties:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60)
    def test_semi_naive_equals_naive(self, seed):
        rng = random.Random(seed)
        rules, facts_text = random_program_text(rng)
        program = parse_program(rules)
        edb = fact_base(facts_text)
        assert evaluate(program, edb) == evaluate_naive(program, edb)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_idempotence(self, seed):
        rng = random.Random(seed)
        rules, facts_text = random_program_text(rng)
        program = parse_program(rules)
        edb = fact_base(facts_text)
        derived = evaluate(program, edb)
        model = fact_base(edb, derived)
        again = evaluate(program, model)
        assert all(rows <= model.get(pred, set()) for pred, rows in again.items())
        # The full model is unchanged by feeding derived facts back in.
        assert fact_base(again, edb, derived) == fact_base(derived, edb)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_monotone_under_new_edb_fact_without_negation(self, seed):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(6)]
        edges = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(6)}
        extra = (rng.choice(nodes), rng.choice(nodes))
        program = parse_program(TC_RULES)
        before = evaluate(program, edges_to_facts(edges))
        after = evaluate(program, edges_to_facts(edges | {extra}))
        assert path_pairs(before) <= path_pairs(after)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60)
    def test_slice_derives_the_same_rows_of_its_predicates(self, seed):
        rng = random.Random(seed)
        rules, edb = random_builtin_program(rng)
        program = parse_program(rules)
        preds = sorted(program.arities)
        wanted = set(rng.sample(preds, rng.randint(1, len(preds))))
        sliced = program.slice(wanted)
        assert sliced.arities == program.arities
        assert set(sliced.rules) <= set(program.rules)

        def restricted(derived):
            return {p: rows for p, rows in derived.items() if p in wanted}

        expected = restricted(evaluate(program, edb))
        assert restricted(evaluate(sliced, edb)) == expected
        assert restricted(evaluate_naive(program, edb)) == expected

    def test_slice_follows_negated_atoms_and_keeps_whole_predicates(self):
        program = parse_program(
            "a(X) :- b(X), not c(X).\n"
            "c(X) :- d(X).\n"
            "c(X) :- e(X).\n"
            "f(X) :- a(X).\n"
        )
        assert program.slice({"a"}).rules == program.rules[:3]
        assert program.slice({"c"}).rules == program.rules[1:3]
        assert program.slice({"d", "g"}).rules == ()
        assert program.slice(set()) == Program((), program.arities)
        # Only the derived c(2) keeps a(2) out.
        edb = {"b": {(1,), (2,)}, "e": {(2,)}}
        assert evaluate(program.slice({"a"}), edb)["a"] == {(1,)}

    def test_determinism_across_edb_orderings(self):
        rng = random.Random(3)
        rules, facts_text = random_program_text(rng)
        program = parse_program(rules)
        lines = facts_text.splitlines()
        baseline = evaluate(program, fact_base(facts_text))
        for _ in range(5):
            rng.shuffle(lines)
            assert evaluate(program, fact_base("\n".join(lines))) == baseline


class TestEquivalencePredicates:
    """A predicate with both closure rules is kept as disjoint classes;
    every case must still agree with the naive reference evaluator."""

    def test_detection_ignores_variable_names_and_body_order(self):
        program = parse_program(
            "e(Q, P) :- e(P, Q). e(X, Z) :- e(Y, Z), e(X, Y). e(X, Y) :- l(X, Y)."
        )
        assert set(_closure_rules(program.rules)) == {"e"}
        assert evaluate(program, {"l": {("a", "b")}}) == {
            "e": {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")},
        }

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40)
    def test_random_pairs_match_naive_and_closure_oracle(self, seed):
        rng = random.Random(seed)
        consts = [f"c{i}" for i in range(rng.randint(2, 12))]
        edb = random_pair_facts(rng, "link", rng.randint(0, 15), consts)
        derived = evaluate(parse_program(EQ_RULES), edb)
        assert derived == evaluate_naive(parse_program(EQ_RULES), edb)
        assert eq_pairs(derived) == sym_trans_closure(edb["link"])

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_edb_facts_seed_the_classes(self, seed):
        rng = random.Random(seed)
        consts = [f"c{i}" for i in range(8)]
        edb = fact_base(
            random_pair_facts(rng, "link", rng.randint(0, 8), consts),
            random_pair_facts(rng, "eq", rng.randint(1, 8), consts),
        )
        program = parse_program(EQ_RULES)
        assert evaluate(program, edb) == evaluate_naive(program, edb)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_mixed_int_and_string_constants(self, seed):
        rng = random.Random(seed)
        consts = [0, 1, 2, "0", "1", "2", "a"]
        edb = fact_base(
            random_pair_facts(rng, "link", rng.randint(1, 10), consts),
            random_pair_facts(rng, "eq", rng.randint(0, 3), consts),
        )
        program = parse_program(EQ_RULES)
        assert evaluate(program, edb) == evaluate_naive(program, edb)

    def test_int_and_string_ids_stay_distinct(self):
        edb = {"link": {(1, "a"), ("1", "b")}}
        pairs = eq_pairs(evaluate(parse_program(EQ_RULES), edb))
        assert (1, "a") in pairs and ("1", "b") in pairs
        assert (1, "1") not in pairs and ("a", "b") not in pairs

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_same_stratum_rules_read_and_feed_the_predicate(self, seed):
        rng = random.Random(seed)
        consts = [f"c{i}" for i in range(8)]
        program = parse_program(
            EQ_RULES
            + """
            tagged(X, Y) :- eq(X, Y), tag(Y).
            eq(X, Y) :- tagged(X, Z), hop(Z, Y).
            """
        )
        edb = fact_base(
            random_pair_facts(rng, "link", rng.randint(0, 6), consts),
            random_pair_facts(rng, "hop", rng.randint(0, 6), consts),
            {"tag": {(rng.choice(consts),) for _ in range(rng.randint(0, 3))}},
        )
        assert len(stratify(program)) == 1
        assert evaluate(program, edb) == evaluate_naive(program, edb)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30)
    def test_negation_in_a_higher_stratum(self, seed):
        rng = random.Random(seed)
        consts = [f"c{i}" for i in range(6)]
        program = parse_program(
            EQ_RULES
            + """
            node(X) :- link(X, _).
            node(Y) :- link(_, Y).
            apart(X, Y) :- node(X), node(Y), not eq(X, Y).
            """
        )
        edb = random_pair_facts(rng, "link", rng.randint(1, 8), consts)
        derived = evaluate(program, edb)
        assert derived == evaluate_naive(program, edb)
        assert not derived.get("apart", set()) & eq_pairs(derived)

    @pytest.mark.parametrize("closure_rule", [SYMMETRY, TRANSITIVITY])
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20)
    def test_one_closure_rule_alone_is_evaluated_as_written(self, closure_rule, seed):
        rng = random.Random(seed)
        consts = [f"c{i}" for i in range(8)]
        program = parse_program(f"{closure_rule}\neq(X, Y) :- link(X, Y).")
        assert _closure_rules(program.rules) == {}
        edb = fact_base(
            random_pair_facts(rng, "link", rng.randint(1, 10), consts),
            random_pair_facts(rng, "eq", rng.randint(0, 3), consts),
        )
        assert evaluate(program, edb) == evaluate_naive(program, edb)

    def test_transitivity_alone_stays_directed(self):
        program = parse_program(f"{TRANSITIVITY}\neq(X, Y) :- link(X, Y).")
        edb = {"link": {("a", "b"), ("b", "c")}}
        assert eq_pairs(evaluate(program, edb)) == {("a", "b"), ("b", "c"), ("a", "c")}


class TestGeneratedPlans:
    """``evaluate`` runs each rule as a function generated from source;
    these cases aim at the paths of that generator that are easy
    to get wrong, each checked against the naive evaluator."""

    @staticmethod
    def both(rules, edb):
        program = parse_program(rules)
        derived = evaluate(program, edb)
        assert derived == evaluate_naive(program, edb)
        return derived

    def test_comparison_and_bind_before_the_first_scan(self):
        edb = {"q": {("a",), ("b",), (1,)}}
        assert self.both("p(X) :- 1 < 2, q(X).", edb) == {"p": edb["q"]}
        assert self.both("p(X) :- 2 < 1, q(X).", edb) == {}
        assert self.both('p(X) :- X = "b", q(X).', edb) == {"p": {("b",)}}
        assert self.both("p(X) :- X = 1, q(X).", edb) == {"p": {(1,)}}
        assert self.both("p :- 1 <= 1. r :- 1 = 2.", {}) == {"p": {()}}

    def test_string_constants_are_not_spliced_into_source(self):
        odd = ['say "hi"', "back\\slash", "two\nlines", "naïve ü 😀", '"), print("x', "{v0}"]
        edb = {"q": {(s, i) for i, s in enumerate(odd)} | {("x", 7)}}
        for i, s in enumerate(odd):
            rules = f"p(X) :- q({_format_term(s)}, X). h({_format_term(s)}, 7) :- q(_, 7)."
            derived = self.both(rules, edb)
            assert derived == {"p": {(i,)}, "h": {(s, 7)}}
        assert self.both("p(S) :- q(S, 7). p(S) :- q(S, -1).", edb) == {"p": {("x",)}}

    def test_zero_arity_heads_and_bodies(self):
        rules = """
        flag :- q(_).
        r(X) :- flag, q(X).
        s :- flag, not other.
        t :- other.
        """
        assert self.both(rules, {"q": {("a",)}}) == {
            "flag": {()}, "r": {("a",)}, "s": {()},
        }
        assert self.both(rules, {"q": {("a",)}, "other": {()}}) == {
            "flag": {()}, "r": {("a",)}, "t": {()},
        }

    def test_variable_repeated_inside_one_atom(self):
        edb = {
            "e": {("a", "a"), ("a", "b"), (1, 1)},
            "t": {("a", "b", "a", "b"), ("a", "b", "b", "b")},
        }
        derived = self.both("loop(X) :- e(X, X). pair(X, Y) :- t(X, Y, X, Y).", edb)
        assert derived == {"loop": {("a",), (1,)}, "pair": {("a", "b")}}

    def test_norm_eq_lookup_with_int_and_str_operands(self):
        edb = {
            "l": {(1,), (" A",), ("1",), (2,), ("\tA\n",)},
            "r": {(1,), ("a",), (" 1 ",), ("2",), ("A\t",)},
        }
        derived = self.both("m(X, Y) :- l(X), r(Y), norm_eq(X, Y).", edb)
        assert derived == {"m": {
            (1, 1), (" A", "a"), (" A", "A\t"), ("\tA\n", "a"), ("\tA\n", "A\t"), ("1", " 1 "),
        }}
        derived = self.both('n(X) :- norm_eq(X, " A "), r(X). i(X) :- norm_eq(1, X), r(X).', edb)
        assert derived == {"n": {("a",), ("A\t",)}, "i": {(1,)}}

    # Rows for the compiled keys of norm_eq indexes: ints beside strings
    # that print alike, and strings that differ in case and whitespace.
    MIXED = (1, "1", " 1 ", 2, "b", " B", "B\t", "x Y", "X y ", "xy")

    def test_norm_index_with_exact_and_norm_positions(self):
        # conf_match's shape: the scan of ``i`` keys on IN exactly and on
        # IA normalized.
        rng = random.Random(3)
        edb = {
            "o": {(f"o{k}", rng.choice("pq"), rng.choice(self.MIXED)) for k in range(30)},
            "i": {(f"i{k}", rng.choice("pq"), rng.choice(self.MIXED)) for k in range(30)},
        }
        derived = self.both("m(O, I) :- o(O, IN, OA), i(I, IN, IA), norm_eq(OA, IA).", edb)
        assert derived["m"]

    def test_norm_index_with_two_norm_positions(self):
        rng = random.Random(4)
        edb = {
            "l": {(f"l{k}", rng.choice(self.MIXED), rng.choice(self.MIXED)) for k in range(40)},
            "r": {(f"r{k}", rng.choice(self.MIXED), rng.choice(self.MIXED)) for k in range(40)},
        }
        rules = "m(A, B) :- l(A, X, Y), r(B, U, V), norm_eq(X, U), norm_eq(Y, V)."
        assert self.both(rules, edb)["m"]

    def test_norm_index_of_a_recursive_predicate_grows_with_each_round(self):
        # The scan of the second ``link`` keys on W normalized. Its index
        # on the whole relation is built in the first round, and the rows
        # of each later round reach it through ``_Relation.add``.
        edb = {"base": {
            ("n0", " N1"), ("n1", "N2 "), ("N2", 3), (3, "n4"), ("\tN4", "end"),
            ("3", "int-only"), ("END", "n0"),
        }}
        derived = self.both(
            "link(X, Y) :- base(X, Y). link(X, Z) :- link(X, Y), link(W, Z), norm_eq(Y, W).", edb
        )
        assert ("n0", "end") in derived["link"] and ("n0", "n0") in derived["link"]
        assert ("n0", "int-only") not in derived["link"]

    def test_negation_against_constants(self):
        edb = {
            "item": {("a",), ("b",), ("c",)},
            "banned": {("a", "yes"), ("b", 1), ("c", "1")},
        }
        rules = 'keep(X) :- item(X), not banned(X, "yes"), not banned(X, 1).'
        assert self.both(rules, edb) == {"keep": {("c",)}}

    def test_rule_deeper_than_the_nested_block_limit(self):
        # Over 30 scans in one body, past CPython's 20 nested blocks; Y
        # is bound by ``=`` before the loops are staged and read after.
        # The recursive rule also runs its delta variants through them.
        def chain(start):
            return ", ".join(f"e(X{i}, X{i + 1})" for i in range(start, 30))

        rules = f"""
        far(X0, X30, W) :- {chain(0)}, Y = X1, e(Y, W), X0 != X30.
        reach(X0, X30) :- far(X0, X1, _), {chain(1)}.
        reach(X, Y) :- reach(X, Z), far(Z, Y, _).
        """
        edb = {"e": {(i, (i + 1) % 7) for i in range(7)} | {(3, 0)}}
        derived = self.both(rules, edb)
        assert derived["far"] and derived["reach"]

    def test_rule_functions_are_generated_once_per_process(self):
        program = parse_program(TC_RULES + "cache_probe(X) :- path(X, X).")
        edb = edges_to_facts([(1, 2), (2, 1)])
        derived = evaluate(program, edb)
        misses = _generate_rule_functions.cache_info().misses
        assert evaluate(program, edb) == derived
        assert _generate_rule_functions.cache_info().misses == misses

    def test_rules_equal_but_for_constant_types_get_their_own_functions(self):
        def head_constant(const):
            rule = Rule(Atom("p", (const,)), (Atom("q", (Variable("X"),)),))
            (row,) = evaluate(Program((rule,), {"p": 1, "q": 1}), {"q": {("a",)}})["p"]
            return row[0]

        assert Rule(Atom("p", (1,))) == Rule(Atom("p", (True,)))
        assert type(head_constant(1)) is int
        assert type(head_constant(True)) is bool

    def test_generated_functions_hold_no_reference_cycle(self):
        rule = parse_program("far(X, Z) :- e(X, Y), e(Y, Z), not e(X, Z), X != 7.").rules[0]
        count, garbage = cyclic_garbage(
            lambda: len(_generate_rule_functions.__wrapped__(rule, frozenset({"e"}), (int,)))
        )
        assert count == 3
        assert garbage == 0

    def test_random_programs_with_builtins_match_naive(self):
        for seed in range(300):
            rules, edb = random_builtin_program(random.Random(seed))
            program = parse_program(rules)
            assert evaluate(program, edb) == evaluate_naive(program, edb), seed
