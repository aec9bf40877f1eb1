"""Tests for the LTL to Büchi translation and lasso-word semantics.

The translation is validated against a direct fixpoint evaluation of the
formula on ultimately periodic words, and the automaton-side acceptance
check is validated against an independent cycle search.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from numltl import automata
from numltl.abstraction import abstract_spec
from numltl.automata import (
    Release,
    accepts_lasso,
    evaluate_ltl_on_lasso,
    negation_normal_form,
    translate,
)
from numltl.cegar import CegarConfig, _encoded
from numltl.speclang import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Implies,
    Next,
    Not,
    Or,
    TrueFormula,
    Until,
    parse_spec,
    truth,
    walk,
)
from numltl.valuation import Valuation
from generators import AUTOMATON_SHAPES, random_automaton, random_formula, random_lasso
from oracles import reference_accepts_lasso

A, B = Atom("a"), Atom("b")


def letters(*bits_list):
    """Valuations over (a, b) from 2-bit tuples, or over (a,) from ints."""
    out = []
    for bits in bits_list:
        if isinstance(bits, tuple):
            out.append(Valuation.of({"a": bool(bits[0]), "b": bool(bits[1])}))
        else:
            out.append(Valuation.of({"a": bool(bits)}))
    return out


class TestNegationNormalForm:
    def test_implication_is_eliminated(self):
        assert negation_normal_form(Implies(A, B)) == Or(Not(A), B)

    def test_negated_always_becomes_until(self):
        assert negation_normal_form(Not(Always(A))) == Until(TrueFormula(), Not(A))

    def test_negated_eventually_becomes_release(self):
        assert negation_normal_form(Not(Eventually(A))) == Release(FalseFormula(), Not(A))

    def test_negated_until_becomes_release(self):
        f = negation_normal_form(Not(Until(A, B)))
        assert f == Release(Not(A), Not(B))

    def test_double_negation_cancels(self):
        assert negation_normal_form(Not(Not(A))) == A

    def test_always_lowers_to_release(self):
        assert negation_normal_form(Always(A)) == Release(FalseFormula(), A)

    def test_a_long_negation_chain_takes_no_frames(self):
        f = Always(A)
        for _ in range(5000):
            f = Not(f)
        assert negation_normal_form(f) == Release(FalseFormula(), A)
        assert negation_normal_form(Not(f)) == Until(TrueFormula(), Not(A))

    def test_preserves_lasso_semantics(self):
        rng = random.Random(7)
        for _ in range(150):
            f = random_formula(rng, ["a", "b"], 3)
            prefix, loop = random_lasso(rng, ["a", "b"])
            assert evaluate_ltl_on_lasso(f, prefix, loop) == evaluate_ltl_on_lasso(
                negation_normal_form(f), prefix, loop
            )


class TestLassoEvaluation:
    def test_always(self):
        assert evaluate_ltl_on_lasso(Always(A), [], letters(1))
        assert not evaluate_ltl_on_lasso(Always(A), [], letters(1, 0))
        assert not evaluate_ltl_on_lasso(Always(A), letters(0), letters(1))

    def test_eventually_looks_past_the_prefix(self):
        assert evaluate_ltl_on_lasso(Eventually(A), letters(0), letters(0, 1))
        assert not evaluate_ltl_on_lasso(Eventually(A), letters(0), letters(0))

    def test_next_wraps_from_loop_end_to_loop_start(self):
        # word: a . (!a)^omega, so X a is false; on the loop X wraps around
        assert not evaluate_ltl_on_lasso(Next(A), letters(1), letters(0))
        assert evaluate_ltl_on_lasso(Always(Implies(A, Next(B))), [], letters((1, 0), (0, 1)))

    def test_until(self):
        f = Until(A, B)
        assert evaluate_ltl_on_lasso(f, letters((1, 0)), letters((0, 1)))
        assert evaluate_ltl_on_lasso(f, [], letters((0, 1)))
        assert not evaluate_ltl_on_lasso(f, letters((1, 0)), letters((0, 0)))
        # the hold side must persist up to the goal
        assert not evaluate_ltl_on_lasso(
            f, letters((1, 0), (0, 0)), letters((0, 1))
        )

    def test_until_needs_the_goal_eventually(self):
        # a stays true forever but b never arrives
        assert not evaluate_ltl_on_lasso(Until(A, B), [], letters((1, 0)))

    def test_infinitely_often_versus_eventually_always(self):
        alternating = letters(1, 0)
        assert evaluate_ltl_on_lasso(Always(Eventually(A)), [], alternating)
        assert not evaluate_ltl_on_lasso(Eventually(Always(A)), [], alternating)

    def test_release_holds_unless_released(self):
        f = Release(A, B)
        assert evaluate_ltl_on_lasso(f, [], letters((0, 1)))
        assert evaluate_ltl_on_lasso(f, [], letters((1, 1)))
        assert not evaluate_ltl_on_lasso(f, [], letters((1, 0)))
        assert evaluate_ltl_on_lasso(f, letters((1, 1)), letters((0, 0)))

    def test_deep_chains_take_no_frames(self):
        """A 5,000-level left-nested ``&&`` chain and a 5,000-long NEXT
        chain, built past the parser's depth cap."""
        conjunction, nexts = A, A
        for _ in range(5000):
            conjunction, nexts = And(conjunction, B), Next(nexts)
        prefix, loop = letters((1, 1)), letters((1, 0), (0, 1))
        word = [letter.as_dict() for letter in prefix + loop]
        assert truth(conjunction, word, 1) == [True, False, False]
        assert evaluate_ltl_on_lasso(conjunction, prefix, loop)
        # position k > 0 of the word reads a exactly when k is odd
        assert truth(nexts, word, 1) == [False, True, False]
        assert not evaluate_ltl_on_lasso(nexts, prefix, loop)
        assert evaluate_ltl_on_lasso(Next(nexts), prefix, loop)

    def test_empty_loop_is_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            evaluate_ltl_on_lasso(A, letters(1), [])


class TestTranslation:
    def test_always_automaton(self):
        aut = translate(Always(A))
        assert accepts_lasso(aut, [], letters(1))
        assert not accepts_lasso(aut, [], letters(1, 0))
        assert not accepts_lasso(aut, letters(0), letters(1))

    def test_eventually_automaton(self):
        aut = translate(Eventually(A))
        assert accepts_lasso(aut, letters(0, 0), letters(0, 1))
        assert not accepts_lasso(aut, letters(0), letters(0))

    def test_until_automaton(self):
        aut = translate(Until(A, B))
        assert accepts_lasso(aut, letters((1, 0)), letters((0, 1)))
        assert not accepts_lasso(aut, letters((1, 0)), letters((0, 0)))

    def test_response_automaton(self):
        aut = translate(Always(Implies(A, Next(B))))
        assert accepts_lasso(aut, [], letters((1, 0), (0, 1)))
        assert not accepts_lasso(aut, [], letters((1, 0), (0, 0)))

    def test_two_fairness_conditions_need_the_counter(self):
        f = And(Always(Eventually(A)), Always(Eventually(B)))
        aut = translate(f)
        assert accepts_lasso(aut, [], letters((1, 0), (0, 1)))
        assert accepts_lasso(aut, [], letters((1, 1)))
        assert not accepts_lasso(aut, [], letters((1, 0)))
        assert not accepts_lasso(aut, [], letters((0, 0), (0, 1)))

    def test_translation_is_deterministic(self):
        f = And(Always(Eventually(A)), Until(A, B))
        assert translate(f) == translate(f)

    def test_atoms_default_to_formula_atoms(self):
        assert translate(Until(B, A)).atoms == ("a", "b")
        assert translate(A, atoms=("a", "b", "c")).atoms == ("a", "b", "c")

    def test_state_count_stays_within_tableau_bound(self):
        rng = random.Random(11)
        for _ in range(60):
            f = random_formula(rng, ["a", "b"], 3)
            closure = set(walk(negation_normal_form(f)))
            aut = translate(f)
            assert aut.n_states <= 2 ** (len(closure) + 1) + 1

    def test_agrees_with_direct_evaluation(self):
        rng = random.Random(2026)
        for _ in range(400):
            f = random_formula(rng, ["a", "b"], 3)
            prefix, loop = random_lasso(rng, ["a", "b"])
            expected = evaluate_ltl_on_lasso(f, prefix, loop)
            assert accepts_lasso(translate(f), prefix, loop) == expected, (f, prefix, loop)

    def test_negation_duality(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_formula(rng, ["a", "b"], 3)
            prefix, loop = random_lasso(rng, ["a", "b"])
            aut = translate(Not(f))
            assert accepts_lasso(aut, prefix, loop) != evaluate_ltl_on_lasso(
                f, prefix, loop
            )

    def test_acceptance_check_agrees_with_search_oracle(self):
        """Against the strongly-connected-component pass that the
        reachability searches replaced, on 200 translated formulas."""
        rng = random.Random(13)
        for _ in range(200):
            f = random_formula(rng, ["a", "b"], 3)
            aut = translate(f)
            prefix, loop = random_lasso(rng, ["a", "b"])
            assert accepts_lasso(aut, prefix, loop) == reference_accepts_lasso(aut, prefix, loop)

    def test_random_automata_accept_as_the_component_search_does(self):
        """Reachability acceptance against the Tarjan pass it replaced, on
        2,400 random automata over 2-3 atoms, a third of them with an
        accepting state on no cycle and a third with an accepting cycle
        entered only at the first letter, read from a nonempty prefix."""
        rng = random.Random(2121)
        seen = dict.fromkeys(["no transitions", "empty cube", "none accept", "all accept"], 0)
        verdicts = set()
        for i in range(2400):
            shape = AUTOMATON_SHAPES[i % len(AUTOMATON_SHAPES)]
            atoms = ["a", "b", "c"][: rng.randint(2, 3)]
            aut = random_automaton(rng, atoms, shape)
            min_prefix = 1 if shape == "prefix_entry" else 0
            prefix, loop = random_lasso(rng, atoms, max_prefix=3, min_prefix=min_prefix)
            expected = reference_accepts_lasso(aut, prefix, loop)
            assert accepts_lasso(aut, prefix, loop) == expected, (aut, prefix, loop)
            verdicts.add((shape, expected))
            seen["no transitions"] += not all(aut.transitions)
            seen["empty cube"] += any(not t.guard.pairs for row in aut.transitions for t in row)
            seen["none accept"] += not aut.accepting
            seen["all accept"] += len(aut.accepting) == aut.n_states
        assert len(verdicts) == 2 * len(AUTOMATON_SHAPES)
        assert min(seen.values()) >= 200, seen

    def test_spec_document_formulas_translate(self):
        doc = parse_spec(
            "INPUT a\nOUTPUT b\nASSUME ALWAYS (EVENTUALLY (a))\nALWAYS (a -> b UNTIL a)\n"
        )
        from numltl.speclang import document_formula

        aut = translate(document_formula(doc))
        assert aut.n_states > 0
        assert aut.atoms == ("a", "b")


class TestTableauWork:
    """The worklist expansion popped 174,307 partial nodes on error_monitor's
    re-encoded game formula to find its 350 tableau nodes; the memoised one
    expands each partial node that starts a chain of single-successor steps
    once, and only the split ones and the leaves are kept: 1,358 expansions
    (10,046 without re-encoding).  The caps are about twice those counts."""

    @pytest.mark.parametrize("reencode, cap", [(True, 2_800), (False, 20_000)])
    def test_error_monitor_expands_each_partial_node_once(
        self, monkeypatch, reencode, cap
    ):
        spec_dir = Path(__file__).resolve().parent.parent / "specs"
        spec, _ = abstract_spec(parse_spec((spec_dir / "error_monitor.spec").read_text()))
        work, _ = _encoded(spec, CegarConfig(reencode=reencode))
        expanded = []
        step = automata._expand_step

        def counting(table, new, old, nxt):
            expanded.append((new, old, nxt))
            return step(table, new, old, nxt)

        monkeypatch.setattr(automata, "_expand_step", counting)
        translate(work.game_formula(), work.input_atoms() + work.output_atoms())
        assert 0 < len(expanded) <= cap
        assert len(set(expanded)) == len(expanded)

