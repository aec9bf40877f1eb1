"""Pseudo-Boolean abstraction, refinement records, output re-encoding."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from numltl import speclang as sl
from numltl.abstraction import (
    AbstractionError,
    EMPTY_MULTIPLEXER,
    MultiplexerTable,
    PredicateTable,
    abstract_spec,
    cube_formula,
    forbid,
    reencode_outputs,
    refine_with_assumption,
    refine_with_guarantee,
)
from numltl.bernstein import Box
from numltl.cegar import CegarConfig, _encoded
from numltl.speclang import (
    Always,
    And,
    Atom,
    Eventually,
    Implies,
    Not,
    Until,
    format_formula,
    format_spec,
    parse_spec,
)
from numltl.valuation import Valuation, all_valuations
from generators import (
    random_formula,
    random_refinement_document,
    random_synthesis_document,
)
from oracles import reference_folded_document, reference_game_formula, reference_reencode


def v(**kwargs) -> Valuation:
    return Valuation.of(kwargs)


def fixture(name: str) -> sl.SpecDocument:
    with open(f"specs/{name}.spec", encoding="utf-8") as handle:
        return parse_spec(handle.read())


class TestAbstractSpec:
    def test_running_example_becomes_the_free_atom_document(self):
        spec, table = abstract_spec(fixture("threshold_arbiter"))
        assert format_spec(spec.document) == (
            "INPUT req1, req2\n"
            "OUTPUT grant1, grant2\n"
            "ALWAYS (req1 -> NEXT (grant1))\n"
            "ALWAYS (req2 -> NEXT (grant2))\n"
            "ALWAYS (!(grant1 && grant2))\n"
        )
        assert spec.document.real_vars == ()
        assert spec.document.predicates == ()
        assert spec.input_refinements == ()

    def test_predicate_table_keeps_constraints_and_box(self):
        doc = fixture("threshold_arbiter")
        _, table = abstract_spec(doc)
        assert set(table.entries) == {"req1", "req2"}
        assert table.atoms_of(sl.INPUT_SIDE) == ("req1", "req2")
        assert table.atoms_of(sl.OUTPUT_SIDE) == ()
        assert table.input_variables == ("x", "y")
        assert table.input_box == Box(((Fraction(0), Fraction(4)),) * 2)
        assert table.output_box == Box(())
        req1, side = table.entries["req1"]
        assert side == sl.INPUT_SIDE
        assert req1 == doc.predicates[0].constraint

    def test_pure_boolean_document_is_unchanged(self):
        doc = fixture("error_monitor")
        spec, table = abstract_spec(doc)
        assert spec.document == doc
        assert table.entries == {}

    def test_three_sensor_document_yields_two_free_atoms(self):
        spec, table = abstract_spec(fixture("triple_sensor_arbiter"))
        assert spec.document.boolean_inputs == ("req1", "req2")
        assert table.input_variables == ("x0", "x1", "x2")

    def test_mixed_atoms_keep_declaration_order(self):
        doc = parse_spec(
            "INPUT a\n"
            "OUTPUT b\n"
            "REAL x IN [0, 1]\n"
            "REAL OUTPUT u IN [-1, 1]\n"
            "PRED p := x - 1/2 > 0\n"
            "PRED q := u > 0\n"
            "ALWAYS (p -> b)\n"
            "ALWAYS (a -> q)\n"
        )
        spec, table = abstract_spec(doc)
        assert spec.document.boolean_inputs == ("a", "p")
        assert spec.document.boolean_outputs == ("b", "q")
        assert table.atoms_of(sl.OUTPUT_SIDE) == ("q",)
        assert table.output_variables == ("u",)


class TestRefinements:
    def base(self):
        spec, _ = abstract_spec(fixture("threshold_arbiter"))
        return spec

    def test_input_refinement_appends_forbidden_cube(self):
        base = self.base()
        refined = refine_with_assumption(base, v(req1=True, req2=True))
        assert refined.input_refinements == (v(req1=True, req2=True),)
        assert refined.document == base.document  # recorded once, as the valuation
        (cube,) = refined.input_refinements
        assert forbid(cube) == Always(Not(And(Atom("req1"), Atom("req2"))))
        assert format_formula(forbid(cube)) == "ALWAYS (!(req1 && req2))"

    def test_cube_uses_negative_literals_for_false_atoms(self):
        refined = refine_with_assumption(self.base(), v(req1=False, req2=False))
        (cube,) = refined.input_refinements
        assert forbid(cube) == Always(Not(And(Not(Atom("req1")), Not(Atom("req2")))))

    def test_two_distinct_refinements_accumulate(self):
        refined = refine_with_assumption(self.base(), v(req1=True, req2=True))
        refined = refine_with_assumption(refined, v(req1=False, req2=True))
        assert refined.input_refinements == (
            v(req1=True, req2=True),
            v(req1=False, req2=True),
        )
        assert refined.document == self.base().document

    def test_duplicate_refinement_is_a_driver_bug(self):
        refined = refine_with_assumption(self.base(), v(req1=True, req2=True))
        with pytest.raises(AbstractionError, match="already refined"):
            refine_with_assumption(refined, v(req1=True, req2=True))

    def test_wrong_atom_set_is_rejected(self):
        with pytest.raises(AbstractionError, match="predicate atoms"):
            refine_with_assumption(self.base(), v(req1=True))
        with pytest.raises(AbstractionError, match="predicate atoms"):
            refine_with_guarantee(self.base(), v(req1=True, req2=True))

    def test_output_refinement_appends_guarantee(self):
        doc = parse_spec(
            "REAL OUTPUT u IN [0, 1]\n"
            "PRED high := u - 1/2 > 0\n"
            "PRED low := 1/2 - u > 0\n"
            "INPUT a\n"
            "ALWAYS (a -> high)\n"
        )
        spec, _ = abstract_spec(doc)
        refined = refine_with_guarantee(spec, v(high=True, low=True))
        assert refined.output_refinements == (v(high=True, low=True),)
        assert refined.document == spec.document
        # the game formula takes the forbidden cube after the user guarantees
        assert refined.game_formula() == And(
            spec.game_formula(), Always(Not(And(Atom("high"), Atom("low"))))
        )
        with pytest.raises(AbstractionError, match="already refined"):
            refine_with_guarantee(refined, v(high=True, low=True))

    def test_game_formula_excludes_refinement_assumptions(self):
        spec = self.base()
        before = spec.game_formula()
        refined = refine_with_assumption(spec, v(req1=True, req2=True))
        assert refined.game_formula() == before
        assert refined.document.assumptions == ()

    def test_game_formula_keeps_user_assumptions(self):
        spec, _ = abstract_spec(fixture("error_monitor"))
        formula = spec.game_formula()
        assert isinstance(formula, Implies)
        assert formula.left == spec.source.assumptions[0]


ONE_HOT_TRIPLE = (
    "INPUT go\n"
    "OUTPUT a, b, c\n"
    "ALWAYS (!a || !b)\n"
    "ALWAYS (!b || !c)\n"
    "ALWAYS (!a || !c)\n"
    "ALWAYS (a || b || c)\n"
    "ALWAYS (go -> NEXT (a))\n"
)


class TestReencode:
    def test_error_monitor_collapses_to_two_outputs(self):
        spec, _ = abstract_spec(fixture("error_monitor"))
        encoded, mux = reencode_outputs(spec)
        assert encoded.document.boolean_outputs == ("sig1", "sig2")
        assert mux.encoded_atoms == ("sig1", "sig2")
        assert mux.original_atoms == ("stop", "grant1", "grant2", "grant3")
        assert mux.rows == (
            (v(sig1=False, sig2=False), v(stop=False, grant1=False, grant2=False, grant3=True)),
            (v(sig1=False, sig2=True), v(stop=False, grant1=False, grant2=True, grant3=False)),
            (v(sig1=True, sig2=False), v(stop=False, grant1=True, grant2=False, grant3=False)),
            (v(sig1=True, sig2=True), v(stop=True, grant1=False, grant2=False, grant3=False)),
        )
        # five propositional output guarantees folded into the code book
        assert len(encoded.document.guarantees) == 4

    def test_remaining_formulas_are_rewritten_over_code_atoms(self):
        spec, _ = abstract_spec(fixture("error_monitor"))
        encoded, _ = reencode_outputs(spec)
        stop_cube = And(Atom("sig1"), Atom("sig2"))
        assert encoded.document.guarantees[0] == Always(
            Implies(Atom("error"), Until(stop_cube, Atom("operator")))
        )
        grant1_cube = And(Atom("sig1"), Not(Atom("sig2")))
        assert encoded.document.guarantees[1] == Always(
            Implies(Atom("req1"), Eventually(grant1_cube))
        )
        assert format_spec(encoded.document)  # still printable

    def test_unconstrained_outputs_are_left_alone(self):
        doc = parse_spec("INPUT a\nOUTPUT b, c\nALWAYS (a -> NEXT (b))\n")
        spec, _ = abstract_spec(doc)
        encoded, mux = reencode_outputs(spec)
        assert encoded == spec
        assert mux == EMPTY_MULTIPLEXER
        assert not mux

    def test_no_gain_means_no_rewrite(self):
        # mutual exclusion over two outputs leaves 3 combinations: still 2 bits
        spec, _ = abstract_spec(fixture("threshold_arbiter"))
        encoded, mux = reencode_outputs(spec)
        assert encoded == spec
        assert mux == EMPTY_MULTIPLEXER

    def test_unsatisfiable_output_constraints_error(self):
        doc = parse_spec("INPUT a\nOUTPUT b\nALWAYS (b)\nALWAYS (!b)\n")
        spec, _ = abstract_spec(doc)
        with pytest.raises(AbstractionError, match="unsatisfiable"):
            reencode_outputs(spec)

    def test_unused_code_words_are_forbidden(self):
        spec, _ = abstract_spec(parse_spec(ONE_HOT_TRIPLE))
        encoded, mux = reencode_outputs(spec)
        assert len(mux.rows) == 3
        assert encoded.document.boolean_outputs == ("sig1", "sig2")
        completeness = encoded.document.guarantees[-1]
        assert isinstance(completeness, Always)
        for word in all_valuations(("sig1", "sig2")):
            allowed = any(code == word for code, _ in mux.rows)
            assert sl.truth(completeness.operand, [word.as_dict()], 0) == [allowed]

    def test_single_feasible_combination_drops_all_outputs(self):
        doc = parse_spec("INPUT a\nOUTPUT b, c\nALWAYS (b)\nALWAYS (!c)\n")
        spec, _ = abstract_spec(doc)
        encoded, mux = reencode_outputs(spec)
        assert encoded.document.boolean_outputs == ()
        assert mux.rows == ((Valuation.of({}), v(b=True, c=False)),)

    def test_decode_round_trip_and_unknown_word(self):
        spec, _ = abstract_spec(parse_spec(ONE_HOT_TRIPLE))
        _, mux = reencode_outputs(spec)
        for word, original in mux.rows:
            assert mux.decode(word) == original
        with pytest.raises(AbstractionError, match="no decoding"):
            mux.decode(v(sig1=True, sig2=True))

    def test_fresh_names_avoid_collisions(self):
        doc = parse_spec(
            "INPUT sig1\n"
            "OUTPUT a, b, c\n"
            "ALWAYS (!a || !b)\n"
            "ALWAYS (!b || !c)\n"
            "ALWAYS (!a || !c)\n"
            "ALWAYS (a || b || c)\n"
            "ALWAYS (sig1 -> NEXT (a))\n"
        )
        spec, _ = abstract_spec(doc)
        encoded, mux = reencode_outputs(spec)
        assert mux.encoded_atoms == ("enc1", "enc2")
        assert encoded.document.boolean_outputs == ("enc1", "enc2")

    def test_substitution_agrees_with_decoding(self):
        spec, _ = abstract_spec(parse_spec(ONE_HOT_TRIPLE))
        encoded, mux = reencode_outputs(spec)
        rng = random.Random(20260815)
        for _ in range(60):
            body = random_formula(rng, ["a", "b", "c"], 3)
            while not sl.is_propositional(body):
                body = random_formula(rng, ["a", "b", "c"], 3)
            rewritten = _rewrite_via(mux, body)
            for word, original in mux.rows:
                assert sl.truth(rewritten, [word.as_dict()], 0) == sl.truth(
                    body, [original.as_dict()], 0
                )

    def test_refinement_guarantee_folds_into_the_code_book(self):
        spec, _ = abstract_spec(parse_spec(ONE_HOT_TRIPLE))
        encoded, mux = reencode_outputs(spec)
        assert len(mux.rows) == 3
        doc = parse_spec(
            "REAL OUTPUT u IN [0, 1]\n"
            "REAL OUTPUT w IN [0, 1]\n"
            "PRED pu := u - 1/2 > 0\n"
            "PRED pw := w - 1/2 > 0\n"
            "INPUT a\n"
            "OUTPUT b\n"
            "ALWAYS (!b || !pu)\n"
            "ALWAYS (!b || !pw)\n"
            "ALWAYS (a -> pu || pw || b)\n"
        )
        base, _ = abstract_spec(doc)
        refined = refine_with_guarantee(base, v(pu=True, pw=True))
        encoded, mux = reencode_outputs(refined)
        assert mux
        assert len(mux.rows) == 4
        assert all(not (row[1]["pu"] and row[1]["pw"]) for row in mux.rows)
        assert encoded.output_refinements == ()  # the code book holds it

    def test_output_refinements_alone_fill_the_code_book(self):
        # no output-only ALWAYS is written: the refinements are the filter
        doc = parse_spec(
            "REAL OUTPUT u IN [0, 1]\n"
            "REAL OUTPUT w IN [0, 1]\n"
            "PRED pu := u - 1/2 > 0\n"
            "PRED pw := w - 1/2 > 0\n"
            "INPUT a\n"
            "OUTPUT b\n"
            "ALWAYS (a -> NEXT (pw || b))\n"
        )
        base, _ = abstract_spec(doc)
        assert reencode_outputs(base) == (base, EMPTY_MULTIPLEXER)
        refined = refine_with_guarantee(base, v(pu=True, pw=True))
        assert reencode_outputs(refined) == (refined, EMPTY_MULTIPLEXER)  # 6 of 8 left
        refined = refine_with_guarantee(refined, v(pu=True, pw=False))
        encoded, mux = reencode_outputs(refined)
        assert mux.encoded_atoms == ("sig1", "sig2")
        assert [original for _, original in mux.rows] == [
            w for w in all_valuations(("b", "pu", "pw")) if not w["pu"]
        ]
        assert encoded.output_refinements == ()
        assert sl.atoms_of(encoded.game_formula()) == {"a", "sig1", "sig2"}

    def test_code_words_past_the_depth_cap_leave_the_outputs_as_they_are(self):
        """Each output atom becomes a disjunction of the code words that set
        it, nested one level per word.  With 9 outputs and 256 feasible
        words the encoded document stays within ``MAX_FORMULA_DEPTH``; with
        11 outputs the 512-word disjunction of ``o2`` would not, and used to
        end the run in a ``RecursionError``, so the outputs stay unencoded."""
        for n, encoded_atoms in ((9, 8), (11, None)):
            outputs = ", ".join(f"o{i}" for i in range(1, n + 1))
            text = f"INPUT a\nOUTPUT {outputs}\nALWAYS (!o1)\nALWAYS (a -> o2)\n"
            spec, _ = abstract_spec(parse_spec(text))
            encoded, mux = reencode_outputs(spec)
            if encoded_atoms is None:
                assert (encoded, mux) == (spec, EMPTY_MULTIPLEXER)
                continue
            assert len(mux.encoded_atoms) == encoded_atoms
            formula = sl.document_formula(encoded.document)
            assert 128 < sl.formula_depth(formula) <= sl.MAX_FORMULA_DEPTH

    def test_every_output_refinement_forbidden_is_unsatisfiable(self):
        base, _ = abstract_spec(
            parse_spec("REAL OUTPUT u IN [0, 1]\nPRED pu := u > 0\nOUTPUT b\nALWAYS (b)\n")
        )
        refined = refine_with_guarantee(base, v(pu=True))
        refined = refine_with_guarantee(refined, v(pu=False))
        with pytest.raises(AbstractionError, match="unsatisfiable"):
            reencode_outputs(refined)


class TestRefinementRecordMatchesFolding:
    """The valuation-only refinement record against the folding path it
    replaced (``oracles.py``): every refinement rebuilt the document, and
    re-encoding and the game formula read the folded text."""

    def refinements(self, rng: random.Random, doc: sl.SpecDocument):
        by_side = {}
        for side in (sl.INPUT_SIDE, sl.OUTPUT_SIDE):
            atoms = tuple(p.atom for p in doc.predicates_of(side))
            cubes = list(all_valuations(atoms)) if atoms else []
            low = 1 if side == sl.OUTPUT_SIDE and cubes else 0
            by_side[side] = rng.sample(cubes, rng.randint(low, len(cubes)))
        sequence = [(side, w) for side, cubes in by_side.items() for w in cubes]
        rng.shuffle(sequence)
        return sequence

    def test_game_formulas_and_code_books_match_the_folded_documents(self):
        rng = random.Random(909)
        with_outputs = encoded_with_outputs = 0
        for k in range(400):
            generate = random_synthesis_document if k % 2 else random_refinement_document
            doc = generate(rng)
            sequence = self.refinements(rng, doc)
            spec, _ = abstract_spec(doc)
            for side, w in sequence:
                refine = refine_with_assumption if side == sl.INPUT_SIDE else refine_with_guarantee
                spec = refine(spec, w)
            folded = reference_folded_document(doc, sequence)
            has_outputs = bool(spec.output_refinements)
            with_outputs += has_outputs
            for reencode in (False, True):
                work, mux = _encoded(spec, CegarConfig(reencode=reencode))
                expected, atoms, rows = folded, (), ()
                if reencode:
                    try:
                        expected, atoms, rows = reference_reencode(folded)
                    except ValueError:
                        pass
                assert work.game_formula() == reference_game_formula(
                    expected, len(doc.assumptions)
                )
                assert (mux.encoded_atoms, mux.rows) == (atoms, rows)
                assert work.input_atoms() == expected.boolean_inputs
                assert work.output_atoms() == expected.boolean_outputs
                assert work.input_refinements == spec.input_refinements
                assert work.output_refinements == (() if mux else spec.output_refinements)
                encoded_with_outputs += bool(mux) and has_outputs
        assert with_outputs >= 100
        assert encoded_with_outputs >= 20


def _rewrite_via(mux: MultiplexerTable, body: sl.Formula) -> sl.Formula:
    from numltl.abstraction import _code_word_disjunction

    mapping = {atom: _code_word_disjunction(mux, atom) for atom in mux.original_atoms}
    return sl.substitute_atoms(body, mapping)
