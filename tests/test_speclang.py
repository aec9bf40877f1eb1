"""Lexer, parser, validator, and printer tests for the specification language."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from numltl.bernstein import ConstraintImplication, PolyConstraint, Polynomial
from numltl.speclang import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Implies,
    INPUT_SIDE,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_FORMULA_DEPTH,
    MAX_NESTING,
    MAX_POWER_TERMS,
    MAX_PRODUCT_PAIRS,
    Next,
    Not,
    Or,
    OUTPUT_SIDE,
    PredicateDef,
    RealVarDecl,
    SpecDocument,
    SpecError,
    TrueFormula,
    Until,
    atoms_of,
    document_formula,
    fold,
    format_constraint,
    format_formula,
    format_polynomial,
    format_spec,
    is_propositional,
    parse_constraints,
    parse_spec,
    substitute_atoms,
    truth,
)
from generators import (
    random_box,
    random_document,
    random_polynomial,
    random_synthesis_document,
)
from oracles import reference_parse_constraints, reference_parse_spec

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"


def only_guarantee(text: str):
    doc = parse_spec(text)
    assert len(doc.guarantees) == 1
    return doc.guarantees[0]


MINIMAL = "INPUT a\nOUTPUT b\n"


class TestFormulaParsing:
    def test_atoms_and_literals(self):
        f = only_guarantee(MINIMAL + "a && TRUE || FALSE")
        assert f == Or(And(Atom("a"), TrueFormula()), FalseFormula())

    def test_implication_is_right_associative(self):
        f = only_guarantee(MINIMAL + "a -> b -> a")
        assert f == Implies(Atom("a"), Implies(Atom("b"), Atom("a")))

    def test_until_is_right_associative(self):
        f = only_guarantee(MINIMAL + "a UNTIL b UNTIL a")
        assert f == Until(Atom("a"), Until(Atom("b"), Atom("a")))

    def test_until_binds_tighter_than_implication(self):
        f = only_guarantee(MINIMAL + "a -> b UNTIL a")
        assert f == Implies(Atom("a"), Until(Atom("b"), Atom("a")))

    def test_and_binds_tighter_than_or(self):
        f = only_guarantee(MINIMAL + "a && b || a")
        assert f == Or(And(Atom("a"), Atom("b")), Atom("a"))

    def test_or_binds_tighter_than_until(self):
        f = only_guarantee(MINIMAL + "a || b UNTIL a && b")
        assert f == Until(Or(Atom("a"), Atom("b")), And(Atom("a"), Atom("b")))

    def test_negation_binds_tightest(self):
        f = only_guarantee(MINIMAL + "!a && b")
        assert f == And(Not(Atom("a")), Atom("b"))

    def test_temporal_prefixes_nest(self):
        f = only_guarantee(MINIMAL + "ALWAYS EVENTUALLY a")
        assert f == Always(Eventually(Atom("a")))

    def test_next_with_parens(self):
        f = only_guarantee(MINIMAL + "ALWAYS (a -> NEXT (b))")
        assert f == Always(Implies(Atom("a"), Next(Atom("b"))))

    def test_parenthesized_grouping(self):
        f = only_guarantee(MINIMAL + "(a || b) && a")
        assert f == And(Or(Atom("a"), Atom("b")), Atom("a"))

    def test_iff_is_rejected_with_hint(self):
        with pytest.raises(SpecError, match="two implications"):
            parse_spec(MINIMAL + "a <-> b")

    def test_trailing_garbage_is_an_error(self):
        with pytest.raises(SpecError, match="trailing"):
            parse_spec(MINIMAL + "a b")

    def test_error_positions_are_reported(self):
        with pytest.raises(SpecError) as err:
            parse_spec("INPUT a\nOUTPUT b\na && ?")
        assert err.value.line == 3
        assert err.value.column == 6

    def test_comments_and_blank_lines_are_skipped(self):
        doc = parse_spec("## intro\n\nINPUT a ## trailing\nOUTPUT b\na -> b\n")
        assert doc.boolean_inputs == ("a",)
        assert len(doc.guarantees) == 1


class TestPolynomialParsing:
    def brackets(self, pred_line: str) -> PredicateDef:
        text = "REAL x IN [0, 4]\nREAL y IN [0, 4]\nOUTPUT b\n" + pred_line + "\np -> b\n"
        doc = parse_spec(text)
        assert len(doc.predicates) == 1
        return doc.predicates[0]

    def test_sides_are_folded_to_difference(self):
        pred = self.brackets("PRED p := x + y > 3")
        poly = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (0, 0): Fraction(-3)})
        assert pred.constraint == PolyConstraint(poly, ">")

    def test_powers_products_and_rationals(self):
        pred = self.brackets("PRED p := x^2 + 3/2 * y^2 * x < 7/2")
        poly = Polynomial(
            2,
            {(2, 0): Fraction(1), (1, 2): Fraction(3, 2), (0, 0): Fraction(-7, 2)},
        )
        assert pred.constraint == PolyConstraint(poly, "<")

    def test_decimal_literals_are_exact(self):
        pred = self.brackets("PRED p := 0.25 * x >= 0.1")
        poly = Polynomial(2, {(1, 0): Fraction(1, 4), (0, 0): Fraction(-1, 10)})
        assert pred.constraint == PolyConstraint(poly, ">=")

    def test_unary_minus_and_parens(self):
        pred = self.brackets("PRED p := -(x - y) * x <= 0")
        poly = Polynomial(2, {(2, 0): Fraction(-1), (1, 1): Fraction(1)})
        assert pred.constraint == PolyConstraint(poly, "<=")

    def test_implicit_multiplication_is_rejected(self):
        with pytest.raises(SpecError, match="implicit multiplication"):
            self.brackets("PRED p := 2 x > 1")

    def test_fractional_exponent_is_rejected(self):
        with pytest.raises(SpecError, match="exponent"):
            self.brackets("PRED p := x^1/2 > 0")

    def test_lone_slash_is_rejected(self):
        with pytest.raises(SpecError, match="rational literal"):
            self.brackets("PRED p := x / 2 > 0")

    @pytest.mark.parametrize("literal", ["1/0", "0/0", "1.5/2"])
    def test_malformed_rational_literal_is_rejected(self, literal):
        with pytest.raises(SpecError, match="invalid rational literal") as caught:
            self.brackets(f"PRED p := x > {literal}")
        assert (caught.value.line, caught.value.column) == (4, 15)

    def test_equality_relation_is_rejected(self):
        with pytest.raises(SpecError, match="relation"):
            self.brackets("PRED p := x = 2")


TEN_REALS = "".join(f"REAL x{i} IN [0, 1]\n" for i in range(10))
SUM = " + ".join(f"x{i}" for i in range(10))  # x0 + ... + x9


def assert_rejected_after(monkeypatch, box, poly, column, message, products) -> None:
    """``poly > 0`` after the real declarations ``box``, as a constraint
    file and as a spec's predicate, is rejected with ``message`` at
    ``column`` of the polynomial, after ``products`` calls to
    ``Polynomial.__mul__``."""
    real_mul = Polynomial.__mul__
    calls = []

    def counted(self, other):
        calls.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    declared = box.count("\n")
    for parse, text, line in (
        (parse_constraints, f"{box}{poly} > 0\n", declared + 1),
        (parse_spec, f"{box}OUTPUT b\nPRED p := {poly} > 0\np -> b\n", declared + 2),
    ):
        offset = 0 if parse is parse_constraints else len("PRED p := ")
        calls.clear()
        with pytest.raises(SpecError, match=message) as caught:
            parse(text)
        assert len(calls) == products
        assert (caught.value.line, caught.value.column) == (line, column + offset)


class TestPowerCaps:
    BOX = "REAL x IN [0, 1]\nREAL y IN [0, 1]\nREAL z IN [0, 1]\nREAL w IN [0, 1]\n"

    @pytest.mark.parametrize(
        "power, column, message, products",
        [
            ("x^100000", 3, f"exponent 100000 exceeds the limit of {MAX_EXPONENT}", 0),
            ("(x + y + z + 1)^500", 17, f"exponent 500 exceeds the limit of {MAX_EXPONENT}", 0),
            # an exponent under the cap whose expansion passes the term cap:
            # its 9th product is the first with more than 500 terms
            ("(x + y + z + w + 1)^60", 21, f"more than {MAX_POWER_TERMS} terms", 9),
            # the same expansion written out as a product is held to the same
            # cap at the '*' that passes it, the 8th, joining the 9th factor
            pytest.param(
                " * ".join(["(x + y + z + w + 1)"] * 12),
                21 + 22 * 7,
                f"product expands to more than {MAX_POWER_TERMS} terms",
                8,
                id="written-out-product",
            ),
            pytest.param(
                "(x + y + z + w + 1)^8 * (x + y + z + w + 1) * x",
                23,
                f"product expands to more than {MAX_POWER_TERMS} terms",
                9,
                id="power-times-factor",
            ),
            # two factors of 126 terms: refused at the '*' before their
            # 15,876 pairs are multiplied, after the two powers' 10 products
            pytest.param(
                "(x + y + z + w + 1)^5 * (x + y + z + w + 1)^5",
                23,
                f"product pairs more than {MAX_PRODUCT_PAIRS} terms of its factors",
                10,
                id="product-of-wide-factors",
            ),
        ],
    )
    def test_oversized_power_is_rejected_at_its_exponent(
        self, monkeypatch, power, column, message, products
    ):
        """The parse gives up before it expands further: an exponent over its
        cap is never multiplied out, and an expansion, by a power or written
        out as a product, stops at the first product past the term cap.
        Counted in products, not in seconds."""
        assert_rejected_after(monkeypatch, self.BOX, power, column, message, products)

    @pytest.mark.parametrize(
        "summands, column, products",
        [
            # the 715 degree-4 monomials as 10 summands of 220 terms each:
            # the '+' joining the 3rd summand passes the cap (505 terms),
            # after 3 powers of 3 products and 3 products by x_i (a
            # 1,366-byte constraint file, multiplied out for seconds before
            # the product past the cap was rejected)
            pytest.param(
                [f"({SUM})^3 * x{i}" for i in range(10)], 118, 12, id="degree-4-square"
            ),
            # the 2,002 degree-5 monomials as 55 summands of 220 terms, 5
            # products each (a 7,226-byte constraint file; half a minute of
            # products before)
            pytest.param(
                [f"({SUM})^3 * x{i} * x{j}" for i in range(10) for j in range(i, 10)],
                128,
                15,
                id="degree-5-square",
            ),
        ],
    )
    def test_a_sum_past_the_term_cap_is_rejected_before_it_is_multiplied(
        self, monkeypatch, summands, column, products
    ):
        """``(P) * (P)`` over 10 reals, with P more monomials than the term
        cap, stops at the ``+`` that takes P past the cap, long before the
        products of P's terms: counted in products, not in seconds."""
        P = " + ".join(summands)
        assert_rejected_after(
            monkeypatch,
            TEN_REALS,
            f"({P}) * ({P})",
            column,
            f"sum expands to more than {MAX_POWER_TERMS} terms",
            products,
        )

    def test_powers_within_the_caps_expand_exactly(self):
        doc = parse_constraints(f"{self.BOX}x^{MAX_EXPONENT} + (x + y + 1)^30 > 0\n")
        x = Polynomial.variable(4, 0)
        y = Polynomial.variable(4, 1)
        one = Polynomial.constant(4, 1)
        expected = x.power(MAX_EXPONENT) + (x + y + one).power(30)
        assert len((x + y + one).power(30).terms) <= MAX_POWER_TERMS
        assert doc.checks[0] == PolyConstraint(expected, ">")


BIG = 10**2200  # 2,201 digits: two of them multiply past the digit limit


class TestDigitLimit:
    """Every coefficient of an accepted polynomial has a numerator and a
    denominator of at most ``MAX_DIGITS`` digits, the most Python 3.11 on
    prints an int with, so that every accepted document prints.  A product
    or power is rejected where it passes the limit, and any other
    polynomial at its relation."""

    @pytest.mark.parametrize(
        "poly, column, what",
        [
            # reported at the exponent, as a power past the term cap is
            (f"(x + {BIG})^2 > 1", len(f"(x + {BIG})^") + 1, "power"),
            (f"{BIG} * {BIG} * x > 1", len(f"{BIG} ") + 1, "product"),
            # 1/a - 1/b = (b - a)/(ab) for coprime a, b: no product passes
            # the limit, the two sides' difference does
            (f"x + 1/{BIG + 1} > 1/{BIG + 3}", len(f"x + 1/{BIG + 1} ") + 1, "relation"),
        ],
        ids=["power", "product", "relation"],
    )
    @pytest.mark.parametrize("kind", ["spec", "constraints"])
    def test_past_the_limit_is_rejected(self, kind, poly, column, what):
        if kind == "spec":
            head, tail, parse = "PRED p := ", "OUTPUT g\nALWAYS (p -> g)\n", parse_spec
        else:
            head, tail, parse = "", "", parse_constraints
        with pytest.raises(SpecError) as info:
            parse(f"REAL x IN [0, 1]\n{head}{poly}\n{tail}")
        assert info.value.message == f"{what} has a coefficient of more than {MAX_DIGITS} digits"
        assert (info.value.line, info.value.column) == (2, len(head) + column)

    def test_at_the_limit_prints_and_reads_back(self):
        most = 10**MAX_DIGITS - 1  # the largest MAX_DIGITS-digit number
        text = f"REAL x IN [0, 1]\nPRED p := {most // 9} * 9 * x > 1/{10**2150} * 1/{10**2149}\n"
        doc = parse_spec(text + "OUTPUT g\nALWAYS (p -> g)\n")
        [pred] = doc.predicates
        assert pred.constraint.poly.terms == {
            (1,): Fraction(most),
            (0,): Fraction(-1, 10**(MAX_DIGITS - 1)),
        }
        assert parse_spec(format_spec(doc)) == doc


class TestNestingCap:
    # the declarations before one line nested n deep, and that line's
    # (prefix, opener, core, closer, suffix)
    SHAPES = {
        "parentheses": (MINIMAL, ("", "(", "a", ")", "")),
        "next": (MINIMAL, ("", "NEXT ", "a", "", "")),
        "not": (MINIMAL, ("", "!", "a", "", "")),
        "polynomial": (
            "REAL x IN [0, 1]\nOUTPUT b\np -> b\n",
            ("PRED p := ", "(", "x", ")", " > 0"),
        ),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_the_cap_parses_and_one_more_level_is_rejected_at_its_opener(self, shape):
        header, (prefix, opener, core, closer, suffix) = self.SHAPES[shape]

        def text(depth: int) -> str:
            return f"{header}{prefix}{opener * depth}{core}{closer * depth}{suffix}\n"

        doc = parse_spec(text(MAX_NESTING))
        assert parse_spec(format_spec(doc)) == doc
        with pytest.raises(SpecError, match=f"nested more than {MAX_NESTING} levels") as caught:
            parse_spec(text(MAX_NESTING + 1))
        line = header.count("\n") + 1
        column = len(prefix) + MAX_NESTING * len(opener) + 1
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_groups_and_prefix_operators_count_together(self):
        half = MAX_NESTING // 2
        nested = "(" * half + "!" * half + "{}a" + ")" * half
        parse_spec(f"{MINIMAL}{nested.format('')}\n")
        with pytest.raises(SpecError, match="nested more than"):
            parse_spec(f"{MINIMAL}{nested.format('NEXT ')}\n")

    def test_a_prefix_operator_shares_the_level_of_its_group(self):
        """``format_spec`` prints ``NEXT (a)`` for ``NEXT a``: its text of a
        document within the cap must parse back."""
        nested = "ALWAYS (" * MAX_NESTING + "{}a" + ")" * MAX_NESTING
        doc = parse_spec(f"{MINIMAL}{nested.format('')}\n")
        assert parse_spec(format_spec(doc)) == doc
        with pytest.raises(SpecError, match="nested more than"):
            parse_spec(f"{MINIMAL}{nested.format('!')}\n")

    @pytest.mark.parametrize(
        "nested, column",
        [
            (lambda n: "(" * n + "x" + ")" * n, MAX_NESTING + 1),
            # a polynomial's leading sign is not recursed into: no level
            (lambda n: "-" * (n + 1) + "x", MAX_NESTING + 2),
        ],
        ids=["parentheses", "minus"],
    )
    def test_constraint_files_share_the_cap(self, nested, column):
        parse_constraints(f"REAL x IN [0, 1]\n{nested(MAX_NESTING)} > 0\n")
        with pytest.raises(SpecError, match="nested more than") as caught:
            parse_constraints(f"REAL x IN [0, 1]\n{nested(MAX_NESTING + 1)} > 0\n")
        assert (caught.value.line, caught.value.column) == (2, column)


class TestFormulaDepthCap:
    """The formula lines plus the operators of the deepest line are capped:
    binary chains used to recurse once per operator in the parser (``->``,
    ``UNTIL``) or in every later walk (``&&``, ``||``, one level per line)."""

    CAP = MAX_FORMULA_DEPTH
    AT = f"more than {MAX_FORMULA_DEPTH} levels of operators and formula lines"

    def test_formula_lines_count_up_to_the_cap(self):
        # each line has one operator: the last line fits when lines + 1 <= cap
        lines = ["ASSUME a || b", *["a -> b"] * (self.CAP - 2)]
        doc = parse_spec(MINIMAL + "\n".join(lines) + "\n")
        assert len(doc.assumptions) + len(doc.guarantees) == self.CAP - 1
        with pytest.raises(SpecError, match=self.AT) as caught:
            parse_spec(MINIMAL + "\n".join([*lines, "a -> b"]) + "\n")
        assert (caught.value.line, caught.value.column) == (self.CAP + 2, 1)

    @pytest.mark.parametrize("op", ["&&", "||", "->", "UNTIL"])
    def test_a_chain_up_to_the_cap_parses(self, op):
        # one line: the chain's cap - 1 operators plus the line itself
        operands = ["a", "b"] * self.CAP
        with pytest.raises(SpecError, match=self.AT):
            parse_spec(MINIMAL + f" {op} ".join(operands[: self.CAP + 1]) + "\n")
        doc = parse_spec(MINIMAL + f" {op} ".join(operands[: self.CAP]) + "\n")
        assert parse_spec(format_spec(doc)) == doc
        [formula] = doc.guarantees
        depth = 0
        while not isinstance(formula, Atom):
            formula = formula.right if op in ("->", "UNTIL") else formula.left
            depth += 1
        assert depth == self.CAP - 1

    @pytest.mark.parametrize("op", ["&&", "||", "->", "UNTIL"])
    def test_a_long_chain_is_rejected_at_its_innermost_operator_past_the_cap(self, op):
        """``a op a op ... op a`` with 1,000 operators: the innermost
        operator whose subformula is one level too deep is reported (the
        cap-th from the left when the chain nests to the left, the one 1,000
        - cap + 1 from the right end when it nests to the right)."""
        text = MINIMAL + f" {op} ".join(["a"] * 1001) + "\n"
        with pytest.raises(SpecError, match=self.AT) as caught:
            parse_spec(text)
        budget = self.CAP - 1
        k = budget + 1 if op in ("&&", "||") else 1000 - budget
        column = 1 + (k - 1) * (len(op) + 3) + 2
        assert (caught.value.line, caught.value.column) == (3, column)

    def test_prefix_operators_count_as_levels(self):
        chain = " && ".join(["a"] * (self.CAP - 10))  # cap - 11 operators
        parse_spec(MINIMAL + "NEXT " * 10 + f"({chain})\n")
        with pytest.raises(SpecError, match=self.AT):
            parse_spec(MINIMAL + "NEXT " * 11 + f"({chain})\n")

    def test_a_deep_line_leaves_fewer_lines(self):
        deep = " && ".join(["a"] * 101)  # 100 operators
        lines = [deep, *["a"] * (self.CAP - 101)]
        parse_spec(MINIMAL + "\n".join(lines) + "\n")
        with pytest.raises(SpecError, match=self.AT) as caught:
            parse_spec(MINIMAL + "\n".join([*lines, "a"]) + "\n")
        assert (caught.value.line, caught.value.column) == (self.CAP - 100 + 3, 1)


class TestDeclarations:
    def test_real_defaults_to_input_side(self):
        doc = parse_spec("REAL x IN [0, 1]\nOUTPUT b\nb\n")
        assert doc.real_vars == (RealVarDecl("x", Fraction(0), Fraction(1), INPUT_SIDE),)

    def test_real_sides_are_explicit(self):
        doc = parse_spec(
            "REAL INPUT x IN [-1, 1]\nREAL OUTPUT u IN [0, 1/2]\nOUTPUT b\nb\n"
        )
        assert doc.real_vars[0].side == INPUT_SIDE
        assert doc.real_vars[1] == RealVarDecl("u", Fraction(0), Fraction(1, 2), OUTPUT_SIDE)

    def test_empty_range_is_rejected(self):
        with pytest.raises(SpecError, match="empty range"):
            parse_spec("REAL x IN [1, 0]\nOUTPUT b\nb\n")

    def test_predicate_side_follows_its_variables(self):
        doc = parse_spec(
            "REAL x IN [0, 1]\nREAL OUTPUT u IN [0, 1]\n"
            "PRED pin := x > 0\nPRED pout := u > 0\nOUTPUT b\npin -> pout\n"
        )
        assert doc.predicates[0].side == INPUT_SIDE
        assert doc.predicates[1].side == OUTPUT_SIDE
        assert doc.input_atoms() == ("pin",)
        assert doc.output_atoms() == ("b", "pout")

    def test_constant_predicate_defaults_to_input_side(self):
        doc = parse_spec("OUTPUT b\nPRED p := 1 > 0\np -> b\n")
        assert doc.predicates[0].side == INPUT_SIDE
        assert doc.predicates[0].constraint.poly.arity == 0

    def test_mixed_side_predicate_is_rejected(self):
        with pytest.raises(SpecError, match="mixes"):
            parse_spec(
                "REAL x IN [0, 1]\nREAL OUTPUT u IN [0, 1]\n"
                "PRED p := x + u > 0\nOUTPUT b\np -> b\n"
            )

    def test_predicate_over_undeclared_variable_is_rejected(self):
        with pytest.raises(SpecError, match="not a declared real variable"):
            parse_spec("PRED p := z > 0\nOUTPUT b\np -> b\n")

    def test_predicate_atom_must_not_be_relisted(self):
        with pytest.raises(SpecError, match="must not be re-listed under INPUT"):
            parse_spec("REAL x IN [0, 1]\nPRED p := x > 0\nINPUT p\nOUTPUT b\np -> b\n")

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec("INPUT a\nOUTPUT a\na\n")
        with pytest.raises(SpecError, match="duplicate"):
            parse_spec("REAL x IN [0, 1]\nINPUT x\nOUTPUT b\nb\n")

    def test_real_variable_is_not_a_boolean_atom(self):
        with pytest.raises(SpecError, match="cannot be used as a Boolean atom"):
            parse_spec("REAL x IN [0, 1]\nOUTPUT b\nx -> b\n")

    def test_undeclared_atom_is_rejected(self):
        with pytest.raises(SpecError, match="undeclared atom 'c'"):
            parse_spec("INPUT a\nOUTPUT b\na -> c\n")

    def test_missing_guarantees_are_rejected(self):
        with pytest.raises(SpecError, match="no guarantees"):
            parse_spec("INPUT a\nOUTPUT b\nASSUME ALWAYS (a)\n")

    def test_declarations_may_follow_formulas(self):
        doc = parse_spec("a -> b\nINPUT a\nOUTPUT b\n")
        assert doc.guarantees == (Implies(Atom("a"), Atom("b")),)


class TestFixtureSpecs:
    def test_threshold_arbiter_parses(self):
        doc = parse_spec((SPECS_DIR / "threshold_arbiter.spec").read_text())
        assert doc.boolean_inputs == ()
        assert doc.boolean_outputs == ("grant1", "grant2")
        assert doc.input_atoms() == ("req1", "req2")
        assert [v.name for v in doc.real_vars] == ["x", "y"]
        assert all(v.lower == 0 and v.upper == 4 for v in doc.real_vars)
        assert len(doc.guarantees) == 3
        assert doc.guarantees[0] == Always(Implies(Atom("req1"), Next(Atom("grant1"))))

    def test_error_monitor_parses(self):
        doc = parse_spec((SPECS_DIR / "error_monitor.spec").read_text())
        assert doc.boolean_inputs == ("error", "operator", "req1", "req2", "req3")
        assert doc.boolean_outputs == ("stop", "grant1", "grant2", "grant3")
        assert len(doc.assumptions) == 1
        assert len(doc.guarantees) == 9
        assert doc.assumptions[0] == Always(Eventually(Atom("operator")))
        assert doc.guarantees[0] == Always(
            Implies(Atom("error"), Until(Atom("stop"), Atom("operator")))
        )

    def test_triple_sensor_arbiter_parses(self):
        doc = parse_spec((SPECS_DIR / "triple_sensor_arbiter.spec").read_text())
        assert [v.name for v in doc.real_vars] == ["x0", "x1", "x2"]
        assert len(doc.predicates) == 2
        assert doc.predicates[1].constraint.relation == "<"


class TestFormulaHelpers:
    def test_atoms_of_collects_all_names(self):
        f = only_guarantee(MINIMAL + "ALWAYS (a -> b UNTIL a)")
        assert atoms_of(f) == {"a", "b"}

    def test_is_propositional(self):
        assert is_propositional(only_guarantee(MINIMAL + "!(a -> b) || a"))
        assert not is_propositional(only_guarantee(MINIMAL + "a -> NEXT (b)"))

    def test_truth(self):
        f = only_guarantee(MINIMAL + "!(a -> b) || FALSE")
        assert truth(f, [{"a": True, "b": False}, {"a": True, "b": True}], 0) == [True, False]
        assert truth(f, [], 0) == []
        g = only_guarantee(MINIMAL + "a -> NEXT (NEXT (b))")
        trace = [{"a": True, "b": False}, {"a": False, "b": False}, {"a": True, "b": True}]
        assert truth(g, trace, 2)[0] and not truth(g, trace + trace, 5)[2]

    def test_substitute_atoms(self):
        f = only_guarantee(MINIMAL + "ALWAYS (a -> b)")
        g = substitute_atoms(f, {"b": And(Atom("c"), Atom("d"))})
        assert g == Always(Implies(Atom("a"), And(Atom("c"), Atom("d"))))

    def test_fold(self):
        assert fold(And, []) == TrueFormula()
        assert fold(Or, []) == FalseFormula()
        assert fold(And, [Atom("a")]) == Atom("a")
        assert fold(And, [Atom("a"), Atom("b"), Atom("c")]) == And(
            And(Atom("a"), Atom("b")), Atom("c")
        )
        assert fold(Or, [Atom("a"), Atom("b"), Atom("c")]) == Or(
            Or(Atom("a"), Atom("b")), Atom("c")
        )

    def test_document_formula_wraps_assumptions(self):
        doc = parse_spec("INPUT a\nOUTPUT b\nASSUME ALWAYS (a)\nb\n")
        assert document_formula(doc) == Implies(Always(Atom("a")), Atom("b"))
        doc2 = parse_spec("INPUT a\nOUTPUT b\nb\n")
        assert document_formula(doc2) == Atom("b")


class TestPrinting:
    def test_formula_printing_uses_minimal_parens(self):
        f = only_guarantee(MINIMAL + "(a -> b) -> (a UNTIL b) UNTIL (a || b && a)")
        printed = format_formula(f)
        assert printed == "(a -> b) -> (a UNTIL b) UNTIL a || b && a"
        assert only_guarantee(MINIMAL + printed) == f

    def test_polynomial_printing_orders_by_degree(self):
        poly = Polynomial(
            2,
            {(0, 0): Fraction(-3), (1, 0): Fraction(1), (0, 2): Fraction(-7, 2)},
        )
        assert format_polynomial(poly, ("x", "y")) == "-7/2 * y^2 + x - 3"

    def test_zero_polynomial_prints(self):
        assert format_polynomial(Polynomial(1, {}), ("x",)) == "0"

    def test_format_spec_round_trips_fixtures(self):
        for name in (
            "threshold_arbiter.spec",
            "error_monitor.spec",
            "triple_sensor_arbiter.spec",
        ):
            doc = parse_spec((SPECS_DIR / name).read_text())
            assert parse_spec(format_spec(doc)) == doc

    def test_format_spec_round_trips_random_documents(self):
        rng = random.Random(20260815)
        for _ in range(100):
            doc = random_document(rng)
            text = format_spec(doc)
            assert parse_spec(text) == doc, text


class TestConstraintDocuments:
    def test_ranges_and_checks_parse(self):
        doc = parse_constraints(
            "## shared box\n"
            "REAL x IN [0, 4]\n"
            "REAL y IN [-1, 1/2]\n"
            "\n"
            "x + y > 3\n"
            "x^2 + y^2 >= 7/2 -> x > 1\n"
        )
        assert doc.variables == ("x", "y")
        assert doc.box.intervals == (
            (Fraction(0), Fraction(4)),
            (Fraction(-1), Fraction(1, 2)),
        )
        first, second = doc.checks
        assert isinstance(first, PolyConstraint)
        assert first.relation == ">"
        assert first.poly == Polynomial(
            2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (0, 0): Fraction(-3)}
        )
        assert isinstance(second, ConstraintImplication)
        assert second.premise.relation == ">="
        assert second.conclusion.poly == Polynomial(
            2, {(1, 0): Fraction(1), (0, 0): Fraction(-1)}
        )

    def test_declarations_may_follow_uses(self):
        doc = parse_constraints("x > 1\nREAL x IN [0, 2]\n")
        assert doc.variables == ("x",)
        assert doc.checks[0].poly.arity == 1

    def test_rejects_undeclared_variables(self):
        with pytest.raises(SpecError, match="not a declared real variable"):
            parse_constraints("REAL x IN [0, 1]\nx + z > 0\n")

    def test_rejects_duplicate_declarations(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_constraints("REAL x IN [0, 1]\nREAL x IN [0, 2]\nx > 0\n")

    def test_rejects_empty_ranges_and_empty_documents(self):
        with pytest.raises(SpecError, match="empty range"):
            parse_constraints("REAL x IN [1, 0]\nx > 0\n")
        with pytest.raises(SpecError, match="no constraints"):
            parse_constraints("REAL x IN [0, 1]\n")

    def test_rejects_side_markers(self):
        with pytest.raises(SpecError, match="expected a variable name"):
            parse_constraints("REAL INPUT x IN [0, 1]\nx > 0\n")

    def test_rejects_missing_relation(self):
        with pytest.raises(SpecError, match="expected a relation"):
            parse_constraints("REAL x IN [0, 1]\nx + 1\n")

    def test_rejects_zero_denominators(self):
        with pytest.raises(SpecError, match="line 1, column 15: invalid rational"):
            parse_constraints("REAL x IN [0, 1/0]\nx > 0\n")
        with pytest.raises(SpecError, match="line 2, column 5: invalid rational"):
            parse_constraints("REAL x IN [0, 1]\nx > 0/0\n")


# fragments a mutant splices in: rational literals (zero denominators among
# them), operators, keywords, brackets, and non-ASCII characters, two of
# them superscript digits that str.isdigit accepts
_MUTATION_PIECES = (
    "/0", "0/0", "1/0", "/", "0", "7/", "1.5", ".", "^", "^0", "^-1", "-",
    "*", "(", ")", "[", "]", ",", "<", ">=", "->", "&&", "!", ":=", "=",
    "x", "REAL", "PRED", "INPUT", "OUTPUT", "IN", "ALWAYS", "NEXT", "\n", " ",
    "\u00b2", "\u00b9", "\u00e9",
)


def _mutant(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:i] + rng.choice(_MUTATION_PIECES) + text[i:]
        elif roll < 0.7:
            text = text[:i] + text[i + rng.randint(1, 4):]
        else:
            text = text[:i] + rng.choice(_MUTATION_PIECES) + text[i + 1:]
    return text


class TestMutationSweep:
    @pytest.mark.parametrize(
        "name", ["threshold_arbiter", "triple_sensor_arbiter", "error_monitor"]
    )
    def test_mutated_bundled_specs_raise_only_spec_errors(self, name):
        text = (SPECS_DIR / f"{name}.spec").read_text()
        rng = random.Random(f"mutants:{name}")
        rejected = 0
        for _ in range(400):
            mutant = _mutant(rng, text)
            for parse in (parse_spec, parse_constraints):
                try:
                    parse(mutant)
                except SpecError:
                    rejected += 1
        assert rejected


class TestNonAsciiInput:
    """Superscript digits pass str.isdigit but are no rational literal; they
    are ordinary lexer errors, not a crash."""

    @pytest.mark.parametrize(
        "text, line, column, char",
        [
            (MINIMAL + "a && b\u00b2\n", 3, 7, "\u00b2"),
            (MINIMAL + "\u00b9 -> b\n", 3, 1, "\u00b9"),
            ("REAL x IN [0, 4]\nPRED p := x^\u00b2 > 1\nOUTPUT b\np -> b\n", 2, 13, "\u00b2"),
            ("REAL x IN [0, \u00b9]\nOUTPUT b\nb\n", 1, 15, "\u00b9"),
        ],
    )
    def test_spec_lines(self, text, line, column, char):
        with pytest.raises(SpecError) as caught:
            parse_spec(text)
        assert caught.value.message == f"unexpected character {char!r}"
        assert (caught.value.line, caught.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("REAL x IN [0, 1]\nx\u00b2 > 0\n", 2, 2),
            ("REAL x IN [0, \u00b9]\nx > 0\n", 1, 15),
            ("REAL x IN [0, 1]\nx^\u00b9 > 0 -> x > 0\n", 2, 3),
        ],
    )
    def test_constraint_lines(self, text, line, column):
        with pytest.raises(SpecError, match="unexpected character") as caught:
            parse_constraints(text)
        assert (caught.value.line, caught.value.column) == (line, column)


def _outcome(parse, text: str):
    try:
        return "document", parse(text)
    except SpecError as exc:
        return "error", (exc.message, exc.line, exc.column)
    except Exception as exc:  # what the reference parser leaks
        return "leak", type(exc).__name__


def _random_constraint_text(rng: random.Random) -> str:
    """Ranges and one-constraint or implication lines, declarations anywhere."""
    arity = rng.randint(1, 3)
    names = tuple(rng.sample(("x", "y", "z", "t", "w1"), arity))
    box = random_box(rng, arity)
    lines = [f"REAL {n} IN [{lo}, {hi}]" for n, (lo, hi) in zip(names, box.intervals)]

    def constraint() -> str:
        poly = random_polynomial(rng, arity, max_degree=3, max_terms=4)
        relation = rng.choice(("<", "<=", ">", ">="))
        return format_constraint(PolyConstraint(poly, relation), names)

    for _ in range(rng.randint(1, 3)):
        line = constraint()
        if rng.random() < 0.3:
            line += " -> " + constraint()
        lines.insert(rng.randint(0, len(lines)), line)
    return "\n".join(lines) + "\n"


# one declaration of ``n`` of each kind, over the input real ``r`` and the
# output real ``s`` that the predicates read
_DECLARATIONS = (
    "REAL n IN [0, 1]",
    "REAL INPUT n IN [0, 1]",
    "REAL OUTPUT n IN [0, 1]",
    "PRED n := r > 0",
    "PRED n := s > 0",
    "INPUT n",
    "OUTPUT n",
)


def _collisions() -> tuple[str, ...]:
    """Every ordered pair of declarations of one name, with the name used
    in a formula and without."""
    return tuple(
        f"REAL r IN [0, 1]\nREAL OUTPUT s IN [0, 1]\n{first}\n{second}\nOUTPUT g\n{formula}\n"
        for first in _DECLARATIONS
        for second in _DECLARATIONS
        for formula in ("n -> g", "g")
    )


class TestReferenceParser:
    """The parser against the character-by-character lexer and name-keyed
    polynomials it replaced: the same document, or the same error message,
    line and column.  Where the reference leaks another exception, the
    parser must raise a SpecError."""

    def compare(self, text: str, seen) -> None:
        for parse, reference in (
            (parse_spec, reference_parse_spec),
            (parse_constraints, reference_parse_constraints),
        ):
            expected = _outcome(reference, text)
            got = _outcome(parse, text)
            if expected[0] == "leak":
                assert got[0] == "error", (text, expected, got)
            else:
                assert got == expected, text
            seen[expected[0]] += 1

    # orders of checks and corners of the grammar that random mutants rarely reach
    EDGE_CASES = (
        "REAL x IN [0, 1]\nREAL x IN [2, 1]\nx > 0\n",  # duplicate before empty range
        "REAL x IN [1, 0]\nREAL x IN [0, 1]\nx > 0\n",
        "REAL x IN [0, 1]\nz + y > x\n",  # first undeclared name in sorted order
        "OUTPUT b\nPRED p := z * y > 0\np -> b\n",
        "REAL x IN [0, 1]\nREAL OUTPUT u IN [0, 1]\nPRED p := u + z > x\nOUTPUT b\np -> b\n",
        "REAL x IN [0, 1]\nPRED p := z - z + x^2 > 0\nOUTPUT b\np -> b\n",  # z cancels
        "REAL x IN [0, 1]\ny^0 + x > 1\n",  # y^0 uses no y
        "REAL x IN [0, 1]\nREAL y IN [0, 1]\ny * x - x * y + y > 0 -> x < 1\n",
        "INPUT a\n\u00a0\nOUTPUT b\na -> b\n",  # str.strip blanks the middle line
        "INPUT a\nOUTPUT b\na\u00a0-> b\n",
        "REAL x IN [0, \u0663]\nx > 1\n",  # an Arabic-Indic digit is a digit
        "INPUT a\nOUTPUT b\na <-> b\n",
        "INPUT a\nOUTPUT b\na <<-> b\n",
        "REAL x IN [0, 1]\nx 2 > 0\n",
        "REAL x IN [0, 1]\n2x > 0\n",
        "REAL x IN [0, 1]\nx^1.5 > 0\n",
        "REAL x IN [0, 1]\n1. > x\n",
        "REAL x IN [0, 1]\nx := 1\n",
        "REAL x IN [0, 1]\nx & 1\n",
        "REAL INPUT x IN [0, 1]\nx > 0\n",
    ) + _collisions()  # the registry's order and its three messages

    def test_edge_cases(self):
        seen = {"document": 0, "error": 0, "leak": 0}
        for text in self.EDGE_CASES:
            self.compare(text, seen)
        assert seen["document"] >= 5 and seen["error"] >= 20, seen

    def test_bundled_spec_mutants(self):
        seen = {"document": 0, "error": 0, "leak": 0}
        for name in ("threshold_arbiter", "triple_sensor_arbiter", "error_monitor"):
            text = (SPECS_DIR / f"{name}.spec").read_text()
            self.compare(text, seen)
            rng = random.Random(f"differential:{name}")
            for _ in range(2000):
                self.compare(_mutant(rng, text), seen)
        assert seen["document"] >= 100 and seen["error"] >= 100 and seen["leak"], seen

    def test_random_documents_and_constraint_files(self):
        rng = random.Random(20261018)
        seen = {"document": 0, "error": 0, "leak": 0}
        for _ in range(300):
            text = format_spec(random_synthesis_document(rng))
            self.compare(text, seen)
            self.compare(_mutant(rng, text), seen)
        for _ in range(300):
            text = _random_constraint_text(rng)
            self.compare(text, seen)
            self.compare(_mutant(rng, text), seen)
        assert seen["document"] >= 100 and seen["error"] >= 100 and seen["leak"], seen

