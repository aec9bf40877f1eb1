"""Specification language: LTL over Boolean atoms plus polynomial predicates.

A specification is line-oriented text.  ``##`` starts a comment.  Declaration
lines are

    INPUT a, b                      Boolean atoms the environment controls
    OUTPUT g1, g2                   Boolean atoms the controller emits
    REAL x IN [0, 4]                bounded input-side real variable
    REAL OUTPUT u IN [-1, 1]        bounded output-side real variable
    PRED req := x + y > 3           predicate atom over one side's reals

Every other nonblank line is a temporal formula: a guarantee, or an
assumption when prefixed with ``ASSUME``.  Formula operators, tightest first:
``!`` and the temporal prefixes ``ALWAYS``/``EVENTUALLY``/``NEXT``, then
``&&``, ``||``, ``UNTIL``, ``->``.  ``UNTIL`` and ``->`` associate to the
right.  Polynomials use ``+ - * ^`` with nonnegative integer exponents and no
implicit multiplication; rational constants are integers, exact decimals, or
``p/q``.  A power may have an exponent of at most ``MAX_EXPONENT``, and a
sum, a power or a product may expand to at most ``MAX_POWER_TERMS`` terms:
a sum is rejected at the ``+`` or ``-`` that takes it past the cap, and a
power or a product at the first multiplication past it.  A multiplication
is also refused before it is carried out when its factors' term counts
multiply to more than ``MAX_PRODUCT_PAIRS``.
Parenthesised groups and prefix operators (``!``, ``ALWAYS``, ``EVENTUALLY``,
``NEXT`` and a polynomial's unary ``-``) nest at most ``MAX_NESTING`` levels
deep, and the token that opens a deeper level is rejected.  A prefix
operator applied to a group shares the group's level, so ``NEXT (a)`` is as
deep as ``NEXT a``: ``format_spec`` prints every temporal operand in
parentheses, and its text of a document within the cap stays within it.  The
formula lines plus the operators on the longest path of any line may be at
most ``MAX_FORMULA_DEPTH``, and the line or innermost operator past it is
rejected; binary chains are read in loops.

A predicate atom is an atom of its side by construction and must not be
re-listed under INPUT or OUTPUT.

Each line is lexed by one token pattern: blanks, ``<->`` (rejected with a
hint), the operators (the ``TokenKind`` values), numbers, and words.  Parsing
is one pass in line order.  A polynomial is built as a ``Polynomial`` over
its line's identifiers, numbered in order of first appearance; once the
document is read, each constraint is renumbered onto the declared order, the
reals of its side for a ``PRED`` and every declared real in a constraint
file (``parse_constraints``, which shares the line, range and relation
parsers).

The formula layer keeps one implementation of each concept.  One operator
table, ``_SYNTAX``, gives each operator's spelling, binding level and
associativity, and both the parser and ``format_formula`` read it.
``operands`` reads a node's operands from its dataclass fields, and ``walk``
visits every subformula once, operands first, with an explicit stack.  The
atoms, the NEXT depth (``is_propositional`` is NEXT depth 0) and atom
substitution are built on ``walk``, the depth on ``operands`` a level at a
time, and none of them recurses.  ``fold`` joins
formulas by ``And`` or ``Or``.  ``truth`` is the one evaluator: built on
``walk``, it judges every subformula once at every position of an
ultimately periodic word, for the guarantee monitor, the output
re-encoding and the lasso semantics alike.  The printer, and dataclass
hashing, equality and ``repr``, still recurse once per level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Iterator

from .bernstein import Box, ConstraintImplication, Polynomial, PolyConstraint

INPUT_SIDE = "input"
OUTPUT_SIDE = "output"

# a power ``p^k`` or a product is expanded a factor at a time, at a cost that
# grows with k and the factors: past either cap it is rejected, not expanded.
# Each multiplication pairs every term of one factor with every term of the
# other, so it is refused up front past MAX_PRODUCT_PAIRS pairs (a few
# hundredths of a second), and a sum past the term cap, so that no factor
# outgrows it
MAX_EXPONENT = 64
MAX_POWER_TERMS = 500
MAX_PRODUCT_PAIRS = 10_000
# each level of nesting is a few frames of the recursive-descent parser: past
# the cap a line is rejected rather than parsed into Python's recursion limit
MAX_NESTING = 64
# walks over ``document_formula`` (which conjoins one level per line) recurse
# a few frames per level: the cap bounds its depth, leaving room under Python's
# recursion limit for the refinements a run appends to the guarantees
MAX_FORMULA_DEPTH = 200


class SpecError(ValueError):
    """Parse or validation failure with a source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# -- formula AST --------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    """Dual of Until; produced by normalization, never by the parser."""

    left: Formula
    right: Formula


def operands(formula: Formula) -> tuple[Formula, ...]:
    """The operands of a formula node in field order: every field of a node
    but an atom's name holds one."""
    return () if isinstance(formula, Atom) else tuple(vars(formula).values())


def walk(formula: Formula) -> Iterator[Formula]:
    """Every subformula once, each after its operands, without recursion.  A
    subformula object shared between operands is visited once."""
    seen = {id(formula)}
    stack = [(formula, iter(operands(formula)))]
    while stack:
        f, rest = stack[-1]
        for g in rest:
            if id(g) not in seen:
                seen.add(id(g))
                stack.append((g, iter(operands(g))))
                break
        else:
            stack.pop()
            yield f


def atoms_of(formula: Formula) -> set[str]:
    return {f.name for f in walk(formula) if isinstance(f, Atom)}


def formula_depth(formula: Formula) -> int:
    """Operators on the longest path of ``formula``, counted without recursion."""
    depth, level = -1, [formula]
    while level:
        below = {id(g): g for f in level for g in operands(f)}
        depth, level = depth + 1, list(below.values())
    return depth


_WINDOWED = (Atom, TrueFormula, FalseFormula, Not, And, Or, Implies, Next)


def next_depth(formula: Formula) -> int | None:
    """Most NEXTs on a path of ``formula``, or None when it has another
    temporal operator; counted without recursion."""
    depth: dict[int, int] = {}
    for f in walk(formula):
        if not isinstance(f, _WINDOWED):
            return None
        below = max(map(depth.__getitem__, map(id, operands(f))), default=0)
        depth[id(f)] = below + isinstance(f, Next)
    return depth[id(formula)]


def is_propositional(formula: Formula) -> bool:
    """No temporal operator anywhere inside."""
    return next_depth(formula) == 0


def truth(formula: Formula, word: list[dict[str, bool]], loop_start: int) -> list[bool]:
    """The truth of ``formula`` at every position of the ultimately periodic
    word ``word[:loop_start]`` followed by ``word[loop_start:]`` forever;
    ``[]`` for an empty word.  Each subformula is evaluated once, after its
    operands, without recursion: UNTIL and EVENTUALLY as least fixpoints,
    RELEASE and ALWAYS as greatest ones."""
    n = len(word)
    if not n:
        return []
    after = [*range(1, n), loop_start]
    # two backward sweeps reach a fixpoint: the first settles the loop
    # start, whose answer never needs the word to wrap, and the second,
    # reading the settled loop start at the loop's end, every other position
    backward = range(n - 1, -1, -1)
    values: dict[int, list[bool]] = {}
    for f in walk(formula):
        parts = [values[id(g)] for g in operands(f)]
        if isinstance(f, Atom):
            out = [letter[f.name] for letter in word]
        elif isinstance(f, (TrueFormula, FalseFormula)):
            out = [isinstance(f, TrueFormula)] * n
        elif isinstance(f, Not):
            out = [not a for a in parts[0]]
        elif isinstance(f, And):
            out = [a and b for a, b in zip(*parts)]
        elif isinstance(f, Or):
            out = [a or b for a, b in zip(*parts)]
        elif isinstance(f, Implies):
            out = [not a or b for a, b in zip(*parts)]
        elif isinstance(f, Next):
            out = [parts[0][j] for j in after]
        elif isinstance(f, (Until, Eventually)):
            # EVENTUALLY q is TRUE UNTIL q
            hold, goal = parts if len(parts) == 2 else ([True] * n, parts[0])
            out = [False] * n
            for _ in range(2):
                for i in backward:
                    out[i] = goal[i] or hold[i] and out[after[i]]
        elif isinstance(f, (Release, Always)):
            # ALWAYS q is FALSE RELEASE q
            hold, goal = parts if len(parts) == 2 else ([False] * n, parts[0])
            out = [True] * n
            for _ in range(2):
                for i in backward:
                    out[i] = goal[i] and (hold[i] or out[after[i]])
        else:
            msg = f"unknown formula node {f!r}"
            raise TypeError(msg)
        values[id(f)] = out
    return values[id(formula)]


def substitute_atoms(formula: Formula, mapping: dict[str, Formula]) -> Formula:
    """``formula`` with each atom named in ``mapping`` replaced, without recursion."""
    done: dict[int, Formula] = {}
    for f in walk(formula):
        if isinstance(f, Atom):
            done[id(f)] = mapping.get(f.name, f)
        else:
            parts = [done[id(g)] for g in operands(f)]
            done[id(f)] = type(f)(*parts) if parts else f
    return done[id(formula)]


def fold(op, formulas) -> Formula:
    """``formulas`` joined from the left by ``op``, And or Or; its unit, TRUE
    or FALSE, when there are none."""
    items = list(formulas)
    if not items:
        return TrueFormula() if op is And else FalseFormula()
    return reduce(op, items)


# -- document types ------------------------------------------------------


@dataclass(frozen=True)
class RealVarDecl:
    name: str
    lower: Fraction
    upper: Fraction
    side: str


@dataclass(frozen=True)
class PredicateDef:
    atom: str
    constraint: PolyConstraint
    side: str


@dataclass(frozen=True)
class SpecDocument:
    boolean_inputs: tuple[str, ...]
    boolean_outputs: tuple[str, ...]
    real_vars: tuple[RealVarDecl, ...]
    predicates: tuple[PredicateDef, ...]
    assumptions: tuple[Formula, ...]
    guarantees: tuple[Formula, ...]

    def real_vars_of(self, side: str) -> tuple[RealVarDecl, ...]:
        return tuple(v for v in self.real_vars if v.side == side)

    def predicates_of(self, side: str) -> tuple[PredicateDef, ...]:
        return tuple(p for p in self.predicates if p.side == side)

    def input_atoms(self) -> tuple[str, ...]:
        return self.boolean_inputs + tuple(p.atom for p in self.predicates_of(INPUT_SIDE))

    def output_atoms(self) -> tuple[str, ...]:
        return self.boolean_outputs + tuple(p.atom for p in self.predicates_of(OUTPUT_SIDE))


def document_formula(doc: SpecDocument) -> Formula:
    """Play semantics of a document: conjoined assumptions imply guarantees."""
    guarantee = fold(And, doc.guarantees)
    if not doc.assumptions:
        return guarantee
    return Implies(fold(And, doc.assumptions), guarantee)


# -- lexer ----------------------------------------------------------------


class TokenKind(Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    NOT = "!"
    AND = "&&"
    OR = "||"
    IMPLIES = "->"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    ASSIGN = ":="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    CARET = "^"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    END = "end of line"


KEYWORDS = {
    "ALWAYS",
    "EVENTUALLY",
    "NEXT",
    "UNTIL",
    "ASSUME",
    "INPUT",
    "OUTPUT",
    "REAL",
    "PRED",
    "IN",
    "TRUE",
    "FALSE",
}

RELOPS = {TokenKind.LT: "<", TokenKind.LE: "<=", TokenKind.GT: ">", TokenKind.GE: ">="}

# operator spelling -> kind; every TokenKind value but the four word-like ones
_OPERATORS = {
    kind.value: kind
    for kind in TokenKind
    if kind not in (TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.END)
}

# one alternative per token class; longer operators first so "<=" beats "<"
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t]+)|(?P<iff><->)|(?P<op>"
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + r")|(?P<number>\d+(?:\.\d+)?(?:/\d+)?)|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
)

_STRAY = {
    "/": "'/' is only allowed inside a rational literal such as 7/2",
    "=": "'=' is not a relation; use one of <, <=, >, >=",
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int
    value: Fraction | None = None


def _lex_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        col = pos + 1
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            raise SpecError(_STRAY.get(ch, f"unexpected character {ch!r}"), line_no, col)
        group, lit = m.lastgroup, m.group()
        pos = m.end()
        if group == "iff":
            raise SpecError(
                "'<->' is not an operator; rewrite as two implications "
                "(a -> b) && (b -> a)",
                line_no,
                col,
            )
        if group == "op":
            tokens.append(Token(_OPERATORS[lit], lit, line_no, col))
        elif group == "number":
            try:
                value = Fraction(lit)
            except (ValueError, ZeroDivisionError):
                raise SpecError(f"invalid rational literal {lit!r}", line_no, col) from None
            tokens.append(Token(TokenKind.NUMBER, lit, line_no, col, value=value))
        elif group == "word":
            kind = TokenKind.KEYWORD if lit in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, lit, line_no, col))
    tokens.append(Token(TokenKind.END, "", line_no, len(text) + 1))
    return tokens


# -- parser ----------------------------------------------------------------


# operator syntax, read by both the parser and the printer: each operator's
# spelling, its binding level (loosest first; the prefix operators bind
# tightest) and whether a binary one associates to the right
_SYNTAX = {
    Implies: ("->", 1, True),
    Until: ("UNTIL", 2, True),
    Or: ("||", 3, False),
    And: ("&&", 4, False),
    Not: ("!", 5, False),
    Always: ("ALWAYS", 5, False),
    Eventually: ("EVENTUALLY", 5, False),
    Next: ("NEXT", 5, False),
}
_PREFIX_LEVEL = 5
_SPELLED = {spelling: (ctor, level, right) for ctor, (spelling, level, right) in _SYNTAX.items()}


def _expected(what: str, tok: Token) -> SpecError:
    return SpecError(f"expected {what}, found {tok.text or 'end of line'!r}", tok.line, tok.column)


def _capped(poly: Polynomial, what: str, tok: Token) -> Polynomial:
    """``poly``, unless the ``what`` at ``tok`` that built it expands to
    more than ``MAX_POWER_TERMS`` terms."""
    if len(poly.terms) > MAX_POWER_TERMS:
        msg = f"{what} expands to more than {MAX_POWER_TERMS} terms"
        raise SpecError(msg, tok.line, tok.column)
    return poly


def _product(a: Polynomial, b: Polynomial, what: str, tok: Token) -> Polynomial:
    """``a * b`` for the ``what`` at ``tok``: refused before it is
    multiplied out when its factors' term counts multiply to more than
    ``MAX_PRODUCT_PAIRS``, and after when it expands past the term cap."""
    if len(a.terms) * len(b.terms) > MAX_PRODUCT_PAIRS:
        msg = f"{what} pairs more than {MAX_PRODUCT_PAIRS} terms of its factors"
        raise SpecError(msg, tok.line, tok.column)
    return _capped(a * b, what, tok)


def _too_deep(tok: Token) -> SpecError:
    msg = f"more than {MAX_FORMULA_DEPTH} levels of operators and formula lines"
    return SpecError(msg, tok.line, tok.column)


class _LineParser:
    """Recursive descent over one line's tokens.

    Polynomials are built over the line's identifiers, numbered in order of
    first appearance; ``_renumber`` later moves them onto declared reals."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # groups and prefix operators open around the cursor
        self.names = tuple(dict.fromkeys(t.text for t in tokens if t.kind is TokenKind.IDENT))

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.END:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str | None = None) -> Token:
        if self.peek().kind is not kind:
            raise _expected(what or kind.value, self.peek())
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise _expected(word, self.peek())
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.text == word

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind is not TokenKind.END:
            raise SpecError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)

    def enter(self) -> None:
        """Consume the token that opens a group or a prefix operator, one
        level deeper; past ``MAX_NESTING`` levels it is rejected."""
        tok = self.advance()
        if self.depth == MAX_NESTING:
            raise SpecError(f"nested more than {MAX_NESTING} levels deep", tok.line, tok.column)
        self.depth += 1

    def prefix(self) -> bool:
        """Consume a prefix operator: it opens a level of its own, unless it
        applies to a group and shares the group's.  Returns whether it did."""
        if self.tokens[self.pos + 1].kind is TokenKind.LPAREN:
            self.advance()
            return False
        self.enter()
        return True

    # formulas, each with its depth: the operators on its longest path.  A
    # node deeper than ``budget`` is rejected at its operator, so the
    # innermost operator past the budget is the one reported

    def parse_formula(self, atom_sink: list[Token], budget: int) -> tuple[Formula, int]:
        self.budget = budget
        return self._binary(atom_sink)

    def _node(self, ctor, tok: Token, *parts: tuple[Formula, int]) -> tuple[Formula, int]:
        depth = 1 + max(d for _, d in parts)
        if depth > self.budget:
            raise _too_deep(tok)
        return ctor(*(f for f, _ in parts)), depth

    def _operator(self) -> tuple:
        """The constructor, level and associativity of the operator at the
        cursor; level 0 when there is none."""
        return _SPELLED.get(self.peek().text, (None, 0, False))

    def _binary(self, sink, level: int = 1) -> tuple[Formula, int]:
        """The binary operators of ``level`` and tighter: a chain of one is
        read in a loop, not a recursion per operator, and folded to its side."""
        if level == _PREFIX_LEVEL:
            return self._unary(sink)
        parts, tokens = [self._binary(sink, level + 1)], []
        while self._operator()[1] == level:
            tokens.append(self.advance())
            parts.append(self._binary(sink, level + 1))
        if not tokens:
            return parts[0]
        ctor, _, to_right = _SPELLED[tokens[0].text]
        if to_right:
            result = parts.pop()
            for tok, part in zip(reversed(tokens), reversed(parts)):
                result = self._node(ctor, tok, part, result)
        else:
            result = parts[0]
            for tok, part in zip(tokens, parts[1:]):
                result = self._node(ctor, tok, result, part)
        return result

    def _unary(self, sink) -> tuple[Formula, int]:
        tok = self.peek()
        ctor, level, _ = self._operator()
        if level != _PREFIX_LEVEL:
            return self._atom(sink)
        own = self.prefix()
        operand = self._unary(sink)
        self.depth -= own
        return self._node(ctor, tok, operand)

    def _atom(self, sink) -> tuple[Formula, int]:
        tok = self.peek()
        if tok.kind is TokenKind.LPAREN:
            self.enter()
            inner = self._binary(sink)
            self.expect(TokenKind.RPAREN)
            self.depth -= 1
            return inner
        if tok.kind is TokenKind.KEYWORD and tok.text == "TRUE":
            self.advance()
            return TrueFormula(), 0
        if tok.kind is TokenKind.KEYWORD and tok.text == "FALSE":
            self.advance()
            return FalseFormula(), 0
        if tok.kind is TokenKind.IDENT:
            self.advance()
            sink.append(tok)
            return Atom(tok.text), 0
        raise _expected("a formula", tok)

    # polynomials

    def parse_poly(self) -> Polynomial:
        tok = self.peek()
        negate = False
        if tok.kind is TokenKind.MINUS:
            self.advance()
            negate = True
        poly = self._poly_term()
        if negate:
            poly = -poly
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance()
            term = self._poly_term()
            poly = _capped(poly + term if op.kind is TokenKind.PLUS else poly - term, "sum", op)
        return poly

    def _poly_term(self) -> Polynomial:
        poly = self._poly_factor()
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.STAR:
                self.advance()
                poly = _product(poly, self._poly_factor(), "product", tok)
            elif tok.kind in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.LPAREN):
                raise SpecError(
                    "implicit multiplication is not allowed; write an explicit '*'",
                    tok.line,
                    tok.column,
                )
            else:
                return poly

    def _poly_factor(self) -> Polynomial:
        tok = self.peek()
        if tok.kind is TokenKind.MINUS:
            own = self.prefix()
            negated = -self._poly_factor()
            self.depth -= own
            return negated
        base = self._poly_base()
        if self.peek().kind is TokenKind.CARET:
            self.advance()
            expo = self.expect(TokenKind.NUMBER, "a nonnegative integer exponent")
            if expo.value.denominator != 1:
                raise SpecError(
                    "exponent must be a nonnegative integer", expo.line, expo.column
                )
            base = self._power(base, int(expo.value), expo)
        return base

    @staticmethod
    def _power(base: Polynomial, exponent: int, expo: Token) -> Polynomial:
        """``base^exponent``, expanded one factor at a time and given up as
        soon as a cap is passed, before a larger polynomial is built."""
        if exponent > MAX_EXPONENT:
            raise SpecError(
                f"exponent {exponent} exceeds the limit of {MAX_EXPONENT}",
                expo.line,
                expo.column,
            )
        power = Polynomial.constant(base.arity, 1)
        for _ in range(exponent):
            power = _product(power, base, "power", expo)
        return power

    def _poly_base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            return Polynomial.constant(len(self.names), tok.value)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return Polynomial.variable(len(self.names), self.names.index(tok.text))
        if tok.kind is TokenKind.LPAREN:
            self.enter()
            inner = self.parse_poly()
            self.expect(TokenKind.RPAREN)
            self.depth -= 1
            return inner
        raise _expected("a polynomial", tok)

    def parse_signed_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind is TokenKind.MINUS:
            self.advance()
            sign = -1
        tok = self.expect(TokenKind.NUMBER, "a rational constant")
        return sign * tok.value


def _content_lines(text: str):
    """A parser for every line that holds more than a comment, in order."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("##", 1)[0]
        if content.strip():
            yield _LineParser(_lex_line(content, line_no))


def _parse_range(
    parser: _LineParser, side: str, declared: set[str] | frozenset[str] = frozenset()
) -> tuple[Token, RealVarDecl]:
    """``name IN [lo, hi]`` to the end of the line; a name in ``declared``
    is reported as a duplicate before the range is checked."""
    name_tok = parser.expect(TokenKind.IDENT, "a variable name")
    parser.expect_keyword("IN")
    parser.expect(TokenKind.LBRACKET)
    lower = parser.parse_signed_rational()
    parser.expect(TokenKind.COMMA)
    upper = parser.parse_signed_rational()
    parser.expect(TokenKind.RBRACKET)
    parser.expect_end()
    if name_tok.text in declared:
        raise SpecError(
            f"duplicate declaration of '{name_tok.text}'", name_tok.line, name_tok.column
        )
    if lower > upper:
        raise SpecError(
            f"empty range [{lower}, {upper}] for real variable '{name_tok.text}'",
            name_tok.line,
            name_tok.column,
        )
    return name_tok, RealVarDecl(name_tok.text, lower, upper, side)


def _parse_relational(parser: _LineParser) -> PolyConstraint:
    """``poly REL poly`` as ``lhs - rhs REL 0`` over the line's identifiers."""
    lhs = parser.parse_poly()
    rel_tok = parser.peek()
    if rel_tok.kind not in RELOPS:
        raise _expected("a relation (<, <=, >, >=)", rel_tok)
    parser.advance()
    rhs = parser.parse_poly()
    return PolyConstraint(lhs - rhs, RELOPS[rel_tok.kind])


def _names_used(constraint: PolyConstraint, names: tuple[str, ...]) -> list[str]:
    return sorted(names[i] for i in constraint.poly.variables_used())


def _renumber(
    constraint: PolyConstraint, names: tuple[str, ...], order: tuple[str, ...]
) -> PolyConstraint:
    """A constraint over a line's ``names`` rewritten over ``order``, which
    holds every name the constraint uses."""
    slot = {name: i for i, name in enumerate(order)}
    terms = {}
    for expo, coeff in constraint.poly.terms.items():
        moved = [0] * len(order)
        for name, e in zip(names, expo):
            if e:
                moved[slot[name]] = e
        terms[tuple(moved)] = coeff
    return PolyConstraint(Polynomial(len(order), terms), constraint.relation)


def parse_spec(text: str) -> SpecDocument:
    """Parse specification text, validating names, sides, and ranges."""
    input_decls: list[Token] = []
    output_decls: list[Token] = []
    real_decls: list[tuple[Token, RealVarDecl]] = []
    # (atom token, constraint over the line's identifiers, those identifiers)
    pred_decls: list[tuple[Token, PolyConstraint, tuple[str, ...]]] = []
    assumptions: list[tuple[Formula, list[Token]]] = []
    guarantees: list[tuple[Formula, list[Token]]] = []
    formula_lines = deepest = 0  # so far; their sum bounds document_formula's depth

    for parser in _content_lines(text):
        head = parser.peek()
        if head.kind is TokenKind.KEYWORD and head.text in ("INPUT", "OUTPUT"):
            parser.advance()
            sink = input_decls if head.text == "INPUT" else output_decls
            while True:
                sink.append(parser.expect(TokenKind.IDENT, "an atom name"))
                if parser.peek().kind is TokenKind.COMMA:
                    parser.advance()
                    continue
                break
            parser.expect_end()
        elif head.kind is TokenKind.KEYWORD and head.text == "REAL":
            parser.advance()
            side = INPUT_SIDE
            if parser.at_keyword("INPUT"):
                parser.advance()
            elif parser.at_keyword("OUTPUT"):
                parser.advance()
                side = OUTPUT_SIDE
            real_decls.append(_parse_range(parser, side))
        elif head.kind is TokenKind.KEYWORD and head.text == "PRED":
            parser.advance()
            name_tok = parser.expect(TokenKind.IDENT, "a predicate atom name")
            parser.expect(TokenKind.ASSIGN)
            constraint = _parse_relational(parser)
            parser.expect_end()
            pred_decls.append((name_tok, constraint, parser.names))
        else:
            sink: list[Token] = []
            assumed = head.kind is TokenKind.KEYWORD and head.text == "ASSUME"
            if assumed:
                parser.advance()
            formula_lines += 1
            if formula_lines + deepest > MAX_FORMULA_DEPTH:
                raise _too_deep(head)
            formula, depth = parser.parse_formula(sink, MAX_FORMULA_DEPTH - formula_lines)
            parser.expect_end()
            deepest = max(deepest, depth)
            (assumptions if assumed else guarantees).append((formula, sink))

    # name registry, whatever the line order: reals, predicate atoms, Boolean inputs, outputs
    kinds: dict[str, str] = {}
    for kind, tokens in (
        ("real variable", [tok for tok, _ in real_decls]),
        ("predicate atom", [tok for tok, _, _ in pred_decls]),
        ("Boolean input", input_decls),
        ("Boolean output", output_decls),
    ):
        for tok in tokens:
            existing = kinds.get(tok.text)
            if existing is None:
                kinds[tok.text] = kind
                continue
            msg = f"duplicate declaration of '{tok.text}' (already a {existing})"
            if kind == "real variable":
                msg = f"duplicate declaration of '{tok.text}'"
            elif existing == "predicate atom" != kind:
                listed = kind.split()[1].upper()
                msg = f"predicate atom '{tok.text}' must not be re-listed under {listed}"
            raise SpecError(msg, tok.line, tok.column)

    real_by_name = {decl.name: decl for _, decl in real_decls}
    side_order = {
        INPUT_SIDE: tuple(d.name for _, d in real_decls if d.side == INPUT_SIDE),
        OUTPUT_SIDE: tuple(d.name for _, d in real_decls if d.side == OUTPUT_SIDE),
    }

    predicates: list[PredicateDef] = []
    for tok, constraint, names in pred_decls:
        sides = set()
        for var in _names_used(constraint, names):
            decl = real_by_name.get(var)
            if decl is None:
                raise SpecError(
                    f"predicate '{tok.text}' uses '{var}', which is not a declared real variable",
                    tok.line,
                    tok.column,
                )
            sides.add(decl.side)
        if len(sides) > 1:
            raise SpecError(
                f"predicate '{tok.text}' mixes input-side and output-side real variables",
                tok.line,
                tok.column,
            )
        side = sides.pop() if sides else INPUT_SIDE
        predicates.append(
            PredicateDef(tok.text, _renumber(constraint, names, side_order[side]), side)
        )

    for _, sink in assumptions + guarantees:
        for tok in sink:
            kind = kinds.get(tok.text)
            if kind is None:
                raise SpecError(f"undeclared atom '{tok.text}'", tok.line, tok.column)
            if kind == "real variable":
                raise SpecError(
                    f"'{tok.text}' is a {kind} and cannot be used as a Boolean atom",
                    tok.line,
                    tok.column,
                )

    if not guarantees:
        raise SpecError("specification declares no guarantees", 1, 1)

    return SpecDocument(
        boolean_inputs=tuple(tok.text for tok in input_decls),
        boolean_outputs=tuple(tok.text for tok in output_decls),
        real_vars=tuple(decl for _, decl in real_decls),
        predicates=tuple(predicates),
        assumptions=tuple(f for f, _ in assumptions),
        guarantees=tuple(f for f, _ in guarantees),
    )


@dataclass(frozen=True)
class ConstraintDocument:
    """Standalone constraint file: variable ranges plus checks over them."""

    variables: tuple[str, ...]
    box: Box
    checks: tuple[PolyConstraint | ConstraintImplication, ...]


def parse_constraints(text: str) -> ConstraintDocument:
    """Parse ``REAL name IN [lo, hi]`` ranges followed by check lines.

    A check line is either a constraint ``poly REL poly`` or a pointwise
    implication ``poly REL poly -> poly REL poly``.  All checks share the
    one box spanned by the declared ranges; declarations may appear on any
    line, but every variable used must be declared somewhere."""
    decls: list[RealVarDecl] = []
    seen: set[str] = set()
    # (first token, the line's identifiers, one or two constraints over them)
    pending: list[tuple[Token, tuple[str, ...], list[PolyConstraint]]] = []

    for parser in _content_lines(text):
        head = parser.peek()
        if head.kind is TokenKind.KEYWORD and head.text == "REAL":
            parser.advance()
            _, decl = _parse_range(parser, INPUT_SIDE, seen)
            seen.add(decl.name)
            decls.append(decl)
        else:
            halves = [_parse_relational(parser)]
            if parser.peek().kind is TokenKind.IMPLIES:
                parser.advance()
                halves.append(_parse_relational(parser))
            parser.expect_end()
            pending.append((head, parser.names, halves))

    if not pending:
        raise SpecError("no constraints to check", 1, 1)
    order = tuple(d.name for d in decls)
    checks: list[PolyConstraint | ConstraintImplication] = []
    for head, names, halves in pending:
        for half in halves:
            for var in _names_used(half, names):
                if var not in seen:
                    raise SpecError(
                        f"'{var}' is not a declared real variable", head.line, head.column
                    )
        lowered = [_renumber(half, names, order) for half in halves]
        checks.append(lowered[0] if len(lowered) == 1 else ConstraintImplication(*lowered))
    box = Box(tuple((d.lower, d.upper) for d in decls))
    return ConstraintDocument(variables=order, box=box, checks=tuple(checks))


# -- printing ---------------------------------------------------------------


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_polynomial(poly: Polynomial, var_names: tuple[str, ...]) -> str:
    if poly.is_zero():
        return "0"
    def term_sort_key(item):
        expo, _ = item
        return (-sum(expo), tuple(-e for e in expo))
    pieces: list[str] = []
    for expo, coeff in sorted(poly.terms.items(), key=term_sort_key):
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(var_names, expo)
            if e > 0
        ]
        magnitude = abs(coeff)
        if not factors:
            body = _format_rational(magnitude)
        elif magnitude == 1:
            body = " * ".join(factors)
        else:
            body = " * ".join([_format_rational(magnitude)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def format_constraint(constraint: PolyConstraint, var_names: tuple[str, ...]) -> str:
    return f"{format_polynomial(constraint.poly, var_names)} {constraint.relation} 0"


def format_formula(formula: Formula) -> str:
    def emit(f: Formula, min_level: int) -> str:
        if isinstance(f, Atom):
            return f.name
        if isinstance(f, (TrueFormula, FalseFormula)):
            return "TRUE" if isinstance(f, TrueFormula) else "FALSE"
        if type(f) not in _SYNTAX:
            msg = f"unknown formula node {f!r}"
            raise TypeError(msg)
        spelling, level, right = _SYNTAX[type(f)]
        if isinstance(f, Not):
            return spelling + emit(f.operand, level)
        if level == _PREFIX_LEVEL:
            return f"{spelling} ({emit(f.operand, 0)})"
        text = f"{emit(f.left, level + right)} {spelling} {emit(f.right, level + (not right))}"
        return f"({text})" if level < min_level else text

    return emit(formula, 0)


def format_spec(doc: SpecDocument) -> str:
    """Canonical text for a document; parses back to an equal document."""
    lines: list[str] = []
    for var in doc.real_vars:
        side = "" if var.side == INPUT_SIDE else "OUTPUT "
        lines.append(
            f"REAL {side}{var.name} IN "
            f"[{_format_rational(var.lower)}, {_format_rational(var.upper)}]"
        )
    for pred in doc.predicates:
        names = tuple(v.name for v in doc.real_vars_of(pred.side))
        lines.append(f"PRED {pred.atom} := {format_constraint(pred.constraint, names)}")
    if doc.boolean_inputs:
        lines.append("INPUT " + ", ".join(doc.boolean_inputs))
    if doc.boolean_outputs:
        lines.append("OUTPUT " + ", ".join(doc.boolean_outputs))
    for formula in doc.assumptions:
        lines.append("ASSUME " + format_formula(formula))
    for formula in doc.guarantees:
        lines.append(format_formula(formula))
    return "\n".join(lines) + "\n"
