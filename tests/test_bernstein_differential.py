"""The dense per-dimension Bernstein engine against the substitute-then-
convert engine it replaced (kept in ``oracles.py``): coefficients,
enclosures, verdicts, witnesses, ``Unknown`` reasons and explored-subbox
counts must all agree exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import pytest

from numltl.bernstein import (
    RELATIONS,
    Box,
    ConstraintImplication,
    EnclosureMemo,
    PolynomialError,
    PolyConstraint,
    Polynomial,
    SearchStats,
    _bernstein_tensor,
    _power_layout,
    _scaled,
    _subdivide,
    bounds,
    check_feasibility,
    check_validity,
)

from generators import random_point_in_box, random_polynomial
from oracles import (
    bernstein_coefficients,
    reference_bernstein_coefficients,
    reference_bounds,
    reference_check_validity,
    reference_search,
    reference_subdivide,
    to_unit_box,
)

def _box(rng: random.Random, arity: int) -> Box:
    """Random box; about one dimension in six has zero width and one box in
    ten is a point."""
    point = rng.random() < 0.1
    intervals = []
    for _ in range(arity):
        lo = Fraction(rng.randint(-8, 7), rng.choice((1, 2, 4)))
        if point or rng.random() < 0.15:
            width = Fraction(0)
        else:
            width = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
        intervals.append((lo, lo + width))
    return Box(tuple(intervals))


def _bowl(rng: random.Random, box: Box) -> Polynomial:
    """sum_i c_i (x_i - r_i)^2 with each r_i inside the box, so thresholds
    near 0 make the search subdivide around the minimum."""
    arity = box.arity
    total = Polynomial.zero(arity)
    for i, (lo, hi) in enumerate(box.intervals):
        r = lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)
        shifted = Polynomial.variable(arity, i) - Polynomial.constant(arity, r)
        total = total + shifted.power(2).scale(rng.choice((1, 2, 3)))
    return total


def _constraint(rng: random.Random, box: Box) -> PolyConstraint:
    """``p - t`` under a random relation, where ``t`` sits near a value the
    polynomial takes in the box (or near a bowl's minimum)."""
    arity = box.arity
    if rng.random() < 0.6:
        p = _bowl(rng, box)
        t = Fraction(rng.randint(-3, 3), 64)
    else:
        p = random_polynomial(rng, arity, max_degree=3, max_terms=5)
        t = p.evaluate(random_point_in_box(rng, box, 4)) + Fraction(rng.randint(-4, 4), 8)
    return PolyConstraint(p - Polynomial.constant(arity, t), rng.choice(RELATIONS))


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randint(1, 3)
        box = _box(rng, arity)
        yield rng, box, rng.randint(0, 6)


def test_coefficients_match_the_direct_formula():
    rng = random.Random(4101)
    for _ in range(300):
        arity = rng.randint(1, 3)
        p = random_polynomial(rng, arity)
        assert bernstein_coefficients(p) == reference_bernstein_coefficients(p)
        elevated = tuple(n + rng.randint(0, 2) for n in p.degree_vector())
        assert bernstein_coefficients(p, elevated) == reference_bernstein_coefficients(
            p, elevated
        )


@dataclass
class Coverage:
    """What a sweep exercised, so that a change to the generators cannot
    quietly drop a relation, an arity, a depth or a degenerate box."""

    relations: set = field(default_factory=set)
    arities: set = field(default_factory=set)
    depths: set = field(default_factory=set)
    zero_width: int = 0
    points: int = 0

    def add(self, box: Box, depth: int, constraints) -> None:
        self.relations.update(c.relation for c in constraints)
        self.arities.add(box.arity)
        self.depths.add(depth)
        self.zero_width += any(lo == hi for lo, hi in box.intervals)
        self.points += box.is_point()

    def check(self, depths: range) -> None:
        assert self.relations == set(RELATIONS)
        assert self.arities == {1, 2, 3}
        assert self.depths == set(depths)
        assert self.zero_width >= 15 and self.points >= 5


def test_feasibility_matches_the_reference_search():
    seen = dict.fromkeys(("Feasible", "Infeasible", "Unknown"), 0)
    coverage, deep = Coverage(), 0
    for rng, box, depth in _cases(4102, 300):
        constraints = [_constraint(rng, box) for _ in range(rng.randint(1, 3))]
        stats, ref_stats = SearchStats(), SearchStats()
        verdict = check_feasibility(constraints, box, depth, stats)
        expected = reference_search(constraints, box, depth, ref_stats)
        assert verdict == expected
        assert type(verdict) is type(expected)
        assert stats.explored == ref_stats.explored
        seen[type(verdict).__name__] += 1
        deep += stats.explored >= 7
        coverage.add(box, depth, constraints)
    assert all(count >= 50 for count in seen.values()), seen
    assert deep >= 40
    coverage.check(range(7))


def test_validity_matches_the_reference_search():
    seen = dict.fromkeys(("Valid", "Invalid", "Unknown"), 0)
    coverage, deep, implications = Coverage(), 0, 0
    for rng, box, depth in _cases(4103, 300):
        formula = _constraint(rng, box)
        parts = [formula]
        if rng.random() < 0.5:
            formula = ConstraintImplication(formula, _constraint(rng, box))
            parts.append(formula.conclusion)
            implications += 1
        stats, ref_stats = SearchStats(), SearchStats()
        verdict = check_validity(formula, box, depth, stats)
        expected = reference_check_validity(formula, box, depth, ref_stats)
        assert verdict == expected
        assert type(verdict) is type(expected)
        assert stats.explored == ref_stats.explored
        seen[type(verdict).__name__] += 1
        deep += stats.explored >= 7
        coverage.add(box, depth, parts)
    assert all(count >= 50 for count in seen.values()), seen
    assert deep >= 40 and implications >= 100
    coverage.check(range(7))


def test_bounds_match_the_reference_enclosures():
    coverage = Coverage()
    for rng, box, depth in _cases(4104, 80):
        c = _constraint(rng, box)
        depth = min(depth, 7 - box.arity)  # at most 2^(7 - arity) reference enclosures
        assert bounds(c.poly, box, depth) == reference_bounds(c.poly, box, depth)
        coverage.add(box, depth, [c])
    coverage.check(range(7))


def test_checks_sharing_a_memo_match_the_reference_search():
    """Conjunctions over one predicate pool on one box, checked in sequence
    through one memo the way the refinement loop checks valuations: each
    verdict, witness and explored count is that of a search of its own."""
    coverage, both_ways, reused = Coverage(), 0, 0
    seen = dict.fromkeys(("Feasible", "Infeasible", "Unknown"), 0)
    for rng, box, depth in _cases(4105, 40):
        pool = [_constraint(rng, box) for _ in range(rng.randint(2, 4))]
        memo = EnclosureMemo(box)
        polarities = {}
        for _ in range(8):
            chosen = rng.sample(range(len(pool)), rng.randint(1, len(pool)))
            constraints = []
            for i in chosen:
                flip = rng.random() < 0.5
                polarities.setdefault(i, set()).add(flip)
                constraints.append(pool[i].negated() if flip else pool[i])
            stored = sum(len(p.enclosures) for p in memo.polys.values())
            stats, ref_stats = SearchStats(), SearchStats()
            verdict = check_feasibility(constraints, box, depth, stats, memo=memo)
            expected = reference_search(constraints, box, depth, ref_stats)
            assert verdict == expected
            assert type(verdict) is type(expected)
            assert stats.explored == ref_stats.explored
            seen[type(verdict).__name__] += 1
            # fewer new enclosures than the search looked at: some came from
            # an earlier check
            added = sum(len(p.enclosures) for p in memo.polys.values()) - stored
            reused += added < stats.explored * len(constraints)
            coverage.add(box, depth, constraints)
        both_ways += any(len(flips) == 2 for flips in polarities.values())
    assert all(count >= 40 for count in seen.values()), seen
    assert both_ways >= 30 and reused >= 150
    coverage.check(range(7))


def test_a_memo_serves_only_its_own_box():
    x = Polynomial.variable(1, 0)
    far = PolyConstraint(x - Polynomial.constant(1, 2), ">")
    memo = EnclosureMemo(Box.of((0, 4)))
    assert check_feasibility([far], Box.of((0, 4)), memo=memo) == check_feasibility(
        [far], Box.of((0, 4))
    )
    with pytest.raises(PolynomialError):
        check_feasibility([far], Box.of((0, 1)), memo=memo)
    assert check_feasibility([far], Box.of((0, 1)), memo=EnclosureMemo(Box.of((0, 1)))) == (
        reference_search([far], Box.of((0, 1)), 24)
    )


# x^3 (y - 1) + x - x^2: fixing y = 1 leaves x - x^2, of degree 2 in x.  Its
# degree-2 coefficients on [0, 1] are (0, 1/2, 0); elevated to degree 3 they
# would be (0, 1/3, 1/3, 0), a tighter but different enclosure.
X, Y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
ONE = Polynomial.constant(2, 1)
DEGREE_DROP = X.power(3) * (Y - ONE) + X - X.power(2)
FIXED_Y = Box.of((0, 1), (1, 1))


def test_zero_width_dimension_lowers_the_degree_like_the_reference():
    assert bounds(DEGREE_DROP, FIXED_Y) == reference_bounds(DEGREE_DROP, FIXED_Y)
    assert bounds(DEGREE_DROP, FIXED_Y) == (Fraction(0), Fraction(1, 2))
    for depth in range(7):
        assert bounds(DEGREE_DROP, FIXED_Y, depth) == reference_bounds(
            DEGREE_DROP, FIXED_Y, depth
        )
    formula = PolyConstraint(DEGREE_DROP - Polynomial.constant(2, Fraction(2, 5)), "<=")
    stats, ref_stats = SearchStats(), SearchStats()
    verdict = check_validity(formula, FIXED_Y, 6, stats)
    assert verdict == reference_check_validity(formula, FIXED_Y, 6, ref_stats)
    assert stats.explored == ref_stats.explored


def _reference_tensor(poly: Polynomial, box: Box, degree) -> list[Fraction]:
    """The reference coefficients of ``poly`` mapped onto ``box``, at
    ``degree``, in the engine's flat row-major order."""
    coefficients = reference_bernstein_coefficients(to_unit_box(poly, box), degree).coefficients
    return [coefficients[index] for index in product(*(range(n + 1) for n in degree))]


def test_subdivision_matches_conversion_on_each_half():
    """Integer de Casteljau halves along every dimension, and the tensor at
    the end of a chain of splits, divided by their denominators, equal the
    ``Fraction`` subdivision, direct conversion and the reference
    coefficients on each half exactly, zero-width and degree-0 dimensions
    included."""
    rng = random.Random(4106)
    zero_width = flat_in_dim = 0
    for _ in range(150):
        arity = rng.randint(1, 3)
        box = _box(rng, arity)
        p = random_polynomial(rng, arity, max_degree=3, max_terms=5)
        if rng.random() < 0.3:
            # fix one variable at 1: the polynomial is flat along it
            flat = rng.randrange(arity)
            scales = [int(d != flat) for d in range(arity)]
            p = p.affine_substitute([1 - scale for scale in scales], scales)
        degree, power = _power_layout(p, box)
        exact = _bernstein_tensor(power, degree, box.intervals)
        tensor, den = _scaled(exact)
        assert [Fraction(b, den) for b in tensor] == exact
        for dim in range(arity):
            halves = zip(
                box.split(dim),
                _subdivide(tensor, degree, dim),
                reference_subdivide(exact, degree, dim),
            )
            for half, got, expected in halves:
                divided = [Fraction(b, den << degree[dim]) for b in got]
                assert divided == expected == _bernstein_tensor(power, degree, half.intervals)
                assert divided == _reference_tensor(p, half, degree)
            zero_width += box.intervals[dim][0] == box.intervals[dim][1]
            flat_in_dim += degree[dim] == 0 and box.intervals[dim][0] < box.intervals[dim][1]
        for _ in range(4):
            dim = rng.randrange(arity)
            pick = rng.randrange(2)
            box = box.split(dim)[pick]
            tensor = _subdivide(tensor, degree, dim)[pick]
            den <<= degree[dim]
        assert [Fraction(b, den) for b in tensor] == _reference_tensor(p, box, degree)
    assert zero_width >= 30 and flat_in_dim >= 30


def _subbox(box: Box, node: int) -> Box:
    """The subbox named ``node`` in the bisection tree of ``box``."""
    for bit in bin(node)[3:]:
        box = box.split(box.widest_dimension())[int(bit)]
    return box


def _denominator(p, box: Box, node: int) -> int:
    """The implicit denominator of ``p``'s tensor on subbox ``node``: the
    root's, times 2^N_d for each split along a dimension d on the way."""
    den = p.denominator
    for _ in bin(node)[3:]:
        dim = box.widest_dimension()
        den <<= p.degree[dim]
        box = box.split(dim)[0]
    return den


def _shared_memos(seed: int, count: int):
    """Memos after a sequence of checks on one box, with the box."""
    for rng, box, depth in _cases(seed, count):
        pool = [_constraint(rng, box) for _ in range(rng.randint(2, 4))]
        memo = EnclosureMemo(box)
        for _ in range(6):
            chosen = rng.sample(pool, rng.randint(1, len(pool)))
            constraints = [c.negated() if rng.random() < 0.5 else c for c in chosen]
            check_feasibility(constraints, box, depth, memo=memo)
        yield box, memo


def test_a_memo_keeps_tensors_only_on_the_frontier():
    """After a sequence of checks on one memo, a subbox whose children's
    tensors were computed holds no tensor, and each tensor still held,
    divided by its denominator, is the direct conversion on its subbox."""
    held = freed = 0
    for box, memo in _shared_memos(4107, 40):
        for p in memo.polys.values():
            computed = p.tensors.keys() | p.enclosures.keys()
            for node, tensor in p.tensors.items():
                assert 2 * node not in computed and 2 * node + 1 not in computed
                den = _denominator(p, box, node)
                assert [Fraction(b, den) for b in tensor] == _bernstein_tensor(
                    p.power, p.degree, _subbox(box, node).intervals
                )
            held += len(p.tensors)
            freed += len(computed - p.tensors.keys())
    assert held >= 300 and freed >= 200


def test_each_centre_sum_is_the_value_at_the_centre():
    """A memo node's centre sum, divided by the node's denominator and
    2^(sum_d N_d), is the polynomial's exact value at the subbox's centre,
    on random boxes with zero-width dimensions and polynomials flat along
    some dimension."""
    nodes = flat = 0
    for box, memo in _shared_memos(4108, 40):
        for (arity, terms), p in memo.polys.items():
            poly = Polynomial(arity, dict(terms))
            for node, (_, _, _, centre) in p.enclosures.items():
                scale = _denominator(p, box, node) << sum(p.degree)
                assert Fraction(centre, scale) == poly.evaluate(_subbox(box, node).center())
                nodes += 1
            flat += any(
                n == 0 and lo < hi for n, (lo, hi) in zip(p.degree, box.intervals)
            )
    assert nodes >= 500 and flat >= 5


def test_the_memo_holds_only_ints():
    """Every held tensor entry, enclosure bound, corner value and centre sum
    is an ``int``: no ``Fraction``, ``float`` or ``bool`` reaches the
    search's sign tests."""
    values = 0
    for _, memo in _shared_memos(4109, 40):
        for p in memo.polys.values():
            assert type(p.denominator) is int and p.denominator > 0
            for tensor in p.tensors.values():
                assert all(type(b) is int for b in tensor)
                values += len(tensor)
            for lo, hi, corners, centre in p.enclosures.values():
                assert all(type(v) is int for v in (lo, hi, centre, *corners))
                values += 3 + len(corners)
    assert values >= 10000


@pytest.mark.parametrize(
    ("arity", "degree", "relation", "margin"),
    [
        (1, 12, ">", 0),  # only the point 1/3 touches 0: bisected to depth 24
        (1, 14, "<", Fraction(1, 2**320)),  # a narrow well around 1/3
        (2, 12, "<", Fraction(1, 2**150)),
        (2, 12, "<=", 0),  # the well's only point is 1/3 in each coordinate
    ],
)
def test_deep_search_of_high_degree_matches_the_reference(arity, degree, relation, margin):
    """At depth 24 and degree 12 or more per variable, the integers grow by
    some hundreds of bits; verdict, witness and explored count still match
    the ``Fraction`` reference."""
    well = Polynomial.zero(arity)
    for i in range(arity):
        shifted = Polynomial.variable(arity, i) - Polynomial.constant(arity, Fraction(1, 3))
        well = well + shifted.power(degree)
    poly = well - Polynomial.constant(arity, margin)
    if relation == ">":
        poly = -poly
    c = PolyConstraint(poly, relation)
    box = Box(((Fraction(-1, 2), Fraction(1)),) * arity)
    stats, ref_stats = SearchStats(), SearchStats()
    verdict = check_feasibility([c], box, 24, stats)
    expected = reference_search([c], box, 24, ref_stats)
    assert verdict == expected
    assert type(verdict) is type(expected)
    assert stats.explored == ref_stats.explored >= 30
