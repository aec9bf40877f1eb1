"""Exactness, soundness, and verdict tests for the polynomial engine."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from numltl.bernstein import (
    Box,
    ConstraintImplication,
    EnclosureMemo,
    Feasible,
    Infeasible,
    Invalid,
    PolyConstraint,
    Polynomial,
    PolynomialError,
    SearchStats,
    Unknown,
    Valid,
    bounds,
    check_feasibility,
    check_validity,
)
from generators import random_box, random_polynomial, random_unit_point
from oracles import (
    BernsteinTensor,
    bernstein_coefficients,
    bernstein_reexpand,
    grid_points,
    poly_min_max_on_grid,
    to_unit_box,
)


def _poly(arity, terms):
    return Polynomial(arity, {e: Fraction(c) for e, c in terms.items()})


X = _poly(1, {(1,): 1})
UNIT = Box.of((0, 1))


class TestPolynomial:
    def test_zero_coefficients_are_pruned(self):
        p = _poly(1, {(0,): 0, (1,): 2})
        assert p.terms == {(1,): Fraction(2)}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(PolynomialError):
            _poly(2, {(1,): 1})

    def test_ring_operations_exact(self):
        p = _poly(2, {(1, 0): 1, (0, 1): 1})      # x + y
        q = _poly(2, {(1, 0): 1, (0, 1): -1})     # x - y
        assert (p * q).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
        assert (p - p).is_zero()
        assert (p + q).terms == {(1, 0): Fraction(2)}

    def test_evaluate_is_exact(self):
        p = _poly(2, {(2, 0): 1, (0, 2): 1})
        assert p.evaluate((Fraction(1, 3), Fraction(1, 2))) == Fraction(13, 36)

    def test_power_and_scale(self):
        p = (X + Polynomial.constant(1, 1)).power(2)
        assert p.terms == {(0,): Fraction(1), (1,): Fraction(2), (2,): Fraction(1)}
        assert p.scale(Fraction(1, 2)).evaluate((Fraction(1),)) == Fraction(2)


class TestUnitBoxTransform:
    def test_endpoints_map_to_box_corners(self):
        p = _poly(1, {(2,): 3, (0,): -1})
        box = Box.of((Fraction(-2), Fraction(5)))
        q = to_unit_box(p, box)
        assert q.evaluate((Fraction(0),)) == p.evaluate((Fraction(-2),))
        assert q.evaluate((Fraction(1),)) == p.evaluate((Fraction(5),))

    def test_random_points_agree(self):
        rng = random.Random(101)
        for _ in range(25):
            arity = rng.randint(1, 3)
            p = random_polynomial(rng, arity)
            box = random_box(rng, arity)
            q = to_unit_box(p, box)
            t = random_unit_point(rng, arity)
            x = tuple(lo + u * (hi - lo) for (lo, hi), u in zip(box.intervals, t))
            assert q.evaluate(t) == p.evaluate(x)


class TestBernsteinCoefficients:
    def test_line_in_degree_two_basis(self):
        """x in the degree-2 basis has coefficients (0, 1/2, 1)."""
        tensor = bernstein_coefficients(X, (2,))
        assert tensor.coefficients == {
            (0,): Fraction(0),
            (1,): Fraction(1, 2),
            (2,): Fraction(1),
        }

    def test_square_has_its_basis_vector(self):
        tensor = bernstein_coefficients(_poly(1, {(2,): 1}))
        assert tensor.coefficients == {
            (0,): Fraction(0),
            (1,): Fraction(0),
            (2,): Fraction(1),
        }

    def test_bivariate_product(self):
        tensor = bernstein_coefficients(_poly(2, {(1, 1): 1}))
        assert tensor.degree == (1, 1)
        assert tensor.coefficients[(1, 1)] == 1
        assert tensor.coefficients[(0, 1)] == 0

    def test_incomplete_tensor_rejected(self):
        with pytest.raises(PolynomialError):
            BernsteinTensor((1,), {(0,): Fraction(1)})

    def test_reexpansion_recovers_polynomial(self):
        rng = random.Random(77)
        for _ in range(40):
            arity = rng.randint(1, 3)
            p = random_polynomial(rng, arity)
            tensor = bernstein_coefficients(p)
            for _ in range(5):
                t = random_unit_point(rng, arity)
                assert bernstein_reexpand(tensor, t) == p.evaluate(t)


class TestBounds:
    def test_enclosure_contains_grid_values(self):
        rng = random.Random(7)
        for _ in range(40):
            arity = rng.randint(1, 3)
            p = random_polynomial(rng, arity)
            box = random_box(rng, arity)
            lo, hi = bounds(p, box)
            gmin, gmax = poly_min_max_on_grid(p, grid_points(box, 5))
            assert lo <= gmin and gmax <= hi

    def test_vertex_coefficients_are_sharp(self):
        rng = random.Random(8)
        for _ in range(25):
            arity = rng.randint(1, 3)
            p = random_polynomial(rng, arity)
            box = random_box(rng, arity)
            tensor = bernstein_coefficients(to_unit_box(p, box))
            n = tensor.degree
            corners = list(box.vertices())
            assert tensor.coefficients[(0,) * arity] == p.evaluate(corners[0])
            assert tensor.coefficients[n] == p.evaluate(corners[-1])

    def test_depth_tightens_monotonically(self):
        rng = random.Random(9)
        for _ in range(15):
            arity = rng.randint(1, 2)
            p = random_polynomial(rng, arity)
            box = random_box(rng, arity)
            prev = bounds(p, box, depth=0)
            for depth in (1, 2, 3):
                cur = bounds(p, box, depth=depth)
                assert cur[0] >= prev[0] and cur[1] <= prev[1]
                prev = cur


TWO_VARS = Box.of((0, 4), (0, 4))
SUM_2 = _poly(2, {(1, 0): 1, (0, 1): 1})
SUMSQ_2 = _poly(2, {(2, 0): 1, (0, 2): 1})
THREE_VARS = Box.of((0, 4), (0, 4), (0, 4))
SUM_3 = _poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
SUMSQ_3 = _poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})


def _gt(p, rhs):
    return PolyConstraint(p - Polynomial.constant(p.arity, rhs), ">")


def _lt(p, rhs):
    return PolyConstraint(p - Polynomial.constant(p.arity, rhs), "<")


def _ge(p, rhs):
    return PolyConstraint(p - Polynomial.constant(p.arity, rhs), ">=")


class TestFeasibility:
    def test_two_sensor_conflict_is_infeasible(self):
        verdict = check_feasibility(
            [_gt(SUM_2, 3), _lt(SUMSQ_2, Fraction(7, 2))], TWO_VARS
        )
        assert isinstance(verdict, Infeasible)

    def test_three_sensor_conjunction_is_feasible_with_exact_witness(self):
        constraints = [_gt(SUM_3, 3), _lt(SUMSQ_3, 4)]
        verdict = check_feasibility(constraints, THREE_VARS)
        assert isinstance(verdict, Feasible)
        assert len(verdict.witness) == THREE_VARS.arity
        assert all(lo <= x <= hi for (lo, hi), x in zip(THREE_VARS.intervals, verdict.witness))
        assert all(c.holds_at(verdict.witness) for c in constraints)

    def test_known_witness_values(self):
        """The (0.314453125, 1, 1.6875) point has the published exact values."""
        point = (Fraction("0.314453125"), Fraction(1), Fraction("1.6875"))
        assert SUM_3.evaluate(point) == Fraction("3.001953125")
        assert SUMSQ_3.evaluate(point) == Fraction("3.946537017822265625")
        assert _gt(SUM_3, 3).holds_at(point)
        assert _lt(SUMSQ_3, 4).holds_at(point)

    def test_depth_zero_unknown_becomes_infeasible_at_depth_one(self):
        box = Box.of((-1, 1))
        cs = [PolyConstraint(X, ">"), PolyConstraint(X, "<")]
        assert isinstance(check_feasibility(cs, box, depth=0), Unknown)
        assert isinstance(check_feasibility(cs, box, depth=1), Infeasible)

    def test_deterministic_witness(self):
        constraints = [_gt(SUM_3, 3), _lt(SUMSQ_3, 4)]
        first = check_feasibility(constraints, THREE_VARS)
        second = check_feasibility(constraints, THREE_VARS)
        assert first == second

    def test_empty_conjunction_rejected(self):
        with pytest.raises(PolynomialError):
            check_feasibility([], TWO_VARS)

    def test_negative_depth_rejected(self):
        c = PolyConstraint(X, ">")
        with pytest.raises(PolynomialError, match="negative depth"):
            check_feasibility([c], Box.of((-1, 1)), depth=-2)
        with pytest.raises(PolynomialError, match="negative depth"):
            check_validity(c, Box.of((-1, 1)), depth=-2)


class TestValidity:
    def test_sensor_implication_valid(self):
        formula = ConstraintImplication(_gt(SUM_2, 3), _ge(SUMSQ_2, Fraction(7, 2)))
        assert isinstance(check_validity(formula, TWO_VARS), Valid)

    def test_duality_with_feasibility(self):
        """Infeasibility of {p>3, q<7/2} matches validity of p>3 -> q>=7/2."""
        feas = check_feasibility(
            [_gt(SUM_2, 3), _lt(SUMSQ_2, Fraction(7, 2))], TWO_VARS
        )
        valid = check_validity(
            ConstraintImplication(_gt(SUM_2, 3), _ge(SUMSQ_2, Fraction(7, 2))),
            TWO_VARS,
        )
        assert isinstance(feas, Infeasible) and isinstance(valid, Valid)

    def test_simple_constraint_valid(self):
        assert isinstance(check_validity(_ge(X, 0), UNIT), Valid)

    def test_invalid_returns_exact_falsifying_witness(self):
        formula = _ge(_poly(1, {(2,): 1}), Fraction(1, 2))
        verdict = check_validity(formula, UNIT)
        assert isinstance(verdict, Invalid)
        assert not formula.holds_at(verdict.witness)
        assert verdict.witness == (Fraction(1, 2),)

    def test_depth_zero_unknown_becomes_valid_at_depth_one(self):
        square = _poly(1, {(2,): 1, (1,): -2, (0,): 1})  # (x-1)^2
        box = Box.of((0, 2))
        formula = PolyConstraint(square, ">=")
        assert isinstance(check_validity(formula, box, depth=0), Unknown)
        assert isinstance(check_validity(formula, box, depth=1), Valid)


class TestSearchStats:
    def test_counts_every_explored_subbox(self):
        square = _poly(1, {(2,): 1, (1,): -2, (0,): 1})  # (x-1)^2
        box = Box.of((0, 2))
        stats = SearchStats()
        check_validity(PolyConstraint(square, ">="), box, depth=1, stats=stats)
        # the root is undecided (enclosure touches 0), both halves are proven
        assert stats.explored == 3
        # the root's tensor by conversion, the halves' by one subdivision
        assert stats.tensors == 3

    def test_stats_are_additive_across_calls(self):
        stats = SearchStats()
        c = PolyConstraint(_poly(1, {(1,): 1}), ">=")
        check_feasibility([c], UNIT, stats=stats)
        first, tensors = stats.explored, stats.tensors
        assert first >= 1 and tensors >= 1
        check_feasibility([c], UNIT, stats=stats)
        assert stats.explored == 2 * first
        assert stats.tensors == 2 * tensors

    def test_implication_validity_effort_is_pinned(self):
        """Validity of P -> C runs the search on [P, not C]; these counts and
        the witness are those of the dedicated validity loop it replaced."""
        premise = _gt(SUM_2, 3)
        stats = SearchStats()
        formula = ConstraintImplication(premise, _ge(SUMSQ_2, Fraction(7, 2)))
        assert check_validity(formula, TWO_VARS, stats=stats) == Valid()
        assert stats.explored == 23
        # each of the two polynomials: 1 conversion and 11 subdivisions
        assert stats.tensors == 46

        stats = SearchStats()
        formula = ConstraintImplication(premise, _ge(SUMSQ_2, 5))
        verdict = check_validity(formula, TWO_VARS, stats=stats)
        assert verdict == Invalid((Fraction(2051, 2048), Fraction(2047, 1024)))
        assert stats.explored == 38
        assert stats.tensors == 98

    def test_enclosures_from_a_memo_cost_no_tensor(self):
        box = Box.of((0, 4), (0, 4))
        # (x - 1)^2 + (y - 1)^2 < 1/50: first met at the centre of [0, 2]^2
        near = PolyConstraint(
            SUMSQ_2 - SUM_2.scale(2) + _poly(2, {(0, 0): Fraction(99, 50)}), "<"
        )
        memo = EnclosureMemo(box)
        first, again = SearchStats(), SearchStats()
        assert check_feasibility([near], box, stats=first, memo=memo) == check_feasibility(
            [near], box, stats=again, memo=memo
        )
        assert again.explored == first.explored > 1
        assert again.tensors == 0 < first.tensors

    def test_default_runs_keep_no_tally(self):
        c = PolyConstraint(_poly(1, {(1,): 1}), ">=")
        assert isinstance(check_feasibility([c], UNIT), Feasible)
