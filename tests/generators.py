"""Seeded random instance builders shared across the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from numltl.bernstein import Box, Point, Polynomial


def random_polynomial(
    rng: random.Random,
    arity: int,
    max_degree: int = 4,
    coeff_bound: int = 10,
    max_terms: int = 6,
) -> Polynomial:
    """Dense-ish integer polynomial, at least one nonzero term."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_degree) for _ in range(arity))
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-coeff_bound, coeff_bound)
        terms[expo] = Fraction(coeff)
    if all(c == 0 for c in terms.values()):
        terms[(0,) * arity] = Fraction(1)
    return Polynomial(arity, terms)


def random_box(rng: random.Random, arity: int, span: int = 4) -> Box:
    intervals = []
    for _ in range(arity):
        lo = Fraction(rng.randint(-span, span - 1))
        hi = lo + rng.randint(1, span)
        intervals.append((lo, hi))
    return Box(tuple(intervals))


def random_unit_point(rng: random.Random, arity: int, max_denominator: int = 16) -> Point:
    point = []
    for _ in range(arity):
        den = rng.randint(1, max_denominator)
        num = rng.randint(0, den)
        point.append(Fraction(num, den))
    return tuple(point)


def random_point_in_box(rng: random.Random, box: Box, max_denominator: int = 16) -> Point:
    unit = random_unit_point(rng, box.arity, max_denominator)
    return tuple(lo + t * (hi - lo) for (lo, hi), t in zip(box.intervals, unit))


def random_formula(rng: random.Random, atoms: list[str], depth: int):
    """Random LTL formula over the given atom names."""
    from numltl import speclang as sl

    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.8:
            return sl.Atom(rng.choice(atoms))
        if roll < 0.9:
            return sl.TrueFormula()
        return sl.FalseFormula()
    shape = rng.choice(
        ["not", "and", "or", "implies", "next", "always", "eventually", "until"]
    )
    if shape == "not":
        return sl.Not(random_formula(rng, atoms, depth - 1))
    if shape == "next":
        return sl.Next(random_formula(rng, atoms, depth - 1))
    if shape == "always":
        return sl.Always(random_formula(rng, atoms, depth - 1))
    if shape == "eventually":
        return sl.Eventually(random_formula(rng, atoms, depth - 1))
    ctor = {"and": sl.And, "or": sl.Or, "implies": sl.Implies, "until": sl.Until}[shape]
    return ctor(
        random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1)
    )


def random_document(rng: random.Random):
    """Random well-formed specification document."""
    from numltl import speclang as sl
    from numltl.bernstein import PolyConstraint, RELATIONS

    n_bool_in = rng.randint(0, 2)
    n_bool_out = rng.randint(1, 2)
    n_real_in = rng.randint(0, 2)
    n_real_out = rng.randint(0, 1)
    boolean_inputs = tuple(f"a{i}" for i in range(n_bool_in))
    boolean_outputs = tuple(f"b{i}" for i in range(n_bool_out))
    real_vars = []
    for i in range(n_real_in):
        lo = Fraction(rng.randint(-3, 2))
        real_vars.append(
            sl.RealVarDecl(f"x{i}", lo, lo + rng.randint(1, 4), sl.INPUT_SIDE)
        )
    for i in range(n_real_out):
        lo = Fraction(rng.randint(-3, 2))
        real_vars.append(
            sl.RealVarDecl(f"u{i}", lo, lo + rng.randint(1, 4), sl.OUTPUT_SIDE)
        )
    predicates = []
    for side, count in ((sl.INPUT_SIDE, n_real_in), (sl.OUTPUT_SIDE, n_real_out)):
        if count == 0:
            continue
        for j in range(rng.randint(0, 2)):
            # side inference is variable-driven, so avoid constant polynomials
            poly = random_polynomial(rng, count, max_degree=3, max_terms=4)
            while all(sum(expo) == 0 for expo in poly.terms):
                poly = random_polynomial(rng, count, max_degree=3, max_terms=4)
            predicates.append(
                sl.PredicateDef(
                    f"p_{side}{j}", PolyConstraint(poly, rng.choice(RELATIONS)), side
                )
            )
    atoms = (
        list(boolean_inputs)
        + list(boolean_outputs)
        + [p.atom for p in predicates]
    )
    assumptions = tuple(
        random_formula(rng, atoms, 3) for _ in range(rng.randint(0, 2))
    )
    guarantees = tuple(
        random_formula(rng, atoms, 4) for _ in range(rng.randint(1, 3))
    )
    return sl.SpecDocument(
        boolean_inputs=boolean_inputs,
        boolean_outputs=boolean_outputs,
        real_vars=tuple(real_vars),
        predicates=tuple(predicates),
        assumptions=assumptions,
        guarantees=guarantees,
    )


def random_lasso(
    rng: random.Random, atoms, max_prefix: int = 2, max_loop: int = 3, min_prefix: int = 0
):
    """Random ultimately periodic word as (prefix, loop) valuation lists."""
    from numltl.valuation import Valuation

    def letter():
        return Valuation.of({a: rng.random() < 0.5 for a in atoms})

    prefix = [letter() for _ in range(rng.randint(min_prefix, max_prefix))]
    loop = [letter() for _ in range(rng.randint(1, max_loop))]
    return prefix, loop


AUTOMATON_SHAPES = ("random", "transient", "prefix_entry")


def random_automaton(rng: random.Random, atoms, shape: str = "random"):
    """Random Büchi automaton over ``atoms`` with 1-6 states.

    Each state has 0-3 transitions, each guarded by a cube over a random
    subset of ``atoms`` (the empty cube among them).  The accepting set is
    empty, every state, or a random subset.  The other two shapes have at
    least three states and plant one structure:

    - ``"transient"``: state 1 is accepting and on no cycle.  Only the
      initial state 0 leads to it, on the empty cube, and it leads only to
      states above 1, which never lead back to 0 or 1.
    - ``"prefix_entry"``: the accepting self-loop at state 1 is entered
      only from state 0, on letters with ``atoms[0]`` true, and nothing
      leads back to 0: a word enters it at its first letter or never.
    """
    from numltl.automata import BuchiAutomaton, Transition
    from numltl.valuation import Valuation

    def cube():
        return Valuation.of({a: rng.random() < 0.5 for a in atoms if rng.random() < 0.4})

    planted = shape != "random"
    n = rng.randint(3 if planted else 1, 6)
    low = 2 if planted else 0  # the random transitions never enter states below
    rows = [
        [Transition(cube(), rng.randrange(low, n)) for _ in range(rng.randint(0, 3))]
        for _ in range(n)
    ]
    accepting = rng.choice([set(), set(range(n)), {s for s in range(n) if rng.random() < 0.5}])
    if shape == "transient":
        rows[0].append(Transition(Valuation.of({}), 1))
    elif shape == "prefix_entry":
        rows[0].append(Transition(Valuation.of({atoms[0]: True}), 1))
        rows[1] = [Transition(Valuation.of({}), 1)]
    if planted:
        accepting.add(1)
    return BuchiAutomaton(
        atoms=tuple(atoms),
        n_states=n,
        initial=0,
        transitions=tuple(tuple(row) for row in rows),
        accepting=frozenset(accepting),
    )


def random_arena(rng: random.Random, objective: str, reverse_atoms: bool = False, merge=False):
    """Random bipartite arena mirroring the builders' shape: one ctrl node
    per (env node, input valuation), arbitrary ctrl answers, some env edges
    pre-marked absent to exercise present-flag handling.  Letters and their
    bits come from ``letters_of``.  With ``reverse_atoms`` the atoms are
    declared against name order, which moves their bits but leaves the
    letters in ``Valuation`` order, so the arena's tests check that
    declaration order does not matter.  With ``merge``
    about half the inputs of an env node answer as an earlier one does, and
    inputs that answer alike share one ctrl node, as in the builders'
    letter classes."""
    from oracles import ObjectCtrlEdge, ObjectEnvEdge, arena_from_edges
    from numltl.games import letters_of

    inputs = tuple(f"i{k}" for k in range(rng.randint(1, 2)))
    outputs = tuple(f"o{k}" for k in range(rng.randint(1, 2)))
    if reverse_atoms:
        inputs, outputs = inputs[::-1], outputs[::-1]
    n_env = rng.randint(1, 6)
    letters = letters_of(inputs, outputs)
    input_valuations = list(zip(letters.inputs, letters.input_bits))
    output_valuations = letters.outputs

    env_edges = []
    ctrl_edges = []
    for i in range(n_env):
        row = []
        for vin, bits in input_valuations:
            if rng.random() < 0.15:
                continue  # env simply lacks this move
            cid = len(ctrl_edges)
            row.append(ObjectEnvEdge(vin, cid, present=rng.random() > 0.1, bits=bits))
            if merge and len(row) > 1 and rng.random() < 0.5:
                ctrl_edges.append(ctrl_edges[rng.choice(row[:-1]).target])
                continue
            answers = []
            for vout in output_valuations:
                for _ in range(rng.randint(0, 2)):
                    answers.append(ObjectCtrlEdge(vout, rng.randrange(n_env)))
            ctrl_edges.append(list(dict.fromkeys(answers)))
        env_edges.append(row)

    accepting = frozenset(i for i in range(n_env) if rng.random() < 0.4)
    unsafe = frozenset(i for i in range(n_env) if rng.random() < 0.3)
    return arena_from_edges(
        objective,
        inputs,
        outputs,
        env_edges,
        ctrl_edges,
        initial=rng.randrange(n_env),
        accepting=accepting if objective == "buchi" else frozenset(),
        unsafe=unsafe if objective == "safety" else frozenset(),
        merge=merge,
    )


def random_synthesis_document(rng: random.Random):
    """Random small document shaped for end-to-end synthesis runs: template
    guarantees over at most 4 predicates and 3 output atoms, with threshold
    predicates that conflict often enough to exercise refinement."""
    from numltl import speclang as sl
    from numltl.bernstein import PolyConstraint

    def threshold_constraint(arity: int) -> PolyConstraint:
        # a*x_i (+ x_i^2 sometimes) REL c over [0,4]; thresholds cluster so
        # that conjunctions of a few predicates are frequently empty
        i = rng.randrange(arity)
        terms = {}
        expo = [0] * arity
        expo[i] = 1
        terms[tuple(expo)] = Fraction(rng.choice((1, 1, 1, 2)))
        if rng.random() < 0.3:
            expo2 = [0] * arity
            expo2[i] = 2
            terms[tuple(expo2)] = Fraction(1)
        terms[(0,) * arity] = -Fraction(rng.randint(0, 8), rng.choice((1, 2)))
        return PolyConstraint(
            Polynomial(arity, terms), rng.choice((">", ">=", "<", "<="))
        )

    n_bool_in = rng.randint(0, 1)
    n_in_preds = rng.randint(0, 3)
    n_out_preds = rng.randint(0, 1)
    n_bool_out = rng.randint(1, 3 - n_out_preds)
    n_real_in = rng.randint(1, 2) if n_in_preds else 0
    n_real_out = 1 if n_out_preds else 0

    boolean_inputs = tuple(f"a{i}" for i in range(n_bool_in))
    boolean_outputs = tuple(f"b{i}" for i in range(n_bool_out))
    real_vars = tuple(
        sl.RealVarDecl(f"x{i}", Fraction(0), Fraction(4), sl.INPUT_SIDE)
        for i in range(n_real_in)
    ) + tuple(
        sl.RealVarDecl(f"u{i}", Fraction(0), Fraction(4), sl.OUTPUT_SIDE)
        for i in range(n_real_out)
    )
    predicates = tuple(
        sl.PredicateDef(f"p{j}", threshold_constraint(n_real_in), sl.INPUT_SIDE)
        for j in range(n_in_preds)
    ) + tuple(
        sl.PredicateDef(f"q{j}", threshold_constraint(n_real_out), sl.OUTPUT_SIDE)
        for j in range(n_out_preds)
    )

    in_atoms = list(boolean_inputs) + [f"p{j}" for j in range(n_in_preds)]
    out_atoms = list(boolean_outputs) + [f"q{j}" for j in range(n_out_preds)]

    def in_lit():
        atom = sl.Atom(rng.choice(in_atoms))
        return sl.Not(atom) if rng.random() < 0.3 else atom

    def out_lit():
        atom = sl.Atom(rng.choice(out_atoms))
        return sl.Not(atom) if rng.random() < 0.3 else atom

    def template():
        roll = rng.random()
        if not in_atoms or roll < 0.25:
            if len(out_atoms) >= 2 and rng.random() < 0.6:
                one, two = rng.sample(out_atoms, 2)
                return sl.Always(sl.Not(sl.And(sl.Atom(one), sl.Atom(two))))
            return sl.Always(out_lit())
        if roll < 0.6:
            return sl.Always(sl.Implies(in_lit(), sl.Next(out_lit())))
        if roll < 0.8:
            return sl.Always(sl.Implies(in_lit(), sl.Eventually(out_lit())))
        return sl.Eventually(out_lit())

    guarantees = tuple(template() for _ in range(rng.randint(1, 3)))
    assumptions = ()
    if in_atoms and rng.random() < 0.25:
        assumptions = (sl.Always(in_lit()),)
    return sl.SpecDocument(
        boolean_inputs=boolean_inputs,
        boolean_outputs=boolean_outputs,
        real_vars=real_vars,
        predicates=predicates,
        assumptions=assumptions,
        guarantees=guarantees,
    )


def random_refinement_document(rng: random.Random):
    """Random arbiter-shaped document whose input predicates share their
    sensor variables, so that many predicate valuations are infeasible.

    Each input predicate p_j is a threshold or band over the same one or two
    sensors and requests its own grant g_j; some pairs of grants exclude
    each other.  The environment then wins the Boolean game by raising two
    conflicting requests at once, and whenever those two bands are disjoint
    the loop has to refine that input valuation away and mark the arena."""
    from numltl import speclang as sl
    from numltl.bernstein import PolyConstraint

    n_real = 1 if rng.random() < 0.8 else 2
    n_preds = 2 if rng.random() < 0.4 else 3

    def band(j: int, var: int) -> PolyConstraint:
        # every endpoint of p_j is k/2 + (2j+1)/16: endpoints of different
        # predicates never touch, so each conjunction is clearly feasible or
        # clearly infeasible and the exact checker never has to give up
        offset = Fraction(2 * j + 1, 16)
        expo = [0] * n_real
        expo[var] = 1
        linear = tuple(expo)
        expo[var] = 2
        square = tuple(expo)
        const = (0,) * n_real
        if rng.random() < 0.35:
            c = Fraction(rng.randint(0, 7), 2) + offset
            terms = {linear: Fraction(1), const: -c}
            return PolyConstraint(Polynomial(n_real, terms), rng.choice((">", "<")))
        # (x - c)^2 < r^2: the open band (c - r, c + r)
        c = Fraction(rng.randint(1, 6), 2) + offset
        r = Fraction(rng.randint(1, 2), 2)
        terms = {square: Fraction(1), linear: -2 * c, const: c * c - r * r}
        return PolyConstraint(Polynomial(n_real, terms), "<")

    real_vars = tuple(
        sl.RealVarDecl(f"x{i}", Fraction(0), Fraction(4), sl.INPUT_SIDE) for i in range(n_real)
    )
    predicates = tuple(
        sl.PredicateDef(f"p{j}", band(j, rng.randrange(n_real)), sl.INPUT_SIDE)
        for j in range(n_preds)
    )
    output_guarantees: tuple = ()
    if rng.random() < 0.3:
        # one actuator threshold q0 the controller must raise with grant g0
        real_vars += (sl.RealVarDecl("u0", Fraction(0), Fraction(4), sl.OUTPUT_SIDE),)
        c = Fraction(rng.randint(1, 7), 2)
        level = PolyConstraint(Polynomial(1, {(1,): Fraction(1), (0,): -c}), rng.choice((">", "<")))
        predicates += (sl.PredicateDef("q0", level, sl.OUTPUT_SIDE),)
        output_guarantees = (sl.Always(sl.Implies(sl.Atom("g0"), sl.Atom("q0"))),)
    boolean_inputs = ("a0",) if rng.random() < 0.3 else ()
    boolean_outputs = tuple(f"g{j}" for j in range(n_preds))

    def request(j: int):
        granted = sl.Atom(f"g{j}")
        answer = sl.Next(granted) if rng.random() < 0.85 else sl.Eventually(granted)
        trigger = sl.Atom(f"p{j}")
        if boolean_inputs and rng.random() < 0.3:
            trigger = sl.And(trigger, sl.Atom("a0"))
        return sl.Always(sl.Implies(trigger, answer))

    pairs = [(j, k) for j in range(n_preds) for k in range(j + 1, n_preds)]
    exclusive = [pair for pair in pairs if rng.random() < 0.8] or [rng.choice(pairs)]
    guarantees = tuple(request(j) for j in range(n_preds)) + tuple(
        sl.Always(sl.Not(sl.And(sl.Atom(f"g{j}"), sl.Atom(f"g{k}")))) for j, k in exclusive
    ) + output_guarantees
    return sl.SpecDocument(
        boolean_inputs=boolean_inputs,
        boolean_outputs=boolean_outputs,
        real_vars=real_vars,
        predicates=predicates,
        assumptions=(),
        guarantees=guarantees,
    )


def random_formula_with_release(rng: random.Random, atoms: list[str], depth: int):
    """Random formula over every node class the negation normal form reads:
    the parser's, ``Release``, and chains of two to five ``!``."""
    from numltl import speclang as sl
    from numltl.automata import Release

    if depth == 0 or rng.random() < 0.2:
        return random_formula(rng, atoms, 0)
    shape = rng.choice(
        [sl.Not, sl.Next, sl.Always, sl.Eventually, sl.And, sl.Or, sl.Implies, sl.Until]
        + [Release, "chain"]
    )
    if shape == "chain":
        formula = random_formula_with_release(rng, atoms, depth - 1)
        for _ in range(rng.randint(2, 5)):
            formula = sl.Not(formula)
        return formula
    if shape in (sl.Not, sl.Next, sl.Always, sl.Eventually):
        return shape(random_formula_with_release(rng, atoms, depth - 1))
    return shape(
        random_formula_with_release(rng, atoms, depth - 1),
        random_formula_with_release(rng, atoms, depth - 1),
    )
