"""Independent reference implementations used to cross-check the library.

Nothing in here may call into the code paths under test: polynomial range
checks go through dense grids, Bernstein tensors are re-expanded against the
definition of the basis, games and automata get their own brute-force
counterparts, and (further down) the arena builders, the attractor and the
tableau keep the object-level versions the library replaced with
bit-packed and interned ones, and the Bernstein search keeps the
substitute-then-convert enclosures and sample evaluation that the dense
per-dimension conversion replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from numltl.bernstein import (
    BernsteinTensor,
    Box,
    ConstraintImplication,
    Feasible,
    Infeasible,
    Invalid,
    Point,
    Polynomial,
    Unknown,
    Valid,
    to_unit_box,
)


def grid_points(box: Box, per_dim: int) -> list[Point]:
    """Uniform rational grid with ``per_dim`` samples per dimension."""
    axes = []
    for lo, hi in box.intervals:
        if per_dim == 1:
            axes.append([lo])
        else:
            step = (hi - lo) / (per_dim - 1)
            axes.append([lo + step * i for i in range(per_dim)])
    return [tuple(p) for p in product(*axes)]


def bernstein_basis_value(degree: tuple[int, ...], index: tuple[int, ...], point: Point) -> Fraction:
    """Value of the tensor-product Bernstein basis polynomial B_{index} at ``point``."""
    value = Fraction(1)
    for n, j, t in zip(degree, index, point):
        value *= comb(n, j) * t**j * (1 - t) ** (n - j)
    return value


def bernstein_reexpand(tensor: BernsteinTensor, point: Point) -> Fraction:
    """Evaluate a Bernstein tensor at a unit-box point straight from the basis."""
    total = Fraction(0)
    for index, coeff in tensor.coefficients.items():
        total += coeff * bernstein_basis_value(tensor.degree, index, point)
    return total


def poly_min_max_on_grid(poly: Polynomial, points: list[Point]) -> tuple[Fraction, Fraction]:
    values = [poly.evaluate(p) for p in points]
    return min(values), max(values)


def lasso_accepted_by_search(automaton, prefix, loop) -> bool:
    """Acceptance of prefix . loop^omega decided without SCC machinery: a
    product node counts when it is reachable from the start and lies on a
    cycle, checked by one breadth-first search per accepting node."""
    from numltl.valuation import Valuation

    word = [v if isinstance(v, Valuation) else Valuation.of(v) for v in list(prefix) + list(loop)]
    total = len(word)
    loop_start = len(list(prefix))

    def succ(pos):
        return pos + 1 if pos + 1 < total else loop_start

    def successors(node):
        state, pos = node
        return [
            (t.target, succ(pos))
            for t in automaton.transitions[state]
            if cube_matches(t.guard, word[pos])
        ]

    reachable = set()
    frontier = [(automaton.initial, 0)]
    reachable.add(frontier[0])
    while frontier:
        node = frontier.pop()
        for child in successors(node):
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)

    for node in sorted(reachable):
        state, _ = node
        if state not in automaton.accepting:
            continue
        seen = set(successors(node))
        queue = list(seen)
        if node in seen:
            return True
        while queue:
            current = queue.pop()
            for child in successors(current):
                if child == node:
                    return True
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return False


def game_cpre(arena, region: set) -> set:
    """Nodes from which the controller survives one round into ``region``:
    env nodes whose present moves all land there, ctrl nodes with some move."""
    out = set()
    for i in range(arena.n_env):
        succ = [("ctrl", e.target) for e in arena.env_edges[i] if e.present]
        if all(t in region for t in succ):
            out.add(("env", i))
    for i in range(arena.n_ctrl):
        succ = [("env", e.target) for e in arena.ctrl_edges[i]]
        if any(t in region for t in succ):
            out.add(("ctrl", i))
    return out


def buchi_win_oracle(arena) -> frozenset:
    """Controller's winning region as the nested fixpoint: greatest Z such
    that Z is the least Y with Y = cpre(Y) or (accepting and cpre(Z))."""
    accepting = {("env", q) for q in arena.accepting}
    z = set(arena.nodes())
    while True:
        y: set = set()
        while True:
            step = game_cpre(arena, y) | (accepting & game_cpre(arena, z))
            if step == y:
                break
            y = step
        if y == z:
            return frozenset(z)
        z = y


def safety_win_oracle(arena) -> frozenset:
    """Controller's winning region as the greatest Z with Z = safe and cpre(Z)."""
    safe = set(arena.nodes()) - {("env", u) for u in arena.unsafe}
    z = set(arena.nodes())
    while True:
        step = safe & game_cpre(arena, z)
        if step == z:
            return frozenset(z)
        z = step


def minimum_cover_size(universe: set, subsets: list[set]) -> int:
    """Exact smallest number of subsets covering the universe, by exhaustive
    search over subset combinations (intended for tiny instances only)."""
    from itertools import combinations

    if not universe:
        return 0
    for size in range(1, len(subsets) + 1):
        for combo in combinations(subsets, size):
            covered: set = set()
            for s in combo:
                covered |= s
            if universe <= covered:
                return size
    msg = "universe is not coverable by the given subsets"
    raise ValueError(msg)


# -- reference game and automaton construction --------------------------------
#
# The library builds arenas over bit-packed letters and runs its tableau on
# interned subformulas; the versions below are the straightforward ones they
# replaced, working on ``Valuation``/``Cube`` objects and formula sets
# throughout.  Differential tests require exact agreement.


def cube_matches(cube, valuation) -> bool:
    """Whether ``valuation`` (or an atom -> bool mapping) agrees with
    ``cube`` on every atom it fixes."""
    mapping = valuation if isinstance(valuation, dict) else valuation.as_dict()
    return all(mapping[name] == value for name, value in cube.pairs)


@dataclass
class ReferenceArena:
    """The observable shape of an arena: labels, origins, and edges as
    ``(valuation, target, present)`` / ``(valuation, target)`` tuples."""

    objective: str
    env_labels: tuple
    ctrl_origin: tuple
    env_edges: list
    ctrl_edges: list
    initial: int
    accepting: frozenset = frozenset()
    unsafe: frozenset = frozenset()


def arena_shape(arena) -> ReferenceArena:
    """A library arena reduced to what ``ReferenceArena`` records."""
    return ReferenceArena(
        objective=arena.objective,
        env_labels=arena.env_labels,
        ctrl_origin=arena.ctrl_origin,
        env_edges=[[(e.valuation, e.target, e.present) for e in row] for row in arena.env_edges],
        ctrl_edges=[[(e.valuation, e.target) for e in row] for row in arena.ctrl_edges],
        initial=arena.initial,
        accepting=arena.accepting,
        unsafe=arena.unsafe,
    )


def reference_buchi_game(automaton, inputs, outputs) -> ReferenceArena:
    from numltl.valuation import all_valuations

    input_valuations = list(all_valuations(inputs))
    output_valuations = list(all_valuations(outputs))
    ctrl_origin = []
    env_edges = []
    ctrl_edges = []
    for q in range(automaton.n_states):
        row = []
        for vin in input_valuations:
            cid = len(ctrl_origin)
            ctrl_origin.append((q, vin))
            row.append((vin, cid, True))
            answers = []
            seen = set()
            for vout in output_valuations:
                letter = vin.merge(vout)
                for t in automaton.transitions[q]:
                    if cube_matches(t.guard, letter) and (vout, t.target) not in seen:
                        seen.add((vout, t.target))
                        answers.append((vout, t.target))
            ctrl_edges.append(answers)
        env_edges.append(row)
    return ReferenceArena(
        objective="buchi",
        env_labels=tuple(range(automaton.n_states)),
        ctrl_origin=tuple(ctrl_origin),
        env_edges=env_edges,
        ctrl_edges=ctrl_edges,
        initial=automaton.initial,
        accepting=frozenset(automaton.accepting),
    )


def reference_safety_game(negated, bound, inputs, outputs) -> ReferenceArena:
    from numltl.games import EMPTY_LABEL, UNSAFE_LABEL
    from numltl.valuation import all_valuations

    input_valuations = list(all_valuations(inputs))
    output_valuations = list(all_valuations(outputs))
    # each letter as a mapping, merged once rather than per macro state
    letters = {
        (vin, vout): vin.merge(vout).as_dict()
        for vin in input_valuations
        for vout in output_valuations
    }
    labels = []
    index = {}
    env_edges = []
    ctrl_origin = []
    ctrl_edges = []
    unsafe = set()

    def env_id(label):
        if label in index:
            return index[label]
        i = len(labels)
        index[label] = i
        labels.append(label)
        env_edges.append([])
        if label == UNSAFE_LABEL:
            unsafe.add(i)
        return i

    def step_macro(macro, letter):
        best = {}
        for state, count in macro:
            for t in negated.transitions[state]:
                if not cube_matches(t.guard, letter):
                    continue
                bumped = count + (1 if t.target in negated.accepting else 0)
                if bumped > best.get(t.target, -1):
                    best[t.target] = bumped
        if any(c > bound for c in best.values()):
            return UNSAFE_LABEL
        if not best:
            return EMPTY_LABEL
        return tuple(sorted(best.items()))

    start = env_id(((negated.initial, 0),))
    queue = [start]
    expanded = {start}
    while queue:
        i = queue.pop(0)
        label = labels[i]
        if label == UNSAFE_LABEL:
            continue
        for vin in input_valuations:
            cid = len(ctrl_origin)
            ctrl_origin.append((i, vin))
            env_edges[i].append((vin, cid, True))
            answers = []
            for vout in output_valuations:
                if label == EMPTY_LABEL:
                    target_label = EMPTY_LABEL
                else:
                    target_label = step_macro(label, letters[(vin, vout)])
                t = env_id(target_label)
                answers.append((vout, t))
                if t not in expanded:
                    expanded.add(t)
                    queue.append(t)
            ctrl_edges.append(answers)
    return ReferenceArena(
        objective="safety",
        env_labels=tuple(labels),
        ctrl_origin=tuple(ctrl_origin),
        env_edges=env_edges,
        ctrl_edges=ctrl_edges,
        initial=start,
        unsafe=frozenset(unsafe),
    )


def reference_mark_edges_absent(arena, valuation, predicate_atoms) -> int:
    """Edge marking by projecting each edge's input valuation."""
    count = 0
    for row in arena.env_edges:
        for edge in row:
            if edge.present and edge.valuation.restrict(predicate_atoms) == valuation:
                edge.present = False
                count += 1
    return count


def reference_attractor(arena, owner, base, alive):
    """Layered attractor by rescanning every live node once per layer;
    returns the attracted set and each member's layer (base nodes 0)."""
    attr = {n for n in base if n in alive}
    rank = {n: 0 for n in attr}
    current = 0
    while True:
        fresh = set()
        for node in alive:
            if node in attr:
                continue
            kind, i = node
            if kind == "env":
                edges = [("ctrl", e.target) for e in arena.env_edges[i] if e.present]
            else:
                edges = [("env", e.target) for e in arena.ctrl_edges[i]]
            edges = [t for t in edges if t in alive]
            if kind == owner:
                if any(t in attr for t in edges):
                    fresh.add(node)
            elif all(t in attr for t in edges):
                fresh.add(node)
        if not fresh:
            return attr, rank
        current += 1
        for node in fresh:
            attr.add(node)
            rank[node] = current


@dataclass
class _TableauNode:
    node_id: int
    incoming: set
    new: set
    old: set
    nxt: set


def _is_literal(f) -> bool:
    from numltl import speclang as sl

    return isinstance(f, (sl.TrueFormula, sl.FalseFormula, sl.Atom)) or (
        isinstance(f, sl.Not) and isinstance(f.operand, sl.Atom)
    )


def _negate_literal(f):
    from numltl import speclang as sl

    if isinstance(f, sl.Atom):
        return sl.Not(f)
    if isinstance(f, sl.Not):
        return f.operand
    if isinstance(f, sl.TrueFormula):
        return sl.FalseFormula()
    return sl.TrueFormula()


def reference_expand(formula) -> list:
    """Tableau expansion on sets of formulas, always expanding the formula
    whose ``repr`` sorts first."""
    from numltl import speclang as sl
    from numltl.automata import Release

    done = []
    counter = [0]

    def fresh(incoming, new, old, nxt):
        counter[0] += 1
        return _TableauNode(counter[0], incoming, new, old, nxt)

    by_obligations = {}
    work = [fresh({-1}, {formula}, set(), set())]
    while work:
        node = work.pop()
        if not node.new:
            key = (frozenset(node.old), frozenset(node.nxt))
            existing = by_obligations.get(key)
            if existing is not None:
                existing.incoming |= node.incoming
            else:
                by_obligations[key] = node
                done.append(node)
                work.append(fresh({node.node_id}, set(node.nxt), set(), set()))
            continue
        f = min(node.new, key=repr)
        node.new.discard(f)
        if _is_literal(f):
            if isinstance(f, sl.FalseFormula) or _negate_literal(f) in node.old:
                continue
            node.old.add(f)
            work.append(node)
        elif isinstance(f, sl.And):
            node.old.add(f)
            node.new |= {f.left, f.right} - node.old
            work.append(node)
        elif isinstance(f, (sl.Or, sl.Until, Release)):
            if isinstance(f, sl.Or):
                first, second = ({f.right}, set()), ({f.left}, set())
            elif isinstance(f, sl.Until):
                first, second = ({f.right}, set()), ({f.left}, {f})
            else:
                first, second = ({f.left, f.right}, set()), ({f.right}, {f})
            for extra, postponed in (first, second):
                work.append(
                    fresh(
                        set(node.incoming),
                        node.new | (extra - node.old),
                        node.old | {f},
                        node.nxt | postponed,
                    )
                )
        elif isinstance(f, sl.Next):
            node.old.add(f)
            node.nxt.add(f.operand)
            work.append(node)
        else:
            raise TypeError(f"formula not in normal form: {f!r}")
    return done


def _subformulas(formula) -> set:
    out = {formula}
    for child in ("operand", "left", "right"):
        if hasattr(formula, child):
            out |= _subformulas(getattr(formula, child))
    return out


def reference_translate(formula, atoms):
    """``translate`` with the tableau run by ``reference_expand``; the
    degeneralization and simplification stages are the library's own."""
    from numltl import speclang as sl
    from numltl.automata import (
        BuchiAutomaton,
        _degeneralize,
        _simplify,
        negation_normal_form,
    )
    from numltl.valuation import Cube

    normal = negation_normal_form(formula)
    nodes = reference_expand(normal)
    untils = sorted((f for f in _subformulas(normal) if isinstance(f, sl.Until)), key=repr)
    ids = {node.node_id: i + 1 for i, node in enumerate(nodes)}
    edges = [[] for _ in range(len(nodes) + 1)]
    for node in nodes:
        pairs = []
        for f in node.old:
            if isinstance(f, sl.Atom):
                pairs.append((f.name, True))
            elif isinstance(f, sl.Not) and isinstance(f.operand, sl.Atom):
                pairs.append((f.operand.name, False))
        guard = Cube(tuple(pairs))
        for src in node.incoming:
            edges[0 if src == -1 else ids[src]].append((guard, ids[node.node_id]))
    acceptance_sets = [
        frozenset(
            ids[node.node_id] for node in nodes if u not in node.old or u.right in node.old
        )
        | {0}
        for u in untils
    ]
    n, initial, rows, accepting = _degeneralize(len(nodes) + 1, 0, edges, acceptance_sets)
    automaton = _simplify(n, initial, rows, accepting)
    return BuchiAutomaton(
        atoms=atoms,
        n_states=automaton.n_states,
        initial=automaton.initial,
        transitions=automaton.transitions,
        accepting=automaton.accepting,
    )


# -- reference Bernstein engine -------------------------------------------------
#
# The library converts dense power tensors one dimension at a time, with the
# shift onto each subbox folded into the conversion, and reads vertex
# samples from corner coefficients.  The versions below are the ones that
# replaced: ``to_unit_box`` on every subbox, the direct O(prod (N_i+1)^2)
# coefficient formula, and exact evaluation of every sample point.

_SIGN_HOLDS = {
    "<": lambda v: v < 0,
    "<=": lambda v: v <= 0,
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
}


def reference_bernstein_coefficients(poly: Polynomial, degree=None) -> BernsteinTensor:
    """b_J = sum_{I <= J} (prod_i C(J_i, I_i) / C(N_i, I_i)) a_I, entry by entry."""
    degree = poly.degree_vector() if degree is None else tuple(degree)
    coeffs = {}
    for index_j in product(*(range(n + 1) for n in degree)):
        total = Fraction(0)
        for index_i, a in poly.terms.items():
            if any(i > j for i, j in zip(index_i, index_j)):
                continue
            weight = Fraction(1)
            for i, j, n in zip(index_i, index_j, degree):
                weight *= Fraction(comb(j, i), comb(n, i))
            total += weight * a
        coeffs[index_j] = total
    return BernsteinTensor(degree, coeffs)


def reference_enclosure(poly: Polynomial, box: Box) -> tuple[Fraction, Fraction]:
    """Min/max Bernstein coefficient of ``to_unit_box(poly, box)`` at its
    natural degree."""
    values = reference_bernstein_coefficients(to_unit_box(poly, box)).coefficients.values()
    return min(values), max(values)


def reference_bounds(poly: Polynomial, box: Box, depth: int = 0) -> tuple[Fraction, Fraction]:
    lo, hi = reference_enclosure(poly, box)
    if depth == 0 or box.is_point() or lo == hi:
        return lo, hi
    left, right = box.split(box.widest_dimension())
    lo1, hi1 = reference_bounds(poly, left, depth - 1)
    lo2, hi2 = reference_bounds(poly, right, depth - 1)
    return min(lo1, lo2), max(hi1, hi2)


def _reference_refuted(relation: str, lo: Fraction, hi: Fraction) -> bool:
    if relation == ">":
        return hi <= 0
    if relation == ">=":
        return hi < 0
    if relation == "<":
        return lo >= 0
    return lo > 0


def reference_search(constraints, box: Box, depth: int, stats=None):
    """Branch and prune: enclosures by ``reference_enclosure``, then the
    centre and every vertex (low endpoint first, dimension 0 slowest) by
    exact evaluation; depth-first, lower half first."""
    def holds(point):
        return all(_SIGN_HOLDS[c.relation](c.poly.evaluate(point)) for c in constraints)

    ran_out = False
    stack = [(box, 0)]
    while stack:
        sub, level = stack.pop()
        if stats is not None:
            stats.explored += 1
        if any(
            _reference_refuted(c.relation, *reference_enclosure(c.poly, sub)) for c in constraints
        ):
            continue
        for point in [sub.center(), *product(*sub.intervals)]:
            if holds(point):
                return Feasible(tuple(point))
        if level >= depth or sub.is_point():
            ran_out = True
            continue
        lower, upper = sub.split(sub.widest_dimension())
        stack.append((upper, level + 1))
        stack.append((lower, level + 1))
    return Unknown("depth exhausted") if ran_out else Infeasible()


def reference_check_validity(formula, box: Box, depth: int, stats=None):
    """Validity as infeasibility of the negation, through ``reference_search``."""
    if isinstance(formula, ConstraintImplication):
        negation = (formula.premise, formula.conclusion.negated())
    else:
        negation = (formula.negated(),)
    verdict = reference_search(negation, box, depth, stats)
    if isinstance(verdict, Feasible):
        return Invalid(verdict.witness)
    if isinstance(verdict, Infeasible):
        return Valid()
    return verdict
