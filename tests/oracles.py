"""Independent reference implementations used to cross-check the library.

Nothing in here may call into the code paths under test, except the unit-box
views of the Bernstein kernel that the tests hold against these references:
polynomial range checks go through dense grids, Bernstein tensors are
re-expanded against the definition of the basis, games and automata get
their own brute-force counterparts, and (further down) the arena builders,
the attractor and the tableau keep the object-level versions the library
replaced with bit-packed, interned and memoised ones (the tableau with its
object-guarded degeneralization and simplification), guard lowering keeps
the letter loop that atom masks replaced, the game solvers, strategy
extraction, counter-input selection and edge marking keep the versions on
arenas of edge objects that flat arrays replaced, the guarantee monitor
keeps its per-trigger rescans and its per-step evaluation, the simulator
keeps its per-step valuations and rendering, and the Bernstein search keeps
the substitute-then-convert enclosures and sample evaluation that the dense
per-dimension conversion replaced and the ``Fraction`` subdivision that the
integer one replaced, the specification front end keeps the
character-by-character lexer and the name-keyed polynomial parser that the
token-pattern lexer and the ``Polynomial``-built parser replaced, and the
formula layer keeps its per-operator walks, printer and negation normal form
that the field-reading walks and the syntax and dual tables replaced, and
the recursive lasso semantics that the one evaluator ``truth`` replaced, and
the refinement loop keeps its two refinement paths, one per winner, that one
round for both replaced, the artifact writers keep their body per kind that
one body over each machine's ``moves()`` replaced, and lasso acceptance
keeps the strongly-connected-component pass that two reachability searches
replaced. The tests read the library's arenas and solutions only through the
object views built here from their arrays (``object_arena``,
``object_solution``), expanded to one ctrl node per input letter, the arena
the library's letter classes replaced, and build arenas edge by edge with
``arena_from_edges``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod

from numltl.bernstein import (
    Box,
    ConstraintImplication,
    Feasible,
    Infeasible,
    Invalid,
    Point,
    PolyConstraint,
    Polynomial,
    PolynomialError,
    Unknown,
    Valid,
    _bernstein_tensor,
    _power_tensor,
)
from numltl.cegar import _build_arena
from numltl.games import SafetyGame
from numltl.speclang import (
    INPUT_SIDE,
    KEYWORDS,
    OUTPUT_SIDE,
    RELOPS,
    Always,
    And,
    Atom,
    ConstraintDocument,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    PredicateDef,
    RealVarDecl,
    Release,
    SpecDocument,
    SpecError,
    Token,
    TokenKind,
    TrueFormula,
    Until,
)


# -- unit-box views of the Bernstein kernel ------------------------------------
#
# The library converts polynomials on the boxes its searches visit; these
# read its conversion kernel on the unit box as a coefficient tensor keyed
# by multi-index, the form the references below and the tests compare.


@dataclass(frozen=True)
class BernsteinTensor:
    """Complete coefficient tensor of a polynomial over the unit box.

    ``degree`` is the per-dimension Bernstein degree N; ``coefficients`` holds
    one entry for every multi-index J with 0 <= J_i <= N_i.
    """

    degree: tuple[int, ...]
    coefficients: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        expected = 1
        for n in self.degree:
            expected *= n + 1
        if len(self.coefficients) != expected:
            msg = (
                f"incomplete tensor: {len(self.coefficients)} coefficients, "
                f"expected {expected} for degree {self.degree}"
            )
            raise PolynomialError(msg)


def to_unit_box(poly: Polynomial, box: Box) -> Polynomial:
    """Reparametrize so the unit box maps onto ``box``: x_i = lo_i + w_i t_i."""
    if poly.arity != box.arity:
        raise PolynomialError("polynomial and box arity differ")
    lowers = [lo for lo, _ in box.intervals]
    widths = [hi - lo for lo, hi in box.intervals]
    return poly.affine_substitute(lowers, widths)


def bernstein_coefficients(poly: Polynomial, degree=None) -> BernsteinTensor:
    """Bernstein coefficients of ``poly`` over the unit box, by the
    library's kernel.

    With power-basis coefficients a_I and Bernstein degree N, the tensor is

        b_J = sum_{I <= J} (prod_i C(J_i, I_i) / C(N_i, I_i)) * a_I,

    computed one dimension at a time: along each fiber of dimension d,
    b_j = sum_{i <= j} C(j, i) / C(N_d, i) * a_i.  ``degree`` may exceed
    the natural degree (degree elevation).
    """
    natural = poly.degree_vector()
    if degree is None:
        degree = natural
    else:
        degree = tuple(degree)
        if len(degree) != poly.arity or any(d < n for d, n in zip(degree, natural)):
            msg = f"requested degree {degree} below natural degree {natural}"
            raise PolynomialError(msg)
    unit = (Fraction(0), Fraction(1))
    flat = _bernstein_tensor(_power_tensor(poly, degree), degree, (unit,) * poly.arity)
    indices = product(*(range(n + 1) for n in degree))
    return BernsteinTensor(degree, dict(zip(indices, flat)))


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


def game_cpre(arena, region: set) -> set:
    """Nodes of an ``ObjectArena`` from which the controller survives one
    round into ``region``: env nodes whose present moves all land there, ctrl
    nodes with some move."""
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
# replaced, working on ``Valuation`` objects and formula sets
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
    objects = object_arena(arena)
    return ReferenceArena(
        objective=arena.objective,
        env_labels=arena.env_labels,
        ctrl_origin=objects.ctrl_origin,
        env_edges=[[(e.valuation, e.target, e.present) for e in row] for row in objects.env_edges],
        ctrl_edges=[[(e.valuation, e.target) for e in row] for row in objects.ctrl_edges],
        initial=arena.initial,
        accepting=arena.accepting,
        unsafe=arena.unsafe,
    )


def reference_buchi_game(automaton, inputs, outputs) -> ReferenceArena:
    from numltl.valuation import all_valuations

    input_valuations = list(all_valuations(sorted(inputs)))
    output_valuations = list(all_valuations(sorted(outputs)))
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
                # each output's targets ascending, as the successor table lists them
                for t in sorted(automaton.transitions[q], key=lambda t: t.target):
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

    input_valuations = list(all_valuations(sorted(inputs)))
    output_valuations = list(all_valuations(sorted(outputs)))
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


def reference_attractor(arena, owner, base, alive):
    """Layered attractor on an ``ObjectArena`` by rescanning every live node
    once per layer; returns the attracted set and each member's layer (base
    nodes 0)."""
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


# -- object-level game solving and extraction ---------------------------------
#
# The library keeps an arena as flat int arrays with a predecessor index built
# once, ranks and regions as arrays, and breaks ties on per-letter sort ranks;
# the versions below are the ones it replaced, on arenas of edge objects with
# ``("env", i)`` / ``("ctrl", k)`` node sets and rank dicts, and with one ctrl
# node per input letter where the library has one per letter class.
# ``object_arena`` copies a library arena's arrays into that form, with its
# own mutable edges, so marking one leaves the other alone;
# ``arena_from_edges`` goes the other way, and ``object_solution`` reads a
# library solution's rank arrays into the regions and strategies the
# object-level solvers return.


@dataclass
class ObjectEnvEdge:
    valuation: object
    target: int
    present: bool = True
    bits: int = 0  # ``valuation`` encoded over the arena's inputs


@dataclass(frozen=True)
class ObjectCtrlEdge:
    valuation: object
    target: int


@dataclass
class ObjectArena:
    objective: str
    inputs: tuple
    outputs: tuple
    env_labels: tuple
    env_edges: list  # per env node, its ``ObjectEnvEdge``s
    ctrl_edges: list  # per ctrl node, its ``ObjectCtrlEdge``s
    initial: int = 0
    accepting: frozenset = frozenset()
    unsafe: frozenset = frozenset()

    @property
    def n_env(self) -> int:
        return len(self.env_edges)

    @property
    def n_ctrl(self) -> int:
        return len(self.ctrl_edges)

    @property
    def n_positions(self) -> int:
        """One ctrl node per (env node, input letter) position."""
        return len(self.ctrl_edges)

    @property
    def n_expanded(self) -> int:
        """The env nodes with edges, and the unsafe ones."""
        return sum(1 for i, row in enumerate(self.env_edges) if row or i in self.unsafe)

    @property
    def ctrl_origin(self) -> tuple:
        """The env node and input valuation of each ctrl node, whose number
        is its env edge's number counted over the rows."""
        return tuple((i, e.valuation) for i, row in enumerate(self.env_edges) for e in row)

    def nodes(self) -> list:
        return [("env", i) for i in range(self.n_env)] + [
            ("ctrl", i) for i in range(self.n_ctrl)
        ]

    def present_env_edges(self, i: int) -> list:
        return [e for e in self.env_edges[i] if e.present]


def expanded_positions(arena) -> list:
    """Per env node of a library arena, its ``(input letter, env edge)``
    pairs in letter order: the positions of the arena with one ctrl node
    per input letter, whose ctrl nodes are these pairs counted over the
    rows."""
    n_in = len(arena.letters.inputs)
    return [
        sorted(
            (j, k)
            for k in range(arena.env_start[i], arena.env_start[i + 1])
            for j in range(n_in)
            if arena.env_letters[k] >> j & 1
        )
        for i in range(arena.n_env)
    ]


def arena_nodes(arena) -> list:
    """The library arena's node number of each node of ``object_arena``'s
    ``nodes()``: env node ``i`` is ``i``, and every expanded ctrl node is
    the ctrl node of its letter's class."""
    n_env = arena.n_env
    return list(range(n_env)) + [
        n_env + k for row in expanded_positions(arena) for _, k in row
    ]


def object_arena(arena) -> ObjectArena:
    """A library arena as edge objects, read off its arrays and expanded to
    one ctrl node per input letter: the ctrl node of a letter class is
    copied for each of its letters, in letter order."""
    letters = arena.letters
    env_edges, ctrl_edges = [], []
    for row in expanded_positions(arena):
        objects = []
        for j, k in row:
            objects.append(
                ObjectEnvEdge(
                    letters.inputs[j],
                    len(ctrl_edges),
                    bool(arena.present[k] >> j & 1),
                    letters.input_bits[j],
                )
            )
            ctrl_edges.append(
                [
                    ObjectCtrlEdge(letters.outputs[arena.ctrl_letter[e]], arena.ctrl_target[e])
                    for e in range(arena.ctrl_start[k], arena.ctrl_start[k + 1])
                ]
            )
        env_edges.append(objects)
    return ObjectArena(
        objective=arena.objective,
        inputs=arena.inputs,
        outputs=arena.outputs,
        env_labels=arena.env_labels,
        env_edges=env_edges,
        ctrl_edges=ctrl_edges,
        initial=arena.initial,
        accepting=arena.accepting,
        unsafe=arena.unsafe,
    )


def arena_from_edges(
    objective,
    inputs,
    outputs,
    env_edges,
    ctrl_edges,
    initial=0,
    accepting=frozenset(),
    unsafe=frozenset(),
    merge=False,
):
    """A library arena from rows of ``ObjectEnvEdge`` / ``ObjectCtrlEdge``,
    env node ``i`` labelled ``i``.  Counted over the rows in order, env edge
    ``k`` must lead to ctrl node ``k``, and there must be one ctrl row per env
    edge; an edge's ``bits`` are not read.  Each env edge carries its own
    letter, unless ``merge``: then the edges of one env node whose ctrl rows
    are equal share one ctrl node, numbered by their first edge."""
    from array import array

    from numltl.games import GameArena, GameError, letters_of

    letters = letters_of(inputs, outputs)
    input_letter = {v: j for j, v in enumerate(letters.inputs)}
    output_letter = {v: j for j, v in enumerate(letters.outputs)}
    n_edges = sum(len(row) for row in env_edges)
    if len(ctrl_edges) != n_edges:
        raise GameError("an arena needs one ctrl row per env edge")
    env_start, env_letters, present = array("i", [0]), [], []
    ctrl_start, ctrl_letter, ctrl_target = array("i", [0]), array("i"), array("i")
    k = 0
    for row in env_edges:
        classes = {}  # ctrl row -> its env edge in the arena
        for edge in row:
            if edge.target != k:
                msg = f"env edge {k} must lead to ctrl node {k}"
                raise GameError(msg)
            answers = tuple((a.valuation, a.target) for a in ctrl_edges[k])
            bit = 1 << input_letter[edge.valuation]
            shared = classes.get(answers) if merge else None
            if shared is None:
                classes[answers] = shared = len(env_letters)
                env_letters.append(0)
                present.append(0)
                for vout, target in answers:
                    ctrl_letter.append(output_letter[vout])
                    ctrl_target.append(target)
                ctrl_start.append(len(ctrl_target))
            env_letters[shared] |= bit
            if edge.present:
                present[shared] |= bit
            k += 1
        env_start.append(len(env_letters))
    return GameArena(
        objective=objective,
        inputs=inputs,
        outputs=outputs,
        env_labels=tuple(range(len(env_edges))),
        env_start=env_start,
        env_letters=env_letters,
        present=present,
        ctrl_start=ctrl_start,
        ctrl_letter=ctrl_letter,
        ctrl_target=ctrl_target,
        initial=initial,
        accepting=accepting,
        unsafe=unsafe,
    )


def _edge_key(edge) -> tuple:
    return (edge.valuation.sort_key(), edge.target)


def reference_linear_attractor(arena, owner, base, alive):
    """Linear attractor over edge objects: predecessor lists and pending
    counts rebuilt on every call; returns the attracted set and each
    member's layer."""
    from array import array

    n_env = arena.n_env
    n = n_env + arena.n_ctrl  # env node i is i, ctrl node i is n_env + i
    live = bytearray(n)
    named: list = [None] * n
    for node in alive:
        kind, i = node
        k = i if kind == "env" else n_env + i
        live[k] = 1
        named[k] = node

    preds: list[list[int]] = [[] for _ in range(n)]
    pending = [0] * n
    for i, row in enumerate(arena.env_edges):
        if live[i]:
            count = 0
            for e in row:
                t = n_env + e.target
                if e.present and live[t]:
                    preds[t].append(i)
                    count += 1
            pending[i] = count
    for i, row in enumerate(arena.ctrl_edges):
        k = n_env + i
        if live[k]:
            count = 0
            for e in row:
                t = e.target
                if live[t]:
                    preds[t].append(k)
                    count += 1
            pending[k] = count
    owner_is_env = owner == "env"

    rank = array("i", [-1]) * n
    layer = []
    for kind, i in base & alive:
        node = i if kind == "env" else n_env + i
        rank[node] = 0
        layer.append(node)
    stuck = [
        node
        for node in range(n)
        if live[node] and not pending[node] and rank[node] < 0
        and (node < n_env) != owner_is_env
    ]
    current = 0
    while layer or stuck:
        current += 1
        fresh, stuck = stuck, []
        for node in fresh:
            rank[node] = current
        for node in layer:
            for p in preds[node]:
                if rank[p] >= 0:
                    continue
                if (p < n_env) != owner_is_env:
                    pending[p] -= 1
                    if pending[p]:
                        continue
                rank[p] = current
                fresh.append(p)
        layer = fresh

    ranked = {named[node]: r for node, r in enumerate(rank) if r >= 0}
    return set(ranked), ranked


@dataclass
class ObjectSolution:
    arena: ObjectArena
    ctrl_region: frozenset
    env_region: frozenset
    ctrl_strategy: dict
    env_strategy: dict
    env_candidates: dict

    @property
    def ctrl_wins(self) -> bool:
        return ("env", self.arena.initial) in self.ctrl_region


def object_solution(solution) -> ObjectSolution:
    """A library solution read off its rank arrays, over the
    ``object_arena`` copy of its arena: node ``n`` of ``nodes()`` has the
    rank of arena node ``arena_nodes(...)[n]``, and ``answer_edge`` /
    ``candidate_edges`` pick the strategies' edges by their numbers, a
    letter class's answer standing for each of its letters."""
    library = solution.arena
    arena = object_arena(library)
    nodes = arena.nodes()
    number = arena_nodes(library)
    env_region = frozenset(n for n, at in zip(nodes, number) if solution.env_rank[at] >= 0)
    n_env = library.n_env
    ctrl_strategy = {}
    for c, at in enumerate(number[n_env:]):
        k = at - n_env
        e = solution.answer_edge(k)
        if e is not None:
            ctrl_strategy[c] = arena.ctrl_edges[c][e - library.ctrl_start[k]]
    # the expanded env edge of each (env node, input letter)
    position = {
        (i, edge.valuation): edge for i, row in enumerate(arena.env_edges) for edge in row
    }
    inputs = library.letters.inputs
    env_candidates = {
        i: tuple(position[(i, inputs[j])] for j, _ in solution.candidate_edges(i))
        for i in range(n_env)
        if solution.env_rank[i] >= 0
    }
    return ObjectSolution(
        arena,
        ctrl_region=frozenset(nodes) - env_region,
        env_region=env_region,
        ctrl_strategy=ctrl_strategy,
        env_strategy={i: edges[0] for i, edges in env_candidates.items() if edges},
        env_candidates=env_candidates,
    )


def _object_env_candidates(arena, env_node, rank) -> tuple:
    own_rank = rank[("env", env_node)]
    out = []
    for edge in arena.present_env_edges(env_node):
        target = ("ctrl", edge.target)
        if target not in rank:
            continue
        if own_rank == 0:
            if rank[target] == 0:
                out.append(edge)
        elif rank[target] < own_rank:
            out.append(edge)
    return tuple(sorted(out, key=_edge_key))


def reference_solve_safety(arena) -> ObjectSolution:
    nodes = set(arena.nodes())
    base = {("env", u) for u in arena.unsafe}
    attr, rank = reference_linear_attractor(arena, "env", base, nodes)
    ctrl_region = frozenset(nodes - attr)
    ctrl_strategy = {}
    for i in range(arena.n_ctrl):
        if ("ctrl", i) in ctrl_region:
            safe = [e for e in arena.ctrl_edges[i] if ("env", e.target) in ctrl_region]
            if safe:
                ctrl_strategy[i] = min(safe, key=_edge_key)
    env_strategy, env_candidates = {}, {}
    for i in range(arena.n_env):
        if ("env", i) not in attr:
            continue
        candidates = _object_env_candidates(arena, i, rank)
        env_candidates[i] = candidates
        if candidates:
            env_strategy[i] = candidates[0]
    return ObjectSolution(
        arena, ctrl_region, frozenset(attr), ctrl_strategy, env_strategy, env_candidates
    )


def reference_solve_buchi(arena) -> ObjectSolution:
    alive = set(arena.nodes())
    env_strategy, env_candidates = {}, {}
    reach_rank = {}
    while True:
        goal = {("env", q) for q in arena.accepting} & alive
        reach, reach_rank = reference_linear_attractor(arena, "ctrl", goal, alive)
        trapped = alive - reach
        if not trapped:
            break
        removed, removed_rank = reference_linear_attractor(arena, "env", trapped, alive)
        for kind, i in removed:
            if kind != "env":
                continue
            candidates = _object_env_candidates(arena, i, removed_rank)
            env_candidates[i] = candidates
            if candidates:
                env_strategy[i] = candidates[0]
        alive -= removed
    ctrl_region = frozenset(alive)
    env_region = frozenset(set(arena.nodes()) - alive)
    ctrl_strategy = {}
    for i in range(arena.n_ctrl):
        node = ("ctrl", i)
        if node not in ctrl_region:
            continue
        own = reach_rank[node]
        good = [
            e
            for e in arena.ctrl_edges[i]
            if ("env", e.target) in reach_rank and reach_rank[("env", e.target)] < own
        ]
        if good:
            ctrl_strategy[i] = min(good, key=_edge_key)
    return ObjectSolution(
        arena, ctrl_region, env_region, ctrl_strategy, env_strategy, env_candidates
    )


def reference_solve(arena) -> ObjectSolution:
    if arena.objective == "buchi":
        return reference_solve_buchi(arena)
    return reference_solve_safety(arena)


def reference_extract_controller(solution):
    from numltl.games import GameError, MealyController

    arena = solution.arena
    if not solution.ctrl_wins:
        raise GameError("initial node is not controller-winning")
    numbering = {arena.initial: 0}
    order = [arena.initial]
    step = {}
    queue = deque([arena.initial])
    while queue:
        env_node = queue.popleft()
        for edge in sorted(arena.present_env_edges(env_node), key=_edge_key):
            answer = solution.ctrl_strategy.get(edge.target)
            if answer is None:
                raise GameError("controller strategy has no answer at a reachable node")
            if answer.target not in numbering:
                numbering[answer.target] = len(order)
                order.append(answer.target)
                queue.append(answer.target)
            step[(numbering[env_node], edge.valuation)] = (
                answer.valuation,
                numbering[answer.target],
            )
    return MealyController(arena.inputs, arena.outputs, len(order), 0, step)


def reference_extract_counter_strategy(solution):
    from numltl.games import CounterStrategy, GameError

    arena = solution.arena
    if solution.ctrl_wins:
        raise GameError("initial node is controller-winning; no counter-strategy exists")
    candidates, transitions, spoiled = {}, {}, set()
    seen = {arena.initial}
    order = [arena.initial]
    queue = deque([arena.initial])
    while queue:
        s = queue.popleft()
        edges = solution.env_candidates.get(s, ())
        if not edges:
            spoiled.add(s)
            candidates[s] = ()
            continue
        candidates[s] = tuple(e.valuation for e in edges)
        for edge in edges:
            answers = {}
            for ctrl_edge in arena.ctrl_edges[edge.target]:
                best = answers.get(ctrl_edge.valuation)
                if best is None or ctrl_edge.target < best:
                    answers[ctrl_edge.valuation] = ctrl_edge.target
            for vout, nxt in answers.items():
                transitions[(s, edge.valuation, vout)] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    queue.append(nxt)
    return CounterStrategy(
        inputs=arena.inputs,
        outputs=arena.outputs,
        states=tuple(order),
        initial=arena.initial,
        candidates=candidates,
        transitions=transitions,
        spoiled=frozenset(spoiled),
    )


def reference_restrict_counter_strategy(cs, keep):
    from numltl.games import CounterStrategy

    moves = {}
    for (state, vin, vout), nxt in cs.transitions.items():
        moves.setdefault(state, []).append((vin, vout, nxt))
    seen = {cs.initial}
    order = [cs.initial]
    queue = deque([cs.initial])
    candidates, transitions = {}, {}
    while queue:
        s = queue.popleft()
        chosen = keep.get(s, cs.candidates.get(s, ()))
        candidates[s] = chosen
        for vin, vout, nxt in moves.get(s, ()):
            if vin not in chosen:
                continue
            transitions[(s, vin, vout)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return CounterStrategy(
        inputs=cs.inputs,
        outputs=cs.outputs,
        states=tuple(order),
        initial=cs.initial,
        candidates=candidates,
        transitions=transitions,
        spoiled=frozenset(s for s in cs.spoiled if s in seen),
    )


def reference_select_counter_inputs(cs, checked, predicate_atoms):
    """Greedy cover over projections made by ``Valuation.restrict`` on every
    candidate."""
    proven = checked.proven(INPUT_SIDE)

    def settled(projection) -> bool:
        return not projection.atoms or projection in proven

    keep, uncovered = {}, []
    for s in cs.states:
        cands = cs.candidates.get(s, ())
        if not cands:
            keep[s] = ()
            continue
        good = tuple(c for c in cands if settled(c.restrict(predicate_atoms)))
        if good:
            keep[s] = good
        else:
            uncovered.append(s)
    selected = []
    if uncovered:
        covers = {}
        for s in uncovered:
            for c in cs.candidates[s]:
                covers.setdefault(c.restrict(predicate_atoms), set()).add(s)
        remaining = set(uncovered)
        while remaining:
            best = min(
                covers, key=lambda p: (-len(covers[p] & remaining), p.sort_key())
            )
            selected.append(best)
            remaining -= covers[best]
        chosen = set(selected)
        for s in uncovered:
            keep[s] = tuple(
                c for c in cs.candidates[s] if c.restrict(predicate_atoms) in chosen
            )
    return reference_restrict_counter_strategy(cs, keep), set(selected)


def reference_masked_mark_edges_absent(arena, valuation, predicate_atoms) -> int:
    """Edge marking on an ``ObjectArena`` by comparing each edge's input bits
    with the valuation's masks, when it fixes exactly the predicate atoms
    among the arena's inputs."""
    fixed = set(predicate_atoms) & set(arena.inputs)
    if set(valuation.atoms) != fixed:
        return 0
    position = {name: k for k, name in enumerate(arena.inputs)}
    care, value = valuation.masks(position)
    count = 0
    for row in arena.env_edges:
        for edge in row:
            if edge.present and edge.bits & care == value:
                edge.present = False
                count += 1
    return count


def reference_mark_edges_absent(arena, valuation, predicate_atoms) -> int:
    """Edge marking on an ``ObjectArena`` by projecting each edge's input
    valuation."""
    count = 0
    for row in arena.env_edges:
        for edge in row:
            if edge.present and edge.valuation.restrict(predicate_atoms) == valuation:
                edge.present = False
                count += 1
    return count


def reference_matching(letters, guard) -> int:
    """``Letters.matching`` by testing every letter's bits against the
    guard's ``(care, value)`` masks."""
    care, value = guard.masks(letters.position)
    return sum(1 << l for l, bits in enumerate(letters.order) if bits & care == value)


def reference_class_index(letter_sets: list[int], n_letters: int) -> list[int]:
    """The class of each letter, found by testing every class's set."""
    return [
        next(c for c, letters in enumerate(letter_sets) if letters >> letter & 1)
        for letter in range(n_letters)
    ]


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


def reference_degeneralize(
    n_states: int,
    initial: int,
    edges: list,
    acceptance_sets: list[frozenset[int]],
) -> tuple:
    m = len(acceptance_sets)
    if m == 0:
        return n_states, initial, edges, frozenset(range(n_states))
    if m == 1:
        return n_states, initial, edges, acceptance_sets[0]

    index: dict[tuple[int, int], int] = {}
    out: list = []
    accepting: set[int] = set()

    def state_of(q: int, level: int) -> int:
        key = (q, level)
        if key not in index:
            index[key] = len(out)
            out.append([])
            if level == m:
                accepting.add(index[key])
        return index[key]

    start = state_of(initial, 0)
    work = [(initial, 0)]
    seen = {(initial, 0)}
    while work:
        q, level = work.pop()
        src = state_of(q, level)
        base = 0 if level == m else level
        for guard, target in edges[q]:
            bumped = base
            while bumped < m and target in acceptance_sets[bumped]:
                bumped += 1
            key = (target, bumped)
            dst = state_of(*key)
            out[index[(q, level)]].append((guard, dst))
            if key not in seen:
                seen.add(key)
                work.append(key)
    return len(out), start, out, frozenset(accepting)


def reference_simplify(
    n_states: int,
    initial: int,
    edges: list,
    accepting: frozenset[int],
) -> "BuchiAutomaton":
    """Drop unreachable states, merge states with identical rows, renumber;
    guards are ``Valuation``s, ordered by their ``pairs``."""
    from numltl.automata import BuchiAutomaton, Transition

    acc = set(accepting)
    rows = [sorted(set(row), key=lambda e: (e[0].pairs, e[1])) for row in edges]

    alive = list(range(n_states))
    while True:
        signature: dict[tuple, int] = {}
        rename: dict[int, int] = {}
        for q in alive:
            sig = (q in acc, tuple(rows[q]))
            if sig in signature:
                rename[q] = signature[sig]
            else:
                signature[sig] = q
        if not rename:
            break
        initial = rename.get(initial, initial)
        alive = [q for q in alive if q not in rename]
        for q in alive:
            rows[q] = sorted(
                {(g, rename.get(t, t)) for g, t in rows[q]},
                key=lambda e: (e[0].pairs, e[1]),
            )

    order: list[int] = []
    seen = {initial}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        order.append(q)
        for _, target in rows[q]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    new_id = {q: i for i, q in enumerate(order)}
    table = tuple(
        tuple(Transition(g, new_id[t]) for g, t in rows[q] if t in new_id)
        for q in order
    )
    return BuchiAutomaton(
        atoms=(),
        n_states=len(order),
        initial=0,
        transitions=table,
        accepting=frozenset(new_id[q] for q in acc if q in new_id),
    )


def reference_translate(formula, atoms):
    """``translate`` with the tableau run by ``reference_expand`` and the
    ``Valuation``-guarded degeneralization and simplification stages above."""
    from numltl import speclang as sl
    from numltl.automata import BuchiAutomaton
    from numltl.valuation import Valuation

    normal = reference_negation_normal_form(formula)
    nodes = reference_expand(normal)
    untils = sorted((f for f in reference_closure(normal) if isinstance(f, sl.Until)), key=repr)
    ids = {node.node_id: i + 1 for i, node in enumerate(nodes)}
    edges = [[] for _ in range(len(nodes) + 1)]
    for node in nodes:
        pairs = []
        for f in node.old:
            if isinstance(f, sl.Atom):
                pairs.append((f.name, True))
            elif isinstance(f, sl.Not) and isinstance(f.operand, sl.Atom):
                pairs.append((f.operand.name, False))
        guard = Valuation(tuple(pairs))
        for src in node.incoming:
            edges[0 if src == -1 else ids[src]].append((guard, ids[node.node_id]))
    acceptance_sets = [
        frozenset(
            ids[node.node_id] for node in nodes if u not in node.old or u.right in node.old
        )
        | {0}
        for u in untils
    ]
    n, initial, rows, accepting = reference_degeneralize(
        len(nodes) + 1, 0, edges, acceptance_sets
    )
    automaton = reference_simplify(n, initial, rows, accepting)
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
# coefficient formula, and exact evaluation of every sample point.  The
# search's integer de Casteljau pass is checked against the ``Fraction`` one
# it replaced, ``reference_subdivide``.

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


def reference_subdivide(tensor: list[Fraction], degree, dim: int):
    """Bernstein tensors in ``Fraction``s on the lower and upper halves of
    the box split at the midpoint of dimension ``dim``: de Casteljau at
    t = 1/2 along every fiber of ``dim`` of the flat row-major ``tensor``."""
    n = degree[dim]
    if not n:
        return tensor, tensor
    stride = prod(m + 1 for m in degree[dim + 1 :])
    block = stride * (n + 1)
    lower, upper = list(tensor), list(tensor)
    for start in range(0, len(tensor), block):
        for base in range(start, start + stride):
            row = tensor[base : base + block : stride]
            for k in range(n + 1):
                lower[base + k * stride] = row[0]
                upper[base + (n - k) * stride] = row[-1]
                row = [(a + b) / 2 for a, b in zip(row, row[1:])]
    return lower, upper


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


# -- reference formula layer ------------------------------------------------------
#
# The formula walks as they were before ``speclang`` read each node's operands
# from its fields and the operator syntax from one table: one ``isinstance``
# branch per operator, each walk recursing once per level, the printer with
# its own precedence table and spellings, and the negation normal form
# spelled out case by case.


def reference_atoms_of(formula) -> set[str]:
    if isinstance(formula, Atom):
        return {formula.name}
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return set()
    if isinstance(formula, (Not, Next, Always, Eventually)):
        return reference_atoms_of(formula.operand)
    return reference_atoms_of(formula.left) | reference_atoms_of(formula.right)


def reference_is_propositional(formula) -> bool:
    if isinstance(formula, (Atom, TrueFormula, FalseFormula)):
        return True
    if isinstance(formula, Not):
        return reference_is_propositional(formula.operand)
    if isinstance(formula, (And, Or, Implies)):
        return reference_is_propositional(formula.left) and reference_is_propositional(
            formula.right
        )
    return False


def reference_next_depth(f) -> int | None:
    """Max NEXT nesting when the formula is otherwise propositional."""
    if isinstance(f, (Atom, TrueFormula, FalseFormula)):
        return 0
    if isinstance(f, Not):
        return reference_next_depth(f.operand)
    if isinstance(f, (And, Or, Implies)):
        left = reference_next_depth(f.left)
        right = reference_next_depth(f.right)
        if left is None or right is None:
            return None
        return max(left, right)
    if isinstance(f, Next):
        inner = reference_next_depth(f.operand)
        return None if inner is None else inner + 1
    return None


def reference_evaluate(f, trace, t: int) -> bool:
    """A formula of atoms and NEXT at step ``t`` of a list of assignments."""
    if isinstance(f, Atom):
        return trace[t][f.name]
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Not):
        return not reference_evaluate(f.operand, trace, t)
    if isinstance(f, And):
        return reference_evaluate(f.left, trace, t) and reference_evaluate(f.right, trace, t)
    if isinstance(f, Or):
        return reference_evaluate(f.left, trace, t) or reference_evaluate(f.right, trace, t)
    if isinstance(f, Implies):
        return not reference_evaluate(f.left, trace, t) or reference_evaluate(f.right, trace, t)
    if isinstance(f, Next):
        return reference_evaluate(f.operand, trace, t + 1)
    raise ValueError(f"formula is not windowed-propositional: {f}")


def reference_lasso_truth(formula, prefix, loop) -> list[bool]:
    """Truth of ``formula`` at every position of prefix · loop (the word
    prefix · loop^ω), by a fixpoint per temporal operator, recursing once
    per level and memoised by formula: ``evaluate_ltl_on_lasso`` before
    ``speclang.truth`` replaced it, which read the first position."""
    if not loop:
        raise ValueError("lasso loop must be nonempty")
    word = [dict(letter.pairs) for letter in list(prefix) + list(loop)]
    loop_start, total = len(prefix), len(word)

    def succ(i: int) -> int:
        return i + 1 if i + 1 < total else loop_start

    memo: dict = {}

    def values(f) -> list[bool]:
        if f in memo:
            return memo[f]
        if isinstance(f, Atom):
            out = [word[i][f.name] for i in range(total)]
        elif isinstance(f, TrueFormula):
            out = [True] * total
        elif isinstance(f, FalseFormula):
            out = [False] * total
        elif isinstance(f, Not):
            out = [not v for v in values(f.operand)]
        elif isinstance(f, And):
            out = [a and b for a, b in zip(values(f.left), values(f.right))]
        elif isinstance(f, Or):
            out = [a or b for a, b in zip(values(f.left), values(f.right))]
        elif isinstance(f, Implies):
            out = [(not a) or b for a, b in zip(values(f.left), values(f.right))]
        elif isinstance(f, Next):
            sub = values(f.operand)
            out = [sub[succ(i)] for i in range(total)]
        elif isinstance(f, (Until, Eventually)):
            # least fixpoint: start everywhere false and grow
            if isinstance(f, Until):
                hold, goal = values(f.left), values(f.right)
            else:
                hold, goal = [True] * total, values(f.operand)
            out = [False] * total
            changed = True
            while changed:
                changed = False
                for i in range(total - 1, -1, -1):
                    new = goal[i] or (hold[i] and out[succ(i)])
                    if new != out[i]:
                        out[i] = new
                        changed = True
        elif isinstance(f, (Release, Always)):
            # greatest fixpoint: start everywhere true and shrink
            if isinstance(f, Release):
                hold, goal = values(f.left), values(f.right)
            else:
                hold, goal = [False] * total, values(f.operand)
            out = [True] * total
            changed = True
            while changed:
                changed = False
                for i in range(total - 1, -1, -1):
                    new = goal[i] and (hold[i] or out[succ(i)])
                    if new != out[i]:
                        out[i] = new
                        changed = True
        else:
            raise TypeError(f"unknown formula node {f!r}")
        memo[f] = out
        return out

    return values(formula)


def reference_substitute_atoms(formula, mapping):
    if isinstance(formula, Atom):
        return mapping.get(formula.name, formula)
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Not):
        return Not(reference_substitute_atoms(formula.operand, mapping))
    if isinstance(formula, Next):
        return Next(reference_substitute_atoms(formula.operand, mapping))
    if isinstance(formula, Always):
        return Always(reference_substitute_atoms(formula.operand, mapping))
    if isinstance(formula, Eventually):
        return Eventually(reference_substitute_atoms(formula.operand, mapping))
    ctor = type(formula)
    return ctor(
        reference_substitute_atoms(formula.left, mapping),
        reference_substitute_atoms(formula.right, mapping),
    )


def reference_closure(formula) -> set:
    """Every subformula of a formula in negation normal form."""
    from numltl.automata import Release

    def closure(f) -> set:
        out = {f}
        if isinstance(f, (Not, Next)):
            out |= closure(f.operand)
        elif isinstance(f, (And, Or, Until, Release)):
            out |= closure(f.left) | closure(f.right)
        return out

    return closure(formula)


def reference_negation_normal_form(formula):
    """Implies/Always/Eventually eliminated and negation pushed onto atoms,
    one case per operator and per operator under a negation."""
    from numltl.automata import Release

    def nnf(f):
        if isinstance(f, (Atom, TrueFormula, FalseFormula)):
            return f
        if isinstance(f, And):
            return And(nnf(f.left), nnf(f.right))
        if isinstance(f, Or):
            return Or(nnf(f.left), nnf(f.right))
        if isinstance(f, Implies):
            return Or(nnf(Not(f.left)), nnf(f.right))
        if isinstance(f, Next):
            return Next(nnf(f.operand))
        if isinstance(f, Always):
            return Release(FalseFormula(), nnf(f.operand))
        if isinstance(f, Eventually):
            return Until(TrueFormula(), nnf(f.operand))
        if isinstance(f, Until):
            return Until(nnf(f.left), nnf(f.right))
        if isinstance(f, Release):
            return Release(nnf(f.left), nnf(f.right))
        if isinstance(f, Not):
            inner = f.operand
            if isinstance(inner, Atom):
                return f
            if isinstance(inner, TrueFormula):
                return FalseFormula()
            if isinstance(inner, FalseFormula):
                return TrueFormula()
            if isinstance(inner, Not):
                return nnf(inner.operand)
            if isinstance(inner, And):
                return Or(nnf(Not(inner.left)), nnf(Not(inner.right)))
            if isinstance(inner, Or):
                return And(nnf(Not(inner.left)), nnf(Not(inner.right)))
            if isinstance(inner, Implies):
                return And(nnf(inner.left), nnf(Not(inner.right)))
            if isinstance(inner, Next):
                return Next(nnf(Not(inner.operand)))
            if isinstance(inner, Always):
                return Until(TrueFormula(), nnf(Not(inner.operand)))
            if isinstance(inner, Eventually):
                return Release(FalseFormula(), nnf(Not(inner.operand)))
            if isinstance(inner, Until):
                return Release(nnf(Not(inner.left)), nnf(Not(inner.right)))
            if isinstance(inner, Release):
                return Until(nnf(Not(inner.left)), nnf(Not(inner.right)))
        raise TypeError(f"unknown formula node {f!r}")

    return nnf(formula)


_REFERENCE_PREC = {Implies: 1, Until: 2, Or: 3, And: 4}


def reference_format_formula(formula) -> str:
    def prec(f) -> int:
        return _REFERENCE_PREC.get(type(f), 5)

    def emit(f, min_level: int) -> str:
        if isinstance(f, Atom):
            text = f.name
        elif isinstance(f, TrueFormula):
            text = "TRUE"
        elif isinstance(f, FalseFormula):
            text = "FALSE"
        elif isinstance(f, Not):
            text = f"!{emit(f.operand, 5)}"
        elif isinstance(f, (Always, Eventually, Next)):
            word = {Always: "ALWAYS", Eventually: "EVENTUALLY", Next: "NEXT"}[type(f)]
            text = f"{word} ({emit(f.operand, 0)})"
        elif isinstance(f, Implies):
            text = f"{emit(f.left, 2)} -> {emit(f.right, 1)}"
        elif isinstance(f, Until):
            text = f"{emit(f.left, 3)} UNTIL {emit(f.right, 2)}"
        elif isinstance(f, Or):
            text = f"{emit(f.left, 3)} || {emit(f.right, 4)}"
        elif isinstance(f, And):
            text = f"{emit(f.left, 4)} && {emit(f.right, 5)}"
        else:
            raise TypeError(f"unknown formula node {f!r}")
        if prec(f) < min_level:
            return f"({text})"
        return text

    return emit(formula, 0)


# -- reference specification parser ---------------------------------------------
#
# The lexer scans one character at a time; polynomials are dicts keyed by
# sorted (name, exponent) tuples and are lowered onto the declared variable
# order after the whole document is read.


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:/\d+)?")


def _lex_line(text: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch in " \t":
            i += 1
            continue
        if ch == "<" and text.startswith("<->", i):
            raise SpecError(
                "'<->' is not an operator; rewrite as two implications "
                "(a -> b) && (b -> a)",
                line_no,
                col,
            )
        two = text[i : i + 2]
        if two == "&&":
            tokens.append(Token(TokenKind.AND, two, line_no, col))
            i += 2
            continue
        if two == "||":
            tokens.append(Token(TokenKind.OR, two, line_no, col))
            i += 2
            continue
        if two == "->":
            tokens.append(Token(TokenKind.IMPLIES, two, line_no, col))
            i += 2
            continue
        if two == ":=":
            tokens.append(Token(TokenKind.ASSIGN, two, line_no, col))
            i += 2
            continue
        if two == "<=":
            tokens.append(Token(TokenKind.LE, two, line_no, col))
            i += 2
            continue
        if two == ">=":
            tokens.append(Token(TokenKind.GE, two, line_no, col))
            i += 2
            continue
        single = {
            "!": TokenKind.NOT,
            "(": TokenKind.LPAREN,
            ")": TokenKind.RPAREN,
            "[": TokenKind.LBRACKET,
            "]": TokenKind.RBRACKET,
            ",": TokenKind.COMMA,
            "+": TokenKind.PLUS,
            "-": TokenKind.MINUS,
            "*": TokenKind.STAR,
            "^": TokenKind.CARET,
            "<": TokenKind.LT,
            ">": TokenKind.GT,
        }
        if ch in single:
            tokens.append(Token(single[ch], ch, line_no, col))
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            assert m is not None
            lit = m.group(0)
            try:
                value = Fraction(lit)
            except (ValueError, ZeroDivisionError):
                raise SpecError(f"invalid rational literal {lit!r}", line_no, col) from None
            tokens.append(Token(TokenKind.NUMBER, lit, line_no, col, value=value))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, line_no, col))
            i = m.end()
            continue
        if ch == "/":
            raise SpecError(
                "'/' is only allowed inside a rational literal such as 7/2",
                line_no,
                col,
            )
        if ch == "=":
            raise SpecError(
                "'=' is not a relation; use one of <, <=, >, >=",
                line_no,
                col,
            )
        raise SpecError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(Token(TokenKind.END, "", line_no, len(text) + 1))
    return tokens


# -- polynomial expressions over named variables --------------------------

_NamedTerms = dict[tuple[tuple[str, int], ...], Fraction]


@dataclass(frozen=True)
class _NamedPoly:
    terms: _NamedTerms

    @staticmethod
    def constant(value: Fraction) -> "_NamedPoly":
        return _NamedPoly({(): value} if value else {})

    @staticmethod
    def variable(name: str) -> "_NamedPoly":
        return _NamedPoly({((name, 1),): Fraction(1)})

    def _combine(self, other: "_NamedPoly", sign: int) -> "_NamedPoly":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = terms.get(key, Fraction(0)) + sign * coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return _NamedPoly(terms)

    def add(self, other: "_NamedPoly") -> "_NamedPoly":
        return self._combine(other, 1)

    def sub(self, other: "_NamedPoly") -> "_NamedPoly":
        return self._combine(other, -1)

    def neg(self) -> "_NamedPoly":
        return _NamedPoly({k: -c for k, c in self.terms.items()})

    def mul(self, other: "_NamedPoly") -> "_NamedPoly":
        terms: _NamedTerms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged: dict[str, int] = {}
                for name, e in k1 + k2:
                    merged[name] = merged.get(name, 0) + e
                key = tuple(sorted(merged.items()))
                new = terms.get(key, Fraction(0)) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return _NamedPoly(terms)

    def power(self, exponent: int) -> "_NamedPoly":
        result = _NamedPoly.constant(Fraction(1))
        for _ in range(exponent):
            result = result.mul(self)
        return result

    def variables(self) -> set[str]:
        return {name for key in self.terms for name, _ in key}

    def lower(self, var_order: tuple[str, ...]) -> Polynomial:
        index = {name: i for i, name in enumerate(var_order)}
        terms = {}
        for key, coeff in self.terms.items():
            expo = [0] * len(var_order)
            for name, e in key:
                expo[index[name]] = e
            terms[tuple(expo)] = coeff
        return Polynomial(len(var_order), terms)


# -- parser ----------------------------------------------------------------


class _LineParser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.END:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            expected = what or kind.value
            raise SpecError(f"expected {expected}, found {tok.text or 'end of line'!r}", tok.line, tok.column)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.KEYWORD or tok.text != word:
            raise SpecError(f"expected {word}, found {tok.text or 'end of line'!r}", tok.line, tok.column)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.text == word

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind is not TokenKind.END:
            raise SpecError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)

    # formulas

    def parse_formula(self, atom_sink: list[Token]) -> Formula:
        return self._implication(atom_sink)

    def _implication(self, sink) -> Formula:
        left = self._until(sink)
        if self.peek().kind is TokenKind.IMPLIES:
            self.advance()
            return Implies(left, self._implication(sink))
        return left

    def _until(self, sink) -> Formula:
        left = self._disjunction(sink)
        if self.at_keyword("UNTIL"):
            self.advance()
            return Until(left, self._until(sink))
        return left

    def _disjunction(self, sink) -> Formula:
        left = self._conjunction(sink)
        while self.peek().kind is TokenKind.OR:
            self.advance()
            left = Or(left, self._conjunction(sink))
        return left

    def _conjunction(self, sink) -> Formula:
        left = self._unary(sink)
        while self.peek().kind is TokenKind.AND:
            self.advance()
            left = And(left, self._unary(sink))
        return left

    def _unary(self, sink) -> Formula:
        tok = self.peek()
        if tok.kind is TokenKind.NOT:
            self.advance()
            return Not(self._unary(sink))
        if tok.kind is TokenKind.KEYWORD and tok.text in ("ALWAYS", "EVENTUALLY", "NEXT"):
            self.advance()
            operand = self._unary(sink)
            ctor = {"ALWAYS": Always, "EVENTUALLY": Eventually, "NEXT": Next}[tok.text]
            return ctor(operand)
        return self._atom(sink)

    def _atom(self, sink) -> Formula:
        tok = self.peek()
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            inner = self._implication(sink)
            self.expect(TokenKind.RPAREN)
            return inner
        if tok.kind is TokenKind.KEYWORD and tok.text == "TRUE":
            self.advance()
            return TrueFormula()
        if tok.kind is TokenKind.KEYWORD and tok.text == "FALSE":
            self.advance()
            return FalseFormula()
        if tok.kind is TokenKind.IDENT:
            self.advance()
            sink.append(tok)
            return Atom(tok.text)
        raise SpecError(
            f"expected a formula, found {tok.text or 'end of line'!r}", tok.line, tok.column
        )

    # polynomials

    def parse_poly(self) -> _NamedPoly:
        tok = self.peek()
        negate = False
        if tok.kind is TokenKind.MINUS:
            self.advance()
            negate = True
        poly = self._poly_term()
        if negate:
            poly = poly.neg()
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance()
            term = self._poly_term()
            poly = poly.add(term) if op.kind is TokenKind.PLUS else poly.sub(term)
        return poly

    def _poly_term(self) -> _NamedPoly:
        poly = self._poly_factor()
        while True:
            tok = self.peek()
            if tok.kind is TokenKind.STAR:
                self.advance()
                poly = poly.mul(self._poly_factor())
            elif tok.kind in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.LPAREN):
                raise SpecError(
                    "implicit multiplication is not allowed; write an explicit '*'",
                    tok.line,
                    tok.column,
                )
            else:
                return poly

    def _poly_factor(self) -> _NamedPoly:
        tok = self.peek()
        if tok.kind is TokenKind.MINUS:
            self.advance()
            return self._poly_factor().neg()
        base = self._poly_base()
        if self.peek().kind is TokenKind.CARET:
            self.advance()
            expo = self.expect(TokenKind.NUMBER, "a nonnegative integer exponent")
            if expo.value.denominator != 1:
                raise SpecError(
                    "exponent must be a nonnegative integer", expo.line, expo.column
                )
            base = base.power(int(expo.value))
        return base

    def _poly_base(self) -> _NamedPoly:
        tok = self.peek()
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            return _NamedPoly.constant(tok.value)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return _NamedPoly.variable(tok.text)
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_poly()
            self.expect(TokenKind.RPAREN)
            return inner
        raise SpecError(
            f"expected a polynomial, found {tok.text or 'end of line'!r}",
            tok.line,
            tok.column,
        )

    def parse_signed_rational(self) -> Fraction:
        sign = 1
        if self.peek().kind is TokenKind.MINUS:
            self.advance()
            sign = -1
        tok = self.expect(TokenKind.NUMBER, "a rational constant")
        return sign * tok.value


@dataclass
class _RawPred:
    token: Token
    atom: str
    poly: _NamedPoly
    relation: str


def reference_parse_spec(text: str) -> SpecDocument:
    """Parse specification text, validating names, sides, and ranges."""
    input_decls: list[Token] = []
    output_decls: list[Token] = []
    real_decls: list[tuple[Token, RealVarDecl]] = []
    pred_decls: list[_RawPred] = []
    assumptions: list[tuple[Formula, list[Token]]] = []
    guarantees: list[tuple[Formula, list[Token]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("##", 1)[0]
        if not content.strip():
            continue
        parser = _LineParser(_lex_line(content, line_no))
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
            name_tok = parser.expect(TokenKind.IDENT, "a variable name")
            parser.expect_keyword("IN")
            parser.expect(TokenKind.LBRACKET)
            lower = parser.parse_signed_rational()
            parser.expect(TokenKind.COMMA)
            upper = parser.parse_signed_rational()
            parser.expect(TokenKind.RBRACKET)
            parser.expect_end()
            if lower > upper:
                raise SpecError(
                    f"empty range [{lower}, {upper}] for real variable '{name_tok.text}'",
                    name_tok.line,
                    name_tok.column,
                )
            real_decls.append(
                (name_tok, RealVarDecl(name_tok.text, lower, upper, side))
            )
        elif head.kind is TokenKind.KEYWORD and head.text == "PRED":
            parser.advance()
            name_tok = parser.expect(TokenKind.IDENT, "a predicate atom name")
            parser.expect(TokenKind.ASSIGN)
            lhs = parser.parse_poly()
            rel_tok = parser.peek()
            if rel_tok.kind not in RELOPS:
                raise SpecError(
                    f"expected a relation (<, <=, >, >=), found {rel_tok.text or 'end of line'!r}",
                    rel_tok.line,
                    rel_tok.column,
                )
            parser.advance()
            rhs = parser.parse_poly()
            parser.expect_end()
            pred_decls.append(
                _RawPred(name_tok, name_tok.text, lhs.sub(rhs), RELOPS[rel_tok.kind])
            )
        else:
            sink: list[Token] = []
            if head.kind is TokenKind.KEYWORD and head.text == "ASSUME":
                parser.advance()
                formula = parser.parse_formula(sink)
                parser.expect_end()
                assumptions.append((formula, sink))
            else:
                formula = parser.parse_formula(sink)
                parser.expect_end()
                guarantees.append((formula, sink))

    # name registry: reals, then predicate atoms, then Boolean atom lists
    kinds: dict[str, str] = {}
    for tok, decl in real_decls:
        if decl.name in kinds:
            raise SpecError(
                f"duplicate declaration of '{decl.name}'", tok.line, tok.column
            )
        kinds[decl.name] = "real variable"
    for pred in pred_decls:
        if pred.atom in kinds:
            raise SpecError(
                f"duplicate declaration of '{pred.atom}' "
                f"(already a {kinds[pred.atom]})",
                pred.token.line,
                pred.token.column,
            )
        kinds[pred.atom] = "predicate atom"
    boolean_inputs: list[str] = []
    boolean_outputs: list[str] = []
    for tok_list, sink, label in (
        (input_decls, boolean_inputs, "INPUT"),
        (output_decls, boolean_outputs, "OUTPUT"),
    ):
        for tok in tok_list:
            existing = kinds.get(tok.text)
            if existing == "predicate atom":
                raise SpecError(
                    f"predicate atom '{tok.text}' must not be re-listed under {label}",
                    tok.line,
                    tok.column,
                )
            if existing is not None:
                raise SpecError(
                    f"duplicate declaration of '{tok.text}' (already a {existing})",
                    tok.line,
                    tok.column,
                )
            kinds[tok.text] = f"Boolean {label.lower()}"
            sink.append(tok.text)

    real_by_name = {decl.name: decl for _, decl in real_decls}
    side_order = {
        INPUT_SIDE: tuple(d.name for _, d in real_decls if d.side == INPUT_SIDE),
        OUTPUT_SIDE: tuple(d.name for _, d in real_decls if d.side == OUTPUT_SIDE),
    }

    predicates: list[PredicateDef] = []
    for pred in pred_decls:
        sides = set()
        for var in sorted(pred.poly.variables()):
            decl = real_by_name.get(var)
            if decl is None:
                raise SpecError(
                    f"predicate '{pred.atom}' uses '{var}', which is not a declared real variable",
                    pred.token.line,
                    pred.token.column,
                )
            sides.add(decl.side)
        if len(sides) > 1:
            raise SpecError(
                f"predicate '{pred.atom}' mixes input-side and output-side real variables",
                pred.token.line,
                pred.token.column,
            )
        side = sides.pop() if sides else INPUT_SIDE
        poly = pred.poly.lower(side_order[side])
        predicates.append(PredicateDef(pred.atom, PolyConstraint(poly, pred.relation), side))

    atom_kinds = {"predicate atom", "Boolean input", "Boolean output"}
    for _, sink in assumptions + guarantees:
        for tok in sink:
            kind = kinds.get(tok.text)
            if kind is None:
                raise SpecError(f"undeclared atom '{tok.text}'", tok.line, tok.column)
            if kind not in atom_kinds:
                raise SpecError(
                    f"'{tok.text}' is a {kind} and cannot be used as a Boolean atom",
                    tok.line,
                    tok.column,
                )

    if not guarantees:
        raise SpecError("specification declares no guarantees", 1, 1)

    return SpecDocument(
        boolean_inputs=tuple(boolean_inputs),
        boolean_outputs=tuple(boolean_outputs),
        real_vars=tuple(decl for _, decl in real_decls),
        predicates=tuple(predicates),
        assumptions=tuple(f for f, _ in assumptions),
        guarantees=tuple(f for f, _ in guarantees),
    )


def _parse_relational(parser: _LineParser) -> tuple[_NamedPoly, str]:
    lhs = parser.parse_poly()
    rel_tok = parser.peek()
    if rel_tok.kind not in RELOPS:
        raise SpecError(
            f"expected a relation (<, <=, >, >=), found {rel_tok.text or 'end of line'!r}",
            rel_tok.line,
            rel_tok.column,
        )
    parser.advance()
    rhs = parser.parse_poly()
    return lhs.sub(rhs), RELOPS[rel_tok.kind]


def reference_parse_constraints(text: str) -> ConstraintDocument:
    """Parse ``REAL name IN [lo, hi]`` ranges followed by check lines.

    A check line is either a constraint ``poly REL poly`` or a pointwise
    implication ``poly REL poly -> poly REL poly``.  All checks share the
    one box spanned by the declared ranges; declarations may appear on any
    line, but every variable used must be declared somewhere."""
    decls: list[RealVarDecl] = []
    seen: set[str] = set()
    pending: list[tuple[Token, list[tuple[_NamedPoly, str]]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("##", 1)[0]
        if not content.strip():
            continue
        parser = _LineParser(_lex_line(content, line_no))
        head = parser.peek()
        if head.kind is TokenKind.KEYWORD and head.text == "REAL":
            parser.advance()
            name_tok = parser.expect(TokenKind.IDENT, "a variable name")
            parser.expect_keyword("IN")
            parser.expect(TokenKind.LBRACKET)
            lower = parser.parse_signed_rational()
            parser.expect(TokenKind.COMMA)
            upper = parser.parse_signed_rational()
            parser.expect(TokenKind.RBRACKET)
            parser.expect_end()
            if name_tok.text in seen:
                raise SpecError(
                    f"duplicate declaration of '{name_tok.text}'",
                    name_tok.line,
                    name_tok.column,
                )
            if lower > upper:
                raise SpecError(
                    f"empty range [{lower}, {upper}] for real variable '{name_tok.text}'",
                    name_tok.line,
                    name_tok.column,
                )
            seen.add(name_tok.text)
            decls.append(RealVarDecl(name_tok.text, lower, upper, INPUT_SIDE))
        else:
            halves = [_parse_relational(parser)]
            if parser.peek().kind is TokenKind.IMPLIES:
                parser.advance()
                halves.append(_parse_relational(parser))
            parser.expect_end()
            pending.append((head, halves))

    if not pending:
        raise SpecError("no constraints to check", 1, 1)
    order = tuple(d.name for d in decls)
    checks: list[PolyConstraint | ConstraintImplication] = []
    for head, halves in pending:
        lowered = []
        for poly, relation in halves:
            for var in sorted(poly.variables()):
                if var not in seen:
                    raise SpecError(
                        f"'{var}' is not a declared real variable", head.line, head.column
                    )
            lowered.append(PolyConstraint(poly.lower(order), relation))
        if len(lowered) == 1:
            checks.append(lowered[0])
        else:
            checks.append(ConstraintImplication(lowered[0], lowered[1]))
    box = Box(tuple((d.lower, d.upper) for d in decls))
    return ConstraintDocument(variables=order, box=box, checks=tuple(checks))


# -- reference guarantee monitor ---------------------------------------------------
#
# The simulator's monitor judges each guarantee's formulas on the whole trace
# at once, and settles every until trigger in one backward pass.  The version
# below is the one that replaced: it rescans the trace from each trigger and
# evaluates each formula on a fresh dict.  The NEXT-window shapes use the
# reference formula walks above.


def _reference_holds(f, w) -> bool:
    return reference_evaluate(f, [w.as_dict()], 0)


def _reference_monitor_one(g, trace):
    from numltl import speclang as sl

    horizon = len(trace)
    if isinstance(g, sl.Always):
        body = g.operand
        depth = reference_next_depth(body)
        if depth is not None:
            for t in range(horizon - depth):
                if not reference_evaluate(body, trace, t):
                    return t, 0
            return None, 0
        if isinstance(body, sl.Implies) and reference_is_propositional(body.left):
            p, rhs = body.left, body.right
            if isinstance(rhs, sl.Eventually) and reference_is_propositional(rhs.operand):
                pending = 0
                for t in range(horizon):
                    if _reference_holds(p, trace[t]) and not any(
                        _reference_holds(rhs.operand, w) for w in trace[t:]
                    ):
                        pending += 1
                return None, pending
            if (
                isinstance(rhs, sl.Until)
                and reference_is_propositional(rhs.left)
                and reference_is_propositional(rhs.right)
            ):
                pending = 0
                for t in range(horizon):
                    if not _reference_holds(p, trace[t]):
                        continue
                    for u in range(t, horizon):
                        if _reference_holds(rhs.right, trace[u]):
                            break
                        if not _reference_holds(rhs.left, trace[u]):
                            return u, 0
                    else:
                        pending += 1
                return None, pending
        if isinstance(body, sl.Eventually) and reference_is_propositional(body.operand):
            last = max(
                (t for t in range(horizon) if _reference_holds(body.operand, trace[t])),
                default=-1,
            )
            return None, horizon - last - 1
    if isinstance(g, sl.Eventually) and reference_is_propositional(g.operand):
        resolved = any(_reference_holds(g.operand, w) for w in trace)
        return None, 0 if resolved else 1
    return None, None


def reference_monitor_guarantees(doc, trace):
    """``monitor_guarantees`` rescanning the trace from every trigger."""
    from numltl.simulate import MonitorReport

    violations = []
    pending = []
    unmonitored = []
    for i, g in enumerate(doc.guarantees, start=1):
        gid = f"g{i}"
        violated_at, open_count = _reference_monitor_one(g, trace)
        if violated_at is not None:
            violations.append((gid, violated_at))
        elif open_count is None:
            unmonitored.append(gid)
        elif open_count:
            pending.append((gid, open_count))
    return MonitorReport(tuple(violations), tuple(pending), tuple(unmonitored))


# -- reference simulator ----------------------------------------------------------
#
# The simulator once did all of its work per step: it built both valuations,
# decoded and merged them, and its monitor walked each guarantee's formula
# at every step; the rendering formatted every valuation again.  The
# versions below are those.  They share the library's lattice helpers and
# its trace types, and evaluate windows with the reference evaluator above;
# the library now does the work that depends only on a letter once per
# distinct letter, and judges each formula on the whole trace at once.


def _stepwise_monitor_one(g, trace):
    from numltl import speclang as sl

    horizon = len(trace)
    steps = range(horizon)
    if isinstance(g, sl.Always):
        body = g.operand
        depth = reference_next_depth(body)
        if depth is not None:
            for t in range(horizon - depth):
                if not reference_evaluate(body, trace, t):
                    return t, 0
            return None, 0
        if isinstance(body, sl.Implies) and reference_is_propositional(body.left):
            p, rhs = body.left, body.right
            if isinstance(rhs, sl.Eventually) and reference_is_propositional(rhs.operand):
                pending, answered = 0, False
                for t in reversed(steps):
                    answered = answered or reference_evaluate(rhs.operand, trace, t)
                    if not answered and reference_evaluate(p, trace, t):
                        pending += 1
                return None, pending
            if (
                isinstance(rhs, sl.Until)
                and reference_is_propositional(rhs.left)
                and reference_is_propositional(rhs.right)
            ):
                pending, violated_at, stop, broken = 0, None, None, False
                for t in reversed(steps):
                    if reference_evaluate(rhs.right, trace, t):
                        stop, broken = t, False
                    elif not reference_evaluate(rhs.left, trace, t):
                        stop, broken = t, True
                    if not reference_evaluate(p, trace, t):
                        continue
                    if stop is None:
                        pending += 1
                    elif broken:
                        violated_at = stop
                if violated_at is not None:
                    return violated_at, 0
                return None, pending
        if isinstance(body, sl.Eventually) and reference_is_propositional(body.operand):
            last = max(
                (t for t in steps if reference_evaluate(body.operand, trace, t)),
                default=-1,
            )
            return None, horizon - last - 1
    if isinstance(g, sl.Eventually) and reference_is_propositional(g.operand):
        resolved = any(reference_evaluate(g.operand, trace, t) for t in steps)
        return None, 0 if resolved else 1
    return None, None


def reference_stepwise_monitor_guarantees(doc, trace):
    """The one-pass monitor evaluating every formula at every step."""
    from numltl.simulate import MonitorReport

    words = [w.as_dict() for w in trace]
    violations = []
    pending = []
    unmonitored = []
    for i, g in enumerate(doc.guarantees, start=1):
        gid = f"g{i}"
        violated_at, open_count = _stepwise_monitor_one(g, words)
        if violated_at is not None:
            violations.append((gid, violated_at))
        elif open_count is None:
            unmonitored.append(gid)
        elif open_count:
            pending.append((gid, open_count))
    return MonitorReport(tuple(violations), tuple(pending), tuple(unmonitored))


def reference_simulate(package, steps, seed=0, inject=None):
    """``simulate`` building, decoding and merging every step's valuations,
    and checking the injection inside the step loop."""
    import random

    from numltl import speclang as sl
    from numltl.bernstein import satisfies
    from numltl.controller_file import KIND_CONTROLLER
    from numltl.simulate import (
        SAMPLE_BITS,
        SimulationError,
        SimulationTrace,
        TraceStep,
        _lattice_tests,
        _lattice_value,
        _sample_axes,
    )
    from numltl.valuation import Valuation

    if package.kind != KIND_CONTROLLER or package.controller is None:
        raise SimulationError("only controller artifacts can be simulated")
    if steps < 0:
        raise SimulationError("step count must be nonnegative")
    doc = package.document
    m = package.controller
    mux = package.multiplexer
    rng = random.Random(seed)

    real_decls = doc.real_vars_of(sl.INPUT_SIDE)
    tests = _lattice_tests(doc.predicates_of(sl.INPUT_SIDE), real_decls)
    axes = _sample_axes(real_decls)
    decoded_atoms = mux.original_atoms if mux else m.outputs
    idle = Valuation.of({a: False for a in decoded_atoms})

    trace_steps = []
    joined = []
    state = m.initial
    for t in range(steps):
        booleans = {a: bool(rng.getrandbits(1)) for a in doc.boolean_inputs}
        ks = [rng.randrange(2**SAMPLE_BITS + 1) for _ in real_decls]
        samples = tuple(
            (name, Fraction(base + step * k, den))
            for (name, base, step, den), k in zip(axes, ks)
        )
        assignment = dict(booleans)
        for atom, relation, terms in tests:
            assignment[atom] = satisfies(relation, _lattice_value(terms, ks))
        if inject is not None:
            for name, value in inject.pairs:
                if name not in assignment:
                    raise SimulationError(f"injected atom '{name}' is not an input")
                assignment[name] = value
        vin = Valuation.of(assignment)

        move = m.step.get((state, vin))
        if move is None:
            vout, nxt, stuck = idle, state, True
        else:
            raw, nxt = move
            vout = mux.decode(raw) if mux else raw
            stuck = False
        joined.append(vin.merge(vout))
        trace_steps.append((t, samples, vin, vout, state, nxt, stuck))
        state = nxt

    report = reference_stepwise_monitor_guarantees(doc, joined)
    first_violation = {gid: step for gid, step in report.violations}
    final = tuple(
        TraceStep(
            index=t,
            samples=samples,
            inputs=vin,
            outputs=vout,
            state_before=before,
            state_after=after,
            stuck=stuck,
            violations=tuple(
                gid for gid, step in first_violation.items() if step == t
            ),
        )
        for t, samples, vin, vout, before, after, stuck in trace_steps
    )
    return SimulationTrace(
        seed=seed,
        steps=final,
        violations=report.violations,
        pending=report.pending,
        unmonitored=report.unmonitored,
    )


def reference_render(trace) -> str:
    """``SimulationTrace.render`` formatting every step's valuations anew."""
    lines = [f"SIM seed={trace.seed} steps={len(trace.steps)}"]
    for s in trace.steps:
        samples = ",".join(f"{n}={v}" for n, v in s.samples) if s.samples else "-"
        status = f"violation({','.join(s.violations)})" if s.violations else "ok"
        if s.stuck:
            status += " stuck"
        lines.append(
            f"{s.index} {samples} {s.inputs if s.inputs.pairs else '-'}"
            f" {s.outputs if s.outputs.pairs else '-'}"
            f" {s.state_before}->{s.state_after} {status}"
        )
    for gid, step in trace.violations:
        lines.append(f"VIOLATION {gid} step={step}")
    for gid, count in trace.pending:
        lines.append(f"PENDING {gid} count={count}")
    for gid in trace.unmonitored:
        lines.append(f"UNMONITORED {gid}")
    outcome = "ok" if not trace.violations else f"violations={len(trace.violations)}"
    lines.append(f"RESULT {outcome}")
    return "\n".join(lines) + "\n"


# -- reference refinement record ------------------------------------------------
#
# The abstraction once kept each refinement twice: as a valuation, and folded
# into a rebuilt document as ``ALWAYS !(cube)`` (an assumption for an input
# cube, a guarantee for an output cube).  Re-encoding then collected the
# folded output refinements with the user's output-only invariants, and the
# game formula sliced the user's assumptions off the folded ones.  Below is
# that path, on documents only; the library now keeps the valuations alone.


def _reference_cube(v) -> Formula:
    if not v.pairs:
        return TrueFormula()
    return _reference_join(And, tuple(Atom(n) if b else Not(Atom(n)) for n, b in v.pairs))


def reference_folded_document(doc: SpecDocument, refinements) -> SpecDocument:
    """The Boolean abstraction of ``doc`` with ``refinements`` folded in:
    ``(side, valuation)`` pairs, in order, one rebuilt document each."""
    folded = SpecDocument(
        doc.input_atoms(), doc.output_atoms(), (), (), doc.assumptions, doc.guarantees
    )
    for side, v in refinements:
        forbidden = (Always(Not(_reference_cube(v))),)
        assumptions, guarantees = folded.assumptions, folded.guarantees
        if side == INPUT_SIDE:
            assumptions += forbidden
        else:
            guarantees += forbidden
        folded = SpecDocument(
            folded.boolean_inputs, folded.boolean_outputs, (), (), assumptions, guarantees
        )
    return folded


def reference_game_formula(folded: SpecDocument, n_user: int) -> Formula:
    """User assumptions (the first ``n_user``) imply every guarantee."""
    guarantee = _reference_join(And, folded.guarantees)
    user = folded.assumptions[:n_user]
    if not user:
        return guarantee
    return Implies(_reference_join(And, user), guarantee)


def _reference_join(op, formulas) -> Formula:
    """``formulas`` joined from the left by ``op``, And or Or; its unit for none."""
    if not formulas:
        return TrueFormula() if op is And else FalseFormula()
    out = formulas[0]
    for f in formulas[1:]:
        out = op(out, f)
    return out


def reference_reencode(folded: SpecDocument):
    """Re-encoding of a folded document: ``(document, encoded atoms, rows)``,
    the document itself with no atoms and rows when nothing is gained;
    ``ValueError`` when the output constraints exclude every valuation."""
    from math import ceil, log2

    from numltl.valuation import Valuation, all_valuations

    outputs = folded.boolean_outputs
    collected, remaining = [], []
    for g in folded.guarantees:
        if (
            isinstance(g, Always)
            and reference_is_propositional(g.operand)
            and reference_atoms_of(g.operand) <= set(outputs)
        ):
            collected.append(g.operand)
        else:
            remaining.append(g)
    if not collected or not outputs:
        return folded, (), ()
    feasible = [
        w
        for w in all_valuations(outputs)
        if all(reference_evaluate(body, [w.as_dict()], 0) for body in collected)
    ]
    if not feasible:
        raise ValueError("output constraints are unsatisfiable")
    m = 0 if len(feasible) == 1 else ceil(log2(len(feasible)))
    if m >= len(outputs):
        return folded, (), ()
    taken = set(folded.boolean_inputs) | set(outputs)
    for prefix in ("sig", "enc", "code"):
        encoded = tuple(f"{prefix}{i}" for i in range(1, m + 1))
        if not taken & set(encoded):
            break
    else:
        raise ValueError("no fresh names for encoded output atoms")
    words = [
        Valuation.of({encoded[i]: bool(n >> (m - 1 - i) & 1) for i in range(m)})
        for n in range(len(feasible))
    ]
    rows = tuple(zip(words, feasible))
    mapping = {
        atom: _reference_join(
            Or, tuple(_reference_cube(word) for word, original in rows if original[atom])
        )
        for atom in outputs
    }
    guarantees = [reference_substitute_atoms(f, mapping) for f in remaining]
    if len(rows) < 2**m:
        guarantees.append(
            Always(_reference_join(Or, tuple(_reference_cube(word) for word in words)))
        )
    document = SpecDocument(
        folded.boolean_inputs,
        encoded,
        (),
        (),
        tuple(reference_substitute_atoms(f, mapping) for f in folded.assumptions),
        tuple(guarantees),
    )
    return document, encoded, rows


def whole_arena_build(*args):
    """``cegar._build_arena`` with a safety game built whole, as an arena."""
    game = _build_arena(*args)
    return game.arena() if isinstance(game, SafetyGame) else game


# -- reference refinement loop ----------------------------------------------------
#
# ``synthesize`` once ran two refinement paths: a controller win checked every
# output projection it emits and refined the first refuted one, an
# environment win checked the selected counter-inputs up to the first refuted
# one, and each path caught an undecided check itself.  It took an explicit
# bound schedule (the Büchi route ignored it) and re-encoded the game formula
# at every bound.  Below is that loop; it reads the library's steps through
# ``cegar``'s module globals, as the library's loop does.


def _reference_refuted_outputs(m, table, cache, mux, depth, transcript) -> list:
    from numltl import cegar

    atoms = table.atoms_of(OUTPUT_SIDE)
    if not atoms:
        return []
    projections = set()
    for vout in {vout for vout, _ in m.step.values()}:
        decoded = mux.decode(vout) if mux else vout
        projections.add(decoded.restrict(atoms))
    bad = []
    for p in sorted(projections):
        if not p.atoms:
            continue
        verdict = cegar._checked(cache, OUTPUT_SIDE, p, table, depth, transcript)
        if isinstance(verdict, Infeasible):
            bad.append(p)
    return bad


def reference_synthesize(doc: SpecDocument, cfg, transcript, cache=None):
    """The two-path refinement loop on ``cfg`` (a ``CegarConfig``), writing
    ``transcript``: every output projection checked, re-encoding per bound."""
    from numltl import cegar

    cache = cache if cache is not None else cegar.CheckedCache()

    def finish_unknown(reason: str):
        transcript.verdict(f"unknown {reason}")
        return Unknown(reason)

    def capped() -> bool:
        refinements = len(spec.input_refinements) + len(spec.output_refinements)
        return refinements >= cfg.refinement_cap

    schedule = cegar.bound_schedule_up_to(cfg.max_bound)
    spec, table = cegar.abstract_spec(doc)
    cache.bind(table)
    input_atoms = table.atoms_of(INPUT_SIDE)
    bound_index = 0
    arena = successors = bound = None
    while True:
        if arena is None:
            solution = controller = keep = None
            work, mux = cegar._encoded(spec, cfg)
            if cfg.algorithm == cegar.SAFETY:
                bound = schedule[bound_index]
                if successors is None:
                    successors = cegar._successor_table(work)
            arena = cegar._build_arena(work, cfg.algorithm, bound, successors)
        solution = cegar.solve(arena)
        transcript.solve(solution.arena, bound, solution.ctrl_wins)

        if solution.ctrl_wins:
            controller = cegar.extract_controller(solution)
            try:
                bad = _reference_refuted_outputs(
                    controller, table, cache, mux, cfg.depth, transcript
                )
            except cegar.TheoryUnknownError as stuck:
                return finish_unknown(str(stuck))
            if not bad:
                transcript.verdict("realizable")
                return cegar.Realizable(controller, mux, table, spec, bound)
            if capped():
                return finish_unknown(f"refinement cap {cfg.refinement_cap} exceeded")
            spec = cegar.refine_with_guarantee(spec, bad[0])
            transcript.refine(OUTPUT_SIDE, bad[0])
            arena = successors = None
            continue

        keep, unproven = cegar.select_counter_inputs(solution, cache, input_atoms)
        culprit = None
        try:
            for v in sorted(unproven):
                verdict = cegar._checked(cache, INPUT_SIDE, v, table, cfg.depth, transcript)
                if isinstance(verdict, Infeasible):
                    culprit = v
                    break
        except cegar.TheoryUnknownError as stuck:
            return finish_unknown(str(stuck))
        if culprit is not None:
            if capped():
                return finish_unknown(f"refinement cap {cfg.refinement_cap} exceeded")
            spec = cegar.refine_with_assumption(spec, culprit)
            transcript.refine(INPUT_SIDE, culprit)
            cegar.mark_edges_absent(arena, culprit)
            continue

        if cfg.algorithm == cegar.SAFETY and bound_index + 1 < len(schedule):
            bound_index += 1
            arena = None
            continue
        cs = cegar.extract_counter_strategy(solution, keep)
        evidence = cegar._genuineness_evidence(cs, cache, input_atoms)
        shown = bound if bound is not None else "none"
        transcript.verdict(f"unrealizable-within-bound bound={shown}")
        return cegar.UnrealizableWithinBound(bound, cs, evidence, table, spec, mux)


# -- reference artifact reader ----------------------------------------------------
#
# ``parse_controller_file`` once read every line of the STEP, CANDIDATES and
# ROW blocks through the cursor's ``at`` and ``take`` and parsed every number
# and valuation anew; the library reads each block in one loop and parses each
# distinct text once.  Both reject a state the machine does not have and a
# bound below 1, with the same messages, so mutants compare like with like.


def _reference_block(reader, keyword: str) -> list[list[str]]:
    payloads = []
    while reader.at(keyword):
        payloads.append(reader.take(keyword).split(" "))
    return payloads


def reference_parse_controller_file(text: str):
    """``parse_controller_file`` with the per-line cursor reads."""
    from numltl import controller_file as cf
    from numltl.abstraction import EMPTY_MULTIPLEXER, MultiplexerTable
    from numltl.games import CounterStrategy, MealyController
    from numltl.valuation import all_valuations

    error, val, integer = cf.ControllerFileError, cf._parse_val, cf._parse_int
    reader = cf._Reader(text)
    magic = reader.take(cf.MAGIC)
    if magic not in (cf.KIND_CONTROLLER, cf.KIND_COUNTER_STRATEGY):
        raise error(f"unknown artifact kind {magic!r}")
    spec_hash = reader.take("HASH")
    algorithm = reader.take("ALGORITHM")
    if algorithm not in ("buchi", "safety"):
        raise error(f"unknown algorithm {algorithm!r}")
    bound_text = reader.take("BOUND")
    bound = None if bound_text == "none" else integer(bound_text, "BOUND")
    if bound is not None and bound <= 0:
        raise error(f"BOUND: expected a positive integer or none, found {bound_text!r}")
    refinements = []
    for payload in _reference_block(reader, "REFINE"):
        if len(payload) != 2 or payload[0] not in ("input", "output"):
            raise error("malformed REFINE line")
        refinements.append((payload[0], val(payload[1], "REFINE")))
    inputs = cf._parse_names(reader.take("INPUTS"))
    outputs = cf._parse_names(reader.take("OUTPUTS"))
    machine = counter = None

    def state(text: str, where: str, states) -> int:
        number = integer(text, where)
        if number not in states:
            raise error(f"{where}: {number} is not a state of the machine")
        return number

    if magic == cf.KIND_CONTROLLER:
        n_states = integer(reader.take("STATES"), "STATES")
        states = range(n_states)
        initial = state(reader.take("INITIAL"), "INITIAL", states)
        step = {}
        for payload in _reference_block(reader, "STEP"):
            if len(payload) != 4:
                raise error("malformed STEP line")
            source = state(payload[0], "STEP", states)
            vin = val(payload[1], "STEP", inputs)
            vout = val(payload[2], "STEP", outputs)
            target = state(payload[3], "STEP", states)
            if (source, vin) in step:
                raise error(f"STEP: state {source} has two lines for input {cf._val_str(vin)}")
            step[(source, vin)] = (vout, target)
        machine = MealyController(inputs, outputs, n_states, initial, step)
    else:
        names = cf._parse_names(reader.take("STATES"))
        states = tuple(integer(s, "STATES") for s in names)
        for i, listed in enumerate(states):
            if listed in states[:i]:
                raise error(f"STATES: state {listed} is listed twice")
        initial = state(reader.take("INITIAL"), "INITIAL", states)
        candidates = {}
        for payload in _reference_block(reader, "CANDIDATES"):
            if len(payload) != 2:
                raise error("malformed CANDIDATES line")
            listed = state(payload[0], "CANDIDATES", states)
            parts = () if payload[1] == "-" else payload[1].split(";")
            cands = tuple(val(part, "CANDIDATES", inputs) for part in parts)
            if listed in candidates:
                raise error(f"CANDIDATES: state {listed} is listed twice")
            candidates[listed] = cands
        spoiled = frozenset(
            state(s, "SPOILED", states) for s in cf._parse_names(reader.take("SPOILED"))
        )
        transitions = {}
        for payload in _reference_block(reader, "STEP"):
            if len(payload) != 4:
                raise error("malformed STEP line")
            key = (
                state(payload[0], "STEP", states),
                val(payload[1], "STEP", inputs),
                val(payload[2], "STEP", outputs),
            )
            target = state(payload[3], "STEP", states)
            if key in transitions:
                raise error(
                    f"STEP: state {key[0]} has two lines for input {cf._val_str(key[1])}"
                    f" and output {cf._val_str(key[2])}"
                )
            transitions[key] = target
        counter = CounterStrategy(
            inputs, outputs, states, initial, candidates, transitions, spoiled
        )
    mux = EMPTY_MULTIPLEXER
    if reader.at("BEGIN MUX"):
        reader.take("BEGIN MUX")
        encoded = cf._parse_names(reader.take("ENCODED"))
        original = cf._parse_names(reader.take("ORIGINAL"))
        rows = []
        for payload in _reference_block(reader, "ROW"):
            if len(payload) != 2:
                raise error("malformed ROW line in the multiplexer block")
            rows.append((val(payload[0], "ROW", encoded), val(payload[1], "ROW", original)))
        reader.take("END MUX")
        mux = MultiplexerTable(encoded, original, tuple(rows))
    document = cf._parse_embedded_spec(reader)
    if any(line.strip() for line in reader.lines[reader.pos :]):
        raise error("trailing content after the END SPEC line")
    if cf.spec_digest(document) != spec_hash:
        raise error("embedded specification does not match the recorded hash")
    cf._same_atoms("INPUTS", inputs, document.input_atoms())
    refined = {"input": [], "output": []}
    for side, v in refinements:
        atoms = sorted(p.atom for p in document.predicates if p.side == side)
        if not atoms:
            raise error(
                f"REFINE {side} {cf._val_str(v)}: the {side} side has no predicate atoms to refine"
            )
        if sorted(v.atoms) != atoms:
            raise error(
                f"REFINE {side} {cf._val_str(v)}: refinement valuation must assign exactly"
                f" the {side}-side predicate atoms {atoms}, got {sorted(v.atoms)}"
            )
        if v in refined[side]:
            raise error(f"REFINE {side} {cf._val_str(v)}: valuation {v} was already refined away")
        refined[side].append(v)
    if machine is not None:
        excluded = refined["input"]
        for source, vin in product(range(machine.n_states), all_valuations(inputs)):
            if (source, vin) not in machine.step and not any(
                cube_matches(cube, vin) for cube in excluded
            ):
                raise error(f"STEP: state {source} has no line for input {cf._val_str(vin)}")
    if mux:
        cf._same_atoms("ORIGINAL", mux.original_atoms, document.output_atoms())
        cf._same_atoms("ENCODED", mux.encoded_atoms, outputs)
        if machine is not None:
            words = {word for word, _ in mux.rows}
            for vout, _ in machine.step.values():
                if vout not in words:
                    raise error(f"STEP output {vout} has no ROW to decode it")
    else:
        cf._same_atoms("OUTPUTS", outputs, document.output_atoms())
    return cf.ControllerPackage(
        magic, spec_hash, algorithm, bound, tuple(refinements), document, mux, machine, counter
    )


def reference_render_dot(machine) -> str:
    """``render_dot`` formatting each edge's valuations anew."""
    from numltl.games import MealyController

    def label(v) -> str:
        return str(v) if v.pairs else "-"

    lines = ["digraph machine {", "  rankdir=LR;"]
    lines.append(f'  init [shape=point]; init -> "{machine.initial}";')
    if isinstance(machine, MealyController):
        lines += [f'  "{s}" [shape=circle];' for s in range(machine.n_states)]
        edges = sorted(
            ((state, vin, vout, nxt) for (state, vin), (vout, nxt) in machine.step.items()),
            key=lambda e: (e[0], e[1].sort_key()),
        )
    else:
        for s in machine.states:
            shape = "doublecircle" if s in machine.spoiled else "box"
            lines.append(f'  "{s}" [shape={shape}];')
        edges = sorted(
            ((state, vin, vout, nxt) for (state, vin, vout), nxt in machine.transitions.items()),
            key=lambda e: (e[0], e[1].sort_key(), e[2].sort_key()),
        )
    for state, vin, vout, nxt in edges:
        lines.append(f'  "{state}" -> "{nxt}" [label="{label(vin)} / {label(vout)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- reference artifact writers ---------------------------------------------------
#
# ``render_realizable`` and ``render_unrealizable`` once had a body each, each
# sorting its machine's moves with its own key, and formatted the embedded
# spec twice, once for ``HASH`` and once for the ``SPEC`` block; the library
# writes both kinds with one body from ``moves()``.


def _reference_header_lines(kind: str, algorithm: str, bound, spec) -> list[str]:
    from numltl import controller_file as cf

    lines = [
        f"{cf.MAGIC} {kind}",
        f"HASH {cf.spec_digest(spec.source)}",
        f"ALGORITHM {algorithm}",
        f"BOUND {bound if bound is not None else 'none'}",
    ]
    lines += [f"REFINE {INPUT_SIDE} {v}" for v in spec.input_refinements]
    lines += [f"REFINE {OUTPUT_SIDE} {w}" for w in spec.output_refinements]
    return lines


def _reference_spec_lines(doc) -> list[str]:
    from numltl.speclang import format_spec

    return ["BEGIN SPEC", *format_spec(doc).splitlines(), "END SPEC"]


def reference_render_realizable(verdict, algorithm: str) -> str:
    """``render_realizable`` with its own body and sort key."""
    from numltl import controller_file as cf

    m = verdict.controller
    lines = _reference_header_lines(cf.KIND_CONTROLLER, algorithm, verdict.bound, verdict.spec)
    lines.append(f"INPUTS {cf._names_str(m.inputs)}")
    lines.append(f"OUTPUTS {cf._names_str(m.outputs)}")
    lines.append(f"STATES {m.n_states}")
    lines.append(f"INITIAL {m.initial}")
    for (state, vin), (vout, nxt) in sorted(
        m.step.items(), key=lambda item: (item[0][0], item[0][1].sort_key())
    ):
        lines.append(f"STEP {state} {cf._val_str(vin)} {cf._val_str(vout)} {nxt}")
    lines += cf._mux_lines(verdict.multiplexer)
    lines += _reference_spec_lines(verdict.spec.source)
    return "\n".join(lines) + "\n"


def reference_render_unrealizable(verdict, algorithm: str) -> str:
    """``render_unrealizable`` with its own body and sort key."""
    from numltl import controller_file as cf

    cs = verdict.counter_strategy
    lines = _reference_header_lines(
        cf.KIND_COUNTER_STRATEGY, algorithm, verdict.bound, verdict.spec
    )
    lines.append(f"INPUTS {cf._names_str(cs.inputs)}")
    lines.append(f"OUTPUTS {cf._names_str(cs.outputs)}")
    lines.append(f"STATES {cf._names_str(tuple(str(s) for s in cs.states))}")
    lines.append(f"INITIAL {cs.initial}")
    for state in cs.states:
        cands = cs.candidates.get(state, ())
        rendered = ";".join(map(cf._val_str, cands)) if cands else "-"
        lines.append(f"CANDIDATES {state} {rendered}")
    spoiled = tuple(str(s) for s in sorted(cs.spoiled))
    lines.append(f"SPOILED {cf._names_str(spoiled)}")
    for (state, vin, vout), nxt in sorted(
        cs.transitions.items(),
        key=lambda item: (item[0][0], item[0][1].sort_key(), item[0][2].sort_key()),
    ):
        lines.append(f"STEP {state} {cf._val_str(vin)} {cf._val_str(vout)} {nxt}")
    lines += cf._mux_lines(verdict.multiplexer)
    lines += _reference_spec_lines(verdict.spec.source)
    return "\n".join(lines) + "\n"


# -- reference lasso acceptance ---------------------------------------------------
#
# ``accepts_lasso`` once looked for a reachable cycle through an accepting
# state of the product with one iterative Tarjan pass over its strongly
# connected components; the library asks two reachability questions instead.


def reference_accepts_lasso(automaton, prefix, loop) -> bool:
    """``accepts_lasso`` by strongly connected components of the product."""
    from numltl.automata import _word_positions

    word, loop_start = _word_positions(prefix, loop)
    total = len(word)

    def succ(i: int) -> int:
        return i + 1 if i + 1 < total else loop_start

    def successors(node: tuple[int, int]) -> list[tuple[int, int]]:
        state, pos = node
        nxt = succ(pos)
        letter = word[pos]
        return [
            (t.target, nxt)
            for t in automaton.transitions[state]
            if all(letter[name] == value for name, value in t.guard.pairs)
        ]

    root = (automaton.initial, 0)
    index: dict[tuple[int, int], int] = {}
    low: dict[tuple[int, int], int] = {}
    on_stack: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = []
    counter = [0]

    # iterative Tarjan; each frame is (node, iterator over successors)
    call_stack: list[tuple[tuple[int, int], list[tuple[int, int]], int]] = []

    def push(node):
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        call_stack.append((node, successors(node), 0))

    push(root)
    while call_stack:
        node, succs, i = call_stack.pop()
        advanced = False
        while i < len(succs):
            child = succs[i]
            i += 1
            if child not in index:
                call_stack.append((node, succs, i))
                push(child)
                advanced = True
                break
            if child in on_stack:
                low[node] = min(low[node], index[child])
        if advanced:
            continue
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            cyclic = len(component) > 1 or any(
                member in successors(member) for member in component
            )
            if cyclic and any(
                state in automaton.accepting for state, _ in component
            ):
                return True
        if call_stack:
            parent = call_stack[-1][0]
            low[parent] = min(low[parent], low[node])
    return False
