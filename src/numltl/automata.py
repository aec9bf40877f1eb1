"""LTL to Büchi automata via on-the-fly tableau expansion.

The translation normalizes a formula so negation sits only on atoms: one
table of duals (And and Or, Until and Release, TRUE and FALSE; NEXT is its
own dual) serves every operator under a negation, after Implies, ALWAYS and
EVENTUALLY are rewritten as Or, Release and Until.  It then expands the
normal form into tableau nodes keyed by their processed and postponed
obligation sets, reads off a generalized Büchi automaton whose transition
guards are literal cubes, and then lowers it to plain Büchi acceptance with
a visit counter over the acceptance sets.  Each piece of tableau work is
done once: the propositional expansion of a partial node runs its
single-successor steps in one loop up to its first split and is memoised,
the walk that numbers the nodes resumes each obligation set where it last
stopped, and each set's successor list is sorted once.  The result is the
automaton of the plain worklist expansion state for state: the test suite
requires equality with that expansion, kept in its oracles, down to the
order in which tableau nodes are created.  States share rows: the nodes
that postpone the same obligations have the same successors, as do the
degeneralized states over one row counting from one level, so each distinct
row is built, sorted and hashed once, and each distinct transition is one
object.

Also here: automaton acceptance of an ultimately periodic word, by
reachability in the product of states and word positions (an accepting
node reachable from the start and again from itself), and the formula's own
truth on it (``speclang.truth``, the evaluator the guarantee monitor uses).
These give two independent routes to the same answer, which the test suite
exploits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .speclang import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    atoms_of,
    truth,
    walk,
)
from .valuation import Memo, Valuation


# the operator negation turns each into: ``!(a && b)`` is ``!a || !b``,
# ``!(a UNTIL b)`` is ``!a RELEASE !b``, and ``!NEXT a`` is ``NEXT !a``
_DUAL = {
    And: Or,
    Or: And,
    Until: Release,
    Release: Until,
    Next: Next,
    TrueFormula: FalseFormula,
    FalseFormula: TrueFormula,
}


def negation_normal_form(formula: Formula) -> Formula:
    """Eliminate Implies/Always/Eventually and push negation onto atoms."""
    return _normal(formula, True)


def _normal(f: Formula, positive: bool) -> Formula:
    """The normal form of ``f``, or of its negation when not ``positive``.
    A ``!`` flips the polarity in the loop, so a chain of them takes no
    frame, and every other operator takes one."""
    while True:
        if isinstance(f, Not):
            f, positive = f.operand, not positive
        elif isinstance(f, Implies):
            f = Or(Not(f.left), f.right)
        elif isinstance(f, Always):
            f = Release(FalseFormula(), f.operand)
        elif isinstance(f, Eventually):
            f = Until(TrueFormula(), f.operand)
        else:
            break
    if isinstance(f, Atom):
        return f if positive else Not(f)
    if type(f) not in _DUAL:
        msg = f"unknown formula node {f!r}"
        raise TypeError(msg)
    op = type(f) if positive else _DUAL[type(f)]
    if isinstance(f, Next):
        return op(_normal(f.operand, positive))
    if isinstance(f, (TrueFormula, FalseFormula)):
        return op()
    return op(_normal(f.left, positive), _normal(f.right, positive))


# -- automaton type --------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    guard: Valuation  # the cube of literals a letter must agree with
    target: int


@dataclass(frozen=True)
class BuchiAutomaton:
    atoms: tuple[str, ...]
    n_states: int
    initial: int
    transitions: tuple[tuple[Transition, ...], ...]
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.transitions) != self.n_states:
            msg = "transition table size does not match state count"
            raise ValueError(msg)


# -- tableau expansion ------------------------------------------------------
#
# The tableau runs on ints: every subformula of the normal form is interned
# to its rank in ``repr`` order, and obligation sets are bitmasks over the
# ranks, so expanding the smallest pending formula takes the lowest set bit.
# Formulas come back only for transition guards and acceptance sets.
#
# The propositional expansion of a partial node ``(new, old, nxt)`` is a pure
# function of that triple: the leaf keys ``(old, nxt)`` it reaches, in
# worklist order (the second branch of a split first), each kept at its first
# occurrence.  Literal, And and Next steps have one successor, so one call of
# ``_expand_step`` chains them up to the node's first split; a contradiction
# or FALSE on the way ends the node with no leaves.  Only the nodes that
# start such a chain (the root of each obligation set and the two parts of
# each split) are memoised, so each is expanded once however many branches
# and predecessors reach it.
#
# The node walk then visits those lists depth first, entering a new node's
# successor expansion before the next sibling, which is the order, and so
# the state numbering, of the plain worklist expansion (``reference_expand``
# in the test oracles).  An obligation set can be re-entered while an
# earlier walk of it is open.  Every leaf before the point where a walk of
# the set stopped is numbered, so each walk of the set would take the same
# next leaf, and one cursor per set serves them all.

# kinds of interned subformulas; TRUE counts as a literal
_LITERAL, _FALSE, _AND, _OR, _UNTIL, _RELEASE, _NEXT = range(7)


@dataclass
class _Interned:
    formulas: list[Formula]  # by rank in repr order
    root: int
    kind: list[int]
    left: list[int]  # left operand, or the operand of Next
    right: list[int]
    negation: list[int]  # a literal's negation, or -1 where that is no subformula


@dataclass
class _Node:
    old: int  # processed obligations, a bitmask over ranks
    nxt: int  # postponed obligations


def _intern(normal: Formula) -> _Interned:
    formulas = sorted(set(walk(normal)), key=repr)
    index = {f: i for i, f in enumerate(formulas)}
    kinds = {And: _AND, Or: _OR, Until: _UNTIL, Release: _RELEASE}
    kind, left, right, negation = [], [], [], []
    for f in formulas:
        k, a, b, neg = -1, -1, -1, -1
        if isinstance(f, FalseFormula):
            k = _FALSE
        elif isinstance(f, Next):
            k, a = _NEXT, index[f.operand]
        elif type(f) in kinds:
            k, a, b = kinds[type(f)], index[f.left], index[f.right]
        else:  # an atom, a negated atom or TRUE
            k, neg = _LITERAL, index.get(_normal(f, False), -1)
        kind.append(k)
        left.append(a)
        right.append(b)
        negation.append(neg)
    return _Interned(formulas, index[normal], kind, left, right, negation)


def _expand_step(
    table: _Interned, new: int, old: int, nxt: int
) -> tuple[tuple[int, int, int], ...]:
    """Expand a partial node with ``new`` nonzero up to its first split:
    the two partial nodes whose leaf lists make up its own, in worklist
    order; the one leaf it chains to when it never splits; none when it
    is contradictory."""
    while new:
        bit = new & -new
        f = bit.bit_length() - 1
        new ^= bit
        k = table.kind[f]
        if k == _LITERAL:
            negation = table.negation[f]
            if negation >= 0 and old >> negation & 1:
                return ()
            old |= bit
            continue
        if k == _FALSE:
            return ()
        if k == _NEXT:
            old |= bit
            nxt |= 1 << table.left[f]
            continue
        left, right = 1 << table.left[f] & ~old, 1 << table.right[f] & ~old
        old |= bit
        if k == _AND:
            new |= left | right
        elif k == _OR:
            return ((new | left, old, nxt), (new | right, old, nxt))
        elif k == _UNTIL:
            return ((new | left, old, nxt | bit), (new | right, old, nxt))
        else:  # _RELEASE
            return ((new | right, old, nxt | bit), (new | left | right, old, nxt))
    return ((new, old, nxt),)


def _expand(table: _Interned) -> tuple[list[_Node], dict[int, list[int]]]:
    """Tableau nodes in creation order, the root's expansion first, and the
    successors of each expanded obligation set (the root's, and each node's
    postponed ones): the positions of the nodes it expands to, in order."""
    leaf_lists: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    splits: dict[tuple[int, int, int], tuple[tuple[int, int, int], ...]] = {}

    def leaves(start: tuple[int, int, int]) -> list[tuple[int, int]]:
        stack = [start]
        while stack:
            key = stack[-1]
            if key in leaf_lists:
                stack.pop()
                continue
            parts = splits.get(key)
            if parts is None:
                parts = _expand_step(table, *key) if key[0] else (key,)
                if len(parts) < 2:
                    leaf_lists[key] = [parts[0][1:]] if parts else []
                    stack.pop()
                    continue
                splits[key] = parts
            missing = [p for p in parts if p not in leaf_lists]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            del splits[key]
            first, second = leaf_lists[parts[0]], leaf_lists[parts[1]]
            if first and second:
                leaf_lists[key] = list(dict.fromkeys(first + second))
            else:
                leaf_lists[key] = first or second
        return leaf_lists[start]

    nodes: list[_Node] = []
    position: dict[tuple[int, int], int] = {}
    # a node's successors are the leaves of its postponed obligations, so a
    # node whose set was walked to the end has every successor numbered
    successors: dict[int, list[int]] = {}
    cursor: dict[int, int] = {}  # per set, the first leaf it may not have numbered
    trail = [1 << table.root]  # the sets with an open walk, innermost last
    while trail:
        new = trail[-1]
        keys = leaves((new, 0, 0))
        i = cursor.get(new, 0)
        while i < len(keys) and keys[i] in position:
            i += 1
        cursor[new] = i
        if i == len(keys):
            trail.pop()
            if new not in successors:
                successors[new] = sorted(position[key] for key in keys)
            continue
        key = keys[i]
        position[key] = len(nodes)
        nodes.append(_Node(*key))
        if key[1] not in successors:
            trail.append(key[1])
    return nodes, successors


def _guards(table: _Interned, nodes: list[_Node]) -> tuple[list[int], list[Valuation]]:
    """Each node's guard as a rank into the distinct guard cubes, which are
    sorted by their ``pairs``, so ranks order as the cubes do."""
    literals = [
        (rank, (f.name, True) if isinstance(f, Atom) else (f.operand.name, False))
        for rank, f in enumerate(table.formulas)
        if isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.operand, Atom))
    ]
    mask = sum(1 << rank for rank, _ in literals)
    keys = [node.old & mask for node in nodes]
    cube_of = {
        bits: Valuation(tuple(pair for rank, pair in literals if bits >> rank & 1))
        for bits in set(keys)
    }
    cubes = sorted(set(cube_of.values()), key=lambda cube: cube.pairs)
    rank_of = {cube: i for i, cube in enumerate(cubes)}
    return [rank_of[cube_of[bits]] for bits in keys], cubes


# -- acceptance -----------------------------------------------------------------
#
# Guards are ints here, ranks into a cube list sorted by ``pairs``, so rows
# sort as plain ``(guard, target)`` tuples in the order of the cubes.  States
# share rows: ``state_row[q]`` numbers the row of state ``q`` in ``rows``.


def _degeneralize(
    n_states: int,
    initial: int,
    state_row: list[int],
    rows: list[list[tuple[int, int]]],
    acceptance_sets: list[frozenset[int]],
) -> tuple[int, int, list[int], list[list[tuple[int, int]]], frozenset[int]]:
    """Generalized to plain Büchi acceptance: state ``(q, level)`` counts the
    acceptance sets met in order, and level ``m`` is accepting.  Its row
    depends only on ``q``'s row and on the level it counts from, so each
    such pair's row is built once and shared."""
    m = len(acceptance_sets)
    if m == 0:
        return n_states, initial, state_row, rows, frozenset(range(n_states))
    if m == 1:
        return n_states, initial, state_row, rows, acceptance_sets[0]

    index = {(initial, 0): 0}
    out_row = [0]
    out: list[list[tuple[int, int]]] = []
    built: dict[tuple[int, int], int] = {}
    accepting: set[int] = set()
    work = [(initial, 0)]
    while work:
        q, level = key = work.pop()
        base = 0 if level == m else level
        shared = (state_row[q], base)
        r = built.get(shared)
        if r is None:
            row = []
            for guard, target in rows[shared[0]]:
                bumped = base
                while bumped < m and target in acceptance_sets[bumped]:
                    bumped += 1
                succ = (target, bumped)
                dst = index.get(succ)
                if dst is None:
                    dst = index[succ] = len(out_row)
                    out_row.append(0)
                    if bumped == m:
                        accepting.add(dst)
                    work.append(succ)
                row.append((guard, dst))
            r = built[shared] = len(out)
            out.append(row)
        out_row[index[key]] = r
    return len(out_row), 0, out_row, out, frozenset(accepting)


def _simplify(
    n_states: int,
    initial: int,
    state_row: list[int],
    rows: list[list[tuple[int, int]]],
    accepting: frozenset[int],
    cubes: list[Valuation],
    atoms: tuple[str, ...],
) -> BuchiAutomaton:
    """Merge states with identical rows until none are left, renumber the
    reachable ones breadth first from ``initial`` and turn guard ranks back
    into ``cubes``.  Each distinct row is sorted, and hashed, once a round."""
    sorted_rows = [tuple(sorted(set(row))) for row in rows]

    alive = list(range(n_states))
    while True:
        # number the distinct rows, so each state's signature is two ints
        number: dict[tuple, int] = {}
        row_number = [number.setdefault(row, len(number)) for row in sorted_rows]
        signature: dict[tuple[bool, int], int] = {}
        rename: dict[int, int] = {}
        for q in alive:
            sig = (q in accepting, row_number[state_row[q]])
            if sig in signature:
                rename[q] = signature[sig]
            else:
                signature[sig] = q
        if not rename:
            break
        initial = rename.get(initial, initial)
        alive = [q for q in alive if q not in rename]
        for r in {state_row[q] for q in alive}:
            sorted_rows[r] = tuple(sorted({(g, rename.get(t, t)) for g, t in sorted_rows[r]}))

    order: list[int] = []
    seen = {initial}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        order.append(q)
        for _, target in sorted_rows[state_row[q]]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    new_id = {q: i for i, q in enumerate(order)}
    # rows repeat edges, so each distinct one is built once and shared
    transition = Memo(lambda edge: Transition(cubes[edge[0]], new_id[edge[1]]))
    return BuchiAutomaton(
        atoms=atoms,
        n_states=len(order),
        initial=0,
        transitions=tuple(
            tuple(map(transition.__getitem__, sorted_rows[state_row[q]])) for q in order
        ),
        accepting=frozenset(new_id[q] for q in accepting if q in new_id),
    )


def translate(formula: Formula, atoms: tuple[str, ...] | None = None) -> BuchiAutomaton:
    """Büchi automaton accepting exactly the words satisfying ``formula``."""
    table = _intern(negation_normal_form(formula))
    nodes, successors = _expand(table)
    guard_of, cubes = _guards(table, nodes)

    # state 0 is a fresh initial state; tableau node k becomes state k+1,
    # whose row is the successors of the obligations it postpones
    row_number = {new: r for r, new in enumerate(successors)}
    rows = [[(guard_of[k], k + 1) for k in targets] for targets in successors.values()]
    state_row = [row_number[1 << table.root]] + [row_number[node.nxt] for node in nodes]

    # one acceptance set per Until, in repr order
    acceptance_sets = [
        frozenset(
            k + 1
            for k, node in enumerate(nodes)
            if not node.old >> u & 1 or node.old >> table.right[u] & 1
        )
        | {0}
        for u, kind in enumerate(table.kind)
        if kind == _UNTIL
    ]

    n, initial, state_row, rows, accepting = _degeneralize(
        len(nodes) + 1, 0, state_row, rows, acceptance_sets
    )
    if atoms is None:
        atoms = tuple(sorted(atoms_of(formula)))
    return _simplify(n, initial, state_row, rows, accepting, cubes, atoms)


def negate_and_translate(
    formula: Formula, atoms: tuple[str, ...] | None = None
) -> BuchiAutomaton:
    """Automaton of the negated formula, i.e. of the behaviours violating it."""
    return translate(Not(formula), atoms)


# -- lasso words -------------------------------------------------------------


def _word_positions(prefix, loop) -> tuple[list[dict[str, bool]], int]:
    if not loop:
        msg = "lasso loop must be nonempty"
        raise ValueError(msg)
    word = []
    for letter in list(prefix) + list(loop):
        word.append(letter.as_dict() if isinstance(letter, Valuation) else dict(letter))
    return word, len(prefix)


def evaluate_ltl_on_lasso(formula: Formula, prefix, loop) -> bool:
    """Truth of ``formula`` on the word prefix · loop^ω."""
    return truth(formula, *_word_positions(prefix, loop))[0]


def accepts_lasso(automaton: BuchiAutomaton, prefix, loop) -> bool:
    """Whether the automaton accepts prefix · loop^ω.

    A run is a path in the product of automaton states with word positions
    from ``(initial, 0)``.  The word is accepted exactly when some accepting
    product node is reachable and can be reached again from its own
    successors: two plain stack searches, the second once per such node.
    """
    word, loop_start = _word_positions(prefix, loop)
    last = len(word) - 1

    def successors(node: tuple[int, int]) -> list[tuple[int, int]]:
        state, pos = node
        letter = word[pos]
        nxt = pos + 1 if pos < last else loop_start
        return [
            (t.target, nxt)
            for t in automaton.transitions[state]
            if all(letter[name] == value for name, value in t.guard.pairs)
        ]

    succ = Memo(successors)

    def reach(sources) -> set[tuple[int, int]]:
        seen = set(sources)
        stack = list(seen)
        while stack:
            for child in succ[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    return any(
        node in reach(succ[node])
        for node in reach([(automaton.initial, 0)])
        if node[0] in automaton.accepting
    )
