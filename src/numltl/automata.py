"""LTL to Büchi automata via on-the-fly tableau expansion.

The translation normalizes a formula so negation sits only on atoms (with
Release as the dual of Until), expands it into tableau nodes keyed by their
processed and postponed obligation sets, reads off a generalized Büchi
automaton whose transition guards are literal cubes, and then lowers it to
plain Büchi acceptance with a visit counter over the acceptance sets.

Also here: direct evaluation of a formula on an ultimately periodic word and
automaton acceptance of such a word.  These give two independent routes to
the same answer, which the test suite exploits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

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
    TrueFormula,
    Until,
)
from .valuation import Cube, Valuation


@dataclass(frozen=True)
class Release(Formula):
    """Dual of Until; produced by normalization, never by the parser."""

    left: Formula
    right: Formula


def negation_normal_form(formula: Formula) -> Formula:
    """Eliminate Implies/Always/Eventually and push negation onto atoms."""
    if isinstance(formula, (Atom, TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, And):
        return And(negation_normal_form(formula.left), negation_normal_form(formula.right))
    if isinstance(formula, Or):
        return Or(negation_normal_form(formula.left), negation_normal_form(formula.right))
    if isinstance(formula, Implies):
        return Or(
            negation_normal_form(Not(formula.left)), negation_normal_form(formula.right)
        )
    if isinstance(formula, Next):
        return Next(negation_normal_form(formula.operand))
    if isinstance(formula, Always):
        return Release(FalseFormula(), negation_normal_form(formula.operand))
    if isinstance(formula, Eventually):
        return Until(TrueFormula(), negation_normal_form(formula.operand))
    if isinstance(formula, Until):
        return Until(negation_normal_form(formula.left), negation_normal_form(formula.right))
    if isinstance(formula, Release):
        return Release(
            negation_normal_form(formula.left), negation_normal_form(formula.right)
        )
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, Atom):
            return formula
        if isinstance(inner, TrueFormula):
            return FalseFormula()
        if isinstance(inner, FalseFormula):
            return TrueFormula()
        if isinstance(inner, Not):
            return negation_normal_form(inner.operand)
        if isinstance(inner, And):
            return Or(
                negation_normal_form(Not(inner.left)), negation_normal_form(Not(inner.right))
            )
        if isinstance(inner, Or):
            return And(
                negation_normal_form(Not(inner.left)), negation_normal_form(Not(inner.right))
            )
        if isinstance(inner, Implies):
            return And(
                negation_normal_form(inner.left), negation_normal_form(Not(inner.right))
            )
        if isinstance(inner, Next):
            return Next(negation_normal_form(Not(inner.operand)))
        if isinstance(inner, Always):
            return Until(TrueFormula(), negation_normal_form(Not(inner.operand)))
        if isinstance(inner, Eventually):
            return Release(FalseFormula(), negation_normal_form(Not(inner.operand)))
        if isinstance(inner, Until):
            return Release(
                negation_normal_form(Not(inner.left)), negation_normal_form(Not(inner.right))
            )
        if isinstance(inner, Release):
            return Until(
                negation_normal_form(Not(inner.left)), negation_normal_form(Not(inner.right))
            )
    msg = f"unknown formula node {formula!r}"
    raise TypeError(msg)


# -- automaton type --------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    guard: Cube
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
# to its rank in ``repr`` order, so expanding the smallest pending int picks
# the formula whose ``repr`` sorts first, and obligation sets are sets of
# ints.  Formulas come back only for transition guards and acceptance sets.

_INIT = -1

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
    node_id: int
    incoming: set[int]
    new: set[int]
    old: set[int]
    nxt: set[int]


def _is_literal(f: Formula) -> bool:
    return isinstance(f, (TrueFormula, FalseFormula, Atom)) or (
        isinstance(f, Not) and isinstance(f.operand, Atom)
    )


def _negate_literal(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Not):
        return f.operand
    if isinstance(f, TrueFormula):
        return FalseFormula()
    return TrueFormula()


def _intern(normal: Formula) -> _Interned:
    formulas = sorted(_closure(normal), key=repr)
    index = {f: i for i, f in enumerate(formulas)}
    kinds = {And: _AND, Or: _OR, Until: _UNTIL, Release: _RELEASE}
    kind, left, right, negation = [], [], [], []
    for f in formulas:
        k, a, b, neg = -1, -1, -1, -1
        if isinstance(f, FalseFormula):
            k = _FALSE
        elif _is_literal(f):
            k, neg = _LITERAL, index.get(_negate_literal(f), -1)
        elif isinstance(f, Next):
            k, a = _NEXT, index[f.operand]
        elif type(f) in kinds:
            k, a, b = kinds[type(f)], index[f.left], index[f.right]
        else:
            msg = f"formula not in normal form: {f!r}"
            raise TypeError(msg)
        kind.append(k)
        left.append(a)
        right.append(b)
        negation.append(neg)
    return _Interned(formulas, index[normal], kind, left, right, negation)


def _expand(table: _Interned) -> list[_Node]:
    """Tableau expansion with an explicit worklist; returns the node list."""
    kind, left, right, negation = table.kind, table.left, table.right, table.negation
    done: list[_Node] = []
    counter = [0]

    def fresh(incoming: set[int], new: set[int], old: set[int], nxt: set[int]) -> _Node:
        counter[0] += 1
        return _Node(counter[0], incoming, new, old, nxt)

    by_obligations: dict[tuple[frozenset, frozenset], _Node] = {}
    work = [fresh({_INIT}, {table.root}, set(), set())]
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
        f = min(node.new)
        node.new.discard(f)
        k = kind[f]
        if k == _LITERAL:
            if negation[f] in node.old:
                continue
            node.old.add(f)
            work.append(node)
        elif k == _FALSE:
            continue
        elif k == _AND:
            node.old.add(f)
            node.new |= {left[f], right[f]} - node.old
            work.append(node)
        elif k == _OR:
            work.append(
                fresh(
                    set(node.incoming),
                    node.new | ({right[f]} - node.old),
                    node.old | {f},
                    set(node.nxt),
                )
            )
            work.append(
                fresh(
                    set(node.incoming),
                    node.new | ({left[f]} - node.old),
                    node.old | {f},
                    set(node.nxt),
                )
            )
        elif k == _UNTIL:
            work.append(
                fresh(
                    set(node.incoming),
                    node.new | ({right[f]} - node.old),
                    node.old | {f},
                    set(node.nxt),
                )
            )
            work.append(
                fresh(
                    set(node.incoming),
                    node.new | ({left[f]} - node.old),
                    node.old | {f},
                    node.nxt | {f},
                )
            )
        elif k == _RELEASE:
            work.append(
                fresh(
                    set(node.incoming),
                    node.new | ({left[f], right[f]} - node.old),
                    node.old | {f},
                    set(node.nxt),
                )
            )
            work.append(
                fresh(
                    set(node.incoming),
                    node.new | ({right[f]} - node.old),
                    node.old | {f},
                    node.nxt | {f},
                )
            )
        else:  # _NEXT
            node.old.add(f)
            node.nxt.add(left[f])
            work.append(node)
    return done


def _guard_of(old: Iterable[Formula]) -> Cube:
    pairs = []
    for f in old:
        if isinstance(f, Atom):
            pairs.append((f.name, True))
        elif isinstance(f, Not) and isinstance(f.operand, Atom):
            pairs.append((f.operand.name, False))
    return Cube(tuple(pairs))


def _degeneralize(
    n_states: int,
    initial: int,
    edges: list[list[tuple[Cube, int]]],
    acceptance_sets: list[frozenset[int]],
) -> tuple[int, int, list[list[tuple[Cube, int]]], frozenset[int]]:
    m = len(acceptance_sets)
    if m == 0:
        return n_states, initial, edges, frozenset(range(n_states))
    if m == 1:
        return n_states, initial, edges, acceptance_sets[0]

    index: dict[tuple[int, int], int] = {}
    out: list[list[tuple[Cube, int]]] = []
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


def _simplify(
    n_states: int,
    initial: int,
    edges: list[list[tuple[Cube, int]]],
    accepting: frozenset[int],
) -> BuchiAutomaton:
    """Drop unreachable states, merge states with identical rows, renumber."""
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


def translate(formula: Formula, atoms: tuple[str, ...] | None = None) -> BuchiAutomaton:
    """Büchi automaton accepting exactly the words satisfying ``formula``."""
    from .speclang import atoms_of

    table = _intern(negation_normal_form(formula))
    nodes = _expand(table)

    # state 0 is a fresh initial state; tableau node k becomes state k+1
    ids = {node.node_id: i + 1 for i, node in enumerate(nodes)}
    n_states = len(nodes) + 1
    edges: list[list[tuple[Cube, int]]] = [[] for _ in range(n_states)]
    for node in nodes:
        guard = _guard_of(table.formulas[f] for f in node.old)
        target = ids[node.node_id]
        for src in node.incoming:
            edges[0 if src == _INIT else ids[src]].append((guard, target))

    # one acceptance set per Until, in repr order
    acceptance_sets = [
        frozenset(
            ids[node.node_id]
            for node in nodes
            if u not in node.old or table.right[u] in node.old
        )
        | {0}
        for u, k in enumerate(table.kind)
        if k == _UNTIL
    ]

    n, initial, rows, accepting = _degeneralize(n_states, 0, edges, acceptance_sets)
    automaton = _simplify(n, initial, rows, accepting)
    if atoms is None:
        atoms = tuple(sorted(atoms_of(formula)))
    return BuchiAutomaton(
        atoms=atoms,
        n_states=automaton.n_states,
        initial=automaton.initial,
        transitions=automaton.transitions,
        accepting=automaton.accepting,
    )


def negate_and_translate(
    formula: Formula, atoms: tuple[str, ...] | None = None
) -> BuchiAutomaton:
    """Automaton of the negated formula, i.e. of the behaviours violating it."""
    if atoms is None:
        from .speclang import atoms_of

        atoms = tuple(sorted(atoms_of(formula)))
    return translate(Not(formula), atoms)


def _closure(formula: Formula) -> set[Formula]:
    out = {formula}
    if isinstance(formula, (Not, Next)):
        out |= _closure(formula.operand)
    elif isinstance(formula, (And, Or, Until, Release)):
        out |= _closure(formula.left) | _closure(formula.right)
    return out


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
    """Truth of ``formula`` on the word prefix · loop^ω, by fixpoint."""
    word, loop_start = _word_positions(prefix, loop)
    total = len(word)

    def succ(i: int) -> int:
        return i + 1 if i + 1 < total else loop_start

    memo: dict[Formula, list[bool]] = {}

    def values(f: Formula) -> list[bool]:
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
            msg = f"unknown formula node {f!r}"
            raise TypeError(msg)
        memo[f] = out
        return out

    return values(formula)[0]


def accepts_lasso(automaton: BuchiAutomaton, prefix, loop) -> bool:
    """Whether the automaton accepts prefix · loop^ω.

    Builds the product of automaton states with word positions and looks for
    a reachable cycle through an accepting state, using one depth-first
    strongly-connected-component pass.
    """
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


# -- serialization ------------------------------------------------------------


def format_automaton(automaton: BuchiAutomaton) -> str:
    lines = [
        "atoms: " + " ".join(automaton.atoms),
        f"states: {automaton.n_states}",
        f"initial: {automaton.initial}",
        "accepting: " + " ".join(str(q) for q in sorted(automaton.accepting)),
    ]
    for q in range(automaton.n_states):
        for t in automaton.transitions[q]:
            lines.append(f"{q} -> {t.target} [{t.guard}]")
    return "\n".join(lines) + "\n"


def automaton_to_dot(automaton: BuchiAutomaton, name: str = "buchi") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for q in range(automaton.n_states):
        shape = "doublecircle" if q in automaton.accepting else "circle"
        lines.append(f'  s{q} [shape={shape}, label="{q}"];')
    lines.append(f"  hidden -> s{automaton.initial};")
    for q in range(automaton.n_states):
        for t in automaton.transitions[q]:
            lines.append(f'  s{q} -> s{t.target} [label="{t.guard}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
