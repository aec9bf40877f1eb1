"""Two-player games on bipartite graphs for reactive synthesis.

The environment owns the env nodes and moves first by picking an input
valuation; the controller owns the ctrl nodes and answers with an output
valuation (and, for arenas built from nondeterministic automata, with the
successor state).  A node whose present outgoing edges are exhausted is lost
by its owner.  Objectives are Büchi (visit designated env nodes infinitely
often) or safety (never visit designated env nodes).

Counter-strategy candidate edges are the moves that provably keep the
environment winning no matter which single candidate is later fixed: inside
an attractor layer they strictly decrease the attractor rank, and inside a
trap they stay in the trap.  Merely remaining in the environment's winning
region is not enough, since an accepting node can sit on a rank-preserving
cycle; restricting to such a cycle would hand the play to the controller.

The builders work on machine ints.  Each arena fixes one atom order,
``inputs + outputs``: atom ``k`` is bit ``k``, every input and output
valuation is encoded once, and a letter is ``in_bits | out_bits``.  Each
automaton guard is lowered once to ``(care, value)`` masks and matches a
letter when ``letter & care == value``.  ``Valuation`` objects appear only on
the arena's API: edges, ctrl-node origins, controllers and
counter-strategies.  An env edge also keeps its input bits, so marking edges
absent is a mask compare.

The safety builder works on sets of letters instead.  It numbers the
letters in arena order and lowers each guard once to the set of letters it
matches, one int with a bit per letter.  A ``SuccessorTable`` splits the
letters of each macro-state into classes that lead to the same successor,
by intersecting the guard sets target by target and count by count, and
keeps the classes with a compact letter-to-class index.  Successors do not
depend on the bound, only the test of their top count against it does, so
one table serves every arena of a bound schedule: a build reads each
macro's classes, resolves them to env nodes in order of their first letter
(the numbering a letter-by-letter expansion gives), and fills the ctrl rows
from the index.  Ctrl edges are immutable and shared, one per output
valuation and target.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field

from .automata import BuchiAutomaton
from .valuation import Valuation, encoded_valuations

ENV = "env"
CTRL = "ctrl"

NodeId = tuple[str, int]


class GameError(ValueError):
    pass


@dataclass(slots=True)
class EnvEdge:
    valuation: Valuation
    target: int
    present: bool = True
    bits: int = field(kw_only=True)  # ``valuation`` encoded over the arena's inputs


@dataclass(frozen=True)
class CtrlEdge:
    valuation: Valuation
    target: int


@dataclass
class GameArena:
    objective: str  # "buchi" or "safety"
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    env_labels: tuple
    ctrl_origin: tuple[tuple[int, Valuation], ...]
    env_edges: list[list[EnvEdge]]
    ctrl_edges: list[list[CtrlEdge]]
    initial: int = 0
    accepting: frozenset = frozenset()
    unsafe: frozenset = frozenset()

    @property
    def n_env(self) -> int:
        return len(self.env_labels)

    @property
    def n_ctrl(self) -> int:
        return len(self.ctrl_origin)

    def nodes(self) -> list[NodeId]:
        return [(ENV, i) for i in range(self.n_env)] + [
            (CTRL, i) for i in range(self.n_ctrl)
        ]

    def present_env_edges(self, i: int) -> list[EnvEdge]:
        return [e for e in self.env_edges[i] if e.present]

    def edge_count(self) -> tuple[int, int]:
        env = sum(len(row) for row in self.env_edges)
        ctrl = sum(len(row) for row in self.ctrl_edges)
        return env, ctrl


def _edge_key(edge) -> tuple:
    return (edge.valuation.sort_key(), edge.target)


# -- arena builders -----------------------------------------------------------


def _alphabet(
    inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> tuple[dict[str, int], list[tuple[Valuation, int]], list[tuple[Valuation, int]]]:
    """Bit position of each atom, and the input and output valuations with
    their bits, in ``all_valuations`` order."""
    position = {name: k for k, name in enumerate(inputs + outputs)}
    return (
        position,
        encoded_valuations(inputs),
        encoded_valuations(outputs, len(inputs)),
    )


def build_buchi_game(
    automaton: BuchiAutomaton, inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> GameArena:
    """Arena over the (nondeterministic) automaton of the specification.

    The controller both picks the output valuation and resolves automaton
    nondeterminism; it wins by steering some run through accepting states
    infinitely often.  Sound for realizability, incomplete the other way.
    """
    position, input_letters, output_letters = _alphabet(inputs, outputs)

    ctrl_origin: list[tuple[int, Valuation]] = []
    env_edges: list[list[EnvEdge]] = []
    ctrl_edges: list[list[CtrlEdge]] = []
    for q in range(automaton.n_states):
        guards = [(*t.guard.masks(position), t.target) for t in automaton.transitions[q]]
        row: list[EnvEdge] = []
        for vin, in_bits in input_letters:
            cid = len(ctrl_origin)
            ctrl_origin.append((q, vin))
            row.append(EnvEdge(vin, cid, bits=in_bits))
            answers: list[CtrlEdge] = []
            for vout, out_bits in output_letters:
                letter = in_bits | out_bits
                seen = set()
                for care, value, target in guards:
                    if letter & care == value and target not in seen:
                        seen.add(target)
                        answers.append(CtrlEdge(vout, target))
            ctrl_edges.append(answers)
        env_edges.append(row)

    return GameArena(
        objective="buchi",
        inputs=inputs,
        outputs=outputs,
        env_labels=tuple(range(automaton.n_states)),
        ctrl_origin=tuple(ctrl_origin),
        env_edges=env_edges,
        ctrl_edges=ctrl_edges,
        initial=automaton.initial,
        accepting=frozenset(automaton.accepting),
    )


UNSAFE_LABEL = "UNSAFE"
EMPTY_LABEL = "EMPTY"

Macro = tuple[tuple[int, int], ...]


def _class_index(letter_sets: list[int], n_letters: int) -> array:
    """Class number of each letter, given the classes' disjoint letter sets."""
    index = array("B" if len(letter_sets) <= 0x100 else "I", [0]) * n_letters
    for c, letters in enumerate(letter_sets):
        if c:
            bits = format(letters, "b")[::-1]  # bits[l] is letter l
            l = bits.find("1")
            while l >= 0:
                index[l] = c
                l = bits.find("1", l + 1)
    return index


class SuccessorTable:
    """Successor classes of the counting macro-states over one negated
    automaton and one alphabet, shared by the arenas of every bound.

    Letters are numbered in arena order: letter ``j * 2**len(outputs) + k`` is
    input valuation ``j`` with output valuation ``k``, both in
    ``all_valuations`` order.  A letter set is an int with bit ``l`` set for
    letter ``l``; each guard is lowered to one.  ``classes(macro)`` splits
    the letters by the macro's successor, with every count as reached (no
    bound applies here), and returns the classes as ``(successor, top
    count)`` pairs numbered by their first letter, with the class index of
    every letter.  The table also holds the alphabet its builds use:
    ``input_letters`` as ``(valuation, bits)`` pairs, and
    ``output_valuations``.
    """

    def __init__(
        self, negated: BuchiAutomaton, inputs: tuple[str, ...], outputs: tuple[str, ...]
    ) -> None:
        self.automaton = negated
        self.inputs = inputs
        self.outputs = outputs
        position, self.input_letters, output_letters = _alphabet(inputs, outputs)
        self.output_valuations = [vout for vout, _ in output_letters]
        # each letter of the arena order as its bits
        order = [i | o for _, i in self.input_letters for _, o in output_letters]
        self._n_letters = len(order)
        self._full = (1 << self._n_letters) - 1
        # per automaton state: (target, bump, letters), transitions to one
        # target merged
        self._targets: list[tuple[tuple[int, int, int], ...]] = []
        for row in negated.transitions:
            reach: dict[int, int] = {}
            for t in row:
                care, value = t.guard.masks(position)
                letters = sum(
                    1 << l for l, bits in enumerate(order) if bits & care == value
                )
                reach[t.target] = reach.get(t.target, 0) | letters
            self._targets.append(
                tuple(
                    (target, 1 if target in negated.accepting else 0, letters)
                    for target, letters in reach.items()
                    if letters
                )
            )
        self._classes: dict[Macro, tuple[tuple[tuple, int], array]] = {}

    def classes(self, macro: Macro) -> tuple[tuple[tuple, int], array]:
        """The successor classes of ``macro`` (``()`` for the macro with no
        live runs) and the class of each letter; split on first request."""
        known = self._classes.get(macro)
        if known is None:
            known = self._classes[macro] = self._split(macro)
        return known

    def _split(self, macro: Macro) -> tuple[tuple[tuple, int], array]:
        # letters reaching each target, by the count they reach it with
        reach: dict[int, dict[int, int]] = {}
        for state, count in macro:
            for target, bump, letters in self._targets[state]:
                by_count = reach.setdefault(target, {})
                bumped = count + bump
                by_count[bumped] = by_count.get(bumped, 0) | letters
        # (letters, successor, top count) of each class so far
        parts: list[tuple[int, Macro, int]] = [(self._full, (), -1)]
        for target in sorted(reach):
            by_count = reach[target]
            higher = 0  # letters that reach ``target`` with a higher count
            for count in sorted(by_count, reverse=True):
                letters = by_count[count] & ~higher
                higher |= by_count[count]
                if not letters:
                    continue
                split = []
                for part, successor, top in parts:
                    inside = part & letters
                    if inside:
                        new_top = top if top > count else count
                        split.append((inside, successor + ((target, count),), new_top))
                        part ^= inside
                    if part:
                        split.append((part, successor, top))
                parts = split
        parts.sort(key=lambda p: p[0] & -p[0])  # by first letter
        classes = tuple(
            (successor, top) if successor else (EMPTY_LABEL, -1)
            for _, successor, top in parts
        )
        return classes, _class_index([p[0] for p in parts], self._n_letters)


def build_safety_game(
    negated: BuchiAutomaton,
    bound: int,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    successors: SuccessorTable | None = None,
) -> GameArena:
    """Bounded-unroll safety arena over the automaton of the negated spec.

    Env nodes are universal subset-construction macro states carrying, per
    automaton state, the highest count of accepting-state visits along any
    run reaching it.  A count past the bound makes the macro unsafe; the
    macro with no live runs is absorbing and safe.  ``successors`` is a
    table over the same automaton and atoms, filled by earlier builds at any
    bound; without one a fresh table is used.
    """
    if bound < 1:
        msg = f"bound must be at least 1, got {bound}"
        raise GameError(msg)
    if successors is None:
        successors = SuccessorTable(negated, inputs, outputs)
    elif (successors.automaton, successors.inputs, successors.outputs) != (
        negated,
        inputs,
        outputs,
    ):
        raise GameError("successor table was made for another automaton or alphabet")
    output_valuations = successors.output_valuations
    n_out = len(output_valuations)

    labels: list = []
    index: dict = {}
    env_edges: list[list[EnvEdge]] = []
    ctrl_origin: list[tuple[int, Valuation]] = []
    ctrl_edges: list[list[CtrlEdge]] = []
    unsafe: set[int] = set()
    # CtrlEdge is immutable: one per (output valuation, env node) serves
    # every ctrl node
    answers_to: list[list[CtrlEdge]] = []

    def env_id(label) -> int:
        if label in index:
            return index[label]
        i = len(labels)
        index[label] = i
        labels.append(label)
        env_edges.append([])
        answers_to.append([CtrlEdge(vout, i) for vout in output_valuations])
        if label == UNSAFE_LABEL:
            unsafe.add(i)
        return i

    initial_macro: Macro = ((negated.initial, 0),)
    start = env_id(initial_macro)
    queue = deque([start])
    expanded = {start}
    while queue:
        i = queue.popleft()
        label = labels[i]
        if label == UNSAFE_LABEL:
            continue  # terminal: env already won
        macro = () if label == EMPTY_LABEL else label  # EMPTY: no live runs
        classes, letter_class = successors.classes(macro)
        # classes are numbered by first letter, so resolving them in order
        # numbers the env nodes as a letter-by-letter expansion would
        rows = []
        for successor, top in classes:
            t = env_id(successor if top <= bound else UNSAFE_LABEL)
            if t not in expanded:
                expanded.add(t)
                queue.append(t)
            rows.append(answers_to[t])
        for j, (vin, in_bits) in enumerate(successors.input_letters):
            cid = len(ctrl_origin)
            ctrl_origin.append((i, vin))
            env_edges[i].append(EnvEdge(vin, cid, bits=in_bits))
            first = j * n_out
            ctrl_edges.append(
                [rows[c][k] for k, c in enumerate(letter_class[first : first + n_out])]
            )

    return GameArena(
        objective="safety",
        inputs=inputs,
        outputs=outputs,
        env_labels=tuple(labels),
        ctrl_origin=tuple(ctrl_origin),
        env_edges=env_edges,
        ctrl_edges=ctrl_edges,
        initial=start,
        unsafe=frozenset(unsafe),
    )


# -- attractors and solving ----------------------------------------------------


def _attractor(
    arena: GameArena, owner: str, base: set[NodeId], alive: set[NodeId]
) -> tuple[set[NodeId], dict[NodeId, int]]:
    """Layered attractor for ``owner`` toward ``base`` within ``alive``.

    Returns the attracted set and the BFS layer (rank) of each member; base
    nodes have rank 0.  An owner node joins when some present edge enters the
    attractor; an opponent node joins when every present edge into ``alive``
    does, which is vacuously true for stuck opponent nodes.

    Linear in the arena (Grädel, Thomas & Wilke, LNCS 2500): every opponent
    node counts its edges not yet attracted, and the layers are processed
    breadth-first, so a node joins one layer after the edge that completes
    its condition, the layer the round-by-round fixpoint gives it.
    """
    n_env = arena.n_env
    n = n_env + arena.n_ctrl  # env node i is i, ctrl node i is n_env + i
    live = bytearray(n)
    named: list = [None] * n  # the caller's node tuples, reused in the result
    for node in alive:
        kind, i = node
        k = i if kind == ENV else n_env + i
        live[k] = 1
        named[k] = node

    # one pass over the rows: each live node's live predecessors, and the
    # number of its live edges not yet attracted
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
    owner_is_env = owner == ENV

    rank = array("i", [-1]) * n  # -1 until attracted
    layer = []
    for kind, i in base & alive:
        node = i if kind == ENV else n_env + i
        rank[node] = 0
        layer.append(node)
    # stuck opponent nodes join in the first layer
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
class GameSolution:
    arena: GameArena
    ctrl_region: frozenset
    env_region: frozenset
    ctrl_strategy: dict[int, CtrlEdge]
    env_strategy: dict[int, EnvEdge]
    env_candidates: dict[int, tuple[EnvEdge, ...]]

    @property
    def ctrl_wins(self) -> bool:
        return (ENV, self.arena.initial) in self.ctrl_region


def _min_edge(edges):
    return min(edges, key=_edge_key)


def _env_candidates_from_ranks(
    arena: GameArena, env_node: int, rank: dict[NodeId, int]
) -> tuple[EnvEdge, ...]:
    own_rank = rank[(ENV, env_node)]
    out = []
    for edge in arena.present_env_edges(env_node):
        target = (CTRL, edge.target)
        if target not in rank:
            continue
        if own_rank == 0:
            if rank[target] == 0:
                out.append(edge)
        elif rank[target] < own_rank:
            out.append(edge)
    return tuple(sorted(out, key=_edge_key))


def solve_safety(arena: GameArena) -> GameSolution:
    if arena.objective != "safety":
        msg = f"expected a safety arena, got {arena.objective}"
        raise GameError(msg)
    nodes = set(arena.nodes())
    base = {(ENV, u) for u in arena.unsafe}
    attr, rank = _attractor(arena, ENV, base, nodes)
    env_region = frozenset(attr)
    ctrl_region = frozenset(nodes - attr)

    ctrl_strategy: dict[int, CtrlEdge] = {}
    for i in range(arena.n_ctrl):
        if (CTRL, i) in ctrl_region:
            safe_edges = [e for e in arena.ctrl_edges[i] if (ENV, e.target) in ctrl_region]
            if safe_edges:
                ctrl_strategy[i] = _min_edge(safe_edges)

    env_strategy: dict[int, EnvEdge] = {}
    env_candidates: dict[int, tuple[EnvEdge, ...]] = {}
    for i in range(arena.n_env):
        if (ENV, i) not in attr:
            continue
        # an unsafe node (rank 0) gets none, as no ctrl node has rank 0:
        # the play is over there
        candidates = _env_candidates_from_ranks(arena, i, rank)
        env_candidates[i] = candidates
        if candidates:
            env_strategy[i] = candidates[0]
    return GameSolution(
        arena, ctrl_region, env_region, ctrl_strategy, env_strategy, env_candidates
    )


def solve_buchi(arena: GameArena) -> GameSolution:
    if arena.objective != "buchi":
        msg = f"expected a buchi arena, got {arena.objective}"
        raise GameError(msg)
    alive = set(arena.nodes())
    env_strategy: dict[int, EnvEdge] = {}
    env_candidates: dict[int, tuple[EnvEdge, ...]] = {}
    reach_rank: dict[NodeId, int] = {}

    while True:
        goal = {(ENV, q) for q in arena.accepting} & alive
        reach, reach_rank = _attractor(arena, CTRL, goal, alive)
        trapped = alive - reach
        if not trapped:
            break
        removed, removed_rank = _attractor(arena, ENV, trapped, alive)
        for node in removed:
            kind, i = node
            if kind != ENV:
                continue
            candidates = _env_candidates_from_ranks(arena, i, removed_rank)
            env_candidates[i] = candidates
            if candidates:
                env_strategy[i] = candidates[0]
        alive -= removed

    ctrl_region = frozenset(alive)
    env_region = frozenset(set(arena.nodes()) - alive)

    # every surviving ctrl node sits in the final attractor at rank >= 1,
    # so a rank-decreasing move toward the accepting set always exists
    ctrl_strategy: dict[int, CtrlEdge] = {}
    for i in range(arena.n_ctrl):
        node = (CTRL, i)
        if node not in ctrl_region:
            continue
        own = reach_rank[node]
        good = [
            e
            for e in arena.ctrl_edges[i]
            if (ENV, e.target) in reach_rank and reach_rank[(ENV, e.target)] < own
        ]
        if good:
            ctrl_strategy[i] = _min_edge(good)
    return GameSolution(
        arena, ctrl_region, env_region, ctrl_strategy, env_strategy, env_candidates
    )


def solve(arena: GameArena) -> GameSolution:
    if arena.objective == "buchi":
        return solve_buchi(arena)
    return solve_safety(arena)


# -- strategy extraction --------------------------------------------------------


@dataclass(frozen=True)
class MealyController:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    n_states: int
    initial: int
    step: dict[tuple[int, Valuation], tuple[Valuation, int]]


def extract_controller(solution: GameSolution) -> MealyController:
    """Mealy machine over the env nodes the controller strategy visits."""
    arena = solution.arena
    if not solution.ctrl_wins:
        msg = "initial node is not controller-winning"
        raise GameError(msg)
    numbering = {arena.initial: 0}
    order = [arena.initial]
    step: dict[tuple[int, Valuation], tuple[Valuation, int]] = {}
    queue = deque([arena.initial])
    while queue:
        env_node = queue.popleft()
        for edge in sorted(arena.present_env_edges(env_node), key=_edge_key):
            answer = solution.ctrl_strategy.get(edge.target)
            if answer is None:
                msg = (
                    "controller strategy has no answer at a reachable node; "
                    "winning region is not closed"
                )
                raise GameError(msg)
            if answer.target not in numbering:
                numbering[answer.target] = len(order)
                order.append(answer.target)
                queue.append(answer.target)
            step[(numbering[env_node], edge.valuation)] = (
                answer.valuation,
                numbering[answer.target],
            )
    return MealyController(
        inputs=arena.inputs,
        outputs=arena.outputs,
        n_states=len(order),
        initial=0,
        step=step,
    )


@dataclass(frozen=True)
class CounterStrategy:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[int, ...]  # arena env node ids
    initial: int
    candidates: dict[int, tuple[Valuation, ...]]
    transitions: dict[tuple[int, Valuation, Valuation], int]
    spoiled: frozenset[int]  # terminal states where the objective is already lost


def extract_counter_strategy(solution: GameSolution) -> CounterStrategy:
    """Spoiler transducer over the env-winning region, carrying per-state
    candidate inputs (each single-candidate restriction stays winning)."""
    arena = solution.arena
    if solution.ctrl_wins:
        msg = "initial node is controller-winning; no counter-strategy exists"
        raise GameError(msg)
    candidates: dict[int, tuple[Valuation, ...]] = {}
    transitions: dict[tuple[int, Valuation, Valuation], int] = {}
    spoiled: set[int] = set()
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
            answers: dict[Valuation, int] = {}
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


def restrict_counter_strategy(
    cs: CounterStrategy, keep: dict[int, tuple[Valuation, ...]]
) -> CounterStrategy:
    """Counter-strategy narrowed to the kept candidate inputs, re-trimmed to
    the states still reachable from the initial state."""
    moves: dict[int, list[tuple[Valuation, Valuation, int]]] = {}
    for (state, vin, vout), nxt in cs.transitions.items():
        moves.setdefault(state, []).append((vin, vout, nxt))
    seen = {cs.initial}
    order = [cs.initial]
    queue = deque([cs.initial])
    candidates: dict[int, tuple[Valuation, ...]] = {}
    transitions: dict[tuple[int, Valuation, Valuation], int] = {}
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


# -- refinement by edge marking ---------------------------------------------------


def mark_edges_absent(
    arena: GameArena, valuation: Valuation, predicate_atoms: tuple[str, ...]
) -> int:
    """Mark absent every present env edge whose input agrees with ``valuation``
    on the predicate atoms; returns how many edges were marked.

    An edge's input projected onto the predicate atoms must equal
    ``valuation``, so nothing matches unless ``valuation`` fixes exactly the
    predicate atoms among the arena's inputs."""
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
