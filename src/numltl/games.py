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
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import BuchiAutomaton
from .valuation import Valuation, all_valuations

ENV = "env"
CTRL = "ctrl"

NodeId = tuple[str, int]


class GameError(ValueError):
    pass


@dataclass
class EnvEdge:
    valuation: Valuation
    target: int
    present: bool = True


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

    def successors(self, node: NodeId) -> list[NodeId]:
        kind, i = node
        if kind == ENV:
            return [(CTRL, e.target) for e in self.present_env_edges(i)]
        return [(ENV, e.target) for e in self.ctrl_edges[i]]

    def edge_count(self) -> tuple[int, int]:
        env = sum(len(row) for row in self.env_edges)
        ctrl = sum(len(row) for row in self.ctrl_edges)
        return env, ctrl


def _edge_key(edge) -> tuple:
    return (edge.valuation.sort_key(), edge.target)


# -- arena builders -----------------------------------------------------------


def build_buchi_game(
    automaton: BuchiAutomaton, inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> GameArena:
    """Arena over the (nondeterministic) automaton of the specification.

    The controller both picks the output valuation and resolves automaton
    nondeterminism; it wins by steering some run through accepting states
    infinitely often.  Sound for realizability, incomplete the other way.
    """
    input_valuations = list(all_valuations(inputs))
    output_valuations = list(all_valuations(outputs))

    ctrl_origin: list[tuple[int, Valuation]] = []
    env_edges: list[list[EnvEdge]] = []
    ctrl_edges: list[list[CtrlEdge]] = []
    for q in range(automaton.n_states):
        row: list[EnvEdge] = []
        for vin in input_valuations:
            cid = len(ctrl_origin)
            ctrl_origin.append((q, vin))
            row.append(EnvEdge(vin, cid))
            answers: list[CtrlEdge] = []
            seen = set()
            for vout in output_valuations:
                letter = vin.merge(vout)
                for t in automaton.transitions[q]:
                    if t.guard.matches(letter) and (vout, t.target) not in seen:
                        seen.add((vout, t.target))
                        answers.append(CtrlEdge(vout, t.target))
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


def build_safety_game(
    negated: BuchiAutomaton,
    bound: int,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
) -> GameArena:
    """Bounded-unroll safety arena over the automaton of the negated spec.

    Env nodes are universal subset-construction macro states carrying, per
    automaton state, the highest count of accepting-state visits along any
    run reaching it.  A count past the bound makes the macro unsafe; the
    macro with no live runs is absorbing and safe.
    """
    if bound < 1:
        msg = f"bound must be at least 1, got {bound}"
        raise GameError(msg)
    input_valuations = list(all_valuations(inputs))
    output_valuations = list(all_valuations(outputs))

    labels: list = []
    index: dict = {}
    env_edges: list[list[EnvEdge]] = []
    ctrl_origin: list[tuple[int, Valuation]] = []
    ctrl_edges: list[list[CtrlEdge]] = []
    unsafe: set[int] = set()

    def env_id(label) -> int:
        if label in index:
            return index[label]
        i = len(labels)
        index[label] = i
        labels.append(label)
        env_edges.append([])
        if label == UNSAFE_LABEL:
            unsafe.add(i)
        return i

    def step_macro(macro: Macro, letter: Valuation):
        best: dict[int, int] = {}
        for state, count in macro:
            for t in negated.transitions[state]:
                if not t.guard.matches(letter):
                    continue
                bumped = count + (1 if t.target in negated.accepting else 0)
                if bumped > best.get(t.target, -1):
                    best[t.target] = bumped
        if any(c > bound for c in best.values()):
            return UNSAFE_LABEL
        if not best:
            return EMPTY_LABEL
        return tuple(sorted(best.items()))

    initial_macro: Macro = ((negated.initial, 0),)
    start = env_id(initial_macro)
    queue = [start]
    expanded = {start}
    while queue:
        i = queue.pop(0)
        label = labels[i]
        if label == UNSAFE_LABEL:
            continue  # terminal: env already won
        for vin in input_valuations:
            cid = len(ctrl_origin)
            ctrl_origin.append((i, vin))
            env_edges[i].append(EnvEdge(vin, cid))
            answers: list[CtrlEdge] = []
            for vout in output_valuations:
                if label == EMPTY_LABEL:
                    target_label = EMPTY_LABEL  # no runs of the negated automaton remain
                else:
                    target_label = step_macro(label, vin.merge(vout))
                t = env_id(target_label)
                answers.append(CtrlEdge(vout, t))
                if t not in expanded:
                    expanded.add(t)
                    queue.append(t)
            ctrl_edges.append(answers)

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
    """
    attr = {n for n in base if n in alive}
    rank = {n: 0 for n in attr}
    current = 0
    while True:
        fresh: set[NodeId] = set()
        for node in alive:
            if node in attr:
                continue
            kind, i = node
            if kind == ENV:
                edges = [(CTRL, e.target) for e in arena.present_env_edges(i)]
            else:
                edges = [(ENV, e.target) for e in arena.ctrl_edges[i]]
            edges = [t for t in edges if t in alive]
            owns = kind == (ENV if owner == ENV else CTRL)
            if owns:
                if any(t in attr for t in edges):
                    fresh.add(node)
            else:
                if all(t in attr for t in edges):
                    fresh.add(node)
        if not fresh:
            return attr, rank
        current += 1
        for node in fresh:
            attr.add(node)
            rank[node] = current


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
    queue = [arena.initial]
    while queue:
        env_node = queue.pop(0)
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
    queue = [arena.initial]
    while queue:
        s = queue.pop(0)
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
    seen = {cs.initial}
    order = [cs.initial]
    queue = [cs.initial]
    candidates: dict[int, tuple[Valuation, ...]] = {}
    transitions: dict[tuple[int, Valuation, Valuation], int] = {}
    while queue:
        s = queue.pop(0)
        chosen = keep.get(s, cs.candidates.get(s, ()))
        candidates[s] = chosen
        for (state, vin, vout), nxt in cs.transitions.items():
            if state != s or vin not in chosen:
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
    on the predicate atoms; returns how many edges were marked."""
    count = 0
    for row in arena.env_edges:
        for edge in row:
            if edge.present and edge.valuation.restrict(predicate_atoms) == valuation:
                edge.present = False
                count += 1
    return count
