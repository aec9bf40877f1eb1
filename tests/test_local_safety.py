"""The on-the-fly safety solve against the whole arena and its attractor.

``solve`` on a ``SafetyGame`` expands only the macro-states that decide the
initial node.  On the bundled specs, the arbiter family, generated
documents and random automata, at bounds 1, 2 and 4, with random input
letters marked absent before the first solve and between solves, the
explored arena and its ranks must agree with ``build_safety_game`` and
``solve_safety``: every explored node is a node of the whole arena with the
same rows and present letters, every node the search decides has the whole
solve's winner, a controller win extracts the same controller, and every
single-candidate restriction of a counter-strategy wins in the whole arena.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from numltl import cegar
from numltl.abstraction import abstract_spec
from numltl.cegar import CegarConfig, Realizable, Transcript, synthesize
from numltl.games import (
    UNSAFE_LABEL,
    SafetyGame,
    SuccessorTable,
    build_safety_game,
    counter_edges,
    extract_controller,
    extract_counter_strategy,
    mark_edges_absent,
    solve,
    solve_safety,
)
from numltl.automata import negate_and_translate
from numltl.speclang import document_formula, parse_spec
from numltl.valuation import Valuation

from generators import random_automaton, random_refinement_document, random_synthesis_document
from oracles import whole_arena_build

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATHS = sorted((ROOT / "specs").glob("*.spec"))
SPEC_PATHS += sorted((ROOT / "tests" / "data").glob("*.spec"))
BOUNDS = (1, 2, 4)


def rows(arena, i: int) -> list[tuple]:
    """Env node ``i``'s rows: letters, present letters and target labels."""
    labels, start = arena.env_labels, arena.ctrl_start
    return [
        (
            arena.env_letters[k],
            arena.present[k],
            tuple(labels[t] for t in arena.ctrl_target[start[k] : start[k + 1]]),
        )
        for k in range(arena.env_start[i], arena.env_start[i + 1])
    ]


def is_acyclic(graph: dict[int, set[int]]) -> bool:
    state = dict.fromkeys(graph, 0)  # 0 new, 1 on the path, 2 done
    for root in graph:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            nxt = next(successors, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state[nxt] == 1:
                return False
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(graph[nxt])))
    return True


def assert_counter_strategy_wins(local, whole, whole_solution, keep) -> None:
    """Every state of the counter-strategy is an env-winning node of the
    whole arena, its candidates are present inputs there, every output
    answering one leads where the whole arena leads, and the moves form an
    acyclic graph whose sinks are the unsafe node: every choice of one
    candidate per state ends every play in the unsafe node."""
    cs = extract_counter_strategy(local, keep)
    labels = local.arena.env_labels
    letters = whole.letters
    index = {label: f for f, label in enumerate(whole.env_labels)}
    graph: dict[int, set[int]] = {}
    for s in cs.states:
        f = index[labels[s]]
        assert whole_solution.env_rank[f] >= 0
        if not cs.candidates[s]:
            assert s in cs.spoiled and labels[s] == UNSAFE_LABEL
        moves = {}
        for letter_set, present, targets in rows(whole, f):
            for j in range(len(letters.inputs)):
                if letter_set >> j & 1:
                    moves[letters.inputs[j]] = (present >> j & 1, targets)
        graph[s] = set()
        for vin in cs.candidates[s]:
            present, targets = moves[vin]
            assert present
            for o, target in enumerate(targets):
                nxt = cs.transitions[(s, vin, letters.outputs[o])]
                assert labels[nxt] == target
                graph[s].add(nxt)
    assert is_acyclic(graph)


def assert_agrees(local, whole, rng: random.Random) -> None:
    """The on-the-fly solution ``local`` against the whole ``arena``."""
    whole_solution = solve_safety(whole)
    arena = local.arena
    index = {label: f for f, label in enumerate(whole.env_labels)}
    n_env, whole_n_env = arena.n_env, whole.n_env
    for i, label in enumerate(arena.env_labels):
        f = index[label]
        rank, whole_rank = local.env_rank[i], whole_solution.env_rank[f]
        if label == UNSAFE_LABEL:
            assert rank == whole_rank == 0
        if arena.env_start[i] == arena.env_start[i + 1]:
            continue  # reached, not expanded
        assert rows(arena, i) == rows(whole, f)
        if rank >= 0:
            assert whole_rank >= 0
        elif local.ctrl_wins:  # the nodes left standing are closed: won
            assert whole_rank < 0
        local_rows = range(arena.env_start[i], arena.env_start[i + 1])
        whole_rows = range(whole.env_start[f], whole.env_start[f + 1])
        for k, w in zip(local_rows, whole_rows):
            if local.env_rank[n_env + k] >= 0:
                assert whole_solution.env_rank[whole_n_env + w] >= 0
            elif local.ctrl_wins and rank < 0 and arena.present[k]:
                assert whole_solution.env_rank[whole_n_env + w] < 0
    # the documented ranks: lost env nodes 2, 4, 6, ... in loss order, and
    # a ctrl node whose targets are all lost one above the last of them
    lost = sorted(r for r in local.env_rank[:n_env] if r > 0)
    assert lost == list(range(2, 2 * len(lost) + 1, 2))
    for k in range(arena.n_ctrl):
        row = arena.ctrl_target[arena.ctrl_start[k] : arena.ctrl_start[k + 1]]
        targets = [local.env_rank[t] for t in row]
        expected = 1 + max(targets) if min(targets) >= 0 else -1
        assert local.env_rank[n_env + k] == expected
    assert local.ctrl_wins == whole_solution.ctrl_wins
    if local.ctrl_wins:
        assert extract_controller(local) == extract_controller(whole_solution)
        return
    assert_counter_strategy_wins(local, whole, whole_solution, None)
    keep = {
        s: tuple(sorted(rng.sample([j for j, _ in pairs], rng.randint(1, len(pairs)))))
        for s, pairs in counter_edges(local).items()
        if pairs
    }
    assert_counter_strategy_wins(local, whole, whole_solution, keep)


def random_cube(rng: random.Random, inputs: tuple[str, ...]) -> Valuation:
    return Valuation.of({name: rng.random() < 0.5 for name in inputs if rng.random() < 0.7})


def check_game(successors: SuccessorTable, bound: int, rng: random.Random) -> int:
    """Solve on the fly and whole, with a random cube marked before the
    first solve and another before each of two more; returns how many
    solves the environment won."""
    game = SafetyGame(successors, bound)
    whole = SafetyGame(successors, bound).arena()
    env_wins = 0
    for round_ in range(3):
        if round_ or rng.random() < 0.5:
            cube = random_cube(rng, successors.inputs)
            mark_edges_absent(game, cube)
            mark_edges_absent(whole, cube)
        local = solve(game)
        assert_agrees(local, whole, rng)
        env_wins += not local.ctrl_wins
    return env_wins


def spec_table(doc) -> SuccessorTable:
    spec, _ = abstract_spec(doc)
    work, _ = cegar._encoded(spec, CegarConfig())
    return cegar._successor_table(work)


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda path: path.stem)
def test_bundled_and_arbiter_games_match_the_whole_arena(path):
    successors = spec_table(parse_spec(path.read_text()))
    rng = random.Random(path.stem)
    for bound in BOUNDS:
        check_game(successors, bound, rng)


def test_generated_document_games_match_the_whole_arena():
    rng = random.Random(2301)
    env_wins = 0
    for n in range(40):
        make = random_synthesis_document if n % 2 else random_refinement_document
        successors = spec_table(make(rng))
        for bound in BOUNDS:
            env_wins += check_game(successors, bound, rng)
    assert 100 <= env_wins <= 260  # of 360 solves: both winners well represented


def test_random_automaton_games_match_the_whole_arena():
    rng = random.Random(2302)
    atoms = ("a", "b", "c", "d")
    env_wins = 0
    for n in range(150):
        order = rng.sample(atoms, len(atoms))
        split = rng.randint(1, 3)
        shape = ("random", "transient", "prefix_entry")[n % 3]
        automaton = random_automaton(rng, order, shape)
        successors = SuccessorTable(automaton, tuple(order[:split]), tuple(order[split:]))
        for bound in BOUNDS:
            env_wins += check_game(successors, bound, rng)
    assert 300 <= env_wins <= 1050  # of 1,350 solves


def test_synthesis_verdicts_match_whole_arena_solves(monkeypatch):
    """The refinement loop on-the-fly and on whole arenas, on the bundled
    specs, the arbiter family and generated documents: the same verdict and
    bound, and the same controller wherever both realize."""
    rng = random.Random(2303)
    documents = [parse_spec(path.read_text()) for path in SPEC_PATHS]
    documents += [random_synthesis_document(rng) for _ in range(30)]
    documents += [random_refinement_document(rng) for _ in range(30)]
    realized = 0
    for doc in documents:
        cfg = CegarConfig(max_bound=4)
        local = synthesize(doc, cfg, Transcript())
        with monkeypatch.context() as patched:
            patched.setattr(cegar, "_build_arena", whole_arena_build)
            whole = synthesize(doc, cfg, Transcript())
        assert type(local) is type(whole)
        assert getattr(local, "bound", None) == getattr(whole, "bound", None)
        if isinstance(local, Realizable):
            assert local.controller == whole.controller
            realized += 1
    assert realized >= 20


# -- the game object ---------------------------------------------------------------


def arbiter_table() -> SuccessorTable:
    return spec_table(parse_spec((ROOT / "specs" / "threshold_arbiter.spec").read_text()))


def test_games_are_equal_when_they_are_the_same_game():
    successors = arbiter_table()
    other = arbiter_table()  # a fresh translation of the same formula
    game, same = SafetyGame(successors, 1), SafetyGame(other, 1)
    solve(game)  # expanded or not, the game is the same
    assert game == same
    assert game != SafetyGame(successors, 2)
    cube = Valuation.of({successors.inputs[0]: True})
    mark_edges_absent(game, cube)
    assert game != same
    mark_edges_absent(same, cube)
    assert game == same


def test_marking_counts_letters_once_and_reaches_later_expansions():
    successors = arbiter_table()
    game = SafetyGame(successors, 1)
    cube = Valuation.of({successors.inputs[0]: True})
    half = len(game.letters.inputs) // 2
    assert mark_edges_absent(game, cube) == half
    assert mark_edges_absent(game, cube) == 0
    assert mark_edges_absent(game, Valuation.of({"no_such_input": True})) == 0
    arena = solve(game).arena
    whole = build_safety_game(successors.automaton, 1, successors.inputs, successors.outputs)
    mark_edges_absent(whole, cube)
    index = {label: f for f, label in enumerate(whole.env_labels)}
    for i, label in enumerate(arena.env_labels):
        if arena.env_start[i] != arena.env_start[i + 1]:
            assert rows(arena, i) == rows(whole, index[label])


def test_rows_try_their_outputs_in_rank_order():
    """Over outputs ``b, a`` the output letters in rank order are a=0,b=0,
    then a=0,b=1, then a=1,b=0.  Emitting ``b`` calls for ``a`` next, so
    b=1,a=0 (the rank-lowest winning output) leads elsewhere than a=1,b=0
    (the lowest in declared atom order): the solve must point at the first,
    expand where it leads, and answer as the whole solve does."""
    doc = parse_spec("INPUT r\nOUTPUT b, a\nALWAYS (a || b)\nALWAYS (b -> NEXT (a))\n")
    inputs, outputs = doc.input_atoms(), doc.output_atoms()
    assert outputs == ("b", "a")
    negated = negate_and_translate(document_formula(doc), inputs + outputs)
    successors = SuccessorTable(negated, inputs, outputs)
    local = solve(SafetyGame(successors, 1))
    assert local.ctrl_wins
    whole = SafetyGame(successors, 1).arena()
    assert_agrees(local, whole, random.Random(0))
    first = extract_controller(local).step[(0, Valuation.of({"r": False}))]
    assert first[0] == Valuation.of({"a": False, "b": True})


def test_expanded_count_leaves_out_the_nodes_only_reached():
    successors = arbiter_table()
    whole = build_safety_game(successors.automaton, 1, successors.inputs, successors.outputs)
    assert whole.n_expanded == whole.n_env
    arena = solve(SafetyGame(successors, 1)).arena
    reached = {i for i in range(arena.n_env) if arena.env_start[i] == arena.env_start[i + 1]}
    assert arena.n_expanded == arena.n_env - len(reached - arena.unsafe)
    assert arena.n_expanded < whole.n_env
