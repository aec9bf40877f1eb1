"""Game arenas and solvers, checked against nested-fixpoint oracles.

Regions from the attractor-based solvers must agree with direct mu-calculus
evaluation; extracted strategies are verified structurally (containment in
the owner's region, cycle properties) rather than by sampling plays.
"""

from __future__ import annotations

import copy
import random

import pytest

from numltl import speclang as sl
from numltl.automata import BuchiAutomaton, Transition, negate_and_translate, translate
from numltl.games import (
    GameArena,
    GameError,
    SuccessorTable,
    _class_index,
    build_buchi_game,
    build_safety_game,
    extract_controller,
    extract_counter_strategy,
    mark_edges_absent,
    solve,
    solve_buchi,
    solve_safety,
)
from numltl.speclang import document_formula, parse_spec
from numltl.valuation import Valuation, all_valuations
from generators import random_arena, random_formula
from oracles import (
    ObjectCtrlEdge,
    ObjectEnvEdge,
    arena_from_edges,
    buchi_win_oracle,
    cube_matches,
    object_arena,
    object_solution,
    reference_class_index,
    safety_win_oracle,
)


def pin_automaton() -> BuchiAutomaton:
    """Input a pins the run at state 0; state 1 is absorbing and accepting."""
    return BuchiAutomaton(
        atoms=("a", "b"),
        n_states=2,
        initial=0,
        transitions=(
            (
                Transition(Valuation.of({"a": True}), 0),
                Transition(Valuation.of({"a": False}), 1),
            ),
            (Transition(Valuation.of({}), 1),),
        ),
        accepting=frozenset({1}),
    )


def v(**kwargs) -> Valuation:
    return Valuation.of(kwargs)


ARBITER = """\
INPUT req1, req2
OUTPUT grant1, grant2
ALWAYS (req1 -> NEXT (grant1))
ALWAYS (req2 -> NEXT (grant2))
ALWAYS (!(grant1 && grant2))
"""

ARBITER_ASSUMED = "ASSUME ALWAYS (!(req1 && req2))\n" + ARBITER


def arena_for(text: str, objective: str, bound: int = 1) -> GameArena:
    doc = parse_spec(text)
    formula = document_formula(doc)
    atoms = doc.input_atoms() + doc.output_atoms()
    if objective == "buchi":
        return build_buchi_game(
            translate(formula, atoms), doc.input_atoms(), doc.output_atoms()
        )
    return build_safety_game(
        negate_and_translate(formula, atoms),
        bound,
        doc.input_atoms(),
        doc.output_atoms(),
    )


class TestBuchiArenaConstruction:
    def test_node_and_edge_counts(self):
        arena = build_buchi_game(pin_automaton(), ("a",), ("b",))
        assert arena.n_env == 2
        # state 1 answers both inputs alike, so they share one ctrl node
        assert arena.n_positions == 4
        assert arena.n_ctrl == 3
        assert arena.edge_count() == (3, 6)
        assert arena.env_letters == [0b01, 0b10, 0b11]
        assert arena.initial == 0
        assert arena.accepting == frozenset({1})

    def test_ctrl_nodes_record_their_origin(self):
        arena = object_arena(build_buchi_game(pin_automaton(), ("a",), ("b",)))
        assert arena.ctrl_origin[0] == (0, v(a=False))
        assert arena.ctrl_origin[1] == (0, v(a=True))
        assert arena.ctrl_origin[3] == (1, v(a=True))

    def test_ctrl_edges_resolve_nondeterminism(self):
        arena = object_arena(build_buchi_game(pin_automaton(), ("a",), ("b",)))
        # from (state 0, a=0) only the jump to state 1 matches, per output
        assert arena.ctrl_edges[0] == [ObjectCtrlEdge(v(b=False), 1), ObjectCtrlEdge(v(b=True), 1)]
        assert arena.ctrl_edges[1] == [ObjectCtrlEdge(v(b=False), 0), ObjectCtrlEdge(v(b=True), 0)]

    def test_overlapping_guards_to_same_target_are_deduplicated(self):
        automaton = BuchiAutomaton(
            atoms=("a", "b"),
            n_states=1,
            initial=0,
            transitions=(
                (
                    Transition(Valuation.of({}), 0),
                    Transition(Valuation.of({"a": True}), 0),
                ),
            ),
            accepting=frozenset({0}),
        )
        arena = build_buchi_game(automaton, ("a",), ("b",))
        for answers in object_arena(arena).ctrl_edges:
            assert len(answers) == len({(e.valuation, e.target) for e in answers})

    def test_structure_on_random_automata(self):
        rng = random.Random(801)
        for _ in range(40):
            formula = random_formula(rng, ["a", "b"], 3)
            automaton = translate(formula, ("a", "b"))
            arena = build_buchi_game(automaton, ("a",), ("b",))
            assert arena.n_env == automaton.n_states
            assert arena.n_positions == 2 * automaton.n_states
            assert automaton.n_states <= arena.n_ctrl <= arena.n_positions
            assert arena.edge_count()[0] == arena.n_ctrl
            objects = object_arena(arena)
            for cid, (q, vin) in enumerate(objects.ctrl_origin):
                for edge in objects.ctrl_edges[cid]:
                    letter = vin.merge(edge.valuation)
                    assert any(
                        t.target == edge.target and cube_matches(t.guard, letter)
                        for t in automaton.transitions[q]
                    )

    def test_zero_output_arena(self):
        formula = sl.Implies(sl.Always(sl.Atom("a")), sl.Always(sl.Atom("a")))
        arena = build_buchi_game(translate(formula, ("a",)), ("a",), ())
        # one output valuation (the empty one), yet ctrl still resolves
        # automaton nondeterminism, so answers may differ in target only
        solution = object_solution(solve_buchi(arena))
        for answers in solution.arena.ctrl_edges:
            assert {e.valuation for e in answers} <= {Valuation.of({})}
        assert solution.ctrl_region | solution.env_region == set(solution.arena.nodes())


class TestSafetyArenaConstruction:
    def counting_automaton(self) -> BuchiAutomaton:
        return BuchiAutomaton(
            atoms=("a",),
            n_states=2,
            initial=0,
            transitions=(
                (
                    Transition(Valuation.of({}), 0),
                    Transition(Valuation.of({"a": True}), 1),
                ),
                (Transition(Valuation.of({"a": True}), 1),),
            ),
            accepting=frozenset({1}),
        )

    def test_macro_states_track_maximal_visit_counts(self):
        arena = build_safety_game(self.counting_automaton(), 1, ("a",), ())
        assert arena.env_labels[0] == ((0, 0),)
        assert ((0, 0), (1, 1)) in arena.env_labels
        assert "UNSAFE" in arena.env_labels
        assert arena.n_env == 3
        assert arena.unsafe == frozenset({arena.env_labels.index("UNSAFE")})
        # the unsafe sentinel is terminal, every other env node offers both inputs
        unsafe_id = arena.env_labels.index("UNSAFE")
        env_edges = object_arena(arena).env_edges
        assert env_edges[unsafe_id] == []
        for i in range(arena.n_env):
            if i != unsafe_id:
                assert [e.valuation for e in env_edges[i]] == [
                    v(a=False),
                    v(a=True),
                ]

    def test_pinning_input_forces_the_unsafe_macro(self):
        arena = build_safety_game(self.counting_automaton(), 1, ("a",), ())
        solution = solve_safety(arena)
        assert not solution.ctrl_wins
        cs = extract_counter_strategy(solution)
        assert cs.candidates[arena.initial] == (v(a=True),)

    def test_higher_bound_needs_longer_pinning(self):
        arena = build_safety_game(self.counting_automaton(), 3, ("a",), ())
        solution = solve_safety(arena)
        assert not solution.ctrl_wins
        # counts 0..3 plus the unsafe sentinel
        assert arena.n_env == 5

    def test_dead_runs_reach_the_absorbing_safe_macro(self):
        automaton = BuchiAutomaton(
            atoms=("a",),
            n_states=1,
            initial=0,
            transitions=((Transition(Valuation.of({"a": True}), 0),),),
            accepting=frozenset({0}),
        )
        arena = build_safety_game(automaton, 1, ("a",), ())
        assert "EMPTY" in arena.env_labels
        empty_id = arena.env_labels.index("EMPTY")
        objects = object_arena(arena)
        for edge in objects.env_edges[empty_id]:
            for answer in objects.ctrl_edges[edge.target]:
                assert answer.target == empty_id
        solution = object_solution(solve_safety(arena))
        assert ("env", empty_id) in solution.ctrl_region

    def test_bound_below_one_is_rejected(self):
        with pytest.raises(GameError, match="bound"):
            build_safety_game(self.counting_automaton(), 0, ("a",), ())

    def test_construction_is_deterministic(self):
        one = build_safety_game(self.counting_automaton(), 2, ("a",), ())
        two = build_safety_game(self.counting_automaton(), 2, ("a",), ())
        assert one == two

    def test_successor_table_must_match_automaton_and_atoms(self):
        successors = SuccessorTable(self.counting_automaton(), ("a",), ())
        build_safety_game(self.counting_automaton(), 2, ("a",), (), successors)
        with pytest.raises(GameError, match="successor table"):
            build_safety_game(self.counting_automaton(), 2, (), ("a",), successors)
        other = pin_automaton()
        with pytest.raises(GameError, match="successor table"):
            build_safety_game(other, 2, other.atoms, (), successors)

    def test_ctrl_rows_answer_each_output_once_in_letter_order(self):
        formula = document_formula(parse_spec(self.TWO_OUTPUTS))
        negated = negate_and_translate(formula, ("r", "g", "h"))
        arena = build_safety_game(negated, 2, ("r",), ("g", "h"))
        n_out = len(arena.letters.outputs)
        assert n_out == 4
        assert list(arena.ctrl_start) == list(range(0, arena.n_ctrl * n_out + 1, n_out))
        assert list(arena.ctrl_letter) == list(range(n_out)) * arena.n_ctrl
        for row in object_arena(arena).ctrl_edges:
            assert [e.valuation for e in row] == list(all_valuations(("g", "h")))

    TWO_OUTPUTS = "INPUT r\nOUTPUT g, h\nALWAYS (r -> NEXT (g || h))\nALWAYS (!(g && h))\n"


# up to 256 classes the index is spread byte by byte, past that letter by
# letter; letter counts that are not multiples of 8 leave a partial top byte
@pytest.mark.parametrize(
    "n_classes, n_letters",
    [
        (1, 1),
        (1, 13),
        (2, 2),
        (2, 3),
        (13, 128),
        (255, 255),
        (255, 301),
        (256, 256),
        (256, 259),
        (256, 512),
        (257, 257),
        (257, 300),
        (300, 300),
        (300, 517),
    ],
)
def test_class_index_numbers_every_letter(n_classes, n_letters):
    rng = random.Random(n_classes * 1000 + n_letters)
    for _ in range(3):
        labels = list(range(n_classes)) + [
            rng.randrange(n_classes) for _ in range(n_letters - n_classes)
        ]
        rng.shuffle(labels)
        letter_sets = [0] * n_classes
        for letter, c in enumerate(labels):
            letter_sets[c] |= 1 << letter
        index = _class_index(letter_sets, n_letters)
        assert len(index) == n_letters
        assert list(index) == labels == reference_class_index(letter_sets, n_letters)


# the rows of a class index group the inputs whose slices are equal: rows 1,
# 2, 4 or 8 bytes wide are read as ints, wider ones sliced, and an index of
# more than 256 classes holds 4 bytes per letter; each distinct row's
# classes are kept once, in order of its first input
@pytest.mark.parametrize("n_inputs, n_outputs", [(0, 0), (1, 0), (2, 1), (3, 2), (2, 3), (1, 4)])
@pytest.mark.parametrize("wide", [False, True])
def test_successor_rows_group_the_inputs_with_equal_slices(n_inputs, n_outputs, wide):
    from array import array

    inputs = tuple(f"i{k}" for k in range(n_inputs))
    outputs = tuple(f"o{k}" for k in range(n_outputs))
    automaton = BuchiAutomaton(inputs + outputs, 1, 0, ((),), frozenset())
    table = SuccessorTable(automaton, inputs, outputs)
    n_in, n_out = 2**n_inputs, 2**n_outputs
    rng = random.Random(n_inputs * 100 + n_outputs * 10 + wide)
    for _ in range(20):
        # a few distinct rows, each input taking one of them
        pool = [[rng.randrange(300 if wide else 3) for _ in range(n_out)] for _ in range(3)]
        labels = [c for _ in range(n_in) for c in rng.choice(pool)]
        index = array("I", labels) if wide else bytes(labels)
        groups: dict[tuple, int] = {}
        for j in range(n_in):
            row = tuple(labels[j * n_out : (j + 1) * n_out])
            groups[row] = groups.get(row, 0) | 1 << j
        row_class, row_letters = table._rows(index)
        assert row_letters == tuple(groups.values())
        assert list(row_class) == [c for row in groups for c in row]
        if len(groups) == n_in:  # nothing merges: the index itself is used
            assert row_class is index


class TestStuckNodeConventions:
    def test_stuck_env_node_is_controller_winning(self):
        arena = arena_from_edges("buchi", ("a",), (), [[]], [])
        assert ("env", 0) in object_solution(solve_buchi(arena)).ctrl_region

    def test_stuck_ctrl_node_is_env_winning(self):
        arena = arena_from_edges(
            "buchi",
            ("a",),
            (),
            [[ObjectEnvEdge(v(a=True), 0, bits=1)]],
            [[]],
            accepting=frozenset({0}),
        )
        solution = object_solution(solve_buchi(arena))
        assert solution.env_region == frozenset({("env", 0), ("ctrl", 0)})

    def test_unsafe_beats_stuckness(self):
        arena = arena_from_edges("safety", ("a",), (), [[]], [], unsafe=frozenset({0}))
        assert ("env", 0) in object_solution(solve_safety(arena)).env_region

    def test_edges_must_be_numbered_as_their_ctrl_nodes(self):
        with pytest.raises(GameError, match="ctrl node 0"):
            arena_from_edges("buchi", ("a",), (), [[ObjectEnvEdge(v(a=True), 1, bits=1)]], [[]])
        with pytest.raises(GameError, match="one ctrl row per env edge"):
            arena_from_edges("buchi", ("a",), (), [[ObjectEnvEdge(v(a=True), 0, bits=1)]], [])


class TestBuchiSolving:
    def test_pin_fixture_regions(self):
        arena = build_buchi_game(pin_automaton(), ("a",), ("b",))
        solution = object_solution(solve_buchi(arena))
        assert solution.env_region == frozenset({("env", 0), ("ctrl", 1)})
        assert not solution.ctrl_wins

    def test_pin_fixture_counter_strategy(self):
        arena = build_buchi_game(pin_automaton(), ("a",), ("b",))
        cs = extract_counter_strategy(solve_buchi(arena))
        assert cs.states == (0,)
        assert cs.candidates == {0: (v(a=True),)}
        assert cs.transitions == {
            (0, v(a=True), v(b=False)): 0,
            (0, v(a=True), v(b=True)): 0,
        }
        assert cs.spoiled == frozenset()

    def test_regions_match_fixpoint_oracle(self):
        rng = random.Random(802)
        for k in range(100):
            solution = object_solution(solve_buchi(random_arena(rng, "buchi", merge=k % 2 == 0)))
            assert solution.ctrl_region == buchi_win_oracle(solution.arena)
            assert solution.ctrl_region | solution.env_region == set(solution.arena.nodes())
            assert not (solution.ctrl_region & solution.env_region)


class TestSafetySolving:
    def test_regions_match_fixpoint_oracle(self):
        rng = random.Random(803)
        for k in range(100):
            solution = object_solution(solve_safety(random_arena(rng, "safety", merge=k % 2 == 0)))
            assert solution.ctrl_region == safety_win_oracle(solution.arena)
            assert solution.ctrl_region | solution.env_region == set(solution.arena.nodes())
            assert not (solution.ctrl_region & solution.env_region)

    def test_objective_mismatch_is_rejected(self):
        rng = random.Random(804)
        arena = random_arena(rng, "safety")
        with pytest.raises(GameError, match="buchi"):
            solve_buchi(arena)
        arena = random_arena(rng, "buchi")
        with pytest.raises(GameError, match="safety"):
            solve_safety(arena)
        assert object_solution(solve(arena)).ctrl_region == buchi_win_oracle(object_arena(arena))


def _ctrl_play_graph(solution) -> dict[int, list[int]]:
    """Env-node graph of all plays where ctrl follows its strategy."""
    solution = object_solution(solution)
    arena = solution.arena
    graph: dict[int, list[int]] = {}
    for i in range(arena.n_env):
        if ("env", i) not in solution.ctrl_region:
            continue
        succ = []
        for edge in arena.present_env_edges(i):
            answer = solution.ctrl_strategy.get(edge.target)
            assert answer is not None, "strategy must cover reachable ctrl nodes"
            assert ("env", answer.target) in solution.ctrl_region
            succ.append(answer.target)
        graph[i] = succ
    return graph


def _env_play_graph(solution) -> dict[int, list[int]]:
    """Env-node graph of all plays where env follows its strategy."""
    solution = object_solution(solution)
    arena = solution.arena
    graph: dict[int, list[int]] = {}
    for i in range(arena.n_env):
        if ("env", i) not in solution.env_region:
            continue
        choice = solution.env_strategy.get(i)
        if choice is None:
            graph[i] = []
            continue
        succ = []
        for answer in arena.ctrl_edges[choice.target]:
            assert ("env", answer.target) in solution.env_region
            succ.append(answer.target)
        graph[i] = succ
    return graph


def _is_acyclic(graph: dict[int, list[int]]) -> bool:
    state: dict[int, int] = {}

    def dfs(u: int) -> bool:
        state[u] = 1
        for w in graph.get(u, ()):
            if state.get(w) == 1:
                return False
            if w in graph and state.get(w) is None and not dfs(w):
                return False
        state[u] = 2
        return True

    return all(state.get(u) == 2 or dfs(u) for u in list(graph))


def _on_cycle(graph: dict[int, list[int]], node: int) -> bool:
    seen = set(graph.get(node, ()))
    queue = list(seen)
    if node in seen:
        return True
    while queue:
        u = queue.pop()
        for w in graph.get(u, ()):
            if w == node:
                return True
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


class TestStrategySoundness:
    def test_buchi_ctrl_strategy_cycles_through_accepting(self):
        rng = random.Random(805)
        for _ in range(80):
            arena = random_arena(rng, "buchi")
            solution = solve_buchi(arena)
            graph = _ctrl_play_graph(solution)
            trimmed = {
                u: [w for w in succ if w not in arena.accepting]
                for u, succ in graph.items()
                if u not in arena.accepting
            }
            assert _is_acyclic(trimmed)

    def test_buchi_env_strategy_cycles_avoid_accepting(self):
        rng = random.Random(806)
        for _ in range(80):
            arena = random_arena(rng, "buchi")
            solution = solve_buchi(arena)
            graph = _env_play_graph(solution)
            for node in graph:
                if node in arena.accepting:
                    assert not _on_cycle(graph, node)

    def test_safety_ctrl_strategy_never_reaches_unsafe(self):
        rng = random.Random(807)
        for _ in range(80):
            arena = random_arena(rng, "safety")
            solution = solve_safety(arena)
            graph = _ctrl_play_graph(solution)
            for succ in graph.values():
                for w in succ:
                    assert w not in arena.unsafe

    def test_safety_env_strategy_terminates_in_unsafe_or_stuck_ctrl(self):
        rng = random.Random(808)
        for _ in range(80):
            arena = random_arena(rng, "safety")
            solution = solve_safety(arena)
            graph = _env_play_graph(solution)
            assert _is_acyclic(graph)
            solution = object_solution(solution)
            for u, succ in graph.items():
                if succ:
                    continue
                choice = solution.env_strategy.get(u)
                if choice is None:
                    assert u in arena.unsafe
                else:
                    assert solution.arena.ctrl_edges[choice.target] == []


class TestCounterStrategy:
    def _restrict_and_resolve(self, arena, cs, pick) -> bool:
        restricted = copy.deepcopy(arena)
        for s in cs.states:
            chosen = cs.candidates.get(s, ())
            if not chosen:
                continue
            keep = 1 << arena.letters.inputs.index(pick(chosen, key=lambda val: val.sort_key()))
            for k in range(arena.env_start[s], arena.env_start[s + 1]):
                restricted.present[k] &= keep
        return solve(restricted).ctrl_wins

    def test_any_single_candidate_choice_stays_winning(self):
        rng = random.Random(809)
        tried = 0
        for _ in range(120):
            objective = "buchi" if rng.random() < 0.5 else "safety"
            arena = random_arena(rng, objective)
            solution = solve(arena)
            if solution.ctrl_wins:
                continue
            tried += 1
            cs = extract_counter_strategy(solution)
            assert not self._restrict_and_resolve(arena, cs, min)
            assert not self._restrict_and_resolve(arena, cs, max)
        assert tried >= 20

    def test_counter_states_live_in_env_region(self):
        rng = random.Random(810)
        for _ in range(60):
            arena = random_arena(rng, "buchi" if rng.random() < 0.5 else "safety")
            solution = solve(arena)
            if solution.ctrl_wins:
                continue
            cs = extract_counter_strategy(solution)
            env_region = object_solution(solution).env_region
            for s in cs.states:
                assert ("env", s) in env_region
                if s not in cs.spoiled:
                    assert cs.candidates[s]
            if arena.objective == "buchi":
                assert cs.spoiled == frozenset()
            for s in cs.spoiled:
                assert s in arena.unsafe

    def test_extraction_requires_env_winning_initial(self):
        formula = sl.Always(sl.Implies(sl.Atom("a"), sl.Next(sl.Atom("b"))))
        arena = build_buchi_game(translate(formula, ("a", "b")), ("a",), ("b",))
        solution = solve_buchi(arena)
        assert solution.ctrl_wins
        with pytest.raises(GameError, match="controller-winning"):
            extract_counter_strategy(solution)

    def test_keeping_every_candidate_changes_nothing(self):
        solution = solve_buchi(build_buchi_game(pin_automaton(), ("a",), ("b",)))
        cs = extract_counter_strategy(solution)
        every = tuple(j for j, _ in solution.candidate_edges(0))
        same = extract_counter_strategy(solution, {0: every})
        assert same == cs

    def test_kept_edges_trim_unreachable_states(self):
        # no accepting node: env wins everywhere and every edge is a candidate;
        # input a=0 leads to state 1, a=1 to state 2, and state 2 stays put
        a0, a1 = v(a=False), v(a=True)
        stay = [ObjectCtrlEdge(v(b=False), 2), ObjectCtrlEdge(v(b=True), 2)]
        arena = arena_from_edges(
            "buchi",
            ("a",),
            ("b",),
            [
                [ObjectEnvEdge(a0, 0, bits=0), ObjectEnvEdge(a1, 1, bits=1)],
                [ObjectEnvEdge(a0, 2, bits=0)],
                [ObjectEnvEdge(a1, 3, bits=1)],
            ],
            [
                [ObjectCtrlEdge(v(b=False), 1)],
                [ObjectCtrlEdge(v(b=True), 2)],
                [ObjectCtrlEdge(v(b=True), 0)],
                stay,
            ],
        )
        solution = solve(arena)
        assert extract_counter_strategy(solution).states == (0, 1, 2)
        # ``keep`` names input letters: letter 1 is a=1
        kept = extract_counter_strategy(solution, {0: (1,)})
        assert kept.states == (0, 2)
        assert kept.candidates == {0: (a1,), 2: (a1,)}
        assert kept.transitions == {
            (0, a1, v(b=True)): 2,
            (2, a1, v(b=False)): 2,
            (2, a1, v(b=True)): 2,
        }
        # a state kept without edges is no spoiled state: it has candidates
        stuck = extract_counter_strategy(solution, {0: (0,), 1: ()})
        assert stuck.states == (0, 1)
        assert stuck.candidates == {0: (a0,), 1: ()}
        assert stuck.spoiled == frozenset()


class TestControllerExtraction:
    def test_grant_after_request(self):
        formula = sl.Always(sl.Implies(sl.Atom("a"), sl.Next(sl.Atom("b"))))
        arena = build_buchi_game(translate(formula, ("a", "b")), ("a",), ("b",))
        controller = extract_controller(solve_buchi(arena))
        assert controller.inputs == ("a",)
        assert controller.outputs == ("b",)
        state = controller.initial
        trace = []
        for bit in [True, False, True, True, False, False]:
            out, state = controller.step[(state, v(a=bit))]
            trace.append((bit, out["b"]))
        for (a_now, _), (_, b_next) in zip(trace, trace[1:]):
            if a_now:
                assert b_next

    def test_controller_is_total_over_inputs(self):
        formula = sl.Always(sl.Implies(sl.Atom("a"), sl.Next(sl.Atom("b"))))
        arena = build_buchi_game(translate(formula, ("a", "b")), ("a",), ("b",))
        controller = extract_controller(solve_buchi(arena))
        for state in range(controller.n_states):
            for vin in all_valuations(("a",)):
                assert (state, vin) in controller.step

    def test_extraction_requires_ctrl_winning_initial(self):
        arena = build_buchi_game(pin_automaton(), ("a",), ("b",))
        with pytest.raises(GameError, match="controller-winning"):
            extract_controller(solve_buchi(arena))


class TestEdgeMarking:
    def test_marking_counts_and_flips_presence(self):
        arena = build_buchi_game(pin_automaton(), ("a",), ("b",))
        count = mark_edges_absent(arena, v(a=True))
        assert count == 2
        assert mark_edges_absent(arena, v(a=True)) == 0
        for row in object_arena(arena).env_edges:
            for edge in row:
                assert edge.present == (not edge.valuation["a"])

    def test_marking_flips_the_verdict(self):
        arena = build_buchi_game(pin_automaton(), ("a",), ("b",))
        assert not solve_buchi(arena).ctrl_wins
        mark_edges_absent(arena, v(a=True))
        assert solve_buchi(arena).ctrl_wins

    def test_marking_matches_on_a_projection(self):
        formula = sl.Always(sl.Implies(sl.Atom("p"), sl.Next(sl.Atom("b"))))
        automaton = translate(formula, ("p", "q", "b"))
        arena = build_buchi_game(automaton, ("p", "q"), ("b",))
        count = mark_edges_absent(arena, v(p=True))
        assert count == 2 * automaton.n_states
        for row in object_arena(arena).env_edges:
            for edge in row:
                assert edge.present == (not edge.valuation["p"])


class TestSpecificationGames:
    def test_unassumed_arbiter_is_unrealizable_on_both_routes(self):
        assert not solve(arena_for(ARBITER, "buchi")).ctrl_wins
        assert not solve(arena_for(ARBITER, "safety", bound=1)).ctrl_wins

    def test_unassumed_arbiter_counter_strategy_pins_both_requests(self):
        solution = solve(arena_for(ARBITER, "safety", bound=1))
        cs = extract_counter_strategy(solution)
        both = v(req1=True, req2=True)
        assert any(both in cands for cands in cs.candidates.values())

    def test_assumed_arbiter_is_realizable_on_the_safety_route(self):
        # the buchi route loses this one: the implication shape forces an
        # up-front commitment to either violating the assumption or meeting
        # the guarantees, and neither branch alone wins
        assert solve(arena_for(ARBITER_ASSUMED, "safety", bound=3)).ctrl_wins
        assert not solve(arena_for(ARBITER_ASSUMED, "buchi")).ctrl_wins

    def test_tautology_is_realizable_at_the_smallest_bound(self):
        formula = sl.Implies(sl.Always(sl.Atom("a")), sl.Always(sl.Atom("a")))
        negated = negate_and_translate(formula, ("a",))
        arena = build_safety_game(negated, 1, ("a",), ())
        assert solve_safety(arena).ctrl_wins

    def test_buchi_route_can_miss_wins_the_safety_route_finds(self):
        # hedging between "a forever" and "eventually not a" needs lookahead
        # the nondeterministic automaton game does not grant, so the route
        # is one-sided: a ctrl win is trustworthy, a ctrl loss is not
        formula = sl.Implies(sl.Always(sl.Atom("a")), sl.Always(sl.Atom("a")))
        arena = build_buchi_game(translate(formula, ("a",)), ("a",), ())
        assert not solve_buchi(arena).ctrl_wins

    def test_always_false_spec_loses_everywhere(self):
        automaton = translate(sl.Always(sl.FalseFormula()), ("a",))
        arena = build_buchi_game(automaton, ("a",), ())
        solution = object_solution(solve_buchi(arena))
        assert solution.ctrl_region == frozenset()
