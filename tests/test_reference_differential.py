"""The bit-packed arena builders, the memoised interned tableau and its
int-ranked degeneralization and simplification, the masked edge marking and
the linear attractor against the object-level implementations they replaced
(kept in ``oracles.py``): every observable must agree exactly.
"""

from __future__ import annotations

import copy
import random
from pathlib import Path

import pytest

from numltl import speclang as sl
from numltl.abstraction import abstract_spec
from numltl.automata import (
    _expand,
    _intern,
    negate_and_translate,
    negation_normal_form,
    translate,
)
from numltl.cegar import CegarConfig, _encoded
from numltl.games import (
    CTRL,
    ENV,
    SuccessorTable,
    _attractor,
    build_buchi_game,
    build_safety_game,
    mark_edges_absent,
)
from numltl.speclang import parse_spec
from numltl.valuation import Valuation

from generators import random_arena, random_formula
from oracles import (
    arena_shape,
    reference_attractor,
    reference_buchi_game,
    reference_expand,
    reference_mark_edges_absent,
    reference_safety_game,
    reference_translate,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
SPECS = ("threshold_arbiter", "triple_sensor_arbiter", "error_monitor")


def input_bits(valuation: Valuation, inputs: tuple[str, ...]) -> int:
    return sum(1 << k for k, name in enumerate(inputs) if valuation[name])


def assert_same_arena(arena, reference) -> None:
    assert arena_shape(arena) == reference
    for row in arena.env_edges:
        for edge in row:
            assert edge.bits == input_bits(edge.valuation, arena.inputs)


def assert_same_attractors(arena) -> None:
    nodes = set(arena.nodes())
    if arena.objective == "safety":
        goals = [(ENV, {(ENV, u) for u in arena.unsafe})]
    else:
        goals = [(CTRL, {(ENV, q) for q in arena.accepting})]
    goals.append((CTRL if goals[0][0] == ENV else ENV, {(ENV, arena.initial)}))
    for owner, base in goals:
        assert _attractor(arena, owner, base, nodes) == reference_attractor(
            arena, owner, base, nodes
        )


def game_inputs(name: str):
    """Formula and atoms of the game ``synthesize`` builds for a bundled spec."""
    spec, _ = abstract_spec(parse_spec((SPEC_DIR / f"{name}.spec").read_text()))
    work, _ = _encoded(spec, CegarConfig())
    return work.game_formula(), work.input_atoms(), work.output_atoms()


@pytest.mark.parametrize("name", SPECS)
def test_bundled_spec_automata_match_reference(name):
    formula, inputs, outputs = game_inputs(name)
    atoms = inputs + outputs
    assert translate(formula, atoms) == reference_translate(formula, atoms)
    assert negate_and_translate(formula, atoms) == reference_translate(
        sl.Not(formula), atoms
    )


def assert_same_node_sequence(formula) -> None:
    """The memoised expansion creates the worklist expansion's nodes in the
    same order, with the same obligations and the same predecessors."""
    normal = negation_normal_form(formula)
    table = _intern(normal)
    reference = reference_expand(normal)
    position = {node.node_id: k for k, node in enumerate(reference)}
    position[-1] = -1

    def formulas(mask: int) -> set:
        return {f for rank, f in enumerate(table.formulas) if mask >> rank & 1}

    nodes = _expand(table)
    assert len(nodes) == len(reference)
    for node, expected in zip(nodes, reference):
        assert formulas(node.old) == expected.old
        assert formulas(node.nxt) == expected.nxt
        assert sorted(node.incoming) == sorted(position[i] for i in expected.incoming)


@pytest.mark.parametrize("name", SPECS)
def test_bundled_spec_tableau_nodes_match_reference(name):
    formula, _, _ = game_inputs(name)
    assert_same_node_sequence(formula)
    assert_same_node_sequence(sl.Not(formula))


def test_random_formula_tableau_nodes_match_reference():
    rng = random.Random(3305)
    for _ in range(150):
        assert_same_node_sequence(random_formula(rng, ["a", "b", "c", "d", "e"], 5))


@pytest.mark.parametrize("name", SPECS)
def test_bundled_spec_buchi_arena_matches_reference(name):
    formula, inputs, outputs = game_inputs(name)
    automaton = translate(formula, inputs + outputs)
    arena = build_buchi_game(automaton, inputs, outputs)
    assert_same_arena(arena, reference_buchi_game(automaton, inputs, outputs))
    assert_same_attractors(arena)


# error_monitor is decided at bound 2; the reference builder needs about
# 25 s for its bound-4 arena, so its larger bounds are left to the random
# formulas below
@pytest.mark.parametrize(
    "name, bound",
    [(name, bound) for name in SPECS[:2] for bound in (1, 2, 3, 4)]
    + [("error_monitor", 1), ("error_monitor", 2)],
)
def test_bundled_spec_safety_arena_matches_reference(name, bound):
    formula, inputs, outputs = game_inputs(name)
    negated = negate_and_translate(formula, inputs + outputs)
    arena = build_safety_game(negated, bound, inputs, outputs)
    assert_same_arena(arena, reference_safety_game(negated, bound, inputs, outputs))
    assert_same_attractors(arena)


def test_random_formulas_give_the_reference_automata_and_arenas():
    rng = random.Random(3301)
    atoms = ["a", "b", "c", "d"]
    for _ in range(150):
        formula = random_formula(rng, atoms, 4)
        order = rng.sample(atoms, len(atoms))  # arena atom order need not be sorted
        split = rng.randint(0, 3)
        inputs, outputs = tuple(order[:split]), tuple(order[split:])
        automaton = translate(formula, inputs + outputs)
        assert automaton == reference_translate(formula, inputs + outputs)
        negated = negate_and_translate(formula, inputs + outputs)
        assert negated == reference_translate(sl.Not(formula), inputs + outputs)

        assert_same_arena(
            build_buchi_game(automaton, inputs, outputs),
            reference_buchi_game(automaton, inputs, outputs),
        )
        for bound in (1, 2, 3, 4):
            arena = build_safety_game(negated, bound, inputs, outputs)
            assert_same_arena(
                arena, reference_safety_game(negated, bound, inputs, outputs)
            )
        assert_same_attractors(arena)


def assert_shared_table_builds_match(negated, bounds, inputs, outputs) -> None:
    """One successor table serves every bound, filled in increasing bound
    order and then reused in decreasing order."""
    references = {
        bound: reference_safety_game(negated, bound, inputs, outputs) for bound in bounds
    }
    successors = SuccessorTable(negated, inputs, outputs)
    for bound in (*bounds, *reversed(bounds)):
        arena = build_safety_game(negated, bound, inputs, outputs, successors)
        assert_same_arena(arena, references[bound])
        assert_same_attractors(arena)


# error_monitor's reference arenas stop at bound 2, as above
@pytest.mark.parametrize(
    "name, bounds",
    [(name, (1, 2, 4, 8)) for name in SPECS[:2]] + [("error_monitor", (1, 2))],
)
def test_bundled_spec_arenas_from_one_successor_table_match_reference(name, bounds):
    formula, inputs, outputs = game_inputs(name)
    negated = negate_and_translate(formula, inputs + outputs)
    assert_shared_table_builds_match(negated, bounds, inputs, outputs)


def test_random_formula_arenas_from_one_successor_table_match_reference():
    rng = random.Random(3304)
    atoms = ["a", "b", "c", "d"]
    for _ in range(40):
        formula = random_formula(rng, atoms, 4)
        order = rng.sample(atoms, len(atoms))
        split = rng.randint(0, 3)
        inputs, outputs = tuple(order[:split]), tuple(order[split:])
        negated = negate_and_translate(formula, inputs + outputs)
        assert_shared_table_builds_match(negated, (1, 2, 4, 8), inputs, outputs)


def test_attractor_matches_reference_on_random_arenas():
    rng = random.Random(3302)
    for k in range(400):
        arena = random_arena(rng, "buchi" if k % 2 else "safety")
        nodes = arena.nodes()
        for owner in (ENV, CTRL):
            base = {n for n in nodes if rng.random() < 0.25}
            alive = set(nodes) if k % 3 else {n for n in nodes if rng.random() < 0.8}
            assert _attractor(arena, owner, base, alive) == reference_attractor(
                arena, owner, base, alive
            )


def test_edge_marking_matches_reference_on_random_arenas():
    rng = random.Random(3303)
    marked = 0
    for k in range(300):
        arena = random_arena(rng, "buchi" if k % 2 else "safety")
        twin = copy.deepcopy(arena)
        for _ in range(3):
            # predicate atoms may include names the arena lacks, and the
            # valuation need not fix exactly the predicate atoms
            pool = list(arena.inputs) + ["z"]
            predicate_atoms = tuple(rng.sample(pool, rng.randint(0, len(pool))))
            fixed = [a for a in pool if rng.random() < 0.7]
            valuation = Valuation.of({a: rng.random() < 0.5 for a in fixed})
            count = mark_edges_absent(arena, valuation, predicate_atoms)
            assert count == reference_mark_edges_absent(twin, valuation, predicate_atoms)
            assert arena == twin
            marked += count
    assert marked >= 100
