"""Acceptance gate: one test per shipped criterion, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Every numeric expectation here is either pinned exact rational
arithmetic or checked against an independent oracle from ``oracles.py``.
"""

import dataclasses
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from numltl import cegar, cli
from numltl import speclang as sl
from numltl.abstraction import abstract_spec, forbid, reencode_outputs
from numltl.automata import accepts_lasso, evaluate_ltl_on_lasso, translate
from numltl.bernstein import (
    Feasible,
    Polynomial,
    bounds,
    check_feasibility,
)
from numltl.cegar import (
    BUCHI,
    SAFETY,
    CegarConfig,
    CheckedCache,
    Realizable,
    Transcript,
    count_theory_checks,
    synthesize,
)
from numltl.controller_file import parse_controller_file, render_realizable
from numltl.games import solve_buchi, solve_safety
from numltl.simulate import simulate
from numltl.speclang import parse_constraints
from numltl.valuation import Valuation

from generators import (
    random_arena,
    random_box,
    random_formula,
    random_lasso,
    random_polynomial,
    random_refinement_document,
    random_synthesis_document,
    random_unit_point,
)
from oracles import (
    bernstein_coefficients,
    bernstein_reexpand,
    buchi_win_oracle,
    grid_points,
    object_solution,
    poly_min_max_on_grid,
    safety_win_oracle,
    to_unit_box,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def test_criterion_1_two_client_arbiter_single_check_single_refinement(tmp_path):
    started = time.monotonic()
    source = (SPEC_DIR / "threshold_arbiter.spec").read_text()
    transcript = Transcript()
    verdict = synthesize(sl.parse_spec(source), CegarConfig(), transcript)

    assert isinstance(verdict, Realizable)
    checks = [line for line in transcript.lines if line.startswith("CHECK ")]
    refines = [line for line in transcript.lines if line.startswith("REFINE ")]
    assert checks == ["CHECK input req1=1,req2=1 infeasible"]
    assert refines == ["REFINE input req1=1,req2=1"]
    assert tuple(forbid(c) for c in verdict.spec.input_refinements) == (
        sl.Always(sl.Not(sl.And(sl.Atom("req1"), sl.Atom("req2")))),
    )

    # same run through the command line, transcript written to disk
    out = tmp_path / "arbiter.ctrl"
    log = tmp_path / "arbiter.log"
    code = cli.main(
        [
            "synth",
            str(SPEC_DIR / "threshold_arbiter.spec"),
            "--out",
            str(out),
            "--transcript",
            str(log),
        ]
    )
    assert code == 0
    logged = log.read_text().splitlines()
    assert [line for line in logged if line.startswith("CHECK ")] == checks
    assert [line for line in logged if line.startswith("REFINE ")] == refines
    assert parse_controller_file(out.read_text()).controller is not None

    assert time.monotonic() - started < 10.0
    print("PASS criterion 1: arbiter realizable, 1 theory check, 1 refinement")


def test_criterion_2_implication_valid_at_default_depth(capsys):
    started = time.monotonic()
    code = cli.main(
        [
            "check",
            "--real", "x", "0", "4",
            "--real", "y", "0", "4",
            "-c", "x + y > 3 -> x^2 + y^2 >= 7/2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert ": Valid" in captured.out
    assert time.monotonic() - started < 5.0
    print("PASS criterion 2: threshold implication proven valid on [0,4]^2")


THREE_SENSOR = """\
REAL s1 IN [0, 4]
REAL s2 IN [0, 4]
REAL s3 IN [0, 4]

s1 + s2 + s3 > 3
s1^2 + s2^2 + s3^2 < 4
"""


def test_criterion_3_three_sensor_feasibility_and_exact_regression():
    doc = parse_constraints(THREE_SENSOR)
    linear, quadratic = doc.checks
    verdict = check_feasibility(doc.checks, doc.box)
    assert isinstance(verdict, Feasible)
    assert linear.holds_at(verdict.witness)
    assert quadratic.holds_at(verdict.witness)

    # exact-arithmetic regression at a pinned rational point
    point = (Fraction("0.314453125"), Fraction(1), Fraction("1.6875"))
    assert point == (Fraction(161, 512), Fraction(1), Fraction(27, 16))
    one = Fraction(1)
    total = Polynomial(3, {(1, 0, 0): one, (0, 1, 0): one, (0, 0, 1): one})
    squares = Polynomial(3, {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): one})
    assert total.evaluate(point) == Fraction("3.001953125")
    assert squares.evaluate(point) == Fraction("3.946537017822265625")
    assert linear.holds_at(point) and quadratic.holds_at(point)
    print("PASS criterion 3: feasible witness found, pinned evaluations exact")


def test_criterion_4_one_hot_reencoding_and_clean_seeded_simulation():
    doc = sl.parse_spec((SPEC_DIR / "error_monitor.spec").read_text())
    spec, _table = abstract_spec(doc)
    encoded, mux = reencode_outputs(spec)

    outputs = doc.boolean_outputs
    assert outputs == ("stop", "grant1", "grant2", "grant3")
    one_hot = {Valuation.of({o: o == lit for o in outputs}) for lit in outputs}
    assert len(mux.rows) == 4
    assert {original for _, original in mux.rows} == one_hot
    assert len(encoded.document.boolean_outputs) == 2

    verdict = synthesize(doc, CegarConfig())
    assert isinstance(verdict, Realizable)
    assert len(verdict.multiplexer.rows) == 4
    package = parse_controller_file(render_realizable(verdict, SAFETY))
    trace = simulate(package, 1000, seed=2026)
    assert len(trace.steps) == 1000
    assert trace.violations == ()
    print("PASS criterion 4: 4 one-hot rows, 2-output spec, 1000 clean steps")


def test_criterion_5_enclosures_sharp_sound_monotone_and_reexpandable():
    rng = random.Random(20260815)
    for _ in range(200):
        arity = rng.randint(1, 3)
        p = random_polynomial(rng, arity)
        box = random_box(rng, arity)

        # enclosure soundness against a 9-per-dimension evaluation grid
        lo0, hi0 = bounds(p, box)
        gmin, gmax = poly_min_max_on_grid(p, grid_points(box, 9))
        assert lo0 <= gmin and gmax <= hi0

        # corner coefficients equal the polynomial at all 2^n box corners
        unit = to_unit_box(p, box)
        tensor = bernstein_coefficients(unit)
        corners = product(*((0, n) for n in tensor.degree))
        for index, vertex in zip(corners, box.vertices(), strict=True):
            assert tensor.coefficients[index] == p.evaluate(vertex)

        # bisection depth only ever tightens, never loses soundness
        lo1, hi1 = bounds(p, box, depth=1)
        lo2, hi2 = bounds(p, box, depth=2)
        assert lo0 <= lo1 <= lo2 <= gmin
        assert gmax <= hi2 <= hi1 <= hi0

        # coefficient tensor re-expands to the polynomial itself
        for _ in range(50):
            pt = random_unit_point(rng, arity)
            assert bernstein_reexpand(tensor, pt) == unit.evaluate(pt)
    print("PASS criterion 5: 200 polynomials, all enclosure properties exact")


_FORMULA_TYPES = (
    sl.Atom,
    sl.TrueFormula,
    sl.FalseFormula,
    sl.Not,
    sl.And,
    sl.Or,
    sl.Implies,
    sl.Next,
    sl.Always,
    sl.Eventually,
    sl.Until,
)


def _formula_size(f) -> int:
    total = 1
    for field in dataclasses.fields(f):
        child = getattr(f, field.name)
        if isinstance(child, _FORMULA_TYPES):
            total += _formula_size(child)
    return total


def test_criterion_6_automaton_acceptance_equals_direct_lasso_semantics():
    rng = random.Random(500)
    atoms = ["a", "b", "c"]
    accepted = rejected = checked = 0
    while checked < 500:
        f = random_formula(rng, atoms, rng.randint(1, 3))
        if _formula_size(f) > 8:
            continue
        prefix, loop = random_lasso(rng, atoms, max_prefix=3, max_loop=3)
        expected = evaluate_ltl_on_lasso(f, prefix, loop)
        assert accepts_lasso(translate(f), prefix, loop) == expected
        checked += 1
        accepted += expected
        rejected += not expected
    assert accepted and rejected
    print(f"PASS criterion 6: 500 pairs agree ({accepted} accepted, {rejected} rejected)")


def _walk_under_ctrl_strategy(arena, solution):
    """Every adversary move from the winning region, answered by the
    extracted strategy, must stay inside the winning region."""
    reached, stack = set(), [n for n in solution.ctrl_region if n[0] == "env"]
    while stack:
        node = stack.pop()
        if node in reached:
            continue
        reached.add(node)
        assert node in solution.ctrl_region
        kind, i = node
        if kind == "env":
            for e in arena.present_env_edges(i):
                stack.append(("ctrl", e.target))
        else:
            assert i in solution.ctrl_strategy
            stack.append(("env", solution.ctrl_strategy[i].target))
    if arena.objective == "safety":
        assert not any(k == "env" and i in arena.unsafe for k, i in reached)


def _walk_under_env_strategy(arena, solution):
    reached, stack = set(), [n for n in solution.env_region if n[0] == "env"]
    while stack:
        node = stack.pop()
        if node in reached:
            continue
        reached.add(node)
        assert node in solution.env_region
        kind, i = node
        if kind == "env":
            choice = solution.env_strategy.get(i)
            if choice is not None:
                stack.append(("ctrl", choice.target))
        else:
            for e in arena.ctrl_edges[i]:
                stack.append(("env", e.target))


def test_criterion_7_game_regions_match_oracle_and_strategies_stay_winning():
    rng = random.Random(7)
    for k in range(200):
        objective = "buchi" if k % 2 == 0 else "safety"
        solve = solve_buchi if objective == "buchi" else solve_safety
        solution = object_solution(solve(random_arena(rng, objective)))
        arena = solution.arena
        nodes = set(arena.nodes())
        assert len(nodes) <= 50

        if objective == "buchi":
            oracle = buchi_win_oracle(arena)
        else:
            oracle = safety_win_oracle(arena)
        assert solution.ctrl_region == oracle
        assert solution.ctrl_region | solution.env_region == nodes
        assert not solution.ctrl_region & solution.env_region

        _walk_under_ctrl_strategy(arena, solution)
        _walk_under_env_strategy(arena, solution)
    print("PASS criterion 7: 200 arenas match oracle, strategies confined")


def _check_once_and_marking_equals_rebuild(monkeypatch, documents) -> int:
    """Run both routes on each document; after every in-place marking the
    standing arena must equal a fresh build of the refined spec.  Returns how
    many marked arenas were compared, one per ``REFINE input`` event."""
    real_build = cegar._build_arena
    real_mark = cegar.mark_edges_absent
    real_refine = cegar.refine_with_assumption
    state = {"spec": None, "bound": None, "building": False, "compared": 0}

    def build(work, algorithm, bound, successors=None):
        state["bound"], state["building"] = bound, True
        try:
            return real_build(work, algorithm, bound, successors)
        finally:
            state["building"] = False

    def refine(spec, valuation):
        state["spec"] = real_refine(spec, valuation)
        return state["spec"]

    def mark(arena, valuation):
        marked = real_mark(arena, valuation)
        if not state["building"]:
            work, _ = cegar._encoded(state["spec"], cfg)
            assert arena == build(work, cfg.algorithm, state["bound"])
            state["compared"] += 1
        return marked

    refinements = 0
    with monkeypatch.context() as patched:
        patched.setattr(cegar, "_build_arena", build)
        patched.setattr(cegar, "mark_edges_absent", mark)
        patched.setattr(cegar, "refine_with_assumption", refine)
        for doc in documents:
            for algorithm in (SAFETY, BUCHI):
                cfg = CegarConfig(algorithm=algorithm, max_bound=2)
                transcript = Transcript()
                cache = CheckedCache()
                synthesize(doc, cfg, transcript, cache)

                events = [
                    tuple(line.split(" ", 3)[1:3])
                    for line in transcript.lines
                    if line.startswith("CHECK ")
                ]
                assert len(events) == len(set(events))
                assert count_theory_checks(transcript) == cache.size()
                refinements += sum(
                    1 for line in transcript.lines if line.startswith("REFINE input ")
                )
    assert state["compared"] == refinements
    return state["compared"]


def test_criterion_8_each_valuation_checked_once_and_marking_equals_rebuild(
    monkeypatch,
):
    """After every input refinement the loop marks the standing arena in
    place; that arena must equal a fresh build of the refined spec."""
    # input refinements are rare (under one run in ten), hence 200 documents
    rng = random.Random(88)
    documents = [random_synthesis_document(rng) for _ in range(200)]
    compared = _check_once_and_marking_equals_rebuild(monkeypatch, documents)
    assert compared >= 10
    # predicates sharing their sensors: half the runs refine an input and
    # mark the arena, some of them repeatedly
    rng = random.Random(89)
    documents = [random_refinement_document(rng) for _ in range(40)]
    shared = _check_once_and_marking_equals_rebuild(monkeypatch, documents)
    assert shared >= 50
    print(
        f"PASS criterion 8: no repeated checks, {compared} + {shared} marked"
        " arenas equal a fresh rebuild"
    )
