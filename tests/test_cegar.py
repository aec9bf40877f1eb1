"""Refinement-loop tests: goldens on the bundled specifications, invariant
audits over random documents, and unit coverage for counter-input selection,
output candidates, and transcript bookkeeping."""

import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from generators import random_refinement_document, random_synthesis_document
from oracles import (
    ObjectCtrlEdge,
    ObjectEnvEdge,
    arena_from_edges,
    minimum_cover_size,
    reference_search,
    reference_synthesize,
)

from numltl import bernstein as bernstein_module
from numltl import cegar as cegar_module
from numltl import speclang as sl
from numltl.abstraction import (
    EMPTY_MULTIPLEXER,
    MultiplexerTable,
    PredicateTable,
    abstract_spec,
    forbid,
)
from numltl.bernstein import (
    DEFAULT_DEPTH,
    Box,
    Feasible,
    Infeasible,
    PolyConstraint,
    Polynomial,
    SearchStats,
    Unknown,
)
from numltl.cegar import (
    BUCHI,
    SAFETY,
    CegarConfig,
    CheckedCache,
    Realizable,
    TheoryUnknownError,
    Transcript,
    UnrealizableWithinBound,
    bound_schedule_up_to,
    count_theory_checks,
    first_refuted,
    output_candidates,
    select_counter_inputs,
    synthesize,
    valuation_to_constraints,
)
from numltl.games import (
    GameSolution,
    MealyController,
    extract_counter_strategy,
    letters_of,
    solve,
)
from numltl.speclang import parse_spec
from numltl.valuation import Valuation

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"


def fixture(name: str) -> sl.SpecDocument:
    return parse_spec((SPEC_DIR / f"{name}.spec").read_text())


def v(**assignment: bool) -> Valuation:
    return Valuation.of(assignment)


# only x = 1/3 satisfies both predicates; bisection samples only dyadic
# points and the enclosures never refute, so the checker must give up
PINPOINT = """\
REAL x IN [0, 1]
PRED low  := 3*x <= 1
PRED high := 3*x >= 1
OUTPUT g1, g2
ALWAYS (low -> NEXT (g1))
ALWAYS (high -> NEXT (g2))
ALWAYS (!(g1 && g2))
"""

# three input predicate atoms whose conjunctions with `big` are all empty,
# so the loop needs three refinements before the controller can win
TRIPLE_CONFLICT = """\
REAL x IN [0, 4]
PRED big   := x >= 3
PRED small := x <= 1
PRED tiny  := x <= 1/2
OUTPUT g1, g2, g3
ALWAYS (big -> NEXT (g1))
ALWAYS (small -> NEXT (g2))
ALWAYS (tiny -> NEXT (g3))
ALWAYS (!(g1 && g2))
ALWAYS (!(g1 && g3))
"""


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            CegarConfig(algorithm="parity")

    def test_rejects_empty_or_nonpositive_bound_schedule(self):
        with pytest.raises(ValueError, match="maximum bound must be positive"):
            CegarConfig(max_bound=0)
        with pytest.raises(ValueError, match="maximum bound must be positive"):
            CegarConfig(algorithm=BUCHI, max_bound=-1)

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError):
            CegarConfig(refinement_cap=0)
        with pytest.raises(ValueError):
            CegarConfig(depth=0)

    def test_bound_schedule_doubles_up_to_the_maximum(self):
        assert bound_schedule_up_to(16) == (1, 2, 4, 8, 16)
        assert bound_schedule_up_to(10) == (1, 2, 4, 8, 10)
        assert bound_schedule_up_to(1) == (1,)
        with pytest.raises(ValueError):
            bound_schedule_up_to(0)


class TestValuationToConstraints:
    def test_true_atoms_keep_their_constraints(self):
        _, table = abstract_spec(fixture("threshold_arbiter"))
        c1, _ = table.entries["req1"]
        c2, _ = table.entries["req2"]
        assert valuation_to_constraints(v(req1=True, req2=True), table) == [c1, c2]

    def test_false_atoms_flip_the_relation(self):
        _, table = abstract_spec(fixture("threshold_arbiter"))
        c1, _ = table.entries["req1"]
        c2, _ = table.entries["req2"]
        got = valuation_to_constraints(v(req1=False, req2=True), table)
        assert got == [c1.negated(), c2]
        assert c1.relation == ">" and got[0].relation == "<="

    def test_empty_valuation_is_an_empty_conjunction(self):
        _, table = abstract_spec(fixture("threshold_arbiter"))
        assert valuation_to_constraints(Valuation.of({}), table) == []


class TestCheckedCacheAndTranscript:
    def test_proven_filters_for_feasible_verdicts(self):
        cache = CheckedCache()
        cache.inputs[v(p=True)] = Feasible((Fraction(1),))
        cache.inputs[v(p=False)] = Infeasible()
        cache.outputs[v(q=True)] = Feasible((Fraction(2),))
        assert cache.proven(sl.INPUT_SIDE) == {v(p=True)}
        assert cache.proven(sl.OUTPUT_SIDE) == {v(q=True)}
        assert cache.size() == 3

    def test_check_lines_render_verdicts(self):
        t = Transcript()
        t.check(sl.INPUT_SIDE, v(a=True), Infeasible())
        t.check(sl.INPUT_SIDE, v(a=False), Feasible((Fraction(1, 2), Fraction(3))))
        t.check(sl.OUTPUT_SIDE, v(b=True), Unknown("depth exhausted"))
        assert t.lines == [
            "CHECK input a=1 infeasible",
            "CHECK input a=0 feasible witness=1/2,3",
            "CHECK output b=1 unknown depth exhausted",
        ]

    def test_count_theory_checks_accepts_transcripts_and_text(self):
        t = Transcript()
        t.check(sl.INPUT_SIDE, v(a=True), Infeasible())
        t.refine(sl.INPUT_SIDE, v(a=True))
        t.verdict("realizable")
        assert count_theory_checks(t) == 1
        assert count_theory_checks(t.render()) == 1
        assert t.render() == "\n".join(t.lines) + "\n"


def cycle_solution(candidates: dict[int, tuple[Valuation, ...]]) -> GameSolution:
    """A solved Büchi arena without accepting nodes, so the environment wins
    everywhere and every edge is a candidate: state ``s`` has one env edge
    per candidate input, each leading on to the next state of a cycle, so
    every state stays reachable under any nonempty candidate restriction."""
    states = sorted(candidates)
    inputs = next(c for cands in candidates.values() for c in cands).atoms
    letters = letters_of(inputs, ())
    bits = dict(zip(letters.inputs, letters.input_bits))
    env_edges, ctrl_edges = [], []
    for idx, s in enumerate(states):
        row = []
        for c in candidates[s]:
            row.append(ObjectEnvEdge(c, len(ctrl_edges), bits=bits[c]))
            nxt = states[(idx + 1) % len(states)]
            ctrl_edges.append([ObjectCtrlEdge(letters.outputs[0], nxt)])
        env_edges.append(row)
    return solve(arena_from_edges(BUCHI, inputs, (), env_edges, ctrl_edges))


def selected(solution: GameSolution, cache: CheckedCache, atoms: tuple[str, ...]):
    """The kept candidate inputs per state, as the restricted
    counter-strategy carries them, and the unproven projections."""
    keep, unproven = select_counter_inputs(solution, cache, atoms)
    return extract_counter_strategy(solution, keep).candidates, unproven


class TestSelectCounterInputs:
    ATOMS = ("req1", "req2")

    def test_one_spurious_valuation_can_cover_every_state(self):
        both = v(req1=True, req2=True)
        solution = cycle_solution(
            {
                0: (both, v(req1=True, req2=False)),
                1: (both,),
                2: (both, v(req1=False, req2=True)),
            }
        )
        kept, unproven = selected(solution, CheckedCache(), self.ATOMS)
        assert unproven == {both}
        assert kept == {0: (both,), 1: (both,), 2: (both,)}

    def test_proven_candidates_win_and_nothing_is_left_unproven(self):
        both = v(req1=True, req2=True)
        one = v(req1=True, req2=False)
        cache = CheckedCache()
        cache.inputs[one] = Feasible((Fraction(1), Fraction(0)))
        solution = cycle_solution({0: (both, one), 1: (one,)})
        kept, unproven = selected(solution, cache, self.ATOMS)
        assert unproven == set()
        assert kept == {0: (one,), 1: (one,)}

    def test_without_predicate_atoms_everything_counts_as_proven(self):
        # candidates come in input rank order, i=0 before i=1
        a, b = v(i=False), v(i=True)
        solution = cycle_solution({0: (a, b), 1: (b,)})
        kept, unproven = selected(solution, CheckedCache(), ())
        assert unproven == set()
        assert kept == {0: (a, b), 1: (b,)}

    def test_coverage_ties_break_lexicographically(self):
        low, high = v(p=False), v(p=True)
        solution = cycle_solution({0: (low, high), 1: (low, high)})
        _, unproven = select_counter_inputs(solution, CheckedCache(), ("p",))
        assert unproven == {low}

    def test_greedy_cover_matches_the_exhaustive_oracle(self):
        rng = random.Random(20260815)
        atoms = ("p0", "p1")
        words = [
            Valuation.of({"p0": b0, "p1": b1})
            for b0 in (False, True)
            for b1 in (False, True)
        ]
        for _ in range(200):
            n = rng.randint(1, 8)
            candidates = {
                s: tuple(rng.sample(words, rng.randint(1, 3))) for s in range(n)
            }
            solution = cycle_solution(candidates)
            kept, unproven = selected(solution, CheckedCache(), atoms)
            # every state keeps a candidate from the cover
            assert set(kept) == set(range(n))
            for cands in kept.values():
                assert cands and all(c in unproven for c in cands)
            universe = set(range(n))
            by_word = {w: {s for s in universe if w in candidates[s]} for w in words}
            best = minimum_cover_size(universe, [by_word[w] for w in words])
            # greedy is optimal when one valuation suffices, and within the
            # harmonic factor (H(8) < 3) otherwise
            assert len(unproven) >= best
            assert (len(unproven) == 1) == (best == 1)
            assert len(unproven) <= 3 * best
            again = select_counter_inputs(solution, CheckedCache(), atoms)
            assert again[1] == unproven


def output_table(**preds: PolyConstraint) -> PredicateTable:
    return PredicateTable(
        entries={atom: (c, sl.OUTPUT_SIDE) for atom, c in preds.items()},
        input_variables=(),
        output_variables=("u",),
        input_box=Box(()),
        output_box=Box(((Fraction(0), Fraction(4)),)),
    )


def emitter(*outputs: Valuation) -> MealyController:
    """One-state controller over a dummy input that cycles the given outputs."""
    step = {}
    for i, w in enumerate(outputs):
        step[(i, v(i0=True))] = (w, (i + 1) % len(outputs))
        step[(i, v(i0=False))] = (w, (i + 1) % len(outputs))
    return MealyController(
        inputs=("i0",),
        outputs=outputs[0].atoms,
        n_states=len(outputs),
        initial=0,
        step=step,
    )


def ge(threshold: int) -> PolyConstraint:
    return PolyConstraint(Polynomial(1, {(1,): Fraction(1), (0,): -Fraction(threshold)}), ">=")


def le(threshold: int) -> PolyConstraint:
    return PolyConstraint(Polynomial(1, {(1,): Fraction(1), (0,): -Fraction(threshold)}), "<=")


def refuted_output(
    m: MealyController,
    table: PredicateTable,
    cache: CheckedCache,
    multiplexer: MultiplexerTable = EMPTY_MULTIPLEXER,
    depth: int = DEFAULT_DEPTH,
    transcript: Transcript | None = None,
) -> Valuation | None:
    """The output projection a controller win would refine on, if any."""
    candidates = output_candidates(m, table.atoms_of(sl.OUTPUT_SIDE), multiplexer)
    transcript = transcript if transcript is not None else Transcript()
    return first_refuted(cache, sl.OUTPUT_SIDE, candidates, table, depth, transcript)


class TestOutputCandidates:
    def test_conflicting_emission_is_reported(self):
        table = output_table(qa=ge(3), qb=le(1))
        m = emitter(v(qa=True, qb=True), v(qa=True, qb=False))
        cache = CheckedCache()
        t = Transcript()
        assert refuted_output(m, table, cache, transcript=t) == v(qa=True, qb=True)
        assert isinstance(cache.outputs[v(qa=True, qb=True)], Infeasible)
        assert isinstance(cache.outputs[v(qa=True, qb=False)], Feasible)
        assert count_theory_checks(t) == 2

    def test_checks_stop_at_the_first_refuted_candidate(self):
        # u >= 5 is empty on [0, 4]: every candidate with qa=1 is refuted
        table = output_table(qa=ge(5), qb=le(1))
        m = emitter(v(qa=True, qb=True), v(qa=False, qb=False), v(qa=True, qb=False))
        cache = CheckedCache()
        t = Transcript()
        assert refuted_output(m, table, cache, transcript=t) == v(qa=True, qb=False)
        assert set(cache.outputs) == {v(qa=False, qb=False), v(qa=True, qb=False)}
        assert count_theory_checks(t) == 2

    def test_all_feasible_yields_no_findings(self):
        table = output_table(qa=ge(3), qb=le(1))
        m = emitter(v(qa=True, qb=False), v(qa=False, qb=True))
        assert refuted_output(m, table, CheckedCache()) is None

    def test_no_output_predicates_means_no_checks(self):
        table = PredicateTable(
            entries={}, input_variables=(), output_variables=(),
            input_box=Box(()), output_box=Box(()),
        )
        m = emitter(v(b=True))
        cache = CheckedCache()
        assert output_candidates(m, (), EMPTY_MULTIPLEXER) == set()
        assert refuted_output(m, table, cache) is None
        assert cache.size() == 0

    def test_encoded_outputs_are_decoded_before_checking(self):
        table = output_table(qa=ge(3), qb=le(1))
        mux = MultiplexerTable(
            encoded_atoms=("s1",),
            original_atoms=("qa", "qb"),
            rows=(
                (v(s1=False), v(qa=True, qb=True)),
                (v(s1=True), v(qa=False, qb=True)),
            ),
        )
        m = emitter(v(s1=False), v(s1=True))
        decoded = {v(qa=True, qb=True), v(qa=False, qb=True)}
        assert output_candidates(m, ("qa", "qb"), mux) == decoded
        assert refuted_output(m, table, CheckedCache(), mux) == v(qa=True, qb=True)

    def test_cached_verdicts_are_reused_without_rechecking(self):
        table = output_table(qa=ge(3), qb=le(1))
        m = emitter(v(qa=True, qb=True))
        cache = CheckedCache()
        cache.outputs[v(qa=True, qb=True)] = Infeasible()
        t = Transcript()
        assert refuted_output(m, table, cache, transcript=t) == v(qa=True, qb=True)
        assert count_theory_checks(t) == 0

    def test_unknown_theory_verdict_raises(self):
        # only u = 1/3 satisfies both sides, which bisection cannot decide
        third_low = PolyConstraint(Polynomial(1, {(1,): Fraction(3), (0,): Fraction(-1)}), "<=")
        third_high = PolyConstraint(Polynomial(1, {(1,): Fraction(3), (0,): Fraction(-1)}), ">=")
        table = output_table(qa=third_low, qb=third_high)
        m = emitter(v(qa=True, qb=True))
        with pytest.raises(TheoryUnknownError):
            refuted_output(m, table, CheckedCache(), depth=8)


class TestSynthesizeBundledSpecs:
    def test_threshold_arbiter_needs_exactly_one_check_and_refinement(self):
        t = Transcript()
        verdict = synthesize(fixture("threshold_arbiter"), CegarConfig(), t)
        assert isinstance(verdict, Realizable)
        assert count_theory_checks(t) == 1
        checks = [line for line in t.lines if line.startswith("CHECK ")]
        assert checks == ["CHECK input req1=1,req2=1 infeasible"]
        refines = [line for line in t.lines if line.startswith("REFINE ")]
        assert refines == ["REFINE input req1=1,req2=1"]
        assert t.lines[-1] == "VERDICT realizable"
        assert verdict.spec.input_refinements == (v(req1=True, req2=True),)
        recorded = tuple(forbid(c) for c in verdict.spec.input_refinements)
        assert recorded == (
            sl.Always(sl.Not(sl.And(sl.Atom("req1"), sl.Atom("req2")))),
        )
        assert verdict.spec.document.assumptions == ()
        assert verdict.bound == 1

    def test_threshold_arbiter_realizable_on_the_buchi_route_too(self):
        t = Transcript()
        verdict = synthesize(
            fixture("threshold_arbiter"), CegarConfig(algorithm=BUCHI), t
        )
        assert isinstance(verdict, Realizable)
        assert verdict.bound is None
        assert count_theory_checks(t) == 1

    def test_pure_boolean_document_needs_no_theory_checks(self):
        doc = parse_spec("INPUT req1\nOUTPUT grant1\nALWAYS (req1 -> NEXT (grant1))\n")
        t = Transcript()
        verdict = synthesize(doc, CegarConfig(), t)
        assert isinstance(verdict, Realizable)
        assert count_theory_checks(t) == 0
        assert not any(line.startswith("REFINE") for line in t.lines)

    def test_triple_sensor_counter_strategy_is_genuine(self):
        doc = fixture("triple_sensor_arbiter")
        t = Transcript()
        verdict = synthesize(doc, CegarConfig(max_bound=2), t)
        assert isinstance(verdict, UnrealizableWithinBound)
        assert verdict.bound == 2
        assert [val for val, _ in verdict.evidence] == [v(req1=True, req2=True)]
        _, table = abstract_spec(doc)
        for val, witness in verdict.evidence:
            constraints = valuation_to_constraints(val, table)
            assert constraints and all(c.holds_at(witness) for c in constraints)
        # the evidence covers exactly the inputs the counter-strategy plays
        played = {
            c.restrict(("req1", "req2"))
            for cands in verdict.counter_strategy.candidates.values()
            for c in cands
        }
        assert played == {val for val, _ in verdict.evidence}

    def test_triple_sensor_unrealizable_on_the_buchi_route(self):
        verdict = synthesize(
            fixture("triple_sensor_arbiter"), CegarConfig(algorithm=BUCHI)
        )
        assert isinstance(verdict, UnrealizableWithinBound)
        assert verdict.bound is None

    def test_error_monitor_synthesizes_through_the_encoder(self):
        t = Transcript()
        verdict = synthesize(fixture("error_monitor"), CegarConfig(), t)
        assert isinstance(verdict, Realizable)
        assert verdict.controller.outputs == ("sig1", "sig2")
        assert len(verdict.multiplexer.rows) == 4
        assert count_theory_checks(t) == 0
        assert verdict.bound == 2

    def test_pinpoint_feasibility_aborts_with_unknown(self):
        t = Transcript()
        verdict = synthesize(parse_spec(PINPOINT), CegarConfig(max_bound=1), t)
        assert isinstance(verdict, Unknown)
        assert "depth exhausted" in verdict.reason
        assert t.lines[-1].startswith("VERDICT unknown")

    def test_refinement_cap_turns_into_unknown(self):
        cfg = CegarConfig(max_bound=1, refinement_cap=1)
        verdict = synthesize(parse_spec(TRIPLE_CONFLICT), cfg)
        assert verdict == Unknown("refinement cap 1 exceeded")

    def test_triple_conflict_resolves_after_three_refinements(self):
        t = Transcript()
        verdict = synthesize(parse_spec(TRIPLE_CONFLICT), CegarConfig(max_bound=1), t)
        assert isinstance(verdict, Realizable)
        refined = [line for line in t.lines if line.startswith("REFINE ")]
        assert refined == [
            "REFINE input big=1,small=1,tiny=1",
            "REFINE input big=1,small=1,tiny=0",
            "REFINE input big=1,small=0,tiny=1",
        ]

    def test_unsatisfiable_output_constraints_fall_back_unencoded(self):
        doc = parse_spec("INPUT r\nOUTPUT a\nALWAYS (a)\nALWAYS (!a)\n")
        verdict = synthesize(doc, CegarConfig(max_bound=1))
        assert isinstance(verdict, UnrealizableWithinBound)
        assert verdict.evidence == ()
        assert verdict.bound == 1
        assert not verdict.multiplexer

    def test_preproven_cache_avoids_all_checking(self):
        doc = fixture("triple_sensor_arbiter")
        cache = CheckedCache()
        cache.inputs[v(req1=True, req2=True)] = Feasible(
            (Fraction(1, 2), Fraction(23, 32), Fraction(115, 64))
        )
        t = Transcript()
        verdict = synthesize(doc, CegarConfig(max_bound=1), t, cache)
        assert isinstance(verdict, UnrealizableWithinBound)
        assert count_theory_checks(t) == 0

    def test_cache_refuses_a_second_predicate_table(self):
        # the same atom names over other constraints: p=1,q=1 is infeasible
        # for the first document and feasible (x = 2) for the second
        def arbiter(p: str, q: str) -> sl.SpecDocument:
            return parse_spec(
                "REAL x IN [0, 4]\n"
                f"PRED p := {p}\n"
                f"PRED q := {q}\n"
                "OUTPUT g1, g2\n"
                "ALWAYS (p -> NEXT (g1))\n"
                "ALWAYS (q -> NEXT (g2))\n"
                "ALWAYS (!(g1 && g2))\n"
            )

        first, second = arbiter("x > 3", "x < 1"), arbiter("x > 1", "x < 3")
        # the second run would check p=1,q=1 again, or (in the other order)
        # read its stale feasible verdict without any check
        for earlier, later in ((first, second), (second, first)):
            cache = CheckedCache()
            synthesize(earlier, CegarConfig(), cache=cache)
            with pytest.raises(ValueError, match="another predicate table"):
                synthesize(later, CegarConfig(), cache=cache)

        fresh = synthesize(second, CegarConfig())
        assert isinstance(fresh, UnrealizableWithinBound) and fresh.bound == 16
        assert fresh.evidence == ((v(p=True, q=True), (Fraction(2),)),)
        # the same table (a fresh parse of the earlier document) is accepted
        t = Transcript()
        again = synthesize(arbiter("x > 1", "x < 3"), CegarConfig(), t, cache)
        assert again == fresh and count_theory_checks(t) == 0

    def test_runs_are_deterministic(self):
        doc = fixture("threshold_arbiter")
        t1, t2 = Transcript(), Transcript()
        synthesize(doc, CegarConfig(), t1)
        synthesize(doc, CegarConfig(), t2)
        assert t1.render() == t2.render()


# the controller must emit hi && lo, which no u satisfies: one output
# refinement, then a rebuild at the same bound
OUTPUT_CONFLICT = """\
REAL OUTPUT u IN [0, 4]
PRED hi := u >= 3
PRED lo := u <= 1
INPUT r
OUTPUT g
ALWAYS (hi && lo)
"""


class TestArenaLifetime:
    @pytest.mark.parametrize(
        ("doc", "cfg", "event", "table_kept"),
        [
            (fixture("error_monitor"), CegarConfig(), "SOLVE safety bound=2", True),
            (
                parse_spec(OUTPUT_CONFLICT),
                CegarConfig(max_bound=1),
                "REFINE output",
                False,
            ),
        ],
        ids=["bound-escalation", "output-refinement"],
    )
    def test_previous_arena_is_freed_before_the_next_build(
        self, monkeypatch, doc, cfg, event, table_kept
    ):
        built = []
        tables = []
        kept = []
        original = cegar_module._build_arena

        def tracking(work, algorithm, bound, successors):
            assert all(ref() is None for ref in built), "an earlier arena is still referenced"
            # the successor table outlives a bound escalation; after an
            # output refinement the old one must be gone
            assert all(ref() in (None, successors) for ref in tables), (
                "an earlier successor table is still referenced"
            )
            kept.append(any(ref() is successors for ref in tables))
            arena = original(work, algorithm, bound, successors)
            built.append(weakref.ref(arena))
            tables.append(weakref.ref(successors))
            return arena

        monkeypatch.setattr(cegar_module, "_build_arena", tracking)
        t = Transcript()
        synthesize(doc, cfg, t)
        assert len(built) == 2
        assert kept == [False, table_kept]
        assert any(line.startswith(event) for line in t.lines)


@pytest.mark.parametrize(
    ("name", "solves"), [("error_monitor", 2), ("triple_sensor_arbiter", 5)]
)
def test_escalating_bounds_translate_the_negated_spec_once(monkeypatch, name, solves):
    calls = []
    original = cegar_module.negate_and_translate

    def counting(formula, atoms):
        calls.append(formula)
        return original(formula, atoms)

    monkeypatch.setattr(cegar_module, "negate_and_translate", counting)
    t = Transcript()
    synthesize(fixture(name), CegarConfig(), t)
    assert sum(line.startswith("SOLVE safety bound=") for line in t.lines) == solves
    assert len(calls) == 1


def counted_reencodings(monkeypatch, run) -> int:
    """Calls ``run`` makes to ``cegar.reencode_outputs``."""
    calls = []
    original = cegar_module.reencode_outputs

    def counting(spec):
        calls.append(spec)
        return original(spec)

    with monkeypatch.context() as patched:
        patched.setattr(cegar_module, "reencode_outputs", counting)
        run()
    return len(calls)


@pytest.mark.parametrize(
    "path",
    [SPEC_DIR / "triple_sensor_arbiter.spec", DATA_DIR / "arbiter4-overlap.spec"],
    ids=["triple_sensor_arbiter", "arbiter4-overlap"],
)
def test_escalating_bounds_reencode_the_game_formula_once(monkeypatch, path):
    doc = parse_spec(path.read_text())
    t = Transcript()
    assert counted_reencodings(monkeypatch, lambda: synthesize(doc, CegarConfig(), t)) == 1
    assert sum(line.startswith("SOLVE safety bound=") for line in t.lines) >= 5
    # the two-path loop re-encoded the unchanged formula at every bound
    reference = lambda: reference_synthesize(doc, CegarConfig(), Transcript())
    assert counted_reencodings(monkeypatch, reference) == 5


def test_each_guarantee_refinement_reencodes_once(monkeypatch):
    """One re-encoding per game formula: the first, and one per output refinement."""
    rng = random.Random(1607)
    refined = 0
    for doc in [parse_spec(OUTPUT_CONFLICT)] + [random_synthesis_document(rng) for _ in range(30)]:
        for algorithm in (SAFETY, BUCHI):
            t = Transcript()
            cfg = CegarConfig(algorithm=algorithm, max_bound=4)
            calls = counted_reencodings(monkeypatch, lambda: synthesize(doc, cfg, t))
            outputs = sum(line.startswith("REFINE output ") for line in t.lines)
            assert calls == 1 + outputs
            refined += outputs > 0
    assert refined >= 5


def check_events(transcript: Transcript) -> list[tuple[str, str]]:
    events = []
    for line in transcript.lines:
        if line.startswith("CHECK "):
            _, side, valuation = line.split(" ", 3)[:3]
            events.append((side, valuation))
    return events


class TestCegarInvariants:
    generate = staticmethod(random_synthesis_document)
    min_input_refinements = 0  # this generator rarely refines an input

    def test_no_valuation_is_checked_twice(self):
        rng = random.Random(20260815)
        input_preds_seen = output_preds_seen = input_refinements = 0
        for _ in range(50):
            doc = self.generate(rng)
            t, cache = Transcript(), CheckedCache()
            verdict = synthesize(doc, CegarConfig(max_bound=2), t, cache)

            events = check_events(t)
            assert len(events) == len(set(events))
            assert count_theory_checks(t) == cache.size()

            _, table = abstract_spec(doc)
            pin = len(table.atoms_of(sl.INPUT_SIDE))
            pout = len(table.atoms_of(sl.OUTPUT_SIDE))
            assert count_theory_checks(t) <= 2**pin + 2**pout
            solves = sum(1 for line in t.lines if line.startswith("SOLVE "))
            assert solves <= 2**pin + 2**pout + 2

            if isinstance(verdict, UnrealizableWithinBound):
                for val, witness in verdict.evidence:
                    constraints = valuation_to_constraints(val, table)
                    assert all(c.holds_at(witness) for c in constraints)
            input_preds_seen += pin
            output_preds_seen += pout
            input_refinements += sum(
                1 for line in t.lines if line.startswith("REFINE input ")
            )
        assert input_preds_seen and output_preds_seen
        assert input_refinements >= self.min_input_refinements

    def test_refined_valuations_never_reappear(self):
        rng = random.Random(77)
        refined_runs = 0
        for _ in range(40):
            doc = self.generate(rng)
            t = Transcript()
            verdict = synthesize(doc, CegarConfig(max_bound=2), t)
            if isinstance(verdict, Unknown):
                continue
            spec = verdict.spec
            in_atoms = tuple(
                p.atom for p in spec.source.predicates if p.side == sl.INPUT_SIDE
            )
            out_atoms = tuple(
                p.atom for p in spec.source.predicates if p.side == sl.OUTPUT_SIDE
            )
            refined_runs += bool(spec.input_refinements or spec.output_refinements)
            if isinstance(verdict, Realizable):
                for (_, vin), (vout, _) in verdict.controller.step.items():
                    assert vin.restrict(in_atoms) not in spec.input_refinements
                    decoded = (
                        verdict.multiplexer.decode(vout)
                        if verdict.multiplexer
                        else vout
                    )
                    assert decoded.restrict(out_atoms) not in spec.output_refinements
            else:
                for cands in verdict.counter_strategy.candidates.values():
                    for c in cands:
                        assert c.restrict(in_atoms) not in spec.input_refinements
                for val, _ in verdict.evidence:
                    assert val not in spec.input_refinements
        assert refined_runs  # the generator must exercise refinement at all

    def test_reencoding_preserves_the_verdict(self):
        rng = random.Random(4242)
        for _ in range(20):
            doc = self.generate(rng)
            with_enc = synthesize(doc, CegarConfig(max_bound=2))
            without = synthesize(
                doc, CegarConfig(max_bound=2, reencode=False)
            )
            assert type(with_enc) is type(without)


class TestCegarInvariantsUnderInputRefinement(TestCegarInvariants):
    """The same audits on documents whose input predicates share sensors,
    so that runs keep refining inputs and marking the standing arena."""

    generate = staticmethod(random_refinement_document)
    min_input_refinements = 20


class TestCounterStrategyExtraction:
    """Env-win rounds select counter-inputs on the game solution; only the
    round that ends unrealizable builds a counter-strategy."""

    @pytest.mark.parametrize(
        "path, algorithm, realizable",
        [
            (DATA_DIR / "arbiter4-overlap.spec", SAFETY, False),
            (DATA_DIR / "arbiter4-disjoint.spec", SAFETY, True),
            (SPEC_DIR / "triple_sensor_arbiter.spec", BUCHI, False),
            (SPEC_DIR / "threshold_arbiter.spec", BUCHI, True),
        ],
        ids=lambda x: x.stem if isinstance(x, Path) else str(x),
    )
    def test_extracted_once_when_unrealizable_and_never_when_realizable(
        self, monkeypatch, path, algorithm, realizable
    ):
        calls = []
        real = cegar_module.extract_counter_strategy

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cegar_module, "extract_counter_strategy", counted)
        transcript = Transcript()
        verdict = synthesize(parse_spec(path.read_text()), CegarConfig(algorithm), transcript)
        assert isinstance(verdict, Realizable if realizable else UnrealizableWithinBound)
        assert len(calls) == (0 if realizable else 1)
        # the run still had env-win rounds to select counter-inputs in
        assert any("winner=env" in line for line in transcript.lines)


# the 4-client disjoint-band arbiter of the benchmark's arbiter family (its
# band layout at seed 1)
ARBITER4_DISJOINT = """\
REAL x IN [0, 4]
REAL y IN [0, 4]
PRED req1 := (x + y - 7/2) * (9/2 - x - y) > 0
PRED req2 := (x + y - 5) * (6 - x - y) > 0
PRED req3 := (x + y - 1/2) * (3/2 - x - y) > 0
PRED req4 := (x + y - 2) * (3 - x - y) > 0
OUTPUT grant1, grant2, grant3, grant4
ALWAYS (req1 -> NEXT (grant1))
ALWAYS (req2 -> NEXT (grant2))
ALWAYS (req3 -> NEXT (grant3))
ALWAYS (req4 -> NEXT (grant4))
ALWAYS (!(grant1 && grant2))
ALWAYS (!(grant1 && grant3))
ALWAYS (!(grant1 && grant4))
ALWAYS (!(grant2 && grant3))
ALWAYS (!(grant2 && grant4))
ALWAYS (!(grant3 && grant4))
"""

# `far` and `lift` are the same polynomial, x - 2 and u - 2 over one
# variable each, on different side boxes: an enclosure of one is no
# enclosure of the other
SIDES_SHARE_A_POLYNOMIAL = """\
REAL x IN [0, 4]
REAL OUTPUT u IN [0, 1]
PRED far  := x > 2
PRED lift := u > 2
OUTPUT g
ALWAYS (far -> NEXT (lift))
"""


class TestSharedEnclosures:
    """The loop's checks share one enclosure memo per side box; each check
    must still give exactly what a search of its own gives."""

    ROUTES = (SAFETY, BUCHI)

    def transcripts(self, docs) -> list[list[str]]:
        lines = []
        for doc in docs:
            for algorithm in self.ROUTES:
                t = Transcript()
                synthesize(doc, CegarConfig(algorithm=algorithm, max_bound=2), t)
                lines.append(t.lines)
        return lines

    def test_checked_valuations_match_the_reference_search(self, monkeypatch):
        seen = []
        memos = {}
        original = cegar_module.check_feasibility

        def recording(constraints, box, depth, stats=None, *, memo=None):
            # one memo per side box for the whole run
            assert memos.setdefault(box, memo) is memo
            stats = SearchStats()
            verdict = original(constraints, box, depth, stats, memo=memo)
            seen.append((tuple(constraints), box, depth, verdict, stats.explored))
            return verdict

        monkeypatch.setattr(cegar_module, "check_feasibility", recording)
        rng = random.Random(4106)
        for _ in range(40):
            doc = random_refinement_document(rng)
            for algorithm in self.ROUTES:
                memos.clear()
                synthesize(doc, CegarConfig(algorithm=algorithm, max_bound=2))
        verdicts = set()
        for constraints, box, depth, verdict, explored in seen:
            ref_stats = SearchStats()
            expected = reference_search(constraints, box, depth, ref_stats)
            assert verdict == expected and type(verdict) is type(expected)
            assert explored == ref_stats.explored
            verdicts.add(type(verdict).__name__)
        assert len(seen) >= 100
        assert verdicts == {"Feasible", "Infeasible"}

    def test_transcripts_match_runs_with_a_fresh_memo_per_check(self, monkeypatch):
        rng = random.Random(4107)
        docs = [
            fixture("threshold_arbiter"),
            fixture("triple_sensor_arbiter"),
            parse_spec(ARBITER4_DISJOINT),
            parse_spec(SIDES_SHARE_A_POLYNOMIAL),
            parse_spec(TRIPLE_CONFLICT),
        ] + [random_refinement_document(rng) for _ in range(12)]
        shared = self.transcripts(docs)
        original = cegar_module.check_feasibility

        def fresh(constraints, box, depth, stats=None, *, memo=None):
            return original(constraints, box, depth, stats)

        monkeypatch.setattr(cegar_module, "check_feasibility", fresh)
        assert shared == self.transcripts(docs)
        assert sum(count_theory_checks("\n".join(lines)) for lines in shared) >= 60

    def test_each_tensor_is_computed_once_per_run(self, monkeypatch):
        """The root's tensor is converted and every other one is a half of
        its parent's subdivision.  Every (polynomial, subbox) tensor a run
        computes either gave that subbox's enclosure or still waits in the
        memo's frontier, so counting them by subbox bounds the work: each
        is computed at most once."""
        converted, subdivisions, memos = [], [], {}
        convert = bernstein_module._bernstein_tensor
        subdivide = bernstein_module._subdivide

        def converting(power, degree, intervals):
            converted.append(intervals)
            return convert(power, degree, intervals)

        def subdividing(tensor, degree, dim):
            subdivisions.append(dim)
            return subdivide(tensor, degree, dim)

        stats = SearchStats()
        original = cegar_module.check_feasibility

        def counting(constraints, box, depth, _=None, *, memo=None):
            memos[box] = memo
            return original(constraints, box, depth, stats, memo=memo)

        monkeypatch.setattr(bernstein_module, "_bernstein_tensor", converting)
        monkeypatch.setattr(bernstein_module, "_subdivide", subdividing)
        monkeypatch.setattr(cegar_module, "check_feasibility", counting)
        t = Transcript()
        synthesize(parse_spec(ARBITER4_DISJOINT), CegarConfig(), t)
        assert count_theory_checks(t) == 11
        # one conversion per predicate polynomial, all on the input box
        (box,) = memos
        assert converted == [box.intervals] * 4
        assert stats.tensors == len(converted) + 2 * len(subdivisions)
        by_subbox = sum(
            len(p.enclosures.keys() | p.tensors.keys()) for p in memos[box].polys.values()
        )
        # 114 subdivisions, each making both halves even where the search
        # reads only one
        assert len(subdivisions) == 114
        assert stats.tensors == by_subbox == 232

    def test_memos_are_freed_when_the_run_returns(self, monkeypatch):
        memos = []
        original = cegar_module.check_feasibility

        def recording(constraints, box, depth, stats=None, *, memo=None):
            if all(ref() is not memo for ref in memos):
                memos.append(weakref.ref(memo))
            return original(constraints, box, depth, stats, memo=memo)

        monkeypatch.setattr(cegar_module, "check_feasibility", recording)
        t = Transcript()
        synthesize(parse_spec(SIDES_SHARE_A_POLYNOMIAL), CegarConfig(max_bound=1), t)
        assert count_theory_checks(t) == 3
        assert len(memos) == 2  # the input box's and the output box's
        assert all(ref() is None for ref in memos), "a memo outlived its run"
