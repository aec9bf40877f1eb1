"""Artifact tests: controller-file round-trips, the guarantee monitor, and
the seeded closed-loop simulator."""

import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from generators import random_polynomial, random_refinement_document, random_synthesis_document
from oracles import (
    cube_matches,
    reference_monitor_guarantees,
    reference_parse_controller_file,
    reference_render_dot,
)

from numltl import speclang as sl
from numltl.abstraction import EMPTY_MULTIPLEXER
from numltl.bernstein import RELATIONS, PolyConstraint, Polynomial
from numltl.cegar import (
    BUCHI,
    SAFETY,
    CegarConfig,
    Realizable,
    UnrealizableWithinBound,
    synthesize,
)
from numltl.controller_file import (
    ControllerFileError,
    KIND_CONTROLLER,
    KIND_COUNTER_STRATEGY,
    parse_controller_file,
    render_dot,
    render_realizable,
    render_unrealizable,
    spec_digest,
)
from numltl.games import MealyController
from numltl.simulate import SimulationError, monitor_guarantees, simulate
from numltl.speclang import parse_spec
from numltl.valuation import Valuation, all_valuations, parse_valuation

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def fixture(name: str):
    return parse_spec((SPEC_DIR / f"{name}.spec").read_text())


@pytest.fixture(scope="module")
def threshold_package():
    doc = fixture("threshold_arbiter")
    verdict = synthesize(doc, CegarConfig())
    return parse_controller_file(render_realizable(verdict, SAFETY)), verdict, doc


@pytest.fixture(scope="module")
def encoded_package():
    doc = fixture("error_monitor")
    verdict = synthesize(doc, CegarConfig())
    return parse_controller_file(render_realizable(verdict, SAFETY)), verdict, doc


@pytest.fixture(scope="module")
def counter_package():
    doc = fixture("triple_sensor_arbiter")
    verdict = synthesize(doc, CegarConfig(max_bound=2))
    return parse_controller_file(render_unrealizable(verdict, SAFETY)), verdict, doc


class TestValuationText:
    def test_round_trips_rendered_valuations(self):
        for v in all_valuations(("a", "b", "c")):
            assert parse_valuation(str(v)) == v
        assert parse_valuation("-") == Valuation.of({})

    def test_rejects_malformed_text(self):
        for bad in ("a", "a=2", "=1", "a=1,,b=0", ""):
            with pytest.raises(ValueError):
                parse_valuation(bad)

    def test_cached_sort_key_leaves_identity_and_text_alone(self):
        v = Valuation.of({"b": False, "a": True})
        assert v.sort_key() == (True, False) and v.sort_key() is v.sort_key()
        assert v == Valuation((("a", True), ("b", False)))
        assert hash(v) == hash(Valuation.of([("a", True), ("b", False)]))
        assert repr(v) == "Valuation(pairs=(('a', True), ('b', False)))"


class TestControllerFiles:
    def test_controller_round_trip(self, threshold_package):
        pkg, verdict, doc = threshold_package
        assert pkg.kind == KIND_CONTROLLER
        assert pkg.controller == verdict.controller
        assert pkg.counter_strategy is None
        assert pkg.multiplexer == verdict.multiplexer
        assert pkg.document == doc
        assert pkg.bound == verdict.bound
        assert pkg.algorithm == SAFETY
        assert pkg.refinements == tuple(
            ("input", v) for v in verdict.spec.input_refinements
        )
        assert pkg.spec_hash == spec_digest(doc)

    def test_encoded_controller_round_trip(self, encoded_package):
        pkg, verdict, doc = encoded_package
        assert pkg.controller == verdict.controller
        assert pkg.multiplexer == verdict.multiplexer
        assert len(pkg.multiplexer.rows) == 4
        assert pkg.document == doc

    def test_counter_strategy_round_trip(self, counter_package):
        pkg, verdict, doc = counter_package
        assert pkg.kind == KIND_COUNTER_STRATEGY
        assert pkg.counter_strategy == verdict.counter_strategy
        assert pkg.controller is None
        assert pkg.document == doc
        assert pkg.bound == verdict.bound

    def test_random_verdicts_round_trip(self):
        rng = random.Random(99)
        seen_controller = seen_counter = False
        for _ in range(25):
            doc = random_synthesis_document(rng)
            verdict = synthesize(doc, CegarConfig(max_bound=2))
            if isinstance(verdict, Realizable):
                pkg = parse_controller_file(render_realizable(verdict, SAFETY))
                assert pkg.controller == verdict.controller
                assert pkg.multiplexer == verdict.multiplexer
                seen_controller = True
            elif isinstance(verdict, UnrealizableWithinBound):
                pkg = parse_controller_file(render_unrealizable(verdict, SAFETY))
                assert pkg.counter_strategy == verdict.counter_strategy
                seen_counter = True
            if isinstance(verdict, (Realizable, UnrealizableWithinBound)):
                assert pkg.document == doc
        assert seen_controller and seen_counter

    def test_rejects_corrupted_files(self, threshold_package):
        pkg_text = render_realizable(threshold_package[1], SAFETY)
        with pytest.raises(ControllerFileError, match="expected 'NUMLTL'"):
            parse_controller_file("BOGUS\n" + pkg_text)
        with pytest.raises(ControllerFileError, match="unknown artifact kind"):
            parse_controller_file(pkg_text.replace("NUMLTL CONTROLLER", "NUMLTL ORACLE"))
        with pytest.raises(ControllerFileError, match="unknown algorithm"):
            parse_controller_file(pkg_text.replace("ALGORITHM safety", "ALGORITHM magic"))
        with pytest.raises(ControllerFileError, match="does not match the recorded hash"):
            parse_controller_file(pkg_text.replace("HASH f", "HASH 0", 1))
        with pytest.raises(ControllerFileError, match="malformed STEP"):
            parse_controller_file(pkg_text.replace("STEP 0 ", "STEP ", 1))
        with pytest.raises(ControllerFileError, match="unterminated BEGIN SPEC"):
            parse_controller_file(pkg_text.replace("END SPEC", "END SPE"))
        with pytest.raises(ControllerFileError, match="trailing content"):
            parse_controller_file(pkg_text + "EXTRA\n")
        with pytest.raises(ControllerFileError, match="embedded specification"):
            parse_controller_file(pkg_text.replace("- 7/2 <", "- 7/0 <"))

    @pytest.mark.parametrize(
        ("package", "line", "edited", "message"),
        [
            ("threshold_package", "INITIAL 0", "INITIAL 7", "INITIAL: 7 is not a state"),
            ("threshold_package", "STATES 4", "STATES 1", "STEP: 1 is not a state"),
            (
                "threshold_package",
                "STEP 0 req1=0,req2=0 grant1=0,grant2=0 1",
                "STEP 0 req1=0,req2=0 grant1=0,grant2=0 99",
                "STEP: 99 is not a state",
            ),
            (
                "threshold_package",
                "STEP 0 req1=0,req2=0 ",
                "STEP 4 req1=0,req2=0 ",
                "STEP: 4 is not a state",
            ),
            ("threshold_package", "BOUND 1", "BOUND -5", "BOUND: expected a positive integer"),
            ("threshold_package", "BOUND 1", "BOUND 0", "BOUND: expected a positive integer"),
            ("counter_package", "INITIAL 0", "INITIAL 12345", "INITIAL: 12345 is not a state"),
            ("counter_package", "STATES 0,7,8,12,13", "STATES 1", "INITIAL: 0 is not a state"),
            ("counter_package", "CANDIDATES 7 ", "CANDIDATES 9 ", "CANDIDATES: 9 is not a state"),
            ("counter_package", "SPOILED 13", "SPOILED 13,14", "SPOILED: 14 is not a state"),
            ("counter_package", "STEP 7 ", "STEP 6 ", "STEP: 6 is not a state"),
            (
                "counter_package",
                "grant1=1,grant2=1 8\n",
                "grant1=1,grant2=1 99\n",
                "STEP: 99 is not a state",
            ),
        ],
    )
    def test_rejects_states_outside_the_machine_and_nonpositive_bounds(
        self, package, line, edited, message, request
    ):
        """One mutant per rule; each must be read as the per-line reader reads it."""
        verdict = request.getfixturevalue(package)[1]
        render = render_realizable if isinstance(verdict, Realizable) else render_unrealizable
        text = render(verdict, SAFETY)
        assert line in text
        mutant = text.replace(line, edited, 1)
        with pytest.raises(ControllerFileError, match=message):
            parse_controller_file(mutant)
        with pytest.raises(ControllerFileError, match=message):
            reference_parse_controller_file(mutant)

    @pytest.mark.parametrize(
        ("package", "line", "added", "message"),
        [
            (
                "threshold_package",
                "STEP 1 req1=0,req2=1 grant1=0,grant2=0 2\n",
                "STEP 1 req1=0,req2=1 grant1=0,grant2=0 3\n",
                "STEP: state 1 has two lines for input req1=0,req2=1$",
            ),
            (
                "counter_package",
                "CANDIDATES 7 req1=1,req2=1\n",
                "CANDIDATES 7 -\n",
                "CANDIDATES: state 7 is listed twice",
            ),
            (
                "counter_package",
                "STEP 7 req1=1,req2=1 grant1=1,grant2=1 8\n",
                "STEP 7 req1=1,req2=1 grant1=1,grant2=1 12\n",
                "STEP: state 7 has two lines for input req1=1,req2=1 and output grant1=1,grant2=1",
            ),
        ],
    )
    def test_rejects_repeated_keys(self, package, line, added, message, request):
        """A second line for a key used to win over the first; each mutant
        must be read as the per-line reader reads it."""
        verdict = request.getfixturevalue(package)[1]
        render = render_realizable if isinstance(verdict, Realizable) else render_unrealizable
        text = render(verdict, SAFETY)
        assert line in text
        mutant = text.replace(line, line + added, 1)
        for parse in (parse_controller_file, reference_parse_controller_file):
            with pytest.raises(ControllerFileError, match=message):
                parse(mutant)

    @pytest.mark.parametrize(
        ("line", "edited", "message"),
        [
            # the deleted line's input is one the refinement leaves
            (
                "STEP 1 req1=0,req2=1 grant1=0,grant2=0 2\n",
                "",
                "STEP: state 1 has no line for input req1=0,req2=1",
            ),
            # without the refinement, the input it excluded needs lines too
            ("REFINE input req1=1,req2=1\n", "", "STEP: state 0 has no line for input req1=1,req2=1"),
            # a cube naming an atom that is no input excludes nothing
            (
                "REFINE input req1=1,req2=1\n",
                "REFINE input req1=1,zz=1\n",
                "STEP: state 0 has no line for input req1=1,req2=1",
            ),
        ],
    )
    def test_rejects_a_controller_missing_a_step_line(
        self, line, edited, message, threshold_package
    ):
        text = render_realizable(threshold_package[1], SAFETY)
        assert line in text
        mutant = text.replace(line, edited, 1)
        for parse in (parse_controller_file, reference_parse_controller_file):
            with pytest.raises(ControllerFileError, match=message):
                parse(mutant)

    def test_bound_none_is_still_read(self, threshold_package):
        text = render_realizable(threshold_package[1], SAFETY)
        assert parse_controller_file(text.replace("BOUND 1", "BOUND none")).bound is None

    def test_hash_line_must_match_embedded_spec(self, threshold_package):
        text = render_realizable(threshold_package[1], SAFETY)
        tampered = text.replace("REAL x IN [0, 4]", "REAL x IN [0, 8]")
        with pytest.raises(ControllerFileError, match="hash"):
            parse_controller_file(tampered)

    @pytest.mark.parametrize(
        "package", ["threshold_package", "encoded_package", "counter_package"]
    )
    def test_dot_output_matches_reference(self, package, request):
        pkg = request.getfixturevalue(package)[0]
        machine = pkg.controller or pkg.counter_strategy
        assert render_dot(machine) == reference_render_dot(machine)

    def test_bare_block_keywords_are_malformed(self, encoded_package, counter_package):
        controller = render_realizable(encoded_package[1], SAFETY)
        counter = render_unrealizable(counter_package[1], SAFETY)
        for text, line, message in [
            (controller, "STEP", "malformed STEP line"),
            (controller, "ROW", "malformed ROW line in the multiplexer block"),
            (counter, "STEP", "malformed STEP line"),
            (counter, "CANDIDATES", "malformed CANDIDATES line"),
        ]:
            head, sep, tail = text.partition(f"\n{line} ")
            assert sep
            with pytest.raises(ControllerFileError, match=f"^{message}$"):
                parse_controller_file(f"{head}\n{line}\n{line} {tail}")

    def test_dot_output_names_every_state(self, threshold_package, counter_package):
        pkg = threshold_package[0]
        dot = render_dot(pkg.controller)
        assert dot.startswith("digraph")
        for s in range(pkg.controller.n_states):
            assert f'"{s}"' in dot
        cs_dot = render_dot(counter_package[0].counter_strategy)
        for s in counter_package[0].counter_strategy.states:
            assert f'"{s}"' in cs_dot
        assert "doublecircle" in cs_dot  # the spoiled terminal state


def worlds(*steps: dict) -> list:
    return [Valuation.of(step) for step in steps]


class TestMonitor:
    RESPONSE = parse_spec("INPUT p\nOUTPUT q\nALWAYS (p -> NEXT (q))\n")

    def test_safety_window_violation_is_located(self):
        trace = worlds({"p": True, "q": False}, {"p": False, "q": False})
        report = monitor_guarantees(self.RESPONSE, trace)
        assert report.violations == (("g1", 0),)

    def test_safety_holds_on_complying_trace(self):
        trace = worlds(
            {"p": True, "q": False}, {"p": True, "q": True}, {"p": False, "q": True}
        )
        report = monitor_guarantees(self.RESPONSE, trace)
        assert report.violations == () and report.pending == ()

    def test_incomplete_final_window_is_not_judged(self):
        trace = worlds({"p": True, "q": False})
        report = monitor_guarantees(self.RESPONSE, trace)
        assert report.violations == ()

    def test_eventual_response_counts_open_obligations(self):
        doc = parse_spec("INPUT p\nOUTPUT q\nALWAYS (p -> EVENTUALLY (q))\n")
        unresolved = worlds({"p": True, "q": False}, {"p": True, "q": False})
        assert monitor_guarantees(doc, unresolved).pending == (("g1", 2),)
        resolved = worlds({"p": True, "q": False}, {"p": False, "q": True})
        report = monitor_guarantees(doc, resolved)
        assert report.pending == () and report.violations == ()

    def test_until_response_judges_the_failing_step(self):
        doc = parse_spec("INPUT p\nOUTPUT q, r\nALWAYS (p -> q UNTIL r)\n")
        violated = worlds(
            {"p": True, "q": True, "r": False},
            {"p": False, "q": False, "r": False},
        )
        assert monitor_guarantees(doc, violated).violations == (("g1", 1),)
        released = worlds(
            {"p": True, "q": True, "r": False},
            {"p": False, "q": False, "r": True},
        )
        assert monitor_guarantees(doc, released).violations == ()
        hanging = worlds({"p": True, "q": True, "r": False})
        assert monitor_guarantees(doc, hanging).pending == (("g1", 1),)

    def test_single_eventuality_resolves_or_pends(self):
        doc = parse_spec("INPUT p\nOUTPUT q\nEVENTUALLY (q)\n")
        assert monitor_guarantees(doc, worlds({"p": True, "q": False})).pending == (
            ("g1", 1),
        )
        assert monitor_guarantees(doc, worlds({"p": True, "q": True})).pending == ()

    def test_recurrence_counts_the_silent_tail(self):
        doc = parse_spec("INPUT p\nOUTPUT q\nALWAYS (EVENTUALLY (q))\n")
        trace = worlds(
            {"p": False, "q": False},
            {"p": False, "q": True},
            {"p": False, "q": False},
            {"p": False, "q": False},
        )
        assert monitor_guarantees(doc, trace).pending == (("g1", 2),)

    def test_unsupported_shapes_are_reported_not_judged(self):
        doc = parse_spec("INPUT p\nOUTPUT q\np UNTIL q\n")
        report = monitor_guarantees(doc, worlds({"p": False, "q": False}))
        assert report.unmonitored == ("g1",)
        assert report.violations == ()

    def test_assumptions_are_not_monitored(self):
        doc = parse_spec(
            "INPUT p\nOUTPUT q\nASSUME ALWAYS (p)\nALWAYS (q -> q)\n"
        )
        trace = worlds({"p": False, "q": False})  # assumption breached
        report = monitor_guarantees(doc, trace)
        assert report.violations == () and report.pending == ()


@pytest.fixture(scope="module")
def bundled_controllers():
    """The controllers of the README session: threshold_arbiter on both
    routes and error_monitor on the safety route."""
    packages = []
    for name, algorithm in (
        ("threshold_arbiter", SAFETY),
        ("threshold_arbiter", BUCHI),
        ("error_monitor", SAFETY),
    ):
        verdict = synthesize(fixture(name), CegarConfig(algorithm=algorithm))
        packages.append(parse_controller_file(render_realizable(verdict, algorithm)))
    return packages


def monitored(pkg, steps: int, seed: int, inject=None):
    """The simulator's monitor report on a seeded run, checked against the
    rescanning monitor it replaced."""
    trace = simulate(pkg, steps, seed=seed, inject=inject)
    joined = [step.inputs.merge(step.outputs) for step in trace.steps]
    report = monitor_guarantees(pkg.document, joined)
    assert report == reference_monitor_guarantees(pkg.document, joined)
    assert (report.violations, report.pending) == (trace.violations, trace.pending)
    return report


class TestOnePassMonitor:
    def test_matches_reference_on_seeded_runs(self, bundled_controllers):
        for pkg in bundled_controllers:
            for seed in range(3):
                monitored(pkg, 400, seed)

    def test_matches_reference_under_injection(self, bundled_controllers):
        reports = []
        for pkg in bundled_controllers:
            for atom in pkg.controller.inputs:
                for value in (False, True):
                    reports.append(monitored(pkg, 200, 7, Valuation.of({atom: value})))
        error_monitor = bundled_controllers[2]
        held = Valuation.of({"error": True, "operator": False})
        reports.append(monitored(error_monitor, 200, 7, held))
        assert any(report.violations for report in reports)
        assert any(report.pending for report in reports)

    def test_matches_reference_on_random_traces(self):
        doc = parse_spec(
            "INPUT p\nOUTPUT q, r\n"
            "ALWAYS (p -> EVENTUALLY (q))\n"
            "ALWAYS (p -> q UNTIL r)\n"
            "ALWAYS (EVENTUALLY (r))\n"
            "EVENTUALLY (q && r)\n"
            "ALWAYS (p -> NEXT (q || r))\n"
        )
        rng = random.Random(3306)
        judged = 0
        for _ in range(400):
            bias = rng.random()
            trace = [
                Valuation.of({atom: rng.random() < bias for atom in "pqr"})
                for _ in range(rng.randint(0, 25))
            ]
            report = monitor_guarantees(doc, trace)
            assert report == reference_monitor_guarantees(doc, trace)
            judged += any(gid == "g2" for gid, _ in report.violations + report.pending)
        assert judged >= 100


class TestSimulate:
    def test_seeded_runs_are_byte_identical(self, threshold_package):
        pkg = threshold_package[0]
        a = simulate(pkg, 100, seed=11).render()
        b = simulate(pkg, 100, seed=11).render()
        assert a == b
        assert a != simulate(pkg, 100, seed=12).render()

    def test_samples_stay_inside_the_declared_box(self, threshold_package):
        pkg = threshold_package[0]
        trace = simulate(pkg, 200, seed=5)
        for step in trace.steps:
            for name, value in step.samples:
                assert Fraction(0) <= value <= Fraction(4)
                assert (value * 2**20).denominator in (1, 2, 4)  # range is 4 wide

    @pytest.mark.parametrize(
        "index", range(3), ids=("threshold-safety", "threshold-buchi", "error_monitor")
    )
    def test_predicates_match_exact_evaluation(self, bundled_controllers, index):
        pkg = bundled_controllers[index]
        trace = simulate(pkg, 200, seed=2)
        preds = {p.atom: p.constraint for p in pkg.document.predicates}
        for step in trace.steps:
            point = tuple(v for _, v in step.samples)
            for atom, constraint in preds.items():
                assert step.inputs[atom] == constraint.holds_at(point)

    def test_lattice_signs_match_exact_evaluation_on_random_predicates(self, threshold_package):
        """Predicates of degree up to 4 in one to three sensors whose ranges
        have negative and non-dyadic endpoints, some of them zero-width; the
        samples are replayed from the seed, Booleans first, then one lattice
        index per sensor in declaration order."""
        rng = random.Random(3307)
        answers = {False: 0, True: 0}
        zero_values = 0
        for case in range(18):
            arity = case % 3 + 1
            decls = []
            for i in range(arity):
                lo = Fraction(rng.randint(-9, 3), rng.choice((1, 3, 7)))
                width = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5)))
                if i == case % arity and case % 4 == 0:
                    width = Fraction(0)
                decls.append(sl.RealVarDecl(f"x{i}", lo, lo + width, sl.INPUT_SIDE))
            middle = tuple((d.lower + d.upper) / 2 for d in decls)
            # 0, and x0 - lo: zero at every step where x0 has zero width
            polys = [
                Polynomial.zero(arity),
                Polynomial.variable(arity, 0) - Polynomial.constant(arity, decls[0].lower),
            ]
            for _ in range(3):
                p = random_polynomial(rng, arity, max_degree=4, max_terms=4)
                p = p.scale(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
                polys.append(p - Polynomial.constant(arity, p.evaluate(middle)))
            preds = tuple(
                sl.PredicateDef(f"p{j}", PolyConstraint(p, rng.choice(RELATIONS)), sl.INPUT_SIDE)
                for j, p in enumerate(polys)
            )
            doc = sl.SpecDocument(("b",), ("g",), tuple(decls), preds, (), ())
            # no transitions: every step is stuck, and its inputs are recorded
            idle = MealyController(doc.input_atoms(), ("g",), 1, 0, {})
            pkg = dataclasses.replace(
                threshold_package[0], document=doc, controller=idle, multiplexer=EMPTY_MULTIPLEXER
            )
            seed = rng.randrange(1000)
            trace = simulate(pkg, 120, seed=seed)
            replay = random.Random(seed)
            for step in trace.steps:
                assert step.inputs["b"] == bool(replay.getrandbits(1))
                expected = tuple(
                    (d.name, d.lower + (d.upper - d.lower) * Fraction(replay.randrange(2**20 + 1), 2**20))
                    for d in decls
                )
                assert step.samples == expected
                point = tuple(v for _, v in step.samples)
                for pred in preds:
                    holds = pred.constraint.holds_at(point)
                    assert step.inputs[pred.atom] == holds
                    answers[holds] += 1
                    zero_values += pred.constraint.poly.evaluate(point) == 0
        assert min(answers.values()) >= 1000
        assert zero_values >= (18 + 4) * 120  # x0 has zero width in four cases

    def test_no_stuck_steps_without_injection(self, threshold_package):
        trace = simulate(threshold_package[0], 300, seed=9)
        assert not any(s.stuck for s in trace.steps)
        assert trace.violations == ()

    def test_injection_forces_a_monitored_violation(self, threshold_package):
        pkg = threshold_package[0]
        trace = simulate(
            pkg, 30, seed=9, inject=Valuation.of({"req1": True, "req2": True})
        )
        assert any(s.stuck for s in trace.steps)
        assert trace.violations
        gid, step = trace.violations[0]
        assert trace.steps[step].violations == tuple(
            g for g, t in trace.violations if t == step
        )
        assert trace.render().splitlines()[-1].startswith("RESULT violations=")

    def test_encoded_controller_emits_original_atoms(self, encoded_package):
        pkg, _, doc = encoded_package
        trace = simulate(pkg, 300, seed=4)
        assert trace.violations == ()
        for step in trace.steps:
            assert step.outputs.atoms == tuple(sorted(doc.boolean_outputs))

    def test_counter_strategy_artifacts_cannot_be_simulated(self, counter_package):
        with pytest.raises(SimulationError, match="only controller artifacts"):
            simulate(counter_package[0], 10)

    def test_unknown_injected_atom_is_an_error(self, threshold_package):
        with pytest.raises(SimulationError, match="not an input"):
            simulate(threshold_package[0], 5, inject=Valuation.of({"nope": True}))


def _rename_above_spec(text: str, start: str, old: str, new: str) -> str:
    """``old`` renamed to ``new`` from the ``start`` line to the embedded spec."""
    i, j = text.index(start), text.index("BEGIN SPEC")
    return text[:i] + text[i:j].replace(old, new) + text[j:]


class TestArtifactAtoms:
    """Edited artifacts whose atoms disagree with the embedded spec are
    rejected when read, not when a simulation trips over them."""

    def test_renamed_step_output_is_rejected(self, threshold_package):
        text = render_realizable(threshold_package[1], SAFETY)
        with pytest.raises(ControllerFileError, match="STEP: valuation grant1=0,grant7=0"):
            parse_controller_file(text.replace("grant2=", "grant7=", 1))

    def test_input_atom_as_step_output_is_rejected(self, threshold_package):
        text = render_realizable(threshold_package[1], SAFETY)
        tampered = text.replace(" grant1=0,grant2=0 ", " grant2=0,req1=0 ", 1)
        with pytest.raises(ControllerFileError, match="does not assign exactly grant1,grant2"):
            parse_controller_file(tampered)

    def test_atom_lists_must_match_the_spec(self, threshold_package, encoded_package):
        text = render_realizable(threshold_package[1], SAFETY)
        with pytest.raises(ControllerFileError, match="INPUTS req2,req1 should be req1,req2"):
            parse_controller_file(text.replace("INPUTS req1,req2", "INPUTS req2,req1"))
        with pytest.raises(ControllerFileError, match="OUTPUTS grant1,grant7 should be"):
            parse_controller_file(_rename_above_spec(text, "OUTPUTS", "grant2", "grant7"))
        encoded = render_realizable(encoded_package[1], SAFETY)
        with pytest.raises(ControllerFileError, match="ENCODED sig1,sig9 should be sig1,sig2"):
            parse_controller_file(_rename_above_spec(encoded, "BEGIN MUX", "sig2", "sig9"))
        with pytest.raises(ControllerFileError, match="ORIGINAL halt,grant1,grant2,grant3 should be"):
            parse_controller_file(_rename_above_spec(encoded, "BEGIN MUX", "stop", "halt"))

    def test_rows_and_candidates_assign_their_atoms(self, encoded_package, counter_package):
        encoded = render_realizable(encoded_package[1], SAFETY)
        row = next(line for line in encoded.splitlines() if line.startswith("ROW "))
        word = row.split(" ")[1]
        with pytest.raises(ControllerFileError, match="ROW: valuation"):
            parse_controller_file(encoded.replace(row, row.replace(word, "sig1=0", 1)))
        counter = render_unrealizable(counter_package[1], SAFETY)
        with pytest.raises(ControllerFileError, match="CANDIDATES: valuation req1=1 "):
            parse_controller_file(counter.replace("CANDIDATES 0 req1=1,req2=1", "CANDIDATES 0 req1=1"))

    def test_undecodable_step_output_is_rejected(self, encoded_package):
        encoded = render_realizable(encoded_package[1], SAFETY)
        row = next(line for line in encoded.splitlines() if line.startswith("ROW "))
        word = row.split(" ")[1]
        with pytest.raises(ControllerFileError, match=f"STEP output {word} has no ROW"):
            parse_controller_file(encoded.replace(row + "\n", ""))


# fragments a mutant splices into the machine part of an artifact: atom
# names (one unknown, one from the other side), valuation pieces, separators
_ARTIFACT_PIECES = (
    "grant7", "req1", "grant1", "sig1", "stop", "=0", "=1", "=2", ",", ";", "-",
    " ", "0", "1", "99", "\n",
)


def _artifact_mutant(rng: random.Random, text: str) -> str:
    """Line and word edits above the embedded spec, which the hash guards."""
    head, sep, spec = text.partition("BEGIN SPEC")
    lines = head.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        roll = rng.random()
        if roll < 0.15:
            del lines[i]
        elif roll < 0.25:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif roll < 0.35:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            line = lines[i]
            words = [m.span() for m in re.finditer(r"[A-Za-z_]\w*|\d+", line)]
            if words and roll < 0.8:
                start, end = rng.choice(words)
            else:
                start = rng.randrange(len(line))
                end = start + rng.randint(0, 2)
            lines[i] = line[:start] + rng.choice(_ARTIFACT_PIECES) + line[end:]
    return "".join(lines) + sep + spec


def _read(parse, text: str):
    try:
        return parse(text)
    except ControllerFileError as exc:
        return str(exc)


DATA_DIR = Path(__file__).resolve().parent / "data"


def test_synthesized_controllers_cover_exactly_the_unrefined_inputs():
    """Every controller has a STEP line for each state and each input
    valuation no input refinement excludes, and none for an excluded one:
    the bundled specs, ``tests/data`` (the arbiter family among them) and
    generated documents, on both routes.  The reader rejects a missing
    line, so this is what keeps every artifact readable."""
    rng = random.Random(1717)
    runs = [
        (parse_spec(path.read_text()), CegarConfig(algorithm=algorithm))
        for path in sorted(SPEC_DIR.glob("*.spec")) + sorted(DATA_DIR.glob("*.spec"))
        for algorithm in (SAFETY, BUCHI)
    ]
    documents = [random_synthesis_document(rng) for _ in range(30)]
    documents += [random_refinement_document(rng) for _ in range(30)]
    runs += [
        (doc, CegarConfig(algorithm=algorithm, max_bound=2))
        for doc in documents
        for algorithm in (SAFETY, BUCHI)
    ]
    controllers = refined = 0
    for doc, cfg in runs:
        verdict = synthesize(doc, cfg)
        if not isinstance(verdict, Realizable):
            continue
        machine = verdict.controller
        cubes = verdict.spec.input_refinements
        unrefined = [
            vin
            for vin in all_valuations(machine.inputs)
            if not any(cube_matches(cube, vin) for cube in cubes)
        ]
        assert set(machine.step) == {
            (state, vin) for state in range(machine.n_states) for vin in unrefined
        }
        pkg = parse_controller_file(render_realizable(verdict, cfg.algorithm))
        assert pkg.controller == machine
        controllers += 1
        refined += bool(cubes)
    assert controllers >= 40 and refined >= 10


class TestArtifactMutationSweep:
    @pytest.mark.parametrize(
        "package", ["threshold_package", "encoded_package", "counter_package"]
    )
    def test_mutants_read_as_the_per_line_reader_reads_them(self, package, request):
        """The block reader parses each distinct number and valuation once;
        on every mutant it must return the per-line reader's package, or
        raise its error message."""
        verdict = request.getfixturevalue(package)[1]
        render = render_realizable if isinstance(verdict, Realizable) else render_unrealizable
        text = render(verdict, SAFETY)
        assert _read(parse_controller_file, text) == _read(reference_parse_controller_file, text)
        rng = random.Random(f"reader-mutants:{package}")
        rejected = 0
        for _ in range(150):
            mutant = _artifact_mutant(rng, text)
            outcome = _read(parse_controller_file, mutant)
            assert outcome == _read(reference_parse_controller_file, mutant)
            rejected += isinstance(outcome, str)
        assert rejected >= 25

    @pytest.mark.parametrize(
        "package", ["threshold_package", "encoded_package", "counter_package"]
    )
    def test_mutated_artifacts_fail_only_with_documented_errors(self, package, request):
        verdict = request.getfixturevalue(package)[1]
        render = render_realizable if isinstance(verdict, Realizable) else render_unrealizable
        text = render(verdict, SAFETY)
        rng = random.Random(f"artifact-mutants:{package}")
        outcomes = {"rejected": 0, "simulated": 0, "refused": 0}
        for seed in range(600):
            mutant = _artifact_mutant(rng, text)
            try:
                pkg = parse_controller_file(mutant)
            except ControllerFileError:
                outcomes["rejected"] += 1
                continue
            try:
                simulate(pkg, 20, seed)
            except SimulationError:
                outcomes["refused"] += 1
            else:
                outcomes["simulated"] += 1
        assert outcomes["rejected"] >= 100, outcomes
        # a mutant that deletes, repeats or re-keys a STEP line is rejected:
        # of threshold_arbiter's 600, 12 still read, and 30 of error_monitor's
        assert outcomes["simulated"] + outcomes["refused"] >= 10, outcomes
