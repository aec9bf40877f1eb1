"""The simulator that builds, decodes, merges and monitors each distinct
letter once, and its monitor that judges each guarantee on the whole trace
at once through ``speclang.truth``, against the per-step versions they
replaced (kept in ``oracles.py``): every trace step, the monitor report
and the rendering must agree exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from generators import random_formula, random_refinement_document, random_synthesis_document
from oracles import (
    reference_monitor_guarantees,
    reference_render,
    reference_simulate,
    reference_stepwise_monitor_guarantees,
)

from numltl import speclang as sl
from numltl.cegar import CegarConfig, Realizable, synthesize
from numltl.controller_file import parse_controller_file, render_realizable
from numltl.simulate import TraceStep, monitor_guarantees, simulate
from numltl.speclang import parse_spec
from numltl.valuation import Valuation, all_valuations

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
DATA_DIR = Path(__file__).resolve().parent / "data"
ROUTES = ("safety", "buchi")


def controller_package(doc: sl.SpecDocument, cfg: CegarConfig):
    """The parsed controller artifact of ``doc``, or None when ``synthesize``
    finds no controller."""
    verdict = synthesize(doc, cfg)
    if not isinstance(verdict, Realizable):
        return None
    return parse_controller_file(render_realizable(verdict, cfg.algorithm))


def injections(pkg) -> list[Valuation | None]:
    """No injection, every input held true, the first input held true and
    the second false, and the first input letter the controller has no move
    for in its initial state: the held letters are often ones the theory or
    the controller rules out, so these runs get stuck, violate guarantees
    or leave obligations open."""
    m = pkg.controller
    held = [None]
    if m.inputs:
        held.append(Valuation.of({atom: True for atom in m.inputs}))
        held.append(Valuation.of(dict(zip(m.inputs, (True, False)))))
    refused = [v for v in all_valuations(m.inputs) if (m.initial, v) not in m.step]
    return held + refused[:1]


def assert_same_runs(pkg, steps: int, seeds) -> Counter:
    """Simulate ``pkg`` under every seed and injection with both simulators;
    counts the runs with a stuck step, a violation or a pending obligation."""
    runs = Counter()
    for seed in seeds:
        for inject in injections(pkg):
            trace = simulate(pkg, steps, seed, inject)
            expected = reference_simulate(pkg, steps, seed, inject)
            assert len(trace.steps) == len(expected.steps) == steps
            for step, reference in zip(trace.steps, expected.steps):
                for field in fields(TraceStep):
                    assert getattr(step, field.name) == getattr(reference, field.name), (
                        seed,
                        inject,
                        step.index,
                        field.name,
                    )
            assert trace == expected
            assert trace.render() == reference_render(expected)
            runs["stuck"] += any(step.stuck for step in trace.steps)
            runs["violated"] += bool(trace.violations)
            runs["pending"] += bool(trace.pending)
    return runs


@pytest.fixture(scope="module")
def spec_packages():
    """The controllers of the bundled specs and the ``tests/data`` arbiters,
    on both routes, with the default schedule."""
    paths = sorted(SPEC_DIR.glob("*.spec")) + sorted(DATA_DIR.glob("arbiter*.spec"))
    packages = {}
    for path in paths:
        doc = parse_spec(path.read_text())
        for route in ROUTES:
            pkg = controller_package(doc, CegarConfig(algorithm=route))
            if pkg is not None:
                packages[f"{path.stem}/{route}"] = pkg
    return packages


def test_spec_controllers_simulate_as_the_stepwise_reference(spec_packages):
    assert {"threshold_arbiter/safety", "threshold_arbiter/buchi"} <= set(spec_packages)
    assert "error_monitor/safety" in spec_packages
    assert {"arbiter2-disjoint/safety", "arbiter2-disjoint/buchi"} <= set(spec_packages)
    runs = {
        name: assert_same_runs(pkg, 300, seeds=(0, 7, 2026))
        for name, pkg in spec_packages.items()
    }
    # error_monitor's controller moves on every letter and keeps its
    # guarantees: held letters leave its obligations open instead
    assert runs.pop("error_monitor/safety")["pending"] >= 3
    for name, counts in runs.items():
        assert counts["stuck"] >= 3 and counts["violated"] >= 3, (name, counts)


def generated_packages(rng: random.Random, make, count: int) -> list:
    """Controllers of the first ``count`` documents ``make`` generates that
    are realizable within bound 2, the routes taken in turn."""
    packages = []
    while len(packages) < count:
        route = ROUTES[len(packages) % 2]
        cfg = CegarConfig(algorithm=route, max_bound=2)
        pkg = controller_package(make(rng), cfg)
        if pkg is not None:
            packages.append(pkg)
    return packages


def test_generated_controllers_simulate_as_the_stepwise_reference():
    """Synthesis documents give total controllers, which only violations
    can trip; refinement documents give controllers without moves for the
    input letters the theory rules out, which held letters get stuck on."""
    rng = random.Random(3310)
    total = generated_packages(rng, random_synthesis_document, 24)
    refined = generated_packages(rng, random_refinement_document, 8)
    assert any(pkg.document.real_vars for pkg in total)
    assert sum(bool(pkg.refinements) for pkg in refined) >= 4
    runs = sum((assert_same_runs(pkg, 120, seeds=(1, 5)) for pkg in total + refined), Counter())
    assert runs["stuck"] >= 20 and runs["violated"] >= 25, runs


def windowed_formula(rng: random.Random, atoms: list[str], depth: int) -> sl.Formula:
    """Random formula whose only temporal operator is NEXT."""
    if depth == 0 or rng.random() < 0.2:
        return sl.Atom(rng.choice(atoms)) if rng.random() < 0.9 else sl.TrueFormula()
    shape = rng.choice(("not", "next", "next", "and", "or", "implies"))
    if shape == "not":
        return sl.Not(windowed_formula(rng, atoms, depth - 1))
    if shape == "next":
        return sl.Next(windowed_formula(rng, atoms, depth - 1))
    ctor = {"and": sl.And, "or": sl.Or, "implies": sl.Implies}[shape]
    return ctor(windowed_formula(rng, atoms, depth - 1), windowed_formula(rng, atoms, depth - 1))


def propositional(rng: random.Random, atoms: list[str]) -> sl.Formula:
    formula = windowed_formula(rng, atoms, 2)
    return formula if sl.is_propositional(formula) else sl.Atom(rng.choice(atoms))


def test_monitor_matches_the_stepwise_reference_on_random_traces():
    """NEXT-depth bodies of depth 1 to 4, the Until and Eventually response
    shapes, ALWAYS EVENTUALLY, EVENTUALLY and unmonitorable formulas over
    three atoms, on random traces short and long enough for windows to
    repeat and to differ."""
    rng = random.Random(3311)
    atoms = ["p", "q", "r"]
    judged = {"next": 0, "until": 0, "eventually": 0}
    for _ in range(300):
        guarantees = []
        while len(guarantees) < 2:
            body = windowed_formula(rng, atoms, 5)
            if (sl.next_depth(body) or 0) >= 1:
                guarantees.append(sl.Always(body))
        p, q, r = (propositional(rng, atoms) for _ in range(3))
        guarantees += [
            sl.Always(sl.Implies(p, sl.Until(q, r))),
            sl.Always(sl.Implies(p, sl.Eventually(q))),
            sl.Always(sl.Eventually(r)),
            sl.Eventually(q),
            random_formula(rng, atoms, 3),
        ]
        doc = sl.SpecDocument(("p",), ("q", "r"), (), (), (), tuple(guarantees))
        bias = rng.random()
        trace = [
            Valuation.of({atom: rng.random() < bias for atom in atoms})
            for _ in range(rng.randint(0, 40))
        ]
        report = monitor_guarantees(doc, trace)
        assert report == reference_stepwise_monitor_guarantees(doc, trace)
        assert report == reference_monitor_guarantees(doc, trace)
        settled = {gid for gid, _ in report.violations + report.pending}
        judged["next"] += bool({"g1", "g2"} & settled)
        judged["until"] += "g3" in settled
        judged["eventually"] += "g4" in settled
    assert min(judged.values()) >= 50, judged
