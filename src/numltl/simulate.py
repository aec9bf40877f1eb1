"""Seeded closed-loop simulation of a synthesized controller.

Each step samples the declared Boolean inputs and real sensor values (lattice
points lo + (hi - lo) k / 2^20 with k uniform in 0..2^20), evaluates the
input predicates exactly, steps the controller, decodes the emitted outputs
through the multiplexer, and feeds the combined valuation to a guarantee
monitor.  The predicates are evaluated on the lattice indices: once per run,
each predicate p is compiled to the integer polynomial q(k) = D p(x(k)),
with D > 0 the least common denominator of the substituted coefficients, so
that the sign of q(k), computed with ints, is the sign of p at the sample.
Safety guarantees (ALWAYS over a body whose only temporal operator is NEXT)
are judged exactly on every complete window; liveness guarantees are never
judged violated on a finite trace and instead report their unresolved
obligations at the end.

An injection valuation overrides chosen input atoms after predicate
evaluation, which can force combinations the theory rules out; its atoms are
checked against the inputs before the first step.  Inputs the controller has
no transition for (possible only under injection, since the loop samples
within the declared ranges) leave the state unchanged and emit all-false
outputs; the monitor judges the consequences.

Letters repeat from a few dozen distinct values, so a step does only int
arithmetic and dict lookups, and everything that depends on a letter alone
happens once per distinct letter: a step's input is keyed by its Boolean
draws and predicate signs, and its ``Valuation`` is built the first time
the key appears; each emitted code-word is decoded once, and each (input,
output) pair merged once.  The monitor judges each guarantee's formulas on
the whole trace at once (``speclang.truth``, one visit per subformula),
and the rendering formats each distinct valuation once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import speclang as sl
from .bernstein import satisfies
from .controller_file import KIND_CONTROLLER, ControllerPackage
from .valuation import Memo, Valuation

SAMPLE_BITS = 20

OK = "ok"
STUCK = "stuck"


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class TraceStep:
    index: int
    samples: tuple[tuple[str, Fraction], ...]
    inputs: Valuation
    outputs: Valuation
    state_before: int
    state_after: int
    stuck: bool
    violations: tuple[str, ...]  # guarantee ids first violated at this step


@dataclass(frozen=True)
class SimulationTrace:
    seed: int
    steps: tuple[TraceStep, ...]
    violations: tuple[tuple[str, int], ...]  # (guarantee id, first violating step)
    pending: tuple[tuple[str, int], ...]  # (liveness id, unresolved obligations)
    unmonitored: tuple[str, ...]

    def render(self) -> str:
        lines = [f"SIM seed={self.seed} steps={len(self.steps)}"]
        shown = Memo(lambda v: str(v) if v.pairs else "-")
        for s in self.steps:
            samples = ",".join(f"{n}={v}" for n, v in s.samples) if s.samples else "-"
            status = f"violation({','.join(s.violations)})" if s.violations else OK
            if s.stuck:
                status += f" {STUCK}"
            lines.append(
                f"{s.index} {samples} {shown[s.inputs]} {shown[s.outputs]}"
                f" {s.state_before}->{s.state_after} {status}"
            )
        for gid, step in self.violations:
            lines.append(f"VIOLATION {gid} step={step}")
        for gid, count in self.pending:
            lines.append(f"PENDING {gid} count={count}")
        for gid in self.unmonitored:
            lines.append(f"UNMONITORED {gid}")
        outcome = OK if not self.violations else f"violations={len(self.violations)}"
        lines.append(f"RESULT {outcome}")
        return "\n".join(lines) + "\n"


# -- guarantee monitor -------------------------------------------------------


@dataclass(frozen=True)
class MonitorReport:
    violations: tuple[tuple[str, int], ...]
    pending: tuple[tuple[str, int], ...]
    unmonitored: tuple[str, ...]


def _monitor_one(g: sl.Formula, trace: list[dict[str, bool]]) -> tuple[int | None, int | None]:
    """Judge one guarantee on ``trace``; returns (first violating step or
    None, pending obligation count or None when the shape is not
    monitorable).  Formulas are judged on the whole trace at once, its last
    step repeating, which no complete NEXT window reads: an open response
    trigger, or a step after the last answer of ``ALWAYS EVENTUALLY``, is a
    step where the guarantee's body is false."""
    horizon = len(trace)

    def at(f: sl.Formula) -> list[bool]:
        return sl.truth(f, trace, horizon - 1)

    if isinstance(g, sl.Always):
        body = g.operand
        depth = sl.next_depth(body)
        if depth is not None:
            holds = at(body)
            return next((t for t in range(horizon - depth) if not holds[t]), None), 0
        if isinstance(body, sl.Implies) and sl.is_propositional(body.left):
            p, rhs = body.left, body.right
            if isinstance(rhs, sl.Eventually) and sl.is_propositional(rhs.operand):
                return None, at(body).count(False)
            if (
                isinstance(rhs, sl.Until)
                and sl.is_propositional(rhs.left)
                and sl.is_propositional(rhs.right)
            ):
                # a backward scan, so the step that settles a trigger is
                # known when the trigger is reached.  ``stop``: the first
                # step from t on where the right side holds (the trigger is
                # met) or the left fails (it is broken)
                trigger, kept, met = at(p), at(rhs.left), at(rhs.right)
                pending, violated_at, stop, broken = 0, None, None, False
                for t in reversed(range(horizon)):
                    if met[t]:
                        stop, broken = t, False
                    elif not kept[t]:
                        stop, broken = t, True
                    if not trigger[t]:
                        continue
                    if stop is None:
                        pending += 1
                    elif broken:
                        violated_at = stop  # kept last: the earliest trigger's
                if violated_at is not None:
                    return violated_at, 0
                return None, pending
        if isinstance(body, sl.Eventually) and sl.is_propositional(body.operand):
            return None, at(body).count(False)
    if isinstance(g, sl.Eventually) and sl.is_propositional(g.operand):
        return None, 0 if any(at(g.operand)) else 1
    return None, None


def monitor_guarantees(doc: sl.SpecDocument, trace: list[Valuation]) -> MonitorReport:
    words = Memo(Valuation.as_dict)
    return _monitor(doc, [words[w] for w in trace])


def _monitor(doc: sl.SpecDocument, trace: list[dict[str, bool]]) -> MonitorReport:
    """The guarantees judged on ``trace``."""
    violations = []
    pending = []
    unmonitored = []
    for i, g in enumerate(doc.guarantees, start=1):
        gid = f"g{i}"
        violated_at, open_count = _monitor_one(g, trace)
        if violated_at is not None:
            violations.append((gid, violated_at))
        elif open_count is None:
            unmonitored.append(gid)
        elif open_count:
            pending.append((gid, open_count))
    return MonitorReport(tuple(violations), tuple(pending), tuple(unmonitored))


# -- the closed loop ---------------------------------------------------------


# one predicate on the sample lattice: (atom, relation, integer terms), each
# term a coefficient with the (index, exponent) pairs of its lattice indices
LatticeTest = tuple[str, str, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]


def _lattice_tests(
    preds: tuple[sl.PredicateDef, ...], decls: tuple[sl.RealVarDecl, ...]
) -> list[LatticeTest]:
    """Each predicate p as q(k) = D p(x(k)), x_i(k) = lo_i + (hi_i - lo_i)
    k_i / 2^SAMPLE_BITS, with D > 0 the least common denominator of the
    substituted coefficients: q has integer coefficients and the sign of p."""
    offsets = [d.lower for d in decls]
    scales = [(d.upper - d.lower) / 2**SAMPLE_BITS for d in decls]
    tests = []
    for pred in preds:
        q = pred.constraint.poly.affine_substitute(offsets, scales)
        denominator = lcm(*(c.denominator for c in q.terms.values()))
        terms = tuple(
            (int(c * denominator), tuple((i, e) for i, e in enumerate(expo) if e))
            for expo, c in q.terms.items()
        )
        tests.append((pred.atom, pred.constraint.relation, terms))
    return tests


def _sample_axes(decls: tuple[sl.RealVarDecl, ...]) -> list[tuple[str, int, int, int]]:
    """Each sensor as ``(name, base, step, den)``: lattice index k is the
    sample (base + step k) / den = lo + (hi - lo) k / 2^SAMPLE_BITS."""
    axes = []
    for d in decls:
        width = d.upper - d.lower
        den = lcm(d.lower.denominator, width.denominator)
        base, step = int(d.lower * den) << SAMPLE_BITS, int(width * den)
        axes.append((d.name, base, step, den << SAMPLE_BITS))
    return axes


def _lattice_value(terms, ks: list[int]) -> int:
    total = 0
    for coeff, powers in terms:
        for i, e in powers:
            coeff *= ks[i] ** e
        total += coeff
    return total


def simulate(
    package: ControllerPackage,
    steps: int,
    seed: int = 0,
    inject: Valuation | None = None,
) -> SimulationTrace:
    if package.kind != KIND_CONTROLLER or package.controller is None:
        raise SimulationError("only controller artifacts can be simulated")
    if steps < 0:
        raise SimulationError("step count must be nonnegative")
    doc = package.document
    m = package.controller
    mux = package.multiplexer
    rng = random.Random(seed)

    real_decls = doc.real_vars_of(sl.INPUT_SIDE)
    tests = _lattice_tests(doc.predicates_of(sl.INPUT_SIDE), real_decls)
    axes = _sample_axes(real_decls)
    input_atoms = doc.input_atoms()
    forced = inject.as_dict() if inject is not None else {}
    for name in forced:
        if name not in input_atoms:
            raise SimulationError(f"injected atom '{name}' is not an input")
    decoded_atoms = mux.original_atoms if mux else m.outputs
    idle = Valuation.of({a: False for a in decoded_atoms})

    # each input letter, decoded code-word and joined word is made once;
    # a step's outcome is found by its Boolean draws, predicate signs and
    # state before it: (input, output, state after, stuck, joined word)
    def letter(draws: tuple[int, ...]) -> Valuation:
        assignment = dict(zip(input_atoms, map(bool, draws)))
        assignment.update(forced)
        return Valuation.of(assignment)

    def join(pair: tuple[Valuation, Valuation]) -> dict[str, bool]:
        return pair[0].merge(pair[1]).as_dict()

    inputs, merged = Memo(letter), Memo(join)
    decoded = Memo(mux.decode if mux else lambda raw: raw)

    def outcome(key: tuple[int, ...]) -> tuple[Valuation, Valuation, int, bool, dict]:
        *draws, before = key
        vin = inputs[tuple(draws)]
        move = m.step.get((before, vin))
        if move is None:
            vout, after, stuck = idle, before, True
        else:
            vout, after, stuck = decoded[move[0]], move[1], False
        return vin, vout, after, stuck, merged[vin, vout]

    outcomes = Memo(outcome)
    draw_bit, draw_index = rng.getrandbits, rng.randrange
    booleans, span = range(len(doc.boolean_inputs)), 2**SAMPLE_BITS + 1
    trace_steps = []
    words: list[dict[str, bool]] = []
    state = m.initial
    for t in range(steps):
        draws = [draw_bit(1) for _ in booleans]
        ks = [draw_index(span) for _ in real_decls]
        samples = tuple(
            (name, Fraction(base + step * k, den))
            for (name, base, step, den), k in zip(axes, ks)
        )
        for _, relation, terms in tests:
            draws.append(satisfies(relation, _lattice_value(terms, ks)))
        draws.append(state)
        vin, vout, after, stuck, word = outcomes[tuple(draws)]
        words.append(word)
        trace_steps.append((t, samples, vin, vout, state, after, stuck))
        state = after

    report = _monitor(doc, words)
    violated: dict[int, list[str]] = {}
    for gid, step in report.violations:
        violated.setdefault(step, []).append(gid)
    final = tuple(
        TraceStep(
            index=t,
            samples=samples,
            inputs=vin,
            outputs=vout,
            state_before=before,
            state_after=after,
            stuck=stuck,
            violations=tuple(violated.get(t, ())),
        )
        for t, samples, vin, vout, before, after, stuck in trace_steps
    )
    return SimulationTrace(
        seed=seed,
        steps=final,
        violations=report.violations,
        pending=report.pending,
        unmonitored=report.unmonitored,
    )
