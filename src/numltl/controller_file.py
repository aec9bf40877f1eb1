"""Line-oriented artifact format for synthesized machines.

A file records a Mealy controller or a spoiling counter-strategy together
with everything needed to interpret it later: the source specification text
(embedded verbatim, which also echoes the predicate definitions), the hash
tying the artifact to that text, the solver route and unroll bound, the
refinements applied during the run, and the output multiplexer when the
machine speaks code-words.  Both kinds are written by one body: the STEP
lines come from the machine's one sorted move list (``moves()``, which the
``--dot`` graph's edges read too), and the embedded spec is formatted once,
for the hash and for the SPEC block.  One body reads both kinds back into
structurally equal objects, checking each STEP line as it is read; only the
STATES line and a counter-strategy's CANDIDATES and SPOILED lines are per kind.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import speclang as sl
from .abstraction import EMPTY_MULTIPLEXER, MultiplexerTable, refinement_problem
from .cegar import BUCHI, SAFETY, Realizable, UnrealizableWithinBound
from .games import CounterStrategy, MealyController
from .valuation import Memo, Valuation, all_valuations, parse_valuation

MAGIC = "NUMLTL"
KIND_CONTROLLER = "CONTROLLER"
KIND_COUNTER_STRATEGY = "COUNTER-STRATEGY"


class ControllerFileError(ValueError):
    pass


@dataclass(frozen=True)
class ControllerPackage:
    """Parsed artifact: exactly one of controller/counter_strategy is set."""

    kind: str
    spec_hash: str
    algorithm: str
    bound: int | None
    refinements: tuple[tuple[str, Valuation], ...]
    document: sl.SpecDocument
    multiplexer: MultiplexerTable
    controller: MealyController | None = None
    counter_strategy: CounterStrategy | None = None


def spec_digest(doc: sl.SpecDocument) -> str:
    return _digest(sl.format_spec(doc))


def _digest(spec_text: str) -> str:
    return hashlib.sha256(spec_text.encode("utf-8")).hexdigest()


def _val_str(v: Valuation) -> str:
    return str(v) if v.pairs else "-"


def _names_str(names: tuple[str, ...]) -> str:
    return ",".join(names) if names else "-"


def _mux_lines(mux: MultiplexerTable) -> list[str]:
    if not mux:
        return []
    lines = ["BEGIN MUX", f"ENCODED {_names_str(mux.encoded_atoms)}"]
    lines.append(f"ORIGINAL {_names_str(mux.original_atoms)}")
    lines += [f"ROW {_val_str(w)} {_val_str(o)}" for w, o in mux.rows]
    lines.append("END MUX")
    return lines


def _render(kind: str, verdict, algorithm: str, machine, states: str, extra: list[str]) -> str:
    """The artifact of either kind: ``states`` is the STATES payload and
    ``extra`` the lines only that kind has, written before its STEPs."""
    spec_text = sl.format_spec(verdict.spec.source)
    shown = Memo(_val_str)  # a machine's lines repeat a few valuations
    lines = [
        f"{MAGIC} {kind}",
        f"HASH {_digest(spec_text)}",
        f"ALGORITHM {algorithm}",
        f"BOUND {verdict.bound if verdict.bound is not None else 'none'}",
        *(f"REFINE {sl.INPUT_SIDE} {v}" for v in verdict.spec.input_refinements),
        *(f"REFINE {sl.OUTPUT_SIDE} {w}" for w in verdict.spec.output_refinements),
        f"INPUTS {_names_str(machine.inputs)}",
        f"OUTPUTS {_names_str(machine.outputs)}",
        f"STATES {states}",
        f"INITIAL {machine.initial}",
        *extra,
    ]
    for state, vin, vout, nxt in machine.moves():
        lines.append(f"STEP {state} {shown[vin]} {shown[vout]} {nxt}")
    lines += _mux_lines(verdict.multiplexer)
    lines += ["BEGIN SPEC", *spec_text.splitlines(), "END SPEC"]
    return "\n".join(lines) + "\n"


def render_realizable(verdict: Realizable, algorithm: str) -> str:
    m = verdict.controller
    return _render(KIND_CONTROLLER, verdict, algorithm, m, str(m.n_states), [])


def render_unrealizable(verdict: UnrealizableWithinBound, algorithm: str) -> str:
    cs = verdict.counter_strategy
    shown = Memo(_val_str)
    lines = []
    for state in cs.states:
        cands = cs.candidates.get(state, ())
        rendered = ";".join(map(shown.__getitem__, cands)) if cands else "-"
        lines.append(f"CANDIDATES {state} {rendered}")
    spoiled = tuple(str(s) for s in sorted(cs.spoiled))
    lines.append(f"SPOILED {_names_str(spoiled)}")
    states = _names_str(tuple(str(s) for s in cs.states))
    return _render(KIND_COUNTER_STRATEGY, verdict, algorithm, cs, states, lines)


def render_dot(machine: MealyController | CounterStrategy) -> str:
    """Graph description of a machine for visualization tools."""

    label = Memo(_val_str)
    lines = ["digraph machine {", "  rankdir=LR;"]
    lines.append(f'  init [shape=point]; init -> "{machine.initial}";')
    if isinstance(machine, MealyController):
        for s in range(machine.n_states):
            lines.append(f'  "{s}" [shape=circle];')
    else:
        for s in machine.states:
            shape = "doublecircle" if s in machine.spoiled else "box"
            lines.append(f'  "{s}" [shape={shape}];')
    for state, vin, vout, nxt in machine.moves():
        lines.append(f'  "{state}" -> "{nxt}" [label="{label[vin]} / {label[vout]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def peek(self) -> str:
        if self.done():
            raise ControllerFileError("unexpected end of file")
        return self.lines[self.pos]

    def take(self, keyword: str) -> str:
        line = self.peek()
        if line != keyword and not line.startswith(keyword + " "):
            raise ControllerFileError(
                f"line {self.pos + 1}: expected {keyword!r}, found {line!r}"
            )
        self.pos += 1
        return line[len(keyword) :].strip()

    def at(self, keyword: str) -> bool:
        if self.done():
            return False
        line = self.lines[self.pos]
        return line == keyword or line.startswith(keyword + " ")

    def block(self, keyword: str) -> list[list[str]]:
        """Take every line ``at(keyword)`` accepts: each ``take`` payload, split at spaces."""
        lines, pos, prefix = self.lines, self.pos, keyword + " "
        payloads = []
        while pos < len(lines) and (lines[pos].startswith(prefix) or lines[pos] == keyword):
            payloads.append(lines[pos][len(prefix) :].strip().split(" "))
            pos += 1
        self.pos = pos
        return payloads


def _parse_val(text: str, where: str, atoms: tuple[str, ...] | None = None) -> Valuation:
    """A valuation that, when ``atoms`` is given, assigns exactly those."""
    try:
        valuation = parse_valuation(text)
        if atoms is not None and valuation.atoms != tuple(sorted(atoms)):
            raise ValueError(f"valuation {text} does not assign exactly {_names_str(atoms)}")
    except ValueError as exc:
        raise ControllerFileError(f"{where}: {exc}") from None
    return valuation


def _parse_names(text: str, sep: str = ",") -> tuple[str, ...]:
    return () if text == "-" else tuple(text.split(sep))


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ControllerFileError(f"{where}: expected an integer, found {text!r}") from None


def _parse_state(text: str, where: str, states: range | set[int]) -> int:
    state = _parse_int(text, where)
    if state not in states:
        raise ControllerFileError(f"{where}: {state} is not a state of the machine")
    return state


def _parse_mux(reader: _Reader) -> MultiplexerTable:
    if not reader.at("BEGIN MUX"):
        return EMPTY_MULTIPLEXER
    reader.take("BEGIN MUX")
    encoded = _parse_names(reader.take("ENCODED"))
    original = _parse_names(reader.take("ORIGINAL"))
    rows = []
    for payload in reader.block("ROW"):
        if len(payload) != 2:
            raise ControllerFileError("malformed ROW line in the multiplexer block")
        rows.append(
            (_parse_val(payload[0], "ROW", encoded), _parse_val(payload[1], "ROW", original))
        )
    reader.take("END MUX")
    return MultiplexerTable(encoded_atoms=encoded, original_atoms=original, rows=tuple(rows))


def _parse_embedded_spec(reader: _Reader) -> sl.SpecDocument:
    reader.take("BEGIN SPEC")
    body = []
    while not reader.at("END SPEC"):
        if reader.done():
            raise ControllerFileError("unterminated BEGIN SPEC block")
        body.append(reader.lines[reader.pos])
        reader.pos += 1
    reader.take("END SPEC")
    try:
        return sl.parse_spec("\n".join(body) + "\n")
    except sl.SpecError as exc:
        raise ControllerFileError(f"embedded specification: {exc}") from exc


def _same_atoms(what: str, names: tuple[str, ...], expected: tuple[str, ...]) -> None:
    if names != expected:
        raise ControllerFileError(f"{what} {_names_str(names)} should be {_names_str(expected)}")


def _check_refinements(document: sl.SpecDocument, refinements: list) -> None:
    """Every REFINE cube must be one synthesis could have refined away."""
    previous: dict[str, set[Valuation]] = {sl.INPUT_SIDE: set(), sl.OUTPUT_SIDE: set()}
    for side, v in refinements:
        problem = refinement_problem(document, v, side, previous[side])
        if problem is not None:
            raise ControllerFileError(f"REFINE {side} {_val_str(v)}: {problem}")
        previous[side].add(v)


def _check_steps_cover_inputs(
    machine: MealyController, document: sl.SpecDocument, refinements: list
) -> None:
    """Every state of a controller must have a STEP line for every input
    valuation that no ``REFINE input`` cube excludes.  The inputs are drawn
    one at a time, so a missing line shows before all ``2^n`` are built."""
    atoms = tuple(p.atom for p in document.predicates_of(sl.INPUT_SIDE))
    cubes = {v for side, v in refinements if side == sl.INPUT_SIDE}
    if len(cubes) == 2 ** len(atoms):
        return  # nothing to cover, and STATES may name more states than can be walked
    unrefined = (vin for vin in all_valuations(machine.inputs) if vin.restrict(atoms) not in cubes)
    required = []  # drawn while state 0 is read; every other state needs the same
    for state in range(machine.n_states):
        for vin in required if state else unrefined:
            if (state, vin) not in machine.step:
                msg = f"STEP: state {state} has no line for input {_val_str(vin)}"
                raise ControllerFileError(msg)
            if not state:
                required.append(vin)


def parse_controller_file(text: str) -> ControllerPackage:
    """Read an artifact, checking that every atom list and valuation in it
    speaks the embedded spec's atoms, that every state it names is one of
    the machine's, that the bound is positive, that no STEP line repeats
    another's state and input (and output, in a counter-strategy), no
    CANDIDATES line another's state and no state is listed twice on a
    counter-strategy's STATES line, that each REFINE cube assigns exactly
    its side's predicate atoms and repeats no earlier cube of its side (the
    rule synthesis keeps), that a controller has a STEP line for every
    state and every input no input refinement excludes, and that every
    emitted code-word decodes."""
    reader = _Reader(text)
    magic = reader.take(MAGIC)
    if magic not in (KIND_CONTROLLER, KIND_COUNTER_STRATEGY):
        raise ControllerFileError(f"unknown artifact kind {magic!r}")
    spec_hash = reader.take("HASH")
    algorithm = reader.take("ALGORITHM")
    if algorithm not in (BUCHI, SAFETY):
        raise ControllerFileError(f"unknown algorithm {algorithm!r}")
    bound_text = reader.take("BOUND")
    bound = None if bound_text == "none" else _parse_int(bound_text, "BOUND")
    if bound is not None and bound < 1:
        msg = f"BOUND: expected a positive integer or none, found {bound_text!r}"
        raise ControllerFileError(msg)
    refinements = []
    for payload in reader.block("REFINE"):
        if len(payload) != 2 or payload[0] not in (sl.INPUT_SIDE, sl.OUTPUT_SIDE):
            raise ControllerFileError("malformed REFINE line")
        refinements.append((payload[0], _parse_val(payload[1], "REFINE")))
    inputs = _parse_names(reader.take("INPUTS"))
    outputs = _parse_names(reader.take("OUTPUTS"))
    # each distinct state or valuation text is parsed once, raising where it first appears
    vin_of = Memo(lambda text: _parse_val(text, "STEP", inputs))
    vout_of = Memo(lambda text: _parse_val(text, "STEP", outputs))

    is_counter = magic == KIND_COUNTER_STRATEGY
    if is_counter:
        states = tuple(_parse_int(s, "STATES") for s in _parse_names(reader.take("STATES")))
        valid = set()
        for state in states:
            if state in valid:
                raise ControllerFileError(f"STATES: state {state} is listed twice")
            valid.add(state)
    else:
        n_states = _parse_int(reader.take("STATES"), "STATES")
        valid = range(n_states)
    initial = _parse_state(reader.take("INITIAL"), "INITIAL", valid)
    if is_counter:
        candidates = {}
        candidate = Memo(lambda text: _parse_val(text, "CANDIDATES", inputs))
        for payload in reader.block("CANDIDATES"):
            if len(payload) != 2:
                raise ControllerFileError("malformed CANDIDATES line")
            state = _parse_state(payload[0], "CANDIDATES", valid)
            listed = tuple(map(candidate.__getitem__, _parse_names(payload[1], ";")))
            if state in candidates:
                raise ControllerFileError(f"CANDIDATES: state {state} is listed twice")
            candidates[state] = listed
        spoiled = frozenset(
            _parse_state(s, "SPOILED", valid) for s in _parse_names(reader.take("SPOILED"))
        )
    number = Memo(lambda text: _parse_state(text, "STEP", valid))
    # a controller moves on (state, input) to (output, next); a counter-strategy
    # on (state, input, output) to next
    step = {}
    for payload in reader.block("STEP"):
        if len(payload) != 4:
            raise ControllerFileError("malformed STEP line")
        state, vin, vout = number[payload[0]], vin_of[payload[1]], vout_of[payload[2]]
        target = number[payload[3]]
        key, move = ((state, vin, vout), target) if is_counter else ((state, vin), (vout, target))
        if key in step:
            also = f" and output {_val_str(vout)}" if is_counter else ""
            msg = f"STEP: state {state} has two lines for input {_val_str(vin)}{also}"
            raise ControllerFileError(msg)
        step[key] = move
    machine = counter = None
    if is_counter:
        counter = CounterStrategy(
            inputs=inputs,
            outputs=outputs,
            states=states,
            initial=initial,
            candidates=candidates,
            transitions=step,
            spoiled=spoiled,
        )
    else:
        machine = MealyController(
            inputs=inputs, outputs=outputs, n_states=n_states, initial=initial, step=step
        )

    mux = _parse_mux(reader)
    document = _parse_embedded_spec(reader)
    if reader.pos < len(reader.lines) and any(line.strip() for line in reader.lines[reader.pos :]):
        raise ControllerFileError("trailing content after the END SPEC line")
    if spec_digest(document) != spec_hash:
        raise ControllerFileError("embedded specification does not match the recorded hash")
    _same_atoms("INPUTS", inputs, document.input_atoms())
    _check_refinements(document, refinements)
    if machine is not None:
        _check_steps_cover_inputs(machine, document, refinements)
    if mux:
        _same_atoms("ORIGINAL", mux.original_atoms, document.output_atoms())
        _same_atoms("ENCODED", mux.encoded_atoms, outputs)
        if machine is not None:
            words = {word for word, _ in mux.rows}
            for vout, _ in machine.step.values():
                if vout not in words:
                    raise ControllerFileError(f"STEP output {vout} has no ROW to decode it")
    else:
        _same_atoms("OUTPUTS", outputs, document.output_atoms())
    return ControllerPackage(
        kind=magic,
        spec_hash=spec_hash,
        algorithm=algorithm,
        bound=bound,
        refinements=tuple(refinements),
        document=document,
        multiplexer=mux,
        controller=machine,
        counter_strategy=counter,
    )
