"""Counterexample-guided synthesis driver tying the game layer to the theory.

Each round of the loop solves the pseudo-Boolean game and collects the
candidates the winner relies on: the output predicate valuations a winning
controller emits, or the counter-inputs a winning environment plays.  The
exact feasibility checker tests them in order up to the first one it
refutes; that valuation refines the abstraction on its side, and when none
is refuted the win stands (a safety run first escalates its bound past an
environment win).  A per-run cache guarantees every valuation is checked at
most once; a line-oriented transcript records checks, refinements, game
solves, and the final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from . import speclang as sl
from .abstraction import (
    EMPTY_MULTIPLEXER,
    AbstractionError,
    MultiplexerTable,
    PredicateTable,
    PseudoBooleanSpec,
    abstract_spec,
    reencode_outputs,
    refine_with_assumption,
    refine_with_guarantee,
)
from .automata import negate_and_translate, translate
from .bernstein import (
    DEFAULT_DEPTH,
    Box,
    EnclosureMemo,
    Feasible,
    FeasibilityVerdict,
    Infeasible,
    Point,
    PolyConstraint,
    Unknown,
    check_feasibility,
)
from .games import (
    CounterStrategy,
    GameArena,
    GameSolution,
    MealyController,
    SuccessorTable,
    build_buchi_game,
    build_safety_game,
    counter_edges,
    extract_controller,
    extract_counter_strategy,
    mark_edges_absent,
    solve,
)
from .valuation import Valuation

BUCHI = "buchi"
SAFETY = "safety"


class TheoryUnknownError(Exception):
    """The feasibility checker gave up on a valuation the loop depends on."""

    def __init__(self, side: str, valuation: Valuation, reason: str) -> None:
        self.side = side
        self.valuation = valuation
        self.reason = reason
        msg = f"theory check gave up on {side} valuation {valuation}: {reason}"
        super().__init__(msg)


# -- run journal --------------------------------------------------------------


def _point_str(point: Point) -> str:
    return ",".join(str(c) for c in point)


def _verdict_str(verdict: FeasibilityVerdict) -> str:
    if isinstance(verdict, Feasible):
        return f"feasible witness={_point_str(verdict.witness)}"
    if isinstance(verdict, Infeasible):
        return "infeasible"
    return f"unknown {verdict.reason}"


class Transcript:
    """Line-oriented record of one synthesis run.

    One event per line: CHECK (theory call with its verdict), REFINE
    (abstraction update), SOLVE (game solved), VERDICT (run outcome).  A
    SOLVE line's ``env=`` counts the arena's env nodes and its ``ctrl=`` its
    (env node, input letter) positions (``GameArena.n_positions``), not the
    fewer ctrl nodes its letter classes share.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def check(self, side: str, v: Valuation, verdict: FeasibilityVerdict) -> None:
        self.lines.append(f"CHECK {side} {v} {_verdict_str(verdict)}")

    def refine(self, side: str, v: Valuation) -> None:
        self.lines.append(f"REFINE {side} {v}")

    def solve(self, arena: GameArena, bound: int | None, ctrl_wins: bool) -> None:
        where = f" bound={bound}" if bound is not None else ""
        winner = "ctrl" if ctrl_wins else "env"
        self.lines.append(
            f"SOLVE {arena.objective}{where} env={arena.n_env}"
            f" ctrl={arena.n_positions} winner={winner}"
        )

    def verdict(self, text: str) -> None:
        self.lines.append(f"VERDICT {text}")

    def render(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    def __str__(self) -> str:
        return self.render()


def count_theory_checks(transcript: "Transcript | str") -> int:
    """Number of feasibility-checker invocations a run performed."""
    if isinstance(transcript, Transcript):
        lines = transcript.lines
    else:
        lines = transcript.splitlines()
    return sum(1 for line in lines if line.startswith("CHECK "))


# -- memoized theory checking --------------------------------------------------


@dataclass
class CheckedCache:
    """At-most-once memo of theory verdicts, keyed by predicate valuation,
    and the enclosure memos its checks share, one per side box.

    A valuation names predicate atoms, not constraints, so the cache binds
    to the predicate table of its first run and refuses any other."""

    inputs: dict[Valuation, FeasibilityVerdict] = field(default_factory=dict)
    outputs: dict[Valuation, FeasibilityVerdict] = field(default_factory=dict)
    enclosures: dict[Box, EnclosureMemo] = field(default_factory=dict)
    table: PredicateTable | None = None

    def bind(self, table: PredicateTable) -> None:
        if self.table is None:
            self.table = table
        elif self.table != table:
            msg = "the cache holds verdicts for another predicate table"
            raise ValueError(msg)

    def side(self, side: str) -> dict[Valuation, FeasibilityVerdict]:
        return self.inputs if side == sl.INPUT_SIDE else self.outputs

    def proven(self, side: str) -> set[Valuation]:
        store = self.side(side)
        return {v for v, verdict in store.items() if isinstance(verdict, Feasible)}

    def size(self) -> int:
        return len(self.inputs) + len(self.outputs)

    def memo_for(self, box: Box) -> EnclosureMemo:
        return self.enclosures.setdefault(box, EnclosureMemo(box))


def valuation_to_constraints(
    v: Valuation, table: PredicateTable
) -> list[PolyConstraint]:
    """Conjunction the valuation stands for: each true atom contributes its
    constraint, each false atom the relation-flipped negation."""
    constraints = []
    for atom in v.atoms:
        constraint, _ = table.entries[atom]
        constraints.append(constraint if v[atom] else constraint.negated())
    return constraints


def _checked(
    cache: CheckedCache,
    side: str,
    v: Valuation,
    table: PredicateTable,
    depth: int,
    transcript: Transcript,
) -> FeasibilityVerdict:
    """Cached verdict for a nonempty predicate valuation; checks at most once."""
    cache.bind(table)
    store = cache.side(side)
    verdict = store.get(v)
    if verdict is None:
        constraints = valuation_to_constraints(v, table)
        box = table.box_of(side)
        verdict = check_feasibility(constraints, box, depth, memo=cache.memo_for(box))
        store[v] = verdict
        transcript.check(side, v, verdict)
    if isinstance(verdict, Unknown):
        raise TheoryUnknownError(side, v, verdict.reason)
    return verdict


# -- counter-strategy input selection -----------------------------------------


def select_counter_inputs(
    solution: GameSolution,
    checked: CheckedCache,
    predicate_atoms: tuple[str, ...],
) -> tuple[dict[int, tuple[int, ...]], set[Valuation]]:
    """Prefer already-proven inputs; cover the rest greedily.

    Works on the env nodes the unrestricted counter-strategy reaches (see
    ``games.counter_edges``).  Every node first keeps its candidate input
    letters whose predicate projection is already proven feasible (an empty
    projection counts as proven).  Nodes left without one are covered by
    repeatedly picking the unproven projection that covers the most
    remaining nodes (ties broken lexicographically).  Returns the kept
    candidate letters per node, for ``extract_counter_strategy``, and the
    distinct unproven projections the cover relies on.  The letters of one
    env edge can project differently, so the selection keeps letters, not
    edges.

    A projection is an input letter's bits masked to the predicate atoms;
    each distinct one is made a ``Valuation`` once, for the cache lookup and
    the tie-break.
    """
    arena = solution.arena
    letters = arena.letters
    mask = 0
    for name in set(predicate_atoms) & set(arena.inputs):
        mask |= 1 << letters.position[name]
    projected = [bits & mask for bits in letters.input_bits]  # per input letter
    projection: dict[int, Valuation] = {}
    for j, p in enumerate(projected):
        if p not in projection:
            projection[p] = letters.inputs[j].restrict(predicate_atoms)
    proven = checked.proven(sl.INPUT_SIDE)
    settled = {p: not mask or v in proven for p, v in projection.items()}
    letter_settled = [settled[p] for p in projected]

    reached = counter_edges(solution)
    keep: dict[int, tuple[int, ...]] = {}
    uncovered: list[int] = []
    for s, pairs in reached.items():
        good = tuple(j for j, _ in pairs if letter_settled[j])
        if good or not pairs:
            keep[s] = good
        else:
            uncovered.append(s)

    selected: list[int] = []
    if uncovered:
        covers: dict[int, set[int]] = {}
        for s in uncovered:
            for j, _ in reached[s]:
                covers.setdefault(projected[j], set()).add(s)
        remaining = set(uncovered)
        while remaining:
            best = min(
                covers,
                key=lambda p: (-len(covers[p] & remaining), projection[p].sort_key()),
            )
            selected.append(best)
            remaining -= covers[best]
        chosen = set(selected)
        for s in uncovered:
            keep[s] = tuple(j for j, _ in reached[s] if projected[j] in chosen)
    return keep, {projection[p] for p in selected}


# -- candidates and the first refuted one -------------------------------------


def output_candidates(
    m: MealyController, atoms: tuple[str, ...], multiplexer: MultiplexerTable
) -> set[Valuation]:
    """Output predicate projections a winning controller can emit; encoded
    outputs are decoded through the multiplexer first."""
    if not atoms:
        return set()
    emitted = {vout for vout, _ in m.step.values()}
    if multiplexer:
        emitted = {multiplexer.decode(vout) for vout in emitted}
    return {vout.restrict(atoms) for vout in emitted}


def first_refuted(
    cache: CheckedCache,
    side: str,
    candidates: set[Valuation],
    table: PredicateTable,
    depth: int,
    transcript: Transcript,
) -> Valuation | None:
    """Check the candidates in sorted order up to the first one the theory
    refutes, and return it (None when every candidate is feasible)."""
    for v in sorted(candidates):
        verdict = _checked(cache, side, v, table, depth, transcript)
        if isinstance(verdict, Infeasible):
            return v
    return None


# -- configuration and verdicts ------------------------------------------------


def bound_schedule_up_to(max_bound: int) -> tuple[int, ...]:
    """Iterative-deepening schedule: powers of two up to and including the max."""
    if max_bound < 1:
        raise ValueError("maximum bound must be positive")
    schedule = []
    k = 1
    while k < max_bound:
        schedule.append(k)
        k *= 2
    schedule.append(max_bound)
    return tuple(schedule)


@dataclass(frozen=True)
class CegarConfig:
    """Knobs of one synthesis run.

    The loop is deterministic (all tie-breaks are lexicographic) and refines
    one valuation per round.  ``algorithm`` picks the game (safety, with the
    bounds of ``bound_schedule_up_to(max_bound)``, or Büchi), ``depth`` is
    the theory checker's bisection budget, ``refinement_cap`` turns a run
    that keeps refining into Unknown, and ``reencode`` compresses the output
    alphabet before the game is built.
    """

    algorithm: str = SAFETY
    max_bound: int = 16
    depth: int = DEFAULT_DEPTH
    refinement_cap: int = 64
    reencode: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in (BUCHI, SAFETY):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_bound < 1:
            raise ValueError("maximum bound must be positive")
        if self.refinement_cap < 1:
            raise ValueError("refinement cap must be positive")
        if self.depth < 1:
            raise ValueError("theory depth budget must be positive")


@dataclass(frozen=True)
class Realizable:
    """A controller that wins the game and passes output duality; ``spec``
    is the refined abstraction it was extracted from, ``bound`` the safety
    bound it was decided at (None on the buchi route)."""

    controller: MealyController
    multiplexer: MultiplexerTable
    table: PredicateTable
    spec: PseudoBooleanSpec
    bound: int | None


@dataclass(frozen=True)
class UnrealizableWithinBound:
    """No controller exists up to the explored bound (None on the buchi
    route, which involves no unrolling); the counter-strategy is genuine:
    every input valuation it relies on carries a feasibility witness."""

    bound: int | None
    counter_strategy: CounterStrategy
    evidence: tuple[tuple[Valuation, Point], ...]
    spec: PseudoBooleanSpec
    multiplexer: MultiplexerTable = EMPTY_MULTIPLEXER


SynthesisVerdict = Union[Realizable, UnrealizableWithinBound, Unknown]


# -- the loop -------------------------------------------------------------------


def _encoded(
    spec: PseudoBooleanSpec, cfg: CegarConfig
) -> tuple[PseudoBooleanSpec, MultiplexerTable]:
    if not cfg.reencode:
        return spec, EMPTY_MULTIPLEXER
    try:
        return reencode_outputs(spec)
    except AbstractionError:
        # unsatisfiable output constraints: leave them in the game, which
        # will honestly report that the controller cannot win
        return spec, EMPTY_MULTIPLEXER


def _successor_table(work: PseudoBooleanSpec) -> SuccessorTable:
    inputs = work.input_atoms()
    outputs = work.output_atoms()
    negated = negate_and_translate(work.game_formula(), inputs + outputs)
    return SuccessorTable(negated, inputs, outputs)


def _build_arena(
    work: PseudoBooleanSpec,
    algorithm: str,
    bound: int | None,
    successors: SuccessorTable | None = None,
) -> GameArena:
    """The game of ``work``; a safety arena reads ``successors`` (a table
    for the same game formula, or a fresh one when None)."""
    inputs = work.input_atoms()
    outputs = work.output_atoms()
    if algorithm == BUCHI:
        automaton = translate(work.game_formula(), inputs + outputs)
        arena = build_buchi_game(automaton, inputs, outputs)
    else:
        if successors is None:
            successors = _successor_table(work)
        arena = build_safety_game(
            successors.automaton, bound, inputs, outputs, successors
        )
    for v in work.input_refinements:
        mark_edges_absent(arena, v)
    return arena


def _genuineness_evidence(
    cs: CounterStrategy, cache: CheckedCache, predicate_atoms: tuple[str, ...]
) -> tuple[tuple[Valuation, Point], ...]:
    projections = {c.restrict(predicate_atoms) for cands in cs.candidates.values() for c in cands}
    return tuple((p, cache.inputs[p].witness) for p in sorted(projections) if p.atoms)


def synthesize(
    doc: sl.SpecDocument,
    cfg: CegarConfig | None = None,
    transcript: Transcript | None = None,
    cache: CheckedCache | None = None,
) -> SynthesisVerdict:
    """Run the refinement loop on a specification document.

    Every round does the same steps for either winner: solve the game,
    collect the candidates the winner relies on (the output projections a
    winning controller emits, or the unproven counter-inputs selected on an
    environment win), check them in sorted order up to the first one the
    theory refutes, and refine that side.  A refuted output becomes a
    guarantee refinement and the game is re-encoded and rebuilt; a refuted
    input becomes an assumption refinement, marked absent in the standing
    arena.  A win whose candidates all hold is kept, except that a safety
    run escalates its bound schedule before it accepts an environment win;
    only then is the counter-strategy built, once, along the candidate
    letters the last selection kept.  A ``cache`` kept from an earlier run
    must be for the same predicate table.
    """
    cfg = cfg if cfg is not None else CegarConfig()
    transcript = transcript if transcript is not None else Transcript()
    cache = cache if cache is not None else CheckedCache()

    def finish_unknown(reason: str) -> Unknown:
        transcript.verdict(f"unknown {reason}")
        return Unknown(reason)

    spec, table = abstract_spec(doc)
    cache.bind(table)
    atoms = {side: table.atoms_of(side) for side in (sl.INPUT_SIDE, sl.OUTPUT_SIDE)}
    schedule = bound_schedule_up_to(cfg.max_bound) if cfg.algorithm == SAFETY else (None,)
    bound_index = 0
    arena: GameArena | None = None
    # the re-encoding of the game formula and the safety route's successors
    # depend on the guarantees, not on the bound or the input refinements:
    # one of each serves every bound until a guarantee refinement
    work: PseudoBooleanSpec | None = None

    try:
        while True:
            bound = schedule[bound_index]
            if arena is None:
                # the last round's solution holds the old arena: drop it, and
                # the strategies drawn from it, before the new one is built
                solution = controller = keep = None
                if work is None:
                    work, mux = _encoded(spec, cfg)
                    successors = _successor_table(work) if cfg.algorithm == SAFETY else None
                # a kept re-encoding holds the input refinements of its own time
                work = replace(work, input_refinements=spec.input_refinements)
                arena = _build_arena(work, cfg.algorithm, bound, successors)
            solution = solve(arena)
            transcript.solve(arena, bound, solution.ctrl_wins)

            if solution.ctrl_wins:
                side = sl.OUTPUT_SIDE
                controller = extract_controller(solution)
                candidates = output_candidates(controller, atoms[side], mux)
            else:
                side = sl.INPUT_SIDE
                keep, candidates = select_counter_inputs(solution, cache, atoms[side])
            culprit = first_refuted(cache, side, candidates, table, cfg.depth, transcript)

            if culprit is not None:
                refinements = len(spec.input_refinements) + len(spec.output_refinements)
                if refinements >= cfg.refinement_cap:
                    return finish_unknown(f"refinement cap {cfg.refinement_cap} exceeded")
                if side == sl.OUTPUT_SIDE:
                    spec = refine_with_guarantee(spec, culprit)
                    # the guarantees changed: re-encode, translate again and rebuild
                    arena = work = successors = None
                else:
                    spec = refine_with_assumption(spec, culprit)
                    # the game formula ignores assumption refinements, so marking
                    # the standing arena gives the arena a rebuild would
                    mark_edges_absent(arena, culprit)
                transcript.refine(side, culprit)
            elif solution.ctrl_wins:
                transcript.verdict("realizable")
                return Realizable(controller, mux, table, spec, bound)
            elif bound_index + 1 < len(schedule):
                # the counter-strategy survived theory scrutiny at this bound
                bound_index += 1
                arena = None
            else:
                cs = extract_counter_strategy(solution, keep)
                evidence = _genuineness_evidence(cs, cache, atoms[sl.INPUT_SIDE])
                shown = bound if bound is not None else "none"
                transcript.verdict(f"unrealizable-within-bound bound={shown}")
                return UnrealizableWithinBound(bound, cs, evidence, spec, mux)
    except TheoryUnknownError as stuck:
        return finish_unknown(str(stuck))
