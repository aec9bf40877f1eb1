"""Pseudo-Boolean abstraction, refinement bookkeeping, and output re-encoding.

Abstraction turns every polynomial predicate atom into a free Boolean atom of
the same side, keeping the temporal formulas untouched; the predicate table
retains what each atom meant so the theory checker can validate valuations
later.  A refinement forbids one predicate cube and is recorded once, as
that valuation.  An output refinement enters the game formula as a
guarantee ``ALWAYS !(cube)`` (or the code book, when outputs are
re-encoded).  An input refinement never enters a formula: the synthesis
driver enforces it by marking game edges absent, and marking the standing
arena yields the arena a fresh build of the refined specification would.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, replace
from math import ceil, log2

from . import speclang as sl
from .bernstein import Box, PolyConstraint
from .valuation import Valuation, all_valuations


class AbstractionError(ValueError):
    pass


@dataclass(frozen=True)
class PredicateTable:
    entries: dict[str, tuple[PolyConstraint, str]]  # atom -> (constraint, side)
    input_variables: tuple[str, ...]
    output_variables: tuple[str, ...]
    input_box: Box
    output_box: Box

    def atoms_of(self, side: str) -> tuple[str, ...]:
        return tuple(a for a, (_, s) in self.entries.items() if s == side)

    def box_of(self, side: str) -> Box:
        return self.input_box if side == sl.INPUT_SIDE else self.output_box


@dataclass(frozen=True)
class PseudoBooleanSpec:
    """Purely Boolean document plus the provenance and refinement record.

    ``document`` holds the user's assumptions and guarantees over Boolean
    atoms (printable as a spec file); the refinements are kept apart, in
    order, as the cubes ``input_refinements``/``output_refinements`` forbid.
    """

    document: sl.SpecDocument
    source: sl.SpecDocument
    input_refinements: tuple[Valuation, ...] = ()
    output_refinements: tuple[Valuation, ...] = ()

    def input_atoms(self) -> tuple[str, ...]:
        return self.document.input_atoms()

    def output_atoms(self) -> tuple[str, ...]:
        return self.document.output_atoms()

    def game_formula(self) -> sl.Formula:
        """Formula the game is built from: user assumptions imply the user
        guarantees and, after them, ``forbid(w)`` per output refinement.

        Input refinements are deliberately excluded; they act on the arena
        as input restrictions, which is both equivalent and free of the
        branch-commitment weakness a disjunctive automaton would add.
        """
        forbidden = tuple(forbid(w) for w in self.output_refinements)
        doc = replace(self.document, guarantees=self.document.guarantees + forbidden)
        return sl.document_formula(doc)


def _box_of(decls) -> Box:
    return Box(tuple((d.lower, d.upper) for d in decls))


def abstract_spec(doc: sl.SpecDocument) -> tuple[PseudoBooleanSpec, PredicateTable]:
    """Replace each predicate atom by a free Boolean atom of its side."""
    table = PredicateTable(
        entries={p.atom: (p.constraint, p.side) for p in doc.predicates},
        input_variables=tuple(v.name for v in doc.real_vars_of(sl.INPUT_SIDE)),
        output_variables=tuple(v.name for v in doc.real_vars_of(sl.OUTPUT_SIDE)),
        input_box=_box_of(doc.real_vars_of(sl.INPUT_SIDE)),
        output_box=_box_of(doc.real_vars_of(sl.OUTPUT_SIDE)),
    )
    abstract = sl.SpecDocument(
        boolean_inputs=doc.input_atoms(),
        boolean_outputs=doc.output_atoms(),
        real_vars=(),
        predicates=(),
        assumptions=doc.assumptions,
        guarantees=doc.guarantees,
    )
    return PseudoBooleanSpec(document=abstract, source=doc), table


def cube_formula(v: Valuation) -> sl.Formula:
    """Conjunction of literals fixing exactly the atoms of ``v``."""
    literals = (sl.Atom(name) if value else sl.Not(sl.Atom(name)) for name, value in v.pairs)
    return sl.fold(sl.And, literals)


def forbid(v: Valuation) -> sl.Formula:
    """``ALWAYS !(cube)``: the formula a refinement of ``v`` stands for."""
    return sl.Always(sl.Not(cube_formula(v)))


def refinement_problem(
    doc: sl.SpecDocument, v: Valuation, side: str, previous: Collection[Valuation]
) -> str | None:
    """Why the cube ``v`` cannot be refined away on ``side`` of ``doc`` after
    the cubes ``previous`` of that side, or None: a refinement assigns
    exactly the side's predicate atoms, of which there is at least one, and
    only once.  Synthesis and the artifact reader both hold refinements to
    this rule."""
    expected = tuple(p.atom for p in doc.predicates_of(side))
    if not expected:
        return f"the {side} side has no predicate atoms to refine"
    if set(v.atoms) != set(expected):
        return (
            f"refinement valuation must assign exactly the {side}-side "
            f"predicate atoms {sorted(expected)}, got {sorted(v.atoms)}"
        )
    if v in previous:
        return f"valuation {v} was already refined away"
    return None


def _check_refinement_valuation(
    spec: PseudoBooleanSpec, v: Valuation, side: str, previous: tuple[Valuation, ...]
) -> None:
    problem = refinement_problem(spec.source, v, side, previous)
    if problem is not None:
        raise AbstractionError(problem)


def refine_with_assumption(spec: PseudoBooleanSpec, v: Valuation) -> PseudoBooleanSpec:
    """Forbid the input cube ``v`` from here on (assumption G not-cube)."""
    _check_refinement_valuation(spec, v, sl.INPUT_SIDE, spec.input_refinements)
    return replace(spec, input_refinements=spec.input_refinements + (v,))


def refine_with_guarantee(spec: PseudoBooleanSpec, w: Valuation) -> PseudoBooleanSpec:
    """Forbid the controller output cube ``w`` (guarantee G not-cube)."""
    _check_refinement_valuation(spec, w, sl.OUTPUT_SIDE, spec.output_refinements)
    return replace(spec, output_refinements=spec.output_refinements + (w,))


@dataclass(frozen=True)
class MultiplexerTable:
    """Decoder from code-words over fresh atoms back to original outputs."""

    encoded_atoms: tuple[str, ...]
    original_atoms: tuple[str, ...]
    rows: tuple[tuple[Valuation, Valuation], ...]  # (code-word, original valuation)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def decode(self, code: Valuation) -> Valuation:
        for word, original in self.rows:
            if word == code:
                return original
        msg = f"code-word {code} has no decoding"
        raise AbstractionError(msg)


EMPTY_MULTIPLEXER = MultiplexerTable((), (), ())

_ENCODING_PREFIXES = ("sig", "enc", "code")


def _fresh_encoded_atoms(taken: set[str], m: int) -> tuple[str, ...]:
    for prefix in _ENCODING_PREFIXES:
        names = tuple(f"{prefix}{i}" for i in range(1, m + 1))
        if not taken & set(names):
            return names
    msg = "could not find fresh names for encoded output atoms"
    raise AbstractionError(msg)


def _code_valuation(atoms: tuple[str, ...], number: int) -> Valuation:
    m = len(atoms)
    bits = {atoms[i]: bool((number >> (m - 1 - i)) & 1) for i in range(m)}
    return Valuation.of(bits)


def reencode_outputs(
    spec: PseudoBooleanSpec,
) -> tuple[PseudoBooleanSpec, MultiplexerTable]:
    """Compress the output alphabet through invariant output constraints.

    Guarantees of the form ALWAYS(propositional formula over outputs only) and
    the output refinements restrict the reachable output combinations to a set
    K; when K needs fewer bits than there are output atoms, the outputs are
    replaced by code atoms, original atoms in the remaining formulas become
    code-word disjunctions (unless that nests the formula past
    ``MAX_FORMULA_DEPTH``), and the collected guarantees and the output
    refinements are dropped (their content lives in the code book).
    """
    doc = spec.document
    outputs = doc.boolean_outputs
    output_set = set(outputs)

    collected: list[sl.Formula] = []
    remaining_guarantees: list[sl.Formula] = []
    for g in doc.guarantees:
        if (
            isinstance(g, sl.Always)
            and sl.is_propositional(g.operand)
            and sl.atoms_of(g.operand) <= output_set
        ):
            collected.append(g.operand)
            continue
        remaining_guarantees.append(g)

    forbidden = spec.output_refinements
    if not (collected or forbidden) or not outputs:
        return spec, EMPTY_MULTIPLEXER

    # the collected invariants are propositional: every output valuation is
    # judged at once, as one position of a word
    candidates = list(all_valuations(outputs))
    invariant = sl.truth(sl.fold(sl.And, collected), [w.as_dict() for w in candidates], 0)
    feasible = [
        w
        for w, allowed in zip(candidates, invariant)
        if allowed and all(w.restrict(r.atoms) != r for r in forbidden)
    ]
    if not feasible:
        msg = "output constraints are unsatisfiable; no output valuation exists"
        raise AbstractionError(msg)

    m = 0 if len(feasible) == 1 else ceil(log2(len(feasible)))
    if m >= len(outputs):
        return spec, EMPTY_MULTIPLEXER

    taken = set(doc.boolean_inputs) | output_set
    encoded = _fresh_encoded_atoms(taken, m)
    rows = tuple(
        (_code_valuation(encoded, i), original) for i, original in enumerate(feasible)
    )
    mux = MultiplexerTable(encoded_atoms=encoded, original_atoms=outputs, rows=rows)

    substitution = {
        atom: _code_word_disjunction(mux, atom) for atom in outputs
    }
    new_assumptions = tuple(
        sl.substitute_atoms(f, substitution) for f in doc.assumptions
    )
    new_guarantees = [
        sl.substitute_atoms(f, substitution) for f in remaining_guarantees
    ]
    if len(rows) < 2**m:
        # forbid the unused code-words so every emission decodes to a K member
        used = (cube_formula(word) for word, _ in rows)
        new_guarantees.append(sl.Always(sl.fold(sl.Or, used)))

    encoded_doc = sl.SpecDocument(
        boolean_inputs=doc.boolean_inputs,
        boolean_outputs=encoded,
        real_vars=(),
        predicates=(),
        assumptions=new_assumptions,
        guarantees=tuple(new_guarantees),
    )
    if sl.formula_depth(sl.document_formula(encoded_doc)) > sl.MAX_FORMULA_DEPTH:
        return spec, EMPTY_MULTIPLEXER  # code words past the parser's cap: left unencoded
    encoded_spec = PseudoBooleanSpec(
        document=encoded_doc,
        source=spec.source,
        input_refinements=spec.input_refinements,
    )
    return encoded_spec, mux


def _code_word_disjunction(mux: MultiplexerTable, atom: str) -> sl.Formula:
    return sl.fold(sl.Or, (cube_formula(word) for word, original in mux.rows if original[atom]))
