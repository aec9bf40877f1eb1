"""Command-line front end.

Subcommands: ``synth`` runs the refinement loop on a specification file and
writes the resulting controller or counter-strategy artifact; ``check``
decides standalone polynomial constraints over a box; ``abstract`` prints
the pseudo-Boolean view of a specification; ``reencode`` prints the
output-compressed rewrite and its multiplexer; ``simulate`` replays a
controller artifact against randomly sampled sensor values.

Exit codes: 0 success (realizable / valid / feasible / clean simulation),
1 negative verdict (unrealizable within bound / invalid / infeasible /
monitor violations), 2 unknown, 3 input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import speclang as sl
from .abstraction import AbstractionError, abstract_spec, reencode_outputs
from .bernstein import (
    ConstraintImplication,
    Feasible,
    Infeasible,
    Invalid,
    SearchStats,
    Unknown,
    Valid,
    check_feasibility,
    check_validity,
    DEFAULT_DEPTH,
)
from .cegar import (
    BUCHI,
    SAFETY,
    CegarConfig,
    Realizable,
    Transcript,
    bound_schedule_up_to,
    count_theory_checks,
    synthesize,
    valuation_to_constraints,
)
from .controller_file import (
    ControllerFileError,
    parse_controller_file,
    render_dot,
    render_realizable,
    render_unrealizable,
)
from .simulate import SimulationError, simulate
from .valuation import parse_valuation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _read(path: str) -> str:
    """The file's text; undecodable bytes count as a failed read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _load(path: str, parse, error: type[Exception]):
    """``parse`` of the file's text, or None once the failure is reported."""
    try:
        return parse(_read(path))
    except OSError as exc:
        _fail(str(exc))
    except error as exc:
        _fail(f"{path}: {exc}")
    return None


def _approx(value: Fraction) -> str:
    return f"{value} (~{float(value)})"


def _point_report(names: tuple[str, ...], point) -> str:
    return ", ".join(f"{n}={_approx(v)}" for n, v in zip(names, point))


# -- synth --------------------------------------------------------------------


def _write(path: str | Path, text: str) -> bool:
    """Write ``text`` to ``path``; a failure is reported as an input error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(str(exc))
        return False
    return True


def _artifact_path(spec_path: str, out: str | None, suffix: str) -> Path:
    if out is not None:
        return Path(out)
    return Path(Path(spec_path).name).with_suffix(suffix)


def cmd_synth(args: argparse.Namespace) -> int:
    doc = _load(args.spec, sl.parse_spec, sl.SpecError)
    if doc is None:
        return EXIT_INPUT_ERROR
    try:
        cfg = CegarConfig(
            algorithm=args.algorithm,
            max_bound=args.max_bound,
            depth=args.depth,
            reencode=not args.no_reencode,
        )
    except ValueError as exc:
        return _fail(str(exc))
    transcript = Transcript()
    verdict = synthesize(doc, cfg, transcript)
    print(f"spec: {args.spec}")
    route = f"algorithm: {cfg.algorithm}"
    if cfg.algorithm == SAFETY:
        schedule = ",".join(str(b) for b in bound_schedule_up_to(cfg.max_bound))
        route += f" (bound schedule {schedule})"
    print(route)

    if args.transcript and not _write(args.transcript, transcript.render()):
        return EXIT_INPUT_ERROR

    if isinstance(verdict, Unknown):
        print(f"verdict: unknown ({verdict.reason})")
        print(f"theory checks: {count_theory_checks(transcript)}")
        return EXIT_UNKNOWN

    spec = verdict.spec
    refinements = len(spec.input_refinements) + len(spec.output_refinements)
    shown = verdict.bound if verdict.bound is not None else "none"
    if isinstance(verdict, Realizable):
        machine = verdict.controller
        print(f"verdict: realizable (bound {shown})")
        print(
            f"controller: {machine.n_states} states,"
            f" inputs {','.join(machine.inputs) or '-'},"
            f" outputs {','.join(machine.outputs) or '-'}"
        )
        if verdict.multiplexer:
            print(f"multiplexer: {len(verdict.multiplexer.rows)} rows (outputs re-encoded)")
        print(
            f"refinements: {refinements}"
            f" ({len(spec.input_refinements)} input, {len(spec.output_refinements)} output)"
        )
        suffix, render, code = ".ctrl", render_realizable, EXIT_OK
    else:
        machine = verdict.counter_strategy
        print(f"verdict: unrealizable within bound {shown}")
        print(f"counter-strategy: {len(machine.states)} states")
        if verdict.evidence:
            names = verdict.table.input_variables
            print("evidence (every counter-strategy input is feasible):")
            for valuation, witness in verdict.evidence:
                print(f"  {valuation}")
                print(f"    witness {_point_report(names, witness)}")
                for constraint in valuation_to_constraints(valuation, verdict.table):
                    rendered = sl.format_constraint(constraint, names)
                    value = constraint.poly.evaluate(witness)
                    print(f"    {rendered}: left side {_approx(value)}")
        print(f"refinements: {refinements}")
        suffix, render, code = ".cs", render_unrealizable, EXIT_NEGATIVE
    print(f"theory checks: {count_theory_checks(transcript)}")
    out_path = _artifact_path(args.spec, args.out, suffix)
    if not _write(out_path, render(verdict, cfg.algorithm)):
        return EXIT_INPUT_ERROR
    print(f"wrote {out_path}")
    if args.dot:
        if not _write(args.dot, render_dot(machine)):
            return EXIT_INPUT_ERROR
        print(f"wrote {args.dot}")
    return code


# -- check --------------------------------------------------------------------


def _gather_constraint_text(args: argparse.Namespace) -> str | None:
    parts = []
    if args.file:
        parts.append(_read(args.file))
    for name, lo, hi in args.real:
        parts.append(f"REAL {name} IN [{lo}, {hi}]")
    parts.extend(args.constraint)
    return "\n".join(parts) + "\n" if parts else None


def _render_check(formula, names: tuple[str, ...]) -> str:
    if isinstance(formula, ConstraintImplication):
        return (
            f"{sl.format_constraint(formula.premise, names)}"
            f" -> {sl.format_constraint(formula.conclusion, names)}"
        )
    return sl.format_constraint(formula, names)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = _gather_constraint_text(args)
    except OSError as exc:
        return _fail(str(exc))
    if text is None:
        return _fail("nothing to check: give a file or --real/--constraint flags")
    try:
        doc = sl.parse_constraints(text)
    except sl.SpecError as exc:
        return _fail(str(exc))

    if args.depth < 0:
        return _fail("theory depth budget must be nonnegative")
    names = doc.variables
    if args.feasibility:
        plain = [c for c in doc.checks if not isinstance(c, ConstraintImplication)]
        if len(plain) != len(doc.checks):
            return _fail("implications cannot join a feasibility conjunction")
        stats = SearchStats()
        verdict = check_feasibility(plain, doc.box, args.depth, stats)
        for c in plain:
            print(sl.format_constraint(c, names))
        if isinstance(verdict, Feasible):
            print(f"Feasible: witness {_point_report(names, verdict.witness)}")
            code = EXIT_OK
        elif isinstance(verdict, Infeasible):
            print("Infeasible")
            code = EXIT_NEGATIVE
        else:
            print(f"Unknown ({verdict.reason})")
            code = EXIT_UNKNOWN
        print(f"explored {stats.explored} subboxes")
        return code

    worst = EXIT_OK
    for formula in doc.checks:
        stats = SearchStats()
        verdict = check_validity(formula, doc.box, args.depth, stats)
        shown = _render_check(formula, names)
        if isinstance(verdict, Valid):
            print(f"{shown}: Valid (explored {stats.explored} subboxes)")
        elif isinstance(verdict, Invalid):
            report = _point_report(names, verdict.witness)
            print(f"{shown}: Invalid, counterexample {report} (explored {stats.explored} subboxes)")
            worst = max(worst, EXIT_NEGATIVE)
        else:
            print(f"{shown}: Unknown ({verdict.reason}) (explored {stats.explored} subboxes)")
            worst = max(worst, EXIT_UNKNOWN)
    return worst


# -- abstract / reencode --------------------------------------------------------


def _predicate_comments(doc: sl.SpecDocument) -> list[str]:
    lines = []
    for side in (sl.INPUT_SIDE, sl.OUTPUT_SIDE):
        names = tuple(d.name for d in doc.real_vars_of(side))
        for p in doc.predicates_of(side):
            rendered = sl.format_constraint(p.constraint, names)
            lines.append(f"## {p.atom} ({side}): {rendered}")
    return lines


def cmd_abstract(args: argparse.Namespace) -> int:
    doc = _load(args.spec, sl.parse_spec, sl.SpecError)
    if doc is None:
        return EXIT_INPUT_ERROR
    spec, _ = abstract_spec(doc)
    for line in _predicate_comments(doc):
        print(line)
    print(sl.format_spec(spec.document), end="")
    return EXIT_OK


def cmd_reencode(args: argparse.Namespace) -> int:
    doc = _load(args.spec, sl.parse_spec, sl.SpecError)
    if doc is None:
        return EXIT_INPUT_ERROR
    spec, _ = abstract_spec(doc)
    try:
        encoded, mux = reencode_outputs(spec)
    except AbstractionError as exc:
        return _fail(str(exc))
    if not mux:
        print("no re-encoding applicable")
        print(sl.format_spec(spec.document), end="")
        return EXIT_OK
    print(f"## multiplexer: {len(mux.rows)} rows over {','.join(mux.encoded_atoms)}")
    for word, original in mux.rows:
        print(f"## {word} -> {original}")
    print(sl.format_spec(encoded.document), end="")
    return EXIT_OK


# -- simulate -------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    package = _load(args.controller, parse_controller_file, ControllerFileError)
    if package is None:
        return EXIT_INPUT_ERROR
    inject = None
    if args.inject:
        try:
            inject = parse_valuation(args.inject)
        except ValueError as exc:
            return _fail(str(exc))
    try:
        trace = simulate(package, args.steps, args.seed, inject)
    except SimulationError as exc:
        return _fail(str(exc))
    print(trace.render(), end="")
    return EXIT_OK if not trace.violations else EXIT_NEGATIVE


# -- argument surface -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 3; argparse's own 2 means unknown here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="numltl",
        description="Controller synthesis from LTL specifications with polynomial sensor constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a controller from a spec file")
    synth.add_argument("spec")
    synth.add_argument("--algorithm", choices=(SAFETY, BUCHI), default=SAFETY)
    synth.add_argument("--max-bound", type=int, default=16, metavar="N")
    synth.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="N")
    synth.add_argument("--out", metavar="PATH", help="artifact path (.ctrl or .cs)")
    synth.add_argument("--dot", metavar="PATH", help="write a graph description")
    synth.add_argument("--transcript", metavar="PATH", help="write the run transcript")
    synth.add_argument("--no-reencode", action="store_true")
    synth.set_defaults(func=cmd_synth)

    check = sub.add_parser("check", help="check polynomial constraints over a box")
    check.add_argument("file", nargs="?", help="constraint file")
    check.add_argument(
        "--real", nargs=3, action="append", default=[], metavar=("NAME", "LO", "HI")
    )
    check.add_argument("--constraint", "-c", action="append", default=[], metavar="TEXT")
    check.add_argument(
        "--feasibility",
        action="store_true",
        help="search a common satisfying point instead of proving each line valid",
    )
    check.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="N")
    check.set_defaults(func=cmd_check)

    abstract = sub.add_parser("abstract", help="print the pseudo-Boolean view of a spec")
    abstract.add_argument("spec")
    abstract.set_defaults(func=cmd_abstract)

    reencode = sub.add_parser("reencode", help="print the output-compressed rewrite")
    reencode.add_argument("spec")
    reencode.set_defaults(func=cmd_reencode)

    simulate_cmd = sub.add_parser("simulate", help="replay a controller artifact")
    simulate_cmd.add_argument("controller")
    simulate_cmd.add_argument("--steps", type=int, default=20, metavar="N")
    simulate_cmd.add_argument("--seed", type=int, default=0, metavar="N")
    simulate_cmd.add_argument(
        "--inject", metavar="VALUATION", help="force input atoms, e.g. req1=1,req2=1"
    )
    simulate_cmd.set_defaults(func=cmd_simulate)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser
    as it was, and appending options copy their default list."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
