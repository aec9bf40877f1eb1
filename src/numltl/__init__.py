"""Controller synthesis from LTL specifications whose atoms may be
polynomial constraints over bounded real-valued sensors.

The pipeline: ``speclang`` parses specification text; ``abstraction`` maps
predicate atoms to fresh Booleans (and can re-encode constrained outputs
through a multiplexer); ``automata`` and ``games`` turn the pseudo-Boolean
formula into a solvable arena; ``bernstein`` decides polynomial feasibility
and validity over boxes in exact rational arithmetic; ``cegar`` ties the
loop together, checking each predicate combination at most once and refining
the arena until the verdict is genuine; ``controller_file`` and ``simulate``
handle the produced artifacts; ``cli`` exposes it all as subcommands.
"""

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
from .automata import (
    BuchiAutomaton,
    accepts_lasso,
    evaluate_ltl_on_lasso,
    translate,
)
from .bernstein import (
    DEFAULT_DEPTH,
    Box,
    ConstraintImplication,
    EnclosureMemo,
    Feasible,
    Infeasible,
    Invalid,
    PolyConstraint,
    Polynomial,
    PolynomialError,
    SearchStats,
    Unknown,
    Valid,
    bounds,
    check_feasibility,
    check_validity,
)
from .cegar import (
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
    synthesize,
)
from .controller_file import (
    ControllerFileError,
    ControllerPackage,
    parse_controller_file,
    render_dot,
    render_realizable,
    render_unrealizable,
    spec_digest,
)
from .games import (
    CounterStrategy,
    GameArena,
    MealyController,
    build_buchi_game,
    build_safety_game,
    extract_controller,
    extract_counter_strategy,
    solve,
)
from .simulate import SimulationError, SimulationTrace, monitor_guarantees, simulate
from .speclang import (
    ConstraintDocument,
    SpecDocument,
    SpecError,
    format_formula,
    format_spec,
    parse_constraints,
    parse_spec,
)
from .valuation import Valuation, all_valuations, parse_valuation

__all__ = [
    "AbstractionError",
    "BUCHI",
    "Box",
    "BuchiAutomaton",
    "CegarConfig",
    "CheckedCache",
    "ConstraintDocument",
    "ConstraintImplication",
    "ControllerFileError",
    "ControllerPackage",
    "CounterStrategy",
    "DEFAULT_DEPTH",
    "EMPTY_MULTIPLEXER",
    "EnclosureMemo",
    "Feasible",
    "GameArena",
    "Infeasible",
    "Invalid",
    "MealyController",
    "MultiplexerTable",
    "PolyConstraint",
    "Polynomial",
    "PolynomialError",
    "PredicateTable",
    "PseudoBooleanSpec",
    "Realizable",
    "SAFETY",
    "SearchStats",
    "SimulationError",
    "SimulationTrace",
    "SpecDocument",
    "SpecError",
    "TheoryUnknownError",
    "Transcript",
    "Unknown",
    "UnrealizableWithinBound",
    "Valid",
    "Valuation",
    "abstract_spec",
    "accepts_lasso",
    "all_valuations",
    "bound_schedule_up_to",
    "bounds",
    "build_buchi_game",
    "build_safety_game",
    "check_feasibility",
    "check_validity",
    "count_theory_checks",
    "evaluate_ltl_on_lasso",
    "extract_controller",
    "extract_counter_strategy",
    "format_formula",
    "format_spec",
    "monitor_guarantees",
    "parse_constraints",
    "parse_controller_file",
    "parse_spec",
    "parse_valuation",
    "reencode_outputs",
    "refine_with_assumption",
    "refine_with_guarantee",
    "render_dot",
    "render_realizable",
    "render_unrealizable",
    "simulate",
    "solve",
    "spec_digest",
    "synthesize",
    "translate",
]
