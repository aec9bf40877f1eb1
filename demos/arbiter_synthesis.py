"""Walk through one synthesis run on the two-client arbiter.

The two request predicates exclude each other on [0,4]^2 (x+y>3 versus
x^2+y^2<7/2), but the Boolean abstraction does not know that, so the first
game is lost to the environment.  One feasibility check exposes the
impossible input cube and one assumption refinement makes the spec
realizable.  At the end the impossible input is forced anyway: the
controller has no planned move, the simulator records stuck steps with all
outputs low, and the monitor flags the broken grant obligations.
"""

from pathlib import Path

from numltl import (
    CegarConfig,
    Realizable,
    Transcript,
    format_formula,
    parse_controller_file,
    parse_spec,
    parse_valuation,
    render_realizable,
    simulate,
    synthesize,
)
from numltl.abstraction import forbid

SPEC = Path(__file__).resolve().parent.parent / "specs" / "threshold_arbiter.spec"


def main() -> None:
    doc = parse_spec(SPEC.read_text())
    transcript = Transcript()
    verdict = synthesize(doc, CegarConfig(), transcript)

    print("== run transcript ==")
    print(transcript.render())

    assert isinstance(verdict, Realizable)
    print("== learned assumption ==")
    for v in verdict.spec.input_refinements:
        print(f"  {format_formula(forbid(v))}")

    print()
    print("== controller, simulated for 8 steps ==")
    package = parse_controller_file(render_realizable(verdict, "safety"))
    print(simulate(package, 8, seed=1).render())

    print("== the impossible input, forced for 4 steps ==")
    forced = parse_valuation("req1=1,req2=1")
    print(simulate(package, 4, seed=1, inject=forced).render())


if __name__ == "__main__":
    main()
