"""Subcommand behavior through the argparse front end: exit codes, stdout
reports, and written artifact files."""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from numltl import cli
from numltl.cegar import count_theory_checks
from numltl.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNKNOWN,
    main,
)
from numltl.controller_file import (
    KIND_CONTROLLER,
    KIND_COUNTER_STRATEGY,
    parse_controller_file,
)
from numltl import speclang as sl
from numltl.abstraction import abstract_spec
from numltl.automata import negate_and_translate, translate
from numltl.cegar import CegarConfig
from numltl.games import GameError
from numltl.speclang import MAX_FORMULA_DEPTH, MAX_NESTING, parse_spec
from numltl.valuation import Valuation
from generators import random_formula

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
THRESHOLD = str(SPEC_DIR / "threshold_arbiter.spec")
TRIPLE = str(SPEC_DIR / "triple_sensor_arbiter.spec")
ERROR_MONITOR = str(SPEC_DIR / "error_monitor.spec")

UNDECIDABLE = """\
REAL x IN [0, 1]
PRED low  := 3*x <= 1
PRED high := 3*x >= 1
OUTPUT g1, g2
ALWAYS (low -> NEXT (g1))
ALWAYS (high -> NEXT (g2))
ALWAYS (!(g1 && g2))
"""


class TestSynthCommand:
    def test_realizable_writes_artifact_and_transcript(self, tmp_path, capsys):
        out = tmp_path / "arbiter.ctrl"
        log = tmp_path / "run.log"
        code = main(
            ["synth", THRESHOLD, "--out", str(out), "--transcript", str(log)]
        )
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: realizable (bound 1)" in stdout
        assert "theory checks: 1" in stdout
        assert "refinements: 1 (1 input, 0 output)" in stdout
        pkg = parse_controller_file(out.read_text())
        assert pkg.kind == KIND_CONTROLLER
        assert count_theory_checks(log.read_text()) == 1
        assert "REFINE input req1=1,req2=1" in log.read_text()

    def test_unrealizable_reports_witness_values(self, tmp_path, capsys):
        out = tmp_path / "triple.cs"
        code = main(["synth", TRIPLE, "--max-bound", "2", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == EXIT_NEGATIVE
        assert "verdict: unrealizable within bound 2" in stdout
        assert "req1=1,req2=1" in stdout
        assert "witness x0=" in stdout
        assert stdout.count("left side") == 2  # both constraint values shown
        pkg = parse_controller_file(out.read_text())
        assert pkg.kind == KIND_COUNTER_STRATEGY

    def test_buchi_route_is_selectable(self, tmp_path, capsys):
        out = tmp_path / "b.ctrl"
        code = main(["synth", THRESHOLD, "--algorithm", "buchi", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: realizable (bound none)" in stdout
        assert parse_controller_file(out.read_text()).bound is None

    def test_buchi_route_without_reencoding_keeps_its_verdict(self, tmp_path, capsys):
        # verdict and exit code as before the tableau was memoised, when this
        # run took about 6 s of CPU, nearly all of it translating the formula;
        # the Büchi route still misses error_monitor's controller (ROADMAP
        # item 1)
        out = tmp_path / "em.cs"
        argv = ["synth", ERROR_MONITOR, "--algorithm", "buchi", "--no-reencode"]
        code = main(argv + ["--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == EXIT_NEGATIVE
        assert "verdict: unrealizable within bound none" in stdout.splitlines()

    def test_undecidable_theory_exits_unknown(self, tmp_path, capsys):
        spec = tmp_path / "pin.spec"
        spec.write_text(UNDECIDABLE)
        code = main(["synth", str(spec), "--max-bound", "1"])
        stdout = capsys.readouterr().out
        assert code == EXIT_UNKNOWN
        assert "verdict: unknown" in stdout
        assert "depth exhausted" in stdout

    def test_dot_file_is_written(self, tmp_path):
        out = tmp_path / "a.ctrl"
        dot = tmp_path / "a.dot"
        assert main(["synth", THRESHOLD, "--out", str(out), "--dot", str(dot)]) == EXIT_OK
        assert dot.read_text().startswith("digraph")

    def test_default_artifact_lands_in_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", THRESHOLD]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "threshold_arbiter.ctrl").exists()

    def test_malformed_spec_is_an_input_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("OUTPUT a\nALWAYS (undeclared)\n")
        assert main(["synth", str(spec)]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["synth", "/nonexistent.spec"]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-bound", "--depth"])
    def test_nonpositive_budget_is_an_input_error(self, flag, capsys):
        assert main(["synth", THRESHOLD, flag, "0"]) == EXIT_INPUT_ERROR
        assert "must be positive" in capsys.readouterr().err

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.ctrl"
        assert main(["synth", THRESHOLD, "--out", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_unwritable_transcript_is_an_input_error(self, tmp_path, capsys):
        out, log = tmp_path / "x.ctrl", tmp_path / "missing" / "run.log"
        code = main(["synth", THRESHOLD, "--out", str(out), "--transcript", str(log)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(log) in err

    def test_unwritable_dot_is_an_input_error(self, tmp_path, capsys):
        # the artifact is written first, then the graph fails
        out, dot = tmp_path / "x.cs", tmp_path / "missing" / "x.dot"
        code = main(["synth", TRIPLE, "--max-bound", "1", "--out", str(out), "--dot", str(dot)])
        assert code == EXIT_INPUT_ERROR
        assert out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(dot) in err

    def test_zero_denominator_is_an_input_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("REAL x IN [0, 1]\nPRED p := x > 1/0\nOUTPUT b\np -> b\n")
        assert main(["synth", str(spec)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "line 2, column 15: invalid rational literal '1/0'" in err


class TestCheckCommand:
    def test_implication_validity(self, capsys):
        code = main(
            [
                "check",
                "--real", "x", "0", "4",
                "--real", "y", "0", "4",
                "-c", "x + y > 3 -> x^2 + y^2 >= 7/2",
            ]
        )
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert ": Valid (explored" in stdout

    def test_trivial_validity_on_the_unit_interval(self, capsys):
        assert main(["check", "--real", "x", "0", "1", "-c", "x >= 0"]) == EXIT_OK
        assert "Valid" in capsys.readouterr().out

    def test_feasibility_conjunction_prints_witness(self, capsys):
        code = main(
            [
                "check", "--feasibility",
                "--real", "x0", "0", "4", "--real", "x1", "0", "4", "--real", "x2", "0", "4",
                "-c", "x0 + x1 + x2 > 3",
                "-c", "x0^2 + x1^2 + x2^2 < 4",
            ]
        )
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert "Feasible: witness x0=" in stdout
        assert "explored" in stdout

    def test_invalid_and_infeasible_exit_negative(self, capsys):
        assert main(["check", "--real", "x", "0", "1", "-c", "x > 2"]) == EXIT_NEGATIVE
        assert "Invalid, counterexample" in capsys.readouterr().out
        assert (
            main(["check", "--feasibility", "--real", "x", "0", "1", "-c", "x > 2"])
            == EXIT_NEGATIVE
        )
        assert "Infeasible" in capsys.readouterr().out

    def test_boundary_strictness_exits_unknown(self, capsys):
        code = main(
            ["check", "--feasibility", "--depth", "8",
             "--real", "x", "0", "1", "-c", "3*x <= 1", "-c", "3*x >= 1"]
        )
        assert code == EXIT_UNKNOWN
        assert "Unknown (depth exhausted)" in capsys.readouterr().out

    def test_constraint_file_input(self, tmp_path, capsys):
        f = tmp_path / "checks.txt"
        f.write_text("REAL x IN [0, 2]\nx^2 >= 0\nx - 3 < 0\n")
        assert main(["check", str(f)]) == EXIT_OK
        assert capsys.readouterr().out.count("Valid") == 2

    @pytest.mark.parametrize("power", ["x^100000", "(x + y + z + 1)^500"])
    def test_oversized_power_is_an_input_error(self, tmp_path, capsys, power):
        f = tmp_path / "checks.txt"
        f.write_text(f"REAL x IN [0, 1]\nREAL y IN [0, 1]\nREAL z IN [0, 1]\n{power} > 0\n")
        assert main(["check", str(f)]) == EXIT_INPUT_ERROR
        assert "exceeds the limit" in capsys.readouterr().err
        reals = ["--real", "x", "0", "1", "--real", "y", "0", "1", "--real", "z", "0", "1"]
        assert main(["check", *reals, "-c", f"{power} > 0"]) == EXIT_INPUT_ERROR
        assert "exceeds the limit" in capsys.readouterr().err

    def test_implications_cannot_join_a_feasibility_conjunction(self, capsys):
        code = main(
            ["check", "--feasibility", "--real", "x", "0", "1", "-c", "x > 0 -> x > 0"]
        )
        assert code == EXIT_INPUT_ERROR
        assert "implications" in capsys.readouterr().err

    def test_nothing_to_check_is_an_input_error(self, capsys):
        assert main(["check"]) == EXIT_INPUT_ERROR
        assert "nothing to check" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--feasibility"]], ids=["validity", "feasibility"])
    def test_negative_depth_is_an_input_error(self, mode, capsys):
        code = main(["check", *mode, "--real", "x", "0", "2", "-c", "x > 1", "--depth", "-2"])
        assert code == EXIT_INPUT_ERROR
        assert "must be nonnegative" in capsys.readouterr().err

    def test_zero_depth_is_a_plain_enclosure_check(self, capsys):
        code = main(["check", "--real", "x", "0", "2", "-c", "x >= 0", "--depth", "0"])
        assert code == EXIT_OK
        assert "Valid (explored 1 subboxes)" in capsys.readouterr().out

    def test_zero_denominator_is_an_input_error(self, capsys):
        code = main(["check", "--real", "x", "0", "1", "-c", "x > 1/0"])
        assert code == EXIT_INPUT_ERROR
        assert "invalid rational literal '1/0'" in capsys.readouterr().err


class TestParserReuse:
    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_appended_values_are_not_shared_between_calls(self, capsys):
        first = ["--real", "x", "0", "1", "-c", "x >= 0"]
        second = ["--real", "y", "0", "2", "-c", "y <= 2", "-c", "y >= 0"]
        parsed = [cli._parser().parse_args(["check", *argv]) for argv in (first, second)]
        assert [args.real for args in parsed] == [[["x", "0", "1"]], [["y", "0", "2"]]]
        assert [args.constraint for args in parsed] == [["x >= 0"], ["y <= 2", "y >= 0"]]
        assert cli._parser().parse_args(["check"]).real == []
        # through main: the second run checks its own two constraints only
        assert main(["check", *first]) == EXIT_OK
        assert main(["check", *second]) == EXIT_OK
        checked = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
        assert checked == ["x >= 0", "y - 2 <= 0", "y >= 0"]


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", THRESHOLD, "--bogus"],
            ["synth", THRESHOLD, "--seed", "1"],
            ["check", "--depth", "deep"],
            ["frobnicate"],
            [],
        ],
    )
    def test_usage_errors_exit_with_input_error(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == EXIT_INPUT_ERROR
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["synth", "--help"])
        assert caught.value.code == EXIT_OK
        assert "--max-bound" in capsys.readouterr().out


class TestAbstractCommand:
    def test_threshold_spec_abstracts_to_boolean_atoms(self, capsys):
        assert main(["abstract", THRESHOLD]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "## req1 (input): x + y - 3 > 0" in stdout
        assert "INPUT req1, req2" in stdout
        reparsed = parse_spec(stdout)
        assert reparsed.predicates == ()
        assert reparsed.boolean_inputs == ("req1", "req2")

    def test_pure_boolean_spec_is_unchanged(self, tmp_path, capsys):
        spec = tmp_path / "plain.spec"
        spec.write_text("INPUT a\nOUTPUT b\nALWAYS (a -> NEXT (b))\n")
        assert main(["abstract", str(spec)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert parse_spec(stdout) == parse_spec(spec.read_text())

    def test_parse_errors_exit_with_input_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("REAL x IN [1, 0]\nOUTPUT a\nALWAYS (a)\n")
        assert main(["abstract", str(spec)]) == EXIT_INPUT_ERROR
        assert "empty range" in capsys.readouterr().err


class TestReencodeCommand:
    def test_error_monitor_compresses_to_two_outputs(self, capsys):
        assert main(["reencode", ERROR_MONITOR]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "## multiplexer: 4 rows over sig1,sig2" in stdout
        assert "OUTPUT sig1, sig2" in stdout
        assert stdout.count("## sig1=") == 4

    def test_unconstrained_outputs_are_left_alone(self, capsys):
        assert main(["reencode", THRESHOLD]) == EXIT_OK
        assert "no re-encoding applicable" in capsys.readouterr().out

    def test_unsatisfiable_outputs_are_an_input_error(self, tmp_path, capsys):
        spec = tmp_path / "unsat.spec"
        spec.write_text("INPUT r\nOUTPUT a\nALWAYS (a)\nALWAYS (!a)\n")
        assert main(["reencode", str(spec)]) == EXIT_INPUT_ERROR
        assert "unsatisfiable" in capsys.readouterr().err


class TestSimulateCommand:
    @pytest.fixture()
    def artifact(self, tmp_path, capsys):
        out = tmp_path / "a.ctrl"
        assert main(["synth", THRESHOLD, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        return str(out)

    def test_clean_run(self, artifact, capsys):
        code = main(["simulate", artifact, "--steps", "50", "--seed", "3"])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert stdout.startswith("SIM seed=3 steps=50")
        assert stdout.rstrip().endswith("RESULT ok")

    def test_injection_reports_violations(self, artifact, capsys):
        code = main(
            ["simulate", artifact, "--steps", "20", "--inject", "req1=1,req2=1"]
        )
        stdout = capsys.readouterr().out
        assert code == EXIT_NEGATIVE
        assert "VIOLATION g1" in stdout
        assert "stuck" in stdout

    def test_state_outside_the_machine_is_an_input_error(self, artifact, tmp_path, capsys):
        # read as a spec violation (exit 1) while the reader accepted it
        text = Path(artifact).read_text().replace("INITIAL 0", "INITIAL 7")
        broken = tmp_path / "broken.ctrl"
        broken.write_text(text)
        assert main(["simulate", str(broken), "--steps", "50"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "INITIAL: 7 is not a state of the machine" in captured.err
        assert captured.out == ""

    def test_seeded_run_is_pinned(self, artifact, capsys):
        code = main(["simulate", artifact, "--steps", "1000", "--seed", "7"])
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert code == EXIT_OK
        assert digest == "28ac0578badadf5507fcf15d4bf1eeaeb0f78d130dc6808de2729b572c6ef0d8"

    def test_seeded_error_monitor_run_is_pinned(self, tmp_path, capsys):
        """error_monitor's safety controller: the bundled one with a
        multiplexer and with Until and Eventually monitors."""
        out = tmp_path / "error_monitor.ctrl"
        assert main(["synth", ERROR_MONITOR, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        code = main(["simulate", str(out), "--steps", "1000", "--seed", "7"])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert stdout.endswith("PENDING g4 count=1\nRESULT ok\n")
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        assert digest == "d42d381f060852fef7c9894f90e056865a20d6f49d07637118a6ddcb11d21002"

    @pytest.mark.parametrize("steps", ["0", "1", "20"])
    def test_unknown_injected_atom_is_an_input_error_at_every_step_count(
        self, artifact, steps, capsys
    ):
        code = main(["simulate", artifact, "--steps", steps, "--inject", "bogus=1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert "injected atom 'bogus' is not an input" in captured.err
        assert captured.out == ""

    def test_negative_step_count_is_an_input_error(self, artifact, capsys):
        assert main(["simulate", artifact, "--steps", "-3"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "must be nonnegative" in captured.err and captured.out == ""

    def test_zero_steps_is_an_empty_run(self, artifact, capsys):
        assert main(["simulate", artifact, "--steps", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "SIM seed=0 steps=0\nRESULT ok\n"

    def test_malformed_artifact_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ctrl"
        bad.write_text("not a controller\n")
        assert main(["simulate", str(bad)]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_injection_is_an_input_error(self, artifact, capsys):
        code = main(["simulate", artifact, "--inject", "req1=yes"])
        assert code == EXIT_INPUT_ERROR
        assert "malformed valuation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a repeated STEP key used to be read last-line-wins (exit 1)
            (
                lambda text: text.replace(
                    "STEP 1 req1=0,req2=1 grant1=0,grant2=0 2\n",
                    "STEP 1 req1=0,req2=1 grant1=0,grant2=0 2\n"
                    "STEP 1 req1=0,req2=1 grant1=0,grant2=0 3\n",
                ),
                "STEP: state 1 has two lines for input req1=0,req2=1",
            ),
            # a missing STEP line used to give stuck steps (exit 1)
            (
                lambda text: text.replace("STEP 1 req1=0,req2=1 grant1=0,grant2=0 2\n", ""),
                "STEP: state 1 has no line for input req1=0,req2=1",
            ),
        ],
        ids=["repeated-step", "missing-step"],
    )
    def test_repeated_or_missing_step_lines_are_input_errors(
        self, artifact, edit, message, tmp_path, capsys
    ):
        text = Path(artifact).read_text()
        broken = tmp_path / "broken.ctrl"
        broken.write_text(edit(text))
        assert broken.read_text() != text
        assert main(["simulate", str(broken), "--steps", "50", "--seed", "3"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_an_empty_refinement_cube_is_an_input_error(self, artifact, tmp_path, capsys):
        """The empty input cube excludes every input, so with the STEP lines
        deleted the reader used to accept the file and the run went stuck at
        every step (exit 1)."""
        text = Path(artifact).read_text()
        crafted = text.replace("REFINE input req1=1,req2=1\n", "REFINE input -\n")
        crafted = "".join(line for line in crafted.splitlines(True) if not line.startswith("STEP "))
        assert crafted.count("REFINE input -\n") == 1 and "STEP " not in crafted
        broken = tmp_path / "broken.ctrl"
        broken.write_text(crafted)
        assert main(["simulate", str(broken), "--steps", "5"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "REFINE input -: refinement valuation must assign exactly" in captured.err
        assert captured.out == ""


class TestUndecodableInput:
    """Files that are not UTF-8, and superscript digits, end as input errors."""

    @pytest.mark.parametrize(
        "argv",
        [["synth"], ["abstract"], ["reencode"], ["check"], ["simulate"]],
        ids=lambda argv: argv[0],
    )
    def test_invalid_utf8_file_is_an_input_error(self, argv, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("REAL x IN [0, 1]\n## café\nx > 0\n".encode("latin-1"))
        assert main(argv + [str(bad)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode"), err

    def test_superscript_digit_in_a_spec_is_an_input_error(self, tmp_path, capsys):
        spec = tmp_path / "square.spec"
        spec.write_text("REAL x IN [0, 4]\nPRED p := x² > 1\nOUTPUT b\np -> b\n")
        assert main(["synth", str(spec)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "line 2, column 12: unexpected character '²'" in err

    def test_superscript_digit_in_a_constraint_is_an_input_error(self, capsys):
        code = main(["check", "--real", "x", "0", "1", "-c", "x¹ > 0"])
        assert code == EXIT_INPUT_ERROR
        assert "unexpected character '¹'" in capsys.readouterr().err


class TestOneExitPath:
    """Bad input ends in ``main``: one ``error:`` line on stderr and exit
    code 3, whichever command meets it.  Any other exception is a fault of
    the program and leaves ``main`` as it is."""

    @pytest.mark.parametrize("command", ["synth", "abstract", "reencode", "simulate", "check"])
    def test_a_missing_path_is_one_error_line(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main([command, str(missing)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(missing) in captured.err

    @pytest.mark.parametrize("fault", [RuntimeError, GameError])
    def test_a_fault_inside_a_command_propagates(self, fault, monkeypatch, capsys):
        # GameError is a ValueError, as the input errors are
        def synthesize(*args):
            raise fault("not bad input")

        monkeypatch.setattr(cli, "synthesize", synthesize)
        with pytest.raises(fault, match="not bad input"):
            main(["synth", THRESHOLD])
        assert capsys.readouterr().err == ""


OVERFLOW = """\
REAL x IN [0, 1000000]
PRED p := x^60 > 1
OUTPUT g
ALWAYS (p -> g)
ALWAYS (p -> !g)
"""


class TestValuesPastFloatRange:
    """A value with no float prints exactly and alone, where it used to end
    a finished run in an ``OverflowError`` traceback with exit code 1."""

    @pytest.mark.parametrize("route", ["safety", "buchi"])
    def test_synth_evidence_prints_the_exact_left_side(self, route, tmp_path, capsys):
        spec, out = tmp_path / "overflow.spec", tmp_path / "overflow.cs"
        spec.write_text(OVERFLOW)
        code = main(["synth", str(spec), "--algorithm", route, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_NEGATIVE and captured.err == ""
        assert "    witness x=500000 (~500000.0)\n" in captured.out
        assert f"    x^60 - 1 > 0: left side {500000**60 - 1}\n" in captured.out
        assert parse_controller_file(out.read_text()).kind == KIND_COUNTER_STRATEGY

    @pytest.mark.parametrize(
        "mode, constraint, code, report",
        [
            (["--feasibility"], "x > 1", EXIT_OK, "Feasible: witness x={}\n"),
            ([], "x < 1", EXIT_NEGATIVE, "x - 1 < 0: Invalid, counterexample x={} ("),
        ],
        ids=["feasibility", "validity"],
    )
    def test_check_prints_a_huge_point_exactly(self, mode, constraint, code, report, capsys):
        hi = 10**400
        assert main(["check", *mode, "--real", "x", "0", str(hi), "-c", constraint]) == code
        captured = capsys.readouterr()
        assert report.format(hi // 2) in captured.out and captured.err == ""

    def test_values_in_float_range_keep_their_approximation(self):
        assert cli._approx(Fraction(1, 3)) == "1/3 (~0.3333333333333333)"
        assert cli._approx(Fraction(10**400, 3)) == f"{10**400}/3"


HUGE_COEFFICIENT = f"""\
REAL x IN [0, 1]
PRED p := (x + {10**2200})^2 > 1
OUTPUT g
ALWAYS (p -> g)
"""

# x^64 * y^64 - 1 at the witness (5 * 10^39, 5 * 10^39) has 5,082 digits
PAST_THE_DIGIT_LIMIT = f"""\
REAL x IN [0, {10**40}]
REAL y IN [0, {10**40}]
PRED p := x^64 * y^64 > 1
OUTPUT g
ALWAYS (p -> g)
ALWAYS (p -> !g)
"""


class TestValuesPastTheDigitLimit:
    """Python 3.11 on prints no int of more than 4,300 digits.  A spec with
    a coefficient past that is bad input; a reported value past it prints
    in scientific form.  Both used to end a finished run in a
    ``ValueError`` traceback with exit code 1 and no artifact."""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("synth", ["--algorithm", "safety"]),
            ("synth", ["--algorithm", "buchi"]),
            ("abstract", []),
            ("reencode", []),
        ],
        ids=["synth-safety", "synth-buchi", "abstract", "reencode"],
    )
    def test_a_huge_coefficient_is_an_input_error(self, command, options, tmp_path, capsys):
        spec = tmp_path / "huge.spec"
        spec.write_text(HUGE_COEFFICIENT)
        assert main([command, str(spec), *options]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "line 2, column 2219: power has a coefficient of more than 4300 digits"
        assert captured.err == f"error: {spec}: {message}\n"

    def test_a_huge_coefficient_to_check_is_an_input_error(self, capsys):
        constraint = f"(x + {10**2200})^2 > 1"
        code = main(["check", "--feasibility", "--real", "x", "0", "1", "-c", constraint])
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 2, column 2209: power has a coefficient of more than 4300 digits\n"
        )

    @pytest.mark.parametrize("route", ["safety", "buchi"])
    def test_synth_evidence_prints_the_scientific_form(self, route, tmp_path, capsys):
        spec, out = tmp_path / "digits.spec", tmp_path / "digits.cs"
        spec.write_text(PAST_THE_DIGIT_LIMIT)
        code = main(["synth", str(spec), "--algorithm", route, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_NEGATIVE and captured.err == ""
        assert "    x^64 * y^64 - 1 > 0: left side ~2.93874e+5081\n" in captured.out
        assert parse_controller_file(out.read_text()).kind == KIND_COUNTER_STRATEGY

    @pytest.mark.parametrize(
        "value, shown",
        [
            (Fraction(5**128 * 10**4992 - 1), "~2.93874e+5081"),
            (Fraction(-1, 10**4400), "~-1.00000e-4400"),
            # rounded half up, and the carry moves the exponent
            (Fraction(9999995 * 10**4300), "~1.00000e+4307"),
            (Fraction(9999994 * 10**4300), "~9.99999e+4306"),
            (Fraction(10**4301 + 1, 10**4301), "~1.00000e+0"),
            (Fraction(2, 3 * 10**4400), "~6.66667e-4401"),
        ],
        ids=["left-side", "negative-tiny", "carry", "no-carry", "near-one", "repeating"],
    )
    def test_the_scientific_form_is_exact(self, value, shown):
        assert cli._approx(value) == shown

    def test_values_within_the_limit_print_exactly(self):
        most = Fraction(10**4300 - 1, 7)
        assert cli._approx(most) == f"{10**4300 - 1}/7"


class TestDeepNesting:
    """Input nested past ``MAX_NESTING`` levels is an input error on every
    command that parses it, reported at the token opening the level too
    many, where it used to end in a ``RecursionError`` traceback."""

    DEEP = "(" * 200 + "grant1" + ")" * 200
    AT = f"column {MAX_NESTING + 1}: nested more than {MAX_NESTING} levels deep"

    def assert_input_error(self, code: int, capsys) -> str:
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["synth", "abstract", "reencode"])
    def test_deep_spec(self, command, tmp_path, capsys):
        text = Path(THRESHOLD).read_text()
        spec = tmp_path / "deep.spec"
        spec.write_text(f"{text}{self.DEEP}\n")
        err = self.assert_input_error(main([command, str(spec)]), capsys)
        assert f"line {len(text.splitlines()) + 1}, {self.AT}" in err

    def test_deep_constraint(self, capsys):
        deep = "(" * 200 + "x" + ")" * 200
        code = main(["check", "--real", "x", "0", "1", "-c", f"{deep} > 0"])
        assert f"line 2, {self.AT}" in self.assert_input_error(code, capsys)

    def test_deep_embedded_spec(self, tmp_path, capsys):
        out = tmp_path / "a.ctrl"
        assert main(["synth", THRESHOLD, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        head, tail = out.read_text().split("END SPEC\n")
        out.write_text(f"{head}{self.DEEP}\nEND SPEC\n{tail}")
        line = len(head.split("BEGIN SPEC\n")[1].splitlines()) + 1
        err = self.assert_input_error(main(["simulate", str(out)]), capsys)
        assert f"embedded specification: line {line}, {self.AT}" in err


class TestDeepSpecs:
    """Specs past ``MAX_FORMULA_DEPTH`` are input errors on every command
    that parses them, where they used to end in a ``RecursionError``
    traceback (exit 1) once a few hundred guarantees were conjoined or a
    binary chain ran long; specs at the cap still synthesize."""

    HEADER = "INPUT a\nOUTPUT b\n"
    DEEP = {
        # 1,000 guarantees: rejected at the first line past the cap
        "guarantees": (HEADER + "ALWAYS (a -> b)\n" * 1000, MAX_FORMULA_DEPTH + 1, 1),
        # a 1,000-link chain: rejected at its innermost operator past the cap
        "chain": (
            HEADER + " -> ".join(["a"] * 1001) + "\n",
            3,
            1 + (1000 - MAX_FORMULA_DEPTH) * 5 + 2,
        ),
    }
    # the cap's worth of guarantee lines, and one line with the cap's
    # worth of operators
    AT_CAP = {
        "guarantees": HEADER + "ALWAYS (a -> b)\n" * (MAX_FORMULA_DEPTH - 2),
        "chain": HEADER
        + "ALWAYS (("
        + " && ".join((["a", "b"] * MAX_FORMULA_DEPTH)[: MAX_FORMULA_DEPTH - 2])
        + ") -> b)\n",
    }
    COMMANDS = {
        "synth-safety": ["synth", "--algorithm", "safety"],
        "synth-buchi": ["synth", "--algorithm", "buchi"],
        "abstract": ["abstract"],
        "reencode": ["reencode"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("shape", list(DEEP))
    def test_past_the_cap_is_an_input_error(self, shape, command, tmp_path, capsys):
        text, line, column = self.DEEP[shape]
        spec = tmp_path / "deep.spec"
        spec.write_text(text)
        out = ["--out", str(tmp_path / "deep.ctrl")] if command.startswith("synth") else []
        code = main([*self.COMMANDS[command], str(spec), *out])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT_ERROR
        assert "Traceback" not in err
        assert f"line {line}, column {column}: more than {MAX_FORMULA_DEPTH} levels" in err

    @pytest.mark.parametrize("shape", list(AT_CAP))
    def test_at_the_cap_synthesizes_in_process_and_in_a_fresh_one(self, shape, tmp_path, capsys):
        spec = tmp_path / "cap.spec"
        spec.write_text(self.AT_CAP[shape])
        doc = parse_spec(self.AT_CAP[shape])
        assert len(doc.guarantees) + max(map(depth, doc.guarantees)) == MAX_FORMULA_DEPTH
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for command in ("synth-safety", "synth-buchi", "abstract", "reencode"):
            argv = [*self.COMMANDS[command], str(spec)]
            if command.startswith("synth"):
                argv += ["--out", str(tmp_path / f"{command}.ctrl")]
            assert main(argv) == EXIT_OK
            run = subprocess.run(
                [sys.executable, "-m", "numltl.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (run.returncode, run.stderr) == (EXIT_OK, "")
        capsys.readouterr()

    def test_deep_code_words_synthesize_in_a_fresh_process(self, tmp_path, capsys):
        """Re-encoding 11 outputs, 1,024 of whose words are feasible, would
        substitute a 512-word disjunction for ``o2``: past the cap, so the
        outputs are played unencoded (exit 1 with a traceback before)."""
        outputs = ", ".join(f"o{i}" for i in range(1, 12))
        spec = tmp_path / "wide.spec"
        spec.write_text(f"INPUT a\nOUTPUT {outputs}\nALWAYS (!o1)\nALWAYS (a -> o2)\n")
        assert main(["reencode", str(spec)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("no re-encoding applicable\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for route in ("safety", "buchi"):
            argv = ["synth", "--algorithm", route, str(spec), "--out", str(tmp_path / "wide.ctrl")]
            run = subprocess.run(
                [sys.executable, "-m", "numltl.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (run.returncode, run.stderr) == (EXIT_OK, "")
            assert (tmp_path / "wide.ctrl").read_text().startswith("NUMLTL CONTROLLER\n")

    def test_formula_depth_counts_without_recursion(self):
        rng = random.Random(1414)
        for _ in range(200):
            formula = random_formula(rng, ["a", "b", "c"], rng.randint(0, 6))
            assert sl.formula_depth(formula) == depth(formula)
        chain = sl.Atom("a")
        for _ in range(5000):
            chain = sl.Or(chain, sl.Not(sl.Atom("b")))
        assert sl.formula_depth(sl.Always(chain)) == 5002

    def test_the_cap_leaves_room_for_the_refinement_cap(self):
        """A run appends a ``forbid`` guarantee per output refinement, up to
        ``refinement_cap`` of them, to a document at the cap."""
        spec, _ = abstract_spec(parse_spec(self.AT_CAP["guarantees"]))
        cap = CegarConfig().refinement_cap
        forbidden = tuple(Valuation.of({"b": bool(k % 2)}) for k in range(cap))
        formula = replace(spec, output_refinements=forbidden).game_formula()
        assert depth(formula) >= MAX_FORMULA_DEPTH - 1 + cap
        translate(formula)
        negate_and_translate(formula)
        assert sl.parse_spec(sl.format_spec(spec.document)) == spec.document


def depth(formula) -> int:
    """Operators on the longest path of ``formula``, walked without recursion."""
    deepest, stack = 0, [(formula, 0)]
    while stack:
        f, d = stack.pop()
        children = [getattr(f, name) for name in ("operand", "left", "right") if hasattr(f, name)]
        if children:
            stack += [(child, d + 1) for child in children]
        deepest = max(deepest, d)
    return deepest


# sha256 of the artifact and of the transcript that `numltl synth` writes for
# each bundled spec and route.  error_monitor/buchi is the known wrong
# unrealizable verdict; fixing it changes its pair.
BUNDLED_HASHES = {
    ("threshold_arbiter", "safety"): (
        "e0692594c23f8f64aba76f21baf66ddccd990a1215c2943a10d9b2c4c046dc32",
        "f80c76dda527de2f43622242416475db04662c81ed4b613d84e7c8df823cb20d",
    ),
    ("threshold_arbiter", "buchi"): (
        "5641d5f9f4798d334ef92377c026fe4c87cc06eea5034c7d5dfde5d9353f5eb1",
        "836cb06c5ba418479eac97d24faff2c8c5cd08970fbed67f0c31c252278b409b",
    ),
    ("triple_sensor_arbiter", "safety"): (
        "e05c20ec40bc30d29778e573be9d1e94ec43222a8ebcdbed64e05feb50acb561",
        "ddfd6cd4ab9b2a44077c0ed83af9b046b8b6585f2181b14e0f864a5a6d73b44e",
    ),
    ("triple_sensor_arbiter", "buchi"): (
        "368f0161cb1171d10af29f4806f5b450ba55c002807cb5c7c31e91f8a8d7e84f",
        "f22eeba7010d358e61cd721fd47173e128fd4e230cd141a9c4febe44eb7c84ca",
    ),
    ("error_monitor", "safety"): (
        "5d7d02318b40fc124d4c9a4b5e0a931262023a7ab4d976aa9bfe08a64ab5321e",
        "d351c3884bfc90ad0744fd8a00f8de4d37d6080cc94b36f3e3e2bbc8d5ac69e0",
    ),
    ("error_monitor", "buchi"): (
        "f049c7a2912db7790e40435e6ef9a0075ffcd93e0420ee5a755fd99d23463d0b",
        "83e1816d7f847156c3e760b7ba8142fcf128c1877559d9bc496b60a1aaf6846e",
    ),
}


@pytest.mark.parametrize(
    "name, route", sorted(BUNDLED_HASHES), ids=lambda part: part
)
def test_bundled_artifacts_and_transcripts_are_pinned(name, route, tmp_path, capsys):
    out, log = tmp_path / "artifact", tmp_path / "transcript"
    spec = str(SPEC_DIR / f"{name}.spec")
    main(["synth", spec, "--algorithm", route, "--out", str(out), "--transcript", str(log)])
    capsys.readouterr()
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, log))
    assert digests == BUNDLED_HASHES[(name, route)]


# The same pins for the n-client arbiter family (tests/data, the seed-1
# bands: clients whose sum-of-sensors bands are disjoint, or have one
# overlapping pair).  These runs refine 45 input valuations between them and
# re-solve the standing arena after each, the path the bundled specs barely
# take; the exit code is pinned with the digests.
DATA_DIR = Path(__file__).resolve().parent / "data"
ARBITER_HASHES = {
    ("arbiter2-disjoint", "safety"): (
        EXIT_OK,
        "6d3caa64656bde257820b2bb5def37695f561e05e5275a007a367df11254e68b",
        "f80c76dda527de2f43622242416475db04662c81ed4b613d84e7c8df823cb20d",
    ),
    ("arbiter2-disjoint", "buchi"): (
        EXIT_OK,
        "d8366053ac677336f66ca07ca4014f733ad81d3dc467ea4fb89b8817f1cdb8c2",
        "836cb06c5ba418479eac97d24faff2c8c5cd08970fbed67f0c31c252278b409b",
    ),
    ("arbiter2-overlap", "safety"): (
        EXIT_NEGATIVE,
        "f309b58ece7d69b284d56162e307da03e0e493a60b13bfd5fffb6fed6f8630ec",
        "b024fdf789430cfbde79cf89e33684533908b39594291750b27acc9194077735",
    ),
    ("arbiter2-overlap", "buchi"): (
        EXIT_NEGATIVE,
        "664ccaa74aff75ab1ee32e3d1d7aeedddef8bf349607e5623bc19a71f6449416",
        "2ee250ce9ecc2feadfcb0313ae9b93f1baa34bfbc71adb208f57962b6a4e8b0d",
    ),
    ("arbiter3-disjoint", "safety"): (
        EXIT_OK,
        "386e09b0f4dc873bd8c4ed524dfb89f8994acf8dae03a4f9933eb883e95567f4",
        "2e90d48df05aa29a079bff90409a8ac2c57eb98bb8216139e29865c7f015e9ac",
    ),
    ("arbiter3-disjoint", "buchi"): (
        EXIT_OK,
        "f83ef447c558fea6859a289206f61c40b325a57e7e0645c4183b268125b3d10b",
        "ddb87504a516e5f54a250b677e3c1f692281de300d7f4244494df922763b3097",
    ),
    ("arbiter3-overlap", "safety"): (
        EXIT_NEGATIVE,
        "40f7bcbc1a6f33430de1a9402be2cb0f6e162b4bc5f71b09098a121a8198e786",
        "f876c437321236f4c8ad6dd24840fd624c07014769300ecb393f097e18ba47d8",
    ),
    ("arbiter3-overlap", "buchi"): (
        EXIT_NEGATIVE,
        "065bff00ff3afb5f5fb8faf6d56640689999debbc3ad1e3fc8fa7a324e83717a",
        "021dcd1712676ff837f27de7bac3c13b0bcca2884606560dc88811c48e472c41",
    ),
    ("arbiter4-disjoint", "safety"): (
        EXIT_OK,
        "4f33159e0bb3bfeab7d39b5829271fcd6d95c44fb4c7e0dbc389581a624bf071",
        "2e4419623ccb5b670071d716509859596bf544a0d52d9df33020529f65c22fbc",
    ),
    ("arbiter4-disjoint", "buchi"): (
        EXIT_OK,
        "27d97a5c54a1b276b998c359d7d3c5f05972010088e2d501ed4f856de969af15",
        "3517f38f15c21fec6afa7735dabbe8ce48d6dbcc4e75f4961341d00f3b185460",
    ),
    ("arbiter4-overlap", "safety"): (
        EXIT_NEGATIVE,
        "d71c8b3e7d025a98d16616afd205cbf659c3121e7a0c4ad8c3be93557b86d314",
        "d073bbe50d81b0293e4dc69af29f2496520641bbf677e3316dc0689011689d3c",
    ),
    ("arbiter4-overlap", "buchi"): (
        EXIT_NEGATIVE,
        "cfa558c71af382a9929039bcb4d3f124ffb447dceaffacd30c53fc1e45153a9b",
        "86db2695b748d10ad194f76ed518a6aaca87861f67e64f59362f6e776a760a8e",
    ),
}


@pytest.mark.parametrize(
    "name, route", sorted(ARBITER_HASHES), ids=lambda part: part
)
def test_arbiter_family_artifacts_and_transcripts_are_pinned(name, route, tmp_path, capsys):
    out, log = tmp_path / "artifact", tmp_path / "transcript"
    spec = str(DATA_DIR / f"{name}.spec")
    code = main(["synth", spec, "--algorithm", route, "--out", str(out), "--transcript", str(log)])
    capsys.readouterr()
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, log))
    assert (code, *digests) == ARBITER_HASHES[(name, route)]
