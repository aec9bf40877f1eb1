"""numltl benchmark: one workload per process, answers checked independently.

Run from the repository root:

    python3 bench/run.py --workload specs --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each is there):

- ``specs``: the README session, ``numltl synth`` on every bundled spec on
  both routes through ``numltl.cli.main``, then ``simulate --steps 1000`` on
  every controller written;
- ``arbiter_family``: generated n-client arbiters (n = 2..4) over two shared
  sensors, a realizable and an unrealizable variant each, both routes, the
  same CLI session with 200-step simulations;
- ``theory_batch``: 105 generated feasibility, validity, implication and
  enclosure queries answered by the Bernstein engine alone.

Every time is the process's CPU time, not the wall clock: the benchmark
and numltl run in one thread and wait for nothing, so on an unshared CPU the
two agree, while on a shared virtual machine the wall clock also counts the
time other guests hold the CPU.  The times of a pass are then scaled to
the nominal speed of ``speed.py``'s probe; the unscaled seconds are in the
detail line.  ``setup_s`` is the CPU time of a fresh interpreter from its
start to the first timed call (importing numltl and making the inputs),
scaled by ``speed.py``'s import probe run just before it; the median of
seven such processes.

With ``--trace 0`` passes are repeated while the next one still fits in
``--seconds`` of wall clock, set-up included; quick instances run before, between and after
the slow ones in each pass.  Each instance's time is the median of its
samples, and the end-to-end metrics are printed.  With ``--trace 1`` two
traced passes (see ``tracing.py``) run every instance once each, and the
per-layer metrics are printed; the two passes must agree on every count and
their spans must cover 90% of the CPU time each instance spends inside
numltl's calls (the benchmark's own checks of the answers are not traced).

The last line of standard output is the JSON result; the line before it
holds the per-instance records and the machine facts, which are also written
with the spans under ``.bench_out/``.  Exit code 2 means the benchmark could
not run (no numltl sources next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from speed import IMPORT_NOMINAL_S, NOMINAL_S, SpeedProbe, import_probe
from tracing import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import (
    REALIZABLE,
    UNREALIZABLE,
    SynthInstance,
    TheoryQuery,
    arbiter_instances,
    bundled_instances,
    theory_queries,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("specs", "arbiter_family", "theory_batch")
SETUP_REPEATS = 7
MIN_COVERAGE = 0.9
VERDICT_EXIT = {REALIZABLE: 0, UNREALIZABLE: 1, "unknown": 2}
QUERY_EXIT = {"Feasible": 0, "Valid": 0, "Enclosure": 0, "Infeasible": 1, "Invalid": 1, "Unknown": 2}
_VALUE = re.compile(r"(\w+)=(-?\d+(?:/\d+)?) \(~")


class BenchError(Exception):
    """The benchmark cannot run here."""


# -- set-up --------------------------------------------------------------------


def _import_numltl():
    """The package, from the sources next to the benchmark."""
    package = importlib.import_module("numltl")
    importlib.import_module("numltl.cli")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "numltl":
        raise BenchError(f"numltl imported from {package.__file__}, not from this checkout")
    return package


@dataclass
class Prepared:
    numltl: object
    # (instance, parsed constraint document for a theory query, else None)
    items: list[tuple[SynthInstance | TheoryQuery, object]]
    spec_paths: dict[str, Path]


def prepare(workload: str, seed: int, work_dir: Path) -> Prepared:
    """Import numltl and build the workload's inputs; this is set-up."""
    numltl = _import_numltl()
    spec_paths: dict[str, Path] = {}
    if workload == "theory_batch":
        items = [(q, numltl.parse_constraints(q.text)) for q in theory_queries(seed)]
        return Prepared(numltl, items, spec_paths)
    if workload == "specs":
        synth = bundled_instances(ROOT / "specs")
        spec_paths = {i.spec_file: ROOT / "specs" / i.spec_file for i in synth}
    else:
        synth = arbiter_instances(seed)
        for inst in synth:
            path = work_dir / inst.spec_file
            path.write_text(inst.spec_text, encoding="utf-8")
            spec_paths[inst.spec_file] = path
    return Prepared(numltl, [(inst, None) for inst in synth], spec_paths)


def setup_time(workload: str, seed: int) -> float:
    """CPU seconds of a fresh interpreter from its start to the end of
    ``prepare``: the benchmark run with ``--setup-only`` prints them."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "1", "--setup-only"]
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise BenchError(f"set-up process failed: {child.stderr.strip()[-500:]}")
    return float(child.stdout.split()[-1])


# -- running one instance -----------------------------------------------------------


def _cli(argv: list[str], record: dict | None = None) -> tuple[int, str]:
    """Run the CLI; its CPU seconds are added to ``record["numltl_s"]``."""
    out, err = io.StringIO(), io.StringIO()
    cli = sys.modules["numltl.cli"]
    start = process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if record is not None:
            record["numltl_s"] = record.get("numltl_s", 0.0) + process_time() - start
    return code, out.getvalue() + err.getvalue()


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _verdict_line(output: str) -> tuple[str, str | None]:
    for line in output.splitlines():
        if line.startswith("verdict: "):
            text = line[len("verdict: ") :]
            bound = re.search(r"bound (\w+)", text)
            shown = bound.group(1) if bound else None
            for verdict in (REALIZABLE, UNREALIZABLE, "unknown"):
                if text.startswith(verdict):
                    return verdict, shown
    return "none", None


def _evidence(output: str) -> list[tuple[dict[str, bool], dict[str, Fraction]]]:
    """(valuation, witness) pairs the CLI printed for an unrealizable verdict."""
    lines = output.splitlines()
    if "evidence (every counter-strategy input is feasible):" not in lines:
        return []
    pairs = []
    for i, line in enumerate(lines):
        if line.startswith("    witness "):
            valuation = {
                atom: value == "1"
                for atom, value in (p.split("=") for p in lines[i - 1].strip().split(","))
            }
            witness = {n: Fraction(v) for n, v in _VALUE.findall(line)}
            pairs.append((valuation, witness))
    return pairs


def _check_evidence(inst: SynthInstance, output: str) -> str | None:
    """Re-evaluate every evidence witness with the benchmark's predicates."""
    if not inst.predicates:
        return None
    pairs = _evidence(output)
    if not pairs:
        return "no evidence printed"
    for valuation, witness in pairs:
        if set(witness) != set(inst.box):
            return f"witness {witness} does not name the sensors"
        if any(not lo <= witness[v] <= hi for v, (lo, hi) in inst.box.items()):
            return f"witness {witness} outside the box"
        for atom, value in valuation.items():
            if inst.predicates[atom](witness) != value:
                return f"witness {witness} does not give {atom}={int(value)}"
    if not any(sum(v[a] for a in inst.requests if a in v) >= 2 for v, _ in pairs):
        return "no evidence input has two requests at once"
    return None


def _check_simulation(artifact: Path, steps: int, sim_seed: int, record: dict) -> str | None:
    argv = ["simulate", str(artifact), "--steps", str(steps), "--seed", str(sim_seed)]
    code, output = _cli(argv, record)
    if code != 0 or "RESULT ok" not in output:
        return f"simulation exit {code}: {output.splitlines()[-1] if output else ''}"
    if any(line.endswith(" stuck") for line in output.splitlines()):
        return "simulation got stuck"
    return None


def run_synth(inst: SynthInstance, prepared: Prepared, work_dir: Path, seed: int) -> dict:
    stem = inst.name.replace("/", ".")
    artifact, log = work_dir / f"{stem}.out", work_dir / f"{stem}.log"
    for path in (artifact, log):
        path.unlink(missing_ok=True)
    argv = [
        "synth",
        str(prepared.spec_paths[inst.spec_file]),
        "--algorithm",
        inst.route,
        "--out",
        str(artifact),
        "--transcript",
        str(log),
    ]
    record = {"instance": inst.name, "expected": inst.expected, "numltl_s": 0.0}
    start = process_time()
    try:
        code, output = _cli(argv, record)
        record["latency_s"] = process_time() - start
        verdict, bound = _verdict_line(output)
        record.update(
            verdict=verdict,
            bound=bound,
            exit=code,
            artifact_sha256=_sha256(artifact),
            transcript_sha256=_sha256(log),
        )
        if VERDICT_EXIT.get(verdict) != code:
            problem = f"exit code {code} does not match verdict {verdict}"
        elif verdict == "unknown":
            problem = None
        elif verdict != inst.expected:
            problem = f"wrong verdict {verdict}, expected {inst.expected}"
        elif verdict == REALIZABLE:
            problem = _check_simulation(artifact, inst.sim_steps, seed, record)
        else:
            problem = _check_evidence(inst, output)
    except Exception:
        record.setdefault("latency_s", process_time() - start)
        problem = traceback.format_exc(limit=3)
    record["time_s"] = process_time() - start
    return _classify(record, problem)


def run_query(query: TheoryQuery, doc, numltl) -> dict:
    record = {"instance": query.name, "expected": query.expected, "bound": None}
    start = process_time()
    try:
        if query.call == "feasibility":
            result = numltl.check_feasibility(doc.checks, doc.box)
        elif query.call == "validity":
            result = numltl.check_validity(doc.checks[0], doc.box)
        else:
            result = numltl.bounds(doc.checks[0].poly, doc.box, query.depth)
        record["latency_s"] = record["numltl_s"] = process_time() - start
        if query.call == "bounds":
            verdict, shown = "Enclosure", f"[{result[0]}, {result[1]}]"
            record["bound"] = query.depth
        else:
            verdict = type(result).__name__
            witness = getattr(result, "witness", None)
            shown = verdict if witness is None else f"{verdict} {','.join(map(str, witness))}"
        record.update(
            verdict=verdict,
            exit=QUERY_EXIT.get(verdict),
            artifact_sha256=hashlib.sha256(shown.encode()).hexdigest(),
            transcript_sha256=None,
        )
        if verdict == "Unknown":
            problem = None
        elif verdict != query.expected:
            problem = f"wrong verdict {verdict}, expected {query.expected}"
        elif query.call == "bounds":
            problem = None if query.enclosure_ok(*result) else f"unsound enclosure {shown}"
        elif verdict in ("Feasible", "Invalid") and not query.witness_ok(result.witness):
            problem = f"witness fails: {shown}"
        else:
            problem = None
    except Exception:
        record.setdefault("latency_s", process_time() - start)
        record.setdefault("numltl_s", record["latency_s"])
        problem = traceback.format_exc(limit=3)
    record["time_s"] = process_time() - start
    return _classify(record, problem)


def _classify(record: dict, problem: str | None) -> dict:
    if problem is not None:
        record.update(outcome="failed", problem=problem)
    elif record.get("verdict") in ("unknown", "Unknown"):
        record["outcome"] = "undecided"
    else:
        record["outcome"] = "decided"
    return record


def schedule(items: list, interleave: bool) -> list:
    """One pass runs every instance once.  When measuring, the quick
    instances also run between and after the slow ones: the machine's speed
    drifts over seconds, and one sample of a short instance per pass would
    catch it at a single moment."""
    quick = [item for item in items if item[0].quick]
    slow = [item for item in items if not item[0].quick]
    if not interleave or not slow:
        return items
    half = (len(slow) + 1) // 2
    return quick + slow[:half] + quick + slow[half:] + quick


def run_pass(
    prepared: Prepared,
    work_dir: Path,
    seed: int,
    interleave: bool,
    probe: SpeedProbe,
    tracer: Tracer | None = None,
) -> list[dict]:
    """Every record gets the ``scale`` that brings its times to the probe's
    nominal speed."""
    records, spans = [], []
    probe.run()
    for inst, doc in schedule(prepared.items, interleave):
        probe.run_if_due()
        if tracer is not None:
            tracer.instance = inst.name
        start = perf_counter()
        if doc is None:
            records.append(run_synth(inst, prepared, work_dir, seed))
        else:
            records.append(run_query(inst, doc, prepared.numltl))
        spans.append((start, perf_counter()))
    probe.run()
    for record, (start, end) in zip(records, spans):
        record["scale"] = probe.scale(start, end)
    return records


def timed_pass(
    prepared: Prepared,
    work_dir: Path,
    seed: int,
    interleave: bool,
    probe: SpeedProbe,
    tracer: Tracer | None = None,
):
    """(CPU seconds, wall-clock seconds, records) of one pass."""
    gc.collect()
    cpu, wall = process_time(), perf_counter()
    records = run_pass(prepared, work_dir, seed, interleave, probe, tracer)
    return process_time() - cpu, perf_counter() - wall, records


# -- metrics --------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest instances."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def by_instance(records: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for r in records:
        grouped.setdefault(r["instance"], []).append(r)
    return grouped


def outcome_counts(records: list[dict]) -> tuple[int, int, int]:
    """(attempted, decided, failed), counted per distinct instance however
    many samples of it a run took: decided when every sample gave the known
    answer, failed when any sample failed."""
    grouped = by_instance(records).values()
    decided = sum(all(r["outcome"] == "decided" for r in rs) for rs in grouped)
    failed = sum(any(r["outcome"] == "failed" for r in rs) for rs in grouped)
    return len(grouped), decided, failed


def _times(records: list[dict], scaled: bool) -> tuple[float, list[float]]:
    """Each instance's time is the median of its samples: ``wall_s`` sums
    them (one pass over every instance), and the latencies are ranked."""

    def median(rs: list[dict], key: str) -> float:
        return statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in rs)

    grouped = by_instance(records).values()
    latencies = sorted(median(rs, "latency_s") for rs in grouped)
    return sum(median(rs, "time_s") for rs in grouped), latencies


def end_to_end(setup: list[tuple[float, float]], records: list[dict]) -> tuple[dict, dict]:
    """Times are scaled to the speed probes' nominal speed; the raw ones go
    to the detail.  ``setup`` holds (set-up, import probe) CPU seconds."""
    wall, latencies = _times(records, scaled=True)
    raw_wall, raw_latencies = _times(records, scaled=False)
    tail = p90(latencies)
    attempted, decided, failed = outcome_counts(records)
    metrics = {
        "setup_s": _metric(statistics.median(s * IMPORT_NOMINAL_S / p for s, p in setup), "s"),
        "wall_s": _metric(wall, "s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_p90_s": _metric(tail, "s"),
        "decided_share": _metric(decided / attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    stats = {
        "raw_seconds": {
            "setup_s": statistics.median(s for s, _ in setup),
            "wall_s": raw_wall,
            "latency_p50_s": statistics.median(raw_latencies),
            "latency_p90_s": p90(raw_latencies),
        },
        "latency_instances": len(latencies),
        "latency_instances_beyond_p90": sum(x > tail for x in latencies),
        "samples": len(records),
        "failed_samples": sum(r["outcome"] == "failed" for r in records),
        "failed_share": failed / attempted,
        "setup_and_import_probe_s": setup,
    }
    return metrics, stats


def per_layer(tracers: list[Tracer]) -> dict:
    metrics = {}
    times = [t.layer_times() for t in tracers]
    for key in TIME_METRICS:
        metrics[key] = _metric(statistics.fmean(t[key] for t in times), "s")
    counts = tracers[0].total_counts()
    for key in COUNT_METRICS:
        metrics[key] = _metric(counts[key], "count")
    theory_s = sum(
        metrics[k]["value"] for k in ("bernstein.check_s", "bernstein.validity_s", "bernstein.bounds_s")
    )
    subboxes = counts["bernstein.subboxes"]
    checks = counts["bernstein.feasibility_checks"]
    metrics["bernstein.s_per_subbox"] = _metric(theory_s / subboxes if subboxes else 0.0, "s")
    metrics["bernstein.infeasible_ratio"] = _metric(
        counts["bernstein.infeasible"] / checks if checks else 0.0, "ratio"
    )
    metrics["trace.overhead_s"] = _metric(statistics.fmean(t.overhead for t in tracers), "s")
    return metrics


def trace_checks(tracers: list[Tracer], traced_records: list[list[dict]]) -> list[str]:
    """The traced run's self-checks: equal counts, and spans that cover
    enough of the time each instance spent inside numltl's calls."""
    problems = []
    first, second = tracers
    for name in sorted(set(first.counts) | set(second.counts)):
        if first.counts.get(name) != second.counts.get(name):
            problems.append(f"{name}: counts differ between traced runs")
    for tracer, records in zip(tracers, traced_records):
        for r in records:
            share = tracer.covered(r["instance"]) / r["numltl_s"] if r["numltl_s"] else 1.0
            if share < MIN_COVERAGE:
                problems.append(f"{r['instance']}: spans cover {share:.1%} of its time")
    return problems


def changed_between(records: list[dict], keys: tuple[str, ...]) -> list[str]:
    """Instances whose samples differ on ``keys``."""
    return [
        name
        for name, rs in by_instance(records).items()
        if len({tuple(r.get(k) for k in keys) for r in rs}) > 1
    ]


def instance_summary(records: list[dict]) -> list[dict]:
    summary = []
    for rs in by_instance(records).values():
        timings = ("latency_s", "time_s", "numltl_s", "scale")
        first = {k: v for k, v in rs[0].items() if k not in timings + ("problem",)}
        first["samples"] = len(rs)
        for key in timings:
            first[key] = [r[key] for r in rs]  # every sample, unscaled, in run order
        first["outcomes"] = dict(Counter(r["outcome"] for r in rs))
        summary.append(first)
    return summary


# -- the run ----------------------------------------------------------------------------


def machine_facts(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run(args) -> tuple[dict, dict]:
    started = perf_counter()
    setup = []
    for _ in range(SETUP_REPEATS):
        reference = import_probe()
        setup.append((setup_time(args.workload, args.seed), reference))
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = prepare(args.workload, args.seed, work_dir)
        return measure(args, prepared, work_dir, setup, SpeedProbe(), started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(
    args,
    prepared: Prepared,
    work_dir: Path,
    setup: list[tuple[float, float]],
    probe: SpeedProbe,
    started: float,
) -> tuple[dict, dict]:
    """``started`` is when the run began: set-up counts against ``--seconds``."""
    detail = {"machine": machine_facts(args)}
    cpus, elapsed, passes = [], [], []
    problems = []
    if args.trace:
        tracers = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                cpu, wall, records = timed_pass(prepared, work_dir, args.seed, False, probe, tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            cpus.append(cpu)
            elapsed.append(wall)
            passes.append(records)
        problems = trace_checks(tracers, passes)
        metrics = per_layer(tracers)
        spans = [s for i, t in enumerate(tracers, 1) for s in t.span_records(i)]
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["traced_counts"] = {k: dict(v) for k, v in tracers[0].counts.items()}
    else:
        while True:
            cpu, wall, records = timed_pass(prepared, work_dir, args.seed, True, probe)
            cpus.append(cpu)
            elapsed.append(wall)
            passes.append(records)
            if perf_counter() - started + statistics.median(elapsed) > args.seconds:
                break
    records = [r for rs in passes for r in rs]
    e2e, stats = end_to_end(setup, records)
    if not args.trace:
        metrics = e2e
    detail.update(stats)
    detail["pass_cpu_s"] = cpus
    detail["pass_elapsed_s"] = elapsed
    detail["speed_probe"] = {
        "nominal_s": NOMINAL_S,
        "median_s": statistics.median(s for _, s in probe.samples),
        "samples": len(probe.samples),
    }
    detail["changed_between_passes"] = changed_between(
        records, ("verdict", "bound", "exit", "artifact_sha256", "transcript_sha256")
    )
    detail["self_check_problems"] = problems
    detail["failures"] = [
        {"instance": r["instance"], "problem": r["problem"]} for r in records if r["outcome"] == "failed"
    ]
    detail["instances"] = instance_summary(records)
    # Failed instances are counted in ``failed``; ``correct`` is false when
    # the run itself cannot be trusted: a verdict that changes between
    # samples of the same input, or a traced run that fails its self-checks.
    attempted, _, failed = outcome_counts(records)
    result = {
        "correct": not problems and not changed_between(records, ("verdict",)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def parse_args(argv: list[str] | None = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="only prepare the inputs, then print this process's CPU seconds",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_only(args) -> None:
    """Print the CPU seconds this process took to its first timed call."""
    work_dir = OUT_DIR / f"setup-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        prepare(args.workload, args.seed, work_dir)
        print(process_time())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "numltl" / "__init__.py").is_file():
        print(f"error: no numltl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "specs" and not (ROOT / "specs").is_dir():
        print(f"error: no bundled specs under {ROOT / 'specs'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.setup_only:
            setup_only(args)
            return 0
        detail, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
