"""Tests of the benchmark itself: its known answers, its checks, its tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numltl  # noqa: E402
import pytest  # noqa: E402
from numltl import cli  # noqa: E402

import run  # noqa: E402
from speed import NOMINAL_S, SpeedProbe, import_probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BOUNDS,
    FEAS,
    IMPL_INVALID,
    IMPL_VALID,
    INFEAS,
    INVALID,
    SENSOR_BOX,
    THEORY_BOX,
    VALID,
    arbiter_bands,
    arbiter_instances,
    band_predicates,
    bands_overlap,
    bundled_instances,
    theory_queries,
)

SEEDS = (1, 2, 3)


def _grid(lo: Q, hi: Q, step: Q) -> list[Q]:
    count = int((hi - lo) / step)
    return [lo + i * step for i in range(count + 1)]


# -- known answers against an exact grid oracle -----------------------------------


def _sensor_grid() -> list[dict[str, Q]]:
    (lo, hi), step = SENSOR_BOX["x"], Q(1, 8)
    return [{"x": x, "y": y} for x, y in product(_grid(lo, hi, step), repeat=2)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_arbiter_answers_agree_with_grid_oracle(seed, n):
    rng = random.Random(seed)
    # Endpoints lie on the 1/4 grid and overlaps are 1/2 wide, so a shared
    # point of two bands always has a representative x + y on the 1/8 grid.
    points = _sensor_grid()
    for bands in arbiter_bands(n, rng):
        preds = band_predicates(bands)
        valuations = {tuple(p(pt) for p in preds.values()) for pt in points}
        collision = any(sum(v) >= 2 for v in valuations)
        assert collision == bands_overlap(bands)
        # each client alone, and nobody, can be observed
        assert (False,) * n in valuations
        for i in range(n):
            assert any(v[i] and sum(v) == 1 for v in valuations)


def _query_grid(query) -> list[tuple[Q, ...]]:
    step = Q(1, 16) if query.rho == 0 else min(Q(1, 16), query.rho)
    axis = _grid(*THEORY_BOX, step)
    return list(product(axis, repeat=query.bowl.arity))


def _oracle_verdict(query) -> str:
    points = _query_grid(query)
    if query.kind == BOUNDS:
        values = [query.bowl.value(p) for p in points]
        assert min(values) == query.bowl.k
        assert max(values) == query.bowl.maximum()
        return "Enclosure"
    holds = [query.holds_at(p) for p in points]
    if query.kind in (FEAS, INFEAS):
        return "Feasible" if any(holds) else "Infeasible"
    return "Valid" if all(holds) else "Invalid"


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_theory_answers_agree_with_grid_oracle(seed):
    # A grid point proves Feasible and Invalid; for Infeasible and Valid the
    # grid can only fail to contradict the construction.
    for query in theory_queries(seed):
        if query.bowl.arity <= 2:
            assert _oracle_verdict(query) == query.expected, query.name


def test_second_seed_gives_same_verdict_mix():
    def mix(seed):
        kinds = Counter((q.kind, q.bowl.arity, q.expected) for q in theory_queries(seed))
        arbiters = Counter((i.name, i.expected) for i in arbiter_instances(seed))
        return kinds, arbiters

    assert mix(1) == mix(2)
    assert len(theory_queries(1)) >= 100


@pytest.mark.parametrize("seed", (1, 2))
def test_numltl_answers_small_instances_as_constructed(seed, tmp_path):
    verdicts = Counter()
    for query in theory_queries(seed):
        if query.bowl.arity == 1:
            doc = numltl.parse_constraints(query.text)
            record = run.run_query(query, doc, numltl)
            assert record["outcome"] == "decided", record
            verdicts[record["verdict"]] += 1
    assert verdicts == {"Feasible": 5, "Infeasible": 5, "Valid": 10, "Invalid": 10, "Enclosure": 5}
    small = [i for i in arbiter_instances(seed) if i.name.startswith("arbiter2-")]
    prepared = run.Prepared(numltl, [(i, None) for i in small], {})
    for inst in small:
        path = tmp_path / inst.spec_file
        path.write_text(inst.spec_text, encoding="utf-8")
        prepared.spec_paths[inst.spec_file] = path
    records = run.run_pass(prepared, tmp_path, seed, False, SpeedProbe())
    assert all(r["time_s"] >= r["latency_s"] > 0 and r["scale"] > 0 for r in records)
    assert all(r["time_s"] >= r["numltl_s"] > 0 for r in records)
    assert [r["outcome"] for r in records] == ["decided"] * 4
    assert [r["verdict"] for r in records] == ["realizable"] * 2 + ["unrealizable"] * 2


def test_bundled_specs_are_all_present():
    names = [i.name for i in bundled_instances(ROOT / "specs")]
    assert len(names) == 6 and len(set(names)) == 6


def test_schedule_samples_quick_instances_across_the_pass():
    items = [(i, None) for i in bundled_instances(ROOT / "specs")]
    plain = [i.name for i, _ in run.schedule(items, interleave=False)]
    assert plain == [i.name for i, _ in items]
    mixed = [i.name for i, _ in run.schedule(items, interleave=True)]
    assert Counter(mixed) == {n: 1 if n.startswith("error_monitor") else 3 for n in plain}
    assert mixed[4] == "error_monitor/safety" and mixed[9] == "error_monitor/buchi"
    queries = [(q, None) for q in theory_queries(1)]
    assert run.schedule(queries, interleave=True) == queries


def test_outcomes_are_counted_per_instance_not_per_sample():
    def record(name, outcome):
        return {"instance": name, "outcome": outcome}

    # three passes: ``a`` fails every time, ``b`` once, ``c`` never
    records = [record("a", "failed"), record("b", "decided"), record("c", "decided")] * 2
    records += [record("a", "failed"), record("b", "failed"), record("c", "decided")]
    assert run.outcome_counts(records) == (3, 1, 2)
    assert run.outcome_counts(records[:3]) == (3, 2, 1)


def test_setup_time_is_a_fresh_process_cpu_time():
    first, second = (run.setup_time("theory_batch", 1) for _ in range(2))
    # importing numltl alone takes well over a millisecond of CPU
    assert 0.001 < first < 60 and 0.001 < second < 60
    assert not list((ROOT / ".bench_out").glob("setup-*"))


# -- the independent checks are not vacuous ---------------------------------------


def test_witness_checks_reject_wrong_points():
    queries = {q.kind: q for q in theory_queries(1) if q.bowl.arity == 2}
    far = (THEORY_BOX[1], THEORY_BOX[1])
    for kind in (FEAS, INVALID, IMPL_INVALID):
        q = queries[kind]
        assert not q.witness_ok(far)
        assert not q.witness_ok((THEORY_BOX[1] + 1, Q(0)))
    assert queries[FEAS].witness_ok(queries[FEAS].bowl.r)
    assert queries[INVALID].witness_ok(queries[INVALID].bowl.r)
    b = queries[BOUNDS]
    assert b.enclosure_ok(b.bowl.k, b.bowl.maximum())
    assert not b.enclosure_ok(b.bowl.k + Q(1, 1024), b.bowl.maximum())
    assert not b.enclosure_ok(b.bowl.k, b.bowl.maximum() - Q(1, 1024))
    assert {INFEAS, VALID, IMPL_VALID} <= set(queries)


def test_evidence_check_reevaluates_witnesses():
    inst = next(i for i in arbiter_instances(1) if i.name == "arbiter2-overlap/safety")
    preds = inst.predicates
    both = next(p for p in _sensor_grid() if preds["req1"](p) and preds["req2"](p))
    good = (
        "evidence (every counter-strategy input is feasible):\n"
        "  req1=1,req2=1\n"
        f"    witness x={both['x']} (~0), y={both['y']} (~0)\n"
    )
    assert run._check_evidence(inst, good) is None
    lie = good.replace(f"x={both['x']} ", "x=0 ").replace(f"y={both['y']} ", "y=0 ")
    assert "does not give" in run._check_evidence(inst, lie)
    assert run._check_evidence(inst, "verdict: unrealizable\n") == "no evidence printed"


def test_speed_probe_scales_by_the_probes_near_an_interval():
    probe = SpeedProbe()
    probe.samples = [(0.0, 0.01), (10.0, 0.04), (12.0, 0.02), (20.0, 0.04)]
    assert probe.scale(0.5, 1.0) == pytest.approx(NOMINAL_S / 0.01)
    assert probe.scale(11.0, 19.0) == pytest.approx(NOMINAL_S / 0.04)
    probe.run()
    assert probe.samples[-1][1] > 0
    assert 0 < import_probe() < 60


# -- the tracer ---------------------------------------------------------------------


def test_tracer_counts_spans_and_restores_originals():
    original = numltl.check_feasibility
    doc = numltl.parse_constraints("REAL t IN [0, 2]\nt^2 > 1\n3*t < 4\n")
    tracer = Tracer()
    tracer.install()
    try:
        assert numltl.check_feasibility is not original
        assert sys.modules["numltl.cegar"].check_feasibility is numltl.check_feasibility
        tracer.instance = "feasibility"
        verdict = numltl.check_feasibility(doc.checks, doc.box)
        tracer.instance = "bounds"
        numltl.bounds(doc.checks[0].poly, doc.box, 2)
    finally:
        tracer.uninstall()
    assert numltl.check_feasibility is original
    assert sys.modules["numltl.bernstein"].check_feasibility is original
    stats = numltl.SearchStats()
    assert original(doc.checks, doc.box, numltl.DEFAULT_DEPTH, stats) == verdict
    assert tracer.counts["feasibility"]["bernstein.subboxes"] == stats.explored
    # bounds recurses through the wrapped name: one span, 1 + 2 + 4 boxes
    assert tracer.counts["bounds"]["bernstein.subboxes"] == 7
    assert [s.layer for s in tracer.spans] == ["bernstein.check", "bernstein.bounds"]
    assert all(s.parent is None and s.end > s.start for s in tracer.spans)


def test_tracer_nests_cli_spans(tmp_path):
    spec = ROOT / "specs" / "threshold_arbiter.spec"
    tracer = Tracer()
    tracer.install()
    try:
        tracer.instance = "synth"
        code, _ = run._cli(["synth", str(spec), "--out", str(tmp_path / "a.ctrl")])
    finally:
        tracer.uninstall()
    assert code == 0
    layers = Counter(s.layer for s in tracer.spans)
    assert layers["cli"] == 1 and layers["cegar"] == 1
    assert layers["games.solve"] == tracer.counts["synth"]["games.solves"] == 2
    assert tracer.counts["synth"]["cegar.theory_checks"] == 1
    root = tracer.spans[0]
    assert root.layer == "cli" and root.parent is None
    times = tracer.layer_times()
    assert sum(times.values()) == pytest.approx(root.end - root.start)
    assert 0 < tracer.overhead < (root.end - root.start) / 10
    assert cli.main.__module__ == "numltl.cli" and not hasattr(cli.main, "__wrapped__")


def test_trace_checks_pass_on_the_shortest_queries(tmp_path):
    """Sub-millisecond queries: the benchmark's own answer checks are not
    traced, so coverage is taken over the time spent inside numltl."""
    queries = [q for q in theory_queries(1) if q.bowl.arity == 1]
    items = [(q, numltl.parse_constraints(q.text)) for q in queries]
    prepared = run.Prepared(numltl, items, {})
    tracers, passes = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run.run_pass(prepared, tmp_path, 1, False, SpeedProbe(), tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    assert run.trace_checks(tracers, passes) == []
    assert all(r["numltl_s"] == r["latency_s"] for rs in passes for r in rs)
