"""Benchmark instances and the answers known for them without numltl.

Every instance carries its expected verdict and the data the benchmark
needs to re-check numltl's output with its own ``Fraction`` arithmetic:
predicate evaluators for specifications, and the generated coefficients
for theory queries.  numltl only ever sees the rendered text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import product
from typing import Callable, ClassVar

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"
SAFETY = "safety"
BUCHI = "buchi"
ROUTES = (SAFETY, BUCHI)

Point = dict[str, Q]


@dataclass(frozen=True)
class SynthInstance:
    """One ``numltl synth`` run: a spec file on one route."""

    name: str
    spec_file: str
    spec_text: str
    route: str
    expected: str
    box: dict[str, tuple[Q, Q]]
    predicates: dict[str, Callable[[Point], bool]]
    requests: tuple[str, ...]  # atoms whose joint truth is the conflict
    quick: bool  # sampled before, between and after the slow instances
    sim_steps: int  # steps of the clean-simulation check of a controller


# -- bundled specs ---------------------------------------------------------------


def _threshold_predicates() -> dict[str, Callable[[Point], bool]]:
    return {
        "req1": lambda p: p["x"] + p["y"] > 3,
        "req2": lambda p: p["x"] ** 2 + p["y"] ** 2 < Q(7, 2),
    }


def _triple_predicates() -> dict[str, Callable[[Point], bool]]:
    return {
        "req1": lambda p: p["x0"] + p["x1"] + p["x2"] > 3,
        "req2": lambda p: p["x0"] ** 2 + p["x1"] ** 2 + p["x2"] ** 2 < 4,
    }


# Expected verdicts as the spec files state them: the threshold arbiter is
# the README's realizable example, the triple-sensor comment says "the
# request collision is real and no controller exists", and the error
# monitor is an arbiter whose stop line only has to wait for the operator
# the environment promises.
BUNDLED_SPECS = (
    ("threshold_arbiter", REALIZABLE, {"x": (0, 4), "y": (0, 4)}, _threshold_predicates),
    (
        "triple_sensor_arbiter",
        UNREALIZABLE,
        {"x0": (0, 4), "x1": (0, 4), "x2": (0, 4)},
        _triple_predicates,
    ),
    ("error_monitor", REALIZABLE, {}, dict),
)


def bundled_instances(spec_dir) -> list[SynthInstance]:
    """The README session: every bundled spec on both routes."""
    instances = []
    for name, expected, box, predicates in BUNDLED_SPECS:
        path = spec_dir / f"{name}.spec"
        text = path.read_text(encoding="utf-8")
        preds = predicates()
        for route in ROUTES:
            instances.append(
                SynthInstance(
                    name=f"{name}/{route}",
                    spec_file=f"{name}.spec",
                    spec_text=text,
                    route=route,
                    expected=expected,
                    box={v: (Q(lo), Q(hi)) for v, (lo, hi) in box.items()},
                    predicates=preds,
                    requests=tuple(sorted(preds)),
                    quick=name != "error_monitor",
                    sim_steps=1000,  # as in the README session
                )
            )
    return instances


# -- the n-client arbiter family ---------------------------------------------------

ARBITER_SIZES = (2, 3, 4)
SENSOR_BOX = {"x": (Q(0), Q(4)), "y": (Q(0), Q(4))}
# Bands are open intervals of s = x + y in [0, 8]: width 1, gaps of 1/2 so
# that disjointness is provable by bisection, and an overlap is 1/2 wide.
# The seed mirrors the layout (s -> 8 - s, which maps the bisection tree of
# the sensor box onto itself) and picks the overlapping pair; it does not
# change the widths or gaps, on which the theory checks' cost depends.
BAND_START, BAND_WIDTH, BAND_GAP, OVERLAP = Q(1, 2), Q(1), Q(1, 2), Q(1, 2)
SUM_MAX = Q(8)


def arbiter_bands(n: int, rng: random.Random) -> tuple[list[tuple[Q, Q]], list[tuple[Q, Q]]]:
    """Disjoint bands, and the same bands with one seeded adjacent pair
    stretched to overlap.  The stretched pair is listed first (clients 1
    and 2), the others in increasing order: which valuations are feasible,
    and with it the refinement loop's path, is then the same for every
    seed, while the band endpoints differ."""
    step = BAND_WIDTH + BAND_GAP
    bands = [(BAND_START + i * step, BAND_START + i * step + BAND_WIDTH) for i in range(n)]
    if rng.randrange(2):
        bands = [(SUM_MAX - b, SUM_MAX - a) for a, b in reversed(bands)]
    k = rng.randrange(n - 1)
    order = [k, k + 1] + [i for i in range(n) if i not in (k, k + 1)]
    disjoint = [bands[i] for i in order]
    overlapping = list(disjoint)
    overlapping[0] = (bands[k][0], bands[k + 1][0] + OVERLAP)
    return disjoint, overlapping


def bands_overlap(bands: list[tuple[Q, Q]]) -> bool:
    """Exact test: two open intervals share a point iff each starts before
    the other ends."""
    return any(
        a1 < b2 and a2 < b1
        for i, (a1, b1) in enumerate(bands)
        for a2, b2 in bands[i + 1 :]
    )


def arbiter_spec_text(bands: list[tuple[Q, Q]]) -> str:
    n = len(bands)
    lines = [
        f"## {n}-client arbiter over two shared sensors; client i requests",
        "## while x + y lies strictly inside its band.",
        "",
        "REAL x IN [0, 4]",
        "REAL y IN [0, 4]",
        "",
    ]
    for i, (a, b) in enumerate(bands, 1):
        lines.append(f"PRED req{i} := (x + y - {a}) * ({b} - x - y) > 0")
    lines += ["", "OUTPUT " + ", ".join(f"grant{i}" for i in range(1, n + 1)), ""]
    lines += [f"ALWAYS (req{i} -> NEXT (grant{i}))" for i in range(1, n + 1)]
    lines += [
        f"ALWAYS (!(grant{i} && grant{j}))"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return "\n".join(lines) + "\n"


def band_predicates(bands: list[tuple[Q, Q]]) -> dict[str, Callable[[Point], bool]]:
    def request(a: Q, b: Q) -> Callable[[Point], bool]:
        return lambda p: (p["x"] + p["y"] - a) * (b - p["x"] - p["y"]) > 0

    return {f"req{i}": request(a, b) for i, (a, b) in enumerate(bands, 1)}


def arbiter_instances(seed: int) -> list[SynthInstance]:
    """Disjoint bands are realizable (at most one client requests at a
    time, so granting it next cycle never conflicts); an overlapping pair
    is unrealizable (the environment reads a sum in the overlap and both
    grants are owed in the same cycle)."""
    rng = random.Random(f"arbiter_family:{seed}")
    instances = []
    for n in ARBITER_SIZES:
        for variant, bands in zip(("disjoint", "overlap"), arbiter_bands(n, rng)):
            expected = UNREALIZABLE if bands_overlap(bands) else REALIZABLE
            text = arbiter_spec_text(bands)
            preds = band_predicates(bands)
            for route in ROUTES:
                instances.append(
                    SynthInstance(
                        name=f"arbiter{n}-{variant}/{route}",
                        spec_file=f"arbiter{n}-{variant}.spec",
                        spec_text=text,
                        route=route,
                        expected=expected,
                        box=dict(SENSOR_BOX),
                        predicates=preds,
                        requests=tuple(preds),
                        quick=n < max(ARBITER_SIZES),
                        sim_steps=200,
                    )
                )
    return instances


# -- the theory batch ----------------------------------------------------------------

FEAS, INFEAS, VALID, INVALID = "feasible", "infeasible", "valid", "invalid"
IMPL_VALID, IMPL_INVALID, BOUNDS = "implication-valid", "implication-invalid", "bounds"
QUERY_KINDS = (FEAS, INFEAS, VALID, INVALID, IMPL_VALID, IMPL_INVALID, BOUNDS)
THEORY_ARITIES = (1, 2, 3)
QUERIES_PER_CELL = 5  # per (kind, arity): 7 * 3 * 5 = 105 queries
THEORY_BOX = (Q(-2), Q(2))
# The margin delta sets how far the search must subdivide around the
# minimum; it shrinks less in three dimensions, where each level costs more.
MARGINS = {1: Q(1, 256), 2: Q(1, 64), 3: Q(1, 16)}
BOUNDS_DEPTH = {1: 6, 2: 5, 3: 4}  # 2^(depth+1) - 1 enclosures per query
SCALES = (Q(1), Q(3, 2), Q(2))
EXPECTED_VERDICT = {
    FEAS: "Feasible",
    INFEAS: "Infeasible",
    VALID: "Valid",
    INVALID: "Invalid",
    IMPL_VALID: "Valid",
    IMPL_INVALID: "Invalid",
    BOUNDS: "Enclosure",
}


def _shifted(x: str, r: Q) -> str:
    return f"({x} - {r})" if r >= 0 else f"({x} + {-r})"


@dataclass(frozen=True)
class Bowl:
    """f(x) = sum_i c_i (x_i - r_i)^2 + k on [-2, 2]^d; its exact minimum
    over the box is k, at r."""

    c: tuple[Q, ...]
    r: tuple[Q, ...]
    k: Q

    @property
    def arity(self) -> int:
        return len(self.c)

    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.arity))

    def value(self, point: tuple[Q, ...]) -> Q:
        return sum((c * (x - r) ** 2 for c, x, r in zip(self.c, point, self.r)), self.k)

    def maximum(self) -> Q:
        """Exact maximum over the box: a convex function peaks at a vertex."""
        return max(self.value(v) for v in product(THEORY_BOX, repeat=self.arity))

    def text(self) -> str:
        terms = [f"{c}*{_shifted(x, r)}^2" for c, x, r in zip(self.c, self.names(), self.r)]
        return " + ".join(terms) + (f" + {self.k}" if self.k >= 0 else f" - {-self.k}")


@dataclass(frozen=True)
class TheoryQuery:
    """One call into the Bernstein engine, with the parameters it was built
    from.  ``call`` is ``feasibility``, ``validity`` or ``bounds``."""

    name: str
    kind: str
    call: str
    text: str
    bowl: Bowl
    delta: Q
    axis: int = 0
    rho: Q = Q(0)
    depth: int = 0
    expected: str = field(init=False)
    quick: ClassVar[bool] = True  # none is slow enough to interleave others

    def __post_init__(self) -> None:
        object.__setattr__(self, "expected", EXPECTED_VERDICT[self.kind])

    def witness_ok(self, w: tuple[Q, ...]) -> bool:
        """A Feasible witness must satisfy the query, an Invalid one must
        falsify it, and both must lie in the box."""
        lo, hi = THEORY_BOX
        if len(w) != self.bowl.arity or not all(lo <= x <= hi for x in w):
            return False
        if self.kind not in (FEAS, INVALID, IMPL_INVALID):
            return False
        return self.holds_at(w) == (self.kind == FEAS)

    def enclosure_ok(self, lo: Q, hi: Q) -> bool:
        return lo <= self.bowl.k and hi >= self.bowl.maximum()

    def holds_at(self, w: tuple[Q, ...]) -> bool:
        """Truth of the query's formula at a point, from the generated
        coefficients."""
        f, k, d = self.bowl.value(w), self.bowl.k, self.delta
        if self.kind == FEAS:
            return f < k + d and w[self.axis] >= self.bowl.r[self.axis]
        if self.kind == INFEAS:
            return f < k - d
        if self.kind == VALID:
            return f >= k - d
        if self.kind == INVALID:
            return f > k + d
        if self.kind in (IMPL_VALID, IMPL_INVALID):
            return not f < k + d or w[self.axis] < self.bowl.r[self.axis] + self.rho
        raise ValueError(f"{self.kind} has no pointwise formula")


def _random_bowl(rng: random.Random, arity: int) -> Bowl:
    # Centres are odd multiples of 1/16 inside [-19/16, 19/16]: bisection of
    # [-2, 2] reaches each of them at the same level, which keeps the cost
    # of a query independent of the seed, and every ellipse the queries
    # name stays inside the box.
    return Bowl(
        c=tuple(rng.choice(SCALES) for _ in range(arity)),
        r=tuple(Q(2 * rng.randint(-10, 9) + 1, 16) for _ in range(arity)),
        k=Q(rng.randint(-8, 8), 4),
    )


def _dyadic_radius(reach_squared: Q, factor: Q) -> Q:
    """The power of two rho nearest ``factor`` times the reach, on the far
    side: rho^2 >= factor^2 * reach^2 when factor > 1, <= when below."""
    target = factor**2 * reach_squared
    rho = Q(1)
    if factor > 1:
        while (rho / 2) ** 2 >= target:
            rho /= 2
    else:
        while rho**2 > target:
            rho /= 2
    return rho


def _query(rng: random.Random, kind: str, arity: int, index: int) -> TheoryQuery:
    bowl = _random_bowl(rng, arity)
    names = bowl.names()
    header = "".join(f"REAL {x} IN [{THEORY_BOX[0]}, {THEORY_BOX[1]}]\n" for x in names)
    f, k = bowl.text(), bowl.k
    delta = MARGINS[arity]
    axis = rng.randrange(arity)
    x = names[axis]
    r = bowl.r[axis]
    name = f"{kind}/d{arity}/{index}"
    if kind == FEAS:
        body = f"{f} < {k + delta}\n{x} >= {r}\n"
        return TheoryQuery(name, kind, "feasibility", header + body, bowl, delta, axis)
    if kind == INFEAS:
        body = f"{f} < {k - delta}\n"
        return TheoryQuery(name, kind, "feasibility", header + body, bowl, delta)
    if kind == VALID:
        body = f"{f} >= {k - delta}\n"
        return TheoryQuery(name, kind, "validity", header + body, bowl, delta)
    if kind == INVALID:
        body = f"{f} > {k + delta}\n"
        return TheoryQuery(name, kind, "validity", header + body, bowl, delta)
    if kind in (IMPL_VALID, IMPL_INVALID):
        # The premise f < k + delta is the open ellipse reaching
        # sqrt(delta / c) from r along the axis; the conclusion's slab
        # x < r + rho holds it whole when rho is twice that reach, and
        # cuts it when rho is half of it.
        factor = Q(2) if kind == IMPL_VALID else Q(1, 2)
        rho = _dyadic_radius(delta / bowl.c[axis], factor)
        body = f"{f} < {k + delta} -> {x} < {r + rho}\n"
        return TheoryQuery(name, kind, "validity", header + body, bowl, delta, axis, rho)
    depth = BOUNDS_DEPTH[arity]
    body = f"{f} >= 0\n"
    return TheoryQuery(name, kind, "bounds", header + body, bowl, delta, depth=depth)


def theory_queries(seed: int) -> list[TheoryQuery]:
    """The same kind-by-arity mix for every seed; only coefficients vary."""
    rng = random.Random(f"theory_batch:{seed}")
    return [
        _query(rng, kind, arity, i)
        for arity in THEORY_ARITIES
        for kind in QUERY_KINDS
        for i in range(QUERIES_PER_CELL)
    ]
