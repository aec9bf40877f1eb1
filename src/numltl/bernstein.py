"""Exact-arithmetic polynomial engine with Bernstein-form range enclosures.

Everything here is exact: rationals are ``fractions.Fraction``s, and the
search's tensors are integers over implicit denominators.  A polynomial on
a box is re-expressed in the Bernstein basis of that box, and the min/max
basis coefficients give a certified enclosure of its range.  On top of that
sit a branch-and-bound feasibility check (conjunctions of polynomial
inequalities) and a validity check (a single inequality, or an implication
between two, holding everywhere on a box).

Conversion is dense and per dimension.  Once per search (or ``bounds``
call) a polynomial's power coefficients are laid out as a flat row-major
tensor at its degree vector N, entry a_I at offset sum_d I_d * stride_d,
with any zero-width dimension already fixed at its endpoint.  On a box
[lo, lo + w] each dimension d then takes one (N_d+1) x (N_d+1) rational
matrix along every fiber of the tensor.  The matrix folds the substitution
x_d = lo_d + w_d t_d into the change to the Bernstein basis of degree N_d
(Garloff 1986; Ray & Nataraj 2009).  A dimension of width zero gets rows
that all read the polynomial at lo_d, so the tensor is constant along it.
A corner coefficient (every J_d at 0 or N_d) is the polynomial's value at
the matching box vertex, so the search reads its vertex samples from the
corner entries.

The search converts only the root box that way, then scales the result to
integers over one positive common denominator.  Every subbox's tensor
comes from its parent's by one de Casteljau pass at t = 1/2 along the
dimension the parent was split on (Garloff 1986; Muñoz & Narkawicz, JAR
2013), and that pass yields both halves.  The pass adds neighbours without
halving, so a split along dimension d multiplies the halves' implicit
denominator by 2^N_d and the tensors stay integers.  Bernstein
coefficients of a fixed degree on a box are unique, so the halves, divided
by their denominators, equal direct conversion exactly.  The search only
compares enclosures, corner values and centre values with 0, which a
positive denominator leaves unchanged, so no ``Fraction`` arithmetic runs
per subbox.  The centre's value is read off the tensor too: the Bernstein
basis of degree N at t = 1/2 is C(N, j) / 2^N, so the sum of the entries
weighted by prod_d C(N_d, J_d) is that value times the denominator and
2^(sum_d N_d).  ``bounds`` still converts every subbox directly in
``Fraction``s (see its docstring for why).

Bisection always splits the widest dimension, lowest index first on ties,
and subboxes are explored depth-first lower-half first, so verdicts and
witnesses are deterministic.  Every surviving subbox samples its centre,
then its vertices in ``Box.vertices`` order.

An ``EnclosureMemo`` holds that work for one box: the layouts, corner
offsets and centre weights of the polynomials searched on it, keyed by
content (arity and sorted terms, never object identity), each (polynomial,
subbox) enclosure ``(min, max)`` with its corner values and centre sum, and
the tensors of the search frontier.  A node's tensor is kept until its
children's have been computed, so any later search on the box can
subdivide where an earlier one stopped.  Bisection visits the same subboxes
in every search on the box, so a memo passed to successive
``check_feasibility`` calls computes each polynomial's tensor on a subbox
at most once.  The refinement loop keeps one memo per side box for a whole
run (in its ``CheckedCache``); every other call gets a fresh memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod
from operator import mul
from typing import Iterator, Union

Exponents = tuple[int, ...]
Point = tuple[Fraction, ...]

RELATIONS = ("<", "<=", ">", ">=")

# relation on p flipped when the constraint is negated
NEGATED_RELATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class PolynomialError(ValueError):
    pass


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    msg = f"not an exact rational: {value!r}"
    raise PolynomialError(msg)


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial as a map from exponent vectors to coefficients.

    ``terms`` never stores a zero coefficient and every exponent vector has
    length ``arity``.
    """

    arity: int
    terms: dict[Exponents, Fraction]

    def __post_init__(self) -> None:
        cleaned: dict[Exponents, Fraction] = {}
        for expo, coeff in self.terms.items():
            if len(expo) != self.arity:
                msg = f"exponent vector {expo} does not match arity {self.arity}"
                raise PolynomialError(msg)
            if expo and min(expo) < 0:
                msg = f"negative exponent in {expo}"
                raise PolynomialError(msg)
            c = coeff if isinstance(coeff, Fraction) else _as_fraction(coeff)
            if c != 0:
                cleaned[tuple(expo)] = c
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "Polynomial":
        return Polynomial(arity, {})

    @staticmethod
    def constant(arity: int, value) -> "Polynomial":
        return Polynomial(arity, {(0,) * arity: _as_fraction(value)})

    @staticmethod
    def variable(arity: int, index: int) -> "Polynomial":
        if not 0 <= index < arity:
            msg = f"variable index {index} out of range for arity {arity}"
            raise PolynomialError(msg)
        expo = tuple(1 if i == index else 0 for i in range(arity))
        return Polynomial(arity, {expo: Fraction(1)})

    # -- ring operations ------------------------------------------------

    def _check_same_arity(self, other: "Polynomial") -> None:
        if self.arity != other.arity:
            msg = f"arity mismatch: {self.arity} vs {other.arity}"
            raise PolynomialError(msg)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_arity(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return Polynomial(self.arity, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_arity(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return Polynomial(self.arity, terms)

    def scale(self, factor) -> "Polynomial":
        f = _as_fraction(factor)
        return Polynomial(self.arity, {e: c * f for e, c in self.terms.items()})

    def power(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise PolynomialError("negative polynomial power")
        result = Polynomial.constant(self.arity, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_vector(self) -> Exponents:
        if not self.terms:
            return (0,) * self.arity
        return tuple(
            max(expo[i] for expo in self.terms) for i in range(self.arity)
        )

    def variables_used(self) -> tuple[int, ...]:
        used = set()
        for expo in self.terms:
            for i, e in enumerate(expo):
                if e > 0:
                    used.add(i)
        return tuple(sorted(used))

    def evaluate(self, point: Point) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.arity:
            msg = f"point arity {len(point)} does not match {self.arity}"
            raise PolynomialError(msg)
        pt = tuple(_as_fraction(x) for x in point)
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for x, e in zip(pt, expo):
                if e:
                    term *= x ** e
            total += term
        return total

    def affine_substitute(self, offsets, scales) -> "Polynomial":
        """Substitute x_i = offsets[i] + scales[i] * t_i, exactly."""
        offs = [_as_fraction(o) for o in offsets]
        scls = [_as_fraction(s) for s in scales]
        if len(offs) != self.arity or len(scls) != self.arity:
            raise PolynomialError("affine substitution arity mismatch")
        result = Polynomial.zero(self.arity)
        for expo, coeff in self.terms.items():
            term = Polynomial.constant(self.arity, coeff)
            for i, e in enumerate(expo):
                if e == 0:
                    continue
                factor = Polynomial(
                    self.arity,
                    {
                        (0,) * self.arity: offs[i],
                        tuple(1 if j == i else 0 for j in range(self.arity)): scls[i],
                    },
                )
                term = term * factor.power(e)
            result = result + term
        return result


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with rational bounds, lower <= upper per dimension."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        fixed = []
        for lo, hi in self.intervals:
            lo, hi = _as_fraction(lo), _as_fraction(hi)
            if lo > hi:
                msg = f"empty interval [{lo}, {hi}]"
                raise PolynomialError(msg)
            fixed.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(fixed))

    @staticmethod
    def of(*bounds) -> "Box":
        return Box(tuple((lo, hi) for lo, hi in bounds))

    @property
    def arity(self) -> int:
        return len(self.intervals)

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in self.intervals)

    def widest_dimension(self) -> int:
        widths = self.widths()
        best = max(widths)
        return widths.index(best)

    def is_point(self) -> bool:
        return all(lo == hi for lo, hi in self.intervals)

    def center(self) -> Point:
        return tuple((lo + hi) / 2 for lo, hi in self.intervals)

    def vertex(self, mask: int) -> Point:
        """Corner whose dimension i sits at its high end when bit n-1-i of
        ``mask`` is set (n = arity)."""
        n = self.arity
        return tuple(
            self.intervals[i][1] if mask >> (n - 1 - i) & 1 else self.intervals[i][0]
            for i in range(n)
        )

    def vertices(self) -> Iterator[Point]:
        """Corners in lexicographic order (low endpoint first per dimension)."""
        return map(self.vertex, range(1 << self.arity))

    def split(self, dim: int) -> tuple["Box", "Box"]:
        lo, hi = self.intervals[dim]
        mid = (lo + hi) / 2
        lower = list(self.intervals)
        upper = list(self.intervals)
        lower[dim] = (lo, mid)
        upper[dim] = (mid, hi)
        return Box(tuple(lower)), Box(tuple(upper))


@dataclass(frozen=True)
class PolyConstraint:
    """Inequality ``p(x) relation 0`` with relation in <, <=, >, >=."""

    poly: Polynomial
    relation: str

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            msg = f"unknown relation {self.relation!r}"
            raise PolynomialError(msg)

    def negated(self) -> "PolyConstraint":
        return PolyConstraint(self.poly, NEGATED_RELATION[self.relation])

    def holds_at(self, point: Point) -> bool:
        return satisfies(self.relation, self.poly.evaluate(point))


def satisfies(relation: str, value: Fraction | int) -> bool:
    """Whether ``value relation 0`` holds."""
    if relation == "<":
        return value < 0
    if relation == "<=":
        return value <= 0
    if relation == ">":
        return value > 0
    return value >= 0


@dataclass(frozen=True)
class ConstraintImplication:
    """Pointwise implication ``premise -> conclusion`` between constraints."""

    premise: PolyConstraint
    conclusion: PolyConstraint

    def holds_at(self, point: Point) -> bool:
        return not self.premise.holds_at(point) or self.conclusion.holds_at(point)


ValidityFormula = Union[PolyConstraint, ConstraintImplication]


_ZERO = Fraction(0)


def _strides(degree: Exponents) -> tuple[int, ...]:
    """Row-major strides of a tensor with ``N_d + 1`` entries along dimension d."""
    strides = []
    step = 1
    for n in reversed(degree):
        strides.append(step)
        step *= n + 1
    return tuple(reversed(strides))


def _power_tensor(poly: Polynomial, degree: Exponents) -> list[Fraction]:
    """Power coefficients of ``poly`` as a flat row-major tensor at ``degree``."""
    strides = _strides(degree)
    flat = [_ZERO] * prod(n + 1 for n in degree)
    for expo, coeff in poly.terms.items():
        flat[sum(e * s for e, s in zip(expo, strides))] = coeff
    return flat


def _power_layout(poly: Polynomial, box: Box) -> tuple[Exponents, list[Fraction]]:
    """Degree vector and power tensor of ``poly`` with the zero-width
    dimensions of ``box`` fixed at their endpoints.

    Bisection never changes a zero-width dimension, and an affine map with
    nonzero scales keeps the degree in every other one, so this degree
    vector is that of ``poly`` mapped onto every subbox ``sub`` by
    x_i = lo_i + w_i t_i.
    """
    if any(lo == hi for lo, hi in box.intervals):
        offsets = [lo if lo == hi else _ZERO for lo, hi in box.intervals]
        scales = [0 if lo == hi else 1 for lo, hi in box.intervals]
        poly = poly.affine_substitute(offsets, scales)
    degree = poly.degree_vector()
    return degree, _power_tensor(poly, degree)


def _shift_convert_matrix(n: int, lo: Fraction, hi: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Rows M_j of the map from power coefficients a_i in x to Bernstein
    coefficients b_j = sum_i M_ji a_i of degree ``n`` over [lo, hi].

    With x = lo + w t, w = hi - lo, the power coefficient of t^k is
    c_k = sum_{i >= k} C(i, k) lo^(i-k) w^k a_i, and b_j = sum_{k <= j}
    C(j, k) / C(n, k) c_k, so M_ji = sum_{k <= min(i, j)} C(j, k) C(i, k)
    lo^(i-k) w^k / C(n, k).
    """
    width = hi - lo
    lo_pow = [lo**e for e in range(n + 1)]
    w_pow = [width**e for e in range(n + 1)]
    return tuple(
        tuple(
            sum(
                (
                    Fraction(comb(j, k) * comb(i, k), comb(n, k)) * lo_pow[i - k] * w_pow[k]
                    for k in range(min(i, j) + 1)
                ),
                _ZERO,
            )
            for i in range(n + 1)
        )
        for j in range(n + 1)
    )


def _bernstein_tensor(
    power: list[Fraction],
    degree: Exponents,
    intervals: tuple[tuple[Fraction, Fraction], ...],
) -> list[Fraction]:
    """Bernstein coefficients over ``intervals`` of the polynomial whose
    power tensor at ``degree`` is ``power``, in the same flat layout.

    Dimension by dimension, every fiber (the N_d + 1 entries that differ
    only in J_d) is multiplied by that dimension's shift-and-convert matrix;
    dimensions with the same ``(N_d, lo_d, hi_d)`` share one matrix.
    """
    matrices = {}
    flat = power
    size = len(flat)
    block = size  # entries spanned by one step of the previous dimension
    for n, (lo, hi) in zip(degree, intervals):
        stride = block // (n + 1)
        if n:
            key = (n, lo, hi)
            rows = matrices.get(key)
            if rows is None:
                rows = matrices[key] = _shift_convert_matrix(n, lo, hi)
            out = [_ZERO] * size
            for start in range(0, size, block):
                for base in range(start, start + stride):
                    # the fiber's nonzero entries a_i with their positions i
                    fiber = [
                        (i, a) for i, a in enumerate(flat[base : base + block : stride]) if a
                    ]
                    if not fiber:
                        continue
                    at = base
                    for row in rows:
                        # column 0 is all ones (a constant's coefficients all
                        # equal it), so those products are skipped
                        first, *rest = [a if (m := row[i]) == 1 else m * a for i, a in fiber]
                        out[at] = sum(rest, first)
                        at += stride
            flat = out
        block = stride
    return flat


def _subdivide(tensor: list[int], degree: Exponents, dim: int) -> tuple[list[int], list[int]]:
    """Integer Bernstein tensors on the lower and upper halves of the box,
    split at the midpoint of dimension ``dim``, from the integer tensor on
    the whole box.

    Along every fiber of ``dim``, de Casteljau's algorithm at t = 1/2
    averages neighbours N_d times; the first entry of each round is the
    lower half's coefficient, the last the upper half's.  Here a round adds
    neighbours without halving, so round k's entries carry a factor 2^k,
    and shifting them left by N_d - k gives every entry of both halves the
    factor 2^N_d: each half's implicit denominator is its parent's times
    2^N_d.  Along a dimension of degree 0 both halves are the tensor itself.
    """
    n = degree[dim]
    if not n:
        return tensor, tensor
    stride = _strides(degree)[dim]
    block = stride * (n + 1)
    size = len(tensor)
    lower = [0] * size
    upper = [0] * size
    for start in range(0, size, block):
        for base in range(start, start + stride):
            row = tensor[base : base + block : stride]
            lower[base] = row[0] << n
            upper[base + n * stride] = row[n] << n
            for k in range(1, n + 1):
                row = [a + b for a, b in zip(row, row[1:])]
                lower[base + k * stride] = row[0] << (n - k)
                upper[base + (n - k) * stride] = row[-1] << (n - k)
    return lower, upper


def _scaled(tensor: list[Fraction]) -> tuple[list[int], int]:
    """``tensor`` times its entries' least common denominator, which comes
    second: integers with the same signs."""
    den = lcm(*(b.denominator for b in tensor))
    return [b.numerator * (den // b.denominator) for b in tensor], den


def _centre_weights(degree: Exponents) -> list[int]:
    """prod_d C(N_d, J_d) per entry J in the flat layout: the Bernstein basis
    at the centre of the box, each value times 2^(sum_d N_d)."""
    return [
        prod(map(comb, degree, index)) for index in product(*(range(n + 1) for n in degree))
    ]


def _corner_offsets(degree: Exponents) -> tuple[int, ...]:
    """Flat offset of the corner coefficient of each ``Box.vertex(mask)``."""
    arity = len(degree)
    highs = [n * s for n, s in zip(degree, _strides(degree))]
    return tuple(
        sum(h for i, h in enumerate(highs) if mask >> (arity - 1 - i) & 1)
        for mask in range(1 << arity)
    )


def bounds(poly: Polynomial, box: Box, depth: int = 0) -> tuple[Fraction, Fraction]:
    """Certified range enclosure, tightened by recursive bisection.

    ``depth`` counts bisections along any root-to-leaf path; depth 0 is the
    plain Bernstein enclosure on ``box``.  The result is the min/max of the
    leaf enclosures, hence sound at every depth and monotone in ``depth``.

    Unlike the search, this converts every subbox directly in ``Fraction``s.
    It is left so on purpose: it is about half of a ``theory_batch``
    benchmark pass, and the benchmark harness keeps every pass's records, so
    a faster pass fits more passes in the run and raises that workload's
    ``peak_rss_mb`` past its bound.
    """
    if depth < 0:
        raise PolynomialError("negative depth")
    if poly.arity != box.arity:
        raise PolynomialError("polynomial and box arity differ")
    degree, power = _power_layout(poly, box)
    tensor = _bernstein_tensor(power, degree, box.intervals)
    lo, hi = min(tensor), max(tensor)
    if depth == 0 or box.is_point() or lo == hi:
        return lo, hi
    left, right = box.split(box.widest_dimension())
    lo1, hi1 = bounds(poly, left, depth - 1)
    lo2, hi2 = bounds(poly, right, depth - 1)
    return min(lo1, lo2), max(hi1, hi2)


# -- feasibility / validity verdicts ------------------------------------


@dataclass(frozen=True)
class Feasible:
    witness: Point


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str


FeasibilityVerdict = Union[Feasible, Infeasible, Unknown]


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Invalid:
    witness: Point


ValidityVerdict = Union[Valid, Invalid, Unknown]


@dataclass
class SearchStats:
    """Mutable tally of the branch-and-prune search effort: subboxes
    explored, and (polynomial, subbox) Bernstein tensors computed, by
    conversion at the root or as a half of a subdivision.  A memo's
    enclosures cost no tensor."""

    explored: int = 0
    tensors: int = 0

DEFAULT_DEPTH = 24


def _refuted_on(c: PolyConstraint, lo: Fraction, hi: Fraction) -> bool:
    """Enclosure certifies the constraint fails everywhere on the subbox."""
    if c.relation == ">":
        return hi <= 0
    if c.relation == ">=":
        return hi < 0
    if c.relation == "<":
        return lo >= 0
    return lo > 0


@dataclass
class _PolyOnBox:
    """A polynomial's layout on a memo's box, its enclosures so far and the
    tensors on the frontier of its subdivision.

    Tensors are integers over an implicit positive denominator: the root's
    is ``denominator``, and a half's is its parent's times 2^N_d for the
    dimension d split.  Only signs are read from them, and the denominator
    keeps every sign.
    """

    degree: Exponents
    power: list[Fraction]
    corners: tuple[int, ...]
    weights: list[int]  # _centre_weights(degree)
    # subbox node -> (min, max, corner values, centre sum) of the tensor
    # there; the centre sum is the value at the subbox's centre times the
    # node's denominator and 2^(sum_d N_d)
    enclosures: dict[int, tuple[int, int, list[int], int]] = field(default_factory=dict)
    # subbox node -> tensor, until the node's children's are computed
    tensors: dict[int, list[int]] = field(default_factory=dict)
    denominator: int = 1  # the root tensor's, once it is computed

    def tensor(self, node: int, split: int, box: Box, stats: SearchStats | None) -> list[int]:
        """The tensor on ``node``: the root's by conversion over ``box``,
        any other node's by subdividing its parent's along ``split``."""
        tensor = self.tensors.get(node)
        if tensor is not None:
            return tensor
        if node == 1:
            tensor, self.denominator = _scaled(
                _bernstein_tensor(self.power, self.degree, box.intervals)
            )
            self.tensors[1] = tensor
        else:
            lower, upper = _subdivide(self.tensors.pop(node // 2), self.degree, split)
            self.tensors[node & ~1] = lower
            self.tensors[node | 1] = upper
            tensor = upper if node & 1 else lower
        if stats is not None:
            stats.tensors += 1 if node == 1 else 2
        return tensor


class EnclosureMemo:
    """Exact work the searches on one box share.

    Holds each polynomial's power layout, corner offsets and centre weights,
    keyed by its content; per (polynomial, subbox) the enclosure
    ``(min, max)`` with the corner values and the centre sum, all scaled by
    the subbox's positive denominator; and the tensor of each subbox whose
    children's tensors are not computed yet.  A subbox is named by its node
    in the bisection tree of ``box`` (the root is 1, the lower and upper
    halves of node n are 2n and 2n + 1), which the deterministic split makes
    a name for one subbox.  Refutation applies each constraint's own
    relation to the stored enclosure, so one entry serves a predicate and
    its negation.

    Every subbox at one level of the tree has the same widths, so one
    dimension is split per level: ``splits[k]`` is the one split at level
    k, for the levels any search has bisected so far.
    """

    def __init__(self, box: Box) -> None:
        self.box = box
        # keyed by (arity, sorted terms): a polynomial's identity by content
        self.polys: dict[tuple, _PolyOnBox] = {}
        self.splits: list[int] = []
        self._widths = list(box.widths())  # those of the subboxes at level len(splits)

    def on_box(self, poly: Polynomial) -> _PolyOnBox:
        key = (poly.arity, tuple(sorted(poly.terms.items())))
        entry = self.polys.get(key)
        if entry is None:
            degree, power = _power_layout(poly, self.box)
            entry = _PolyOnBox(degree, power, _corner_offsets(degree), _centre_weights(degree))
            self.polys[key] = entry
        return entry

    def split_next_level(self) -> None:
        """Append the widest dimension, lowest index first on ties, of the
        subboxes at level ``len(splits)`` to ``splits``."""
        widths = self._widths
        dim = widths.index(max(widths))
        widths[dim] /= 2
        self.splits.append(dim)

    def subbox(self, node: int) -> Box:
        """The subbox named ``node``."""
        sub = self.box
        for level, bit in enumerate(bin(node)[3:]):
            sub = sub.split(self.splits[level])[bit == "1"]
        return sub


def _search(
    constraints: tuple[PolyConstraint, ...],
    box: Box,
    depth: int,
    stats: SearchStats | None,
    memo: EnclosureMemo | None = None,
) -> FeasibilityVerdict:
    """Branch-and-prune search behind both decision procedures.

    Kept private so that ``check_validity`` does not go through the public
    ``check_feasibility`` name, which callers may wrap to count searches.
    Subboxes are tree nodes and every test is a sign test on the memo's
    integers; a ``Box`` is built only for the witness returned.
    """
    if depth < 0:
        raise PolynomialError("negative depth")
    for c in constraints:
        if c.poly.arity != box.arity:
            raise PolynomialError("constraint arity does not match box")
    if memo is None:
        memo = EnclosureMemo(box)
    elif memo.box != box:
        raise PolynomialError("enclosure memo belongs to another box")
    polys = [memo.on_box(c.poly) for c in constraints]
    relations = [c.relation for c in constraints]
    splits = memo.splits
    masks = range(1 << box.arity)
    # bisection never narrows a nonzero width to zero
    bisectable = not box.is_point()
    ran_out = False
    stack = [1]
    while stack:
        node = stack.pop()
        level = node.bit_length() - 1
        if stats is not None:
            stats.explored += 1
        split = splits[level - 1] if level else -1
        enclosures = []
        for c, p in zip(constraints, polys):
            enclosure = p.enclosures.get(node)
            if enclosure is None:
                tensor = p.tensor(node, split, box, stats)
                enclosure = p.enclosures[node] = (
                    min(tensor),
                    max(tensor),
                    [tensor[o] for o in p.corners],
                    sum(map(mul, tensor, p.weights)),
                )
            if _refuted_on(c, enclosure[0], enclosure[1]):
                break
            enclosures.append(enclosure)
        if len(enclosures) < len(constraints):
            continue
        if all(map(satisfies, relations, [e[3] for e in enclosures])):
            return Feasible(memo.subbox(node).center())
        for mask in masks:
            if all(map(satisfies, relations, [e[2][mask] for e in enclosures])):
                return Feasible(memo.subbox(node).vertex(mask))
        if level >= depth or not bisectable:
            ran_out = True
            continue
        if level == len(splits):
            memo.split_next_level()
        stack.append(2 * node + 1)
        stack.append(2 * node)
    if ran_out:
        return Unknown("depth exhausted")
    return Infeasible()


def check_feasibility(
    constraints: list[PolyConstraint] | tuple[PolyConstraint, ...],
    box: Box,
    depth: int = DEFAULT_DEPTH,
    stats: SearchStats | None = None,
    *,
    memo: EnclosureMemo | None = None,
) -> FeasibilityVerdict:
    """Search for a rational point of ``box`` satisfying every constraint.

    Subboxes where some constraint is refuted by its Bernstein enclosure are
    pruned.  On every surviving subbox the center (from the tensor's
    weighted sum) and then the vertices (from the corner coefficients, which
    are the exact vertex values) are tested; the first point satisfying all
    constraints is returned as the witness.  Undecided subboxes are bisected
    until ``depth`` is exhausted, in which case the verdict degrades from
    Infeasible to Unknown.  A ``memo`` made for ``box`` carries enclosures from earlier
    checks on it and keeps this one's; without one the call starts afresh.
    """
    constraints = tuple(constraints)
    if not constraints:
        raise PolynomialError("empty constraint conjunction")
    return _search(constraints, box, depth, stats, memo)


def check_validity(
    formula: ValidityFormula,
    box: Box,
    depth: int = DEFAULT_DEPTH,
    stats: SearchStats | None = None,
) -> ValidityVerdict:
    """Decide whether ``formula`` holds at every point of ``box``.

    Validity is infeasibility of the negation: ``c`` is valid when
    ``[not c]`` is infeasible, and ``P -> C`` when ``[P, not C]`` is.  The
    search thus discharges a subbox whose enclosures refute the premise or
    prove the conclusion, and the negation's feasibility witness is the
    counterexample.
    """
    if isinstance(formula, ConstraintImplication):
        negation = (formula.premise, formula.conclusion.negated())
    else:
        negation = (formula.negated(),)
    verdict = _search(negation, box, depth, stats)
    if isinstance(verdict, Feasible):
        return Invalid(verdict.witness)
    if isinstance(verdict, Infeasible):
        return Valid()
    return verdict
