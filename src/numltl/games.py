"""Two-player games on bipartite graphs for reactive synthesis.

The environment owns the env nodes and moves first by picking an input
valuation; the controller owns the ctrl nodes and answers with an output
valuation (and, for arenas built from nondeterministic automata, with the
successor state).  A node whose present outgoing edges are exhausted is lost
by its owner.  Objectives are Büchi (visit designated env nodes infinitely
often) or safety (never visit designated env nodes).

Counter-strategy candidate edges are the moves that provably keep the
environment winning no matter which single candidate is later fixed: inside
an attractor layer they strictly decrease the attractor rank, and inside a
trap they stay in the trap.  Merely remaining in the environment's winning
region is not enough, since an accepting node can sit on a rank-preserving
cycle; restricting to such a cycle would hand the play to the controller.

Everything below the API works on machine ints.  Each arena fixes one atom
order, ``inputs + outputs``: atom ``k`` is bit ``k``.  Its ``Letters`` number
the input valuations and the output valuations in ``all_valuations`` order,
with their bits and their ranks by ``Valuation.sort_key``, the order every
tie is broken in; arenas over the same atoms share one ``Letters`` and so
one set of ``Valuation`` objects.  Each automaton guard is lowered once to
``(care, value)`` masks and matches a letter when ``letter & care == value``.

An arena is flat int arrays in CSR form, over classes of input letters.
Env node ``i`` owns the env edges ``env_start[i]:env_start[i + 1]``; env
edge ``k`` carries the letter set ``env_letters[k]`` (an int with bit ``j``
set for input letter ``j``), and the letters of it still present are
``present[k]``; it leads to ctrl node ``k``, one ctrl node for every input
letter of the set.  Ctrl node ``k`` owns the ctrl edges
``ctrl_start[k]:ctrl_start[k + 1]``, each with an output letter
(``ctrl_letter``) and an env target (``ctrl_target``).  The builders give
each env node one ctrl node per distinct row of (output letter, target):
input letters with the same row are the same game position, so the arena
is the quotient of the one with a ctrl node per input letter, and the
edges of one env node carry disjoint letter sets.  The first solve builds a
predecessor index: the ctrl nodes with an edge into each env node, and the
env node owning each ctrl node.  Marking letters absent only clears bits of
``present``, and an env edge counts as present while any of its letters
is, so the index serves every later solve.  Solving numbers env node ``i``
as ``i`` and ctrl node ``k`` as ``n_env + k`` and keeps the attractor
layers in arrays.  Strategies are read off those layers and expanded to
letters, in input rank order, as ``(input letter, env edge)`` pairs:
``counter_edges`` walks the env nodes the counter-strategy reaches with
their candidate pairs, which is all the loop's counter-input selection
reads.  The extraction functions build ``Valuation``s (the alphabet's shared
ones) only to fill a ``MealyController``, or a ``CounterStrategy`` along the
candidate letters a selection kept.

The safety builder works on sets of letters instead.  It numbers the
letters in arena order and lowers each guard once to the set of letters it
matches, one int with a bit per letter.  A ``SuccessorTable`` splits the
letters of each macro-state into classes that lead to the same successor,
by intersecting the guard sets target by target and count by count, and
keeps the classes with a letter-to-class index of one byte per letter, into
which each class's set is spread by translating its binary digits.  Each
input's slice of that index is its row of successor classes; the table
groups the inputs by row.  Successors do not depend on the bound, only the
test of their top count against it does, so one table serves every arena
of a bound schedule: a build reads each macro's classes, resolves them to
env nodes in order of their first letter (the numbering a letter-by-letter
expansion gives), and maps each distinct row through them to the ctrl
targets of one ctrl node.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from types import MappingProxyType

from .automata import BuchiAutomaton
from .valuation import Memo, Valuation, encoded_valuations


class GameError(ValueError):
    pass


# -- alphabets -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Letters:
    """The alphabet of the arenas over ``inputs + outputs``: ``position`` of
    each atom, input and output valuations in ``all_valuations`` order with
    their bits, and each valuation's rank by ``Valuation.sort_key``."""

    position: MappingProxyType[str, int]
    inputs: tuple[Valuation, ...]
    input_bits: tuple[int, ...]
    input_rank: tuple[int, ...]
    outputs: tuple[Valuation, ...]
    output_bits: tuple[int, ...]
    output_rank: tuple[int, ...]


def _ranks(valuations: tuple[Valuation, ...]) -> tuple[int, ...]:
    rank = [0] * len(valuations)
    by_key = sorted(range(len(valuations)), key=lambda j: valuations[j].sort_key())
    for r, j in enumerate(by_key):
        rank[j] = r
    return tuple(rank)


@lru_cache(maxsize=256)
def letters_of(inputs: tuple[str, ...], outputs: tuple[str, ...]) -> Letters:
    ins = encoded_valuations(inputs)
    outs = encoded_valuations(outputs, len(inputs))
    input_valuations = tuple(v for v, _ in ins)
    output_valuations = tuple(v for v, _ in outs)
    return Letters(
        position=MappingProxyType({name: k for k, name in enumerate(inputs + outputs)}),
        inputs=input_valuations,
        input_bits=tuple(bits for _, bits in ins),
        input_rank=_ranks(input_valuations),
        outputs=output_valuations,
        output_bits=tuple(bits for _, bits in outs),
        output_rank=_ranks(output_valuations),
    )


# -- arenas ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Predecessors:
    """What the attractor walks backwards; independent of ``present``."""

    owner: list[int]  # the env node of each ctrl node
    ctrl: list[list[int]]  # per env node, the ctrl nodes with an edge into it
    degree: array  # per node (ctrl k at n_env + k): its distinct targets; 0 at env nodes


@dataclass
class GameArena:
    """A game as flat int arrays (see the module docstring); marking letters
    absent clears ``present`` bits and changes nothing else."""

    objective: str  # "buchi" or "safety"
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    env_labels: tuple
    env_start: array  # env node i owns env edges env_start[i]:env_start[i + 1]
    env_letters: list[int]  # input letter set of env edge k, which leads to ctrl node k
    present: list[int]  # the letters of env edge k still present
    ctrl_start: array  # ctrl node k owns ctrl edges ctrl_start[k]:ctrl_start[k + 1]
    ctrl_letter: array  # output letter of each ctrl edge
    ctrl_target: array  # env node each ctrl edge leads to
    initial: int = 0
    accepting: frozenset = frozenset()
    unsafe: frozenset = frozenset()
    _predecessors: _Predecessors | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def letters(self) -> Letters:
        return letters_of(self.inputs, self.outputs)

    @property
    def n_env(self) -> int:
        return len(self.env_start) - 1

    @property
    def n_ctrl(self) -> int:
        return len(self.env_letters)

    @property
    def n_positions(self) -> int:
        """The (env node, input letter) positions: the ctrl nodes of the
        arena with one per input letter."""
        return sum(map(int.bit_count, self.env_letters))

    def edge_count(self) -> tuple[int, int]:
        return len(self.env_letters), len(self.ctrl_target)

    def predecessors(self) -> _Predecessors:
        """The predecessor index, built on first use."""
        if self._predecessors is None:
            env_start, ctrl_start, targets = self.env_start, self.ctrl_start, self.ctrl_target
            owner: list[int] = []
            for i in range(self.n_env):
                owner.extend(repeat(i, env_start[i + 1] - env_start[i]))
            # a ctrl node is attracted by its targets, not by its edges: the
            # index keeps one entry per distinct target
            preds: list[list[int]] = [[] for _ in range(self.n_env)]
            append = [p.append for p in preds]
            degree = array("i", [0]) * self.n_env
            for k in range(self.n_ctrl):
                distinct = set(targets[ctrl_start[k] : ctrl_start[k + 1]])
                degree.append(len(distinct))
                for t in distinct:
                    append[t](k)
            self._predecessors = _Predecessors(owner, preds, degree)
        return self._predecessors


# -- arena builders -----------------------------------------------------------


def build_buchi_game(
    automaton: BuchiAutomaton, inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> GameArena:
    """Arena over the (nondeterministic) automaton of the specification.

    The controller both picks the output valuation and resolves automaton
    nondeterminism; it wins by steering some run through accepting states
    infinitely often.  Sound for realizability, incomplete the other way.
    """
    letters = letters_of(inputs, outputs)
    n_in, n_out = len(letters.inputs), len(letters.outputs)
    # letter j * n_out + k is input valuation j with output valuation k;
    # each distinct guard is lowered once to the letters it matches
    order = [i | o for i in letters.input_bits for o in letters.output_bits]

    def matching(guard: Valuation) -> list[int]:
        care, value = guard.masks(letters.position)
        return [l for l, bits in enumerate(order) if bits & care == value]

    matched = Memo(matching)
    ends = range(n_out, n_in * n_out + 1, n_out)  # past each input's letters
    env_start, env_letters = array("i", [0]), []
    ctrl_start, ctrl_letter, ctrl_target = array("i", [0]), array("i"), array("i")
    for q in range(automaton.n_states):
        pairs: list[tuple[int, int]] = []
        for t in automaton.transitions[q]:
            pairs.extend(zip(matched[t.guard], repeat(t.target)))
        # each (letter, target) once, by letter, then in transition order
        pairs = sorted(dict.fromkeys(pairs), key=itemgetter(0))
        by_letter = list(map(itemgetter(0), pairs))
        answered = array("i", map(n_out.__rmod__, by_letter))
        targets = array("i", map(itemgetter(1), pairs))
        # the inputs with the same slice of (output letter, target) pairs
        # share one ctrl node, numbered by its first input
        rows: dict[tuple[bytes, bytes], int] = {}
        start = 0
        for j, end in enumerate(ends):
            stop = bisect_left(by_letter, end)
            row = (answered[start:stop].tobytes(), targets[start:stop].tobytes())
            rows[row] = rows.get(row, 0) | 1 << j
            start = stop
        for (row_answered, row_targets), letter_set in rows.items():
            env_letters.append(letter_set)
            ctrl_letter.frombytes(row_answered)
            ctrl_target.frombytes(row_targets)
            ctrl_start.append(len(ctrl_target))
        env_start.append(len(env_letters))
    n = automaton.n_states
    return GameArena(
        objective="buchi",
        inputs=inputs,
        outputs=outputs,
        env_labels=tuple(range(n)),
        env_start=env_start,
        env_letters=env_letters,
        present=env_letters[:],
        ctrl_start=ctrl_start,
        ctrl_letter=ctrl_letter,
        ctrl_target=ctrl_target,
        initial=automaton.initial,
        accepting=frozenset(automaton.accepting),
    )


UNSAFE_LABEL = "UNSAFE"
EMPTY_LABEL = "EMPTY"

Macro = tuple[tuple[int, int], ...]


@lru_cache(maxsize=0x100)
def _spread(c: int) -> bytes:
    """Translation table of the binary digits ``0``/``1`` to bytes 0/``c``."""
    return bytes.maketrans(b"01", bytes((0, c)))


def _class_index(letter_sets: list[int], n_letters: int) -> bytes | array:
    """Class number of each letter, given the classes' disjoint letter sets.

    Up to 256 classes, each class's set is spread to one byte per letter,
    most significant first, by translating its binary digits; read as a
    big-endian int the bytes of all classes OR together, and byte ``l`` of
    the little-endian result is letter ``l``'s class."""
    if len(letter_sets) > 0x100:
        index = array("I", [0]) * n_letters
        for c, letters in enumerate(letter_sets):
            bits = format(letters, "b")[::-1]  # bits[l] is letter l
            l = bits.find("1")
            while l >= 0:
                index[l] = c
                l = bits.find("1", l + 1)
        return index
    spread = 0
    for c in range(1, len(letter_sets)):
        digits = format(letter_sets[c], "b").encode()
        spread |= int.from_bytes(digits.translate(_spread(c)), "big")
    return spread.to_bytes(n_letters, "little")


class SuccessorTable:
    """Successor classes of the counting macro-states over one negated
    automaton and one alphabet, shared by the arenas of every bound.

    Letters are numbered in arena order: letter ``j * 2**len(outputs) + k`` is
    input valuation ``j`` with output valuation ``k``, both in
    ``all_valuations`` order.  A letter set is an int with bit ``l`` set for
    letter ``l``; each guard is lowered to one.  ``classes(macro)`` splits
    the letters by the macro's successor, with every count as reached (no
    bound applies here), and returns the classes as ``(successor, top
    count)`` pairs numbered by their first letter, with the class index of
    the distinct rows.  Input ``j``'s row is its slice ``j * 2**len(outputs)``
    onward of the class index of every letter; inputs with equal rows share
    one, and the rows come in order of their first input, as the class of
    each (row, output) and the input letter set of each row.
    """

    def __init__(
        self, negated: BuchiAutomaton, inputs: tuple[str, ...], outputs: tuple[str, ...]
    ) -> None:
        self.automaton = negated
        self.inputs = inputs
        self.outputs = outputs
        letters = letters_of(inputs, outputs)
        # each letter of the arena order as its bits
        order = [i | o for i in letters.input_bits for o in letters.output_bits]
        self._n_letters = len(order)
        self._n_in, self._n_out = len(letters.inputs), len(letters.outputs)
        self._single = tuple(1 << j for j in range(self._n_in))  # each input's letter set
        self._full = (1 << self._n_letters) - 1
        # per automaton state: (target, bump, letters), transitions to one
        # target merged
        self._targets: list[tuple[tuple[int, int, int], ...]] = []
        for row in negated.transitions:
            reach: dict[int, int] = {}
            for t in row:
                care, value = t.guard.masks(letters.position)
                letter_set = sum(
                    1 << l for l, bits in enumerate(order) if bits & care == value
                )
                reach[t.target] = reach.get(t.target, 0) | letter_set
            self._targets.append(
                tuple(
                    (target, 1 if target in negated.accepting else 0, letter_set)
                    for target, letter_set in reach.items()
                    if letter_set
                )
            )
        self._classes: dict[Macro, tuple] = {}

    def classes(self, macro: Macro) -> tuple:
        """The successor classes of ``macro`` (``()`` for the macro with no
        live runs) and its distinct rows; split on first request."""
        known = self._classes.get(macro)
        if known is None:
            known = self._classes[macro] = self._split(macro)
        return known

    def _split(self, macro: Macro) -> tuple:
        # letters reaching each target, by the count they reach it with
        reach: dict[int, dict[int, int]] = {}
        for state, count in macro:
            for target, bump, letters in self._targets[state]:
                by_count = reach.setdefault(target, {})
                bumped = count + bump
                by_count[bumped] = by_count.get(bumped, 0) | letters
        # (letters, successor, top count) of each class so far
        parts: list[tuple[int, Macro, int]] = [(self._full, (), -1)]
        for target in sorted(reach):
            by_count = reach[target]
            higher = 0  # letters that reach ``target`` with a higher count
            for count in sorted(by_count, reverse=True):
                letters = by_count[count] & ~higher
                higher |= by_count[count]
                if not letters:
                    continue
                split = []
                for part, successor, top in parts:
                    inside = part & letters
                    if inside:
                        new_top = top if top > count else count
                        split.append((inside, successor + ((target, count),), new_top))
                        part ^= inside
                    if part:
                        split.append((part, successor, top))
                parts = split
        parts.sort(key=lambda p: p[0] & -p[0])  # by first letter
        classes = tuple(
            (successor, top) if successor else (EMPTY_LABEL, -1)
            for _, successor, top in parts
        )
        return (classes, *self._rows(_class_index([p[0] for p in parts], self._n_letters)))

    def _rows(self, index: bytes | array) -> tuple:
        """The class index of the first input of each distinct row, rows
        in order, and each row's input letter set."""
        # each input's row as one key: an int read straight off the index
        # where the row is 1, 2, 4 or 8 bytes wide
        data = index if type(index) is bytes else index.tobytes()
        width = len(data) // self._n_in
        if width in _ROW_FORMAT:
            keys = memoryview(data).cast(_ROW_FORMAT[width]).tolist()
        else:
            keys = [data[a : a + width] for a in range(0, len(data), width)]
        if len(set(keys)) == len(keys):
            return index, self._single
        rows: dict = {}
        for key, letter in zip(keys, self._single):
            rows[key] = rows.get(key, 0) | letter
        n_out = self._n_out
        firsts = [(letters & -letters).bit_length() - 1 for letters in rows.values()]
        return [c for j in firsts for c in index[j * n_out : (j + 1) * n_out]], tuple(rows.values())


_ROW_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def build_safety_game(
    negated: BuchiAutomaton,
    bound: int,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    successors: SuccessorTable | None = None,
) -> GameArena:
    """Bounded-unroll safety arena over the automaton of the negated spec.

    Env nodes are universal subset-construction macro states carrying, per
    automaton state, the highest count of accepting-state visits along any
    run reaching it.  A count past the bound makes the macro unsafe; the
    macro with no live runs is absorbing and safe.  ``successors`` is a
    table over the same automaton and atoms, filled by earlier builds at any
    bound; without one a fresh table is used.
    """
    if bound < 1:
        msg = f"bound must be at least 1, got {bound}"
        raise GameError(msg)
    if successors is None:
        successors = SuccessorTable(negated, inputs, outputs)
    elif (successors.automaton, successors.inputs, successors.outputs) != (
        negated,
        inputs,
        outputs,
    ):
        raise GameError("successor table was made for another automaton or alphabet")
    n_out = len(letters_of(inputs, outputs).outputs)

    labels: list = []
    index: dict = {}
    unsafe: set[int] = set()

    def env_id(label) -> int:
        if label in index:
            return index[label]
        i = len(labels)
        index[label] = i
        labels.append(label)
        if label == UNSAFE_LABEL:
            unsafe.add(i)
        return i

    # env nodes are queued as they are numbered, so they are expanded in
    # id order and each one's ctrl nodes follow the previous one's
    env_start, env_letters = array("i", [0]), []
    ctrl_target = array("i")
    initial_macro: Macro = ((negated.initial, 0),)
    start = env_id(initial_macro)
    queue = deque([start])
    expanded = {start}
    while queue:
        i = queue.popleft()
        label = labels[i]
        if label != UNSAFE_LABEL:  # the unsafe node is terminal: env already won
            macro = () if label == EMPTY_LABEL else label  # EMPTY: no live runs
            classes, row_class, row_letters = successors.classes(macro)
            # classes are numbered by first letter, so resolving them in order
            # numbers the env nodes as a letter-by-letter expansion would
            targets = []
            for successor, top in classes:
                t = env_id(successor if top <= bound else UNSAFE_LABEL)
                if t not in expanded:
                    expanded.add(t)
                    queue.append(t)
                targets.append(t)
            # a ctrl node per distinct row, whose edge k is output k
            env_letters.extend(row_letters)
            ctrl_target.extend(map(targets.__getitem__, row_class))
        env_start.append(len(env_letters))

    n_ctrl = len(env_letters)
    return GameArena(
        objective="safety",
        inputs=inputs,
        outputs=outputs,
        env_labels=tuple(labels),
        env_start=env_start,
        env_letters=env_letters,
        present=env_letters[:],
        ctrl_start=array("i", range(0, n_ctrl * n_out + 1, n_out)),
        ctrl_letter=array("i", range(n_out)) * n_ctrl,
        ctrl_target=ctrl_target,
        initial=start,
        unsafe=frozenset(unsafe),
    )


# -- attractors and solving ----------------------------------------------------


def _attractor(
    arena: GameArena, owner_is_env: bool, base, rank: array, pending: array
) -> array:
    """Layered attractor for the env player (``owner_is_env``) or the ctrl
    player toward ``base``, over node numbers (ctrl node ``k`` is
    ``n_env + k``).

    ``rank`` holds -1 at every live node and -2 at every dead one; attracted
    nodes get their BFS layer, base nodes 0, and it is returned.
    ``pending`` holds each opponent node's live successors (distinct
    targets of a ctrl node, present edges of an env node) and is used up.
    An owner node joins when some present edge enters the attractor; an
    opponent node joins when every present edge into the live nodes does,
    which is vacuously true for stuck opponent nodes.

    Linear in the arena (Grädel, Thomas & Wilke, LNCS 2500): every opponent
    node counts its successors not yet attracted, and the layers are
    processed breadth-first, so a node joins one layer after the successor
    that completes its condition, the layer the round-by-round fixpoint
    gives it.
    """
    n_env = arena.n_env
    present = arena.present
    index = arena.predecessors()
    owner, preds = index.owner, index.ctrl
    layer = []
    for node in base:
        if rank[node] == -1:
            rank[node] = 0
            layer.append(node)
    # stuck opponent nodes join in the first layer
    opponents = range(n_env, len(rank)) if owner_is_env else range(n_env)
    stuck = [node for node in opponents if not pending[node] and rank[node] == -1]
    current = 0
    while layer or stuck:
        current += 1
        fresh, stuck = stuck, []
        for node in fresh:
            rank[node] = current
        for node in layer:
            if node < n_env:
                for k in preds[node]:
                    p = n_env + k
                    if rank[p] != -1:
                        continue
                    if owner_is_env:
                        pending[p] -= 1
                        if pending[p]:
                            continue
                    rank[p] = current
                    fresh.append(p)
            else:
                k = node - n_env
                p = owner[k]
                if not present[k] or rank[p] != -1:
                    continue
                if not owner_is_env:
                    pending[p] -= 1
                    if pending[p]:
                        continue
                rank[p] = current
                fresh.append(p)
        layer = fresh
    return rank


@dataclass(eq=False)
class GameSolution:
    """Attractor layers per node number (ctrl node ``k`` is ``n_env + k``).

    ``env_rank`` is the layer at which the environment's attractor took a
    node, -1 where the controller wins.  On the Büchi route ``env_round``
    numbers the attractor that took each node and ``ctrl_rank`` is the
    layer of every controller-winning node in the controller's final
    attractor to the accepting nodes; both are None on the safety route.
    """

    arena: GameArena
    env_rank: array
    env_round: array | None = None
    ctrl_rank: array | None = None

    @property
    def ctrl_wins(self) -> bool:
        return self.env_rank[self.arena.initial] < 0

    def candidate_edges(self, i: int) -> list[tuple[int, int]]:
        """The moves the environment may take at env node ``i`` of its
        region, as ``(input letter, env edge)`` pairs by input rank: the
        present letters of edges into a lower layer of the same attractor,
        or within its base."""
        arena = self.arena
        n_env, rank, rounds = arena.n_env, self.env_rank, self.env_round
        own = rank[i]
        out = []
        for k in compress(
            range(arena.env_start[i], arena.env_start[i + 1]),
            arena.present[arena.env_start[i] : arena.env_start[i + 1]],
        ):
            r = rank[n_env + k]
            if r < 0 or (rounds is not None and rounds[n_env + k] != rounds[i]):
                continue
            if r < own or r == own == 0:
                out.append(k)
        return _by_input_rank(arena, out)

    def answer_edge(self, k: int) -> int | None:
        """The ctrl edge the controller takes at ctrl node ``k``: the least,
        by output rank then target, of its edges that stay in its region
        (safety) or lower its layer toward the accepting nodes (Büchi)."""
        arena = self.arena
        node = arena.n_env + k
        if self.env_rank[node] >= 0:
            return None
        output_rank, targets = arena.letters.output_rank, arena.ctrl_target
        best = best_key = None
        for e in range(arena.ctrl_start[k], arena.ctrl_start[k + 1]):
            t = targets[e]
            if self.ctrl_rank is None:
                good = self.env_rank[t] < 0
            else:
                good = 0 <= self.ctrl_rank[t] < self.ctrl_rank[node]
            if good:
                key = (output_rank[arena.ctrl_letter[e]], t)
                if best_key is None or key < best_key:
                    best, best_key = e, key
        return best


def solve_safety(arena: GameArena) -> GameSolution:
    if arena.objective != "safety":
        msg = f"expected a safety arena, got {arena.objective}"
        raise GameError(msg)
    live = array("i", [-1]) * (arena.n_env + arena.n_ctrl)
    pending = arena.predecessors().degree[:]
    return GameSolution(arena, _attractor(arena, True, arena.unsafe, live, pending))


def solve_buchi(arena: GameArena) -> GameSolution:
    if arena.objective != "buchi":
        msg = f"expected a buchi arena, got {arena.objective}"
        raise GameError(msg)
    index = arena.predecessors()
    n_env = arena.n_env
    n = n_env + arena.n_ctrl
    start, present = arena.env_start, arena.present
    # every node's edges into the live nodes, kept up to date as nodes die
    degree = index.degree[:]
    for i in range(n_env):
        degree[i] = start[i + 1] - start[i] - present[start[i] : start[i + 1]].count(0)
    alive = array("i", [-1]) * n  # -1 live, -2 dead: every attractor's starting ranks
    env_rank = array("i", [-1]) * n
    env_round = array("i", [-1]) * n
    rounds = 0
    while True:
        reach = _attractor(arena, False, arena.accepting, alive[:], degree[:])
        trapped = [node for node in range(n) if reach[node] == -1]
        if not trapped:
            break
        removed = _attractor(arena, True, trapped, alive[:], degree[:])
        for node in range(n):
            if removed[node] < 0:
                continue
            env_rank[node] = removed[node]
            env_round[node] = rounds
            alive[node] = -2
            if node < n_env:
                for k in index.ctrl[node]:
                    degree[n_env + k] -= 1
            elif present[node - n_env]:
                degree[index.owner[node - n_env]] -= 1
        rounds += 1
    # every surviving ctrl node sits in the final attractor at rank >= 1,
    # so a rank-decreasing move toward the accepting set always exists
    return GameSolution(arena, env_rank, env_round, reach)


def solve(arena: GameArena) -> GameSolution:
    if arena.objective == "buchi":
        return solve_buchi(arena)
    return solve_safety(arena)


# -- strategy extraction --------------------------------------------------------


@dataclass(frozen=True)
class MealyController:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    n_states: int
    initial: int
    step: dict[tuple[int, Valuation], tuple[Valuation, int]]


def _by_input_rank(arena: GameArena, edges) -> list[tuple[int, int]]:
    """The present letters of env ``edges`` as ``(input letter, env edge)``
    pairs, by input rank, then by edge for a letter on two edges."""
    present = arena.present
    pairs = []
    for k in edges:
        letter_set = present[k]
        while letter_set:
            low = letter_set & -letter_set
            pairs.append((low.bit_length() - 1, k))
            letter_set ^= low
    input_rank = arena.letters.input_rank
    pairs.sort(key=lambda pair: input_rank[pair[0]])
    return pairs


def extract_controller(solution: GameSolution) -> MealyController:
    """Mealy machine over the env nodes the controller strategy visits."""
    arena = solution.arena
    if not solution.ctrl_wins:
        msg = "initial node is not controller-winning"
        raise GameError(msg)
    letters = arena.letters
    inputs, outputs = letters.inputs, letters.outputs
    numbering = {arena.initial: 0}
    order = [arena.initial]
    step: dict[tuple[int, Valuation], tuple[Valuation, int]] = {}
    queue = deque([arena.initial])
    while queue:
        env_node = queue.popleft()
        edges = range(arena.env_start[env_node], arena.env_start[env_node + 1])
        # one answer per ctrl node, shared by the letters of its class
        answers: dict[int, int] = {}
        for j, k in _by_input_rank(arena, compress(edges, arena.present[edges.start : edges.stop])):
            answer = answers.get(k)
            if answer is None:
                answer = answers[k] = solution.answer_edge(k)
                if answer is None:
                    msg = (
                        "controller strategy has no answer at a reachable node; "
                        "winning region is not closed"
                    )
                    raise GameError(msg)
            target = arena.ctrl_target[answer]
            if target not in numbering:
                numbering[target] = len(order)
                order.append(target)
                queue.append(target)
            step[(numbering[env_node], inputs[j])] = (
                outputs[arena.ctrl_letter[answer]],
                numbering[target],
            )
    return MealyController(
        inputs=arena.inputs,
        outputs=arena.outputs,
        n_states=len(order),
        initial=0,
        step=step,
    )


@dataclass(frozen=True)
class CounterStrategy:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[int, ...]  # arena env node ids
    initial: int
    candidates: dict[int, tuple[Valuation, ...]]
    transitions: dict[tuple[int, Valuation, Valuation], int]
    spoiled: frozenset[int]  # terminal states where the objective is already lost


def _answers(arena: GameArena, k: int, every_letter: array) -> tuple:
    """The output letters of ctrl node ``k`` in order of first appearance,
    and for each the least target it leads to."""
    row = slice(arena.ctrl_start[k], arena.ctrl_start[k + 1])
    answered = arena.ctrl_letter[row]
    if answered == every_letter:  # each output once, in order
        return answered, arena.ctrl_target[row]
    least: dict[int, int] = {}
    for out, target in zip(answered, arena.ctrl_target[row]):
        best = least.get(out)
        if best is None or target < best:
            least[out] = target
    return least.keys(), least.values()


def counter_edges(
    solution: GameSolution, keep: dict[int, tuple[int, ...]] | None = None
) -> dict[int, tuple[tuple[int, int], ...]]:
    """The candidate ``(input letter, env edge)`` pairs of every env node the
    counter-strategy reaches, in breadth-first order from the initial node:
    each leads on to its ctrl node's least target per output.  ``keep``
    narrows the candidates of the nodes it names to the input letters it
    lists; without it every candidate is followed."""
    arena = solution.arena
    every_letter = array("i", range(len(arena.letters.outputs)))
    reached: dict[int, tuple[tuple[int, int], ...]] = {arena.initial: ()}
    queue = deque([arena.initial])
    while queue:
        s = queue.popleft()
        pairs = solution.candidate_edges(s) if solution.env_rank[s] >= 0 else ()
        if keep is not None and pairs and s in keep:
            kept = set(keep[s])
            pairs = [pair for pair in pairs if pair[0] in kept]
        reached[s] = tuple(pairs)
        for k in dict.fromkeys(k for _, k in pairs):  # each class once
            for nxt in _answers(arena, k, every_letter)[1]:
                if nxt not in reached:
                    reached[nxt] = ()
                    queue.append(nxt)
    return reached


def extract_counter_strategy(
    solution: GameSolution, keep: dict[int, tuple[int, ...]] | None = None
) -> CounterStrategy:
    """Spoiler transducer over the env-winning region, carrying per-state
    candidate inputs (each single-candidate restriction stays winning).

    States, candidates and transitions are filled along the pairs
    ``counter_edges`` follows, so ``keep`` (input letters per env node)
    narrows them the same way.  A state is spoiled when it has no candidate
    at all, whatever ``keep`` says."""
    arena = solution.arena
    if solution.ctrl_wins:
        msg = "initial node is controller-winning; no counter-strategy exists"
        raise GameError(msg)
    inputs, outputs = arena.letters.inputs, arena.letters.outputs
    every_letter = array("i", range(len(outputs)))
    reached = counter_edges(solution, keep)
    candidates: dict[int, tuple[Valuation, ...]] = {}
    transitions: dict[tuple[int, Valuation, Valuation], int] = {}
    answers: dict[int, tuple] = {}
    for s, pairs in reached.items():
        candidates[s] = tuple(inputs[j] for j, _ in pairs)
        for (_, k), vin in zip(pairs, candidates[s]):
            known = answers.get(k)
            if known is None:
                known = answers[k] = _answers(arena, k, every_letter)
            answered, targets = known
            vouts = map(outputs.__getitem__, answered)
            transitions.update(zip(zip(repeat(s), repeat(vin), vouts), targets))
    return CounterStrategy(
        inputs=arena.inputs,
        outputs=arena.outputs,
        states=tuple(reached),
        initial=arena.initial,
        candidates=candidates,
        transitions=transitions,
        spoiled=frozenset(
            s for s, pairs in reached.items() if not pairs and not solution.candidate_edges(s)
        ),
    )


# -- refinement by edge marking ---------------------------------------------------


def mark_edges_absent(arena: GameArena, valuation: Valuation) -> int:
    """Mark absent every present input letter that agrees with ``valuation``
    on its atoms; returns how many letters were marked.  A valuation naming
    an atom that is no input of the arena matches nothing."""
    if not set(valuation.atoms) <= set(arena.inputs):
        return 0
    letters = arena.letters
    care, value = valuation.masks(letters.position)
    hit = 0  # the matching input letters
    for j, bits in enumerate(letters.input_bits):
        if bits & care == value:
            hit |= 1 << j
    present = arena.present
    count = 0
    for k, letter_set in enumerate(present):
        marked = letter_set & hit
        if marked:
            present[k] = letter_set ^ marked
            count += marked.bit_count()
    return count
