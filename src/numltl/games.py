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
the input valuations and the output valuations in ``Valuation.sort_key``
order, the order every tie is broken in, so a letter's number is its rank;
each valuation's bits sit at its atoms' positions, lowered by
``Valuation.masks`` as guards are.  Arenas over the same atoms share one
``Letters`` and so one set of ``Valuation`` objects.  A guard matches a
letter when ``letter & care == value`` for its ``(care, value)`` masks;
each distinct guard of an automaton is lowered once, to the set of letters
it matches.

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
letters, in input letter order, as ``(input letter, env edge)`` pairs:
``counter_edges`` walks the env nodes the counter-strategy reaches with
their candidate pairs, which is all the loop's counter-input selection
reads.  The extraction functions build ``Valuation``s (the alphabet's shared
ones) only to fill a ``MealyController``, or a ``CounterStrategy`` along the
candidate letters a selection kept.

Both builders read their rows off a ``SuccessorTable``, which works on
sets of letters: one int with a bit per letter, in arena order.  It splits
the letters of each macro-state into classes that lead to the same
successor, by intersecting the guard sets target by target and count by
count, and keeps the classes with a letter-to-class index of one byte per
letter, into which each class's set is spread by translating its binary
digits.  Each input's slice of that index is its row of successor classes;
the table groups the inputs by row.  ``build_buchi_game`` reads the
singleton macro-state ``((q, 0),)`` of each automaton state ``q``.  For
the safety game, successors do not depend on the bound, only the test of
their top count against it does, so one table serves every arena of a
bound schedule.  A ``SafetyGame`` is one bound's game over the table,
expanded node by node: expanding a macro reads its classes, resolves them
to game nodes, and maps each distinct row through them to the targets of
one ctrl node, one per output letter; the classes first appear among those
targets in class order.  ``build_safety_game`` expands every reachable
node breadth-first and numbers the nodes as a letter-by-letter expansion
would.  ``solve`` on a game searches from the initial node instead
(``solve_on_the_fly``), expands only the nodes it needs to decide it, and
returns its solution over the arena of the nodes it expanded and
the nodes they lead to; the refinement loop solves every safety game so.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat
from types import MappingProxyType

from .automata import BuchiAutomaton
from .valuation import Memo, Valuation, all_valuations


class GameError(ValueError):
    pass


# -- alphabets -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Letters:
    """The alphabet of the arenas over ``inputs + outputs``: ``position`` of
    each atom, the input and the output valuations in ``Valuation.sort_key``
    order (the inputs with their bits), the bits of every letter in arena
    ``order``, and the set of letters each atom is true in, by position:
    letter ``j * n_out + k`` is input valuation ``j`` with output valuation
    ``k``.  A letter's number is its rank, so every tie broken by letter is
    broken by ``sort_key``."""

    position: MappingProxyType[str, int]
    inputs: tuple[Valuation, ...]
    input_bits: tuple[int, ...]
    outputs: tuple[Valuation, ...]
    order: tuple[int, ...]
    atom_letters: tuple[int, ...]

    def matching(self, guard: Valuation) -> int:
        """The set of letters that agree with the cube ``guard``: an int
        with bit ``l`` set for letter ``l``, one set or its complement
        intersected per literal."""
        letters = (1 << len(self.order)) - 1
        for name, truth in guard.pairs:
            atom = self.atom_letters[self.position[name]]
            letters &= atom if truth else ~atom
        return letters


@lru_cache(maxsize=256)
def letters_of(inputs: tuple[str, ...], outputs: tuple[str, ...]) -> Letters:
    position = MappingProxyType({name: k for k, name in enumerate(inputs + outputs)})
    input_valuations = tuple(all_valuations(sorted(inputs)))
    output_valuations = tuple(all_valuations(sorted(outputs)))
    input_bits = tuple(v.masks(position)[1] for v in input_valuations)
    output_bits = [v.masks(position)[1] for v in output_valuations]
    order = tuple(i | o for i in input_bits for o in output_bits)
    return Letters(
        position=position,
        inputs=input_valuations,
        input_bits=input_bits,
        outputs=output_valuations,
        order=order,
        atom_letters=tuple(
            sum(1 << l for l, bits in enumerate(order) if bits >> k & 1)
            for k in range(len(position))
        ),
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

    @property
    def n_expanded(self) -> int:
        """The env nodes whose moves the arena holds: those with env edges,
        and the unsafe node, which has none.  Only the nodes an on-the-fly
        solve reached without expanding them are left out."""
        start = self.env_start
        return len(self.unsafe) + sum(start[i] != start[i + 1] for i in range(self.n_env))

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

    Env node ``q`` is automaton state ``q``; its rows are those of the
    singleton macro-state ``((q, 0),)`` in a ``SuccessorTable`` over the
    automaton, whose classes are the letters that reach the same set of
    targets.  Each row is one ctrl node, with an edge to each target of its
    class per output letter, in ascending target order.
    """
    table = SuccessorTable(automaton, inputs, outputs)
    n_out = len(letters_of(inputs, outputs).outputs)
    env_start, env_letters = array("i", [0]), []
    ctrl_start, ctrl_letter, ctrl_target = array("i", [0]), array("i"), array("i")
    for q in range(automaton.n_states):
        classes, row_class, row_letters = table.classes(((q, 0),))
        # the targets of each class, ascending; none for the empty class
        reached = [() if s == EMPTY_LABEL else [t for t, _ in s] for s, _ in classes]
        for r in range(len(row_letters)):
            for k, c in enumerate(row_class[r * n_out : (r + 1) * n_out]):
                ctrl_letter.extend(repeat(k, len(reached[c])))
                ctrl_target.extend(reached[c])
            ctrl_start.append(len(ctrl_target))
        env_letters.extend(row_letters)
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
    """Successor classes of the counting macro-states over one automaton
    and one alphabet.  Over a negated automaton it is shared by the safety
    arenas of every bound; ``build_buchi_game`` reads the singleton
    macro-states ``((q, 0),)`` of the automaton it is given.

    Letters are numbered in arena order: letter ``j * 2**len(outputs) + k`` is
    input valuation ``j`` with output valuation ``k``, both in
    ``Valuation.sort_key`` order (see ``Letters``).  A letter set is an int
    with bit ``l`` set for letter ``l``; each distinct guard is lowered to
    one, once.  ``classes(macro)`` splits the letters by the macro's
    successor, with every count as reached (no bound applies here), and
    returns the classes as ``(successor, top count)`` pairs numbered by
    their first letter, with the class index of the distinct rows.  Input
    ``j``'s row is its slice ``j * 2**len(outputs)`` onward of the class
    index of every letter; inputs with equal rows share one, and the rows
    come in order of their first input, as the class of each (row, output)
    and the input letter set of each row.
    """

    def __init__(
        self, automaton: BuchiAutomaton, inputs: tuple[str, ...], outputs: tuple[str, ...]
    ) -> None:
        self.automaton = automaton
        self.inputs = inputs
        self.outputs = outputs
        letters = letters_of(inputs, outputs)
        self._n_letters = len(letters.order)
        self._n_in, self._n_out = len(letters.inputs), len(letters.outputs)
        self._single = tuple(1 << j for j in range(self._n_in))  # each input's letter set
        self._full = (1 << self._n_letters) - 1
        matched = Memo(letters.matching)  # each distinct guard lowered once
        # per automaton state: (target, bump, letters), transitions to one
        # target merged
        self._targets: list[tuple[tuple[int, int, int], ...]] = []
        for row in automaton.transitions:
            reach: dict[int, int] = {}
            for t in row:
                reach[t.target] = reach.get(t.target, 0) | matched[t.guard]
            self._targets.append(
                tuple(
                    (target, 1 if target in automaton.accepting else 0, letter_set)
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


_UNSAFE, _INITIAL = 0, 1  # game node numbers of the unsafe macro and the initial one


class SafetyGame:
    """The bounded-unroll safety game over the automaton of the negated
    spec, expanded on demand.

    Env nodes are universal subset-construction macro states carrying, per
    automaton state, the highest count of accepting-state visits along any
    run reaching it.  A count past the bound makes the macro unsafe; the
    macro with no live runs is absorbing and safe.  A node's rows come from
    the successor table the first time a solve or ``arena`` needs them and
    are kept for later ones.  ``absent`` is the set of input letters marked
    absent, which holds at every node, expanded or not.  Two games are equal
    when they are the same game (automaton, atoms, bound and absent letters),
    however much of each is expanded.
    """

    objective = "safety"

    def __init__(self, successors: SuccessorTable, bound: int) -> None:
        if bound < 1:
            msg = f"bound must be at least 1, got {bound}"
            raise GameError(msg)
        self.successors = successors
        self.bound = bound
        self.inputs, self.outputs = successors.inputs, successors.outputs
        self.absent = 0
        # game nodes are numbered as first met, the unsafe one ahead of all;
        # the arenas drawn from the game number their nodes afresh
        self._labels: list = [UNSAFE_LABEL, ((successors.automaton.initial, 0),)]
        self._ids = {label: i for i, label in enumerate(self._labels)}
        self._rows: list = [None, None]
        self.n_out = len(self.letters.outputs)

    @property
    def letters(self) -> Letters:
        return letters_of(self.inputs, self.outputs)

    def _key(self) -> tuple:
        return (self.successors.automaton, self.inputs, self.outputs, self.bound, self.absent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SafetyGame):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]

    def _id(self, label) -> int:
        i = self._ids.get(label)
        if i is None:
            i = self._ids[label] = len(self._labels)
            self._labels.append(label)
            self._rows.append(None)
        return i

    def rows(self, i: int) -> tuple:
        """Game node ``i``'s input letter set per row and its target per
        (row, output letter): the macro-state expanded on first request.
        The successor classes first appear among the targets in class
        order."""
        rows = self._rows[i]
        if rows is None:
            label = self._labels[i]
            classes, row_class, row_letters = self.successors.classes(
                () if label == EMPTY_LABEL else label  # EMPTY: no live runs
            )
            ids = [self._id(s if top <= self.bound else UNSAFE_LABEL) for s, top in classes]
            rows = self._rows[i] = (row_letters, list(map(ids.__getitem__, row_class)))
        return rows

    def arena(self) -> GameArena:
        """Every node reachable from the initial one, expanded breadth-first."""
        order, seen = [_INITIAL], {_INITIAL}
        for i in order:
            if i != _UNSAFE:  # the unsafe node is terminal: env already won
                for t in self.rows(i)[1]:
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
        return self._arena([i for i in order if i != _UNSAFE])[0]

    def _arena(self, expanded: list[int]) -> tuple[GameArena, list[int]]:
        """The arena of the ``expanded`` game nodes, listed in expansion
        order, and the nodes their rows lead to, which keep no edges; with
        the game node of each env node.  The initial node is env node 0, and
        the others are numbered as the expanded ones' classes first reach
        them, so the arena of a breadth-first expansion is numbered as a
        letter-by-letter one would be."""
        number, nodes = {_INITIAL: 0}, [_INITIAL]
        for i in expanded:
            for t in self._rows[i][1]:
                if t not in number:
                    number[t] = len(nodes)
                    nodes.append(t)
        opened = set(expanded)
        env_start, env_letters = array("i", [0]), []
        ctrl_target = array("i")
        for i in nodes:
            if i in opened:
                row_letters, targets = self._rows[i]
                # a ctrl node per distinct row, whose edge k is output k
                env_letters.extend(row_letters)
                ctrl_target.extend(map(number.__getitem__, targets))
            env_start.append(len(env_letters))
        n_ctrl, n_out = len(env_letters), self.n_out
        kept = ~self.absent
        arena = GameArena(
            objective="safety",
            inputs=self.inputs,
            outputs=self.outputs,
            env_labels=tuple(map(self._labels.__getitem__, nodes)),
            env_start=env_start,
            env_letters=env_letters,
            present=[letter_set & kept for letter_set in env_letters],
            ctrl_start=array("i", range(0, n_ctrl * n_out + 1, n_out)),
            ctrl_letter=array("i", range(n_out)) * n_ctrl,
            ctrl_target=ctrl_target,
            initial=0,
            unsafe=frozenset([number[_UNSAFE]] if _UNSAFE in number else []),
        )
        return arena, nodes


def build_safety_game(
    negated: BuchiAutomaton, bound: int, inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> GameArena:
    """The whole ``SafetyGame`` of ``negated`` at ``bound`` as an arena, over
    a fresh successor table; ``SafetyGame(table, bound).arena()`` builds one
    over a shared table."""
    return SafetyGame(SuccessorTable(negated, inputs, outputs), bound).arena()


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
        region, as ``(input letter, env edge)`` pairs by input letter: the
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
        return _by_input_letter(arena, out)

    def answer_edge(self, k: int) -> int | None:
        """The ctrl edge the controller takes at ctrl node ``k``: the least,
        by output letter then target, of its edges that stay in its region
        (safety) or lower its layer toward the accepting nodes (Büchi)."""
        arena = self.arena
        node = arena.n_env + k
        if self.env_rank[node] >= 0:
            return None
        targets = arena.ctrl_target
        best = best_key = None
        for e in range(arena.ctrl_start[k], arena.ctrl_start[k + 1]):
            t = targets[e]
            if self.ctrl_rank is None:
                good = self.env_rank[t] < 0
            else:
                good = 0 <= self.ctrl_rank[t] < self.ctrl_rank[node]
            if good:
                key = (arena.ctrl_letter[e], t)
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


def solve_on_the_fly(game: SafetyGame) -> GameSolution:
    """Decide the initial node of ``game``, expanding only the nodes the
    search needs (a local greatest fixpoint: Liu & Smolka, ICALP 1998;
    Cassez, David, Fleury, Larsen & Lime, CONCUR 2005).

    Every node counts as controller-winning until one of its rows (with a
    present letter) has every output leading to a lost node, the unsafe one
    first.  Each row points at its first output, in output letter order,
    whose target is not lost, and the search expands the targets rows point
    at, depth first, skipping a node once only rows of lost nodes point at
    it; when a node is lost, the rows pointing at it move on, and a row
    with no output left loses its node in turn.  The search stops
    when the initial node is lost, or when no pointed-at node is left to
    expand: the nodes then expanded and not lost are closed under the
    pointers, so the controller wins from each of them.

    The solution is over the arena of the nodes the search expanded (see
    ``SafetyGame._arena``).  Its ranks are 0 at the unsafe node, ``2 * (n
    + 1)`` at the ``n``-th node lost, ``1 + `` the largest target rank at a
    ctrl node whose targets are all lost, and -1 elsewhere: a lost node's
    candidate edges lead to nodes lost before it.  The controller's answer
    at each row is its pointer, the least output letter that wins, as in
    the full solve; a counter-strategy keeps the rows whose targets were all
    lost before their node.
    """
    n_out = game.n_out
    kept = ~game.absent
    lost = {_UNSAFE: 0}
    pointer: dict[int, tuple[list, list[int]]] = {}  # per expanded node: targets, position per row
    waiting: dict[int, list[tuple[int, int]]] = {}  # per node, the rows pointing at it
    stack, seen, expanded = [_INITIAL], {_INITIAL}, []

    def point(i: int, r: int, at: int) -> bool:
        """Point row ``r`` of node ``i`` at its first target not lost from
        position ``at`` on; False when none is left."""
        targets, positions = pointer[i]
        for p in range(at, (r + 1) * n_out):
            t = targets[p]
            if t not in lost:
                positions[r] = p
                waiting.setdefault(t, []).append((i, r))
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
                return True
        return False

    while stack and _INITIAL not in lost:
        i = stack.pop()
        if i != _INITIAL and all(j in lost for j, _ in waiting[i]):
            seen.discard(i)  # no row needs it now; one that comes to pushes it again
            continue
        expanded.append(i)
        row_letters, targets = game.rows(i)
        pointer[i] = (targets, [0] * len(row_letters))
        if all(point(i, r, r * n_out) for r, letters in enumerate(row_letters) if letters & kept):
            continue
        lost[i] = 2 * len(lost)
        dead = [i]
        for u in dead:  # breadth-first over the losses
            for j, r in waiting.pop(u, ()):
                if j not in lost and not point(j, r, pointer[j][1][r] + 1):
                    lost[j] = 2 * len(lost)
                    if j == _INITIAL:
                        break
                    dead.append(j)
            if _INITIAL in lost:
                break

    arena, nodes = game._arena(expanded)
    rank = [lost.get(i, -1) for i in nodes]
    target_rank = list(map(rank.__getitem__, arena.ctrl_target))
    for base in range(0, len(target_rank), n_out):
        row = target_rank[base : base + n_out]
        rank.append(1 + max(row) if min(row) >= 0 else -1)
    return GameSolution(arena, array("i", rank))


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


def solve(arena: GameArena | SafetyGame) -> GameSolution:
    if isinstance(arena, SafetyGame):
        return solve_on_the_fly(arena)
    if arena.objective == "buchi":
        return solve_buchi(arena)
    return solve_safety(arena)


# -- strategy extraction --------------------------------------------------------

Move = tuple[int, Valuation, Valuation, int]  # (state, input, output, next)


def _sorted_moves(moves: Iterable[Move]) -> list[Move]:
    return sorted(moves, key=lambda m: (m[0], m[1].sort_key(), m[2].sort_key()))


@dataclass(frozen=True)
class MealyController:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    n_states: int
    initial: int
    step: dict[tuple[int, Valuation], tuple[Valuation, int]]

    def moves(self) -> list[Move]:
        """Every move by state, then input (one per state and input)."""
        return _sorted_moves((s, vin, vout, nxt) for (s, vin), (vout, nxt) in self.step.items())


def _by_input_letter(arena: GameArena, edges) -> list[tuple[int, int]]:
    """The present letters of env ``edges`` as ``(input letter, env edge)``
    pairs, by input letter, then by edge for a letter on two edges."""
    present = arena.present
    pairs = []
    for k in edges:
        letter_set = present[k]
        while letter_set:
            low = letter_set & -letter_set
            pairs.append((low.bit_length() - 1, k))
            letter_set ^= low
    pairs.sort()
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
        for j, k in _by_input_letter(arena, compress(edges, arena.present[edges.start : edges.stop])):
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

    def moves(self) -> list[Move]:
        """Every move by state, then input, then output."""
        items = self.transitions.items()
        return _sorted_moves((s, vin, vout, nxt) for (s, vin, vout), nxt in items)


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


def mark_edges_absent(arena: GameArena | SafetyGame, valuation: Valuation) -> int:
    """Mark absent every present input letter that agrees with ``valuation``
    on its atoms; returns how many letters were marked, on an arena once per
    env edge that carried one, on a ``SafetyGame`` once.  A valuation naming
    an atom that is no input of the arena matches nothing."""
    if not set(valuation.atoms) <= set(arena.inputs):
        return 0
    letters = arena.letters
    care, value = valuation.masks(letters.position)
    hit = 0  # the matching input letters
    for j, bits in enumerate(letters.input_bits):
        if bits & care == value:
            hit |= 1 << j
    if isinstance(arena, SafetyGame):
        hit &= ~arena.absent
        arena.absent |= hit
        return hit.bit_count()
    present = arena.present
    count = 0
    for k, letter_set in enumerate(present):
        marked = letter_set & hit
        if marked:
            present[k] = letter_set ^ marked
            count += marked.bit_count()
    return count
