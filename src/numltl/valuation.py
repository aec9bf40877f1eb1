"""Total and partial assignments of Boolean atoms.

A ``Valuation`` fixes every atom of some set.  It is also the one type for
a cube, a conjunction of literals: an automaton guard, a refinement, a
theory query all fix a subset of the atoms and match any assignment that
agrees on it.  Valuations are canonicalized by atom name so equality and
hashing are structural, and they order lexicographically by name-sorted
truth values with False before True.

Inside the automata-to-game pipeline letters are machine ints instead.  An
arena fixes one atom order, ``inputs + outputs``, and atom ``k`` of it is
bit ``k``; a letter is then ``in_bits | out_bits``.  A valuation lowers to a
``(care, value)`` pair of masks and matches a letter when
``letter & care == value``; a total valuation's bits are its ``value`` mask.
Letters are numbered in ``sort_key`` order, ``all_valuations`` of the
name-sorted atoms, whatever order the atoms are declared in.  ``Valuation`` objects appear only at API
boundaries: automaton guards, controllers, counter-strategies, artifacts,
transcripts and evidence.  An arena stores letter numbers and takes its
valuations from one shared table per atom order (``games.letters_of``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping


@dataclass(frozen=True, order=False)
class Valuation:
    pairs: tuple[tuple[str, bool], ...]
    # ``sort_key()`` and the hash, computed once: games and artifacts order
    # letters by the key, and strategies are dicts keyed by valuations
    _key: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        names = [name for name, _ in self.pairs]
        if len(set(names)) != len(names):
            msg = f"repeated atom in valuation: {names}"
            raise ValueError(msg)
        object.__setattr__(self, "_key", tuple(value for _, value in self.pairs))
        object.__setattr__(self, "_hash", hash(self.pairs))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its pairs, so a copy made in another process (string
        # hashes differ between processes) caches its own hash
        return (Valuation, (self.pairs,))

    @staticmethod
    def of(mapping: Mapping[str, bool] | Iterable[tuple[str, bool]]) -> "Valuation":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return Valuation(tuple((name, bool(value)) for name, value in items))

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    def __getitem__(self, name: str) -> bool:
        for key, value in self.pairs:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.pairs)

    def as_dict(self) -> dict[str, bool]:
        return dict(self.pairs)

    def restrict(self, atoms: Iterable[str]) -> "Valuation":
        keep = set(atoms)
        return Valuation(tuple(p for p in self.pairs if p[0] in keep))

    def merge(self, other: "Valuation") -> "Valuation":
        combined = dict(self.pairs)
        for name, value in other.pairs:
            if name in combined and combined[name] != value:
                msg = f"conflicting value for '{name}'"
                raise ValueError(msg)
            combined[name] = value
        return Valuation.of(combined)

    def masks(self, position: Mapping[str, int]) -> tuple[int, int]:
        """The cube as ``(care, value)`` over the bit ``position`` of each atom:
        a letter matches it when ``letter & care == value``."""
        care = value = 0
        for name, truth in self.pairs:
            bit = 1 << position[name]
            care |= bit
            if truth:
                value |= bit
        return care, value

    def sort_key(self) -> tuple[bool, ...]:
        """Truth values in name-sorted atom order; False sorts before True."""
        return self._key

    def __lt__(self, other: "Valuation") -> bool:
        return (self.atoms, self.sort_key()) < (other.atoms, other.sort_key())

    def __str__(self) -> str:
        return ",".join(f"{name}={int(value)}" for name, value in self.pairs)


class Memo(dict):
    """A dict that fills in a missing key with ``make(key)``, once per key."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def all_valuations(atoms: Iterable[str]) -> Iterator[Valuation]:
    """Every valuation of ``atoms``, lexicographic in the given atom order
    with False before True; the first atom varies slowest."""
    names = tuple(atoms)
    for bits in product((False, True), repeat=len(names)):
        yield Valuation(tuple(zip(names, bits)))


def parse_valuation(text: str) -> Valuation:
    """Inverse of ``str(valuation)``; the sentinel ``-`` is the empty one."""
    if text == "-":
        return Valuation.of({})
    pairs = []
    for part in text.split(","):
        name, eq, bit = part.partition("=")
        if not name or not eq or bit not in ("0", "1"):
            msg = f"malformed valuation {text!r}"
            raise ValueError(msg)
        pairs.append((name, bit == "1"))
    return Valuation.of(pairs)
