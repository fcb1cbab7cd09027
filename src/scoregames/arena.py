"""Arenas, winning conditions, and finite representations of plays.

Vertices carry external string names but are handled internally as dense
integer indices 0..n-1.  Vertex sets are plain int bitmasks throughout, so
set algebra is integer arithmetic and every set is hashable.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence as _Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from operator import sub
from typing import Callable, Iterable, Iterator, Sequence, Union

Word = tuple  # finite vertex sequence, tuple[int, ...]

DEFAULT_LOOP_LIMIT = 14  # enumerate_loops is exponential in the vertex count


class SizeLimitError(RuntimeError):
    """An exponential construction exceeded its configured size guard."""


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Successors(_Sequence):
    """A successor table as compressed sparse rows: two ``array('i')``,
    four bytes an edge and four a vertex.  ``flat`` holds every row, in
    vertex order, and ``start`` the n + 1 row offsets, so row ``v`` is
    ``flat[start[v]:start[v + 1]]``.  ``table[v]`` returns row ``v`` as a
    tuple, and a slice a tuple of rows; a reader that walks the whole
    table reads the two arrays.  Tables compare equal by content, to each
    other and to a tuple of row tuples."""

    __slots__ = ("flat", "start")

    def __init__(self, flat: array, start: array):
        self.flat = flat
        self.start = start

    @classmethod
    def from_rows(cls, rows: Iterable) -> "Successors":
        rows = list(rows)
        return cls(
            array("i", chain.from_iterable(rows)), array("i", accumulate(map(len, rows), initial=0))
        )

    def __len__(self):
        return len(self.start) - 1

    def __getitem__(self, v) -> tuple:
        if v.__class__ is slice:  # slice has no subclasses; cheaper than isinstance
            return tuple(map(self.__getitem__, range(len(self))[v]))
        start = self.start
        if v < 0:
            v += len(start) - 1
            if v < 0:
                raise IndexError("vertex index out of range")
        return tuple(self.flat[start[v] : start[v + 1]])

    def __iter__(self) -> Iterator:
        flat, start = self.flat, self.start
        return (tuple(flat[start[v] : start[v + 1]]) for v in range(len(self)))

    def degrees(self) -> Iterator:
        """The length of each row, in vertex order."""
        return map(sub, self.start[1:], self.start)

    def sources(self) -> Iterator:
        """The vertex whose row holds each entry of ``flat``, in order."""
        return chain.from_iterable(map(repeat, range(len(self)), self.degrees()))

    def __eq__(self, other):
        if isinstance(other, Successors):
            return self.start == other.start and self.flat == other.flat
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self):
        return f"Successors({tuple(self)!r})"


@dataclass(frozen=True)
class Arena:
    """A finite directed game graph with a vertex partition between two players.

    ``owner[v]`` is 0 or 1.  ``succ`` is the successor table, a
    ``Successors``: ``succ[v]`` is the sorted tuple of the successor
    indices of ``v``, and ``succ.flat`` and ``succ.start`` hold every row
    in two int arrays.
    ``names[v]`` is the external name of ``v``; ``names`` is a tuple, or for
    the arenas built by a reduction or a monitor product a sequence whose
    names are built on access.  Every vertex is expected to have at least
    one successor; ``validate`` reports vertices that do not.
    """

    names: Sequence
    owner: tuple
    succ: Successors

    @staticmethod
    def build(owner: Sequence[int], edges: Iterable, names: Sequence = None) -> "Arena":
        n = len(owner)
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("names and owner must have the same length")
        succ = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            succ[u].add(v)
        return Arena(names, tuple(owner), Successors.from_rows(map(sorted, succ)))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown vertex {name!r}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.succ[u]

    def edges(self) -> Iterator:
        return zip(self.succ.sources(), self.succ.flat)

    def predecessors(self) -> tuple:
        """The predecessors of each vertex as two ``array('i')``, ``start``
        and ``sources``, four bytes an edge: those of v are
        ``sources[start[v]:start[v + 1]]``, in increasing order.  In-degrees
        are counted first; then the edges are walked in order, each source
        written at its target's cursor, which begins at the slice's first
        entry and ends at the next slice's, so the cursors, after a 0, are
        the offsets."""
        flat = self.succ.flat
        indegree = [0] * self.n
        for v in flat:
            indegree[v] += 1
        cursor = array("i", accumulate(indegree, initial=0))
        cursor.pop()  # the edge count: cursor[v] is the first entry of v's slice
        sources = array("i", [0]) * len(flat)
        for u, v in self.edges():
            i = cursor[v]
            cursor[v] = i + 1
            sources[i] = u
        cursor.insert(0, 0)
        return cursor, sources

    def swap_roles(self) -> "Arena":
        """The same graph with the players exchanged."""
        return Arena(self.names, tuple(1 - p for p in self.owner), self.succ)

    def set_str(self, mask: int) -> str:
        return "{" + ",".join(self.names[v] for v in iter_bits(mask)) + "}"

    def word_str(self, word: Sequence[int]) -> str:
        """The names along ``word``, joined by nothing when every name is one
        character long, and otherwise by the first of ``.``, a space and the
        characters from U+0001 up that no name holds, so splitting at the
        separator gives the names back: the word reads back unambiguously."""
        names = self.names
        if all(len(nm) == 1 for nm in names):
            return "".join(names[v] for v in word)
        free = (s for s in chain(". ", map(chr, count(1))) if not any(s in nm for nm in names))
        return next(free).join(names[v] for v in word)


@dataclass(frozen=True)
class MullerCondition:
    """A partition of the arena's loops: Player 0 wins a play iff its infinity
    set belongs to ``f0``; the remaining loops are Player 1's.

    ``f0`` holds vertex bitmasks.
    """

    f0: frozenset


@dataclass(frozen=True)
class BuchiCondition:
    """Player 0 wins iff the play visits ``target`` infinitely often."""

    target: int


@dataclass(frozen=True)
class CoBuchiCondition:
    """Player 0 wins iff the play eventually stays inside ``persistent``."""

    persistent: int


@dataclass(frozen=True)
class ParityCondition:
    """Player 0 wins iff the minimal priority seen infinitely often is even."""

    priority: tuple


@dataclass(frozen=True)
class RequestResponseCondition:
    """Player 0 wins iff every visit to a request set is followed, strictly
    later, by a visit to the matching response set.

    ``pairs`` holds (request mask, response mask) tuples.
    """

    pairs: tuple


Condition = Union[
    MullerCondition,
    BuchiCondition,
    CoBuchiCondition,
    ParityCondition,
    RequestResponseCondition,
]


def is_loop(arena: Arena, s: int, pred: tuple = None) -> bool:
    """True iff ``s`` is a non-empty strongly connected vertex set.

    A singleton {v} counts as a loop only if v has a self-loop: a path from
    v back to v inside {v} has to use it.  ``pred`` is
    ``arena.predecessors()``, built here when it is needed and not given,
    so a caller testing many sets builds it once.
    """
    if s == 0:
        return False
    first = (s & -s).bit_length() - 1
    if s == 1 << first:
        return arena.has_edge(first, first)
    # forward and backward reachability inside s from one vertex
    if _reach(s, first, arena.succ.__getitem__) != s:
        return False
    start, sources = pred or arena.predecessors()
    return _reach(s, first, lambda u: sources[start[u] : start[u + 1]]) == s


def _reach(s: int, first: int, neighbours: Callable) -> int:
    """The vertices of ``s`` reachable from ``first`` inside ``s``, where
    ``neighbours(u)`` lists the vertices one step from ``u``."""
    reached = 1 << first
    frontier = [first]
    while frontier:
        u = frontier.pop()
        for w in neighbours(u):
            b = 1 << w
            if s & b and not reached & b:
                reached |= b
                frontier.append(w)
    return reached


def check_loop_limit(n: int) -> None:
    """Raise SizeLimitError if loops over ``n`` vertices are too many to enumerate."""
    if n > DEFAULT_LOOP_LIMIT:
        raise SizeLimitError(
            f"loop enumeration over {n} vertices exceeds the guard of {DEFAULT_LOOP_LIMIT}"
        )


def enumerate_loops(arena: Arena) -> tuple:
    """All loops of the arena, as a sorted tuple of bitmasks.

    Exponential in the vertex count; guarded by ``check_loop_limit``.
    """
    check_loop_limit(arena.n)
    pred = arena.predecessors()
    return tuple(s for s in range(1, arena.full_mask + 1) if is_loop(arena, s, pred))


def f1_loops(arena: Arena, muller: MullerCondition) -> tuple:
    """The loops that are not in ``f0``, sorted."""
    return tuple(s for s in enumerate_loops(arena) if s not in muller.f0)


def validate(arena: Arena, condition: Condition) -> list:
    """Check all structural invariants; returns a list of violation messages
    (empty iff the game is well-formed)."""
    out = []
    for v in range(arena.n):
        if not arena.succ[v]:
            out.append(f"vertex {arena.names[v]}: no outgoing edge")
        if arena.owner[v] not in (0, 1):
            out.append(f"vertex {arena.names[v]}: owner must be 0 or 1")
    full = arena.full_mask
    if isinstance(condition, MullerCondition):
        pred = arena.predecessors()
        for s in sorted(condition.f0):
            if s == 0:
                out.append("f0 member {}: empty set")
            elif s & ~full:
                out.append(f"f0 member: unknown vertices in mask {s:#x}")
            elif not is_loop(arena, s, pred):
                out.append(f"f0 member {arena.set_str(s)}: not a loop")
    elif isinstance(condition, (BuchiCondition, CoBuchiCondition)):
        mask = condition.target if isinstance(condition, BuchiCondition) else condition.persistent
        if mask & ~full:
            out.append(f"condition: unknown vertices in mask {mask:#x}")
    elif isinstance(condition, ParityCondition):
        if len(condition.priority) != arena.n:
            out.append("priority map must cover exactly the vertex set")
        else:
            for v, p in enumerate(condition.priority):
                if p < 0:
                    out.append(f"vertex {arena.names[v]}: negative priority")
    elif isinstance(condition, RequestResponseCondition):
        for j, (q, p) in enumerate(condition.pairs):
            if q & ~full or p & ~full:
                out.append(f"pair {j}: unknown vertices")
    else:
        out.append(f"unsupported condition {type(condition).__name__}")
    return out
