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
RANDOM_VERTEX_LIMIT = 1_000  # random_game draws n * n edge coins


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


class View(_Sequence):
    """The read-only tuple of ``n`` items ``item(i)``, each built on access:
    the rows of a ``Successors`` and the names of quotient and product
    vertices.  It indexes, slices, compares and hashes as that tuple."""

    __slots__ = ("_n", "_item")

    def __init__(self, n: int, item: Callable):
        self._n = n
        self._item = item

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if i.__class__ is slice:  # slice has no subclasses; cheaper than isinstance
            return tuple(map(self._item, range(self._n)[i]))
        if not 0 <= i < self._n:  # a negative index counts from the end, as in a tuple
            i = range(self._n)[i]
        return self._item(i)

    def __iter__(self) -> Iterator:
        return map(self._item, range(self._n))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, View)) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"{type(self).__name__}({tuple(self)!r})"


class Successors(View):
    """A successor table as compressed sparse rows, a ``View`` of its rows
    as tuples: ``flat`` holds every row in vertex order and ``start`` the
    n + 1 row offsets, two ``array('i')`` of four bytes an entry.  A reader
    that walks the whole table reads the two arrays."""

    __slots__ = ("flat", "start")

    def __init__(self, flat: array, start: array):
        # the row closure holds the arrays, not the table, so no cycle
        super().__init__(len(start) - 1, lambda v: tuple(flat[start[v] : start[v + 1]]))
        self.flat = flat
        self.start = start

    def __reduce__(self):
        return Successors, (self.flat, self.start)

    @classmethod
    def from_rows(cls, rows: Iterable) -> "Successors":
        rows = list(rows)
        return cls(
            array("i", chain.from_iterable(rows)), array("i", accumulate(map(len, rows), initial=0))
        )

    def degrees(self) -> Iterator:
        """The length of each row, in vertex order."""
        return map(sub, self.start[1:], self.start)

    def sources(self) -> Iterator:
        """The vertex whose row holds each entry of ``flat``, in order."""
        return chain.from_iterable(map(repeat, range(len(self)), self.degrees()))


@dataclass(frozen=True)
class Arena:
    """A finite directed game graph with a vertex partition between two players.

    ``owner[v]`` is 0 or 1; ``owner`` is a tuple, or ``bytes`` in a
    quotient or a monitor product.  ``succ`` is the successor table, a
    ``Successors``: ``succ[v]`` is the sorted tuple of the successor
    indices of ``v``, and ``succ.flat`` and ``succ.start`` hold every row
    in two int arrays.
    ``names[v]`` is the external name of ``v``; ``names`` is a tuple, or for
    the arenas built by a reduction or a monitor product a ``View`` whose
    names are built on access.  Every vertex is expected to have at least
    one successor; ``validate`` reports vertices that do not.
    """

    names: Sequence
    owner: Sequence
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

    def predecessors(self) -> Successors:
        """The predecessor table, a ``Successors`` whose row v holds the
        sources of the edges into v, in increasing order.  In-degrees are
        counted first; then the edges are walked in order, each source
        written at its target's cursor, which begins at the row's first
        entry and ends at the next row's, so the cursors, after a 0, are
        the offsets."""
        flat = self.succ.flat
        indegree = [0] * self.n
        for v in flat:
            indegree[v] += 1
        cursor = array("i", accumulate(indegree, initial=0))
        cursor.pop()  # the edge count: cursor[v] is the first entry of v's row
        sources = array("i", [0]) * len(flat)
        for u, v in self.edges():
            i = cursor[v]
            cursor[v] = i + 1
            sources[i] = u
        cursor.insert(0, 0)
        return Successors(sources, cursor)

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


def is_loop(arena: Arena, s: int, pred: Successors = None) -> bool:
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
    return _reach(s, first, (pred or arena.predecessors()).__getitem__) == s


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
