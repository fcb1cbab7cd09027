"""Incremental score and accumulator calculus over play prefixes.

For a vertex set F, ``score`` counts how often F has been traversed
completely since the last visit outside F, and ``acc`` collects the vertices
of F seen since the last score increase or reset.  A score sheet bundles
the states of a whole family of tracked sets; with the last vertex it is
the canonical representative of a score-equivalence class.

One kernel, ``PackedKernel``, packs a sheet and its last vertex into one
int, a key, and steps it: one ``step_lanes`` call steps a whole successor
row, read from its lanes, and tells which steps take a score to the
kernel's cap.  The quotient construction steps rows; the strategy verifier
and the Muller monitor step one vertex at a time with ``entries_step``, a
one-lane row.  ``sheet_le`` and ``PackedKernel.rank`` compare and order
keys without unpacking them.  A key may carry a state number above its
last vertex, which a step drops: the verifier's search states are such
keys.
"""
from __future__ import annotations

from typing import Iterable, Sequence


def family_of(sets: Iterable[int]) -> tuple:
    """Canonical (sorted, deduplicated) tuple of tracked set masks."""
    return tuple(sorted(set(sets)))


class PackedKernel:
    """The scoring update for a whole tracked family on one packed int, its
    score vector, with scores capped at ``cap``.  One letter v updates the
    (score, acc) pair of each tracked set f:

    - v outside f resets it to (0, {});
    - v completing the accumulator (acc = f minus v) increments the score
      and empties the accumulator;
    - otherwise v joins the accumulator.

    Tracked set i owns the field of n + b bits at offset i * (n + b), with
    b = max(2, cap.bit_length()): its accumulator in the low n bits and its
    score in the next b.  A vector whose scores are below the cap steps to
    scores of at most the cap, which the b bits hold; the all-zero vector
    is the empty play, so stepping it gives the single-letter vector of a
    vertex.  A key is a vector with its play's last vertex in the
    ``max(1, (n - 1).bit_length())`` bits above the ``top`` bits of the
    fields; a step reads only the fields, so it steps a key in place, and
    the lane of successor ``v`` puts ``v`` above the fields it writes.
    ``with_state(key, m)`` puts a state number ``m`` above the vertex,
    which a step drops again.  ``last(key)`` reads the vertex back,
    ``state(key)`` the state number and ``vector(key)`` strips both; they,
    ``rank(key)`` and the module's ``sheet_le`` are the only readers of the
    layout, so a change of it changes this module alone.
    """

    def __init__(self, family: Sequence[int], n: int, cap: int):
        self.family = tuple(family)
        self.n = n
        bits = max(2, cap.bit_length())
        width = n + bits
        ones = (1 << n) - 1
        accm = slo = guard = 0
        for i in range(len(self.family)):
            accm |= ones << i * width
            slo |= 1 << i * width + n
            guard |= 1 << i * width + n + bits  # the bit above the field's score
        # _score has every score bit of each field, and _over adds
        # 2**b - cap to each score, which carries into the guard bit exactly
        # where the score is at least the cap
        self._accm, self._slo, self._guard, self._bits = accm, slo, guard, bits
        self._score, self._over = ((1 << bits) - 1) * slo, ((1 << bits) - cap) * slo
        self.top = len(self.family) * width
        self._fields = (1 << self.top) - 1
        vbits = max(1, (n - 1).bit_length())
        self._vmask, self._above = (1 << vbits) - 1, self.top + vbits
        # per vertex v, its lane: keep (the fields of sets containing v), rem
        # (f minus v, and all ones for the other fields, which never match),
        # bv (bit v in the fields of keep) and v above the fields
        self._lanes = []
        for v in range(n):
            b = 1 << v
            keep = rem = bv = 0
            for i, f in enumerate(self.family):
                if f & b:
                    keep |= ((1 << width) - 1) << i * width
                    rem |= (f & ~b) << i * width
                    bv |= b << i * width
                else:
                    rem |= ones << i * width
            self._lanes.append((keep, rem, bv, v << self.top))
        self._alone = [(lane,) for lane in self._lanes]  # each vertex's one-lane row

    def lanes(self, vs: Iterable[int]) -> tuple:
        """A row of successors ``vs`` made ready for ``step_lanes``: one
        lane per successor, holding what its step reads and the successor
        shifted above the fields.  A caller stepping many keys through one
        row makes its lanes once."""
        lanes = self._lanes
        return tuple([lanes[v] for v in vs])

    def step_lanes(self, x: int, lanes: Iterable[tuple]) -> tuple:
        """The key after each successor of a row of ``lanes`` from the key
        or vector ``x``, in order, as a list, and the list of the positions
        of the steps whose vector has a score of the cap.  Every score of
        ``x`` must be below the cap.

        One step resets the sets without v, lets a set whose accumulator is
        f minus v score and empty it, and adds v to the accumulator of the
        others; the bits above the fields come out as v.  Equality of
        each field with f minus v is read off the carry of ``d + accm`` into
        the field's low score bit, and a step reaches the cap where adding
        ``_over`` to the new scores carries into a guard bit.
        """
        accm, slo, score, over, guard, n = (
            self._accm, self._slo, self._score, self._over, self._guard, self.n
        )
        ys, crossed = [], []
        append = ys.append
        for keep, rem, bv, last in lanes:
            y = x & keep
            d = (y ^ rem) & accm  # zero in the fields whose accumulator is f minus v
            eq = slo & ~(d + accm)
            # clear the accumulator bits of the eq fields, add one to their score
            y = ((y | bv) & ~(eq - (eq >> n))) + eq
            if (y & score) + over & guard:
                crossed.append(len(ys))
            append(y | last)
        return ys, crossed

    def last(self, key: int) -> int:
        """The last vertex of the play whose key is ``key``."""
        return key >> self.top & self._vmask

    def with_state(self, key: int, m: int) -> int:
        """``key``, which holds no state number, with the state number
        ``m >= 0`` above its last vertex."""
        return key | m << self._above

    def state(self, key: int) -> int:
        """The state number ``with_state`` put in ``key``."""
        return key >> self._above

    def vector(self, key: int) -> int:
        """The score vector of ``key``: the key without its last vertex."""
        return key & self._fields

    def rank(self, key: int) -> tuple:
        """The sum of the scores and the sum of the accumulator sizes of the
        tracked sets in ``key``, a key without a state number.  A key below
        another in the score preorder ranks lower, or has equal fields and
        ranks the same."""
        slo = self._slo
        scores = sum((key & slo << j).bit_count() << j for j in range(self._bits))
        return scores, (key & self._accm).bit_count()


def entries_step(key: int, v: int, kernel: PackedKernel) -> int:
    """The key after vertex ``v`` from ``key``, whose scores are below the
    kernel's cap, or -1 where the step takes a score to the cap: ``key``
    stepped through ``v``'s one-lane row."""
    (y,), crossed = kernel.step_lanes(key, kernel._alone[v])
    return -1 if crossed else y


def sheet_le(kernel: PackedKernel, a: int, b: int) -> bool:
    """The score preorder on keys of ``kernel`` without a state number,
    such as the quotient's class keys: same last vertex, and for every
    tracked set either a strictly smaller score or an equal score with a
    contained accumulator.

    Every set is compared at once: ``out`` holds the low score bit of each
    field whose accumulator in ``a`` is not inside the one in ``b`` (the
    carry of ``(a & ~b & accm) + accm`` into it), and each field must have
    score(b) >= score(a) + out.  Keys hold scores below the cap, so
    score(a) + out fits in the score bits, and subtracting it from score(b)
    with the guard bit above the field set borrows at most that guard bit,
    which stays set exactly where the inequality holds.

    Domination: a quotient class a below a winning class b wins.  A step
    by v keeps a' <= b' in each tracked set F.  Outside F, both reset.  A
    strictly smaller score gains at most one, so stays at most b's, which
    never falls; if equal, a's accumulator was just emptied.  With equal
    scores and acc(a) inside acc(b): if b completes F, a's score stays below
    b's or a completes too; if a completes F, acc(b) holds F minus v and is
    not F (completing empties it), so b completes as well; otherwise both
    add v.  So a' crosses the threshold only if b' does.  a and b share the
    last vertex, hence the owner and moves, so moving from a as b's winning
    strategy moves from b keeps the pair ordered and a off the sink.
    """
    if a >> kernel.top != b >> kernel.top:
        return False
    accm, score, guard = kernel._accm, kernel._score, kernel._guard
    out = kernel._slo & ((a & ~b & accm) + accm)
    return ((b & score | guard) - ((a & score) + out)) & guard == guard
