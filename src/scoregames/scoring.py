"""Incremental score and accumulator calculus over play prefixes.

For a vertex set F, ``score`` counts how often F has been traversed
completely since the last visit outside F, and ``acc`` collects the vertices
of F seen since the last score increase or reset.  Score sheets bundle the
states of a whole family of tracked sets together with the last vertex and
are the canonical representatives of score-equivalence classes.

The quotient construction packs a family's states into one int, laid out
and stepped by ``PackedKernel``: one kernel call steps a whole successor
row, read from its lanes.  The strategy verifier and the Muller monitor
keep a family's states as a string of codes from a ``CodeTable`` and step
it with ``entries_step``, one ``str.translate``.  The two kernels share
only ``score_step``.
"""
from __future__ import annotations

import sys
from typing import Iterable, NamedTuple, Sequence

from .arena import SizeLimitError

# A state of one tracked set is the plain pair (score, acc); ``acc`` is a
# bitmask, always a proper subset of the set.  ZERO is the one reset pair.
ZERO = (0, 0)


def score_step(f: int, state: tuple, v: int) -> tuple:
    """One letter of the scoring update for the set ``f`` (a bitmask):

    - v outside f resets to (0, {});
    - v completing the accumulator (acc = f minus v) increments the score
      and empties the accumulator;
    - otherwise v joins the accumulator.

    Folding from ``ZERO`` reproduces the single-letter base case, so word
    scores are plain folds of this step.
    """
    b = 1 << v
    if not f & b:
        return ZERO
    score, acc = state
    if acc == f & ~b:
        return (score + 1, 0)
    return (score, acc | b)


def family_of(sets: Iterable[int]) -> tuple:
    """Canonical (sorted, deduplicated) tuple of tracked set masks."""
    return tuple(sorted(set(sets)))


# Two code points of a sheet are reserved: "\x00" marks a transition a
# row has not computed yet and never appears in a sheet, and AT_CAP is a
# score at the table's cap, in any set; the other codes are the table's.
_UNKNOWN = 0
AT_CAP = "\x01"
_CODE_LIMIT = sys.maxunicode  # the last code point a str can hold


class CodeTable:
    """Score sheets as strings, for one tracked family on the vertices
    ``0..n-1``, with scores capped at ``cap``.

    Character i of a sheet is the code of tracked set i's (score, acc)
    pair: AT_CAP for a score of ``cap``, else the code that ``codes`` lists
    as (i, score, acc).  Codes are numbered from 2 in the order the table
    meets them, up to the last code point a str holds; more raise
    SizeLimitError.  ``rows[v]`` maps each code to its code after vertex v,
    for ``str.translate``, and ``entries_step`` fills each entry from
    ``score_step`` the first time a sheet needs it.  Every row covers every
    code and holds only ints, since ``translate`` keeps a code past a list's
    end and deletes one mapped to None.

    Equal sheets are equal strings, which cache their hash and take one
    byte per set while the table has fewer than 256 codes.  The caller owns
    the table and drops it with its sheets.
    """

    def __init__(self, family: Sequence[int], n: int, cap: int):
        self.family = tuple(family)
        self.cap = cap
        self.codes: list = [None, None]  # the reserved codes decode to nothing
        self.rows = [[_UNKNOWN, ord(AT_CAP)] for _ in range(n)]  # a capped score stays
        self._number: dict = {}

    def _code(self, i: int, state: tuple) -> int:
        score, acc = state
        if score >= self.cap:
            return ord(AT_CAP)
        key = (i, score, acc)
        c = self._number.get(key)
        if c is None:
            c = len(self.codes)
            if c > _CODE_LIMIT:
                raise SizeLimitError(f"score sheet code table exceeds its cap of {c - 2} codes")
            self._number[key] = c
            self.codes.append(key)
            for row in self.rows:
                row.append(_UNKNOWN)
        return c

    def encode(self, entries: Iterable[tuple]) -> str:
        """The sheet of the (score, acc) pairs ``entries``, aligned with the
        family."""
        return "".join(chr(self._code(i, state)) for i, state in enumerate(entries))

    def _fill(self, sheet: str, v: int) -> None:
        row, family, codes = self.rows[v], self.family, self.codes
        for c in set(map(ord, sheet)):
            if row[c] == _UNKNOWN:
                i, score, acc = codes[c]
                row[c] = self._code(i, score_step(family[i], (score, acc), v))


def entries_step(sheet: str, v: int, table: CodeTable) -> str:
    """The sheet after vertex ``v``: one ``str.translate`` through the
    table's row for ``v``, and a second once the row's missing entries for
    ``sheet`` are filled."""
    row = table.rows[v]
    out = sheet.translate(row)
    if "\x00" in out:
        table._fill(sheet, v)
        out = sheet.translate(row)
    return out


class PackedKernel:
    """``score_step`` for a whole tracked family on one packed int, the
    score vector of the quotient construction, where hashing and stepping
    dominate the running time.

    Tracked set i owns the field of n + 2 bits at offset i * (n + 2): its
    accumulator in the low n bits and its score in the next two.  Vectors
    below the threshold have scores of at most 2, so one increment still
    fits in the field; the all-zero vector is the empty play, so stepping
    it gives the single-letter vector of a vertex.  A class key of the
    quotient is a vector with its play's last vertex above the ``top`` bits
    of the fields; a step reads only the fields, so it steps a key in place,
    and the lane of successor ``v`` puts ``v`` above the fields it writes.
    ``last(key)`` reads the vertex back; a caller's hot loop may inline it
    as ``key >> top``, so a change of this layout changes that caller too.
    """

    def __init__(self, family: Sequence[int], n: int):
        self.family = tuple(family)
        self.n = n
        width = n + 2
        ones = (1 << n) - 1
        accm = slo = 0
        for i in range(len(self.family)):
            accm |= ones << i * width
            slo |= 1 << i * width + n
        self._accm, self._slo = accm, slo
        self.top = len(self.family) * width
        # per vertex v: keep (the fields of sets containing v), rem (f minus
        # v, and all ones for the other fields, which never match) and bv
        # (bit v in the fields of keep)
        self._masks = []
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
            self._masks.append((keep, rem, bv))

    def lanes(self, vs: Iterable[int]) -> tuple:
        """A row of successors ``vs`` made ready for ``step_lanes``: one
        lane per successor, holding what its step reads and the successor
        shifted above the fields.  A caller stepping many keys through one
        row makes its lanes once."""
        masks, top = self._masks, self.top
        return tuple(masks[v] + (v << top,) for v in vs)

    def step_lanes(self, x: int, lanes: Iterable[tuple], cap: int = 3) -> tuple:
        """The key after each successor of a row of ``lanes`` from the key
        or vector ``x``, in order, as a list, and the list of the positions
        of the steps whose vector has a score of ``cap`` (2 or 3).  Every
        score of ``x`` must be below ``cap``.

        One step resets the sets without v, lets a set whose accumulator is
        f minus v score and empty it, and adds v to the accumulator of the
        others; the bits above the fields come out as v.  Equality of
        each field with f minus v is read off the carry of ``d + accm`` into
        the field's score bit, and a step crosses ``cap`` where such a field
        scored ``cap - 1`` before.
        """
        accm, slo, n = self._accm, self._slo, self.n
        # below cap, only score cap - 1 sets score bit cap - 2; move it to bit 0
        below = cap - 2
        ys, crossed = [], []
        append = ys.append
        for keep, rem, bv, last in lanes:
            y = x & keep
            d = (y ^ rem) & accm  # zero in the fields whose accumulator is f minus v
            eq = slo & ~(d + accm)
            if eq & y >> below:
                crossed.append(len(ys))
            eq_acc = eq - (eq >> n)  # the accumulator bits of the eq fields
            append(((y | bv) & ~eq_acc) + eq | last)
        return ys, crossed

    def last(self, key: int) -> int:
        """The last vertex of the play whose class key is ``key``."""
        return key >> self.top

    def sheet(self, key: int) -> ScoreSheet:
        """The score sheet a class key packs: its last vertex and the
        (score, acc) pair of each tracked set, as folds of ``score_step``
        give them."""
        n, width, ones = self.n, self.n + 2, (1 << self.n) - 1
        fields = [key >> i * width for i in range(len(self.family))]
        return ScoreSheet(self.last(key), tuple((f >> n & 3, f & ones) for f in fields))


class ScoreSheet(NamedTuple):
    """Scores and accumulators of one play prefix for a fixed tracked family.

    ``entries`` is aligned with the family tuple the sheet was built from.
    Two prefixes with equal sheets are score-equivalent, so a sheet is its
    own class key.
    """

    last: int
    entries: tuple


def sheet_le(family: Sequence[int], a: ScoreSheet, b: ScoreSheet) -> bool:
    """The score preorder: same last vertex, and for every tracked set either
    a strictly smaller score or an equal score with a contained accumulator."""
    if a.last != b.last:
        return False
    assert len(a.entries) == len(family) == len(b.entries)
    for (sa, aa), (sb, ab) in zip(a.entries, b.entries):
        if sa < sb:
            continue
        if sa == sb and aa & ~ab == 0:
            continue
        return False
    return True
