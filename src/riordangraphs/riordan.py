"""Riordan matrices modulo 2 and their A-sequences.

A Riordan pair (g, f) with f(0) = 0 defines the lower-triangular matrix
whose (i, j) entry is the coefficient of z^i in g*f^j.  The pair is
proper when g(0) = 1 and f'(0) = 1; a proper matrix is equivalently
described by its binary A-sequence (1, a_1, a_2, ...), related to f by
f = z*A(f), i.e. A = z / fbar with fbar the compositional inverse of f.

Triangles here are 0-indexed; `rgraph` states how its 1-based graph
vertices sit in bits.

A-sequence literals are bit strings with a_0 first, e.g. "1100000".
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, islice, repeat
from typing import Iterable, Sequence, Union

from .binseries import BinarySeries, _bits_text, _text_bits, _to_bitstring, from_bitstring
from .binseries import catalan_bit, named_series
from .errors import InvertibilityError, LengthError, PatternError
from .errors import PrecisionError, UsageError

__all__ = [
    "ASequence",
    "BinaryTriangle",
    "RiordanPair",
    "a_sequence",
    "bell_matrix_from_aseq",
    "catalan_bit",
    "catalan_pair",
    "g_from_aseq",
    "io_pattern_extend",
    "is_io_pattern",
    "pascal_pair",
    "require_io_pattern",
    "riordan_matrix",
]


class ASequence:
    """A finite prefix (1, a_1, a_2, ...) of a binary A-sequence."""

    __slots__ = ("bits",)

    def __init__(self, bits: Union[Iterable[int], str]):
        if isinstance(bits, str) and (not bits or set(bits) - {"0", "1"}):
            raise UsageError(f"bad A-sequence literal {bits!r}")
        vals = _text_bits(bits) if isinstance(bits, str) else tuple(map(int, bits))
        if not {0, 1}.issuperset(vals):
            raise UsageError("A-sequence entries must be bits")
        if not vals or vals[0] != 1:
            raise UsageError("a binary A-sequence starts with a_0 = 1")
        self.bits = vals

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ASequence):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"ASequence({self.to_bitstring()!r})"

    def to_bitstring(self) -> str:
        return _bits_text(self.bits)

    def series(self, precision: int) -> BinarySeries:
        """The generating function A(z) of this prefix, to `precision` terms."""
        if precision > len(self.bits):
            raise LengthError(
                f"A-sequence of length {len(self.bits)} cannot give precision {precision}"
            )
        return from_bitstring(self.to_bitstring()).truncate(precision)


def _io_pattern(frees: Sequence[int], length: int) -> tuple[int, ...]:
    """(1, 1, f0, f0, f1, f1, ...) cut to `length`, with 0 for the frees
    past the end of `frees`: the io pattern whose free bits a2, a4, ...
    (a trailing unpaired slot too) are `frees`."""
    bits = [1, 1] + [0] * (2 * len(frees))
    bits[2::2] = bits[3::2] = frees
    return (*bits, *repeat(0, length - len(bits)))[:length]


def _io_frees(length: int) -> int:
    """Count of the free bits a2, a4, ... of an io pattern of `length`."""
    return (length - 1) // 2


def _io_length(order: int) -> int:
    """Length of the io patterns that determine graphs of `order` (at least two)."""
    return max(order - 1, 2)


def is_io_pattern(a: ASequence) -> bool:
    """True when a fits (1, 1, a2, a2, a4, a4, ...): it is at least two
    long and the pattern of its own free bits a2, a4, ...

    Adjacent entries are constrained in pairs (a_{2j}, a_{2j+1}); a
    trailing unpaired even-indexed entry is free.
    """
    return len(a) >= 2 and a.bits == _io_pattern(a.bits[2::2], len(a))


def require_io_pattern(a: ASequence, order: int) -> None:
    """The gate of everything restricted to io-decomposable Bell graphs: `a`
    is an io pattern (else PatternError, naming the first entry off the pattern)
    of length >= order - 1 (else LengthError)."""
    if not is_io_pattern(a):
        # one entry past the end, so that a lone a_0 departs at a missing a_1
        got, want = (*a.bits, "missing"), _io_pattern(a.bits[2::2], len(a) + 1)
        i = next(i for i, (b, w) in enumerate(zip(got, want)) if b != w)
        raise PatternError(f"A-sequence is not an io pattern: a_{i} is {got[i]}, not {want[i]}")
    _require_length(len(a), order)


def _require_length(length: int, order: int) -> None:
    """The length gate of graph orders: a graph of `order` reads a_0..a_{order-2}."""
    if length < order - 1:
        raise LengthError(
            f"order {order} needs an A-sequence of length {order - 1}, got {length}"
        )


def io_pattern_extend(a: ASequence, length: int) -> ASequence:
    """Cut or extend an io pattern to `length`: odd slots copy their pair
    opener, new even slots get 0 (callers only use positions where that
    choice cancels out)."""
    return ASequence(_io_pattern(a.bits[2::2], length))


class RiordanPair:
    """A pair (g, f) of series with f(0) = 0."""

    __slots__ = ("g", "f")

    def __init__(self, g: BinarySeries, f: BinarySeries):
        if f.coeff(0) != 0:
            raise UsageError("a Riordan pair needs f(0) = 0")
        self.g = g
        self.f = f

    @property
    def proper(self) -> bool:
        return self.g.coeff(0) == 1 and self.f.precision >= 2 and self.f.coeff(1) == 1

    @property
    def precision(self) -> int:
        return min(self.g.precision, self.f.precision)

    def __repr__(self) -> str:
        return f"RiordanPair(g={self.g.to_bitstring()!r}, f={self.f.to_bitstring()!r})"


def catalan_pair(precision: int) -> RiordanPair:
    """(C, zC) truncated: the pair behind the Catalan graph."""
    c = named_series("catalan", precision)
    return RiordanPair(c, named_series("z", precision).mul(c))


def pascal_pair(precision: int) -> RiordanPair:
    """(1/(1-z), z/(1-z)) truncated: the pair behind the Pascal graph."""
    g = named_series("geometric", precision)
    return RiordanPair(g, named_series("z", precision).mul(g))


class BinaryTriangle:
    """An n x n lower-triangular (0,1) matrix, rows packed as bit masks."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Sequence[int]):
        self.order = len(rows)
        self.rows = tuple(r & ((1 << (i + 1)) - 1) for i, r in enumerate(rows))

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j <= i < self.order:
            raise UsageError(f"triangle entry ({i}, {j}) outside order {self.order}")
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> tuple[int, ...]:
        return tuple((self.rows[i] >> j) & 1 for i in range(j, self.order))

    def to_lines(self) -> list[str]:
        return [_to_bitstring(r, i + 1) for i, r in enumerate(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryTriangle):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BinaryTriangle(order={self.order})"


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the widest square tile packed into one int, 8 KB: tiles keep the
# transpose's memory near the matrix's own, where one int for the whole
# matrix would need log2 N masks of N^2 bits each
_TILE = 256


@cache  # the one table of masks, filled on first use: a launch builds only its widths
def _swap_masks(n: int) -> tuple[tuple[int, int], ...]:
    """The log2 n delta-swaps that transpose an n x n bit tile packed with
    row r at bit r*n, as (distance, mask) pairs.  Swap s = 2^k exchanges
    bit k of the row with bit k of the column: its mask marks each entry
    (r, c) with r_k = 0 and c_k = 1, which trades places with (r + s, c - s),
    s*(n - 1) bits up.  Each mask repeats one row's byte pattern."""
    row = n // 8
    swaps = []
    for k in range(n.bit_length() - 1):
        s = 1 << k
        if s < 8:  # the columns c with c_k = 1, as one row's bytes
            cols = bytes([(0xAA, 0xCC, 0xF0)[k]]) * row
        else:
            cols = (bytes(s // 8) + b"\xff" * (s // 8)) * (n // (2 * s))
        mask = (cols * s + bytes(row * s)) * (n // (2 * s))  # on the rows r with r_k = 0
        swaps.append((s * (n - 1), int.from_bytes(mask, "little")))
    return tuple(swaps)


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The bit matrix `masks` read by columns: bit j of out[i] is bit i of
    masks[j], for masks below 2^width.  This is the one place where bits
    move between row and column order.

    The matrix is cut into n x n tiles, n the smallest power of two >= 8
    that covers it, at most _TILE.  Each tile is packed into one int,
    transposed by the delta-swaps of `_swap_masks(n)` (Warren, Hacker's
    Delight, 2nd ed., section 7-3) and cut back into rows by byte slices.
    """
    rows = len(masks)
    n = min(_TILE, max(8, 1 << (max(rows, width) - 1).bit_length()))
    step, swaps = n // 8, _swap_masks(n)  # bytes per tile row
    size = -(-width // n) * step  # bytes per input row, whole tiles
    packed = [mask.to_bytes(size, "little") for mask in masks]
    out = []
    for c in range(0, size, step):  # byte offset of the tile column of out[8c:8c + n]
        cut = range(0, min(n, width - 8 * c) * step, step)  # those rows in a transposed tile
        pieces = []
        for r in range(0, rows or 1, n):  # no rows: one zero tile
            block = packed[r:r + n]
            if size > step:  # more than one tile column: this one's bytes of each row
                block = [b[c:c + step] for b in block]
            p = int.from_bytes(b"".join(block), "little")
            if p:
                for d, m in swaps:
                    t = (p ^ (p >> d)) & m
                    p ^= t ^ (t << d)
            tile = p.to_bytes(n * step, "little")
            pieces.append([tile[i:i + step] for i in cut])
        if len(pieces) == 1:
            out += [int.from_bytes(piece, "little") for piece in pieces[0]]
        else:
            out += [int.from_bytes(b"".join(row), "little") for row in zip(*pieces)]
    return out


def _columns(pair: RiordanPair, n: int) -> list[int]:
    """Columns g f^j, j < n, of the leading n x n block, as masks: bit i is row i."""
    f = pair.f.truncate(n)
    cols = accumulate(repeat(f, n - 1), BinarySeries.mul, initial=pair.g.truncate(n))
    return [c.bits for c in cols]


def riordan_matrix(pair: RiordanPair, n: int) -> BinaryTriangle:
    """Leading n x n block of the matrix of (g, f): entry (i, j) = [z^i] g f^j."""
    if n < 1:
        raise UsageError(f"order must be positive, got {n}")
    if pair.precision < n:
        raise PrecisionError(
            f"pair precision {pair.precision} too small for order {n}"
        )
    return BinaryTriangle(_transpose(_columns(pair, n), n))


def bell_matrix_from_aseq(a: ASequence, n: int) -> BinaryTriangle:
    """Order-n Bell-type triangle grown row by row from its A-sequence: row i
    is A correlated with row i-1 moved up one place,
        b_{i,j} = a_0 b_{i-1,j-1} + a_1 b_{i-1,j} + a_2 b_{i-1,j+1} + ...  (mod 2),
    with b_{i-1,-1} = 0 (column 0 too), so row i consumes a_0..a_i.
    """
    if n < 1:
        raise UsageError(f"order must be positive, got {n}")
    if len(a) < n:
        raise LengthError(f"order {n} needs an A-sequence of length {n}, got {len(a)}")
    bits = a.bits[:n]
    shifts = [t for t, b in enumerate(bits) if b]
    reversed_a = int(_bits_text(bits), 2)  # bit n-1-t = a_t
    rows = [1]
    for i, live in zip(range(1, n), islice(accumulate(bits), 1, None)):
        # Row i-1 moved up has bits 0..i, so the `live` shifts t <= i act on it.
        # Loop over the sparser side; a set row bit costs about three shifts.
        up, row = rows[-1] << 1, 0
        if 3 * up.bit_count() >= live:
            for t in shifts:
                if t > i:
                    break
                row ^= up >> t
        else:
            while up:
                low = up & -up
                row ^= reversed_a >> (n - low.bit_length())  # bit j = a_{k-j}, k = up's bit
                up ^= low
        rows.append(row)
    return BinaryTriangle(rows)


def g_from_aseq(a: ASequence, precision: int) -> BinarySeries:
    """Column 0 of the Bell triangle read back as a series."""
    rows = bell_matrix_from_aseq(a, precision).rows
    return BinarySeries(_transpose([r & 1 for r in rows], 1)[0], precision)


def a_sequence(pair: RiordanPair, length: int) -> ASequence:
    """First `length` entries of the A-sequence of a proper pair: z / fbar."""
    if length < 1:
        raise UsageError(f"A-sequence length must be positive, got {length}")
    if not pair.proper:
        raise InvertibilityError("A-sequence extraction needs a proper pair")
    if pair.f.precision < length + 1:
        raise PrecisionError(
            f"f precision {pair.f.precision} too small for A-sequence length {length}"
        )
    fbar = pair.f.truncate(length + 1).comp_inverse()
    unit = BinarySeries(fbar.bits >> 1, length)  # fbar / z, a unit series
    a = unit.reciprocal()
    return ASequence(a.coeffs())
