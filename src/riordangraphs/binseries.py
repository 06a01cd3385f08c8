"""Truncated formal power series over GF(2).

A series is a dense coefficient block packed into one Python int (bit k
holds the coefficient of z^k) plus an explicit precision: the number of
coefficients actually known.  Precision is state, never inferred.  Every
operation returns a result only as precise as its inputs -- the minimum
of the input precisions, one less for the derivative -- so unknown
coefficients are never fabricated.

Bit-string literals (CLI and tests) are ASCII '0'/'1' with degree 0
first: "1101" is 1 + z + z^3.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CompositionError, InvertibilityError, PrecisionError, UsageError

__all__ = ["BinarySeries", "named_series", "from_bitstring"]

NAMED_FAMILIES = ("catalan", "geometric", "one", "z")


def _mask(precision: int) -> int:
    return (1 << precision) - 1


def _even_mask(precision: int) -> int:
    # 0b...0101 -- ones at even bit positions only
    half = (precision + 1) // 2
    return ((1 << (2 * half)) - 1) // 3 & _mask(precision)


def _mul_bits(a: int, b: int, precision: int) -> int:
    """Carryless (XOR) product of two coefficient masks, truncated."""
    m = _mask(precision)
    a &= m
    b &= m
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out & m


def _compose_bits(abits: int, bbits: int, precision: int) -> int:
    """a(b(z)) on coefficient masks, truncated; assumes b(0) = 0."""
    out = 0
    for k in range(precision - 1, -1, -1):
        out = _mul_bits(out, bbits, precision) ^ ((abits >> k) & 1)
    return out


# C_n is odd exactly when n + 1 is a power of two: `catalan_bit` tests one
# index in constant time, `_catalan_bits` sets each such bit 2^k - 1 of a mask.
def catalan_bit(n: int) -> int:
    """Parity of the n-th Catalan number: 1 exactly when n+1 is a power of two."""
    if n < 0:
        raise UsageError(f"index must be nonnegative, got {n}")
    return 1 if (n + 1) & n == 0 else 0


def _catalan_bits(precision: int) -> int:
    return sum(1 << (1 << k) - 1 for k in range(precision.bit_length()))


class BinarySeries:
    """Immutable GF(2) power series prefix."""

    __slots__ = ("bits", "precision")

    def __init__(self, bits: int, precision: int):
        if precision < 1:
            raise PrecisionError(f"precision must be at least 1, got {precision}")
        self.bits = bits & _mask(precision)
        self.precision = precision

    # -- inspection ----------------------------------------------------

    def coeff(self, k: int) -> int:
        """Coefficient of z^k, for 0 <= k < precision."""
        if not 0 <= k < self.precision:
            raise PrecisionError(
                f"coefficient {k} outside known precision {self.precision}"
            )
        return (self.bits >> k) & 1

    def coeffs(self) -> tuple[int, ...]:
        return _text_bits(self.to_bitstring())

    def to_bitstring(self) -> str:
        return _to_bitstring(self.bits, self.precision)

    def is_zero(self) -> bool:
        return self.bits == 0

    def prefix_eq(self, other: "BinarySeries", k: int) -> bool:
        """Compare the first k coefficients, k at most both precisions."""
        if k > self.precision or k > other.precision:
            raise PrecisionError(
                f"prefix length {k} exceeds precision ({self.precision}, {other.precision})"
            )
        m = _mask(k)
        return (self.bits & m) == (other.bits & m)

    def truncate(self, precision: int) -> "BinarySeries":
        """Forget coefficients beyond `precision` (must not exceed current)."""
        if precision > self.precision:
            raise PrecisionError(
                f"cannot extend precision {self.precision} to {precision}"
            )
        return BinarySeries(self.bits, precision)

    # -- ring operations -----------------------------------------------

    def add(self, other: "BinarySeries") -> "BinarySeries":
        """Coefficientwise XOR; precision is the minimum of the inputs."""
        p = min(self.precision, other.precision)
        return BinarySeries(self.bits ^ other.bits, p)

    def mul(self, other: "BinarySeries") -> "BinarySeries":
        """Cauchy product mod 2; precision is the minimum of the inputs."""
        p = min(self.precision, other.precision)
        return BinarySeries(_mul_bits(self.bits, other.bits, p), p)

    def pow(self, e: int) -> "BinarySeries":
        """Repeated multiplication; pow(a, 0) is 1 at a's precision."""
        if e < 0:
            raise UsageError(f"exponent must be nonnegative, got {e}")
        p = self.precision
        out = 1
        base = self.bits
        while e:
            if e & 1:
                out = _mul_bits(out, base, p)
            e >>= 1
            if e:
                base = _mul_bits(base, base, p)
        return BinarySeries(out, p)

    def compose(self, inner: "BinarySeries") -> "BinarySeries":
        """self(inner(z)); inner must have zero constant term."""
        if inner.bits & 1:
            raise CompositionError("inner series must satisfy b(0) = 0")
        p = min(self.precision, inner.precision)
        return BinarySeries(_compose_bits(self.bits, inner.bits, p), p)

    def comp_inverse(self) -> "BinarySeries":
        """Compositional inverse of a proper series (f(0)=0, f'(0)=1).

        Solved coefficient by coefficient: once c_2..c_{k-1} are fixed,
        the degree-k coefficient of f(partial inverse) is off by exactly
        c_k, so c_k is read straight from the residual.
        """
        if self.bits & 1 or not (self.bits >> 1) & 1:
            raise InvertibilityError("compositional inverse needs f(0) = 0 and f'(0) = 1")
        p = self.precision
        g = 2  # z
        for k in range(2, p):
            r = _compose_bits(self.bits, g, k + 1)
            if (r >> k) & 1:
                g |= 1 << k
        return BinarySeries(g, p)

    def derivative(self) -> "BinarySeries":
        """Formal derivative; keeps odd-degree coefficients, shifted down."""
        if self.precision < 2:
            raise PrecisionError("derivative needs precision at least 2")
        p = self.precision - 1
        return BinarySeries((self.bits >> 1) & _even_mask(p), p)

    def reciprocal(self) -> "BinarySeries":
        """Multiplicative inverse of a unit series (a(0) = 1), full precision."""
        if not self.bits & 1:
            raise InvertibilityError("reciprocal needs a(0) = 1")
        p = self.precision
        shifted = self.bits >> 1  # bit j-1 = a_j
        r = 1
        rrev = 1  # bits of r_0..r_{k-1}, reversed
        for k in range(1, p):
            b = (shifted & rrev).bit_count() & 1
            r |= b << k
            rrev = (rrev << 1) | b
        return BinarySeries(r, p)

    # -- conveniences ----------------------------------------------------

    __add__ = add
    __mul__ = mul

    def __eq__(self, other) -> bool:
        # Series compare equal only at equal precision; use prefix_eq for
        # prefix comparisons.
        if not isinstance(other, BinarySeries):
            return NotImplemented
        return self.precision == other.precision and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.bits, self.precision))

    def __repr__(self) -> str:
        return f"BinarySeries({self.to_bitstring()!r})"


def _to_bitstring(mask: int, width: int) -> str:
    """`mask` as '0'/'1' text, bit k as character k, for 0 <= mask < 2^width
    and width >= 1: the one layout of masks as text, which `from_bitstring`
    reads back."""
    return format(mask, f"0{width}b")[::-1]


def _bits_text(bits: Sequence[int]) -> str:
    """0/1 entries as `0`/`1` text, entry t as character t."""
    return bytes(bits).translate(bytes.maketrans(b"\0\1", b"01")).decode()


def _text_bits(text: str) -> tuple[int, ...]:
    """Text of `0`/`1` only as 0/1 entries, character t as entry t (`_bits_text` inverted)."""
    return tuple(text.encode().translate(bytes.maketrans(b"01", b"\0\1")))


def from_bitstring(s: str) -> BinarySeries:
    """Parse a '0'/'1' literal, degree 0 first; precision = len(s)."""
    if not s or set(s) - {"0", "1"}:
        raise UsageError(f"bad bit-string literal {s!r}")
    return BinarySeries(int(s[::-1], 2), len(s))


def named_series(name: str, precision: int) -> BinarySeries:
    """Construct a named series prefix: catalan, geometric (1/(1-z)), one, z."""
    if name == "catalan":
        return BinarySeries(_catalan_bits(precision), precision)
    if name == "geometric":
        return BinarySeries(_mask(precision), precision)
    if name == "one":
        return BinarySeries(1, precision)
    if name == "z":
        return BinarySeries(2, precision)
    raise UsageError(f"unknown series family {name!r}; expected one of {NAMED_FAMILIES}")
