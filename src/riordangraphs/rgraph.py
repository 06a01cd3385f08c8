"""Riordan graphs: construction, metrics, relabellings.

A Riordan graph of order n has vertices labelled 1..n and, below the
diagonal, adjacency r(i, j) = [z^(i-2)] g * f^(j-1) mod 2; the matrix is
symmetrized with a zero diagonal.  Bell-type graphs (f = zg) can instead
be grown from a binary A-sequence.  Since r(i, j) does not depend on n,
the graph of order m of a pair is the leading m x m block of every
larger graph of that pair, which `Graph.induced_prefix` takes.

Adjacency is stored as bit rows, and bit b of a row is vertex b + 1:
bit j-1 of rows[i-1] says whether vertices i and j are adjacent.  Every
public method takes and gives 1-based labels and converts by that rule.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .binseries import BinarySeries, _to_bitstring
from .errors import (
    DisconnectedError,
    IoViolationError,
    LengthError,
    PrecisionError,
    ScaleError,
    UsageError,
)
from .riordan import (
    ASequence,
    RiordanPair,
    _columns,
    _iter_bits,
    _transpose,
    bell_matrix_from_aseq,
    catalan_pair,
    io_pattern_extend,
    pascal_pair,
    require_io_pattern,
)

__all__ = [
    "DistanceReport",
    "Graph",
    "build",
    "build_bell_aseq",
    "catalan_graph",
    "pascal_graph",
    "reverse_formula",
]

DEFAULT_CLIQUE_CAP = 64


class DistanceReport(NamedTuple):
    """BFS distances from one source; None marks unreachable vertices."""

    source: int
    dists: tuple[Optional[int], ...]

    def distance(self, v: int) -> Optional[int]:
        return self.dists[v - 1]


class Graph:
    """Undirected graph on vertices 1..n with bit-row adjacency."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 1:
            raise UsageError(f"graph order must be positive, got {n}")
        if len(rows) != n:
            raise UsageError(f"expected {n} adjacency rows, got {len(rows)}")
        self.n = n
        self.rows = tuple(r & ((1 << n) - 1) for r in rows)

    # -- basics ----------------------------------------------------------

    def _check_vertex(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise UsageError(f"vertex {v} outside 1..{self.n}")
        return v - 1

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[self._check_vertex(u)] >> self._check_vertex(v)) & 1)

    def neighbors(self, v: int) -> set[int]:
        """Adjacency row of v as a set of vertex labels."""
        return {b + 1 for b in _iter_bits(self.rows[self._check_vertex(v)])}

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            for j in _iter_bits(self.rows[i]):
                if j > i:
                    out.append((i + 1, j + 1))
        return out

    def universal_vertices(self) -> set[int]:
        """All vertices adjacent to every other vertex."""
        full = (1 << self.n) - 1
        return {
            i + 1
            for i in range(self.n)
            if self.rows[i] == full ^ (1 << i)
        }

    # -- distances ---------------------------------------------------------

    def _sweep(self, s: int) -> tuple[list[int], int]:
        """BFS from 0-based vertex s: the frontier masks by distance, and the
        mask of reached vertices; stops once every vertex is reached.  A level
        pushes (ORs the frontier's rows) or pulls (keeps unvisited vertices whose
        row meets it), whichever walks fewer (Beamer, Asanovic, Patterson, SC 2012)."""
        rows = self.rows
        full = (1 << self.n) - 1
        seen = frontier = 1 << s
        levels = [frontier]
        while seen != full:
            rest = full ^ seen
            nxt = 0
            if frontier.bit_count() <= rest.bit_count():
                m = frontier
                while m:
                    low = m & -m
                    nxt |= rows[low.bit_length() - 1]
                    m ^= low
                nxt &= rest
            else:
                m = rest
                while m:
                    low = m & -m
                    if rows[low.bit_length() - 1] & frontier:
                        nxt |= low
                    m ^= low
            if not nxt:
                break
            seen |= nxt
            levels.append(nxt)
            frontier = nxt
        return levels, seen

    def distances(self, source: int) -> DistanceReport:
        """BFS levels from `source`; unreachable vertices get None."""
        dists: list[Optional[int]] = [None] * self.n
        for d, level in enumerate(self._sweep(self._check_vertex(source))[0]):
            for v in _iter_bits(level):
                dists[v] = d
        return DistanceReport(source, tuple(dists))

    def distance(self, u: int, v: int) -> Optional[int]:
        """Shortest-path hop count, or None when v is unreachable from u."""
        s = self._check_vertex(u)
        target = 1 << self._check_vertex(v)
        for d, level in enumerate(self._sweep(s)[0]):
            if level & target:
                return d
        return None

    def eccentricity(self, v: int) -> Optional[int]:
        """Greatest distance from v, or None when some vertex is unreachable."""
        levels, seen = self._sweep(self._check_vertex(v))
        return len(levels) - 1 if seen == (1 << self.n) - 1 else None

    def _ifub(self) -> tuple[int, list[int]]:
        """Exact diameter by iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino,
        TCS 2013), with the BFS levels of its start vertex u, a vertex of
        maximum degree.

        The sweep from vertex 1 decides connectivity and names the witness.
        Then vertices are swept from u's deepest level upwards, each once.
        Every vertex not yet swept lies within i of u when i is the level
        next in line, so no pair of them is more than 2i apart: once the
        largest eccentricity seen reaches 2i, it is the diameter."""
        full = (1 << self.n) - 1
        levels, seen = self._sweep(0)
        if seen != full:
            missed = full & ~seen
            raise DisconnectedError(1, (missed & -missed).bit_length())
        u = self.rows.index(max(self.rows, key=int.bit_count))
        best = len(levels) - 1
        if u:
            levels = self._sweep(u)[0]
            best = max(best, len(levels) - 1)
        for i in range(len(levels) - 1, 0, -1):
            for v in _iter_bits(levels[i] & ~1):  # vertex 1 is swept already
                if best >= 2 * i:
                    return best, levels
                best = max(best, len(self._sweep(v)[0]) - 1)
        return best, levels

    def diameter(self) -> int:
        """Maximum distance over all vertex pairs; raises DisconnectedError
        (1, lowest vertex unreachable from 1) on disconnection."""
        return self._ifub()[0]

    def prefix_diameters(self, orders: Iterable[int]) -> tuple[int, ...]:
        """Diameter of the leading block of each of `orders`, in the order
        given; the graph itself serves order n.  The first disconnected block
        raises as `diameter` does."""
        return tuple((self if m == self.n else self.induced_prefix(m)).diameter() for m in orders)

    def diameter_pairs(self) -> tuple[int, set[tuple[int, int]]]:
        """Diameter together with every unordered pair realizing it.

        Raises the same DisconnectedError as `diameter`.  A vertex at level
        i of the iFUB start vertex u has eccentricity at most i + ecc(u),
        so only the levels i >= diameter - ecc(u) hold pair endpoints."""
        diam, levels = self._ifub()
        ecc_u = len(levels) - 1
        pairs: set[tuple[int, int]] = set()
        for level in levels[max(diam - ecc_u, 0):]:
            for v in _iter_bits(level):
                far = self._sweep(v)[0]
                if len(far) - 1 == diam:
                    pairs.update((v + 1, w + 1) for w in _iter_bits(far[diam]) if w > v)
        return diam, pairs

    # -- subgraphs and relabellings ---------------------------------------

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; `vertices` must be strictly increasing labels.

        Vertex k of the result is the k-th smallest member of `vertices`.
        """
        vs = list(vertices)
        if not vs:
            raise UsageError("induced subgraph needs at least one vertex")
        if any(vs[k] >= vs[k + 1] for k in range(len(vs) - 1)):
            raise UsageError("induced vertex set must be strictly increasing")
        idx = [self._check_vertex(v) for v in vs]
        cols = _transpose([self.rows[i] for i in idx], self.n)
        return Graph(len(idx), [cols[i] for i in idx])

    def induced_prefix(self, n: int) -> "Graph":
        """Induced subgraph on vertices 1..n (a leading principal block)."""
        self._check_vertex(n)
        mask = (1 << n) - 1
        return Graph(n, [r & mask for r in self.rows[:n]])

    def is_io_decomposable_by_definition(self) -> bool:
        """Even vertices induce a null graph and odd vertices induce the
        half-size graph of the same source (labels order-preserving).

        That half-size graph is the leading block of order ceil(n/2), as
        for any smaller graph of the same pair, so this is the paper's
        definition checked on adjacency alone."""
        n = self.n
        evens = range(2, n + 1, 2)
        even_mask = sum(1 << (v - 1) for v in evens)
        if any(self.rows[v - 1] & even_mask for v in evens):
            return False
        odds = self.induced(range(1, n + 1, 2))
        return odds == self.induced_prefix((n + 1) // 2)

    def reverse_direct(self) -> "Graph":
        """Relabel vertex i as n+1-i by permuting the adjacency matrix."""
        n = self.n
        # row i's bit k is the string's character i*n + n-1-k, so reading the
        # reversed string maps entry (i, j) to (n-1-i, n-1-j)
        bits = "".join(format(r, f"0{n}b") for r in self.rows)[::-1]
        return Graph(n, [int(bits[i:i + n], 2) for i in range(0, n * n, n)])

    # -- cliques and colorings ----------------------------------------------

    def max_clique_size(self, cap: int = DEFAULT_CLIQUE_CAP) -> int:
        """Exact maximum clique size by branch and bound on bit sets."""
        if self.n > cap:
            raise ScaleError(
                f"exact clique search capped at order {cap}, graph has {self.n}"
            )
        rows = self.rows
        best = 1  # a single vertex is always a clique

        def expand(cand: int, size: int) -> None:
            nonlocal best
            if size > best:
                best = size
            # greedy coloring of the candidate set: color index bounds any
            # clique inside it, and gives the branching order
            classes = []
            m = cand
            while m:
                cls = 0
                avail = m
                while avail:
                    low = avail & -avail
                    v = low.bit_length() - 1
                    cls |= low
                    avail &= ~rows[v]
                    avail &= ~low
                classes.append(cls)
                m &= ~cls
            seq = []
            for ci, cls in enumerate(classes, start=1):
                for v in _iter_bits(cls):
                    seq.append((ci, v))
            for ci, v in reversed(seq):
                if size + ci <= best:
                    return
                expand(cand & rows[v], size + 1)
                cand &= ~(1 << v)

        expand((1 << self.n) - 1, 0)
        return best

    def io_coloring(self) -> tuple[int, ...]:
        """Color v > 1 by the trailing zeros of v - 1: evens 0, and odd v the
        number of hops v -> (v+1)/2 until even.

        Vertex 1 (the fixed point of the halving map) takes the top color,
        so exactly ceil(log2 n) + 1 colors appear.  The assignment is
        verified against the adjacency, class by class in the order top,
        0, 1, 2, ...; the first adjacent same-color pair raises
        IoViolationError with the pair as evidence.
        """
        n = self.n
        top = (n - 1).bit_length()  # ceil(log2 n) for n >= 2, 0 for n = 1
        colors = (top, *(((v - 1) & (1 - v)).bit_length() - 1 for v in range(2, n + 1)))
        class_masks: dict[int, int] = {}  # in order of first appearance
        for i, c in enumerate(colors):
            class_masks[c] = class_masks.get(c, 0) | (1 << i)
        for c, mask in class_masks.items():
            for v in _iter_bits(mask):
                hit = self.rows[v] & mask
                if hit:
                    raise IoViolationError(v + 1, (hit & -hit).bit_length(), c)
        return colors

    # -- exports -------------------------------------------------------------

    def to_matrix_lines(self) -> list[str]:
        return [_to_bitstring(r, self.n) for r in self.rows]

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(1, self.n + 1):
            lines.append(f"  {v};")
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)

    def edges_csv(self) -> str:
        return "\n".join(["u,v"] + [f"{u},{v}" for u, v in self.edges()])

    def distances_csv(self) -> str:
        """All-pairs distance matrix as CSV; blank cell = unreachable."""
        header = "v," + ",".join(str(j) for j in range(1, self.n + 1))
        lines = [header]
        for u in range(1, self.n + 1):
            row = self.distances(u).dists
            lines.append(
                f"{u}," + ",".join("" if d is None else str(d) for d in row)
            )
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count()})"


def _symmetric(half: Sequence[int]) -> Graph:
    """Graph of the strict triangle `half`, upper or lower, ORed with its transpose."""
    return Graph(len(half), [r | t for r, t in zip(half, _transpose(half, len(half)))])


def build(pair: RiordanPair, n: int) -> Graph:
    """Riordan graph of order n: r(i, j) = [z^(i-2)] g f^(j-1) for i > j."""
    if n < 1:
        raise UsageError(f"graph order must be positive, got {n}")
    if n == 1:
        return Graph(1, [0])
    if pair.precision < n - 1:
        raise PrecisionError(
            f"pair precision {pair.precision} too small for graph order {n}"
        )
    # column j, g f^j, shifted by one is vertex j + 1's row above the diagonal
    return _symmetric([c << 1 for c in _columns(pair, n - 1)] + [0])


def build_bell_aseq(a: ASequence, n: int) -> Graph:
    """Bell-type Riordan graph grown from a binary A-sequence.

    The order-n graph reads triangle rows 0..n-2, so it needs the prefix
    (1, a_1, ..., a_{n-2}): length at least n-1.
    """
    if n < 1:
        raise UsageError(f"graph order must be positive, got {n}")
    if n == 1:
        return Graph(1, [0])
    if len(a) < n - 1:
        raise LengthError(
            f"order {n} needs an A-sequence of length {n - 1}, got {len(a)}"
        )
    return _symmetric([0, *bell_matrix_from_aseq(a, n - 1).rows])


def catalan_graph(n: int) -> Graph:
    """CG_n, the Riordan graph of (C, zC)."""
    return build(catalan_pair(max(n - 1, 1)), n)


def pascal_graph(n: int) -> Graph:
    """PG_n, the Riordan graph of (1/(1-z), z/(1-z))."""
    return build(pascal_pair(max(n - 1, 1)), n)


def reverse_formula(a: ASequence, n: int) -> Graph:
    """Reverse relabelling of a Bell-type io graph, via its A-sequence.

    Builds the pair (A'(z) * A(z)^(n-2), z / A(z)) directly; for io
    pattern sequences this equals reverse_direct of the grown graph.
    """
    require_io_pattern(a, n)
    if n == 1:
        return build(RiordanPair(a.series(1), BinarySeries(0, 1)), 1)
    # One pattern-extension step: for even n the new slot is the pair
    # closer (determined); for odd n the derivative kills the new slot's
    # coefficient, so the filler value never reaches the result.
    ext = io_pattern_extend(a, n)
    series_a = ext.series(n)
    g = series_a.derivative().mul(series_a.pow(n - 2))
    f = BinarySeries(2, n).mul(series_a.reciprocal())
    return build(RiordanPair(g, f), n)
