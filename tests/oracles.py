"""Independent oracles the tests check the library against.

Everything here recomputes from first principles with plain lists,
exact big integers or dict-of-set graphs -- never through the package's
bit-packed code paths.  The bit-packed oracles are the library's former
kernels, kept as references: the push-only sweep for its
direction-optimizing one, the all-sources diameter for its iFUB
diameter (it reads a graph's `n` and `rows` and nothing else, and is
itself checked against the dict-of-sets `diameter_oracle`) and, through
the pairs it finds, for its extremal-pair certificate, the
per-bit scatter, mirror and gather for its one bit-matrix transpose
(they read plain masks), the per-bit text loops for its one mask-to-text
layout, the per-entry A-sequence loops for the same layout of entry
tuples, and the per-slot io loops for its one free-bits-to-pattern
layout.  Only the standard library is used.
"""

from collections import deque
from itertools import combinations, product


# -- series ---------------------------------------------------------------

def poly_mul_mod2(a, b, prec):
    """Schoolbook Cauchy product mod 2 on coefficient lists."""
    out = [0] * prec
    for i, ai in enumerate(a[:prec]):
        if not ai:
            continue
        for j, bj in enumerate(b[: prec - i]):
            out[i + j] ^= bj
    return out


def compose_lists(a, b, prec):
    """a(b(z)) mod 2 by Horner on coefficient lists; assumes b[0] = 0."""
    out = [0] * prec
    for k in reversed(range(min(len(a), prec))):
        out = poly_mul_mod2(out, b, prec)
        out[0] ^= a[k]
    return out


def catalan_ints(n):
    """The first n Catalan numbers, exact."""
    c = [1]
    for i in range(1, n):
        c.append(c[-1] * 2 * (2 * i - 1) // (i + 1))
    return c


def catalan_parity_funceq(n):
    """Catalan parities grown from C = 1 + z*C^2, literal convolution
    c[m] = sum c[i] c[m-1-i] mod 2, its zero terms skipped."""
    c = [1] + [0] * (n - 1)
    ones = [0]  # the i < m with c[i] = 1
    for m in range(1, n):
        c[m] = sum(c[m - 1 - i] for i in ones) & 1
        if c[m]:
            ones.append(m)
    return c


def fibonacci_parity(n):
    """Parities of 1/(1 - z - z^2): F_1, F_2, ..."""
    a, b = 1, 1
    out = []
    for _ in range(n):
        out.append(a & 1)
        a, b = b, a + b
    return out


# -- triangles --------------------------------------------------------------

def bell_triangle_lists(bits, n):
    """Bell-type triangle mod 2 by the literal A-sequence recurrence."""
    rows = [[1]]
    for i in range(n - 1):
        prev = rows[-1]
        new = [0] * (i + 2)
        head = 0
        for t in range(1, i + 2):
            if t < len(bits) and bits[t]:
                head ^= prev[t - 1]
        new[0] = head
        for j in range(i + 1):
            v = prev[j]
            for t in range(1, i - j + 1):
                if t < len(bits) and bits[t]:
                    v ^= prev[j + t]
            new[j + 1] = v
        rows.append(new)
    return rows


# -- per-bit row and column moves ---------------------------------------------

def _set_bits(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def column_scatter_rows(g_bits, f_bits, n):
    """Rows (bit j = entry (i, j)) of the leading n x n block of the matrix
    of (g, f): each column g f^j, a shift-and-XOR product mod z^n, scattered
    into the rows one bit at a time."""
    full = (1 << n) - 1
    col = g_bits & full
    rows = [0] * n
    for j in range(n):
        for i in _set_bits(col):
            rows[i] |= 1 << j
        prod = 0
        for t in _set_bits(f_bits):
            prod ^= col << t
        col = prod & full
    return rows


def triangle_mirror_rows(tri_rows):
    """Adjacency rows of the graph whose vertex i has triangle row i - 2 as
    its neighbours j < i, each bit mirrored one at a time."""
    rows = [0, *tri_rows]
    for i, below in enumerate(tri_rows, start=1):
        for j in _set_bits(below):
            rows[j] |= 1 << i
    return rows


def transpose_loop(masks, width):
    """The bit matrix `masks` read by columns, one set bit at a time: the
    library's former transpose, an inline lowest-set-bit loop."""
    out = [0] * width
    for j, mask in enumerate(masks):
        bit = 1 << j
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


def induced_gather_rows(rows, idx):
    """Rows of the subgraph on the increasing 0-based vertices `idx`,
    gathered one bit at a time."""
    return [sum(((rows[i] >> j) & 1) << k for k, j in enumerate(idx)) for i in idx]


# -- per-bit text and per-slot io patterns --------------------------------------

def matrix_lines_loop(G):
    """Adjacency rows of a package graph as '0'/'1' lines, column j as
    character j, one bit at a time."""
    n = G.n
    return ["".join("1" if (r >> j) & 1 else "0" for j in range(n)) for r in G.rows]


def triangle_lines_loop(T):
    """Rows of a package triangle as '0'/'1' lines, row i of length i + 1,
    one bit at a time."""
    return [
        "".join("1" if (r >> j) & 1 else "0" for j in range(i + 1))
        for i, r in enumerate(T.rows)
    ]


def series_bitstring_loop(s):
    """Coefficients of a package series as '0'/'1' text, degree 0 first,
    one bit at a time."""
    return "".join("1" if (s.bits >> k) & 1 else "0" for k in range(s.precision))


def series_coeffs_loop(s):
    """Coefficients of a package series as a 0/1 tuple, one shift each."""
    return tuple((s.bits >> k) & 1 for k in range(s.precision))


def aseq_entries_loop(bits):
    """The entries an A-sequence built from `bits` holds, checked one at a
    time, or None where it is refused: a literal with a character other
    than '0'/'1', no entries, an entry whose int() is not 0 or 1, or a_0 != 1."""
    if isinstance(bits, str):
        if not bits or set(bits) - {"0", "1"}:
            return None
        vals = tuple(int(c) for c in bits)
    else:
        vals = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in vals):
            return None
    return vals if vals and vals[0] == 1 else None


def aseq_bitstring_loop(bits):
    """Entries as '0'/'1' text, a_0 first, one entry at a time."""
    return "".join(str(b) for b in bits)


def aseq_mask_loop(bits, precision):
    """Bit k = a_k over the first `precision` entries, one entry at a time."""
    return sum(b << k for k, b in enumerate(bits[:precision]))


def is_io_pattern_loop(bits):
    """Whether `bits` fits (1, 1, a2, a2, a4, a4, ...), pair by pair; a
    trailing unpaired slot is free."""
    if len(bits) < 2 or bits[1] != 1:
        return False
    for j in range(3, len(bits), 2):
        if bits[j] != bits[j - 1]:
            return False
    return True


def io_pattern_extend_loop(bits, length):
    """A pattern cut to `length`, or extended slot by slot: odd slots copy
    their pair opener, new even slots get 0."""
    if length <= len(bits):
        return tuple(bits[:length])
    bits = list(bits)
    for i in range(len(bits), length):
        bits.append(bits[i - 1] if i % 2 == 1 else 0)
    return tuple(bits)


def io_value_bits(value, length):
    """The io pattern of `length` whose free bits a2, a4, ..., read with a2
    as the most significant, spell `value`, pair by pair."""
    bits = [1, 1]
    for shift in range((length - 1) // 2 - 1, -1, -1):
        b = (value >> shift) & 1
        bits += (b, b)
    return tuple(bits[:length])


# -- graphs -------------------------------------------------------------------

def bell_graph_adj(bits, n):
    """Dict-of-sets Bell graph of order n from `bell_triangle_lists`:
    for i > j, {i, j} is an edge iff row i-2, column j-1 is 1."""
    rows = bell_triangle_lists(bits, max(n - 1, 1))
    adj = {v: set() for v in range(1, n + 1)}
    for i in range(2, n + 1):
        for j in range(1, i):
            if rows[i - 2][j - 1]:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def io_bit_tuples(length):
    """Every io pattern (1, 1, a2, a2, a4, a4, ...) of `length` as a tuple
    of int bits, in lexicographic order.  Brute force over all bit tuples;
    a trailing unpaired slot is free."""
    return [
        bits
        for bits in product([0, 1], repeat=length)
        if bits[:2] == (1, 1)
        and all(bits[p] == bits[p + 1] for p in range(2, length - 1, 2))
    ]


def extremal_io_attainers(k):
    """Every io pattern of length 2^k - 1 whose order-2^k Bell graph has
    diameter k, as bit strings."""
    n = 1 << k
    return [
        "".join(map(str, bits))
        for bits in io_bit_tuples(n - 1)
        if diameter_oracle(bell_graph_adj(bits, n)) == k
    ]


def adj_sets(G):
    """Dict-of-sets view of a package graph, for independent traversal."""
    return {v: set(G.neighbors(v)) for v in range(1, G.n + 1)}


def bfs_dists(adj, src):
    """Plain deque BFS on a dict-of-sets graph."""
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def diameter_oracle(adj):
    best = 0
    for v in adj:
        dist = bfs_dists(adj, v)
        if len(dist) != len(adj):
            return None
        best = max(best, max(dist.values()))
    return best


class Disconnected(Exception):
    """Raised by the all-sources oracles: `pair` = (v, w) with w the lowest
    vertex unreachable from v, the first vertex in label order that misses one."""

    def __init__(self, v, w):
        super().__init__(f"vertex {w} unreachable from {v}")
        self.pair = (v, w)


def _bit_levels(G, v):
    """BFS from vertex v over a package graph's bit rows (bit j-1 of
    rows[i-1] marks the edge {i, j}): the frontier masks by distance and
    the mask of reached vertices.  Every level ORs the frontier's rows:
    this is the library's sweep before it chose push or pull per level."""
    seen = frontier = 1 << (v - 1)
    levels = []
    while frontier:
        levels.append(frontier)
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= G.rows[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return levels, seen


def all_sources_diameter_pairs(G):
    """Diameter of a package graph and every unordered pair realizing it,
    by one BFS from every vertex; raises Disconnected on disconnection.
    This is the library's diameter before it moved to iFUB."""
    full = (1 << G.n) - 1
    best = 0
    pairs = set()
    for u in range(1, G.n + 1):
        levels, seen = _bit_levels(G, u)
        if seen != full:
            missed = full & ~seen
            raise Disconnected(u, (missed & -missed).bit_length())
        ecc = len(levels) - 1
        if ecc > best:
            best = ecc
            pairs = set()
        if ecc == best:
            far = levels[ecc]
            pairs.update((u, v + 1) for v in range(u, G.n) if (far >> v) & 1)
    return best, pairs


def all_sources_diameter(G):
    return all_sources_diameter_pairs(G)[0]


def extremal_pairs_witness(G, k):
    """The extremal pair claim by all-sources BFS: None when the diameter is
    k and realized by exactly the pairs (i, n), i <= n/2, else the witness
    the library reports for it."""
    n = G.n
    diam, pairs = all_sources_diameter_pairs(G)
    if diam != k:
        return {"kind": "diameter", "n": n, "got": diam, "want": k}
    expected = {(i, n) for i in range(1, n // 2 + 1)}
    if pairs != expected:
        return {"kind": "pairs-set", "n": n,
                "missing": sorted(expected - pairs), "extra": sorted(pairs - expected)}
    return None


def fractal_window_loop(G, s, alpha):
    """The fractal window check as the library made it before it compared
    the (2^s + 1)-blocks only: the leading blocks of sizes 2^s + 1 and then
    2^s against their copies at offset alpha * 2^s, entry by entry in row
    order, read from a package graph's rows as its `induced_prefix` (entry
    (i, j) is bit j of row i) and its `induced` (bit i of row j) read them;
    the first differing entry's witness, or None."""
    step = 1 << s
    lo = alpha * step  # 0-based first vertex of the window
    for size in (step + 1, step):
        for i in range(size):
            for j in range(size):
                lead = (G.rows[i] >> j) & 1
                window = (G.rows[lo + j] >> (lo + i)) & 1
                if lead != window:
                    return {"kind": "window-entry", "s": s, "alpha": alpha, "size": size,
                            "i": i + 1, "j": j + 1, "lead": lead, "window": window}
    return None


def brute_clique(adj):
    """Exact maximum clique by subset enumeration (small graphs only)."""
    vs = sorted(adj)
    assert len(vs) <= 16
    best = 1
    for size in range(len(vs), 1, -1):
        if size <= best:
            break
        for combo in combinations(vs, size):
            if all(b in adj[a] for a, b in combinations(combo, 2)):
                best = size
                break
        if best == size:
            break
    return best


def io_coloring_oracle(n):
    """The io colouring by the hop loop: evens 0, vertex 1 the top colour
    ceil(log2 n), and odd v > 1 the number of hops v -> (v+1)/2 until even.
    This is the library's colouring before it took the closed form."""
    top = (n - 1).bit_length()
    colors = []
    for v in range(1, n + 1):
        if v % 2 == 0:
            colors.append(0)
        elif v == 1:
            colors.append(top)
        else:
            c = 0
            w = v
            while w % 2 == 1:
                w = (w + 1) // 2
                c += 1
            colors.append(c)
    return colors


def io_violation_oracle(adj, colors):
    """The first adjacent same-colour pair (v, u, colour) on a dict-of-sets
    graph: colour classes in order of first appearance, then the lowest v
    with a same-colour neighbour, then its lowest such neighbour u; None
    when the colouring is proper."""
    for c in dict.fromkeys(colors):
        for v in range(1, len(colors) + 1):
            same = sorted(u for u in adj[v] if colors[v - 1] == colors[u - 1] == c)
            if same:
                return v, same[0], c
    return None


def reverse_adj_oracle(G):
    """Reverse relabelling as an explicit permutation of a dict-of-sets."""
    n = G.n
    return {
        v: {n + 1 - u for u in G.neighbors(n + 1 - v)} for v in range(1, n + 1)
    }


# -- random inputs --------------------------------------------------------------

def random_io_bits(rng, length):
    """Random io-pattern A-sequence bits of the given length."""
    bits = [1, 1] + [0] * (length - 2)
    for pos in range(2, length, 2):
        b = rng.randint(0, 1)
        bits[pos] = b
        if pos + 1 < length:
            bits[pos + 1] = b
    return bits


def random_unit_bits(rng, precision):
    """Random series coefficients with a(0) = 1."""
    return [1] + [rng.randint(0, 1) for _ in range(precision - 1)]


def random_proper_f_bits(rng, precision):
    """Random series coefficients with f(0) = 0, f'(0) = 1."""
    return [0, 1] + [rng.randint(0, 1) for _ in range(precision - 2)]
