from itertools import combinations, product
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from riordangraphs.analysis import verify_catalan_diameters
from riordangraphs.binseries import BinarySeries, from_bitstring, named_series
from riordangraphs.errors import (
    DisconnectedError,
    IoViolationError,
    LengthError,
    PatternError,
    PrecisionError,
    ScaleError,
    UsageError,
)
from riordangraphs.golden import printed_cg4_reverse, printed_cg6, printed_cg8_reverse
from riordangraphs.riordan import (
    ASequence,
    RiordanPair,
    bell_matrix_from_aseq,
    catalan_pair,
    g_from_aseq,
    require_io_pattern,
    riordan_matrix,
)
from riordangraphs import rgraph
from riordangraphs.rgraph import (
    Graph,
    build,
    build_bell_aseq,
    catalan_graph,
    pascal_graph,
    reverse_formula,
)

from riordangraphs.search import counterexample_family, scan_conjecture2

from oracles import (
    Disconnected,
    _bit_levels,
    adj_sets,
    all_sources_diameter,
    all_sources_diameter_pairs,
    bell_graph_adj,
    bfs_dists,
    brute_clique,
    column_scatter_rows,
    diameter_oracle,
    induced_gather_rows,
    io_bit_tuples,
    io_coloring_oracle,
    io_violation_oracle,
    matrix_lines_loop,
    poly_mul_mod2,
    random_io_bits,
    random_proper_f_bits,
    random_unit_bits,
    reverse_adj_oracle,
    triangle_mirror_rows,
)


def io_graph(bits, n):
    return build_bell_aseq(ASequence(bits), n)


def k5_sample(seed):
    """A seeded 2,048 of the 32,768 io patterns of length 31 (order 32)."""
    for free in random.Random(seed).sample(range(1 << 15), 2048):
        # free bit m fills a_{2m+2} and a_{2m+3}; a_30 is unpaired
        yield [1, 1] + [(free >> (p // 2 - 1)) & 1 for p in range(2, 31)]


# -- construction ---------------------------------------------------------

def test_build_catalan6_matches_print():
    assert catalan_graph(6).to_matrix_lines() == printed_cg6()


def test_build_identity_pair_is_path():
    G = build(RiordanPair(named_series("one", 8), named_series("z", 8)), 8)
    for u in range(1, 9):
        expected = {v for v in (u - 1, u + 1) if 1 <= v <= 8}
        assert G.neighbors(u) == expected


def test_build_pascal_vertex1_universal():
    G = pascal_graph(8)
    assert 1 in G.universal_vertices()


def test_build_precision_error():
    with pytest.raises(PrecisionError):
        build(catalan_pair(4), 8)


def test_build_bell_aseq_matches_pairs():
    # series columns against the Bell recurrence: two independent constructions
    for n in [*range(1, 301), 1024, 2048]:
        length = max(n - 1, 2)
        assert io_graph([1] * length, n) == catalan_graph(n)
        assert io_graph([1, 1] + [0] * (length - 2), n) == pascal_graph(n)
    path = io_graph([1] + [0] * 6, 8)
    assert path.rows == build(
        RiordanPair(named_series("one", 8), named_series("z", 8)), 8
    ).rows
    with pytest.raises(LengthError):
        io_graph([1, 1, 1], 8)


@pytest.mark.parametrize("n", [2, 3, 40])
def test_builder_and_io_gate_share_one_length_gate(n):
    # the io pattern one entry short of order n; every io pattern is at least
    # two long, so none is short of orders 2 and 3, and there both take "11"
    a = ASequence("11" + "0" * (n - 4)) if n > 3 else ASequence("11")

    def refusal(gate):
        try:
            gate(a, n)
        except LengthError as e:
            return str(e)

    short = f"order {n} needs an A-sequence of length {n - 1}, got {n - 2}"
    assert refusal(build_bell_aseq) == refusal(require_io_pattern) == (short if n > 3 else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.randoms(use_true_random=False))
def test_build_equals_literal_entries(n, rnd):
    # r(i, j) = [z^(i-2)] g f^(j-1) for i > j, by schoolbook products
    prec = n - 1
    g = random_unit_bits(rnd, prec)
    f = random_proper_f_bits(rnd, max(prec, 2))[:prec]
    pair = RiordanPair(
        BinarySeries(sum(b << k for k, b in enumerate(g)), prec),
        BinarySeries(sum(b << k for k, b in enumerate(f)), prec),
    )
    G = build(pair, n)
    col = g
    for j in range(1, n):
        for i in range(j + 1, n + 1):
            assert G.adjacent(i, j) == G.adjacent(j, i) == bool(col[i - 2])
        col = poly_mul_mod2(col, f, prec)
    assert all(not G.adjacent(v, v) for v in range(1, n + 1))


def test_construction_against_per_bit_loops():
    # every io graph of order 2^k for k <= 4, and a seeded sample of 2,048
    # of the 32,768 at k = 5
    cases = [
        (1 << k, ASequence(bits)) for k in range(1, 5) for bits in io_bit_tuples(max((1 << k) - 1, 2))
    ]
    cases += [(32, ASequence(bits)) for bits in k5_sample(0x7A5)]
    for n, a in cases:
        G = build_bell_aseq(a, n)
        assert G.rows == tuple(triangle_mirror_rows(bell_matrix_from_aseq(a, n - 1).rows))
        g = g_from_aseq(a, n - 1)
        pair = RiordanPair(g, named_series("z", n - 1).mul(g))
        assert riordan_matrix(pair, n - 1).rows == tuple(
            column_scatter_rows(g.bits, pair.f.bits, n - 1)
        )
        assert build(pair, n) == G
        odd = range(0, n, 2)
        assert G.induced([v + 1 for v in odd]).rows == tuple(induced_gather_rows(G.rows, odd))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 70).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1).map(lambda t: [1] + t)
))
def test_pair_graph_of_any_aseq_is_its_bell_graph(bits):
    # any binary A, io pattern or not: (g, z g) with g from A gives the Bell graph of A
    n = len(bits)
    a = ASequence(bits)
    g = g_from_aseq(a, n)
    assert build(RiordanPair(g, named_series("z", n).mul(g)), n) == build_bell_aseq(a, n)


def test_build_order_one():
    G = catalan_graph(1)
    assert G.n == 1 and G.edge_count() == 0 and G.diameter() == 0
    # no order below one, and no row count other than the order
    for refused in (lambda: build(catalan_pair(4), 0), lambda: build_bell_aseq(ASequence("11"), 0),
                    lambda: Graph(0, []), lambda: Graph(2, [0])):
        with pytest.raises(UsageError):
            refused()


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize(
    "make",
    [
        lambda n: Graph(n, []),
        lambda n: build(catalan_pair(1), n),
        lambda n: build_bell_aseq(ASequence("11"), n),
        lambda n: reverse_formula(ASequence("11"), n),
        catalan_graph,
        pascal_graph,
    ],
    ids=["Graph", "build", "build_bell_aseq", "reverse_formula", "catalan_graph", "pascal_graph"],
)
def test_order_below_one_is_refused_by_graph(make, n):
    # every builder hands an order below one to Graph, whose refusal is the one text
    with pytest.raises(UsageError, match=f"^graph order must be positive, got {n}$"):
        make(n)


# -- metrics -----------------------------------------------------------------

def test_distance_examples():
    CG8r = catalan_graph(8).reverse_direct()
    assert CG8r.distance(1, 8) == 3
    assert CG8r.distance(4, 4) == 0
    CG16 = catalan_graph(16)
    for i in range(1, 9):
        assert CG16.distance(i, 16) == 4
    with pytest.raises(UsageError):
        CG16.distance(0, 5)
    with pytest.raises(UsageError):
        CG16.distance(1, 17)


def test_distance_checks_both_labels_before_sweeping(monkeypatch):
    CG16 = catalan_graph(16)
    sources = []
    kernel = Graph._sweep

    def counted(self, s):
        sources.append(s)
        return kernel(self, s)

    monkeypatch.setattr(Graph, "_sweep", counted)
    for u, v, bad in ((1, 17, 17), (1, 0, 0), (0, 17, 0), (17, 0, 17)):
        with pytest.raises(UsageError, match=rf"^vertex {bad} outside 1\.\.16$"):
            CG16.distance(u, v)
    assert sources == []
    assert CG16.distance(1, 16) == 4 and sources == [0]


def test_distance_is_one_sweep(monkeypatch, rng):
    def unused(self, source):
        raise AssertionError("distance went through distances")

    sweeps = []
    kernel = Graph._sweep

    def counted(self, s):
        sweeps.append(s)
        return kernel(self, s)

    G = io_graph(random_io_bits(rng, 23), 24)
    split = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])  # {1, 2} and {3, 4}
    monkeypatch.setattr(Graph, "distances", unused)
    monkeypatch.setattr(Graph, "_sweep", counted)
    for graph in (G, split):
        adj = adj_sets(graph)
        for u in range(1, graph.n + 1):
            oracle = bfs_dists(adj, u)
            for v in range(1, graph.n + 1):
                sweeps.clear()
                assert graph.distance(u, v) == oracle.get(v)
                assert sweeps == [u - 1]


def test_distances_report(rng):
    G = io_graph(random_io_bits(rng, 31), 32)
    oracle = bfs_dists(adj_sets(G), 5)
    report = G.distances(5)
    assert report.distance(5) == 0
    for v in range(1, 33):
        assert report.distance(v) == oracle.get(v)
    # sampled triangle inequality
    d17 = G.distances(17)
    for u in range(1, 33, 3):
        du = G.distances(u)
        for v in range(2, 33, 5):
            lhs = d17.distance(v)
            rhs = d17.distance(u) + du.distance(v)
            assert lhs <= rhs


def test_diameter_examples():
    assert pascal_graph(8).diameter() == 2
    assert catalan_graph(64).diameter() == 6


def test_diameter_disconnected():
    G = build(RiordanPair(named_series("one", 8), from_bitstring("00100000")), 5)
    with pytest.raises(DisconnectedError) as err:
        G.diameter()
    u, v = err.value.pair
    assert G.distance(u, v) is None


def test_diameter_against_oracle(rng):
    for _ in range(10):
        n = rng.randint(2, 40)
        G = io_graph(random_io_bits(rng, max(n - 1, 2)), n)
        assert G.diameter() == diameter_oracle(adj_sets(G))


def test_distance_kernel_against_oracle_on_io_spaces():
    # every io graph of the k <= 4 spaces, against an independently built graph
    for k in range(1, 5):
        n = 1 << k
        for bits in io_bit_tuples(max(n - 1, 2)):
            G = build_bell_aseq(ASequence(bits), n)
            adj = bell_graph_adj(bits, n)
            diam = diameter_oracle(adj)
            pairs = set()
            for u in range(1, n + 1):
                oracle = bfs_dists(adj, u)
                assert G.distances(u).dists == tuple(oracle.get(v) for v in range(1, n + 1))
                assert G.eccentricity(u) == max(oracle.values())
                for v in range(1, n + 1):
                    assert G.distance(u, v) == oracle[v]
                    if u < v and oracle[v] == diam:
                        pairs.add((u, v))
            assert all_sources_diameter_pairs(G) == (diam, pairs)
            assert G.diameter() == diam
            assert G.diameter_pairs() == (diam, pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.floats(0, 1), st.integers(0, 2**32))
@example(1, 0.0, 0)
@example(70, 0.02, 1)  # sparse: disconnected
def test_sweep_against_push_only_levels(n, density, seed):
    # random symmetric graphs, rows past 64 bits and disconnected ones too,
    # swept from every source
    rnd = random.Random(seed)
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        if rnd.random() < density:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    G = Graph(n, rows)
    for s in range(n):
        assert G._sweep(s) == _bit_levels(G, s + 1)


class _RowReads(tuple):
    """Adjacency rows that log which rows a sweep reads."""

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_sweep_pushes_from_small_frontiers_and_pulls_into_small_remainders():
    # vertex 1 is adjacent to 2, 3, 4, and each of those to 5
    G = Graph(5, [0b01110, 0b10001, 0b10001, 0b10001, 0b01110])
    G.rows = _RowReads(G.rows)
    G.rows.reads = []
    assert G._sweep(0) == ([0b00001, 0b01110, 0b10000], 0b11111)
    # level 0 pushes the frontier {1}'s row; level 1 pulls: of the
    # unvisited {5}, only its row is read, not the frontier's three
    assert G.rows.reads == [0, 4]


def test_pair_graphs_disconnected_witness():
    # every pair graph of orders 4-6: both diameters agree with the oracle,
    # and on disconnection name the same unreachable pair
    disconnected = 0
    for n in (4, 5, 6):
        prec = n - 1
        for gbits, fbits in product(range(1 << prec), range(0, 1 << prec, 2)):
            G = build(RiordanPair(BinarySeries(gbits, prec), BinarySeries(fbits, prec)), n)
            diam = diameter_oracle(adj_sets(G))
            if diam is not None:
                assert G.diameter() == G.diameter_pairs()[0] == diam
                continue
            disconnected += 1
            with pytest.raises(DisconnectedError) as plain:
                G.diameter()
            with pytest.raises(DisconnectedError) as paired:
                G.diameter_pairs()
            with pytest.raises(Disconnected) as moved:
                all_sources_diameter_pairs(G)
            u, v = plain.value.pair
            assert paired.value.pair == moved.value.pair == (u, v)
            assert G.distance(u, v) is None and G.eccentricity(u) is None
            assert v not in bfs_dists(adj_sets(G), u)
    assert disconnected > 0


def test_ifub_against_all_sources_on_k5_sample():
    for bits in k5_sample(0x1F0B):
        G = io_graph(bits, 32)
        want = all_sources_diameter_pairs(G)
        assert G.diameter() == want[0]
        assert G.diameter_pairs() == want


def test_ifub_against_all_sources_on_sixteen_ones_prefixes():
    full = build_bell_aseq(counterexample_family(255), 256)
    for n in range(4, 257):
        G = full.induced_prefix(n)
        assert G.diameter() == all_sources_diameter(G), n


def _block(adj, m):
    """The oracle's own leading block of order m of a dict-of-sets graph."""
    return {v: {w for w in adj[v] if w <= m} for v in range(1, m + 1)}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.integers(0, (1 << 23) - 1), st.integers(0, (1 << 23) - 1),
)))
@example(([6, 2, 4, 1, 3, 5], 1, 0b100))  # f = z^2: disconnected from order 3 on
@example(([3, 1, 2], 0, 0b10))  # g(0) = 0: vertex 2 is isolated in every block
def test_prefix_diameters_on_pairs(drawn):
    # every leading block, unsorted and with orders 1 and n repeated; the first
    # disconnected block in the given order names the oracle's witness
    perm, gbits, fbits = drawn
    n = len(perm)
    prec = max(n - 1, 1)
    G = build(RiordanPair(BinarySeries(gbits, prec), BinarySeries(fbits & ~1, prec)), n)
    orders = [n, *perm, 1, n]
    adj = adj_sets(G)
    want = [diameter_oracle(_block(adj, m)) for m in orders]
    if None not in want:
        assert G.prefix_diameters(orders) == tuple(want)
        return
    block = _block(adj, orders[want.index(None)])
    with pytest.raises(DisconnectedError) as got:
        G.prefix_diameters(orders)
    assert got.value.pair == (1, min(set(block) - set(bfs_dists(block, 1))))


def test_prefix_diameters_on_every_io_graph_to_k4():
    for k in range(1, 5):
        n = 1 << k
        for bits in io_bit_tuples(max(n - 1, 2)):
            G = io_graph(bits, n)
            orders = [n, *range(1, n + 1), 1, n // 2 + 1]
            want = tuple(diameter_oracle(bell_graph_adj(bits, m)) for m in orders)
            assert G.prefix_diameters(orders) == want, bits
    assert G.prefix_diameters([]) == ()


def test_diameter_pairs_against_all_sources_on_catalan():
    for k in range(9):
        G = catalan_graph(1 << k)
        diam, pairs = G.diameter_pairs()
        assert diam == k and (diam, pairs) == all_sources_diameter_pairs(G)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(0, (1 << 39) - 1), st.integers(0, (1 << 39) - 1))
@example(5, 1, 0b100)  # disconnected: f = z^2
@example(40, 1, 0b10)  # the path of order 40
def test_ifub_against_all_sources_on_pairs(n, gbits, fbits):
    # any pair (g, f) with f(0) = 0, proper or not, so disconnected graphs
    # come up too; these must name the oracle's witness pair
    prec = n - 1
    G = build(RiordanPair(BinarySeries(gbits, prec), BinarySeries(fbits & ~1, prec)), n)
    try:
        want = all_sources_diameter_pairs(G)
    except Disconnected as err:
        for method in (G.diameter, G.diameter_pairs, G._ifub):
            with pytest.raises(DisconnectedError) as got:
                method()
            assert got.value.pair == err.pair
        return
    assert G.diameter() == G._ifub()[0] == want[0]
    assert G.diameter_pairs() == want


@pytest.fixture
def swept(monkeypatch):
    """The 0-based sources of every `Graph._sweep` call, in order."""
    sources = []
    kernel = Graph._sweep

    def counted(self, s):
        sources.append(s)
        return kernel(self, s)

    monkeypatch.setattr(Graph, "_sweep", counted)
    return sources


def test_ifub_sweeps_each_vertex_at_most_once(swept):
    assert catalan_graph(1024).diameter() == 10
    assert len(swept) <= 64 and len(set(swept)) == len(swept)
    # a path's diameter n - 1 is far above floor(log2 n), so a pruning by
    # that claimed bound would stop short; only iFUB's own 2i bound may
    n = 40
    path = Graph(n, [(1 << (i - 1) if i else 0) | (1 << (i + 1)) for i in range(n)])
    swept.clear()
    assert path.diameter() == n - 1
    assert len(set(swept)) == len(swept) < n

    def graph(n, edges):
        rows = [0] * n
        for a, b in edges:
            rows[a - 1] |= 1 << (b - 1)
            rows[b - 1] |= 1 << (a - 1)
        return Graph(n, rows)

    # the hub 3 is swept first; vertex 1 sits at its level 2 and is swept next
    swept.clear()
    assert graph(6, ((1, 2), (2, 3), (3, 4), (3, 5), (3, 6))).diameter() == 3
    assert swept == [2, 0]
    # the hub's sweep misses 1 and 6, so vertex 1 is swept to name the witness
    for edges, pair, sources in (
        (((2, 3), (3, 4), (3, 5), (1, 6)), (1, 2), [2, 0]),
        (((1, 2), (1, 3), (4, 5)), (1, 4), [0]),  # the hub is vertex 1: one sweep
    ):
        swept.clear()
        with pytest.raises(DisconnectedError) as err:
            graph(6, edges).diameter()
        assert err.value.pair == pair
        assert swept == sources


def test_sweep_counts_of_the_diameter_kernel(swept):
    # the work of the kernel as it stands: a change that sweeps more fails here
    scan_conjecture2(4)
    assert len(swept) == 401
    swept.clear()
    catalan_graph(1024).diameter()
    assert len(swept) == 27
    swept.clear()
    assert verify_catalan_diameters(10).passed
    assert len(swept) == 155
    swept.clear()
    assert verify_catalan_diameters(12).passed
    assert len(swept) == 334


def test_universal_vertices():
    assert catalan_graph(6).universal_vertices() == {3, 5}
    path = build(RiordanPair(named_series("one", 8), named_series("z", 8)), 8)
    assert path.universal_vertices() == set()
    for bits in ([1] * 8, [1, 1] + [0] * 6, [1, 1, 0, 0, 1, 1, 0, 0]):
        assert 9 in io_graph(bits, 9).universal_vertices()


def test_neighbors():
    assert catalan_graph(6).neighbors(4) == {3, 5}
    k, m = 3, 2
    n = 1 + (1 << k) + (1 << m)
    CG = catalan_graph(n)
    assert CG.neighbors(1) == {2, 3, 5, 9}
    heavy = (1 << k) + (1 << m)
    want = {(1 << (m + 1)) + t * (1 << m) - 1 for t in range(1 << (k - m))}
    want.add(heavy + 1)
    assert CG.neighbors(heavy) == want
    k, m = 4, 1
    CG = catalan_graph(1 + (1 << k) + (1 << m))
    assert CG.neighbors(1) == {2, 3, 5, 9, 17}


def test_induced():
    CG6 = catalan_graph(6)
    assert CG6.induced(range(1, 7)).rows == CG6.rows
    odd = CG6.induced([1, 3, 5])
    assert odd.rows == catalan_graph(3).rows  # a triangle
    even = CG6.induced([2, 4, 6])
    assert even.edge_count() == 0
    with pytest.raises(UsageError):
        CG6.induced([3, 1])
    with pytest.raises(UsageError):
        CG6.induced([])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 70), st.integers(0, 2**32))
def test_induced_against_dict_of_sets(n, seed):
    rnd = random.Random(seed)
    density = rnd.random()
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in combinations(range(1, n + 1), 2):
        if rnd.random() < density:
            adj[u].add(v)
            adj[v].add(u)
    G = Graph(n, [sum(1 << (u - 1) for u in adj[v]) for v in range(1, n + 1)])
    drawn = sorted(rnd.sample(range(1, n + 1), rnd.randint(1, n)))
    for vs in ([1], [n], list(range(1, n + 1)), drawn):
        want = {k: {l for l, u in enumerate(vs, 1) if u in adj[v]} for k, v in enumerate(vs, 1)}
        assert adj_sets(G.induced(vs)) == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(0, (1 << 22) - 1),
    st.integers(0, (1 << 23) - 1),
)
@example(9, 5, 0b1111111, 0b110)  # g(0) = 0
def test_leading_block_is_the_smaller_graph(n, m, tail, gbits):
    # the order-m graph of a source is the leading block of its order-n graph
    n, m = max(n, m), min(n, m)
    bits = [1] + [(tail >> t) & 1 for t in range(max(n - 2, 0))]
    G = build_bell_aseq(ASequence(bits), n)
    assert type(G) is Graph
    assert adj_sets(G.induced_prefix(m)) == bell_graph_adj(bits, m)
    prec = max(n - 1, 1)
    g = BinarySeries(gbits, prec)
    pair = RiordanPair(g, named_series("z", prec).mul(g))
    assert build(pair, n).induced_prefix(m) == build(pair, m)


def test_reverse_direct_involution_and_prints(rng):
    assert catalan_graph(4).reverse_direct().to_matrix_lines() == printed_cg4_reverse()
    assert catalan_graph(8).reverse_direct().to_matrix_lines() == printed_cg8_reverse()
    for _ in range(5):
        n = rng.randint(2, 33)
        G = io_graph(random_io_bits(rng, max(n - 1, 2)), n)
        assert G.reverse_direct().reverse_direct().rows == G.rows
        oracle = reverse_adj_oracle(G)
        rev = G.reverse_direct()
        assert all(rev.neighbors(v) == oracle[v] for v in oracle)


def test_reverse_direct_against_oracle_at_padding_orders():
    # orders around the row width of the one-string reversal
    for n in (1, 2, 6, 7, 8, 33, 100, 128):
        for G in (catalan_graph(n), pascal_graph(n)):
            oracle = reverse_adj_oracle(G)
            rev = G.reverse_direct()
            assert all(rev.neighbors(v) == oracle[v] for v in oracle)


def test_reverse_direct_row_by_row_memory():
    # CG_2048 reversed one row at a time: about 1.1 MB at peak, where one
    # string of all n^2 entries and its reversed copy take about 8.5 MB
    import tracemalloc

    G = catalan_graph(2048)
    tracemalloc.start()
    try:
        rev = G.reverse_direct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert rev.reverse_direct().rows == G.rows
    assert rev.rows[-1] == int(format(G.rows[0], "02048b")[::-1], 2)


def test_reverse_formula_closed_forms():
    for k in (2, 3, 4, 5):
        n = 1 << k
        rf = reverse_formula(ASequence([1] * (n - 1)), n)
        pair_form = build(
            RiordanPair(BinarySeries(1, n - 1), from_bitstring("011" + "0" * (n - 4))),
            n,
        )
        assert rf.rows == pair_form.rows
        m = n - 1
        rf_low = reverse_formula(ASequence([1] * (m - 1)), m)
        low_form = build(
            RiordanPair(
                from_bitstring("11" + "0" * (m - 2)),
                from_bitstring("011" + "0" * (m - 3)),
            ),
            m,
        )
        assert rf_low.rows == low_form.rows


def test_reverse_formula_equals_direct(rng):
    a = ASequence("11")
    assert reverse_formula(a, 1).rows == build_bell_aseq(a, 1).reverse_direct().rows == (0,)
    for _ in range(100):
        n = rng.randint(2, 64)
        a = ASequence(random_io_bits(rng, max(n - 1, 2)))
        assert reverse_formula(a, n).rows == build_bell_aseq(a, n).reverse_direct().rows


def test_reverse_formula_rejects_non_pattern():
    with pytest.raises(PatternError):
        reverse_formula(ASequence([1, 0, 1, 1, 1, 1, 1]), 8)


# -- cliques and colorings ------------------------------------------------------

def test_max_clique(monkeypatch):
    CG6 = catalan_graph(6)
    assert CG6.max_clique_size() == 4
    assert CG6.max_clique_size() == brute_clique(adj_sets(CG6))
    edgeless = Graph(5, [0] * 5)
    assert edgeless.max_clique_size() == 1
    G32 = io_graph([1] * 31, 32)
    assert G32.max_clique_size() == 6
    with pytest.raises(ScaleError):
        catalan_graph(65).max_clique_size()
    monkeypatch.setattr(rgraph, "DEFAULT_CLIQUE_CAP", 65)  # read at call time
    assert catalan_graph(65).max_clique_size() == 8


def test_max_clique_against_brute(rng):
    for _ in range(10):
        n = rng.randint(2, 14)
        G = io_graph(random_io_bits(rng, max(n - 1, 2)), n)
        assert G.max_clique_size() == brute_clique(adj_sets(G))


def test_io_coloring_classes():
    colors = io_graph([1] * 7, 8).io_coloring()
    classes = {}
    for v, c in enumerate(colors, start=1):
        classes.setdefault(c, set()).add(v)
    assert {frozenset(s) for s in classes.values()} == {
        frozenset({2, 4, 6, 8}),
        frozenset({3, 7}),
        frozenset({5}),
        frozenset({1}),
    }
    assert len(io_graph([1], 1).io_coloring()) == 1
    colors33 = io_graph([1] * 32, 33).io_coloring()
    assert len(set(colors33)) == 7


def test_io_coloring_detects_violation():
    CG8 = catalan_graph(8)
    rows = list(CG8.rows)
    rows[1] |= 1 << 3  # add edge {2, 4}: two even vertices
    rows[3] |= 1 << 1
    tampered = Graph(8, rows)
    with pytest.raises(IoViolationError) as err:
        tampered.io_coloring()
    u, v = err.value.pair
    assert {u, v} == {2, 4}
    assert tampered.adjacent(u, v)


def test_io_coloring_matches_hop_loop_oracle():
    CG = catalan_graph(512)
    for n in range(1, 513):
        assert CG.induced_prefix(n).io_coloring() == tuple(io_coloring_oracle(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 80), st.randoms(use_true_random=False), st.data())
def test_io_coloring_violation_matches_oracle(n, rnd, data):
    # an io graph plus one edge inside a colour class: the colouring is
    # the hop loop's, and the error names the oracle's first pair
    G = io_graph(random_io_bits(rnd, n - 1), n)
    colors = io_coloring_oracle(n)
    assert G.io_coloring() == tuple(colors)
    assert io_violation_oracle(adj_sets(G), colors) is None
    u, v = data.draw(st.sampled_from([
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if colors[u - 1] == colors[v - 1] and not G.adjacent(u, v)
    ]))
    rows = list(G.rows)
    rows[u - 1] |= 1 << (v - 1)
    rows[v - 1] |= 1 << (u - 1)
    tampered = Graph(n, rows)
    with pytest.raises(IoViolationError) as err:
        tampered.io_coloring()
    assert (*err.value.pair, err.value.color) == io_violation_oracle(adj_sets(tampered), colors)


def test_is_io_decomposable_by_definition():
    for n in range(1, 65):
        assert catalan_graph(n).is_io_decomposable_by_definition()
        assert pascal_graph(n).is_io_decomposable_by_definition()
    bad = io_graph([1, 1, 1, 0, 0, 0, 0], 8)
    assert not bad.is_io_decomposable_by_definition()
    # the definition reads adjacency only, so plain graphs answer too
    CG8 = catalan_graph(8)
    assert Graph(8, CG8.rows).is_io_decomposable_by_definition()
    rows = list(CG8.rows)
    rows[0] ^= 1 << 6  # flip edge {1, 7}: the odd block now differs from the prefix
    rows[6] ^= 1
    tampered = Graph(8, rows)
    odds = tampered.induced([1, 3, 5, 7])
    assert odds != tampered.induced_prefix(4)
    assert not tampered.is_io_decomposable_by_definition()
    # an edge between two even vertices, which no io graph has
    rows = list(CG8.rows)
    rows[1] |= 1 << 3  # edge {2, 4}
    rows[3] |= 1 << 1
    assert not Graph(8, rows).is_io_decomposable_by_definition()


def test_io_definition_equals_pattern_for_all_64():
    from riordangraphs.riordan import is_io_pattern
    from itertools import product

    for tail in product([0, 1], repeat=6):
        a = ASequence((1,) + tail)
        G = build_bell_aseq(a, 8)
        assert G.is_io_decomposable_by_definition() == is_io_pattern(a)


def test_bell_graphs_connected(rng):
    # consecutive vertices are always adjacent in proper Bell graphs
    for _ in range(10):
        n = rng.randint(2, 50)
        G = io_graph(random_io_bits(rng, max(n - 1, 2)), n)
        for i in range(1, n):
            assert G.adjacent(i, i + 1)
        G.diameter()  # must not raise


# -- exports ---------------------------------------------------------------------

def test_exports():
    CG6 = catalan_graph(6)
    assert CG6.to_matrix_lines() == printed_cg6()
    dot = CG6.to_dot()
    assert dot.startswith("graph G {") and "3 -- 5;" in dot and dot.endswith("}")
    csv = CG6.edges_csv().splitlines()
    assert csv[0] == "u,v" and f"{3},{4}" in csv


def test_matrix_text_against_the_loop():
    for n in (1, 2, 7, 8, 33, 1024):
        for G in (catalan_graph(n), pascal_graph(n), catalan_graph(n).reverse_direct()):
            assert G.to_matrix_lines() == matrix_lines_loop(G)


def test_graph_equality_and_repr():
    a = catalan_graph(6)
    b = catalan_graph(6)
    assert a == b and hash(a) == hash(b)
    assert "n=6" in repr(a)
