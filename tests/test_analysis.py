import pytest
from hypothesis import example, given, settings, strategies as st

from riordangraphs import analysis, rgraph
from riordangraphs.analysis import (
    check_extremal_pairs,
    check_fractal_window,
    check_structural_order,
    replay_witness,
    verify_catalan_diameters,
    verify_diameter_drop,
    verify_fractal,
    verify_mixed_size,
    verify_monotonicity,
    verify_structural,
)
from riordangraphs.errors import DisconnectedError, LengthError, PatternError, UsageError
from riordangraphs.riordan import ASequence, io_pattern_extend
from riordangraphs.rgraph import Graph, build_bell_aseq, catalan_graph

from oracles import (
    extremal_pairs_witness,
    fractal_window_loop,
    io_bit_tuples,
    io_value_bits,
    random_io_bits,
)


def aseq_ones(length):
    return ASequence([1] * length)


def aseq_pascal(length):
    return ASequence([1, 1] + [0] * (length - 2))


def flip(G, *edges):
    """G with each edge {i, j} toggled."""
    rows = list(G.rows)
    for i, j in edges:
        rows[i - 1] ^= 1 << (j - 1)
        rows[j - 1] ^= 1 << (i - 1)
    return Graph(G.n, rows)


# the edges that leave vertex 12 of CG_16 hung on vertex 16 alone
HUNG_12 = ((7, 12), (11, 12), (12, 13), (12, 16))


def below(G):
    """The diameter of G without its last vertex, or None when that graph
    is disconnected: the `below` input of `check_extremal_pairs`."""
    try:
        return G.induced_prefix(G.n - 1).diameter()
    except DisconnectedError:
        return None


def at_order(n, method, tamper):
    """`method` of Graph, with `tamper(G, result)` applied on order-n graphs."""
    return lambda G, *args: tamper(G, method(G, *args)) if G.n == n else method(G, *args)


# -- structural -----------------------------------------------------------

def test_structural_catalan_and_pascal():
    assert verify_structural(aseq_ones(63), 64).passed
    assert verify_structural(aseq_pascal(63), 64).passed


def test_structural_diam2_at_power_plus_two():
    # every io pattern gives diameter 2 at n = 2^3 + 2
    for bits in io_bit_tuples(9):
        assert build_bell_aseq(ASequence(bits), 10).diameter() == 2


def test_structural_random(rng):
    for _ in range(5):
        a = ASequence(random_io_bits(rng, 47))
        report = verify_structural(a, 48)
        assert report.passed, report.to_line()


def test_structural_rejects_non_pattern():
    with pytest.raises(PatternError):
        verify_structural(ASequence([1, 0, 0, 0, 0, 0, 0]), 8)
    with pytest.raises(LengthError):
        verify_structural(aseq_ones(5), 32)


# each verifier that takes `a`: parameters in range, parameters out of
# range, and the largest order it measures at the ones in range
GATED = [
    (verify_structural, {"n_max": 8}, {"n_max": 0}, 8),
    (verify_fractal, {"s": 1, "alpha_max": 2, "n": 9}, {"s": 1, "alpha_max": 0, "n": 9}, 9),
    (verify_mixed_size, {"k": 2, "m": 1, "s": 0}, {"k": 1, "m": 1, "s": 0}, 7),
    (verify_monotonicity, {"k": 2, "m_max": 2}, {"k": 1, "m_max": 2}, 16),
    (verify_diameter_drop, {"k": 4}, {"k": 3}, 16),
]


@pytest.mark.parametrize(
    "verify, params, out_of_range, largest", GATED,
    ids=["structural", "fractal", "mixed-size", "monotonicity", "diameter-drop"],
)
def test_verifiers_gate_a_at_their_largest_order(monkeypatch, verify, params, out_of_range, largest):
    non_io = ASequence("101")
    with pytest.raises(UsageError):  # the range check comes first
        verify(a=non_io, **out_of_range)
    with pytest.raises(PatternError):
        verify(a=non_io, **params)
    verify(a=aseq_ones(largest - 1), **params)
    # one entry short for the largest order: refused before any graph is built
    monkeypatch.setattr(analysis, "build_bell_aseq",
                        lambda a, n: pytest.fail(f"order {n} built before the gate"))
    with pytest.raises(LengthError, match=f"order {largest} needs"):
        verify(a=aseq_ones(largest - 2), **params)


def test_structural_fault_injection():
    CG8 = catalan_graph(8)
    rows = list(CG8.rows)
    rows[1] |= 1 << 3  # edge {2, 4} inside the even class
    rows[3] |= 1 << 1
    tampered = Graph(8, rows)
    witness = check_structural_order(tampered)
    assert witness is not None and witness["kind"] == "coloring-improper"
    assert replay_witness(tampered, witness)
    assert check_structural_order(catalan_graph(8)) is None


@pytest.mark.parametrize(
    "n, edge, witness, line",
    [
        (9, (2, 9), {"kind": "universal-vertex-missing", "n": 9, "vertex": 9},
         "structural [aseq=11111111,n_max=9] fail checks=8 "
         "witness[kind=universal-vertex-missing,n=9,vertex=9]"),
        # the clique drop leaves vertex 2 short of universal at order 2,
        # where the verifier stops first
        (4, (1, 2), {"kind": "clique-size", "n": 4, "got": 2, "want": 3},
         "structural [aseq=111,n_max=4] fail checks=1 "
         "witness[kind=universal-vertex-missing,n=2,vertex=2]"),
        (7, (5, 7), {"kind": "diameter-bound", "n": 7, "got": 3, "bound": 2},
         "structural [aseq=111111,n_max=7] fail checks=6 "
         "witness[bound=2,got=3,kind=diameter-bound,n=7]"),
        # the refined bound floor(log2(n - 2^k)) + 1 = 2, below floor(log2 11) = 3
        (11, (9, 11), {"kind": "diameter-bound", "n": 11, "got": 3, "bound": 2},
         "structural [aseq=1111111111,n_max=11] fail checks=10 "
         "witness[bound=2,got=3,kind=diameter-bound,n=11]"),
    ],
)
def test_structural_witnesses_from_adjacency(monkeypatch, n, edge, witness, line):
    G = catalan_graph(n)
    tampered = flip(G, edge)
    assert check_structural_order(tampered) == witness
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, m: tampered)
    assert verify_structural(aseq_ones(n - 1), n).to_line() == line
    assert replay_witness(tampered, witness)
    assert not replay_witness(G, witness)


@pytest.mark.parametrize(
    "n, method, tamper, witness, line",
    [
        # a proper io colouring has its size in closed form, so only a
        # tampered colouring can have the wrong number of classes
        (8, "io_coloring", lambda G, colors: (0,) * G.n,
         {"kind": "coloring-size", "n": 8, "got": 1, "want": 4},
         "structural [aseq=1111111,n_max=8] fail checks=7 "
         "witness[got=1,kind=coloring-size,n=8,want=4]"),
        # at n = 2^k + 2 the universal vertex 2^k + 1 keeps the diameter at 2
        (10, "diameter", lambda G, diam: diam + 1,
         {"kind": "diameter-exact", "n": 10, "got": 3, "want": 2},
         "structural [aseq=111111111,n_max=10] fail checks=9 "
         "witness[got=3,kind=diameter-exact,n=10,want=2]"),
    ],
)
def test_structural_witnesses_from_tampered_methods(monkeypatch, n, method, tamper, witness, line):
    G = catalan_graph(n)
    with monkeypatch.context() as m:
        m.setattr(Graph, method, at_order(n, getattr(Graph, method), tamper))
        assert check_structural_order(G) == witness
        assert verify_structural(aseq_ones(n - 1), n).to_line() == line
        assert replay_witness(G, witness)
    assert not replay_witness(G, witness)


# -- fractal ----------------------------------------------------------------

def test_fractal_catalan():
    assert verify_fractal(aseq_ones(32), 3, 3, 33).passed


def test_fractal_trivial_windows():
    assert verify_fractal(aseq_ones(32), 0, 8, 33).passed


def test_fractal_random_matches_submatrix_oracle(rng):
    for _ in range(5):
        a = ASequence(random_io_bits(rng, 31))
        report = verify_fractal(a, 2, 3, 32)
        assert report.passed
        # independent window comparison
        G = build_bell_aseq(a, 32)
        for alpha in (1, 2, 3):
            lead = [
                [int(G.adjacent(i, j)) for j in range(1, 6)] for i in range(1, 6)
            ]
            lo = alpha * 4 + 1
            win = [
                [int(G.adjacent(lo + i, lo + j)) for j in range(5)] for i in range(5)
            ]
            assert lead == win


def test_fractal_usage_errors():
    with pytest.raises(UsageError):
        verify_fractal(aseq_ones(32), 3, 4, 33)
    with pytest.raises(UsageError):
        verify_fractal(aseq_ones(32), -1, 2, 33)


def test_fractal_refuses_a_large_s_before_forming_2_to_the_s():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="^order 33 too small for s=10000000, alpha_max=3$"):
            verify_fractal(aseq_ones(32), 10**7, 3, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_fractal_fault_injection(monkeypatch):
    G = catalan_graph(33)
    rows = list(G.rows)
    rows[8] ^= 1 << 10  # perturb inside the alpha=1 window of size 8
    rows[10] ^= 1 << 8
    tampered = Graph(33, rows)
    witness = check_fractal_window(tampered, 3, 1)
    assert witness is not None and witness["kind"] == "window-entry"
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, n: tampered)
    assert verify_fractal(aseq_ones(32), 3, 3, 33).to_line() == (
        "fractal [alpha_max=3,aseq=11111111111111111111111111111111,n=33,s=3] fail checks=0 "
        "witness[alpha=1,i=1,j=3,kind=window-entry,lead=1,s=3,size=9,window=0]"
    )


@st.composite
def graphs_near_their_windows(draw):
    """A graph of order 3..40: random rows, symmetric or not, or an io Bell
    graph, whose windows repeat its leading block, with a few entries
    flipped, each in one row only when drawn so."""
    n = draw(st.integers(3, 40))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            rows = [r | sum((rows[j] >> i & 1) << j for j in range(n)) for i, r in enumerate(rows)]
        return Graph(n, rows)
    a = ASequence(io_value_bits(draw(st.integers(0, 1 << 20)), n - 1))
    rows = list(build_bell_aseq(a, n).rows)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] ^= 1 << j
        if i != j and draw(st.booleans()):
            rows[j] ^= 1 << i
    return Graph(n, rows)


@settings(max_examples=200, deadline=None)
@given(graphs_near_their_windows())
@example(flip(catalan_graph(33), (9, 11)))
def test_fractal_window_against_the_two_size_loop(G):
    # the 2^s-blocks lead the (2^s + 1)-blocks, so comparing them as well
    # never finds another witness, asymmetric rows included
    for s in range(G.n.bit_length()):
        for alpha in range(1, (G.n - 1) >> s):  # (alpha + 1) * 2^s + 1 <= n
            assert check_fractal_window(G, s, alpha) == fractal_window_loop(G, s, alpha)


def test_entry_witnesses_replay_from_their_fields():
    G = catalan_graph(33)
    rows = list(G.rows)
    rows[8] ^= 1 << 10
    rows[10] ^= 1 << 8
    tampered = Graph(33, rows)
    witness = check_fractal_window(tampered, 3, 1)
    assert replay_witness(tampered, witness)
    forged = dict(witness, i=1, j=2, lead=1, window=0)  # CG_33 has both edges
    assert not replay_witness(G, forged)
    assert not replay_witness(G, witness)

    entry = analysis._first_entry_diff("tampered", 33, tampered, G)
    assert entry["kind"] == "entry" and replay_witness(tampered, entry)
    assert not replay_witness(G, entry)
    assert not replay_witness(G, dict(entry, i=1, j=2, left=0, right=1))


# -- catalan diameters --------------------------------------------------------

def test_catalan_diameters_small_and_medium():
    assert verify_catalan_diameters(3).passed
    report = verify_catalan_diameters(6)
    assert report.passed and report.checks == 6


def test_catalan_diameters_k1():
    assert verify_catalan_diameters(1).passed


@pytest.mark.parametrize(
    "order, i, j, line",
    [
        (16, 3, 9, "catalan-diameters [k_max=4] fail checks=3 witness[i=3,j=9,kind=entry,"
                   "left=1,n=16,right=0,tag=reversed-power-pair]"),
        (15, 14, 15, "catalan-diameters [k_max=4] fail checks=3 witness[i=14,j=15,kind=entry,"
                     "left=0,n=15,right=1,tag=reversed-near-power-pair]"),
    ],
)
def test_catalan_diameters_reversal_fault_injection(monkeypatch, order, i, j, line):
    # one entry of the reversed graph flipped at n = 16 or at n - 1 = 15
    reverse = Graph.reverse_direct

    def flipped(G):
        R = reverse(G)
        if G.n != order:
            return R
        rows = list(R.rows)
        rows[i - 1] ^= 1 << (j - 1)
        rows[j - 1] ^= 1 << (i - 1)
        return Graph(R.n, rows)

    monkeypatch.setattr(rgraph.Graph, "reverse_direct", flipped)
    report = verify_catalan_diameters(4)
    assert report.to_line() == line
    assert replay_witness(flipped(catalan_graph(order)), report.witness)


def test_catalan_diameters_extremal_fault_injection(monkeypatch):
    # edge {1, 5} dropped from CG_8: diameter 4, not k = 3
    G = catalan_graph(8)
    tampered = flip(G, (1, 5))
    witness = {"kind": "diameter", "n": 8, "got": 4, "want": 3}
    assert check_extremal_pairs(tampered, 3, below(tampered)) == witness
    monkeypatch.setattr(analysis, "catalan_graph", lambda n: tampered if n == 8 else catalan_graph(n))
    assert verify_catalan_diameters(3).to_line() == (
        "catalan-diameters [k_max=3] fail checks=2 witness[got=4,kind=diameter,n=8,want=3]"
    )
    assert replay_witness(tampered, witness)
    assert not replay_witness(G, witness)


def test_catalan_diameters_below_power_fault_injection(monkeypatch):
    # no single edge flip of CG_8 moves diam(CG_7) off 2 and keeps the extremal pairs
    # of CG_8, so the order-7 prefix itself loses edge {5, 7}
    prefix = Graph.induced_prefix
    monkeypatch.setattr(
        Graph, "induced_prefix", lambda G, n: flip(prefix(G, n), (5, 7)) if n == 7 else prefix(G, n)
    )
    report = verify_catalan_diameters(3)
    monkeypatch.undo()
    assert report.to_line() == (
        "catalan-diameters [k_max=3] fail checks=2 witness[got=3,kind=diameter,n=7,want=2]"
    )
    assert replay_witness(flip(catalan_graph(7), (5, 7)), report.witness)
    assert not replay_witness(catalan_graph(7), report.witness)


def test_catalan_diameters_max_neighbor_fault_injection(monkeypatch):
    # edge {3, 9} added to the reversed CG_16 and to the graph of its pair
    # (1, z + z^2) alike: the reversal check passes, and vertex 3's largest
    # neighbour is 9, not 2 * 3
    monkeypatch.setattr(
        Graph, "reverse_direct", at_order(16, Graph.reverse_direct, lambda G, R: flip(R, (3, 9)))
    )
    build = analysis.build
    monkeypatch.setattr(
        analysis, "build",
        lambda pair, n: flip(build(pair, n), (3, 9)) if pair.g.bits == 0b1 else build(pair, n),
    )
    report = verify_catalan_diameters(4)
    monkeypatch.undo()
    assert report.to_line() == (
        "catalan-diameters [k_max=4] fail checks=3 witness[got=9,i=3,kind=max-neighbor,n=16,want=6]"
    )
    rev = catalan_graph(16).reverse_direct()
    assert replay_witness(flip(rev, (3, 9)), report.witness)
    assert not replay_witness(rev, report.witness)


def test_extremal_pairs_fault_injection():
    CG8 = catalan_graph(8)
    rows = list(CG8.rows)
    rows[0] |= 1 << 7  # add edge {1, 8}
    rows[7] |= 1 << 0
    tampered = Graph(8, rows)
    witness = check_extremal_pairs(tampered, 3, below(tampered))
    assert witness is not None and witness["kind"] == "pairs-set"
    assert (1, 8) in {tuple(p) for p in witness["missing"]}
    assert replay_witness(tampered, witness)
    assert check_extremal_pairs(catalan_graph(8), 3, below(catalan_graph(8))) is None


@pytest.mark.parametrize(
    "edges, missing, extra",
    [
        (((1, 13),), [(1, 16)], []),  # added: vertex 1 moves to distance 3 of 16
        (((10, 13),), [], [(10, 16)]),  # dropped: vertex 10 moves to distance 4 of 16
        # both dropped: the sweep from 16 is as in CG_16, but 8 and 14 are 4 apart
        (((9, 11), (13, 14)), [], [(8, 14)]),
    ],
)
def test_extremal_certificate_falls_back_to_the_pair_comparison(monkeypatch, edges, missing, extra):
    G = catalan_graph(16)
    tampered = flip(G, *edges)
    compared = []
    pairs = Graph.diameter_pairs
    monkeypatch.setattr(Graph, "diameter_pairs", lambda self: compared.append(self) or pairs(self))
    assert check_extremal_pairs(G, 4, below(G)) is None and compared == []
    witness = check_extremal_pairs(tampered, 4, below(tampered))
    assert compared == [tampered]
    assert witness == {"kind": "pairs-set", "n": 16, "missing": missing, "extra": extra}
    assert witness == extremal_pairs_witness(tampered, 4)
    assert replay_witness(tampered, witness)
    assert not replay_witness(G, witness)


def test_extremal_certificate_falls_back_when_the_rest_is_disconnected(monkeypatch):
    # vertex 12 of CG_16 hung on vertex 16 alone: the sweep from 16 passes,
    # but the graph without 16 is disconnected, so the certificate is
    # unsettled and the pair comparison names the witness
    tampered = flip(catalan_graph(16), *HUNG_12)
    compared = []
    pairs = Graph.diameter_pairs
    monkeypatch.setattr(Graph, "diameter_pairs", lambda self: compared.append(self) or pairs(self))
    witness = check_extremal_pairs(tampered, 4, below(tampered))
    assert compared == [tampered]
    assert witness == {"kind": "diameter", "n": 16, "got": 5, "want": 4}
    assert witness == extremal_pairs_witness(tampered, 4)
    assert replay_witness(tampered, witness)


def test_catalan_diameters_disconnected_block_fault_injection(monkeypatch):
    # the same fault in the verifier: CG_15 is disconnected, so its diameter
    # cannot be measured, but CG_16's pair comparison names the fault first
    tampered = flip(catalan_graph(16), *HUNG_12)
    monkeypatch.setattr(analysis, "catalan_graph", lambda n: tampered)
    report = verify_catalan_diameters(4)
    assert report.to_line() == (
        "catalan-diameters [k_max=4] fail checks=3 witness[got=5,kind=diameter,n=16,want=4]"
    )
    assert replay_witness(tampered, report.witness)


def test_catalan_diameters_refuses_a_disconnected_block_it_cannot_fault(monkeypatch):
    # were the pair comparison to pass CG_16, the disconnected CG_15 would be
    # refused as it is when measured, not reported with an unmeasured diameter
    tampered = flip(catalan_graph(16), *HUNG_12)
    monkeypatch.setattr(analysis, "catalan_graph", lambda n: tampered)
    monkeypatch.setattr(analysis, "check_extremal_pairs", lambda G, k, below: None)
    with pytest.raises(DisconnectedError) as refused:
        verify_catalan_diameters(4)
    with pytest.raises(DisconnectedError) as measured:
        tampered.induced_prefix(15).diameter()
    assert refused.value.args == measured.value.args


@st.composite
def graphs_with_a_last_vertex(draw):
    """A connected graph of order 2..12 whose last vertex's row is drawn
    apart from the rest, often within the upper half, and a k near that
    vertex's eccentricity."""
    n = draw(st.integers(2, 12))
    rows = [0] * n

    def link(a, b):
        rows[a] |= 1 << b
        rows[b] |= 1 << a

    for v in range(1, n - 1):  # a spanning tree of 1..n-1
        link(v, draw(st.integers(0, v - 1)))
    density = draw(st.sampled_from([0.2, 0.6, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            if rnd.random() < density:
                link(a, b)
    last = draw(st.integers(1, (1 << (n - 1)) - 1))
    if draw(st.booleans()):  # keep 1..n/2 off the last vertex's row
        last = last >> n // 2 << n // 2 or 1 << (n - 2)
    for b in range(n - 1):
        if last >> b & 1:
            link(b, n - 1)
    G = Graph(n, rows)
    return G, G.eccentricity(n) + draw(st.sampled_from([0, 0, 0, -1, 1]))


@settings(max_examples=300, deadline=None)
@given(graphs_with_a_last_vertex())
@example((catalan_graph(8), 3))
@example((catalan_graph(16), 4))
@example((flip(catalan_graph(16), (9, 11), (13, 14)), 4))
def test_extremal_certificate_verdict_is_the_pair_comparison(drawn):
    G, k = drawn
    n = G.n
    holds = G.diameter_pairs() == (k, {(i, n) for i in range(1, n // 2 + 1)})
    witness = check_extremal_pairs(G, k, below(G))
    assert (witness is None) == holds
    assert witness == extremal_pairs_witness(G, k)


# -- mixed size -----------------------------------------------------------------

def test_mixed_size_catalan_exact():
    assert verify_mixed_size(3, 1, 0, aseq_ones(11)).passed  # n=11, diam 2
    assert verify_mixed_size(3, 2, 0, aseq_ones(13)).passed  # n=13, diam 3
    assert verify_mixed_size(4, 2, 0, aseq_ones(21)).passed


def test_mixed_size_bound_any_pattern(rng):
    # k=4, m=2, s=1: n = 53, bound s+3 = 4
    for _ in range(5):
        a = ASequence(random_io_bits(rng, 52))
        report = verify_mixed_size(4, 2, 1, a)
        assert report.passed, report.to_line()


@pytest.mark.parametrize(
    "vertex, lost",
    [(1, 17), (20, 11)],  # vertex 1, and vertex 2^k + 2^m
)
def test_mixed_size_neighbor_fault_injection(monkeypatch, vertex, lost):
    # k = 4, m = 2: n = 21; the lost edge keeps the diameter at its bound 3
    G = build_bell_aseq(aseq_ones(20), 21)
    rows = list(G.rows)
    rows[vertex - 1] &= ~(1 << (lost - 1))
    rows[lost - 1] &= ~(1 << (vertex - 1))
    tampered = Graph(21, rows)
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, n: tampered)
    report = verify_mixed_size(4, 2, 0, aseq_ones(20))
    assert report.to_line() == (
        "mixed-size [aseq=11111111111111111111,k=4,m=2,n=21,s=0] fail checks=1 "
        f"witness[extra=[],kind=neighbor-set,missing=[{lost}],n=21,vertex={vertex}]"
    )
    assert replay_witness(tampered, report.witness)
    assert not replay_witness(G, report.witness)


@pytest.mark.parametrize(
    "k, m, edge, line",
    [
        # edge {9, 11} dropped: diameter 3 past the bound s + 2 = 2
        (3, 1, (9, 11), "mixed-size [aseq=1111111111,k=3,m=1,n=11,s=0] fail checks=0 "
                        "witness[bound=2,got=3,kind=diameter-bound,n=11]"),
        # edge {3, 12} added: diameter 2 below the exact value s + 3 = 3
        (3, 2, (3, 12), "mixed-size [aseq=111111111111,k=3,m=2,n=13,s=0] fail checks=1 "
                        "witness[got=2,kind=diameter-exact,n=13,want=3]"),
    ],
)
def test_mixed_size_diameter_fault_injection(monkeypatch, k, m, edge, line):
    n = 1 + (1 << m) + (1 << k)
    G = build_bell_aseq(aseq_ones(n - 1), n)
    tampered = flip(G, edge)
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, order: tampered)
    report = verify_mixed_size(k, m, 0, aseq_ones(n - 1))
    assert report.to_line() == line
    assert replay_witness(tampered, report.witness)
    assert not replay_witness(G, report.witness)


def test_mixed_size_usage_errors():
    with pytest.raises(UsageError):
        verify_mixed_size(2, 2, 0, aseq_ones(13))
    with pytest.raises(UsageError):
        verify_mixed_size(1, 0, 0, aseq_ones(13))
    with pytest.raises(UsageError):
        verify_mixed_size(3, 1, -1, aseq_ones(13))


# -- monotonicity ------------------------------------------------------------------

def test_monotonicity():
    r = verify_monotonicity(aseq_ones(31), 2, 3)
    assert r.passed and "diam(G_4)=2" in r.notes[0]
    assert verify_monotonicity(aseq_pascal(31), 2, 3).passed
    assert verify_monotonicity(ASequence(random_io_bits(__import__("random").Random(11), 31)), 3, 2).passed
    with pytest.raises(UsageError):
        verify_monotonicity(aseq_ones(31), 1, 2)


def test_monotonicity_fault_injection(monkeypatch):
    # edge {4, 5} dropped: diam(G_8) = 4, past diam(G_4) + 1 = 3
    G = build_bell_aseq(aseq_ones(31), 32)
    tampered = flip(G, (4, 5))
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, n: tampered)
    report = verify_monotonicity(aseq_ones(31), 2, 3)
    assert report.to_line() == (
        "monotonicity [aseq=1111111111111111111111111111111,k=2,m_max=3] fail checks=0 "
        "witness[bound=3,got=4,kind=diameter-bound,n=8]"
    )
    assert replay_witness(tampered.induced_prefix(8), report.witness)
    assert not replay_witness(G.induced_prefix(8), report.witness)


# -- diameter drop -----------------------------------------------------------------

def test_diameter_drop_fault_injection(monkeypatch):
    # the Pascal sequence's graph swapped for CG_16, of diameter 4 = k
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, n: catalan_graph(n))
    report = verify_diameter_drop(aseq_pascal(15), 4)
    assert report.to_line() == (
        "diameter-drop [aseq=110000000000000,k=4,n=16] fail checks=0 "
        "witness[bound=3,got=4,kind=diameter-bound,n=16]"
    )
    assert replay_witness(catalan_graph(16), report.witness)
    assert not replay_witness(build_bell_aseq(aseq_pascal(15), 16), report.witness)


@pytest.mark.parametrize("ones,k", [(14, 5), (30, 5), (62, 6), (126, 7)])
def test_diameter_drop_block_shape(ones, k):
    # 2^m - 2 ones then zeros; at ones = 2^k - 2 the first zero is the
    # order's trailing free slot
    shape = ASequence([1] * ones + [0] * ((1 << k) - 1 - ones))
    report = verify_diameter_drop(shape, k)
    assert report.passed and any("block-shape" in n for n in report.notes)
    assert f"block-shape m={(ones + 2).bit_length() - 1}" in report.notes


def test_diameter_drop_short_prefix():
    report = verify_diameter_drop(aseq_pascal(15), 4)
    assert report.passed and "short-prefix-zero" in report.notes


def test_diameter_drop_not_applicable_for_all_ones():
    report = verify_diameter_drop(aseq_ones(15), 4)
    assert report.verdict == analysis.NOT_APPLICABLE
    assert build_bell_aseq(aseq_ones(15), 16).diameter() == 4


def test_diameter_drop_requires_k_at_least_4():
    with pytest.raises(UsageError):
        verify_diameter_drop(aseq_ones(7), 3)


def test_diameter_drop_zeros_beyond_window_not_applicable():
    # ones fill the whole order-16 window; the zero pair sits beyond it,
    # so the order-16 graph is the all-ones graph and the claim is vacuous
    a = ASequence([1] * 30 + [0] * 2)
    report = verify_diameter_drop(a, 4)
    assert report.verdict == analysis.NOT_APPLICABLE


def diameter_drop_reference(a, k, build=build_bell_aseq):
    """The verdict and notes of `verify_diameter_drop` read off the io
    pattern cut or extended to max(16, 2^k - 1), and the diameter of
    `build(a, 2^k)`."""
    n = 1 << k
    window = io_pattern_extend(a, max(16, n - 1))
    ones = (window.bits + (0,)).index(0)
    notes = []
    m_block = ones + 2
    if ones < n - 1 and ones >= 14 and m_block & (m_block - 1) == 0:
        notes.append(f"block-shape m={m_block.bit_length() - 1}")
    if any(b == 0 for b in window.bits[:16]):
        notes.append("short-prefix-zero")
    if not notes:
        return analysis.NOT_APPLICABLE, notes
    return (analysis.PASS if build(a, n).diameter() < k else analysis.FAIL), notes


@pytest.mark.parametrize("k, lengths", [(4, (15, 16, 18)), (5, (31,))])
def test_diameter_drop_reads_the_window_its_order_needs(monkeypatch, k, lengths):
    # every io pattern; at k = 5 both sides see a stub graph of diameter
    # k - 1, so that 32,768 order-32 graphs are not built and measured twice
    build = build_bell_aseq
    if k == 5:
        stub = type("Stub", (), {"diameter": lambda self: k - 1})()
        build = lambda a, n: stub  # noqa: E731
        monkeypatch.setattr(analysis, "build_bell_aseq", build)
    for length in lengths:
        # each free-bit value's pattern, as io_bit_tuples would walk 2^31 tuples at length 31
        for value in range(1 << (length - 1) // 2):
            a = ASequence(io_value_bits(value, length))
            report = verify_diameter_drop(a, k)
            assert (report.verdict, report.notes) == diameter_drop_reference(a, k, build), a


# -- claim orders ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "verify, args, orders, checks",
    [
        (verify_structural, (aseq_ones(15), 16), range(1, 9), 8),
        (verify_catalan_diameters, (4,), [1, 2, 3, 4], 2),
    ],
)
def test_verifiers_measure_the_claim_orders(monkeypatch, verify, args, orders, checks):
    built = []
    for name in ("build_bell_aseq", "catalan_graph"):
        builder = getattr(analysis, name)
        monkeypatch.setattr(
            analysis, name, lambda *a, builder=builder: built.append(a[-1]) or builder(*a)
        )
    monkeypatch.setattr(analysis, "claim_order", lambda claim, **params: orders)
    report = verify(*args)
    assert report.passed and report.checks == checks
    assert built == [orders[-1]]


def test_fractal_measures_its_claim_order(monkeypatch):
    built = []
    build = analysis.build_bell_aseq
    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, n: built.append(n) or build(a, n))
    monkeypatch.setattr(analysis, "claim_order", lambda claim, **params: (41,))
    report = verify_fractal(aseq_ones(40), 3, 3, 33)
    assert report.passed and report.params["n"] == 41 and built == [41]


@pytest.mark.parametrize(
    "claim, params",
    [
        ("structural", {"n_max": 0}),
        ("fractal", {"s": -1, "alpha_max": 2, "n": 33}),
        ("fractal", {"s": 3, "alpha_max": 4, "n": 33}),
        ("catalan-diameters", {"k_max": 0}),
    ],
)
def test_range_checks_are_stated_in_claim_order(claim, params):
    verify = getattr(analysis, "verify_" + claim.replace("-", "_"))
    a = {} if claim == "catalan-diameters" else {"a": aseq_ones(40)}
    with pytest.raises(UsageError) as stated:
        analysis.claim_order(claim, **params)
    with pytest.raises(UsageError) as verified:
        verify(**a, **params)
    assert str(verified.value) == str(stated.value)


@pytest.mark.parametrize(
    "claim, params",
    [("mixed_size", {"k": 4, "m": 1, "s": 0}), ("bogus", {"k": 5}), ("bogus", {})],
)
def test_claim_order_refuses_an_unknown_claim(claim, params):
    # not read as diameter-drop, and refused before any parameter is read
    with pytest.raises(UsageError, match=f"^unknown claim '{claim}'$"):
        analysis.claim_order(claim, **params)


def test_catalan_diameters_refused_by_its_exponent():
    from riordangraphs.errors import ScaleError

    # below 2^32 the exponent passes and the price refuses the formed orders
    with pytest.raises(ScaleError, match="^estimate 12297829373883099851 vertex-visits "):
        analysis.claim_order("catalan-diameters", k_max=31)
    for k_max in (32, 10**6):
        with pytest.raises(ScaleError, match=f"^estimate over 2\\^{2 * k_max} "):
            verify_catalan_diameters(k_max)


def test_library_verifiers_are_priced_before_building(monkeypatch):
    from riordangraphs.errors import ScaleError

    monkeypatch.setattr(analysis, "build_bell_aseq", lambda a, n: pytest.fail("built"))
    # orders 1..669 are 100,029,995 visits, past the default budget of 10^8
    with pytest.raises(ScaleError, match="^estimate 100029995 vertex-visits exceeds budget "):
        verify_structural(aseq_ones(668), 669)


def test_catalan_diameters_builds_one_catalan_graph(capsys, monkeypatch):
    from riordangraphs.cli import main

    built = []
    monkeypatch.setattr(analysis, "catalan_graph", lambda n: built.append(n) or catalan_graph(n))
    assert main(["verify", "catalan-diameters", "--kmax", "6"]) == 0
    assert capsys.readouterr().out == "catalan-diameters [k_max=6] pass checks=6\n"
    assert built == [64]


@pytest.mark.parametrize("k_max", [1, 4, 10])
def test_catalan_diameters_builds_each_pair_graph_once(monkeypatch, k_max):
    # the graphs of (1, z + z^2) and (1 + z, z + z^2) at 2^k_max, read as leading blocks
    built = []
    build = analysis.build
    monkeypatch.setattr(
        analysis, "build", lambda pair, n: built.append((pair.g.bits, n)) or build(pair, n)
    )
    assert verify_catalan_diameters(k_max).passed
    assert built == [(0b1, 1 << k_max), (0b11, 1 << k_max)]


# -- reports --------------------------------------------------------------------------

def test_report_lines():
    line = verify_catalan_diameters(2).to_line()
    assert line.startswith("catalan-diameters [k_max=2] pass")
    report = verify_structural(aseq_ones(15), 16)
    assert "aseq=" in report.to_line()
    # each report has its own notes
    a, b = analysis.VerificationReport("x", {}), analysis.VerificationReport("x", {})
    a.notes.append("n")
    assert b.notes == [] and b.verdict == analysis.PASS and b.witness is None


def test_replay_rejects_an_unknown_kind():
    with pytest.raises(UsageError, match="^unknown witness kind 'bogus'$"):
        replay_witness(catalan_graph(4), {"kind": "bogus"})


def test_failed_report_carries_replayable_witness():
    CG8 = catalan_graph(8)
    rows = list(CG8.rows)
    rows[1] |= 1 << 5  # edge {2, 6}: evens adjacent
    rows[5] |= 1 << 1
    tampered = Graph(8, rows)
    witness = check_structural_order(tampered)
    report = analysis.VerificationReport("structural", {"n": 8}).fail(witness)
    assert not report.passed
    assert "witness[" in report.to_line()
    assert replay_witness(tampered, report.witness)
