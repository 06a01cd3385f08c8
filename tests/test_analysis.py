import pytest

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
from riordangraphs.errors import LengthError, PatternError, UsageError
from riordangraphs.riordan import ASequence
from riordangraphs.rgraph import Graph, build_bell_aseq, catalan_graph

from oracles import random_io_bits


def aseq_ones(length):
    return ASequence([1] * length)


def aseq_pascal(length):
    return ASequence([1, 1] + [0] * (length - 2))


# -- structural -----------------------------------------------------------

def test_structural_catalan_and_pascal():
    assert verify_structural(aseq_ones(63), 64).passed
    assert verify_structural(aseq_pascal(63), 64).passed


def test_structural_diam2_at_power_plus_two():
    # every io pattern gives diameter 2 at n = 2^3 + 2
    from riordangraphs.search import enumerate_io_aseqs

    for a in enumerate_io_aseqs(9):
        assert build_bell_aseq(a, 10).diameter() == 2


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


def test_fractal_fault_injection():
    G = catalan_graph(33)
    rows = list(G.rows)
    rows[8] ^= 1 << 10  # perturb inside the alpha=1 window of size 8
    rows[10] ^= 1 << 8
    tampered = Graph(33, rows)
    witness = check_fractal_window(tampered, 3, 1)
    assert witness is not None and witness["kind"] == "window-entry"


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


def test_extremal_pairs_fault_injection():
    CG8 = catalan_graph(8)
    rows = list(CG8.rows)
    rows[0] |= 1 << 7  # add edge {1, 8}
    rows[7] |= 1 << 0
    tampered = Graph(8, rows)
    witness = check_extremal_pairs(tampered, 3)
    assert witness is not None and witness["kind"] == "pairs-set"
    assert (1, 8) in {tuple(p) for p in witness["missing"]}
    assert replay_witness(tampered, witness)
    assert check_extremal_pairs(catalan_graph(8), 3) is None


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


# -- diameter drop -----------------------------------------------------------------

def test_diameter_drop_block_shape():
    shape = ASequence([1] * 14 + [0] * 17)  # 2^4 - 2 ones then zeros
    report = verify_diameter_drop(shape, 5)
    assert report.passed and any("block-shape" in n for n in report.notes)


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
