import pytest

from riordangraphs import search
from riordangraphs.errors import LengthError, PatternError, ScaleError, UsageError
from riordangraphs.golden import printed_counterexamples
from riordangraphs.riordan import ASequence, is_io_pattern
from riordangraphs.rgraph import DistanceReport, Graph, build_bell_aseq, catalan_graph
from riordangraphs.search import (
    CSV_HEADER,
    ConjectureReport,
    SearchRecord,
    counterexample_family,
    enumerate_io_aseqs,
    mixed_size_orders,
    reproduce_counterexamples,
    reproduce_tables,
    price_conjecture1,
    scan_conjecture1,
    scan_conjecture2,
    scan_conjecture3,
)

from oracles import (
    adj_sets,
    bell_graph_adj,
    diameter_oracle,
    extremal_io_attainers,
    io_bit_tuples,
    io_value_bits,
)


# -- enumeration ------------------------------------------------------------

def test_enumerate_len7():
    seqs = [a.to_bitstring() for a in enumerate_io_aseqs(7)]
    assert len(seqs) == 8
    assert seqs[0] == "1100000" and seqs[-1] == "1111111"
    assert seqs == sorted(seqs)  # free bits counted lexicographically


def test_enumerate_len2_and_len6():
    assert [a.to_bitstring() for a in enumerate_io_aseqs(2)] == ["11"]
    assert len(list(enumerate_io_aseqs(6))) == 4
    with pytest.raises(UsageError):
        list(enumerate_io_aseqs(1))


def test_enumerate_len15_first_six_ones():
    seqs = [a for a in enumerate_io_aseqs(15) if a.bits[:6] == (1,) * 6]
    assert len(seqs) == 32
    assert all(is_io_pattern(a) for a in seqs)


def test_enumeration_and_sample_against_the_loops():
    for length in range(2, 13):
        want = [io_value_bits(value, length) for value in range(1 << ((length - 1) // 2))]
        assert [a.bits for a in enumerate_io_aseqs(length)] == want == io_bit_tuples(length)
    names = search._io_space(63, [64], 10**12, sample=100, seed=3)
    sample = [ASequence(name).bits for name in names]
    values = sorted(int("".join(map(str, bits[2::2])), 2) for bits in sample)
    assert len(values) == 100 and values[-1] == (1 << 31) - 1  # all-ones among them
    assert sample == [io_value_bits(value, 63) for value in values]


def test_enumeration_names_the_io_space():
    for length in range(2, 12):
        names = search._io_space(length, [length + 1], 10**12)
        assert [a.to_bitstring() for a in enumerate_io_aseqs(length)] == names


def test_counterexample_family():
    a = counterexample_family(99)
    assert a.bits[:16] == (1,) * 16 and not any(a.bits[16:])
    assert is_io_pattern(a)
    with pytest.raises(UsageError):
        counterexample_family(10)


# -- conjecture 1 -----------------------------------------------------------

def test_scan1_small_space():
    report = scan_conjecture1(8, a_len=7)
    assert report.params["sequences"] == 8
    assert len(report.records) == 8 * 5
    # sorted by (n, sequence)
    keys = [(r.n, r.aseq) for r in report.records]
    assert keys == sorted(keys)
    # no lower violations anywhere; recomputed pascal reference is 2
    assert all(r.verdict != "lower-violation" for r in report.records)
    assert all(r.diam_pascal == 2 for r in report.records)
    assert all(r.diam >= 2 for r in report.records)


def test_scan1_pascal_always_two():
    pascal = ASequence([1, 1] + [0] * 29)
    report = scan_conjecture1(31, sequences=[pascal])
    assert report.passed
    assert all(r.diam == 2 for r in report.records)
    assert report.extras["diameter2_everywhere"] == []  # pascal itself excluded


def test_scan1_sixteen_ones_counterexamples():
    report = scan_conjecture1(100, sequences=[counterexample_family(99)])
    got = [(r.n, r.diam_catalan, r.diam) for r in report.violations]
    assert got == printed_counterexamples()
    assert all(r.verdict == "upper-violation" for r in report.violations)


def test_scan1_violation_closure():
    # replaying every violation through the graph layer reproduces it
    report = scan_conjecture1(60, sequences=[counterexample_family(59)])
    for rec in report.violations:
        G = build_bell_aseq(ASequence(rec.aseq), rec.n)
        assert G.diameter() == rec.diam
        assert catalan_graph(rec.n).diameter() == rec.diam_catalan
        assert diameter_oracle(adj_sets(G)) == rec.diam


def test_scan1_guards():
    with pytest.raises(UsageError):
        scan_conjecture1(10, a_len=5)
    with pytest.raises(UsageError):
        scan_conjecture1(3, a_len=7)
    with pytest.raises(ScaleError):
        scan_conjecture1(20, a_len=19, budget=100)
    with pytest.raises(UsageError):  # neither a_len nor sequences
        scan_conjecture1(8)


def test_budget_guard_fires_before_enumeration():
    # an absurd request must fail fast, not materialize 2^49 sequences
    t0 = __import__("time").perf_counter()
    with pytest.raises(ScaleError):
        scan_conjecture1(100, a_len=99)
    assert __import__("time").perf_counter() - t0 < 1.0


def test_scan1_explicit_sequences_are_gated():
    with pytest.raises(PatternError):
        scan_conjecture1(8, sequences=[ASequence("1010000")])
    with pytest.raises(LengthError):
        scan_conjecture1(8, sequences=[ASequence("11")])


def test_scan1_jobs_deterministic(monkeypatch):
    monkeypatch.setattr(search, "POOL_MIN_VISITS", 1)  # so that jobs=3 starts a pool
    a = scan_conjecture1(12, a_len=11, jobs=1)
    b = scan_conjecture1(12, a_len=11, jobs=3)
    assert [r.to_csv() for r in a.records] == [r.to_csv() for r in b.records]


# -- conjecture 2 -------------------------------------------------------------

def test_scan2_k3_finds_the_second_attainer():
    # Recomputed truth: both 1111111 and 1111110 reach diameter 3 at n=8,
    # so uniqueness fails at k=3 under labelled identity.  The second
    # attainer is the all-ones graph plus the edge {1, 8}.
    report = scan_conjecture2(3)
    assert report.params["sequences"] == 8
    assert report.extras["attainers"] == ["1111110", "1111111"]
    assert report.extras["attainers"] == extremal_io_attainers(3)
    assert [v.aseq for v in report.violations] == ["1111110"]
    assert not report.passed
    G = build_bell_aseq(ASequence("1111110"), 8)
    CG = catalan_graph(8)
    assert G.diameter() == 3
    assert G.edge_count() == CG.edge_count() + 1
    assert G.adjacent(1, 8) and not CG.adjacent(1, 8)
    assert G.is_io_decomposable_by_definition()


def test_scan2_k4_unique():
    report = scan_conjecture2(4)
    assert report.params["sequences"] == 128
    assert report.extras["attainers"] == ["1" * 15]
    assert report.passed


def test_scan2_k4_extensions_of_the_second_order8_attainer_drop():
    # README's finding at order 8: all sixteen order-16 extensions of
    # 1111110, the second attainer of diameter 3, drop to diameter 3
    ext = [(r.aseq, r.diam) for r in scan_conjecture2(4).records if r.aseq.startswith("1111110")]
    want = [
        ("".join(map(str, bits)), diameter_oracle(bell_graph_adj(bits, 16)))
        for bits in io_bit_tuples(15)
        if bits[:7] == (1, 1, 1, 1, 1, 1, 0)
    ]
    assert ext == want
    assert len(want) == 16 and {d for _, d in want} == {3}


def test_scan2_k2():
    report = scan_conjecture2(2)
    assert report.params["sequences"] == 2
    # both order-4 io graphs reach diameter 2 (labelled uniqueness fails
    # here too: the trailing-bit variant adds the edge {1, 4})
    assert report.extras["attainers"] == ["110", "111"]
    assert report.extras["attainers"] == extremal_io_attainers(2)


def test_scan2_sampled_k6():
    report = scan_conjecture2(6, sample=64, seed=1)
    assert not report.params["exhaustive"]
    assert report.extras["all_ones_attains"]
    assert report.params["sequences"] <= 64 + 1


def test_scan2_default_sample_beyond_exhaustive(monkeypatch):
    # k = 6 is past EXHAUSTIVE_MAX_K: 4,096 io patterns drawn with seed 0;
    # the stub returns no records, so no graph is built
    calls = []

    def no_scan(names, *rest):
        calls.append(names)
        return [], {}

    monkeypatch.setattr(search, "_scan", no_scan)
    report = scan_conjecture2(6)
    scan_conjecture2(6)
    names = calls[0]
    assert len(set(names)) == len(names) == report.params["sequences"] == 4096
    assert names == sorted(names, key=lambda s: s[2::2])  # free-bit order
    assert all(is_io_pattern(ASequence(s)) and len(s) == 63 for s in names)
    assert "1" * 63 in names
    assert calls[1] == names
    assert report.params["exhaustive"] is False


def test_scan2_budget_guard():
    with pytest.raises(ScaleError):
        scan_conjecture2(5, budget=10)
    with pytest.raises(UsageError):
        scan_conjecture2(0)
    # refused before any sequence of length 2^40 - 1 is built
    with pytest.raises(ScaleError):
        scan_conjecture2(40, sample=2)


def test_scan1_prices_sequence_entries():
    # at order 8 each sequence's entries are held and printed by 5 records
    price_conjecture1(8, [2 * 10**7], 10**8)
    with pytest.raises(ScaleError):
        price_conjecture1(8, [2 * 10**7 + 1], 10**8)
    with pytest.raises(ScaleError):
        scan_conjecture1(8, sequences=[ASequence([1] * 401)], budget=2000)


def test_scan1_prices_enumerated_entries(monkeypatch):
    # a_len 40 at orders 4..8: (2^19 + 2) x 190 visits pass the default
    # budget, but 2^19 x 40 x 5 = 104,857,600 entries do not
    import tracemalloc

    def no_enumeration(length):
        raise AssertionError("sequences were enumerated")

    monkeypatch.setattr(search, "enumerate_io_aseqs", no_enumeration)
    tracemalloc.start()
    try:
        with pytest.raises(ScaleError) as refused:
            scan_conjecture1(8, a_len=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "estimate 104857600 A-sequence entries exceeds budget 100000000"
    assert peak < 1 << 20


def test_scan2_jobs_deterministic(monkeypatch):
    monkeypatch.setattr(search, "POOL_MIN_VISITS", 1)  # so that jobs=4 starts a pool
    a = scan_conjecture2(4, jobs=1)
    b = scan_conjecture2(4, jobs=4)
    assert [r.to_csv() for r in a.records] == [r.to_csv() for r in b.records]


def test_scan2_jobs_clamped_to_cpu_count(monkeypatch):
    # one CPU: any --jobs runs in this process, so no pool may be created
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    a = scan_conjecture2(3, jobs=1)
    b = scan_conjecture2(3, jobs=10**6)
    assert [r.to_csv() for r in a.records] == [r.to_csv() for r in b.records]


def test_small_scans_start_no_pool(monkeypatch):
    # 128 x 16^2 and 32 x (4^2 + ... + 12^2) visits, far below POOL_MIN_VISITS
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert scan_conjecture2(4, jobs=2).params["sequences"] == 128
    assert scan_conjecture1(12, a_len=11, jobs=2).params["sequences"] == 32


def test_scan2_prices_its_two_references():
    # k = 4: 128 io graphs and CG_16, PG_16, each 16^2 vertex visits
    with pytest.raises(ScaleError):
        scan_conjecture2(4, budget=128 * 256)
    assert scan_conjecture2(4, budget=130 * 256).params["sequences"] == 128


def test_record_types_keep_their_api():
    rec = SearchRecord(8, "1100000", 2, 3, 2, "within-bounds")
    fields = ("n", "aseq", "diam", "diam_catalan", "diam_pascal", "verdict")
    assert [getattr(rec, f) for f in fields] == [8, "1100000", 2, 3, 2, "within-bounds"]
    assert rec.to_csv() == "8,1100000,2,3,2,within-bounds"
    assert rec == SearchRecord(8, "1100000", 2, 3, 2, "within-bounds")
    assert rec != SearchRecord(8, "1100000", 3, 3, 2, "within-bounds")
    a, b = ConjectureReport("3", {}), ConjectureReport("3", {})
    a.records.append(rec)
    a.extras["x"] = 1
    assert b.records == [] and b.extras == {}
    assert a.violations == [] and a.passed
    assert DistanceReport(1, (0, None)).distance(2) is None


def test_scan2_csv_shape():
    lines = scan_conjecture2(3).to_csv_lines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("8,1100000,2,3,2,")


# -- conjecture 3 ---------------------------------------------------------------

def test_mixed_size_orders():
    orders = mixed_size_orders(256)
    assert (15, 2, 1, 1) in orders  # 15 = 1 + 2 + 4 + 8
    assert (29, 3, 2, 1) in orders  # 29 = 1 + 4 + 8 + 16
    assert all(k > m >= 1 and s >= 1 for _, k, m, s in orders)
    assert all(n == 1 + (1 << m) + sum(1 << (k + j) for j in range(s + 1))
               for n, k, m, s in orders)
    assert len(orders) == len({n for n, *_ in orders})


def test_scan1_verdicts_at_the_band_edges(monkeypatch):
    # diam(CG_n) is 2 at n = 4..7 and 3 at n = 8, so a Bell diameter of 1, 2,
    # 3 and 4 sits at low - 1, low, high and high + 1 of the band 2..diam(CG_n)
    assert [catalan_graph(n).diameter() for n in range(4, 9)] == [2, 2, 2, 2, 3]
    want = {
        1: ["lower-violation"] * 5,
        2: ["within-bounds"] * 5,
        3: ["upper-violation"] * 4 + ["within-bounds"],
        4: ["upper-violation"] * 5,
    }
    for d, verdicts in want.items():
        monkeypatch.setattr(search, "_sequence_diameters", lambda a, n_max, orders: (d,) * len(orders))
        report = scan_conjecture1(8, sequences=[ASequence("1111111")])
        got = [(r.n, r.diam, r.verdict) for r in report.records]
        assert got == list(zip(range(4, 9), [d] * 5, verdicts))


def test_scan3_verdicts_at_the_band_edges(monkeypatch):
    # scan 3's band is the one point low = high = s + 2 or s + 3
    real = Graph.prefix_diameters
    for shift, verdict in ((-1, "lower-violation"), (0, "within-bounds"), (1, "upper-violation")):
        monkeypatch.setattr(
            Graph, "prefix_diameters",
            lambda full, orders: tuple(d + shift for d in real(full, orders)),
        )
        report = scan_conjecture3(64)
        assert report.records and all(r.diam == r.diam_catalan + shift for r in report.records)
        assert {r.verdict for r in report.records} == {verdict}


def test_scan3_examples():
    report = scan_conjecture3(64)
    assert report.passed
    by_n = {r.n: r for r in report.records}
    assert by_n[15].diam == 3  # s + 2 with m = 1
    assert by_n[29].diam == 4  # s + 3 with m = 2
    with pytest.raises(UsageError):
        scan_conjecture3(4)


# -- one record path, every row against the package-free oracle ---------------

def _oracle_diam(bits, n):
    return diameter_oracle(bell_graph_adj(bits, n))


def _oracle_catalan(n):
    return _oracle_diam((1,) * (n - 1), n)


def _oracle_pascal(n):
    return _oracle_diam((1, 1) + (0,) * (n - 3), n)


def _fields(report):
    return [
        (r.n, r.aseq, r.diam, r.diam_catalan, r.diam_pascal, r.verdict)
        for r in report.records
    ]


def test_scan1_rows_and_extras_against_oracle():
    report = scan_conjecture1(8, a_len=7)
    seqs = {"".join(map(str, bits)): bits for bits in io_bit_tuples(7)}
    diam = {(n, name): _oracle_diam(bits, n) for name, bits in seqs.items() for n in range(4, 9)}
    want = []
    for n, name in sorted(diam):
        d, cat = diam[n, name], _oracle_catalan(n)
        verdict = "upper-violation" if d > cat else "lower-violation" if d < 2 else "within-bounds"
        want.append((n, name, d, cat, _oracle_pascal(n), verdict))
    assert _fields(report) == want
    assert report.extras["diameter2_everywhere"] == [
        name
        for name in seqs
        if name != "1100000" and all(diam[n, name] == 2 for n in range(4, 9))
    ]
    assert report.extras["pascal_reference"] == {n: _oracle_pascal(n) for n in range(4, 9)}


def test_scan1_unsorted_list_with_a_duplicate_matches_per_sequence_scans():
    names = ["11111111", "1100110", "1111111", "1100000", "1100110", "110011001"]
    report = scan_conjecture1(8, sequences=[ASequence(s) for s in names])
    alone = [scan_conjecture1(8, sequences=[ASequence(s)]) for s in names]
    records = sorted((r for one in alone for r in one.records), key=lambda r: (r.n, r.aseq))
    assert report.records == records and len(records) == 5 * len(names)
    assert report.extras == {
        "diameter2_everywhere": [s for one in alone for s in one.extras["diameter2_everywhere"]],
        "pascal_reference": alone[0].extras["pascal_reference"],
    }
    assert report.extras["diameter2_everywhere"] == ["1100110", "1100110", "110011001"]


def test_scan2_rows_and_extras_against_oracle():
    report = scan_conjecture2(4)
    want = []
    for bits in io_bit_tuples(15):
        name, d = "".join(map(str, bits)), _oracle_diam(bits, 16)
        verdict = "upper-violation" if d == 4 and name != "1" * 15 else "within-bounds"
        want.append((16, name, d, _oracle_catalan(16), _oracle_pascal(16), verdict))
    assert _fields(report) == want
    attainers = [name for _, name, d, *_ in want if d == 4]
    assert report.extras["attainers"] == attainers
    assert report.extras["all_ones_attains"] == ("1" * 15 in attainers)


def test_scan1_no_sequences_keeps_the_pascal_reference():
    report = scan_conjecture1(8, sequences=[])
    assert report.records == []
    assert report.extras["diameter2_everywhere"] == []
    assert report.extras["pascal_reference"] == {4: 2, 5: 2, 6: 2, 7: 2, 8: 2}


# -- table reproduction -------------------------------------------------------------

def test_reproduce_counterexamples_matches_print():
    rows = reproduce_counterexamples()
    assert rows == printed_counterexamples()
    assert len(rows) == 13
    assert all(dc == 3 and dg == 4 for _, dc, dg in rows)


def test_reproductions_read_off_the_scans():
    scan1 = scan_conjecture1(100, sequences=[counterexample_family(99)])
    assert reproduce_counterexamples() == [
        (r.n, r.diam_catalan, r.diam) for r in scan1.violations if r.verdict == "upper-violation"
    ]
    assert reproduce_counterexamples(3) == []
    t8, t16 = reproduce_tables()
    assert [(r.aseq, r.diam) for r in t8.rows] == [
        (r.aseq, r.diam) for r in scan_conjecture2(3).records
    ]
    assert [(r.aseq, r.diam) for r in t16.rows] == [
        (r.aseq, r.diam) for r in scan_conjecture2(4).records if r.aseq.startswith("111111")
    ]


def test_reproduce_tables_builds_only_the_tables_asked_for(monkeypatch):
    both = reproduce_tables()
    scans = []
    scan = search._scan

    def counted(names, *rest):
        scans.append(names)
        return scan(names, *rest)

    monkeypatch.setattr(search, "_scan", counted)
    assert reproduce_tables("table2") == both[1:]
    assert reproduce_tables("table1", "table2") == both
    assert [len(names) for names in scans] == [32, 8, 32]


def test_reproduce_tables_diam8():
    t1, _ = reproduce_tables()
    assert len(t1.rows) == 8
    by_seq = {r.aseq: r for r in t1.rows}
    # the duplicated printed row resolves to diameter 3
    dup = by_seq["1111110"]
    assert dup.status == "conflicting-print"
    assert sorted(set(dup.printed)) == [2, 3]
    assert dup.diam == 3
    # every other printed row matches the recomputation
    assert all(r.status == "match" for r in t1.rows if r.aseq != "1111110")
    assert t1.duplicates == [("1111110", 2, (2, 3))]
    assert t1.omitted == [] and t1.foreign == []
    assert t1.genuine_mismatches == []


def test_reproduce_tables_diam16():
    _, t2 = reproduce_tables()
    assert len(t2.rows) == 32
    # print anomalies: one duplicated row (consistent values) and two
    # sequences missing from the printed table
    assert t2.duplicates == [("111111001111110", 2, (3, 3))]
    assert t2.omitted == ["111111000000111", "111111000011111"]
    assert t2.foreign == []
    by_seq = {r.aseq: r for r in t2.rows}
    assert by_seq["1" * 15].diam == 4
    assert all(r.diam == 3 for r in t2.rows if r.aseq != "1" * 15)
    assert all(
        r.status == ("absent-from-print" if r.aseq in t2.omitted else "match")
        for r in t2.rows
    )
    assert t2.genuine_mismatches == []
