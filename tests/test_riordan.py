import math
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from riordangraphs.binseries import BinarySeries, named_series
from riordangraphs.errors import (
    InvertibilityError,
    LengthError,
    PrecisionError,
    UsageError,
)
from riordangraphs.riordan import (
    ASequence,
    a_sequence,
    bell_matrix_from_aseq,
    catalan_bit,
    catalan_pair,
    g_from_aseq,
    io_pattern_extend,
    is_io_pattern,
    pascal_pair,
    riordan_matrix,
    RiordanPair,
    _io_pattern,
    _transpose,
)

from oracles import (
    aseq_bitstring_loop,
    aseq_entries_loop,
    aseq_mask_loop,
    bell_triangle_lists,
    catalan_ints,
    io_bit_tuples,
    io_pattern_extend_loop,
    is_io_pattern_loop,
    random_io_bits,
    random_unit_bits,
    series_coeffs_loop,
    triangle_lines_loop,
)


def test_catalan_bit_examples():
    assert catalan_bit(7) == 1
    assert catalan_bit(0) == 1
    assert catalan_bit(4) == 0
    with pytest.raises(UsageError):
        catalan_bit(-1)


def test_catalan_bit_against_exact_integers():
    cat = catalan_ints(512)
    for n in range(512):
        assert catalan_bit(n) == cat[n] & 1


def test_aseq_literal_and_validation():
    a = ASequence("1100000")
    assert len(a) == 7 and a[1] == 1 and a.to_bitstring() == "1100000"
    with pytest.raises(UsageError):
        ASequence("0110")
    with pytest.raises(UsageError):
        ASequence([])
    with pytest.raises(UsageError):
        ASequence([1, 2, 0])


def _entries_against_the_loop(x):
    """ASequence(x) keeps the entries the per-entry loop keeps, or both refuse x."""
    want = aseq_entries_loop(x)
    if want is None:
        with pytest.raises(UsageError):
            ASequence(x)
        return None
    a = ASequence(x)
    assert a.bits == want
    return a


def _layouts_against_the_loops(a, precisions):
    text = a.to_bitstring()
    assert text == aseq_bitstring_loop(a.bits)
    assert ASequence(text) == a
    for p in precisions:
        s = a.series(p)
        assert (s.bits, s.precision) == (aseq_mask_loop(a.bits, p), p)
        assert s.coeffs() == series_coeffs_loop(s) == a.bits[:p]
    with pytest.raises(PrecisionError):
        a.series(0)
    with pytest.raises(LengthError):
        a.series(len(a) + 1)


def test_aseq_entries_and_layouts_against_the_loops():
    # every 0/1 tuple and literal up to length 12, a_0 = 0 and the empty one too
    for length in range(13):
        for bits in product((0, 1), repeat=length):
            a = _entries_against_the_loop(bits)
            assert _entries_against_the_loop("".join(map(str, bits))) == a
            if a is not None:
                _layouts_against_the_loops(a, range(1, length + 1))
                assert bell_matrix_from_aseq(a, length).to_lines() == [
                    "".join(map(str, row)) for row in bell_triangle_lists(bits, length)
                ]
    for x in ([1, 2], [1, -1], (1, True), [1, 1.0], (1, 0.5), [1, "0"], "1 0", "12", "1\n"):
        _entries_against_the_loop(x)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 1), max_size=299).map(lambda tail: [1] + tail),
    st.lists(st.integers(-1, 2), max_size=300),
    st.text("01", max_size=300),
    st.text("012 ", max_size=300),
))
def test_aseq_entries_and_layouts_against_the_loops_sampled(x):
    a = _entries_against_the_loop(x)
    if a is not None:
        _layouts_against_the_loops(a, {1, (len(a) + 1) // 2, len(a)})


def test_is_io_pattern_examples():
    assert is_io_pattern(ASequence([1, 1, 1, 1, 0, 0, 0]))
    assert not is_io_pattern(ASequence([1, 0, 1, 1]))
    assert not is_io_pattern(ASequence([1, 1, 1, 0]))
    # trailing unpaired even-indexed bit is free
    assert is_io_pattern(ASequence([1, 1, 1, 1, 0]))
    assert not is_io_pattern(ASequence([1]))


def test_io_pattern_extend():
    a = ASequence([1, 1, 1, 1, 0])
    assert io_pattern_extend(a, 6).bits == (1, 1, 1, 1, 0, 0)
    assert io_pattern_extend(a, 8).bits == (1, 1, 1, 1, 0, 0, 0, 0)
    assert io_pattern_extend(a, 3).bits == (1, 1, 1)


def test_io_pattern_against_brute_force():
    for length in range(1, 17):
        patterns = io_bit_tuples(length)
        assert [_io_pattern(bits[2::2], length) for bits in patterns] == patterns
    assert _io_pattern((), 1) == (1,)
    assert _io_pattern((1,), 7) == (1, 1, 1, 1, 0, 0, 0)  # frees past the end are 0


def test_io_pattern_test_and_extension_against_the_loops():
    for length in range(1, 13):
        for tail in product((0, 1), repeat=length - 1):
            a = ASequence((1,) + tail)
            assert is_io_pattern(a) == is_io_pattern_loop(a.bits)
            if is_io_pattern(a):
                for target in range(1, 16):
                    assert io_pattern_extend(a, target).bits == io_pattern_extend_loop(a.bits, target)


def test_triangle_text_against_the_loop():
    for n in (1, 2, 7, 8, 33, 256):
        for tri in (riordan_matrix(catalan_pair(n), n), riordan_matrix(pascal_pair(n), n)):
            assert tri.to_lines() == triangle_lines_loop(tri)


def test_riordan_matrix_identity_and_catalan_column():
    identity_pair = RiordanPair(named_series("one", 4), named_series("z", 4))
    tri = riordan_matrix(identity_pair, 3)
    assert tri.to_lines() == ["1", "01", "001"]

    tri = riordan_matrix(catalan_pair(8), 5)
    assert tri.column(0) == (1, 1, 0, 1, 0)


def test_riordan_matrix_pascal_is_sierpinski():
    tri = riordan_matrix(pascal_pair(8), 5)
    assert [tri.entry(4, j) for j in range(5)] == [1, 0, 0, 0, 1]
    big = riordan_matrix(pascal_pair(64), 64)
    for i in range(64):
        for j in range(i + 1):
            assert big.entry(i, j) == math.comb(i, j) % 2


def test_riordan_matrix_precision_error():
    with pytest.raises(PrecisionError):
        riordan_matrix(catalan_pair(4), 5)
    with pytest.raises(UsageError):
        riordan_matrix(catalan_pair(4), 0)


def test_a_sequence_examples():
    assert a_sequence(catalan_pair(16), 8).to_bitstring() == "11111111"
    assert a_sequence(pascal_pair(16), 8).to_bitstring() == "11000000"
    identity_pair = RiordanPair(named_series("one", 8), named_series("z", 8))
    assert a_sequence(identity_pair, 4).to_bitstring() == "1000"
    improper = RiordanPair(named_series("z", 8), named_series("z", 8))
    with pytest.raises(InvertibilityError):
        a_sequence(improper, 4)
    with pytest.raises(PrecisionError):
        a_sequence(catalan_pair(8), 8)
    with pytest.raises(UsageError):
        a_sequence(catalan_pair(8), 0)


def test_bell_matrix_identity_catalan_pascal():
    assert bell_matrix_from_aseq(ASequence([1, 0, 0, 0]), 4).to_lines() == [
        "1",
        "01",
        "001",
        "0001",
    ]
    assert bell_matrix_from_aseq(ASequence([1] * 8), 8) == riordan_matrix(
        catalan_pair(8), 8
    )
    assert bell_matrix_from_aseq(ASequence([1, 1] + [0] * 6), 8) == riordan_matrix(
        pascal_pair(8), 8
    )
    # a dense A-sequence with sparse rows, and a sparse one with dense rows
    assert bell_matrix_from_aseq(ASequence([1] * 512), 512) == riordan_matrix(
        catalan_pair(512), 512
    )
    assert bell_matrix_from_aseq(ASequence([1, 1] + [0] * 510), 512) == riordan_matrix(
        pascal_pair(512), 512
    )
    with pytest.raises(LengthError):
        bell_matrix_from_aseq(ASequence([1, 1, 1]), 8)
    with pytest.raises(UsageError):
        bell_matrix_from_aseq(ASequence([1, 1, 1]), 0)


def test_bell_matrix_against_list_recurrence(rng):
    for _ in range(30):
        n = rng.randint(1, 40)
        density = rng.choice([0.1, 0.5, 0.9])  # both sides of the row/A choice
        bits = [1] + [int(rng.random() < density) for _ in range(n - 1)]
        tri = bell_matrix_from_aseq(ASequence(bits), n)
        oracle = bell_triangle_lists(bits, n)
        for i in range(n):
            for j in range(i + 1):
                assert tri.entry(i, j) == oracle[i][j]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=70))
))
@example((0, []))
@example((0, [0, 0]))
@example((70, [(1 << 70) - 1] * 70))
def test_transpose_is_the_per_entry_definition(case):
    width, masks = case
    out = _transpose(masks, width)
    assert len(out) == width
    assert all(0 <= col < 1 << len(masks) for col in out)
    for i in range(width):
        for j, mask in enumerate(masks):
            assert (out[i] >> j) & 1 == (mask >> i) & 1


def test_g_from_aseq():
    assert g_from_aseq(ASequence([1, 0, 0, 0]), 4) == named_series("one", 4)
    assert g_from_aseq(ASequence([1] * 8), 8) == named_series("catalan", 8)
    assert g_from_aseq(ASequence([1, 1] + [0] * 6), 8) == named_series("geometric", 8)


def test_aseq_roundtrip(rng):
    # recover length-1 leading bits of any proper prefix through the matrix
    for _ in range(25):
        length = rng.randint(3, 40)
        bits = [1] + [rng.randint(0, 1) for _ in range(length - 1)]
        g = g_from_aseq(ASequence(bits), length)
        f = named_series("z", length).mul(g)
        back = a_sequence(RiordanPair(g, f), length - 1)
        assert back.bits == tuple(bits[: length - 1])


def test_bell_equals_riordan_for_random_g(rng):
    for _ in range(50):
        g = BinarySeries(
            sum(b << k for k, b in enumerate(random_unit_bits(rng, 65))), 65
        )
        pair = RiordanPair(g, named_series("z", 65).mul(g))
        aseq = a_sequence(pair, 64)
        assert bell_matrix_from_aseq(aseq, 64) == riordan_matrix(pair, 64)


def test_pair_validation():
    with pytest.raises(UsageError):
        RiordanPair(named_series("one", 4), named_series("one", 4))
    assert catalan_pair(8).proper
    assert not RiordanPair(named_series("z", 4), named_series("z", 4)).proper


def test_triangle_entry_bounds():
    tri = bell_matrix_from_aseq(ASequence([1, 1, 1]), 3)
    with pytest.raises(UsageError):
        tri.entry(1, 2)
    with pytest.raises(UsageError):
        tri.entry(3, 0)


def test_random_io_patterns_are_patterns(rng):
    for _ in range(20):
        bits = random_io_bits(rng, rng.randint(2, 31))
        assert is_io_pattern(ASequence(bits))
