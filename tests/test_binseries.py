import pytest
from hypothesis import given, strategies as st

from riordangraphs.binseries import BinarySeries, _to_bitstring, from_bitstring, named_series
from riordangraphs.errors import CompositionError, InvertibilityError, PrecisionError, UsageError

from oracles import (
    catalan_parity_funceq,
    compose_lists,
    fibonacci_parity,
    poly_mul_mod2,
    random_proper_f_bits,
    random_unit_bits,
    series_bitstring_loop,
)


def series(bits_list):
    return BinarySeries(sum(b << k for k, b in enumerate(bits_list)), len(bits_list))


def test_coeff_catalan_examples():
    c = named_series("catalan", 8)
    assert c.coeff(3) == 1
    assert c.coeff(4) == 0
    assert named_series("one", 4).coeff(0) == 1


def test_coeff_out_of_range():
    with pytest.raises(PrecisionError):
        named_series("one", 4).coeff(4)
    with pytest.raises(PrecisionError):
        named_series("one", 4).coeff(-1)


def test_add_self_is_zero(rng):
    for _ in range(20):
        p = rng.randint(1, 128)
        s = series([rng.randint(0, 1) for _ in range(p)])
        assert s.add(s).is_zero()


def test_add_examples():
    assert named_series("one", 4).add(named_series("z", 4)).to_bitstring() == "1100"
    got = named_series("catalan", 8).add(named_series("one", 8))
    assert got.to_bitstring() == "01010001"


def test_add_min_precision():
    a = named_series("one", 10)
    b = named_series("one", 4)
    assert a.add(b).precision == 4


def test_mul_identity_and_geometric():
    s = from_bitstring("1011")
    assert named_series("one", 4).mul(s) == s
    one_plus_z = from_bitstring("11000000")
    assert named_series("geometric", 8).mul(one_plus_z) == named_series("one", 8)


def test_mul_catalan_squared():
    c = named_series("catalan", 8)
    # frozen from the list-convolution oracle on the Catalan parity bits
    assert c.mul(c).to_bitstring() == "10100010"
    oracle = poly_mul_mod2(list(c.coeffs()), list(c.coeffs()), 8)
    assert list(c.mul(c).coeffs()) == oracle


def test_mul_against_oracle(rng):
    for _ in range(30):
        p = rng.randint(1, 96)
        a = [rng.randint(0, 1) for _ in range(p)]
        b = [rng.randint(0, 1) for _ in range(p)]
        got = series(a).mul(series(b))
        assert list(got.coeffs()) == poly_mul_mod2(a, b, p)


def test_mul_commutative_associative(rng):
    for _ in range(15):
        p = rng.randint(2, 64)
        a, b, c = (series([rng.randint(0, 1) for _ in range(p)]) for _ in range(3))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_pow_zero_and_frobenius(rng):
    s = from_bitstring("1101")
    assert s.pow(0) == named_series("one", 4)
    for _ in range(10):
        p = rng.randint(2, 64)
        a = series([rng.randint(0, 1) for _ in range(p)])
        sq = a.pow(2)
        assert all(sq.coeff(k) == 0 for k in range(1, p, 2))
    with pytest.raises(UsageError):
        s.pow(-1)


def test_pow_geometric_16():
    g16 = named_series("geometric", 16).pow(16)
    assert g16.coeff(0) == 1
    assert all(g16.coeff(k) == 0 for k in range(1, 16))


def test_pow_one_plus_z_squared():
    assert from_bitstring("11000000").pow(2).to_bitstring() == "10100000"


def test_pow_matches_repeated_mul(rng):
    for _ in range(10):
        p = rng.randint(2, 48)
        a = series([rng.randint(0, 1) for _ in range(p)])
        acc = named_series("one", p)
        for e in range(5):
            assert a.pow(e) == acc
            acc = acc.mul(a)


def test_compose_identity_and_fibonacci():
    a = from_bitstring("10110101")
    assert a.compose(named_series("z", 8)) == a
    fib = named_series("geometric", 8).compose(from_bitstring("01100000"))
    # 1/(1-z-z^2): parities of 1,1,2,3,5,8,13,21
    assert fib.to_bitstring() == "11011011"
    assert list(fib.coeffs()) == fibonacci_parity(8)


def test_compose_catalan_relation():
    c = named_series("catalan", 8)
    zc = named_series("z", 8).mul(c)
    got = c.compose(zc)
    oracle = compose_lists(list(c.coeffs()), list(zc.coeffs()), 8)
    assert list(got.coeffs()) == oracle


def test_compose_domain_error():
    with pytest.raises(CompositionError):
        named_series("one", 4).compose(named_series("one", 4))


def test_comp_inverse_examples():
    z = named_series("z", 8)
    assert z.comp_inverse() == z
    zc = named_series("z", 8).mul(named_series("catalan", 8))
    assert zc.comp_inverse().to_bitstring() == "01100000"  # z + z^2
    assert from_bitstring("01100000").comp_inverse() == zc


def test_comp_inverse_roundtrip(rng):
    for _ in range(50):
        f = series(random_proper_f_bits(rng, 32))
        finv = f.comp_inverse()
        via_oracle = compose_lists(list(f.coeffs()), list(finv.coeffs()), 32)
        assert via_oracle == [0, 1] + [0] * 30
        back = compose_lists(list(finv.coeffs()), list(f.coeffs()), 32)
        assert back == [0, 1] + [0] * 30


def test_comp_inverse_errors():
    with pytest.raises(InvertibilityError):
        named_series("one", 4).comp_inverse()
    with pytest.raises(InvertibilityError):
        from_bitstring("0010").comp_inverse()


def test_derivative():
    assert named_series("one", 4).derivative().is_zero()
    assert from_bitstring("0110").derivative().to_bitstring() == "100"
    assert named_series("geometric", 8).derivative().to_bitstring() == "1010101"
    with pytest.raises(PrecisionError):
        named_series("one", 1).derivative()


def test_reciprocal():
    one8 = named_series("one", 8)
    assert one8.reciprocal() == one8
    assert from_bitstring("11000000").reciprocal() == named_series("geometric", 8)
    with pytest.raises(InvertibilityError):
        named_series("z", 4).reciprocal()


def test_reciprocal_property(rng):
    for _ in range(50):
        a = series(random_unit_bits(rng, 64))
        assert a.mul(a.reciprocal()) == named_series("one", 64)


def test_reciprocal_pow_commute(rng):
    for _ in range(10):
        a = series(random_unit_bits(rng, 48))
        for k in (2, 3, 7):
            assert a.reciprocal().pow(k) == a.pow(k).reciprocal()


def test_named_series():
    assert named_series("catalan", 8).to_bitstring() == "11010001"
    assert named_series("geometric", 5).to_bitstring() == "11111"
    with pytest.raises(UsageError):
        named_series("fibonacci", 8)


def test_catalan_functional_equation():
    c = named_series("catalan", 64)
    zc2 = named_series("z", 64).mul(c).mul(c)
    assert named_series("one", 64).add(zc2) == c


def test_catalan_bits_against_funceq_oracle():
    n = 1 << 14
    c = named_series("catalan", n)
    oracle = catalan_parity_funceq(n)
    assert list(c.coeffs()) == oracle
    # and the bits are exactly the powers-of-two-minus-one positions
    for k in range(n):
        assert oracle[k] == (1 if (k + 1) & k == 0 else 0)


def test_equality_needs_equal_precision():
    a = named_series("one", 4)
    b = named_series("one", 6)
    assert a != b
    assert a.prefix_eq(b, 4)
    with pytest.raises(PrecisionError):
        a.prefix_eq(b, 5)


def test_bitstring_roundtrip(rng):
    for _ in range(20):
        p = rng.randint(1, 40)
        s = series([rng.randint(0, 1) for _ in range(p)])
        assert from_bitstring(s.to_bitstring()) == s
    with pytest.raises(UsageError):
        from_bitstring("10a1")
    with pytest.raises(UsageError):
        from_bitstring("")


@given(st.integers(1, 300).flatmap(lambda w: st.tuples(st.just(w), st.integers(0, (1 << w) - 1))))
def test_mask_text_round_trip(case):
    width, mask = case
    text = _to_bitstring(mask, width)
    assert text == series_bitstring_loop(BinarySeries(mask, width))
    assert BinarySeries(mask, width).to_bitstring() == text
    assert from_bitstring(text) == BinarySeries(mask, width)


def test_truncate():
    c = named_series("catalan", 16)
    assert c.truncate(8) == named_series("catalan", 8)
    with pytest.raises(PrecisionError):
        c.truncate(17)
