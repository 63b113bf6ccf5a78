import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from windtree.errors import DomainError
from windtree.exact import (ParityClass, Params, Slope, classify_params,
                            fraction_text, mediant_enumerate)

rationals = st.fractions(max_denominator=10**4)


@given(rationals, rationals)
def test_rational_arithmetic_is_exact(x, y):
    assert (x + y) - y == x
    if y != 0:
        assert (x * y) / y == x


def test_classify_params_examples():
    assert classify_params(1, 2, 1, 2).parity_class is ParityClass.E
    assert classify_params(2, 3, 2, 3).parity_class is ParityClass.E_PRIME
    assert classify_params(1, 3, 1, 2).parity_class is ParityClass.OTHER


@pytest.mark.parametrize("pqrs", [(2, 4, 1, 2), (0, 2, 1, 2), (3, 2, 1, 2),
                                  (1, 2, 2, 2), (1, 2, 5, 5)])
def test_classify_params_rejects_bad_input(pqrs):
    with pytest.raises(DomainError):
        classify_params(*pqrs)


@given(st.integers(1, 40), st.integers(2, 40), st.integers(1, 40), st.integers(2, 40))
def test_classify_params_partitions_valid_inputs(p, q, r, s):
    if not (0 < p < q and 0 < r < s and gcd(p, q) == 1 and gcd(r, s) == 1):
        with pytest.raises(DomainError):
            classify_params(p, q, r, s)
        return
    params = classify_params(p, q, r, s)
    in_e = p % 2 == 1 and r % 2 == 1 and q % 2 == 0 and s % 2 == 0
    in_ep = p % 2 == 0 and r % 2 == 0 and q % 2 == 1 and s % 2 == 1
    assert (params.parity_class is ParityClass.E) == in_e
    assert (params.parity_class is ParityClass.E_PRIME) == in_ep
    assert (params.parity_class is ParityClass.OTHER) == (not in_e and not in_ep)


def _reference_classify(p, q, r, s):
    """The validation and parity rule of the former free function
    `classify_params`: (parity class, None), or (None, its message)."""
    for num, den, name in ((p, q, "a"), (r, s, "b")):
        if not (0 < num < den):
            return None, f"dimension {name} = {num}/{den} outside (0,1)"
        if gcd(num, den) != 1:
            return None, f"dimension {name} = {num}/{den} not reduced"
    if p % 2 == 1 and r % 2 == 1 and q % 2 == 0 and s % 2 == 0:
        return ParityClass.E, None
    if p % 2 == 0 and r % 2 == 0 and q % 2 == 1 and s % 2 == 1:
        return ParityClass.E_PRIME, None
    return ParityClass.OTHER, None


def test_params_validates_and_classifies_by_the_former_rule():
    assert classify_params is Params
    # every valid dimension up to 12 and the invalid ones around them
    dims = [(num, den) for den in range(1, 13) for num in range(-1, den + 2)]
    for p, q in dims:
        for r, s in dims:
            want, message = _reference_classify(p, q, r, s)
            try:
                got = Params(p, q, r, s)
            except DomainError as exc:
                assert str(exc) == message, (p, q, r, s)
                continue
            assert message is None, (p, q, r, s)
            assert got.parity_class is want, (p, q, r, s)


def test_params_parse_roundtrip():
    params = Params.parse("3/4,1/2")
    assert (params.p, params.q, params.r, params.s) == (3, 4, 1, 2)
    assert params.a == Fraction(3, 4) and params.b == Fraction(1, 2)
    assert Params.parse(str(params)) == params


def test_mediant_enumerate_small():
    assert [str(sl) for sl in mediant_enumerate(1)] == ["1/1"]
    assert [str(sl) for sl in mediant_enumerate(2)] == ["1/2", "1/1", "2/1"]
    assert [str(sl) for sl in mediant_enumerate(3)] == [
        "1/3", "1/2", "2/3", "1/1", "3/2", "2/1", "3/1"]


@given(st.integers(1, 40))
def test_mediant_enumerate_matches_double_loop(limit):
    got = [(sl.u, sl.v) for sl in mediant_enumerate(limit)]
    want = sorted(
        ((u, v) for u in range(1, limit + 1) for v in range(1, limit + 1)
         if gcd(u, v) == 1),
        key=lambda t: Fraction(t[0], t[1]))
    assert got == want
    assert len(set(got)) == len(got)


def test_slope_validation():
    with pytest.raises(DomainError):
        Slope(2, 4)
    with pytest.raises(DomainError):
        Slope(0, 0)
    with pytest.raises(DomainError):
        Slope(-1, 2)
    assert Slope.parse("3").value() == 3
    assert Slope.parse("10/17").value() == Fraction(10, 17)
    assert Slope(0, 1).is_horizontal and Slope(1, 0).is_vertical


def test_slope_direction_vector():
    sl = Slope(3, 4)
    assert sl.direction((1, -1)) == (4, -3)


def _closest_in_class(target, eps, want_odd_over_even):
    """Search denominators up to 4/eps for the required parity pattern,
    stopping at the first approximation within eps."""
    best = None
    for den in range(2, int(4 / eps) + 1):
        den_ok = den % 2 == 0 if want_odd_over_even else den % 2 == 1
        if not den_ok:
            continue
        mid = int(target * den)
        for num in range(max(1, mid - 2), min(den, mid + 3)):
            num_ok = num % 2 == 1 if want_odd_over_even else num % 2 == 0
            if not num_ok or gcd(num, den) != 1:
                continue
            err = abs(Fraction(num, den) - target)
            if best is None or err < best[0]:
                best = (err, num, den)
        if best is not None and best[0] <= eps:
            return best
    return best


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)])
@pytest.mark.parametrize("target", [(Fraction(1, 3), Fraction(2, 7)),
                                    (Fraction(9, 10), Fraction(1, 2)),
                                    (Fraction(5, 8), Fraction(5, 8))])
def test_both_parity_classes_are_dense(target, eps):
    for want_e in (True, False):
        for coord in target:
            err, num, den = _closest_in_class(coord, eps, want_e)
            assert err <= eps
            check = classify_params(num, den, num, den)
            assert check.parity_class is (ParityClass.E if want_e
                                          else ParityClass.E_PRIME)


def _text_at_the_lowest_limit(x):
    """fraction_text(x) with Python's int-to-str digit limit at its least
    setting, 640, and the text of x with no limit."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        text = fraction_text(x)
        sys.set_int_max_str_digits(0)
        return text, f"{x.numerator}/{x.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


@given(num=st.integers(-10**9, 10**9), den_bits=st.integers(1, 40000),
       shift=st.integers(0, 60000))
def test_fraction_text_writes_terms_beyond_the_digit_limit(num, den_bits,
                                                           shift):
    # terms of up to 18,000 digits, the longer ones beyond every limit the
    # int-to-str conversion can be set to
    got, want = _text_at_the_lowest_limit(
        Fraction(num * 2**shift + 1, 2**den_bits + 1))
    assert got == want


@pytest.mark.parametrize("n", [10**5000, -10**5000 - 1, 7 * 10**5000 + 3],
                         ids=["power", "negative", "zeros-inside"])
def test_fraction_text_keeps_the_zeros_where_a_term_splits(n):
    got, want = _text_at_the_lowest_limit(Fraction(n))
    assert got == want
