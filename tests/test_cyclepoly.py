import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from repstab.cyclepoly import (
    NEG_INF,
    CharPolynomial,
    X,
    eval_rho_all,
    _print_key,
    format_poly,
    parse_poly,
)
from repstab.errors import ParseError
from repstab.partitions import cycle_types_of

from bruteforce import eval_rho, falling_factorial, format_poly_by_sort, print_order
from lemmas import class_indicator, kernel_relations


def random_poly(rng, max_var=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(
            (v, rng.randint(1, 3))
            for v in sorted(rng.sample(range(1, max_var + 1), rng.randint(0, 2)))
        )
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return CharPolynomial(terms)


def test_ring_basics():
    p = X(1) * X(1)
    assert p == CharPolynomial({((1, 2),): 1})
    assert p.weighted_degree() == 2
    q = (X(2) + 1) * (X(2) - 1)
    assert q == X(2) ** 2 - 1
    assert q.weighted_degree() == 4
    assert (X(1) * X(1)) == X(1) ** 2


def test_weighted_degree_examples():
    assert X(3).weighted_degree() == 3
    assert (X(1) ** 2 * X(2)).weighted_degree() == 4
    assert CharPolynomial.constant(5).weighted_degree() == 0
    assert CharPolynomial.zero().weighted_degree() == NEG_INF
    assert NEG_INF < 0 and NEG_INF < -10**9


def test_degree_is_multiplicative_on_weights():
    rng = random.Random(1)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).weighted_degree() == p.weighted_degree() + q.weighted_degree()


def test_eval_rho_examples():
    assert eval_rho(X(1), (1, 1, 1)) == 3
    # a relation of degree 3: vanishes on every class
    rel = X(1) + 2 * X(2) + 3 * X(3) - 3
    for t in cycle_types_of(3):
        assert eval_rho(rel, t) == 0
    rel4 = falling_factorial(X(2), 3)  # X2 (X2-1) (X2-2), floor(4/2)=2
    for t in cycle_types_of(4):
        assert eval_rho(rel4, t) == 0


def test_kernel_relations_vanish():
    for m in range(1, 9):
        for rel in kernel_relations(m):
            for t in cycle_types_of(m):
                assert eval_rho(rel, t) == 0


def test_eval_rho_is_ring_homomorphism():
    rng = random.Random(7)
    for m in range(7):
        types = cycle_types_of(m)
        for _ in range(10):
            p, q = random_poly(rng), random_poly(rng)
            for t in types:
                assert eval_rho(p * q, t) == eval_rho(p, t) * eval_rho(q, t)
                assert eval_rho(p + q, t) == eval_rho(p, t) + eval_rho(q, t)


def test_eval_stability_under_degree_extension():
    # extending a permutation by fixed points adds to X_1 only
    rng = random.Random(11)
    for n in range(6):
        for t in cycle_types_of(n):
            for m in range(n, n + 4):
                ext = t + (1,) * (m - sum(t))
                assert eval_rho(X(1), ext) == eval_rho(X(1), t) + (m - n)
                for i in range(2, m + 1):
                    assert eval_rho(X(i), ext) == eval_rho(X(i), t)


def test_class_indicator_small():
    t = (1,)
    assert eval_rho(class_indicator(t), t) == 1
    ind = class_indicator((2, 1))
    values = [eval_rho(ind, s) for s in cycle_types_of(3)]
    assert values == [0, 1, 0]
    ind4 = class_indicator((2, 2))
    for s in cycle_types_of(4):
        assert eval_rho(ind4, s) == (1 if s == (2, 2) else 0)


def test_class_indicators_span_all_class_functions():
    # evaluating every indicator on every class gives the identity matrix,
    # so the indicators span the full space of class functions
    for m in range(7):
        types = cycle_types_of(m)
        for t in types:
            ind = class_indicator(t)
            for s in types:
                assert eval_rho(ind, s) == (1 if s == t else 0)


def test_eval_rho_all_returns_class_function():
    f = eval_rho_all(X(1) ** 2 - X(2), 4)
    assert f.m == 4
    assert f.values[(1, 1, 1, 1)] == 16


def test_binomial_poly():
    # 'X1 choose k' = X1 (X1 - 1) ... (X1 - k + 1) / k!
    def binomial(p, k):
        return falling_factorial(p, k) / factorial(k)

    assert binomial(X(1), 0) == CharPolynomial.one()
    assert binomial(X(1), 2) == X(1) * (X(1) - 1) / 2
    for k in range(5):
        for n in range(8):
            assert eval_rho(binomial(X(1), k), (1,) * n) == comb(n, k)


def test_format_examples():
    assert format_poly(CharPolynomial.zero()) == "0"
    assert format_poly(X(1) - 1) == "X1 - 1"
    assert format_poly(2 * X(1) ** 2 * X(2) - Fraction(1, 3)) == "2*X1^2*X2 - 1/3"
    assert format_poly(X(2) + X(1) ** 2) == "X1^2 + X2"


def test_parse_examples():
    assert parse_poly("X1 - 1") == X(1) - 1
    assert parse_poly("1/2*X1^2 - 1/2*X1 + X2") == X(1) * (X(1) - 1) / 2 + X(2)
    assert parse_poly("2*X1^2*X2 - 1/3") == 2 * X(1) ** 2 * X(2) - Fraction(1, 3)
    assert parse_poly(" - X3 + 4 ") == 4 - X(3)


# (text, message, pos) for malformed polynomials, quirks included: the
# index of "X 0" is reported where it was expected (just after X), and a
# zero exponent just after its digits
POLY_ERRORS = [
    ("", "empty polynomial", 0),
    ("   ", "empty polynomial", 3),
    ("X 0", "variables start at X1", 1),
    ("X0", "variables start at X1", 1),
    ("X1^0 ", "exponents must be positive", 4),
    ("X1^ 00", "exponents must be positive", 6),
    ("1/0", "zero denominator", 2),
    ("1/ 0", "zero denominator", 3),
    ("2*", "expected variable, found ''", 2),
    ("X1 + Y2", "expected variable, found 'Y'", 5),
    ("X1 + + X2", "expected variable, found '+'", 5),
    ("X1 X2", "expected '+' or '-', found 'X'", 3),
    ("X1 23", "expected '+' or '-', found '2'", 3),
    ("X", "expected integer, found ''", 1),
    ("X  ", "expected integer, found ''", 3),
    ("X^2", "expected integer, found '^'", 1),
    ("1/", "expected integer, found ''", 2),
    ("2*3", "expected variable, found '3'", 2),
    ("- - X1", "expected variable, found '-'", 2),
    ("X1^2^3", "expected '+' or '-', found '^'", 4),
    ("X1 +", "expected variable, found ''", 4),
]


def test_parse_errors_carry_position():
    for text, message, pos in POLY_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert str(info.value) == f"{message} (at position {pos})", text
        assert info.value.pos == pos, text


def test_parse_poly_reads_decimal_digits_only():
    # '²' passes str.isdigit but not int(): it is read as a stray character
    for text, message, pos in [
        ("X²", "expected integer, found '²'", 1),
        ("²", "expected variable, found '²'", 0),
        ("X1 + 3²", "expected '+' or '-', found '²'", 6),
    ]:
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert str(info.value) == f"{message} (at position {pos})", text
    assert parse_poly("X٣") == X(3)  # an Arabic-Indic 3 is a decimal digit


def test_print_parse_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(300):
        p = random_poly(rng, max_var=5, max_terms=5)
        assert format_poly(p) == format_poly_by_sort(p)
        assert parse_poly(format_poly(p)) == p or (
            p.is_zero() and parse_poly(format_poly(p)).is_zero()
        )


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(1, 5), st.integers(1, 3)).map(lambda ve: (ve,)),
        st.fractions(min_value=-5, max_value=5),
        max_size=4,
    )
)
def test_print_parse_roundtrip_property(terms):
    p = CharPolynomial(terms)
    assert format_poly(p) == format_poly_by_sort(p)
    assert parse_poly(format_poly(p)) == p


monomials = st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)

_tying = st.sampled_from([1, 2, 5, 10, 11, 20])  # products of these often tie


@settings(max_examples=200, deadline=None)
@given(
    st.sets(
        st.dictionaries(st.sampled_from([1, 2, 10]), _tying, max_size=3).map(
            lambda d: tuple(sorted(d.items()))
        ),
        max_size=12,
    )
)
def test_print_key_orders_like_weight_then_monomial(monos):
    # many monomials share a weight, so the order within one weight matters;
    # variables and exponents past 9 catch a key compared as text
    keys = {mono: _print_key(mono) for mono in monos}
    assert len(set(keys.values())) == len(monos)
    assert sorted(monos, key=keys.get) == sorted(monos, key=print_order)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(monomials, st.integers(-6, 6), max_size=5), st.integers(1, 12))
def test_from_ints_matches_fraction_constructor(num, den):
    p = _canonical(CharPolynomial.from_ints(num, den))
    assert p == CharPolynomial({mono: Fraction(v, den) for mono, v in num.items()})
    assert set(p.terms) == {mono for mono, v in num.items() if v}


def test_parse_poly_builds_one_polynomial(monkeypatch):
    # summing the terms one polynomial at a time made O(n) polynomials and
    # took quadratic time in the number n of terms
    from_ints = CharPolynomial.from_ints.__func__
    calls = []

    def counted(cls, num, den=1):
        calls.append(len(num))
        return from_ints(cls, num, den)

    monkeypatch.setattr(CharPolynomial, "from_ints", classmethod(counted))
    for p in [X(1) - 1, (X(1) + 2 * X(2) - Fraction(1, 3) * X(3) + 5) ** 6]:
        text = format_poly(p)
        calls.clear()
        assert parse_poly(text) == p
        assert calls == [len(p.num)], text


# -- integers over one denominator, against dicts of Fractions -------------------


def _dict_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return out


def _dict_lin(a, b, sign):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + sign * c
    return out


def _canonical(p):
    """p, after checking that it is in canonical form, monomials in print
    order included, and reads back from its text in the same order."""
    assert p.den > 0 and gcd(p.den, *p.num.values()) == 1
    assert all(type(v) is int and v for v in p.num.values())
    assert list(p.num) == sorted(p.num, key=print_order)  # print order
    back = parse_poly(format_poly(p))
    assert back == p and list(back.num) == list(p.num)
    return p


fraction_dicts = st.dictionaries(
    monomials, st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=4
)


@settings(max_examples=150, deadline=None)
@given(
    fraction_dicts,
    fraction_dicts,
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
    st.integers(0, 3),
)
def test_ring_operations_against_fraction_dicts(a, b, c, e):
    p, q = _canonical(CharPolynomial(a)), _canonical(CharPolynomial(b))
    power = {(): 1}
    for _ in range(e):
        power = _dict_mul(power, a)
    for got, expected in [
        (p + q, _dict_lin(a, b, 1)),
        (p - q, _dict_lin(a, b, -1)),
        (p * q, _dict_mul(a, b)),
        (p / c, {mono: v / c for mono, v in a.items()}),
        (p**e, power),
        (c - p, _dict_lin({(): c}, a, -1)),
        (-p, {mono: -v for mono, v in a.items()}),
    ]:
        expected = {mono: Fraction(v) for mono, v in expected.items() if v}
        assert _canonical(got).terms == expected
        # the same polynomial from a scaled numerator over a negative denominator
        den = 7 * lcm(*(v.denominator for v in expected.values()))
        same = CharPolynomial.from_ints(
            {mono: -v.numerator * (den // v.denominator) for mono, v in expected.items()},
            -den,
        )
        assert _canonical(same) == got and hash(same) == hash(got)
    assert ((p + q) - q == p) and hash((p + q) - q) == hash(p)
    assert (p == c) == ({mono: v for mono, v in a.items() if v} == {(): c})
    # equal objects hash alike, so a constant polynomial finds its number's
    # dict entry and the zero polynomial finds 0's
    for poly, number in [(p, c), (p - p, 0), (CharPolynomial.constant(c), c)]:
        if poly == number:
            assert hash(poly) == hash(number) and {number: 1}[poly] == 1
    assert CharPolynomial.constant(c) == c and p - p == 0
