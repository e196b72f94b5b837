"""The integer class-function core against a {class: Fraction} reference."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from repstab.characters import ClassFunction, inner_product
from repstab.cyclepoly import (
    CharPolynomial,
    X,
    cycle_poly,
    eval_rho_all,
)
from repstab.partitions import cycle_types_of, format_cycle_type

from bruteforce import (
    eval_rho,
    falling_factorial,
    ref_add,
    ref_class_function,
    ref_inner_product,
    ref_is_zero,
    ref_json,
    ref_mul,
    ref_scale,
    ref_sub,
)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def value_dicts(draw, m):
    types = cycle_types_of(m)
    return draw(st.dictionaries(st.sampled_from(types), rationals))


@st.composite
def degree_and_pair(draw):
    m = draw(st.integers(0, 6))
    a = draw(value_dicts(m))
    b = draw(st.one_of(st.just(dict(a)), value_dicts(m)))
    return m, a, b


def assert_canonical(f):
    assert f.den > 0
    assert gcd(f.den, *f.num) == 1
    assert len(f.num) == len(cycle_types_of(f.m))


@settings(deadline=None, max_examples=150)
@given(degree_and_pair(), rationals)
def test_arithmetic_matches_fraction_reference(case, c):
    m, a, b = case
    f, g = ClassFunction(m, a), ClassFunction(m, b)
    ra, rb = ref_class_function(m, a), ref_class_function(m, b)
    assert f.values == ra
    for got, want in (
        (f + g, ref_add(ra, rb)),
        (f - g, ref_sub(ra, rb)),
        (f * g, ref_mul(ra, rb)),
        (f.scale(c), ref_scale(ra, c)),
        (c * f, ref_scale(ra, c)),
    ):
        assert_canonical(got)
        assert got.values == want
        assert got.is_zero() == ref_is_zero(want)
    assert (f == g) == (ra == rb)
    assert f.is_zero() == ref_is_zero(ra)
    assert inner_product(f, g) == ref_inner_product(ra, rb, m)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 6).flatmap(lambda m: st.tuples(st.just(m), value_dicts(m))))
def test_equal_functions_have_equal_fields(case):
    m, a = case
    f = ClassFunction(m, a)
    # the same function reached through other denominators
    third = Fraction(1, 3)
    for g in (f.scale(3).scale(third), f + ClassFunction.zero(m), (f - f) + f):
        assert g == f
        assert (g.num, g.den) == (f.num, f.den)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 6).flatmap(lambda m: st.tuples(st.just(m), value_dicts(m))))
def test_json_roundtrip_matches_reference(case):
    m, a = case
    f = ClassFunction(m, a)
    data = f.to_json_dict()
    assert data == ref_json(m, ref_class_function(m, a))
    read = {e["type"]: Fraction(e["value"]) for e in data["values"]}
    assert read == {format_cycle_type(t): v for t, v in f.values.items()}


def test_values_mapping_reads_like_the_old_dict():
    f = ClassFunction(3, {(3,): Fraction(1, 2)})
    assert f.values == {(3,): Fraction(1, 2), (2, 1): 0, (1, 1, 1): 0}
    assert list(f.values) == cycle_types_of(3)
    with pytest.raises(KeyError):
        f.values[(4,)]
    f.values[(3,)] = 7  # a fresh dict: the function is unchanged
    assert f.values[(3,)] == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^\(4,\) is not a class of degree 3$"):
        ClassFunction(3, {(4,): 1})


def check_eval_rho_all(poly, m):
    f = eval_rho_all(poly, m)
    assert_canonical(f)
    assert f.values == {t: eval_rho(poly, t) for t in cycle_types_of(m)}


@pytest.mark.parametrize(
    "poly",
    [
        falling_factorial(X(1), 3) / factorial(3),
        falling_factorial(X(2), 2) / factorial(2) - Fraction(5, 7) * X(1),
        cycle_poly(4),
        cycle_poly(6) * Fraction(2, 9) + 1,
        CharPolynomial.zero(),
        CharPolynomial.constant(Fraction(-3, 4)),
    ],
    ids=str,
)
def test_eval_rho_all_matches_per_class_evaluation(poly):
    for m in range(9):
        check_eval_rho_all(poly, m)


@settings(deadline=None, max_examples=60)
@given(
    st.dictionaries(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 3)),
            max_size=3,
            unique_by=lambda ve: ve[0],
        ).map(lambda mono: tuple(sorted(mono))),
        rationals,
        max_size=5,
    ),
    st.integers(0, 8),
)
def test_eval_rho_all_random_polynomials(terms, m):
    check_eval_rho_all(CharPolynomial(terms), m)
