from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import repstab
from repstab import _mnpure
from repstab.characters import (
    ClassFunction,
    IrrDecomposition,
    character_table,
    decompose,
    inner_product,
    irr_char,
    irr_character,
)
from repstab.errors import BudgetError
from repstab.fbmodules import character_at, parse_spec
from repstab.partitions import Partition, cycle_types_of, format_cycle_type, partitions_of

from bruteforce import (
    class_sizes_by_enumeration,
    cycle_lengths,
    hook_length_dimension,
    induce_bruteforce,
    mn_beta_set,
    sign_of,
    standard_rep_character,
)


def test_trivial_character_is_one():
    for m in range(1, 7):
        lam = Partition([m])
        for t in cycle_types_of(m):
            assert irr_char(lam, t) == 1


def test_standard_rep_against_bruteforce():
    # oracle: trace of the permutation-matrix model minus 1
    for m in (3, 4, 5):
        oracle = standard_rep_character(m)
        lam = Partition([m - 1, 1])
        for t in cycle_types_of(m):
            assert irr_char(lam, t) == oracle[t]


def test_standard_rep_s3_frozen_values():
    lam = Partition([2, 1])
    assert irr_char(lam, (1, 1, 1)) == 2
    assert irr_char(lam, (2, 1)) == 0
    assert irr_char(lam, (3,)) == -1


def test_sign_character_against_parity():
    for m in (2, 3, 4, 5):
        lam = Partition([1] * m)
        for p in permutations(range(m)):
            assert irr_char(lam, cycle_lengths(p)) == sign_of(p)
    assert irr_char(Partition([1, 1, 1, 1]), (2, 1, 1)) == -1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError, match=r"^\(1, 1, 1, 1\) is not a class of degree 3$"):
        irr_char(Partition([2, 1]), (1, 1, 1, 1))


def test_integrality_everywhere():
    for m in range(9):
        for lam in partitions_of(m):
            for t in cycle_types_of(m):
                assert isinstance(irr_char(lam, t), int)


def test_schur_orthonormality():
    for m in range(7):
        chars = {lam: irr_character(lam) for lam in partitions_of(m)}
        for lam, f in chars.items():
            for mu, g in chars.items():
                assert inner_product(f, g) == (1 if lam == mu else 0)


def test_inner_product_matches_group_sum():
    # oracle: the raw definition as a sum over all group elements
    for m in (3, 4):
        f = irr_character(Partition([m - 1, 1]))
        g = irr_character(Partition([1] * m))
        total = Fraction(0)
        for p in permutations(range(m)):
            t = cycle_lengths(p)
            total += f.values[t] * g.values[t]
        assert inner_product(f, g) == total / factorial(m)


def test_inner_product_normalization():
    for m in range(1, 8):
        one = irr_character(Partition([m]))
        assert inner_product(one, one) == 1


def test_sum_of_squares_of_dimensions():
    for m in range(9):
        total = sum(irr_char(lam, (1,) * m) ** 2 for lam in partitions_of(m))
        assert total == factorial(m)


def test_dimensions_match_hook_length_formula():
    # third independent route to the identity-class values
    for m in range(11):
        for lam in partitions_of(m):
            assert irr_char(lam, (1,) * m) == hook_length_dimension(lam.parts), lam


def test_regular_character_decomposition():
    # the regular representation contains each irreducible dim-many times
    m = 5
    vals = {t: 0 for t in cycle_types_of(m)}
    vals[(1,) * m] = factorial(m)
    reg = decompose(ClassFunction(m, vals))
    for lam in partitions_of(m):
        assert reg.multiplicity(lam) == irr_char(lam, (1,) * m)


def test_decompose_permutation_module():
    m = 3
    perm = ClassFunction(m, {t: t.count(1) for t in cycle_types_of(m)})
    d = decompose(perm)
    assert d == IrrDecomposition(m, {Partition([3]): 1, Partition([2, 1]): 1})


def test_decompose_irreducible_and_zero():
    lam = Partition([3, 2])
    d = decompose(irr_character(lam))
    assert d == IrrDecomposition(5, {lam: 1})
    assert decompose(ClassFunction.zero(4)).is_zero()


def test_decompose_rejects_non_characters():
    m = 3
    with pytest.raises(ValueError, match="not a character"):
        decompose(ClassFunction(m, {t: Fraction(1, 2) for t in cycle_types_of(m)}))
    half = ClassFunction(2, {t: Fraction(1, 2) for t in cycle_types_of(2)})
    with pytest.raises(ValueError, match=r"^not a character: multiplicity of 2 is 1/2$"):
        decompose(half)
    neg = irr_character(Partition([2, 1])).scale(-1)
    with pytest.raises(ValueError, match=r"^not a character: multiplicity of 2,1 is -1$"):
        decompose(neg)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 5), st.data())
def test_decompose_roundtrip(m, data):
    lams = partitions_of(m)
    mults = data.draw(
        st.dictionaries(st.sampled_from(lams), st.integers(0, 3), max_size=4)
    )
    d = IrrDecomposition(m, mults)
    assert decompose(d.character()) == d


def test_decompose_stops_after_the_last_factor(monkeypatch):
    f = character_at(parse_spec("(cycle 2 1)"), 17)
    repstab.clear_caches()
    rows = []
    char_row = _mnpure.char_row

    def counted(shape):
        rows.append(shape)
        return char_row(shape)

    monkeypatch.setattr(_mnpure, "char_row", counted)
    d = decompose(f)
    order = [lam.parts for lam in partitions_of(17)]
    last = max(order.index(lam.parts) for lam, _ in d.items())
    assert rows == order[: last + 1]
    assert len(rows) == 6  # of the 297 rows of degree 17


_sizes_by_enumeration = cache(class_sizes_by_enumeration)


def reference_decompose(m, num):
    """Every row in the partitions_of(m) order, from the beta-set kernel
    and class sizes counted over the whole group."""
    sizes = _sizes_by_enumeration(m)
    cycles = cycle_types_of(m)
    mults = {}
    for lam in partitions_of(m):
        a = Fraction(
            sum(sizes[c] * v * mn_beta_set(lam.parts, c) for c, v in zip(cycles, num)),
            factorial(m),
        )
        if a.denominator != 1 or a < 0:
            raise ValueError(f"not a character: multiplicity of {lam} is {a}")
        mults[lam] = a
    return IrrDecomposition(m, mults)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def integer_class_functions(draw):
    """A character plus integer noise on the classes; the noise is often 0."""
    m = draw(st.integers(0, 7))
    lams = partitions_of(m)
    mults = draw(st.dictionaries(st.sampled_from(lams), st.integers(0, 3), max_size=4))
    noise = draw(
        st.one_of(
            st.just([0] * len(lams)),
            st.lists(st.integers(-3, 3), min_size=len(lams), max_size=len(lams)),
        )
    )
    num = [a + b for a, b in zip(IrrDecomposition(m, mults).character().num, noise)]
    return m, num


@settings(deadline=None, max_examples=200)
@given(integer_class_functions())
def test_decompose_matches_full_table_reference(case):
    m, num = case
    assert outcome(decompose, ClassFunction.from_ints(m, num)) == outcome(
        reference_decompose, m, num
    )


def test_irr_decomposition_rejects_non_integral_multiplicities():
    with pytest.raises(ValueError, match="^non-integral multiplicity 1/2 for 3$"):
        IrrDecomposition(3, {Partition([3]): Fraction(1, 2), Partition([2, 1]): 2.7})
    with pytest.raises(ValueError, match="^non-integral multiplicity 2.7 for 2,1$"):
        IrrDecomposition(3, {Partition([2, 1]): 2.7})
    assert IrrDecomposition(3, {Partition([3]): Fraction(4, 2)}).multiplicity(
        Partition([3])
    ) == 2


def test_socle_multiplicities_are_a_fresh_dict():
    # computed once per decomposition; a caller may change what it gets
    dec = IrrDecomposition(4, {Partition([3, 1]): 2, Partition([4]): 1})
    got = dec.socle_multiplicities()
    assert got == {Partition([1]): 2, Partition(): 1}
    got[Partition([1])] = 5
    got.clear()
    assert dec.socle_multiplicities() == {Partition([1]): 2, Partition(): 1}


def test_character_table_shape():
    types, table = character_table(4)
    assert len(types) == 5 and len(table) == 5
    assert table[Partition([4])] == (1, 1, 1, 1, 1)


def test_induction_identity_when_degrees_match():
    chi = irr_character(Partition([2, 1]))
    assert induce_bruteforce(chi, 3) == chi


def test_induction_from_s1_to_s2():
    chi = irr_character(Partition([1]))
    ind = induce_bruteforce(chi, 2)
    assert ind.values[(1, 1)] == 2
    assert ind.values[(2,)] == 0


def test_induction_matches_independent_enumeration():
    # oracle: a separately written whole-group conjugation sum
    from bruteforce import induced_character_value, representative as perm_rep

    for n, m in ((1, 3), (2, 4), (3, 5)):
        for nu in partitions_of(n):
            chi = irr_character(nu)
            chi_by_lengths = chi.values
            ind = induce_bruteforce(chi, m)
            for t in cycle_types_of(m):
                g = perm_rep(t, m)
                assert ind.values[t] == induced_character_value(chi_by_lengths, n, g)


def test_induction_matches_murnaghan_nakayama_sum():
    # oracle cross-check: coset-sum induction vs the Pieri-predicted sum of
    # irreducible characters (computed by the independent recursion)
    chi = irr_character(Partition([2, 1]))
    ind = induce_bruteforce(chi, 4)
    expected = (
        irr_character(Partition([3, 1]))
        + irr_character(Partition([2, 2]))
        + irr_character(Partition([2, 1, 1]))
    )
    assert ind == expected


def test_induction_budget():
    with pytest.raises(BudgetError):
        induce_bruteforce(irr_character(Partition([1])), 9)


def test_class_function_json_roundtrip():
    f = irr_character(Partition([2, 2])).scale(Fraction(1, 3))
    data = f.to_json_dict()
    assert data["m"] == 4
    assert all(isinstance(e["value"], str) for e in data["values"])
    read = {e["type"]: Fraction(e["value"]) for e in data["values"]}
    assert read == {format_cycle_type(t): v for t, v in f.values.items()}
    assert read["1^4"] == Fraction(2, 3) and read["1^2 2^1"] == 0
