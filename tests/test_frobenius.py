import contextlib
import importlib
import io
import operator
import pkgutil
from fractions import Fraction
from itertools import zip_longest
from math import factorial

from hypothesis import given, settings, strategies as st

import repstab
from repstab import cli, frobenius
from repstab.characters import IrrDecomposition, inner_product, irr_char, irr_character
from repstab.cyclepoly import (
    CharPolynomial,
    X,
    eval_rho_all,
    falling_coefficients,
    format_poly,
)
from repstab.fbmodules import _cycle_form, parse_spec
from repstab.frobenius import (
    binomial_form_of_socles,
    binomial_product,
    frobenius_coefficients,
    frobenius_poly,
    frobenius_poly_of_module,
    frobenius_poly_of_socles,
    frobenius_poly_stable,
    module_steps,
)
from repstab.partitions import Partition, classes, cycle_types_of, partitions_of
from repstab.stability import verify_equivalence

import bruteforce
from bruteforce import (
    binomial_coefficients,
    cycle_poly_product,
    decompose_poly,
    eval_rho,
    falling_factorial,
    lowest_terms,
    mn_beta_set,
    module_steps_by_round_trip,
    poly_of_socles_by_sum,
    print_order,
    stable_poly_by_drops,
    vertical_strips_by_drops,
)


def test_single_row_is_constant_one():
    for m in (1, 2, 5, 9):
        assert frobenius_poly(Partition([m])) == CharPolynomial.one()
    assert frobenius_poly_stable(Partition()) == CharPolynomial.one()


def test_empty_partition_is_trivial():
    assert frobenius_poly(Partition()) == CharPolynomial.one()


def test_hook_with_one_box_socle():
    expected = X(1) - 1
    assert frobenius_poly_stable(Partition([1])) == expected
    for m in range(2, 9):
        assert frobenius_poly(Partition([m - 1, 1])) == expected


def test_two_box_socles():
    # socle (2): from the two-row shapes (m-2, 2)
    assert frobenius_poly_stable(Partition([2])) == (
        X(1) * (X(1) - 1) / 2 + X(2) - X(1)
    )
    # socle (1,1): from the shapes (m-2, 1, 1)
    assert frobenius_poly_stable(Partition([1, 1])) == (
        (X(1) - 1) * (X(1) - 2) / 2 - X(2)
    )


def test_eval_matches_recursion_small():
    for m in range(1, 8):
        for lam in partitions_of(m):
            poly = frobenius_poly(lam)
            for t in cycle_types_of(m):
                assert eval_rho(poly, t) == irr_char(lam, t), (lam, t)


def test_weight_law():
    for m in range(1, 9):
        for lam in partitions_of(m):
            assert frobenius_poly(lam).weighted_degree() == lam.weight()


def test_stable_polynomial_weight_is_the_socle_size():
    # frobpoly reports |s| as the weight of F_s without reading its monomials
    for k in range(11):
        for s in partitions_of(k):
            assert frobenius_poly_stable(s).weighted_degree() == s.size, s


def test_variable_bound():
    for m in range(2, 9):
        for lam in partitions_of(m):
            if len(lam) < 2:
                continue
            bound = lam[1] + len(lam) - 2
            poly = frobenius_poly(lam)
            assert all(v <= bound for v in poly.variables()), lam


def test_socle_independence_structural_and_by_evaluation():
    socles = [s for size in range(5) for s in partitions_of(size)]
    for soc in socles:
        stable = frobenius_poly_stable(soc)
        first = soc[0] if soc else 0
        for m in range(max(soc.size + first, 1), 11):
            lam = soc.pad(m)
            assert frobenius_poly(lam) == stable
            assert eval_rho_all(stable, m) == IrrDecomposition(m, {lam: 1}).character()


def test_stable_polys_match_beta_set_reference():
    # every socle of size <= 8, at its first admissible degree and the next,
    # against the beta-set recursion, which shares no code with the kernel
    for size in range(9):
        for soc in partitions_of(size):
            poly = frobenius_poly_stable(soc)
            assert poly.weighted_degree() == size, soc
            first = max(size + (soc[0] if soc else 0), 1)
            for n in (first, first + 1):
                shape = soc.pad(n).parts
                value = eval_rho_all(poly, n)
                assert value.den == 1, (soc, n)
                expected = tuple(mn_beta_set(shape, c) for c in classes(n).cycles)
                assert value.num == expected, (soc, n)


def test_vertical_strips_match_the_drop_filter():
    for size in range(11):
        for soc in partitions_of(size):
            strips = [(Partition(mu), sign) for mu, sign in frobenius._vertical_strips(soc)]
            assert len(strips) == len(dict(strips)), soc  # no mu listed twice
            assert dict(strips) == vertical_strips_by_drops(soc), soc


def test_stable_polys_match_the_per_socle_route():
    for size in range(9):
        for soc in partitions_of(size):
            assert frobenius_poly_stable(soc) == stable_poly_by_drops(soc), soc


socle_multiplicities = st.dictionaries(
    st.integers(0, 7).flatmap(lambda k: st.sampled_from(partitions_of(k))),
    st.integers(-3, 3),
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(socle_multiplicities)
def test_module_polynomial_matches_the_per_socle_sum(socles):
    # zero multiplicities included: they add nothing; the one dense pass
    # emits the monomials already in print order
    poly = frobenius_poly_of_socles(socles)
    assert poly == poly_of_socles_by_sum(socles)
    assert list(poly.num) == sorted(poly.num, key=print_order)


def test_monomial_positions_hold_each_weight_in_print_order():
    # weight w holds its p(w) monomials, in print order, on the slots just
    # past those of weight < w, numbered from the last printed one; the
    # table at w extends the one at w - 1 and shares its basis lists
    end, below = 0, ((), ())
    for w in range(16):
        positions, monos, bases = frobenius._slot_table(w)
        table = positions[w]
        assert positions[:w] == below[0] and all(map(operator.is_, bases[:w], below[1])), w
        assert len(table) == len(bases[w]) == len(classes(w).cycles), w
        assert all(sum(v * e for v, e in mono) == w for mono in table), w
        for mono in table:  # canonical: variables ascending, exponents positive
            variables = [v for v, _ in mono]
            assert variables == sorted(set(variables)) and all(e > 0 for _, e in mono), mono
        assert list(table) == sorted(table, key=print_order), w
        assert list(table.values()) == list(range(end + len(table) - 1, end - 1, -1)), w
        end += len(table)
        assert len(monos) == end, w
        assert list(monos) == sorted(monos, key=print_order), w  # the slots read backwards
        assert all(positions[sum(v * e for v, e in m)][m] == end - 1 - i for i, m in enumerate(monos))
        below = positions, bases


def exponent_vectors(w, n):
    """Every (e_1, ..., e_n) of nonnegative integers with sum_i i e_i = w,
    one variable at a time from X_n down."""
    if not n:
        return [()] if not w else []
    return [rest + (e,) for e in range(w // n + 1) for rest in exponent_vectors(w - n * e, n - 1)]


def test_slot_table_holds_every_monomial_once_in_print_order():
    # against monomials counted without classes: the exponent vectors of
    # each weight, as (i, e_i) pairs over the e_i > 0, in print order, on
    # the slots past those of the lower weights, numbered from the last
    end = 0
    for w in range(25):
        positions, monos, _ = frobenius._slot_table(w)
        vectors = exponent_vectors(w, w)
        expected = sorted(
            {tuple((i, e) for i, e in enumerate(vec, 1) if e) for vec in vectors}, key=print_order
        )
        assert len(expected) == len(vectors), w
        assert list(positions[w]) == expected, w
        assert list(positions[w].values()) == list(range(end + len(expected) - 1, end - 1, -1)), w
        end += len(expected)
        assert len(monos) == end and list(monos[: len(expected)]) == expected, w


def basis_terms(rho):
    """frobenius._binomial_basis(rho) with its slots read back as
    monomials: (num, den), B_rho = sum of num[mono] / den mono."""
    positions = frobenius._slot_table(sum(rho))[0]
    terms, den = frobenius._binomial_basis(rho, positions)
    monos = {slot: mono for table in positions for mono, slot in table.items()}
    assert len({slot for slot, _ in terms}) == len(terms), rho  # each slot once
    return {monos[slot]: b for slot, b in terms}, den


def library_caches():
    """{qualified name: function} for every lru_cache defined at the top
    level of a repstab module, found by importing each module."""
    caches = {}
    for info in pkgutil.iter_modules(repstab.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"repstab.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = value
    return caches


def test_caches_are_bounded():
    caches = library_caches()
    for name in [
        "repstab._mnpure._row",
        "repstab._mnpure._key",
        "repstab.cli._scan_fields",
        "repstab.fbmodules.family_steps",
        "repstab.fbmodules.parse_spec",
        "repstab.fbmodules.stable_range",
        "repstab.frobenius._slot_table",
        "repstab.frobenius._strip_coefficients",
        "repstab.pieri.horizontal_strip_steps",
        "repstab.cyclepoly._monomial",
    ]:
        assert name in caches, name
    for name, cached in caches.items():
        assert cached.cache_info().maxsize is not None, name


def test_clear_caches_empties_every_cache():
    repstab.clear_caches()
    for text, m_max in [
        ('(proj 5 "3,2" "2,2,1" "3,1,1")', 28),
        ("(tensor (vfam 2,1) (vfam 1))", 17),
    ]:
        format_poly(verify_equivalence(parse_spec(text), m_max).poly)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["rankscan", "--json", "--spec", text, "--mmax", str(m_max), "--budget", "30"])
    caches = library_caches()

    def sizes():
        return {name: c.cache_info().currsize for name, c in caches.items()}

    assert sizes()["repstab.cyclepoly._monomial"] > 0
    assert sizes()["repstab.frobenius._slot_table"] > 0
    assert sizes()["repstab.pieri.horizontal_strip_steps"] > 0
    for name in ["parse_spec", "stable_range"]:
        assert sizes()[f"repstab.fbmodules.{name}"] > 0, name
    assert sizes()["repstab.cli._scan_fields"] == 2
    assert sizes()["repstab._mnpure._key"] > 0
    repstab.clear_caches()
    assert {name: n for name, n in sizes().items() if n} == {}


def test_binomial_basis_against_ring_arithmetic():
    # built in integers over prod m_i!, which the leading coefficient 1
    # leaves in canonical form; checked against generic products
    for n in range(11):
        for rho in classes(n).cycles:
            expected = CharPolynomial.one()
            for i in set(rho):
                k = rho.count(i)
                expected = expected * falling_factorial(X(i), k) / factorial(k)
            assert basis_terms(rho) == (expected.num, expected.den), rho


def test_falling_coefficients_against_ring_arithmetic():
    for n in range(13):
        terms = falling_factorial(X(1), n).terms
        expected = tuple(terms.get(((1, k),) if k else (), 0) for k in range(n + 1))
        assert falling_coefficients(n) == expected, n


def test_module_polynomial_examples():
    m = 6
    assert frobenius_poly_of_module(
        IrrDecomposition(m, {Partition([m]): 1})
    ) == CharPolynomial.one()
    perm = IrrDecomposition(m, {Partition([m]): 1, Partition([m - 1, 1]): 1})
    assert frobenius_poly_of_module(perm) == X(1)
    double = IrrDecomposition(3, {Partition([2, 1]): 2})
    assert frobenius_poly_of_module(double) == 2 * (X(1) - 1)
    assert frobenius_poly_of_module(IrrDecomposition(4)).is_zero()


def test_module_polynomial_follows_every_multiplicity():
    # the cache is keyed on the socle multiplicities: the same socles with
    # other multiplicities give another polynomial, and the same vector at
    # another degree gives the same one
    one, two = frobenius_poly_stable(Partition()), frobenius_poly_stable(Partition([1]))
    for m, a, b in [(5, 1, 1), (5, 2, 1), (5, 1, 3), (7, 2, 1), (2, 1, 1)]:
        dec = IrrDecomposition(m, {Partition([m]): a, Partition([m - 1, 1]): b})
        assert frobenius_poly_of_module(dec) == a * one + b * two, (m, a, b)


def test_module_polynomial_evaluates_to_module_character():
    dec = IrrDecomposition(
        5, {Partition([4, 1]): 2, Partition([3, 2]): 1, Partition([5]): 3}
    )
    poly = frobenius_poly_of_module(dec)
    assert eval_rho_all(poly, 5) == dec.character()
    assert poly.weighted_degree() == dec.module_weight()


decompositions = st.integers(0, 7).flatmap(
    lambda m: st.builds(
        IrrDecomposition,
        st.just(m),
        st.dictionaries(st.sampled_from(partitions_of(m)), st.integers(1, 5), max_size=4),
    )
)


@settings(max_examples=60, deadline=None)
@given(decompositions)
def test_module_polynomial_is_the_weighted_sum(dec):
    # summed in integers over one denominator; checked against ring sums
    expected = CharPolynomial.zero()
    for lam, n in dec.items():
        expected = expected + n * frobenius_poly(lam)
    assert frobenius_poly_of_module(dec) == expected


# -- from a polynomial back to its multiplicities ------------------------------

polynomials = st.dictionaries(
    st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=2).map(
        lambda mono: tuple(sorted(mono.items()))
    ),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=4,
).map(CharPolynomial)


def _fractions(pair):
    num, den = pair
    return {key: Fraction(v, den) for key, v in num.items()}


@settings(max_examples=60, deadline=None)
@given(polynomials)
def test_binomial_coefficients_round_trip(poly):
    total = CharPolynomial.zero()
    for rho, c in _fractions(binomial_coefficients(poly)).items():
        total = total + c * CharPolynomial.from_ints(*basis_terms(rho))
    assert total == poly


@settings(max_examples=60, deadline=None)
@given(polynomials, st.integers(0, 12))
def test_binomial_coefficients_up_to_top(poly, top):
    # pruned as the variables are multiplied in: the rho with |rho| <= top
    num, den = binomial_coefficients(poly)
    kept = {rho: c for rho, c in num.items() if sum(rho) <= top}
    assert binomial_coefficients(poly, top) == (kept, den)


def test_binomial_coefficients_build_each_stirling_row_once(monkeypatch):
    # one row per distinct (exponent, width read) in a call, whatever the
    # order of the monomials; a bounded cache of whole rows missed more often
    # as the order mixed the exponents up
    build, rows = bruteforce.power_coefficients, []

    def counted(e, width):
        rows.append((e, width))
        return build(e, width)

    monkeypatch.setattr(bruteforce, "power_coefficients", counted)
    poly, top = cycle_poly_product((6, 6, 6, 6)), 8
    binomial_coefficients(poly, top)
    assert sorted(rows) == sorted({(e, min(e, top // i)) for mono in poly.num for i, e in mono})
    for e, width in rows:  # the full row, cut at width
        assert build(e, width) == build(e, e)[: width + 1], (e, width)


cycle_partitions = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(max_examples=60, deadline=None)
@given(cycle_partitions)
def test_cycle_forms_match_the_monomial_product(nu):
    # multiplied in the binomial basis and cut at top, against the monomial
    # product converted by the Stirling numbers of the second kind
    poly = cycle_poly_product(nu)
    for top in range(sum(nu) + 2):
        expected = lowest_terms(binomial_coefficients(poly, top))
        assert lowest_terms(_cycle_form(nu, top)) == expected, top


@settings(max_examples=60, deadline=None)
@given(socle_multiplicities, socle_multiplicities)
def test_binomial_product_matches_the_monomial_product(left, right):
    p, q = frobenius_poly_of_socles(left), frobenius_poly_of_socles(right)
    f, g = binomial_form_of_socles(left), binomial_form_of_socles(right)
    assert lowest_terms(f) == lowest_terms(binomial_coefficients(p))
    weight = max(p.weighted_degree(), 0) + max(q.weighted_degree(), 0)
    for top in range(weight + 2):
        expected = lowest_terms(binomial_coefficients(p * q, top))
        assert lowest_terms(binomial_product(f, g, top)) == expected, top


def test_a_long_cycle_scan_multiplies_no_monomials(monkeypatch):
    # the weight-80 cycle module at 14 stays in the binomial basis: it took
    # 1.3 s to multiply its monomials out and convert them back
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)

        return wrapper

    monkeypatch.setattr(CharPolynomial, "__mul__", counted("mul", CharPolynomial.__mul__))
    monkeypatch.setattr(CharPolynomial, "__rmul__", counted("rmul", CharPolynomial.__rmul__))
    repstab.clear_caches()
    report = verify_equivalence(parse_spec("(cycle 8 8 8 8 8 8 8 8 8 8)"), 14)
    assert (report.rank_rs, report.rank_pc) == (14, None)
    assert calls == []


def test_frobenius_coefficients_of_stable_polynomials():
    # frobenius_poly_stable(s) = sum of (-1)^{|s/mu|} over the vertical
    # strips s/mu of the polynomials inducing chi_mu, read backwards
    for size in range(9):
        for s in partitions_of(size):
            expected = {}
            for k in range(size + 1):
                for mu in partitions_of(k):
                    diffs = [a - b for a, b in zip_longest(s, mu, fillvalue=0)]
                    if len(mu) <= len(s) and all(d in (0, 1) for d in diffs):
                        expected[mu] = (-1) ** (size - k)
            form = binomial_coefficients(frobenius_poly_stable(s))
            got = _fractions(frobenius_coefficients(form, size))
            assert got == expected, s


@settings(max_examples=80, deadline=None)
@given(socle_multiplicities, st.integers(0, 10))
def test_module_steps_match_the_round_trip(socles, top):
    # tops below and above the weight; the g_mu are the f_mu of the sum of
    # the n F_s, in integers, so the way back reduces to the denominator 1
    g = frobenius._strip_coefficients(frozenset(socles.items()))
    poly = poly_of_socles_by_sum(socles)
    f = _fractions(frobenius_coefficients(binomial_coefficients(poly), poly.weighted_degree()))
    assert {mu.parts: c for mu, c in f.items()} == g
    steps, den = module_steps_by_round_trip(socles, top)
    assert den == 1
    assert module_steps(socles, top) == steps


@settings(max_examples=40, deadline=None)
@given(polynomials)
def test_decompose_poly_against_inner_products(poly):
    # rational polynomials are mostly no characters: the multiplicities
    # may be negative or fractions, and must still be the inner products
    for m in range(11):
        f = eval_rho_all(poly, m)
        expected = {}
        for lam in partitions_of(m):
            c = inner_product(irr_character(lam), f)
            if c:
                expected[lam.socle()] = c
        assert decompose_poly(poly, m) == expected, m
