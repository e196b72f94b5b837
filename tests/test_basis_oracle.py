"""Polynomial-basis oracle: (PC) => (RS) read off the polynomial side.

A family's polynomial P is peeled into the basis of character polynomials
q_s = frobenius_poly_stable(s), one weight at a time from the top.  The
top-weight part of q_s is sum_rho chi_s(rho) X^rho / prod_i m_i(rho)!,
so with c_rho the coefficient of X^rho in P times prod_i m_i(rho)!, the
orthogonality of characters gives a_s = sum_rho c_rho chi_s(rho) |rho| / w!.
Character values come from the beta-set reference and class sizes from
enumeration, not from the library's kernel or class records.
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from repstab.characters import IrrDecomposition
from repstab.fbmodules import parse_spec, terms_at
from repstab.frobenius import frobenius_poly_stable
from repstab.partitions import partitions_of
from repstab.stability import verify_equivalence

from bruteforce import class_sizes_by_enumeration, mn_beta_set

# the rankscan specs of the benchmark's session workload
SESSION_SPECS = (
    "(cycle 2 1)",
    "(cycle 3 2)",
    "(tensor (vfam 2,1) (vfam 1))",
    '(proj 5 "3,2" "2,2,1" "3,1,1")',
)


def peel_socle_multiplicities(poly):
    """The socle multiplicities a_s with poly == sum_s a_s q_s.

    Fails unless every a_s is a nonnegative integer and the peeling ends
    at the zero polynomial.
    """
    mults = {}
    rest = poly
    while not rest.is_zero():
        w = rest.weighted_degree()
        top = {}  # descending cycle lengths of rho -> c_rho
        for mono, coef in rest.terms.items():
            if sum(v * e for v, e in mono) == w:
                cycles = tuple(v for v, e in reversed(mono) for _ in range(e))
                top[cycles] = coef * prod(factorial(e) for _, e in mono)
        sizes = class_sizes_by_enumeration(w)
        for s in partitions_of(w):
            a = Fraction(
                sum(c * mn_beta_set(s.parts, rho) * sizes[rho] for rho, c in top.items()),
                factorial(w),
            )
            if a.denominator != 1 or a < 0:
                pytest.fail(f"socle {s} gets multiplicity {a} in {poly}")
            if a:
                mults[s] = int(a)
                rest = rest - a * frobenius_poly_stable(s)
        if not rest.is_zero() and rest.weighted_degree() >= w:
            pytest.fail(f"weight {w} of {poly} is not spanned by character polynomials")
    return mults


@pytest.mark.parametrize("text", SESSION_SPECS)
def test_basis_oracle_agrees_with_table_route(text):
    spec = parse_spec(text)
    for m_max in (12, 13, 14):
        report = verify_equivalence(spec, m_max)
        mults = peel_socle_multiplicities(report.poly)
        assert mults == report.stable_multiplicities, m_max
        lo = max(report.rank_pc, 2 * report.poly.weighted_degree())
        for m in range(lo, m_max + 1):
            expected = IrrDecomposition(m, {s.pad(m): n for s, n in mults.items()})
            assert expected == terms_at(spec, m), (m_max, m)
