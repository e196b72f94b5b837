"""The canonical character polynomial of an irreducible, and of a module.

Write s[n] for the partition (n - |s|, s) of n.  Expanding the first row
of the Jacobi-Trudi determinant (Macdonald, Symmetric Functions, I.7
Ex. 14) gives, for every n >= |s| + s_1,

    chi_{s[n]} = sum over mu with s/mu a vertical strip of
                 (-1)^{|s/mu|} Ind_{S_|mu| x S_(n-|mu|)}^{S_n} (chi_mu x 1).

At an element with X_i cycles of length i, the induced character counts
the stable |mu|-subsets, each weighted by chi_mu of the cycle type rho
the element induces on it:

    Ind(chi_mu x 1) = sum over rho |- |mu| of chi_mu(rho) prod_i C(X_i, m_i(rho)),

with m_i(rho) the number of i-cycles of rho.  So the polynomial of the
socle s is sum_rho c_rho B_rho, where each c_rho is an integer sum of
Murnaghan-Nakayama values and B_rho = prod_i C(X_i, m_i(rho)).  It
depends only on s, has weight |s|, and evaluates to chi_{s[n]} at every
admissible degree n.
"""

from functools import lru_cache
from itertools import product
from math import factorial, lcm

from .characters import irr_row
from .cyclepoly import CharPolynomial
from .partitions import Partition, classes


def frobenius_poly(lam):
    """The character polynomial of the irreducible indexed by lam."""
    return frobenius_poly_stable(lam.socle())


@lru_cache(maxsize=1024)
def frobenius_poly_stable(soc):
    """The character polynomial shared by every irreducible with socle soc."""
    coeffs = {}  # descending cycle tuple rho -> c_rho
    for drop in product((0, 1), repeat=len(soc)):
        mu = [p - d for p, d in zip(soc, drop)]
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue  # mu is no partition, so soc/mu is no vertical strip
        lam = Partition([p for p in mu if p])
        sign = -1 if sum(drop) % 2 else 1
        for rho, value in zip(classes(lam.size).cycles, irr_row(lam)):
            coeffs[rho] = coeffs.get(rho, 0) + sign * value
    return _combine((c, _binomial_basis(rho)) for rho, c in coeffs.items() if c)


@lru_cache(maxsize=1024)
def _binomial_basis(rho):
    """B_rho = prod_i C(X_i, m_i(rho)) for the descending cycle tuple rho:
    the number of rho-typed stable subsets.

    Each factor is the falling factorial of X_i over m_i!, and the factors
    share no variable, so B_rho is built in integers over prod_i m_i!.
    """
    num = {(): 1}
    den = 1
    for i in sorted(set(rho)):
        k = rho.count(i)
        den *= factorial(k)
        num = {
            mono + ((i, j),): c * s
            for mono, c in num.items()
            for j, s in enumerate(_falling_coefficients(k))
            if s
        }
    return CharPolynomial.from_ints(num, den)


@lru_cache(maxsize=64)
def _falling_coefficients(n):
    """(s(n, 0), ..., s(n, n)), the signed Stirling numbers of the first
    kind: x (x-1) ... (x-n+1) = sum_k s(n, k) x^k."""
    coeffs = (1,)
    for t in range(n):  # multiply by (x - t)
        coeffs = tuple(a - t * b for a, b in zip((0,) + coeffs, coeffs + (0,)))
    return coeffs


def frobenius_poly_of_module(dec):
    """Sum of irreducible character polynomials weighted by multiplicities."""
    return _combine((n, frobenius_poly(lam)) for lam, n in dec.items())


def _combine(pairs):
    """The sum of c * poly over the (c, poly) pairs, c an integer.

    The sum runs in integers over D, the lcm of every coefficient
    denominator, and each output coefficient becomes a Fraction once.
    """
    pairs = list(pairs)
    den = lcm(*(b.denominator for _, poly in pairs for b in poly.terms.values()))
    num = {}
    for c, poly in pairs:
        for mono, b in poly.terms.items():
            num[mono] = num.get(mono, 0) + c * b.numerator * (den // b.denominator)
    return CharPolynomial.from_ints(num, den)
