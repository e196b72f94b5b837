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

with m_i(rho) the number of i-cycles of rho.  So the polynomial F_s of
the socle s is sum_rho c_rho B_rho, B_rho = prod_i C(X_i, m_i(rho)): it
depends only on s, has weight |s|, and is chi_{s[n]} at every admissible
n.  A module's polynomial sum_s n_s F_s takes one route for one socle or
many: g_mu = sum_s n_s (-1)^{|s/mu|} over the vertical strips s/mu, then
c_rho = sum_mu g_mu chi_mu(rho), one kernel row per mu, then one integer
sum over the B_rho.

The way back, from a polynomial P to its multiplicities, runs through
the same basis.  B_rho taken at degree m is the character induced from
the indicator of the class rho of S_|rho| times the trivial character of
S_(m - |rho|), so its Frobenius characteristic is (p_rho / z_rho)
h_(m - |rho|) (Macdonald I.7).  Write P = sum_rho c_rho B_rho and expand
p_rho in Schur functions:

    ch(P at m) = sum over mu of f_mu s_mu h_(m - |mu|),
    f_mu       = sum over rho |- |mu| of c_rho chi_mu(rho) / z_rho.

The f_mu do not depend on m.  By Pieri's rule s_mu h_(m - |mu|) holds
s[m] once when s[m]/mu is a horizontal strip, that is when
m - |s| >= mu_1 >= s_1 >= mu_2 >= s_2 >= ...: mu/s is a horizontal strip
and m >= |s| + mu_1.  So the multiplicity of s[m] in P at m is a step
function of m, read off the f_mu of degree <= weight(P) without any
class of degree m.  Its entries (s, |s| + mu_1, f_mu) come from
pieri.horizontal_strip_steps, which lists the steps of an induced family
the same way.  For a module polynomial sum_s n_s F_s the f_mu are its
g_mu (orthogonality of the kernel rows), integers already summed on the
way out, so module_steps lists them directly; socle_steps takes any
other polynomial through the basis B_rho and the kernel rows.  Both key
the one cache of horizontal_strip_steps by the numerators of the f_mu in
lowest terms, in one order, so a cycle module's polynomial, the same one
rebuilt from its socles and an induced base holding its g_mu share a list.
"""

from functools import lru_cache
from itertools import groupby, repeat
from math import factorial, gcd

from .characters import irr_row
from .cyclepoly import CharPolynomial, falling_coefficients
from .partitions import Partition, centralizer_order, classes, partitions_of
from .pieri import horizontal_strip_steps


def frobenius_poly(lam):
    """The character polynomial of the irreducible indexed by lam."""
    return frobenius_poly_stable(lam.socle())


def frobenius_poly_stable(soc):
    """The character polynomial shared by every irreducible with socle soc."""
    return _poly_of_socles(frozenset([(soc, 1)]))


@lru_cache(maxsize=1024)
def _poly_of_socles(pairs):
    """The sum of n F_s over the frozenset of pairs (s, n), by the route of
    the module docstring, over a common denominator of the B_rho."""
    c = {}  # degree k -> the c_rho over the classes rho of degree k
    for mu, n in _strip_coefficients(pairs).items():
        k = mu.size
        c[k] = [a + n * x for a, x in zip(c.get(k, repeat(0)), irr_row(mu))]
    den = factorial(max(c, default=0))  # every prod_i m_i(rho)! divides it
    num = {}
    for k, row in c.items():
        bases, cycles = _binomial_bases(k), classes(k).cycles
        for j, x in enumerate(row):
            if x:
                if bases[j] is None:
                    bases[j] = _binomial_basis(cycles[j])
                b_num, b_den = bases[j]
                x *= den // b_den
                for mono, b in b_num.items():
                    num[mono] = num.get(mono, 0) + x * b
    return CharPolynomial.from_ints(num, den)


@lru_cache(maxsize=1024)
def _strip_coefficients(pairs):
    """{mu: g_mu}, g_mu = sum of n (-1)^{|s/mu|} over the pairs (s, n) of
    the frozenset pairs and the vertical strips s/mu, zero entries dropped:
    the f_mu of the sum of the n F_s.  Summed on the parts of mu, so each
    mu becomes a Partition once, and ordered by |mu|, each degree as
    partitions_of lists it (descending parts)."""
    g = {}
    for s, n in pairs:
        for parts, sign in _vertical_strips(s):
            g[parts] = g.get(parts, 0) + sign * n
    ordered = sorted(g.items(), reverse=True)
    ordered.sort(key=lambda item: sum(item[0]))  # stable: keeps the order in a degree
    return {Partition.from_parts(parts): n for parts, n in ordered if n}


def _vertical_strips(soc):
    """The pairs (parts of mu, (-1)^{|soc/mu|}) over the mu with soc/mu a
    vertical strip: in each run of equal parts of soc, a suffix of the run
    (maybe empty) loses one box each, the runs independently of one
    another."""
    strips = [((), 1)]  # a part 1 that loses its box leaves no part
    for part, run in groupby(soc.parts):
        n = len(tuple(run))
        strips = [
            (parts + (part,) * (n - k) + (part - 1,) * (k * (part > 1)), sign * (-1) ** k)
            for parts, sign in strips
            for k in range(n + 1)
        ]
    return strips


@lru_cache(maxsize=64)
def _binomial_bases(k):
    """The _binomial_basis of every class of degree k, in classes(k).cycles
    order, as a list that holds None for each one not yet built: a
    polynomial may read a few classes of a degree, a module all of them."""
    return [None] * len(classes(k).cycles)


def _binomial_basis(rho):
    """B_rho = prod_i C(X_i, m_i(rho)) for the descending cycle tuple rho,
    the number of rho-typed stable subsets, as (num, den): B_rho =
    sum num[mono] / den mono, den > 0.

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
            for j, s in enumerate(falling_coefficients(k))
            if s
        }
    return num, den


def frobenius_poly_of_module(dec):
    """Sum of irreducible character polynomials weighted by multiplicities.

    It depends on the socle multiplicities of dec alone
    (frobenius_poly_of_socles).
    """
    return frobenius_poly_of_socles(dec.socle_multiplicities())


def frobenius_poly_of_socles(socles):
    """The sum of n * frobenius_poly_stable(s) over the socle
    multiplicities {s: n}, cached on them and so shared by every degree
    where they are the same."""
    return _poly_of_socles(frozenset(socles.items()))


def binomial_coefficients(poly, top=None):
    """poly in the basis B_rho: (num, den) with poly = sum_rho num[rho] / den
    B_rho over descending cycle tuples rho, den > 0, zero entries dropped;
    only the rho with |rho| <= top when top is given.

    Each power is X_i^e = sum_j S(e, j) j! C(X_i, j), with S the Stirling
    numbers of the second kind, and the powers of a monomial share no
    variable, so the monomial goes to the B_rho with m_i(rho) <= e_i.  |rho|
    only grows as the variables are multiplied in, so a rho past top is
    dropped as soon as it is formed.
    """
    if top is None:
        top = poly.weighted_degree()
    num = {}
    for mono, coef in poly.num.items():
        terms = {(): (coef, 0)}  # rho: (coefficient, |rho|)
        for i, e in reversed(mono):  # descending variables give descending tuples
            row = _power_coefficients(e)
            terms = {
                rho + (i,) * j: (c * row[j], size + i * j)
                for rho, (c, size) in terms.items()
                for j in range(1, min(e, (top - size) // i) + 1)  # row[0] = 0
            }
        for rho, (c, _) in terms.items():
            num[rho] = num.get(rho, 0) + c
    return {rho: c for rho, c in num.items() if c}, poly.den


@lru_cache(maxsize=64)
def _power_coefficients(e):
    """(S(e, 0) 0!, ..., S(e, e) e!), with S the Stirling numbers of the
    second kind: x^e = sum_j S(e, j) j! C(x, j)."""
    row = (1,)
    for _ in range(e):  # S(n + 1, j) = j S(n, j) + S(n, j - 1)
        row = tuple(j * a + b for j, (a, b) in enumerate(zip(row + (0,), (0,) + row)))
    return tuple(s * factorial(j) for j, s in enumerate(row))


def frobenius_coefficients(poly, top=None):
    """The f_mu of poly: (num, den) with f_mu = num[mu] / den for every
    partition mu with |mu| <= top (default: all of them, up to the weight
    of poly), den > 0, zero entries dropped, num in the order of
    _strip_coefficients.

    Only kernel rows of degree <= top, and <= weight(poly), are read.
    """
    coeffs, den = binomial_coefficients(poly, top)
    by_degree = {}
    for rho, c in coeffs.items():
        by_degree.setdefault(sum(rho), []).append((rho, c))
    scale = factorial(max(by_degree, default=0))  # every z_rho divides it
    num = {}
    for k, pairs in sorted(by_degree.items()):
        index = classes(k).index
        weights = [(index[rho], c * (scale // centralizer_order(rho))) for rho, c in pairs]
        for mu in partitions_of(k):
            row = irr_row(mu)
            f = sum(w * row[j] for j, w in weights)
            if f:
                num[mu] = f
    return num, den * scale


@lru_cache(maxsize=1024)
def socle_steps(poly, top):
    """The entries (s, |s| + mu_1, num[mu]) over the mu with |mu| <= top
    and the s with mu/s a horizontal strip, sorted by their start
    |s| + mu_1, and den: the multiplicity of s[m] in poly at m is the sum
    of num[mu] / den over the entries for s that start at or below m.
    num[mu] / den is f_mu in lowest terms.
    """
    num, den = frobenius_coefficients(poly, top)
    common = gcd(den, *num.values())
    pairs = tuple((mu, f // common) for mu, f in num.items())
    return horizontal_strip_steps(pairs), den // common


def module_steps(socles, top):
    """socle_steps of the module polynomial of the socle multiplicities
    {s: n} (frobenius_poly_of_socles) up to top, read off its g_mu, which
    are its f_mu in integers: the entries alone, over the denominator 1."""
    g = _strip_coefficients(frozenset(socles.items()))
    return horizontal_strip_steps(tuple((mu, n) for mu, n in g.items() if mu.size <= top))
