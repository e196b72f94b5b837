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
c_rho = sum_mu g_mu chi_mu(rho), one kernel row per mu read by its parts
and summed a row at a time, then one integer sum over the B_rho.  That sum
is dense: the monomials of weight w are the classes of degree w, and each
of weight <= the top degree has a fixed slot in one list (weight-major,
each weight in reverse print order), so one gcd reduces the list and one
backward read gives the monomials in print order: the polynomial's
canonical form, handed over as built.

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
way out, so module_steps lists them directly.  socle_steps reads any
other polynomial as a B_rho form (num, den), c_rho = num[rho] / den over
descending cycle tuples rho, den > 0, as a scan builds them: the rows of
binomial_form_of_socles, cyclepoly.cycle_binomials and binomial_product,
by C(x, a) C(x, b) = sum over j <= min(a, b) of (a+b-j)! / (j! (a-j)!
(b-j)!) C(x, a+b-j) per variable, never through monomials.  Both routes
key the one cache of horizontal_strip_steps by the numerators of the f_mu
in lowest terms, in one order, so a cycle module's polynomial, the same
one rebuilt from its socles and an induced base holding its g_mu share a
list.
"""

from functools import lru_cache
from itertools import chain, compress, groupby, repeat
from math import comb, factorial, gcd
from operator import add, floordiv, mul, sub

from . import _mnpure
from .cyclepoly import CharPolynomial, falling_coefficients
from .partitions import Partition, centralizer_order, classes
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
    the module docstring, in one dense pass over its _binomial_rows: the
    B_rho are summed into one list over a common denominator, a slot per
    monomial of weight <= the top degree (its _slot_table), read back from
    the last slot in print order.  That is already canonical form,
    reduced, free of zeros and in print order, so the dict is handed over
    as built (from_canonical)."""
    rows = _binomial_rows(pairs)
    top = max(rows, default=0)
    den = factorial(top)  # every prod_i m_i(rho)! divides it
    positions, monos, bases = _slot_table(top)
    acc = [0] * len(monos)
    for k, row in rows.items():
        built, cycles = bases[k], classes(k).cycles
        for j, x in enumerate(row):
            if x:
                basis = built[j]
                if basis is None:
                    basis = built[j] = _binomial_basis(cycles[j], positions)
                terms, b_den = basis
                x *= den // b_den
                for pos, b in terms:
                    acc[pos] += x * b
    g = gcd(den, *acc)
    coefs = list(map(floordiv, reversed(acc), repeat(g)))  # in print order
    return CharPolynomial.from_canonical(dict(compress(zip(monos, coefs), coefs)), den // g)


@lru_cache(maxsize=1024)
def _binomial_rows(pairs):
    """{k: [c_rho over classes(k).cycles]}, the sum of n F_s over the
    frozenset of pairs (s, n) in the basis B_rho: c_rho = sum_mu g_mu
    chi_mu(rho), one kernel row per mu, summed a row at a time."""
    rows = {}
    for parts, n in _strip_coefficients(pairs).items():
        k, row = sum(parts), _mnpure.char_row(parts)
        if n == 1 or n == -1:
            op = add if n == 1 else sub
        else:
            op, row = add, map(mul, row, repeat(n))
        rows[k] = list(map(op, rows.get(k, repeat(0)), row))
    return rows


@lru_cache(maxsize=1024)
def _strip_coefficients(pairs):
    """{parts of mu: g_mu}, g_mu = sum of n (-1)^{|s/mu|} over the pairs
    (s, n) of the frozenset pairs and the vertical strips s/mu, zero entries
    dropped: the f_mu of the sum of the n F_s, keyed by the descending
    tuple of mu and in no fixed order."""
    g = {}
    for s, n in pairs:
        for parts, sign in _vertical_strips(s):
            g[parts] = g.get(parts, 0) + sign * n
    return {parts: n for parts, n in g.items() if n}


def _vertical_strips(soc):
    """The pairs (parts of mu, (-1)^{|soc/mu|}) over the mu with soc/mu a
    vertical strip: in each run of equal parts of soc, a suffix of the run
    (maybe empty) loses one box each, the runs independently of one
    another."""
    strips = [((), 1)]  # a part 1 that loses its box leaves no part
    for part, run in groupby(soc.parts):
        n = len(tuple(run))
        suffixes = [
            ((part,) * (n - k) + (part - 1,) * (k * (part > 1)), (-1) ** k) for k in range(n + 1)
        ]
        strips = [(parts + tail, sign * t) for parts, sign in strips for tail, t in suffixes]
    return strips


@lru_cache(maxsize=64)
def _slot_table(top):
    """(positions, monos, bases), the dense pass's table at top, built on
    the one at top - 1.  Per weight w <= top: positions[w] is {mono: slot}
    over the monomials of weight w in print order, and bases[w] holds the
    _binomial_basis of each class of degree w (classes(w).cycles order),
    None until a polynomial first reads it.  monos holds every monomial of
    weight <= top in print order, the slots read from the last.

    The monomial prod_i X_i^{e_i} of weight w is the class of degree w with
    e_i i-cycles, read as its pairs (i, e_i), i ascending: a tuple sort of
    those is print order within w (format_poly: variables
    lexicographically).  The slots are weight-major, each weight in reverse
    print order, so they depend on the weight alone and one list, read
    backwards, prints every polynomial of weight <= top.
    """
    positions, monos, bases = _slot_table(top - 1) if top else ((), (), ())
    cycles = classes(top).cycles
    new = sorted(tuple((i, rho.count(i)) for i in sorted(set(rho))) for rho in cycles)
    slots = dict(zip(new, range(len(monos) + len(new) - 1, -1, -1)))
    return positions + (slots,), tuple(new) + monos, bases + ([None] * len(cycles),)


def _binomial_basis(rho, positions):
    """B_rho = prod_i C(X_i, m_i(rho)) for the descending cycle tuple rho,
    the number of rho-typed stable subsets, as (terms, den): B_rho = sum of
    b / den times the monomial in slot pos over the pairs (pos, b) of
    terms, den > 0.  positions[w] is the {mono: slot} table of weight w of
    a _slot_table, for every weight w <= |rho|.

    Each factor is the falling factorial of X_i over m_i!, and the factors
    share no variable, so B_rho is built in integers over prod_i m_i!.
    """
    monos = [((), 0, 1)]  # (monomial, weight, coefficient)
    den = 1
    end = len(rho)
    while end:  # the runs of equal parts of rho, the smallest part first
        i = rho[end - 1]
        start = rho.index(i)
        k, end = end - start, start
        den *= factorial(k)
        row = tuple(enumerate(falling_coefficients(k)[1:], 1))  # s(k, j) != 0 for j >= 1
        monos = [(mono + ((i, j),), w + i * j, c * s) for mono, w, c in monos for j, s in row]
    return tuple((positions[w][mono], c) for mono, w, c in monos), den


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


def binomial_form_of_socles(socles):
    """frobenius_poly_of_socles(socles) as a B_rho form ({rho: c_rho}, 1),
    read off the _binomial_rows that build it, zero entries dropped."""
    num = {}
    for k, row in _binomial_rows(frozenset(socles.items())).items():
        num.update(compress(zip(classes(k).cycles, row), row))
    return num, 1


def binomial_product(f, g, top):
    """The product of the B_rho forms f and g up to top >= 0: (num, den)
    over the rho with |rho| <= top, den the product of theirs, zero entries
    dropped.  Both are split on their largest variable X_i, f = sum_a
    C(X_i, a) f_a and g alike (module docstring).  Each f_a g_b, in the
    variables below X_i, is formed once, by the same split, within the
    budget top - i max(a, b) that the smallest C(X_i, a+b-j) leaves: no
    |rho| ever shrinks, so a term past top is never formed."""
    (f, f_den), (g, g_den) = f, g
    i = max((rho[0] for rho in chain(f, g) if rho), default=0)
    if not i:
        c = f.get((), 0) * g.get((), 0)
        return {(): c} if c else {}, f_den * g_den
    out, g_parts = {}, _split(g, i)
    for a, f_a in _split(f, i).items():
        for b, g_b in g_parts.items():
            low = max(a, b)
            if top < i * low:
                continue
            sub, _ = binomial_product((f_a, 1), (g_b, 1), top - i * low)
            for n in range(low, a + b + 1):  # n = a + b - j
                room = top - i * n
                if room < 0:
                    break
                k = comb(n, a) * comb(a, a + b - n)
                head = (i,) * n
                for sigma, c in sub.items():
                    if n == low or sum(sigma) <= room:
                        rho = head + sigma
                        out[rho] = out.get(rho, 0) + k * c
    return {rho: c for rho, c in out.items() if c}, f_den * g_den


def _split(f, i):
    """{a: f_a} with f = sum_a C(X_i, a) f_a, no variable of f past X_i."""
    parts = {}
    for rho, c in f.items():
        a = rho.count(i)
        parts.setdefault(a, {})[rho[a:]] = c
    return parts


def frobenius_coefficients(form, top):
    """The f_mu of the polynomial of the B_rho form (num, den): (num, den)
    with f_mu = num[mu] / den for every partition mu with |mu| <= top,
    den > 0, zero entries dropped, num ordered by |mu|, each degree as
    partitions_of lists it: the order module_steps gives its g_mu.  Only
    kernel rows of degree <= top, and <= the largest |rho|, are read."""
    coeffs, den = form
    by_degree = {}
    for rho, c in coeffs.items():
        k = sum(rho)
        if k <= top:
            by_degree.setdefault(k, []).append((rho, c))
    scale = factorial(max(by_degree, default=0))  # every z_rho divides it
    num = {}
    for k, pairs in sorted(by_degree.items()):
        cls = classes(k)
        at = [cls.index[rho] for rho, _ in pairs]
        weights = [c * (scale // centralizer_order(rho)) for rho, c in pairs]
        for parts in cls.cycles:  # the partitions of k, as partitions_of lists them
            f = sum(map(mul, weights, map(_mnpure.char_row(parts).__getitem__, at)))
            if f:
                num[Partition.from_parts(parts)] = f
    return num, den * scale


def socle_steps(form, top):
    """The entries (s, |s| + mu_1, num[mu]) over the mu with |mu| <= top
    and the s with mu/s a horizontal strip, sorted by their start
    |s| + mu_1, and den: the multiplicity of s[m] at m in the polynomial of
    the B_rho form is the sum of num[mu] / den over the entries for s that
    start at or below m.  num[mu] / den is f_mu in lowest terms."""
    num, den = frobenius_coefficients(form, top)
    common = gcd(den, *num.values())
    pairs = tuple((mu, f // common) for mu, f in num.items())
    return horizontal_strip_steps(pairs), den // common


def module_steps(socles, top):
    """socle_steps of the module polynomial of the socle multiplicities
    {s: n} (frobenius_poly_of_socles) up to top, read off its g_mu, which
    are its f_mu in integers: the entries alone, over the denominator 1."""
    g = _strip_coefficients(frozenset(socles.items()))
    top = min(top, max(map(sum, g), default=0))
    return horizontal_strip_steps(
        tuple(
            (Partition.from_parts(parts), g[parts])
            for k in range(top + 1)
            for parts in classes(k).cycles  # as partitions_of lists them
            if parts in g
        )
    )
