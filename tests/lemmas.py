"""Exercises of the structural facts relating the two stability ranks.

No command or scan needs these; the tests use them to check the lemmas
behind the certificate: the evaluation map from weight-bounded
polynomials to class functions (image dimension and kernel triviality),
the relations that vanish on every class of a degree and the class
indicators, minimality of the module weight among representing-polynomial
weights, stability of trivial-isotypic multiplicities, uniqueness of the
representing polynomial, the basis change from the cycle polynomials E_l
back to X_l, and the rebuilding of a stable family from single-irreducible
families.
"""

from collections import Counter
from fractions import Fraction

from repstab.characters import inner_product, irr_character
from repstab.cyclepoly import CharPolynomial, X, eval_rho_all
from repstab.fbmodules import DirectSum, VFamily, terms_at
from repstab.frobenius import frobenius_poly_of_module
from repstab.partitions import Partition, cycle_types_of, partitions_of
from repstab.stability import rank_pc_estimate

from bruteforce import divisor_terms, eval_rho, falling_factorial, totient


# -- polynomials ---------------------------------------------------------------


def substitute(poly, mapping):
    """Substitute whole polynomials for variables: X_i := mapping[i].

    Variables absent from the mapping are kept.
    """
    total = CharPolynomial.zero()
    for mono, coef in poly.terms.items():
        term = CharPolynomial.constant(coef)
        for v, e in mono:
            base = mapping.get(v)
            if base is None:
                base = CharPolynomial.variable(v)
            term = term * base**e
        total = total + term
    return total


def kernel_relations(m):
    """Generators of relations that vanish on every class of degree m.

    The linear relation X_1 + 2 X_2 + ... + m X_m - m, and for each i the
    falling factorial X_i (X_i - 1) ... (X_i - floor(m/i)).
    """
    linear = sum((i * X(i) for i in range(1, m + 1)), CharPolynomial.zero()) - m
    rels = [linear]
    for i in range(1, m + 1):
        rels.append(falling_factorial(X(i), m // i + 1))
    return rels


def class_indicator(t):
    """A polynomial whose evaluation is 1 on the class of t and 0 on every
    other class of the same degree.

    Built as the product over i of the Lagrange-style factors
    D_k(X_i) = R_k(X_i) / R_k(k) with R_k(Z) = prod_{j != k} (Z - j),
    where k is the number of i-cycles of t and j ranges over the values
    X_i can take on degree m, i.e. 0..floor(m/i).
    """
    m = sum(t)
    out = CharPolynomial.one()
    for i in range(1, m + 1):
        out = out * _lagrange_factor(X(i), t.count(i), m // i)
    return out


def _lagrange_factor(z, k, span):
    num = CharPolynomial.one()
    den = Fraction(1)
    for j in range(span + 1):
        if j == k:
            continue
        num = num * (z - j)
        den *= k - j
    return num / den


def express_X_in_E(n):
    """Invert the triangular system expressing cycle counts.

    Returns [Q_1, ..., Q_n]: Q_l is a polynomial of weight l whose
    variables stand for the cycle polynomials E_1..E_l, such that
    substituting E_i for the i-th variable recovers X_l identically.
    """
    qs = []
    for ell in range(1, n + 1):
        expr = X(ell)
        for d, e, coef in divisor_terms(ell):
            expr = expr - coef * falling_factorial(qs[d - 1], e)
        qs.append(expr / totient(ell))
    return qs


# -- the evaluation map ----------------------------------------------------------


def uniqueness_check(p, q, n, m_max):
    """Decide whether two candidate polynomials agree, by evaluation.

    Returns 'distinct' when some degree in [n, m_max] separates them,
    'equal' when they vanish jointly on the window and the kernel guard
    (both weights <= m_max / 2) makes that conclusive, and 'inconclusive'
    when the guard fails.
    """
    degw = max(p.weighted_degree(), q.weighted_degree())
    if 2 * degw > m_max or n > m_max:
        return "inconclusive"
    for m in range(n, m_max + 1):
        if not eval_rho_all(p - q, m).is_zero():
            return "distinct"
    # joint vanishing at m_max with weight <= m_max/2 forces equality
    if p != q:
        raise RuntimeError("distinct polynomials of weight <= m_max/2 vanish jointly")
    return "equal"


def weight_bounded_monomials(d):
    """The monomial basis of polynomials of weight <= d: one monomial
    X_1^{n_1} ... X_d^{n_d} per partition of size <= d."""
    return [
        CharPolynomial({tuple(Counter(t).items()): 1})
        for j in range(d + 1)
        for t in cycle_types_of(j)
    ]


def matrix_rank(rows):
    """Rank of a rational matrix by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rho_image_kernel(m, d):
    """Dimensions of the image and kernel of evaluation restricted to
    polynomials of weight <= d, on the classes of degree m."""
    monos = weight_bounded_monomials(d)
    types = cycle_types_of(m)
    rows = [[eval_rho(mono, t) for t in types] for mono in monos]
    image = matrix_rank(rows)
    return image, len(monos) - image


def low_weight_class_function_count(m, d):
    """Number of partitions of m of weight <= d: the dimension the image
    of the weight-restricted evaluation must hit."""
    return sum(1 for lam in partitions_of(m) if lam.weight() <= d)


# -- weights and stable families ---------------------------------------------------


def minimal_weight_check(dec, poly):
    """Check that a representing polynomial weighs at least the module, and
    that the module's own polynomial achieves the weight exactly.

    Raises when poly does not actually represent the character of dec.
    """
    if eval_rho_all(poly, dec.m) != dec.character():
        raise ValueError("polynomial does not represent the module character")
    if dec.is_zero():
        return True
    w = dec.module_weight()
    return (
        poly.weighted_degree() >= w
        and frobenius_poly_of_module(dec).weighted_degree() == w
    )


def scalar_stability_check(poly, m_range):
    """Trivial-isotypic multiplicities <1 | evaluation of poly> must be
    constant from the weight of poly on."""
    degw = poly.weighted_degree()

    def trivial(m):  # the trivial character: the irreducible of shape (m)
        return irr_character(Partition([m] if m else []))

    tail = [
        inner_product(trivial(m), eval_rho_all(poly, m))
        for m in sorted(m_range)
        if m >= degw
    ]
    return len(set(tail)) <= 1


def double_first(lam):
    """Duplicate the first row: (l1, l2, ...) -> (l1, l1, l2, ...).

    The result has lam as its socle.  Empty stays empty.
    """
    if not lam.parts:
        return lam
    return Partition((lam.parts[0],) + lam.parts)


def reconstruct_stable_family(spec, m_max):
    """Rebuild the family as a direct sum of single-irreducible families.

    Anchors at M = max(2 * weight, rank_pc): each factor of the degree-M
    decomposition contributes one family labelled by its socle with the
    first part doubled, so that the rebuilt family reproduces the factor at
    every admissible degree.  Returns None when the family is not
    polynomially stable in the window or M exceeds it.
    """
    pc = rank_pc_estimate(spec, m_max)
    if pc is None:
        return None
    n, poly = pc
    d = 0 if poly.is_zero() else poly.weighted_degree()
    anchor = max(2 * d, n)
    if anchor > m_max:
        return None
    children = []
    for mu, mult in terms_at(spec, anchor).items():
        lam = mu.socle()
        children.extend([VFamily(double_first(lam))] * mult)
    return DirectSum(tuple(children))
