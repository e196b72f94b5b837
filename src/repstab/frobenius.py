"""The canonical character polynomial of an irreducible, and of a module.

For a partition lam = (l1 >= l2 >= ... >= lk) of m, the character value
chi_lam(g) is the coefficient of y1^(l1+k-1) y2^(l2+k-2) ... yk^(lk) in

    Delta(y) * prod_d P_d(y)^(X_d(g)),

with Delta the Vandermonde product and P_d the d-th power sum.  Setting
y1 = 1 (the product is homogeneous) and expanding (1 + P_d)^(X_d) as a
binomial series with polynomial coefficients C(X_d, j) turns the target
coefficient into a polynomial in the cycle-count variables: the result
depends only on the socle of lam, has weight equal to the weight of lam,
and evaluates to chi_lam on every class of every admissible degree.

The expansion is organised by the multi-index (j_d) of chosen series
terms: for each weighted vector with sum d*j_d bounded by the socle size,
an integer coefficient is extracted from the (truncated) product of the
antisymmetric factor with prod_d P_d^(j_d), and scaled by
prod_d C(X_d, j_d).
"""

from itertools import permutations

from .cyclepoly import CharPolynomial, X, binomial_poly

_stable_cache = {}


def frobenius_poly(lam):
    """The character polynomial of the irreducible indexed by lam."""
    return frobenius_poly_stable(lam.socle())


def frobenius_poly_stable(soc):
    """The character polynomial shared by every irreducible with socle soc."""
    poly = _stable_cache.get(soc)
    if poly is None:
        poly = _expand_reduced_product(soc)
        _stable_cache[soc] = poly
    return poly


def frobenius_poly_of_module(dec):
    """Sum of irreducible character polynomials weighted by multiplicities."""
    total = CharPolynomial.zero()
    for lam, n in dec.items():
        total = total + n * frobenius_poly(lam)
    return total


def _expand_reduced_product(soc):
    k = len(soc)  # number of surviving variables y2..y_{k+1}
    if k == 0:
        return CharPolynomial.one()
    wbar = soc.size
    # exponents of the target monomial, one slot per variable
    targ = tuple(soc[i] + (k - 1 - i) for i in range(k))
    series_max = min(soc[0] + k - 1, wbar)

    a = _antisym_row_factor(k, targ)

    result = CharPolynomial.zero()
    pow_cache = {}
    for jvec in _weighted_vectors(series_max, wbar):
        b = {(0,) * k: 1}
        for d, j in enumerate(jvec, start=1):
            if j:
                b = _mul_prune(b, _power(d, j, k, targ, pow_cache), targ)
        coef = sum(
            c * a.get(tuple(t - e for t, e in zip(targ, mono)), 0)
            for mono, c in b.items()
        )
        if coef:
            piece = CharPolynomial.constant(coef)
            for d, j in enumerate(jvec, start=1):
                if j:
                    piece = piece * binomial_poly(X(d), j)
            result = result + piece
    return result


def _antisym_row_factor(k, targ):
    """Delta(y) * prod_j (1 - y_j), truncated to exponents <= targ."""
    delta = {}
    for expo in permutations(range(k)):
        if any(e > t for e, t in zip(expo, targ)):
            continue
        inv = sum(
            1 for i in range(k) for j in range(i + 1, k) if expo[i] < expo[j]
        )
        delta[expo] = -1 if inv % 2 else 1
    out = delta
    for pos in range(k):
        nxt = dict(out)
        for mono, c in out.items():
            if mono[pos] + 1 <= targ[pos]:
                shifted = mono[:pos] + (mono[pos] + 1,) + mono[pos + 1 :]
                nxt[shifted] = nxt.get(shifted, 0) - c
        out = {m: c for m, c in nxt.items() if c}
    return out


def _power_sum(d, k, targ):
    out = {}
    for pos in range(k):
        if d <= targ[pos]:
            mono = tuple(d if i == pos else 0 for i in range(k))
            out[mono] = 1
    return out


def _power(d, j, k, targ, cache):
    key = (d, j)
    got = cache.get(key)
    if got is not None:
        return got
    if j == 1:
        out = _power_sum(d, k, targ)
    else:
        out = _mul_prune(_power(d, j - 1, k, targ, cache), _power_sum(d, k, targ), targ)
    cache[key] = out
    return out


def _mul_prune(a, b, targ):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if any(e > t for e, t in zip(mono, targ)):
                continue
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _weighted_vectors(max_part, budget):
    """All tuples (j_1..j_max_part) with sum d*j_d <= budget."""
    if max_part == 0:
        yield ()
        return

    def rec(d, remaining, acc):
        if d > max_part:
            yield tuple(acc)
            return
        for j in range(remaining // d + 1):
            acc.append(j)
            yield from rec(d + 1, remaining - d * j, acc)
            acc.pop()

    yield from rec(1, budget, [])
