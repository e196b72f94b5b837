"""Independent brute-force oracles used across the test suite.

Everything here works directly with permutations as tuples (images of
0..m-1) or with elementary recurrences, never through the library's own
algorithms, so that agreement is meaningful.  The exceptions are the
last two sections: one evaluates a family one degree at a time from the
library's per-polynomial step lists, as a second route to the family's
composed step list; the other is the class route, which evaluates on the
p(m) classes of S_m a family's character (character_by_classes) and the
weight of a tensor product of irreducibles, each a second route to what
the library reads off a step list.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, gcd, prod

from repstab.characters import ClassFunction, decompose, irr_character, irr_row
from repstab.cyclepoly import CharPolynomial, X, cycle_poly, eval_rho_all
from repstab.errors import BudgetError
from repstab.fbmodules import (
    CycleModule,
    DirectSum,
    Projective,
    Tensor,
    Truncate,
    VFamily,
    WeightTruncateGT,
    WeightTruncateLE,
)
from repstab.frobenius import frobenius_poly_of_socles, socle_steps
from repstab.partitions import Partition, classes, cycle_types_of, format_cycle_type
from repstab.pieri import horizontal_strip_steps, prefix_sums, sum_steps

# direct enumeration of S_m stops being reasonable past this degree
INDUCTION_MAX_DEGREE = 8


def compose(p, q):
    """Permutation product p∘q acting as (p∘q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def cycle_lengths(p):
    """Descending tuple of cycle lengths of a permutation tuple."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        out.append(n)
    return tuple(sorted(out, reverse=True))


def representative(lengths, m):
    """A permutation of 0..m-1 realizing the given cycle lengths."""
    assert sum(lengths) == m
    p = list(range(m))
    start = 0
    for c in lengths:
        for k in range(c):
            p[start + k] = start + (k + 1) % c
        start += c
    return tuple(p)


def class_sizes_by_enumeration(m):
    """Map descending cycle-length tuple -> number of permutations, via full enumeration."""
    sizes = {}
    for p in permutations(range(m)):
        key = cycle_lengths(p)
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


@lru_cache(maxsize=None)
def partition_count(m):
    """p(m) via the Euler pentagonal-number recurrence."""
    if m < 0:
        return 0
    if m == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > m and g2 > m:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(m - g1) + partition_count(m - g2))
        k += 1
    return total


def sign_of(p):
    """Sign of a permutation tuple."""
    return 1 if (len(p) - len(set_cycles(p))) % 2 == 0 else -1


def set_cycles(p):
    """List of cycles (as tuples of points) of a permutation tuple."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        cycles.append(tuple(cyc))
    return cycles


def fixed_points(p):
    return sum(1 for x in range(len(p)) if p[x] == x)


def standard_rep_character(m):
    """Character of the (m-1)-dimensional standard representation, by cycle lengths."""
    values = {}
    for p in permutations(range(m)):
        values[cycle_lengths(p)] = fixed_points(p) - 1
    return values


def all_cycles_of_length(m, ell):
    """All ell-cycles of S_m as permutation tuples (identity excluded unless ell=1... ell>=2).

    For ell = 1 the ell-cycles are just the m points; callers treat that case
    separately because a 1-cycle is not a permutation.
    """
    assert ell >= 2
    out = []
    from itertools import combinations

    for support in combinations(range(m), ell):
        # fix the smallest support point first; arrange the rest in every order
        first = support[0]
        rest = support[1:]
        for order in permutations(rest):
            cyc = (first,) + order
            p = list(range(m))
            for k in range(ell):
                p[cyc[k]] = cyc[(k + 1) % ell]
            out.append(tuple(p))
    return out


def commuting_cycle_count(g, ell):
    """|{ell-cycles c in S_m : gc = cg}| by direct enumeration; handles ell = 1 as fixed points."""
    m = len(g)
    if ell == 1:
        return fixed_points(g)
    if ell > m:
        return 0
    return sum(1 for c in all_cycles_of_length(m, ell) if compose(g, c) == compose(c, g))


def totient(n):
    """Euler's phi by counting."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def divisor_terms(ell):
    """(d, e, phi(d) d^e / ell) for each proper divisor d of ell, e = ell/d."""
    for d in range(1, ell):
        if ell % d == 0:
            e = ell // d
            yield d, e, Fraction(totient(d) * d**e, ell)


def cycle_poly_by_falling_factorials(ell):
    """cycle_poly(ell) in the ring: phi(ell) X_ell plus, for each proper
    divisor d of ell, phi(d) d^e / ell times the falling factorial
    X_d (X_d-1) ... (X_d-e+1), e = ell/d, multiplied out factor by factor."""
    out = totient(ell) * X(ell)
    for d, e, coef in divisor_terms(ell):
        out = out + coef * falling_factorial(X(d), e)
    return out


def hook_length_dimension(parts):
    """Dimension of the irreducible module for a partition, via hook lengths."""
    parts = tuple(parts)
    if not parts:
        return 1
    cols = [0] * parts[0]
    for row in parts:
        for j in range(row):
            cols[j] += 1
    dim = factorial(sum(parts))
    for i, row in enumerate(parts):
        for j in range(row):
            dim //= (row - j) + (cols[j] - i) - 1
    return dim


def induced_character_value(chi_n, n, g):
    """Induced-character value at g in S_m for chi_n ⊠ trivial on (S_n x S_{m-n}).

    chi_n maps descending cycle-length tuples of S_n to integers.  Uses the
    textbook sum over the whole group of the values of conjugates landing in
    the subgroup, divided by the subgroup order.
    """
    m = len(g)
    assert m >= n
    total = 0
    block = set(range(n))
    for x in permutations(range(m)):
        xinv = tuple(sorted(range(m), key=lambda i: x[i]))
        conj = compose(xinv, compose(g, x))
        if all(conj[i] in block for i in block):
            restricted = tuple(conj[i] for i in range(n))
            total += chi_n[cycle_lengths(restricted)]
    return Fraction(total, factorial(n) * factorial(m - n))


@lru_cache(maxsize=None)
def mn_beta_set(shape, cycles):
    """Murnaghan-Nakayama recursion on beta-set lists, as a reference kernel.

    The beta-set {shape[i] + (len-1-i)} loses a border strip of size k by
    replacing one element b with b-k; the sign is the parity of the number
    of beta elements jumped over.
    """
    if not shape:
        return 1
    k = cycles[0]
    rest = cycles[1:]
    ell = len(shape)
    beta = [shape[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for c in beta if nb < c < b)
        sub = []
        for i, c in enumerate(sorted((nb if c == b else c for c in beta), reverse=True)):
            part = c - (ell - 1 - i)
            if part > 0:
                sub.append(part)
        value = mn_beta_set(tuple(sub), rest)
        total += -value if jumped % 2 else value
    return total


def pieri_expand_recursive(nu, m):
    """Set of partitions of m obtained from nu by adding a horizontal strip,
    built row by row at the one degree m, as a reference for the step list.

    Each row may grow up to the length of the row above it in nu, and one
    new row of at most nu's last part may appear; this is exactly the
    no-two-boxes-in-a-column condition.
    """
    if m < nu.size:
        raise ValueError(f"cannot expand a partition of {nu.size} to smaller m={m}")
    results = set()
    rows = nu.parts
    ell = len(rows)

    def rec(i, prefix, remaining):
        if i == ell:
            if remaining == 0:
                results.add(Partition(prefix))
            elif ell == 0 or remaining <= rows[ell - 1]:
                # one new bottom row, no wider than the last row of nu
                if not prefix or remaining <= prefix[-1]:
                    results.add(Partition(prefix + [remaining]))
            return
        low = rows[i]
        high = rows[i - 1] if i > 0 else low + remaining
        if prefix:
            high = min(high, prefix[-1])
        for newlen in range(low, min(high, low + remaining) + 1):
            prefix.append(newlen)
            rec(i + 1, prefix, remaining - (newlen - low))
            prefix.pop()

    rec(0, [], m - nu.size)
    return results


def induce_bruteforce(chi, m, max_degree=INDUCTION_MAX_DEGREE):
    """Character of S_m induced from chi ⊠ trivial on (S_n x S_{m-n}).

    Deliberately naive: for each class representative g the whole of S_m is
    enumerated and chi is summed over the conjugates of g landing in the
    subgroup.  Serves as an oracle for the Pieri-rule path; refuses degrees
    past max_degree.  The enumeration tally for a given (n, m) is shared
    across calls, since it does not depend on chi.
    """
    n = chi.m
    if m < n:
        raise ValueError(f"cannot induce from degree {n} to smaller degree {m}")
    if m > max_degree:
        raise BudgetError(f"induction by enumeration capped at degree {max_degree}")
    if m == n:
        return ClassFunction(m, dict(chi.values))

    chi_by_lengths = chi.values
    subgroup_order = factorial(n) * factorial(m - n)
    values = {}
    for t, tally in _conjugation_tally(n, m).items():
        total = sum(count * chi_by_lengths[lengths] for lengths, count in tally.items())
        values[t] = Fraction(total, subgroup_order)
    return ClassFunction(m, values)


@lru_cache(maxsize=32)
def _conjugation_tally(n, m):
    """For each class of degree m: how many x in the whole group conjugate its
    representative into the (n, m-n) subgroup, bucketed by the cycle lengths
    of the first-block restriction.

    Membership and restriction only involve the first n positions of the
    conjugate, so only those are computed.
    """
    types = cycle_types_of(m)
    reps = [(t, representative(t, m)) for t in types]
    tallies = {t: {} for t in types}
    block = range(n)
    for x in permutations(range(m)):
        xinv = [0] * m
        for i, xi in enumerate(x):
            xinv[xi] = i
        for t, g in reps:
            head = tuple(xinv[g[x[i]]] for i in block)
            if all(v < n for v in head):
                lengths = cycle_lengths(head)
                tally = tallies[t]
                tally[lengths] = tally.get(lengths, 0) + 1
    return tallies


# -- class functions as {class: Fraction} dicts ---------------------------------
#
# The library stores a class function as integer numerators over one
# denominator; these helpers redo its arithmetic on plain Fraction dicts,
# one entry per class (a descending cycle tuple), with class sizes counted
# by enumeration.


def ref_class_function(m, values):
    """{class: Fraction} over every class of degree m, 0 where absent."""
    return {t: Fraction(values.get(t, 0)) for t in cycle_types_of(m)}


def ref_add(a, b):
    return {t: a[t] + b[t] for t in a}


def ref_sub(a, b):
    return {t: a[t] - b[t] for t in a}


def ref_mul(a, b):
    return {t: a[t] * b[t] for t in a}


def ref_scale(a, c):
    return {t: a[t] * Fraction(c) for t in a}


def ref_is_zero(a):
    return all(v == 0 for v in a.values())


def ref_inner_product(a, b, m):
    """sum over the classes of |class| a b, over m!, with enumerated class sizes."""
    sizes = _class_sizes(m)
    total = sum(sizes[t] * a[t] * b[t] for t in a)
    return total / factorial(m)


def ref_json(m, a):
    """The to_json_dict document of a, classes in the canonical order."""
    return {
        "m": m,
        "values": [
            {"type": format_cycle_type(t), "value": str(a[t])} for t in cycle_types_of(m)
        ],
    }


@lru_cache(maxsize=None)
def _class_sizes(m):
    return class_sizes_by_enumeration(m)


# -- polynomials in the monomial basis ---------------------------------------------
#
# The library multiplies and reads a scan's polynomials in the binomial basis
# B_rho = prod_i C(X_i, m_i(rho)) (frobenius.binomial_product, socle_steps).
# These stay with monomials: falling factorials multiplied out in the ring,
# evaluation one monomial at a time, and the conversion of monomials to B_rho
# by the Stirling numbers of the second kind.


def falling_factorial(p, k):
    """p (p-1) ... (p-k+1) in the polynomial ring; 1 for k = 0."""
    out = CharPolynomial.one()
    for t in range(k):
        out = out * (p - t)
    return out


def eval_rho(poly, cycles):
    """poly at the class with the descending cycle tuple cycles, a Fraction:
    X_i := cycles.count(i), the number of i-cycles."""
    total = 0
    for mono, coef in poly.num.items():
        for v, e in mono:
            coef *= cycles.count(v) ** e
        total += coef
    return Fraction(total, poly.den)


def binomial_coefficients(poly, top=None):
    """poly as a B_rho form: (num, den) with poly = sum_rho num[rho] / den
    B_rho over descending cycle tuples rho, den > 0, zero entries dropped;
    only the rho with |rho| <= top when top is given.

    Each power is X_i^e = sum_j S(e, j) j! C(X_i, j), and the powers of a
    monomial share no variable, so the monomial goes to the B_rho with
    m_i(rho) <= e_i.  |rho| only grows as the variables are multiplied in,
    so a rho past top is dropped as soon as it is formed.  No j past
    top // i is read, so each row is built to that width only, once per
    call: the rows built are the distinct pairs (e, width) of poly.
    """
    if top is None:
        top = poly.weighted_degree()
    num, rows = {}, {}
    for mono, coef in poly.num.items():
        terms = {(): (coef, 0)}  # rho: (coefficient, |rho|)
        for i, e in reversed(mono):  # descending variables give descending tuples
            width = min(e, top // i)
            row = rows.get((e, width))
            if row is None:
                row = rows[e, width] = power_coefficients(e, width)
            terms = {
                rho + (i,) * j: (c * row[j], size + i * j)
                for rho, (c, size) in terms.items()
                for j in range(1, min(width, (top - size) // i) + 1)  # row[0] = 0
            }
        for rho, (c, _) in terms.items():
            num[rho] = num.get(rho, 0) + c
    return {rho: c for rho, c in num.items() if c}, poly.den


def power_coefficients(e, width):
    """(S(e, 0) 0!, ..., S(e, width) width!), with S the Stirling numbers of
    the second kind: x^e = sum_j S(e, j) j! C(x, j).  Each row of S is built
    up to column width only, which is all the next row reads."""
    row = (1,)
    for _ in range(e):  # S(n + 1, j) = j S(n, j) + S(n, j - 1)
        row = tuple(j * a + b for j, (a, b) in enumerate(zip(row + (0,), (0,) + row)))
        row = row[: width + 1]
    return tuple(s * factorial(j) for j, s in enumerate(row))


def lowest_terms(form):
    """The B_rho form (num, den) reduced: no common factor of den and num."""
    num, den = form
    g = gcd(den, *num.values())
    return {rho: c // g for rho, c in num.items()}, den // g


# -- character polynomials socle by socle ----------------------------------------
#
# The library sums the vertical strips of every socle into one g_mu per mu
# and reads one kernel row per mu (frobenius._poly_of_socles).  These build
# each socle's polynomial on its own: every one of the 2^len(s) ways to take
# at most one box off each row is tried and kept when a partition is left,
# the binomial basis comes from ring arithmetic, and the socles' polynomials
# are summed coefficient by coefficient in Fractions.


def vertical_strips_by_drops(soc):
    """{mu: (-1)^{|soc/mu|}} over the mu with soc/mu a vertical strip."""
    strips = {}
    for drop in product((0, 1), repeat=len(soc)):
        mu = [p - d for p, d in zip(soc, drop)]
        if any(a < b for a, b in zip(mu, mu[1:])):
            continue  # mu is no partition, so soc/mu is no vertical strip
        strips[Partition([p for p in mu if p])] = -1 if sum(drop) % 2 else 1
    return strips


@lru_cache(maxsize=None)
def stable_poly_by_drops(soc):
    """frobenius_poly_stable(soc): sum over rho of c_rho prod_i
    C(X_i, m_i(rho)), c_rho = sum of (-1)^{|soc/mu|} chi_mu(rho) over the
    vertical strips soc/mu."""
    coeffs = {}
    for mu, sign in vertical_strips_by_drops(soc).items():
        for rho, value in zip(classes(mu.size).cycles, irr_row(mu)):
            coeffs[rho] = coeffs.get(rho, 0) + sign * value
    total = CharPolynomial.zero()
    for rho, c in coeffs.items():
        term = CharPolynomial.constant(c)
        for i in set(rho):
            k = rho.count(i)
            term = term * falling_factorial(X(i), k) / factorial(k)
        total = total + term
    return total


def poly_of_socles_by_sum(socles):
    """frobenius_poly_of_socles(socles): the sum of n * stable_poly_by_drops(s)
    over the socle multiplicities {s: n}, in Fractions."""
    total = {}
    for s, n in socles.items():
        for mono, coef in stable_poly_by_drops(s).terms.items():
            total[mono] = total.get(mono, Fraction(0)) + n * coef
    return CharPolynomial(total)


# -- print order -----------------------------------------------------------------
#
# The library keeps the monomials of every polynomial in print order, its
# canonical form, so format_poly writes them as they are stored.  This
# formatter trusts no stored order: it sorts the monomials itself.


def print_order(mono):
    """The sort key of print order: weight descending, then the variables
    lexicographically."""
    return -sum(v * e for v, e in mono), mono


def format_poly_by_sort(poly):
    """format_poly(poly), the monomials sorted here by print_order."""
    if not poly.num:
        return "0"
    den, pieces = poly.den, []
    for mono in sorted(poly.num, key=print_order):
        num = poly.num[mono]
        body = "*".join(f"X{v}" + (f"^{e}" if e > 1 else "") for v, e in mono)
        g = gcd(num, den)
        mag = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
        if not body:
            text = mag
        elif mag == "1":
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if num > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if num > 0 else f"- {text}")
    return " ".join(pieces)


# -- a family degree by degree -------------------------------------------------
#
# The library composes one step list per family node (fbmodules.family_steps)
# and reads every degree and both ranks off it.  These evaluate each degree on
# its own: a tensor product multiplies its factors' polynomials at that very
# degree, a truncation tests m against its cutoff, and the ranks come from
# walking down the window one degree at a time.


def decompose_poly(poly, m):
    """The virtual decomposition of poly taken at degree m, as {s:
    multiplicity of s[m]} over socles s, zero entries dropped.

    The multiplicities are Fractions: integers >= 0 when poly takes a
    character at m, any rationals otherwise.
    """
    top = min(m, poly.weighted_degree())
    steps, den = socle_steps(binomial_coefficients(poly, top), top)
    return {s: Fraction(n, den) for s, n in sum_steps(steps, m).items()}


def module_steps_by_round_trip(socles, top):
    """frobenius.module_steps(socles, top) with its denominator, the way
    back from the module polynomial: expanded in the binomial basis, read
    through the kernel rows into its f_mu, then listed strip by strip."""
    poly = frobenius_poly_of_socles(socles)
    top = min(top, poly.weighted_degree())
    return socle_steps(binomial_coefficients(poly, top), top)


@lru_cache(maxsize=4096)
def socles_by_degree(spec, m):
    """{s: multiplicity of s[m]} of the family at degree m, zero entries dropped."""
    match spec:
        case Projective(base=w):
            return {} if m < w.m else sum_steps(horizontal_strip_steps(w.items()), m)
        case VFamily(lam=lam, convention=conv):
            if conv == "socle":
                return {} if m < lam.size else {lam.socle(): 1}
            first = lam.parts[0] if lam else 0
            return {} if m < lam.size + first else {lam: 1}
        case CycleModule(nu=nu):
            return decompose_poly(cycle_poly_product(nu), m)
        case Tensor(left=left, right=right):
            return decompose_poly(_factor_poly(left, m) * _factor_poly(right, m), m)
        case DirectSum(children=children):
            total = {}
            for child in children:
                for s, n in socles_by_degree(child, m).items():
                    total[s] = total.get(s, 0) + n
            return {s: n for s, n in total.items() if n}
        case Truncate(child=child, cutoff=cutoff):
            return {} if m < cutoff else socles_by_degree(child, m)
        case WeightTruncateLE(child=child, p=p):
            return {s: n for s, n in socles_by_degree(child, m).items() if s.size <= p}
        case WeightTruncateGT(child=child, p=p):
            return {s: n for s, n in socles_by_degree(child, m).items() if s.size > p}
    raise TypeError(f"not a family constructor: {spec!r}")


def _factor_poly(spec, m):
    """The factor's polynomial at m, from its socles at m in ints: the
    multiplicities read off a polynomial are Fractions, which the integer
    polynomial route does not take.  ValueError on one that is no integer."""
    if isinstance(spec, CycleModule):
        return cycle_poly_product(spec.nu)
    socles = socles_by_degree(spec, m)
    bad = {s: n for s, n in socles.items() if int(n) != n}
    if bad:
        raise ValueError(f"non-integral multiplicities {bad} of {spec!r} at {m}")
    return frobenius_poly_of_socles({s: int(n) for s, n in socles.items()})


def rank_rs_by_walk(spec, m_max):
    """rank_rs_estimate, walking down from m_max while the socles stay put."""
    stable = socles_by_degree(spec, m_max)
    start = m_max
    while start > 0 and socles_by_degree(spec, start - 1) == stable:
        start -= 1
    admissible = max((s.size + (s[0] if s else 0) for s in stable), default=0)
    n = max(start, admissible)
    return None if n > m_max else (n, stable)


def rank_pc_by_walk(spec, m_max):
    """rank_pc_estimate, walking down from m_max while the module polynomial
    at m_max decomposes into the family's socles."""
    poly = frobenius_poly_of_socles(socles_by_degree(spec, m_max))
    n = m_max
    while n > 0 and decompose_poly(poly, n - 1) == socles_by_degree(spec, n - 1):
        n -= 1
    return None if n == m_max > 0 else (n, poly)


def integer_steps_by_jumps(pieces):
    """fbmodules._integer_steps as it was first written: at lo and at each
    start of a piece's step list up to hi, an entry back to zero for every
    multiplicity held and one up to every multiplicity there, each checked,
    whether it changed or not; netted per (s, start), the entries are the
    library's.  ValueError at the first degree where a multiplicity is
    negative or no integer."""
    prev = {}
    for form, lo, hi in pieces:
        steps, den = socle_steps(form, hi)
        degrees = [lo] + sorted({b for _, b, _ in steps if lo < b <= hi})
        for m, sums in zip(degrees, prefix_sums(steps, degrees)):
            yield from ((s, m, -n) for s, n in prev.items())
            prev = {}
            for s, total in sums.items():
                n, rem = divmod(total, den)
                if rem:
                    n = Fraction(total, den)
                    raise ValueError(f"non-integral multiplicity {n} for {s.pad(m)}")
                if n < 0:
                    raise ValueError(f"negative multiplicity {n} for {s.pad(m)}")
                prev[s] = n
                yield s, m, n


# -- the class route -----------------------------------------------------------
#
# The library reads a family's character, and the weight of a tensor
# product of two padded irreducibles, off step lists (fbmodules.character_at,
# stability.tensor_weight).  These evaluate them on every class of S_m, each
# node on its own: an irreducible family through the kernel, an induced one
# by counting stable subsets, a cycle module its cycle-count polynomial, a
# tensor product the product of its factors' characters, a truncation on
# the degree or on the decomposition of its child's character.


def cycle_poly_product(nu):
    """Product of cycle_poly over the parts of nu: the character polynomial
    of the corresponding tensor product of cycle modules."""
    out = CharPolynomial.one()
    for part in nu:
        out = out * cycle_poly(part)
    return out


def induced_by_classes(w, m):
    """The character of S_m induced from chi_w x 1 on S_n x S_(m-n), n =
    w.m, chi_w the character of the decomposition w, zero for m < n: at a
    class sigma, sum over rho |- n of chi_w(rho) prod_i C(m_i(sigma),
    m_i(rho)), the sigma-stable n-subsets on which sigma has type rho."""
    if m < w.m:
        return ClassFunction.zero(m)
    values = [
        sum(
            c * prod(comb(sigma.count(i), rho.count(i)) for i in set(rho))
            for rho, c in zip(classes(w.m).cycles, w.character().num)
        )
        for sigma in classes(m).cycles
    ]
    return ClassFunction.from_ints(m, values)


@lru_cache(maxsize=1024)
def character_by_classes(spec, m):
    """fbmodules.character_at(spec, m) over the p(m) classes of S_m, from
    irreducible characters, class counts and decompositions alone: no step
    list of the library is read."""
    match spec:
        case Projective(base=w):
            return induced_by_classes(w, m)
        case VFamily(lam=lam, convention=conv):
            label = lam.socle() if conv == "socle" else lam
            first = lam.size if conv == "socle" else lam.size + (lam.parts[0] if lam else 0)
            return ClassFunction.zero(m) if m < first else irr_character(label.pad(m))
        case CycleModule(nu=nu):
            return eval_rho_all(cycle_poly_product(nu), m)
        case Tensor(left=left, right=right):
            return character_by_classes(left, m) * character_by_classes(right, m)
        case DirectSum(children=children):
            total = ClassFunction.zero(m)
            for child in children:
                total = total + character_by_classes(child, m)
            return total
        case Truncate(child=child, cutoff=cutoff):
            return ClassFunction.zero(m) if m < cutoff else character_by_classes(child, m)
        case WeightTruncateLE(child=child, p=p):
            return _weight_kept(character_by_classes(child, m), lambda k: k <= p)
        case WeightTruncateGT(child=child, p=p):
            return _weight_kept(character_by_classes(child, m), lambda k: k > p)
    raise TypeError(f"not a family constructor: {spec!r}")


def _weight_kept(chi, keep):
    """The sum of the irreducible factors of the character chi whose weight
    passes keep."""
    total = ClassFunction.zero(chi.m)
    for lam, n in decompose(chi).items():
        if keep(lam.weight()):
            total = total + n * irr_character(lam)
    return total


def tensor_weight_by_classes(lam, mu, m):
    """stability.tensor_weight(lam, mu, m) over the p(m) classes of S_m."""
    product = irr_character(lam.pad(m)) * irr_character(mu.pad(m))
    return decompose(product).module_weight()
