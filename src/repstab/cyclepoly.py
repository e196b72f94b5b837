"""Sparse polynomials in the cycle-count variables X_1, X_2, ... over Q.

The ring carries two gradings: the plain degree (deg X_i = 1) and the
weight (deg_w X_i = i).  Evaluation at a class, a descending cycle tuple,
sets X_i := its number of i-cycles; lifting the evaluation over every class
of a fixed degree m gives a class function.

Monomials are stored as tuples of (variable, exponent) pairs sorted by
variable index, with no zero exponents.  The coefficients are integers
over one denominator: num maps each monomial to a nonzero int and the
coefficient of mono is num[mono] / den.  Every polynomial is in canonical
form: den > 0, gcd(den, *num.values()) == 1, and num lists its monomials
in print order, weight descending, then the variables lexicographically
(_print_key).  So equal polynomials have equal (num, den) in the same
order, the ring operations run in integers, and format_poly reads num
front to back.  The weight of the zero polynomial is the sentinel
NEG_INF, which compares below every integer.

cycle_poly(ell) is the polynomial E_ell that counts the ell-cycles
commuting with a permutation, the character of the cycle module (cycle
ell) at every degree, built in integers, and cycle_binomials(ell) the
same in the binomial basis B_rho.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import add, mul

from .characters import ClassFunction
from .errors import ParseError
from .partitions import classes

NEG_INF = float("-inf")


class CharPolynomial:
    __slots__ = ("num", "den")

    def __init__(self, terms=()):
        clean = {}
        for mono, coef in dict(terms).items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            mono = tuple(sorted((int(v), int(e)) for v, e in mono if e))
            for v, e in mono:
                if v < 1 or e < 1:
                    raise ValueError(f"bad monomial entry X{v}^{e}")
            clean[mono] = clean.get(mono, 0) + coef
        den = lcm(*(c.denominator for c in clean.values()))
        p = CharPolynomial.from_ints({m: int(c * den) for m, c in clean.items()}, den)
        self.num, self.den = p.num, p.den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_ints(cls, num, den=1):
        """The polynomial with coefficient num[mono] / den at each monomial
        mono, den != 0, in canonical form: zeros dropped, in lowest terms
        and in print order, whatever the order of num.  The monomials must
        already be canonical: unlike __init__, they are not checked."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        monos = sorted((mono for mono, v in num.items() if v), key=_print_key)
        g = gcd(den, *map(num.__getitem__, monos)) * (1 if den > 0 else -1)
        return cls.from_canonical({mono: num[mono] // g for mono in monos}, den // g)

    @classmethod
    def from_canonical(cls, num, den):
        """The polynomial num / den, which must already be in canonical form:
        no zero in num, den > 0, no common factor, num in print order.
        Unlike from_ints, nothing is copied, filtered, reduced or sorted."""
        p = cls.__new__(cls)
        p.num, p.den = num, den
        return p

    @classmethod
    def variable(cls, i):
        if i < 1:
            raise ValueError("variables start at X1")
        return cls.from_ints({((i, 1),): 1})

    @classmethod
    def constant(cls, c):
        c = Fraction(c)
        return cls.from_ints({(): c.numerator}, c.denominator)

    @classmethod
    def zero(cls):
        return cls.from_ints({})

    @classmethod
    def one(cls):
        return cls.from_ints({(): 1})

    @property
    def terms(self):
        """A fresh {monomial: Fraction coefficient} dict, for reading."""
        return {mono: Fraction(v, self.den) for mono, v in self.num.items()}

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        den = lcm(self.den, other.den)
        num = {mono: v * (den // self.den) for mono, v in self.num.items()}
        for mono, v in other.num.items():
            num[mono] = num.get(mono, 0) + v * (den // other.den)
        return CharPolynomial.from_ints(num, den)

    __radd__ = __add__

    def __neg__(self):
        return CharPolynomial.from_canonical({m: -v for m, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        acc = {}
        for m1, c1 in self.num.items():
            for m2, c2 in other.num.items():
                mono = _mono_mul(m1, m2)
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return CharPolynomial.from_ints(acc, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = Fraction(c)
        num = {m: v * c.denominator for m, v in self.num.items()}
        return CharPolynomial.from_ints(num, self.den * c.numerator)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = CharPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CharPolynomial.constant(other)
        same_type = isinstance(other, CharPolynomial)
        return same_type and self.den == other.den and self.num == other.num

    def __hash__(self):
        # a constant polynomial equals its value, so it hashes as that value
        if not self.num or (len(self.num) == 1 and () in self.num):
            return hash(Fraction(self.num.get((), 0), self.den))
        return hash((self.den, tuple(self.num.items())))

    def is_zero(self):
        return not self.num

    # -- gradings -------------------------------------------------------

    def weighted_degree(self):
        """Weight deg_w with deg_w(X_i) = i, that of the first monomial in
        print order; NEG_INF for the zero polynomial."""
        if not self.num:
            return NEG_INF
        return sum(v * e for v, e in next(iter(self.num)))

    def variables(self):
        return sorted({v for mono in self.num for v, _ in mono})

    def __repr__(self):
        return f"CharPolynomial({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _coerce(x):
    if isinstance(x, CharPolynomial):
        return x
    return CharPolynomial.constant(x)


def _mono_mul(m1, m2):
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


X = CharPolynomial.variable


@lru_cache(maxsize=64)
def falling_coefficients(n):
    """(s(n, 0), ..., s(n, n)), the signed Stirling numbers of the first
    kind: x (x-1) ... (x-n+1) = sum_k s(n, k) x^k."""
    coeffs = (1,)
    for t in range(n):  # multiply by (x - t)
        coeffs = tuple(a - t * b for a, b in zip((0,) + coeffs, coeffs + (0,)))
    return coeffs


def eval_rho_all(poly, m):
    """Lift evaluation over every class of degree m into a ClassFunction.

    Each monomial is evaluated in integers on all classes at a time, from
    one column of cycle counts per variable, over the one denominator.
    """
    cycles = classes(m).cycles
    num = [0] * len(cycles)
    columns = {}
    for mono, coef in poly.num.items():
        vals = [coef] * len(cycles)
        for v, e in mono:
            col = columns.get(v)
            if col is None:
                col = columns[v] = [c.count(v) for c in cycles]
            if e == 1:
                vals = list(map(mul, vals, col))
            else:
                vals = [a * x**e for a, x in zip(vals, col)]
        num = list(map(add, num, vals))
    return ClassFunction.from_ints(m, num, poly.den)


# -- commuting-cycle counts --------------------------------------------------


def _totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def cycle_poly(ell):
    """Polynomial counting the ell-cycles commuting with a permutation.

    The sum over the divisors d of ell, e = ell/d, of phi(d) d^e / ell
    times the falling factorial X_d (X_d-1) ... (X_d-e+1), phi being
    Euler's totient; the term of d = ell is phi(ell) X_ell.  Built in
    integers over the denominator ell from cycle_binomials, each falling
    factorial read off the signed Stirling numbers of the first kind.
    Weight ell, independent of the group degree.
    """
    num = {}
    for rho, c in cycle_binomials(ell)[0].items():
        d, e = rho[0], len(rho)
        scale = c // factorial(e)
        for j, s in enumerate(falling_coefficients(e)):
            if s:
                num[((d, j),)] = scale * s
    return CharPolynomial.from_ints(num, ell)


def cycle_binomials(ell):
    """cycle_poly(ell) as a B_rho form ({rho: c}, ell) (frobenius): one
    rho = (d,) * e per divisor d of ell, e = ell/d, with c = phi(d) d^e e!,
    as the falling factorial of X_d of length e is e! C(X_d, e)."""
    if ell < 1:
        raise ValueError("cycle length must be positive")
    num = {}
    for d in range(1, ell + 1):
        if ell % d == 0:
            e = ell // d
            num[(d,) * e] = _totient(d) * d**e * factorial(e)
    return num, ell


# -- printing and parsing ---------------------------------------------------


def _print_key(mono):
    """The sort key of print order, (-weight, mono): weight descending, then
    the variables lexicographically."""
    w = 0
    for v, e in mono:
        w -= v * e
    return w, mono


@lru_cache(maxsize=4096)
def _monomial(mono):
    """The text of a monomial in format_poly: "" for the constant."""
    return "*".join(f"X{v}" + (f"^{e}" if e > 1 else "") for v, e in mono)


def format_poly(poly):
    """Deterministic text form: the monomials as num lists them, which is
    print order (weight descending, ties broken lexicographically by
    variable index), so nothing is sorted."""
    if not poly.num:
        return "0"
    den, pieces = poly.den, []
    for mono, num in poly.num.items():
        body = _monomial(mono)
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


# an integer, or any other single character; whitespace only separates
_POLY_TOKEN = re.compile(r"(?P<int>\d+)|(?P<sym>\S)")


def parse_poly(text):
    """Parse the grammar of format_poly.

    poly   := ['-'] term (('+'|'-') term)*
    term   := coef ['*' mono] | mono
    coef   := INT ['/' INT]
    mono   := factor ('*' factor)*
    factor := 'X' INT ['^' INT]

    INT is a run of decimal digits.  Whitespace may separate any two
    tokens, so "X 1" reads as X1, and is otherwise ignored.  Raises
    ParseError at the offending token.  The terms are summed in integers
    over the lcm of their denominators and make one polynomial.
    """
    toks = [(m.lastgroup, m[0], m.start()) for m in _POLY_TOKEN.finditer(text)]
    toks.append(("end", "", len(text)))
    toks.reverse()  # the next token is toks[-1]; "end" is never popped
    if len(toks) == 1:
        raise ParseError("empty polynomial", len(text))
    terms = [(_sign(toks, optional=True), *_term(toks))]
    while toks[-1][0] != "end":
        terms.append((_sign(toks), *_term(toks)))
    den = lcm(*(d for _, _, d, _ in terms))
    num = {}
    for sign, n, d, mono in terms:
        num[mono] = num.get(mono, 0) + sign * n * (den // d)
    return CharPolynomial.from_ints(num, den)


def _take(toks, sym):
    """Pop and return the next token if it is the symbol sym, else None."""
    if toks[-1][1] == sym:
        return toks.pop()
    return None


def _unexpected(toks, wanted):
    _, tok, pos = toks[-1]
    return ParseError(f"expected {wanted}, found {tok[:1]!r}", pos)


def _int(toks):
    """Pop the next token, which must be an integer: (value, start, end)."""
    if toks[-1][0] != "int":
        raise _unexpected(toks, "integer")
    _, digits, pos = toks.pop()
    return int(digits), pos, pos + len(digits)


def _sign(toks, optional=False):
    if _take(toks, "+"):
        return 1
    if _take(toks, "-"):
        return -1
    if optional:
        return 1
    raise _unexpected(toks, "'+' or '-'")


def _term(toks):
    """(numerator, denominator, monomial) of the next term, the denominator
    positive and the monomial canonical."""
    if toks[-1][0] != "int":
        return 1, 1, _mono(toks)
    num, den = _int(toks)[0], 1
    if _take(toks, "/"):
        den, pos, _ = _int(toks)
        if den == 0:
            raise ParseError("zero denominator", pos)
    if _take(toks, "*"):
        return num, den, _mono(toks)
    return num, den, ()


def _mono(toks):
    exps = dict([_factor(toks)])
    while _take(toks, "*"):
        idx, exp = _factor(toks)
        exps[idx] = exps.get(idx, 0) + exp
    return tuple(sorted(exps.items()))


def _factor(toks):
    """(variable, exponent) of the next factor X<idx>[^<exp>]."""
    x = _take(toks, "X")
    if x is None:
        raise _unexpected(toks, "variable")
    idx = _int(toks)[0]
    if idx < 1:
        raise ParseError("variables start at X1", x[2] + 1)
    exp = 1
    if _take(toks, "^"):
        exp, _, end = _int(toks)
        if exp < 1:
            raise ParseError("exponents must be positive", end)
    return idx, exp
