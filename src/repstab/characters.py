"""Class functions of symmetric groups: irreducible characters, inner
products, and decomposition into irreducibles.

A class is its descending cycle tuple (see partitions); a ClassFunction
holds its values as integers aligned with classes(m).cycles over one
denominator.  Character values come from the Murnaghan-Nakayama
recursion in `_mnpure`.
"""

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, mul, sub

from . import _mnpure
from .partitions import Partition, classes, format_cycle_type, partitions_of


def kernel_name():
    """Name of the Murnaghan-Nakayama kernel, kept for reporting: always 'pure'."""
    return "pure"


def irr_char(lam, cycles):
    """Value of the irreducible character indexed by lam at the class with
    the descending cycle tuple `cycles`.

    Always an integer.  Raises ValueError when `cycles` is not a class of
    degree |lam|.
    """
    if cycles not in classes(lam.size).index:
        raise ValueError(f"{cycles} is not a class of degree {lam.size}")
    return _mnpure.char_value(lam.parts, cycles)


def irr_row(lam):
    """Values of the irreducible character indexed by lam, as a tuple of
    ints aligned with the canonical class order of degree |lam|."""
    return _mnpure.char_row(lam.parts)


def character_table(m):
    """Full character table of degree m, computed afresh on each call.

    Returns (classes(m).cycles, {partition: tuple of integer values aligned
    with those classes}), rows and columns both in the partitions_of(m) order.
    """
    table = {lam: irr_row(lam) for lam in partitions_of(m)}
    return classes(m).cycles, table


class ClassFunction:
    """Exact-rational function on the conjugacy classes of a fixed degree m.

    Stored as integer numerators `num`, aligned with the canonical class
    order of classes(m), over one positive denominator `den`, in lowest
    terms: gcd(den, *num) == 1, so equal functions have equal fields.
    Characters of actual representations take integer values (den == 1),
    but arbitrary rational class functions are allowed.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m, values):
        """Build from a mapping {class of m: rational}, each class a
        descending cycle tuple; absent classes are 0."""
        index = classes(m).index
        fracs = [0] * len(index)
        for cycles, v in values.items():
            j = index.get(cycles)
            if j is None:
                raise ValueError(f"{cycles} is not a class of degree {m}")
            fracs[j] = Fraction(v)
        den = lcm(*(v.denominator for v in fracs if v))
        self._set(m, [v.numerator * (den // v.denominator) for v in fracs], den)

    def _set(self, m, num, den):
        g = gcd(den, *num) if den != 1 else 1
        if g != 1:
            num = [x // g for x in num]
            den //= g
        self.m = m
        self.num = tuple(num)
        self.den = den

    @classmethod
    def from_ints(cls, m, num, den=1):
        """The function num[j] / den on the j-th class of classes(m); den > 0."""
        count = len(classes(m).cycles)
        if len(num) != count:
            raise ValueError(f"expected {count} values for degree {m}, got {len(num)}")
        f = cls.__new__(cls)
        f._set(m, num, den)
        return f

    @classmethod
    def zero(cls, m):
        return cls.from_ints(m, (0,) * len(classes(m).cycles))

    @property
    def values(self):
        """A fresh dict {class: Fraction} in the canonical class order."""
        den = self.den
        return {c: Fraction(n, den) for c, n in zip(classes(self.m).cycles, self.num)}

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.m == other.m
            and self.den == other.den
            and self.num == other.num
        )

    def _common(self, other):
        """Both numerator tuples over one denominator, and that denominator."""
        self._check(other)
        a, b = self.den, other.den
        if a == b:
            return self.num, other.num, a
        d = lcm(a, b)
        ka, kb = d // a, d // b
        return [ka * x for x in self.num], [kb * y for y in other.num], d

    def __add__(self, other):
        x, y, d = self._common(other)
        return ClassFunction.from_ints(self.m, list(map(add, x, y)), d)

    def __sub__(self, other):
        x, y, d = self._common(other)
        return ClassFunction.from_ints(self.m, list(map(sub, x, y)), d)

    def __mul__(self, other):
        """Pointwise product (the character of a tensor product)."""
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction.from_ints(
                self.m, list(map(mul, self.num, other.num)), self.den * other.den
            )
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        p = c.numerator
        return ClassFunction.from_ints(
            self.m, [p * x for x in self.num], self.den * c.denominator
        )

    def is_zero(self):
        return not any(self.num)

    def _check(self, other):
        if self.m != other.m:
            raise ValueError(f"degree mismatch: {self.m} vs {other.m}")

    def to_json_dict(self):
        return {
            "m": self.m,
            "values": [
                {"type": format_cycle_type(c), "value": str(v)}
                for c, v in self.values.items()
            ],
        }

    def __repr__(self):
        return f"ClassFunction(m={self.m})"


def irr_character(lam):
    """The irreducible character indexed by lam, as a ClassFunction."""
    return ClassFunction.from_ints(lam.size, irr_row(lam))


class IrrDecomposition:
    """Multiset of irreducible factors of a module of degree m.

    Zero multiplicities are never stored; hashable and immutable.
    """

    __slots__ = ("m", "_items")

    def __init__(self, m, mults=()):
        self.m = m
        acc = {}
        for lam, n in dict(mults).items():
            if n != int(n):
                raise ValueError(f"non-integral multiplicity {n} for {lam}")
            n = int(n)
            if n < 0:
                raise ValueError(f"negative multiplicity {n} for {lam}")
            if lam.size != m:
                raise ValueError(f"{lam!r} is not a partition of {m}")
            if n:
                acc[lam] = acc.get(lam, 0) + n
        self._items = tuple(sorted(acc.items(), key=lambda kv: kv[0].parts, reverse=True))

    def items(self):
        return self._items

    def multiplicity(self, lam):
        for mu, n in self._items:
            if mu == lam:
                return n
        return 0

    def is_zero(self):
        return not self._items

    def total_multiplicity(self):
        return sum(n for _, n in self._items)

    def module_weight(self):
        """Largest weight among the factors; 0 for the zero module."""
        return max((lam.weight() for lam, _ in self._items), default=0)

    def socle_multiplicities(self):
        """Map socle -> multiplicity (socles of distinct factors never
        collide), as a fresh dict on each call."""
        return {lam.socle(): n for lam, n in self._items}

    def character(self):
        acc = [0] * len(classes(self.m).cycles)
        for lam, n in self._items:
            row = irr_row(lam)
            if n == 1:
                acc = list(map(add, acc, row))
            else:
                acc = [a + n * c for a, c in zip(acc, row)]
        return ClassFunction.from_ints(self.m, acc)

    def __add__(self, other):
        if self.m != other.m:
            raise ValueError(f"degree mismatch: {self.m} vs {other.m}")
        acc = dict(self._items)
        for lam, n in other._items:
            acc[lam] = acc.get(lam, 0) + n
        return IrrDecomposition(self.m, acc)

    def __eq__(self, other):
        return (
            isinstance(other, IrrDecomposition)
            and self.m == other.m
            and self._items == other._items
        )

    def __hash__(self):
        return hash((self.m, self._items))

    def __iter__(self):
        return iter(self._items)

    def __repr__(self):
        body = ", ".join(f"{lam}: {n}" for lam, n in self._items)
        return f"IrrDecomposition(m={self.m}, {{{body}}})"

    def to_json_dict(self):
        return {
            "m": self.m,
            "factors": [
                {"partition": str(lam), "mult": n} for lam, n in self._items
            ],
        }


def inner_product(f, g):
    """Scalar product sum_t |class(t)| f(t) g(t) / m!.

    In a symmetric group every element is conjugate to its inverse (they
    share a cycle type), so g(x^-1) = g(x) and no inverses are needed.
    """
    if f.m != g.m:
        raise ValueError(f"degree mismatch: {f.m} vs {g.m}")
    sizes = classes(f.m).sizes
    total = sum(map(mul, sizes, map(mul, f.num, g.num)))
    return Fraction(total, factorial(f.m) * f.den * g.den)


def decompose(f):
    """Write the class function f as a sum of irreducible characters.

    Rows come one at a time in the partitions_of(m) order; a multiplicity
    is the dot product of a row with the size-weighted numerators of f,
    over m! * f.den.  Irreducible characters are orthonormal (Macdonald
    I.7), so once the squared multiplicities add up to <f, f> every later
    one is 0 and the scan stops.  Raises ValueError("not a character ...")
    on a negative or non-integral multiplicity.
    """
    m = f.m
    cls = classes(m)
    order = factorial(m) * f.den
    weights = list(map(mul, cls.sizes, f.num))
    # order^2 * (<f, f> - the squared multiplicities found so far)
    remainder = factorial(m) * sum(map(mul, weights, f.num))
    mults = {}
    for parts in cls.cycles:
        if not remainder:
            break
        total = sum(map(mul, weights, _mnpure.char_row(parts)))
        n, rem = divmod(total, order)
        if rem or n < 0:
            raise ValueError(
                f"not a character: multiplicity of {Partition(parts)} is "
                f"{Fraction(total, order)}"
            )
        if n:
            mults[Partition(parts)] = n
            remainder -= total * total
    return IrrDecomposition(m, mults)
