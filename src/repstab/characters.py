"""Class functions of symmetric groups: irreducible characters, inner
products, and decomposition into irreducibles.

Character values come from the Murnaghan-Nakayama recursion in `_mnpure`.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import _mnpure
from .partitions import (
    CycleType,
    class_size,
    cycle_types_of,
    format_cycle_type,
    parse_cycle_type,
    partitions_of,
)


def kernel_name():
    """Name of the Murnaghan-Nakayama kernel, kept for reporting: always 'pure'."""
    return "pure"


def clear_caches():
    _mnpure.clear_cache()
    character_table.cache_clear()


def irr_char(lam, t):
    """Value of the irreducible character indexed by lam at cycle type t.

    Always an integer.  Raises ValueError when |lam| != t.m.
    """
    if lam.size != t.m:
        raise ValueError(f"degree mismatch: |lambda|={lam.size} but t is a type of {t.m}")
    return _mnpure.char_value(lam.parts, t.cycles_desc())


def irr_dimension(lam):
    """Dimension of the irreducible module indexed by lam."""
    return irr_char(lam, CycleType.identity(lam.size))


@lru_cache(maxsize=64)
def character_table(m):
    """Full character table of degree m.

    Returns (types, {partition: tuple of integer values aligned with types}),
    rows and columns both in the partitions_of(m) order.
    """
    types = tuple(cycle_types_of(m))
    table = {
        lam: tuple(irr_char(lam, t) for t in types) for lam in partitions_of(m)
    }
    return types, table


class ClassFunction:
    """Exact-rational function on the conjugacy classes of a fixed degree m.

    Stores one value per cycle type of m.  Characters of actual
    representations take integer values, but arbitrary rational class
    functions are allowed.
    """

    __slots__ = ("m", "values")

    def __init__(self, m, values):
        self.m = m
        vals = {}
        for t, v in values.items():
            if t.m != m:
                raise ValueError(f"type {t} does not belong to degree {m}")
            vals[t] = Fraction(v)
        for t in cycle_types_of(m):
            vals.setdefault(t, Fraction(0))
        self.values = vals

    @classmethod
    def from_callable(cls, m, fn):
        return cls(m, {t: fn(t) for t in cycle_types_of(m)})

    @classmethod
    def zero(cls, m):
        return cls(m, {})

    def __call__(self, t):
        return self.values[t]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.m == other.m
            and self.values == other.values
        )

    def __add__(self, other):
        self._check(other)
        return ClassFunction(
            self.m, {t: v + other.values[t] for t, v in self.values.items()}
        )

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(
            self.m, {t: v - other.values[t] for t, v in self.values.items()}
        )

    def __mul__(self, other):
        """Pointwise product (the character of a tensor product)."""
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(
                self.m, {t: v * other.values[t] for t, v in self.values.items()}
            )
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return ClassFunction(self.m, {t: v * c for t, v in self.values.items()})

    def is_zero(self):
        return all(v == 0 for v in self.values.values())

    def _check(self, other):
        if self.m != other.m:
            raise ValueError(f"degree mismatch: {self.m} vs {other.m}")

    def to_json_dict(self):
        return {
            "m": self.m,
            "values": [
                {"type": format_cycle_type(t), "value": str(self.values[t])}
                for t in cycle_types_of(self.m)
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        values = {
            parse_cycle_type(entry["type"]): Fraction(entry["value"])
            for entry in data["values"]
        }
        return cls(int(data["m"]), values)

    def __repr__(self):
        return f"ClassFunction(m={self.m})"


def irr_character(lam):
    """The irreducible character indexed by lam, as a ClassFunction."""
    m = lam.size
    return ClassFunction(m, {t: irr_char(lam, t) for t in cycle_types_of(m)})


def trivial_character(m):
    return ClassFunction(m, {t: 1 for t in cycle_types_of(m)})


class IrrDecomposition:
    """Multiset of irreducible factors of a module of degree m.

    Zero multiplicities are never stored; hashable and immutable.
    """

    __slots__ = ("m", "_items")

    def __init__(self, m, mults=()):
        self.m = m
        acc = {}
        for lam, n in dict(mults).items():
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

    def support(self):
        return tuple(lam for lam, _ in self._items)

    def is_zero(self):
        return not self._items

    def total_multiplicity(self):
        return sum(n for _, n in self._items)

    def dimension(self):
        return sum(n * irr_dimension(lam) for lam, n in self._items)

    def module_weight(self):
        """Largest weight among the factors; 0 for the zero module."""
        return max((lam.weight() for lam, _ in self._items), default=0)

    def socle_multiplicities(self):
        """Map socle -> multiplicity (socles of distinct factors never collide)."""
        return {lam.socle(): n for lam, n in self._items}

    def character(self):
        m = self.m
        vals = {t: 0 for t in cycle_types_of(m)}
        for lam, n in self._items:
            for t in vals:
                vals[t] += n * irr_char(lam, t)
        return ClassFunction(m, vals)

    def __add__(self, other):
        if self.m != other.m:
            raise ValueError(f"degree mismatch: {self.m} vs {other.m}")
        acc = dict(self._items)
        for lam, n in other._items:
            acc[lam] = acc.get(lam, 0) + n
        return IrrDecomposition(self.m, acc)

    def scale(self, c):
        return IrrDecomposition(self.m, {lam: c * n for lam, n in self._items})

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
    total = sum(class_size(t) * f.values[t] * g.values[t] for t in cycle_types_of(f.m))
    return Fraction(total, factorial(f.m))


def decompose(f):
    """Write the class function f as a sum of irreducible characters.

    Raises ValueError("not a character ...") when any extracted
    multiplicity is negative or non-integral.
    """
    m = f.m
    types, table = character_table(m)
    order = factorial(m)
    weights = [class_size(t) * f.values[t] for t in types]
    mults = {}
    for lam in partitions_of(m):
        row = table[lam]
        n = Fraction(sum(w * c for w, c in zip(weights, row)), order)
        if n.denominator != 1 or n < 0:
            raise ValueError(f"not a character: multiplicity of {lam} is {n}")
        if n:
            mults[lam] = int(n)
    return IrrDecomposition(m, mults)
