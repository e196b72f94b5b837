"""Partitions, conjugacy classes and class sizes of symmetric groups.

A partition is a weakly decreasing tuple of positive integers; the empty
partition is a first-class value.

A class of S_m is a partition of m (Macdonald I.1, I.7), and everywhere,
the public API included, it is its descending cycle tuple: (2, 1, 1) is
the class of a transposition in S_4, () the sole class of S_0, and
tuple.count(i) is the number X_i of i-cycles.  classes(m) holds the
classes of one degree in the canonical order with their positions; the
class sizes of a degree are computed on the first read of
classes(m).sizes, and only decompose and inner_product read them.  Text
and JSON print a class as 'i^n' factors (format_cycle_type).
"""

from functools import cached_property, lru_cache
from math import factorial

from .errors import ParseError


class Partition:
    """Weakly decreasing tuple of positive integers (possibly empty)."""

    __slots__ = ("parts", "_hash")  # a partition is a dict key everywhere

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        self.parts = parts
        self._hash = hash(parts)

    @classmethod
    def from_parts(cls, parts):
        """The partition with the given parts, a tuple of positive ints
        already known to be weakly decreasing: unlike __init__, nothing is
        converted or checked."""
        lam = cls.__new__(cls)
        lam.parts = parts
        lam._hash = hash(parts)
        return lam

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return format_partition(self)

    def socle(self):
        """Drop the first row: (l1, l2, ..., lk) -> (l2, ..., lk)."""
        return Partition.from_parts(self.parts[1:])

    def weight(self):
        """Size minus the first part; 0 for the empty partition."""
        return self.size - (self.parts[0] if self.parts else 0)

    def pad(self, m):
        """Prepend a row of m - |self| boxes, giving the partition of m with this socle.

        Requires m >= |self| + self[0], otherwise the result would not be
        weakly decreasing.
        """
        first = self.parts[0] if self.parts else 0
        row = m - self.size
        if row < first:
            raise ValueError(
                f"padding too small: need m >= {self.size + first}, got {m}"
            )
        if not row:
            # only reachable for the empty partition at m = 0
            return self
        return Partition.from_parts((row,) + self.parts)


def parse_partition(text):
    """Parse comma-separated parts, e.g. '3,2,2'; '-' is the empty partition.

    Blanks around the text and around each part are ignored.  An error is
    reported at the first non-blank character of the bad part, or of the
    text, counted in the text as given.
    """
    lead = len(text) - len(text.lstrip())
    text = text.strip()
    if text == "-":
        return Partition()
    if not text:
        raise ParseError("empty partition is spelled '-'", lead)
    parts = []
    for pos, chunk in _split_with_positions(text, ","):
        part = chunk.strip()
        if not part.isdecimal():
            pos += lead + len(chunk) - len(chunk.lstrip())
            raise ParseError(f"bad partition part {part!r}", pos)
        parts.append(int(part))
    try:
        return Partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc), lead) from None


def format_partition(lam):
    if not lam:
        return "-"
    return ",".join(str(p) for p in lam.parts)


def _split_with_positions(text, sep):
    pos = 0
    for chunk in text.split(sep):
        yield pos, chunk
        pos += len(chunk) + len(sep)


def format_cycle_type(cycles):
    """The class with the descending cycle tuple `cycles` as 'i^n' factors
    in increasing i, e.g. '1^2 2^1' for (2, 1, 1); '-' for the empty class."""
    if not cycles:
        return "-"
    return " ".join(f"{i}^{cycles.count(i)}" for i in sorted(set(cycles)))


def partitions_of(m):
    """All partitions of m, in reverse-lexicographic order: (m) first, (1^m) last."""
    return [Partition(parts) for parts in _descending_tuples(m)]


def _descending_tuples(m):
    """Every partition of m as a descending tuple, (m) first and (1^m) last.

    Algorithm ZS1 (Zoghbi and Stojmenovic, 1998): x[:k] is the partition,
    x[h] its last part above 1.  Each step lowers x[h] by one and regroups
    the freed unit and the 1s after it into parts of the lowered size.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    x, h, k = [m] + [1] * (m - 1), 0, min(m, 1)
    yield tuple(x[:k])
    while x[0] > 1:
        if x[h] == 2:
            x[h], h, k = 1, h - 1, k + 1
        else:
            r = x[h] - 1
            t, x[h] = k - h, r
            while t >= r:
                h += 1
                x[h], t = r, t - r
            k = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[:k])


def cycle_types_of(m):
    """The descending cycle tuples of degree m, aligned with the
    partitions_of(m) order, as a fresh list."""
    return list(classes(m).cycles)


class Classes:
    """The conjugacy classes of one degree m, in the canonical order.

    cycles: each class's descending cycle tuple, aligned with partitions_of(m);
    index: cycle tuple -> its position in cycles;
    sizes: the class sizes, aligned with cycles, computed on first read.

    The order is reverse-lexicographic, so the classes whose largest cycle
    is at most k form a suffix of cycles; start(k) is where it begins.
    """

    def __init__(self, m):
        self.m = m
        self.cycles = tuple(_descending_tuples(m))
        self.index = {c: j for j, c in enumerate(self.cycles)}
        # _starts[k] for 0 <= k < m: the first class whose largest cycle
        # is k, found in one backward pass (every k in 1..m occurs)
        starts = [len(self.cycles)] * m
        for j in range(len(self.cycles) - 1, 0, -1):
            starts[self.cycles[j][0]] = j
        self._starts = tuple(starts)

    @cached_property
    def sizes(self):
        return tuple(map(class_size, self.cycles))

    def start(self, k):
        """Index of the first class whose largest cycle is at most k (k >= 0)."""
        return self._starts[k] if k < self.m else 0


@lru_cache(maxsize=64)
def classes(m):
    """The Classes record of degree m, built on first use and cached."""
    return Classes(m)


def class_size(cycles):
    """Number of elements of S_m in the class with the descending cycle
    tuple `cycles`: m! / prod(i^n_i * n_i!)."""
    return factorial(sum(cycles)) // centralizer_order(cycles)


def centralizer_order(cycles):
    """z = prod_i i^n_i n_i!, the order of the centralizer of an element
    with the descending cycle tuple `cycles`, n_i of them equal to i."""
    z = 1
    for i in set(cycles):
        n = cycles.count(i)
        z *= i**n * factorial(n)
    return z
