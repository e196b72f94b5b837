"""Symbolic families of symmetric-group modules, one S_m-module per degree m.

A family is described by a finite tree of constructors: induced
(projective) families, the single-irreducible families V, permutation
modules on cycles, tensor products, direct sums, degree truncation, and
weight truncation.

Inside the library a family is one form, its net step list up to a top
degree (family_steps): the entries (s, start, delta) by which the
multiplicity of s[m] changes at start, in the layout of
pieri.horizontal_strip_steps, one bounded cache for every node.  Each
constructor maps its children's lists to its own.  An induced family
takes the Pieri entries of its base's pairs, cached on them; a cycle
module the entries of its cycle-count polynomial up to top
(frobenius.socle_steps, which reads classes of degree at most top), in
integers; a tensor product, between consecutive breakpoints of its
factors, those of the product of their polynomials, all in the basis B_rho.  A
single-irreducible family is one entry, a direct sum merges lists, a
degree truncation moves every start up to its cutoff and a weight
truncation keeps the s by |s|, the weight of s[m].  No class of a listed
degree is read.

The tree alone bounds each list (stable_range): every start is at most
T and every socle s has |s| <= w, per constructor, so a list is built
once, at min(top, T), whatever the top asked for.

At the API edge, the socle multiplicities at m (socles_at) are the
prefix sums of the list up to m, terms_at pads each socle s to s[m], and
character_at is the character of terms_at: one route from a family to
its character, the one a scan reads.  All three take any degree but a
negative one (check_degree): the cap is the command line's.
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .characters import IrrDecomposition
from .cyclepoly import cycle_binomials
from .errors import ParseError
from .frobenius import binomial_form_of_socles, binomial_product, socle_steps
from .partitions import Partition, format_partition, parse_partition
from .pieri import horizontal_strip_steps, prefix_sums, sum_steps


# -- family constructors ------------------------------------------------------


class _Family:
    """Base of the family constructors: immutable, equal and hashed by type
    and fields, printed as Name(field=value, ...).  Each subclass names its
    fields once, as __slots__ = __match_args__, and takes one value per
    field, in that order.  The fields and the hash are kept at construction,
    since the step-list caches hash a family, and its children, per call."""

    __slots__ = ("_fields", "_hash")

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_fields", values)
        object.__setattr__(self, "_hash", hash((type(self), *values)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._fields == other._fields

    def __hash__(self):
        return self._hash

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields


class Projective(_Family):
    """Induced family: zero below the base degree, Pieri expansion above."""

    __slots__ = __match_args__ = ("base",)


class VFamily(_Family):
    """Family with a single irreducible term per degree.

    convention 'socle' (default): at degree m >= |lam| the term is the
    irreducible whose socle is the socle of lam (first row re-grown).
    convention 'padded': at degree m >= |lam| + lam_1 the term is the
    irreducible whose socle is lam itself; zero below that.
    """

    __slots__ = __match_args__ = ("lam", "convention")

    def __init__(self, lam: Partition, convention: str = "socle"):
        if convention not in ("socle", "padded"):
            raise ValueError(f"unknown convention {convention!r}")
        super().__init__(lam, convention)


class CycleModule(_Family):
    """Permutation module on tuples of disjoint-length cycles: one tensor
    factor per part of nu, the part being the cycle length."""

    __slots__ = __match_args__ = ("nu",)

    def __init__(self, nu: Partition):
        if not nu:
            raise ValueError("cycle module needs a nonempty partition")
        super().__init__(nu)


class Tensor(_Family):
    __slots__ = __match_args__ = ("left", "right")


class DirectSum(_Family):
    __slots__ = __match_args__ = ("children",)

    def __init__(self, children=()):
        super().__init__(tuple(children))


class Truncate(_Family):
    """Zero out every degree below the cutoff."""

    __slots__ = __match_args__ = ("child", "cutoff")


class WeightTruncateLE(_Family):
    """Keep only irreducible factors of weight <= p."""

    __slots__ = __match_args__ = ("child", "p")


class WeightTruncateGT(_Family):
    """Keep only irreducible factors of weight > p."""

    __slots__ = __match_args__ = ("child", "p")


# -- evaluation ---------------------------------------------------------------


def terms_at(spec, m):
    """Decomposition into irreducibles of the family at degree m: its
    socle multiplicities, each socle s padded to s[m]."""
    socles = socles_at(spec, m)
    return IrrDecomposition(m, {s.pad(m): n for s, n in socles.items()})


def socles_at(spec, m):
    """{s: multiplicity of s[m]} of the family at degree m, zero entries
    dropped, as a fresh dict: the sums of its step list."""
    check_degree(m)
    return sum_steps(family_steps(spec, m), m)


def character_at(spec, m):
    """Character of the family at degree m, that of terms_at(spec, m)."""
    return terms_at(spec, m).character()


def check_degree(m):
    """ValueError for a negative degree."""
    if m < 0:
        raise ValueError("degree must be nonnegative")


@lru_cache(maxsize=1024)
def stable_range(spec):
    """(T, w) of the family: every start of its step list is at most T,
    and every socle s it ever holds has |s| <= w (s[m] has weight |s|).
    Read off the tree, before any list is built.  A cycle module and the
    polynomials of a tensor product's pieces have weight at most w, and
    each entry of a polynomial of weight d starts at |s| + mu_1 <= 2d."""
    match spec:
        case Projective(base=w):  # entries start at |s| + nu_1 <= |nu| + nu_1
            return max((nu.size + nu[0] for nu, _ in w.items() if nu), default=0), w.m
        case VFamily(lam=lam, convention="socle"):
            return lam.size, lam.size - (lam.parts[0] if lam else 0)
        case VFamily(lam=lam):
            return lam.size + (lam.parts[0] if lam else 0), lam.size
        case CycleModule(nu=nu):
            return 2 * nu.size, nu.size
        case Tensor(left=left, right=right):
            # a cycle factor never moves: only the other's starts are breakpoints
            factors = [(f, *stable_range(f)) for f in (left, right)]
            w = sum(w for _, _, w in factors)
            moving = [t for f, t, _ in factors if not isinstance(f, CycleModule)]
            return max(moving + [2 * w]), w
        case DirectSum(children=children):  # (0, 0) when empty
            return tuple(map(max, zip((0, 0), *map(stable_range, children))))
        case Truncate(child=child, cutoff=cutoff):
            t, w = stable_range(child)
            return max(cutoff, t), w
        case WeightTruncateLE(child=child, p=p):
            t, w = stable_range(child)
            return t, min(p, w)
        case WeightTruncateGT(child=child):
            return stable_range(child)
    raise TypeError(f"not a family constructor: {spec!r}")


@lru_cache(maxsize=1024)
def family_steps(spec, top):
    """The family's net step list up to degree top: the entries (s, start,
    delta), start <= top and delta != 0, by which the multiplicity of s[m]
    changes at start, one per (s, start), sorted by (start, s).  No entry
    starts past T of stable_range, so the list is built once, at
    min(top, T), and served at every larger top."""
    stop = stable_range(spec)[0]
    if top > stop:
        return family_steps(spec, stop)
    match spec:
        case Projective(base=w):
            entries = horizontal_strip_steps(w.items())
        case VFamily(lam=lam, convention="socle"):
            entries = [(lam.socle(), lam.size, 1)]
        case VFamily(lam=lam):
            entries = [(lam, lam.size + (lam.parts[0] if lam else 0), 1)]
        case CycleModule(nu=nu) if nu.parts[0] > top:
            # every B_rho of the polynomial has |rho| >= nu_1, and every
            # entry starts at or above such an |rho|: zero on [0, top]
            entries = ()
        case CycleModule(nu=nu):
            entries = _integer_steps([(_cycle_form(nu, top), 0, top)])
        case Tensor(left=left, right=right):
            entries = _tensor_steps(left, right, top)
        case DirectSum(children=children):
            entries = [e for child in children for e in family_steps(child, top)]
        case Truncate(child=child, cutoff=cutoff):
            entries = [(s, max(b, cutoff), d) for s, b, d in family_steps(child, top)]
        case WeightTruncateLE(child=child, p=p):  # s[m] has weight |s|
            entries = [e for e in family_steps(child, top) if e[0].size <= p]
        case WeightTruncateGT(child=child, p=p):
            entries = [e for e in family_steps(child, top) if e[0].size > p]
        case _:
            raise TypeError(f"not a family constructor: {spec!r}")
    net = {}
    for s, start, delta in entries:
        if start <= top:
            net[s, start] = net.get((s, start), 0) + delta
    entries = ((s, b, d) for (s, b), d in net.items() if d)
    return tuple(sorted(entries, key=lambda e: (e[1], e[0])))


def _tensor_steps(left, right, top):
    """The entries of a tensor product up to top.  A factor's module
    polynomial changes only at its breakpoints (a cycle module's never),
    so between consecutive breakpoints b <= m < c of the two the product
    follows Q = P_left(b) * P_right(b), a character there."""
    factors = [(f, family_steps(f, top)) for f in (left, right)]
    if not all(st for _, st in factors):  # a factor that is zero on [0, top]
        return []
    moving = [st for f, st in factors if not isinstance(f, CycleModule)]
    breaks = sorted({0}.union(*({b for _, b, _ in st} for st in moving)))

    forms = [
        repeat(_cycle_form(f.nu, top)) if isinstance(f, CycleModule)
        else map(binomial_form_of_socles, prefix_sums(st, breaks))
        for f, st in factors
    ]
    pieces = zip(*forms, breaks, breaks[1:] + [top + 1])
    return _integer_steps((binomial_product(p, q, c - 1), b, c - 1) for p, q, b, c in pieces)


def _cycle_form(nu, top):
    """The B_rho form of the cycle module's polynomial up to top."""
    form = {(): 1}, 1
    for part in nu:
        form = binomial_product(form, cycle_binomials(part), top)
    return form


def _integer_steps(pieces):
    """The entries that lead from zero through the multiplicities of each
    piece (form, lo, hi) in turn, the B_rho form of a polynomial that is a
    character on [lo, hi]: at lo and at each start of its step list up to
    hi, one entry per multiplicity that changes there, read in integers.
    ValueError at the first degree where a multiplicity is negative or no
    integer; one that does not change was checked where it last did."""
    prev = {}
    for form, lo, hi in pieces:
        steps, den = socle_steps(form, hi)
        degrees = [lo] + sorted({b for _, b, _ in steps if lo < b <= hi})
        for m, sums in zip(degrees, prefix_sums(steps, degrees)):
            for s in prev.keys() - sums.keys():
                yield s, m, -prev.pop(s)
            for s, total in sums.items():
                old = prev.get(s, 0)
                if total == old * den:
                    continue
                n, rem = divmod(total, den)
                if rem:
                    n = Fraction(total, den)
                    raise ValueError(f"non-integral multiplicity {n} for {s.pad(m)}")
                if n < 0:
                    raise ValueError(f"negative multiplicity {n} for {s.pad(m)}")
                prev[s] = n
                yield s, m, n - old


# -- the expression language ---------------------------------------------------

# head -> (class, name of its integer argument, what that integer is)
_TRUNCATIONS = {
    "trunc>=": (Truncate, "n", "a cutoff"),
    "wtrunc<=": (WeightTruncateLE, "p", "a bound"),
    "wtrunc>": (WeightTruncateGT, "p", "a bound"),
}

# the deepest node parse_spec takes, the outermost at depth 1: a scan recurses a
# few frames per level and overflowed Python's default stack near depth 250
MAX_SPEC_DEPTH = 100

_SPEC_TOKEN = re.compile(
    r'(?P<open>\()|(?P<close>\))|"(?P<str>[^"]*)"|(?P<quote>")|(?P<atom>[^\s()"]+)'
)


def format_spec(spec):
    """Canonical text form of a family; parse_spec inverts it."""
    match spec:
        case Projective(base=w):
            parts = " ".join(
                f'"{format_partition(lam)}"'
                for lam, n in w.items()
                for _ in range(n)
            )
            return f"(proj {w.m} {parts})" if parts else f"(proj {w.m})"
        case VFamily(lam=lam, convention=conv):
            suffix = "" if conv == "socle" else " padded"
            return f"(vfam {format_partition(lam)}{suffix})"
        case CycleModule(nu=nu):
            return "(cycle " + " ".join(str(p) for p in nu) + ")"
        case Tensor(left=left, right=right):
            return f"(tensor {format_spec(left)} {format_spec(right)})"
        case DirectSum(children=children):
            inner = " ".join(format_spec(c) for c in children)
            return f"(sum {inner})" if inner else "(sum)"
        case Truncate(child, n) | WeightTruncateLE(child, n) | WeightTruncateGT(child, n):
            head = next(h for h, row in _TRUNCATIONS.items() if row[0] is type(spec))
            return f"({head} {n} {format_spec(child)})"
    raise TypeError(f"not a family constructor: {spec!r}")


@lru_cache(maxsize=1024)
def parse_spec(text):
    """Parse the s-expression family language, e.g.
    (tensor (vfam 1) (vfam 1)), (cycle 2 1), (proj 3 "2,1"),
    (trunc>= 5 (cycle 2)), (wtrunc<= 1 (proj 2 "1,1")), (sum ...).
    Nodes nest at most MAX_SPEC_DEPTH deep.  Cached on the text: a family
    is an immutable value."""
    toks = []
    for m in _SPEC_TOKEN.finditer(text):
        if m.lastgroup == "quote":
            raise ParseError("unterminated string", m.start())
        toks.append((m.lastgroup, m[m.lastgroup], m.start()))
    if not toks:
        raise ParseError("unexpected end of input", len(text))
    toks.reverse()  # the next token is toks[-1]
    spec = _node(toks, 1)
    if toks:
        raise ParseError("trailing input after expression", toks[-1][2])
    return spec


def _node(toks, depth):
    """Pop one parenthesised node, at depth depth, and build its family.

    Arguments are read, and sub-nodes built, before the head is checked.
    """
    kind, _, pos = toks.pop()
    if kind != "open":
        raise ParseError("expected '(' to open an expression", pos)
    if depth > MAX_SPEC_DEPTH:
        raise ParseError(f"nodes nest deeper than {MAX_SPEC_DEPTH}", pos)
    if not toks or toks[-1][0] != "atom":
        raise ParseError("expected a constructor name", pos)
    head = toks.pop()[1]
    args = []
    while toks and toks[-1][0] != "close":
        args.append(_node(toks, depth + 1) if toks[-1][0] == "open" else toks.pop())
    if not toks:
        raise ParseError("missing ')'", pos)
    toks.pop()
    return _build(head, args, pos)


def _build(head, args, pos):
    """The family of one node; args holds families and (kind, text, pos)
    tokens, and pos is where the node opens."""

    def atom(arg):
        if isinstance(arg, tuple) and arg[0] == "atom":
            return arg[1], arg[2]
        raise ParseError("expected a plain atom", pos)

    def integer(arg):
        """A degree, cutoff, bound or cycle length: never negative."""
        text, p = atom(arg)
        if not text.isdecimal():
            raise ParseError(f"expected an integer, got {text!r}", p)
        return int(text)

    def partition(arg, size=None):
        """The partition of arg; when size is given, it must be a partition
        of size, else the error is at the partition's first non-blank."""
        if isinstance(arg, tuple) and arg[0] == "str":
            text, p = arg[1], arg[2] + 1  # past the opening quote
        else:
            text, p = atom(arg)
        try:
            lam = parse_partition(text)
        except ParseError as exc:
            raise ParseError(exc.message, p + exc.pos) from None
        if size is not None and lam.size != size:
            p += len(text) - len(text.lstrip())
            raise ParseError(f"{lam} is not a partition of {size}", p)
        return lam

    def family(arg):
        if isinstance(arg, tuple):
            raise ParseError("expected a sub-expression", arg[2])
        return arg

    def usage(ok, message):
        if not ok:
            raise ParseError(message, pos)

    def valid(make, *values):
        try:
            return make(*values)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    if head in _TRUNCATIONS:
        cls, name, what = _TRUNCATIONS[head]
        usage(len(args) == 2, f"({head} {name} expr) takes {what} and a family")
        child = family(args[1])  # checked before the integer
        return cls(child, integer(args[0]))
    if head == "tensor":
        usage(len(args) == 2, "(tensor a b) takes exactly two factors")
        return Tensor(family(args[0]), family(args[1]))
    if head == "sum":
        return DirectSum(tuple(map(family, args)))
    if head == "vfam":
        usage(args, "(vfam parts [padded]) needs a partition")
        lam = partition(args[0])
        conv = "socle"
        if len(args) > 1:
            conv, p = atom(args[1])
            if conv not in ("socle", "padded"):
                raise ParseError(f"unknown convention {conv!r}", p)
        usage(len(args) <= 2, "too many arguments to vfam")
        return VFamily(lam, conv)
    if head == "proj":
        usage(args, '(proj n "parts" ...) needs a degree')
        n = integer(args[0])
        lams = {}
        for a in args[1:]:
            lam = partition(a, n)
            lams[lam] = lams.get(lam, 0) + 1
        return Projective(IrrDecomposition(n, lams))
    if head == "cycle":
        usage(args, "(cycle parts...) needs at least one part")
        return CycleModule(valid(Partition, sorted(map(integer, args), reverse=True)))
    raise ParseError(f"unknown constructor {head!r}", pos)
