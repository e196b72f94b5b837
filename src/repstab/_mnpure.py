"""Murnaghan-Nakayama kernel on the abacus bitmask, one whole row at a time.

char_row(shape) returns the irreducible character of the symmetric group
indexed by `shape` (a descending tuple of positive ints) on every class of
degree n = |shape|, in the canonical order of classes(n).cycles;
char_value(shape, cycles) reads one entry of that row (`cycles` is a
descending tuple with the same sum).

A shape is carried as a Python int: bit shape[i] + (len - 1 - i) is set
for each row i (its beta-set).  Removing a border strip of length k moves
one bead from a position b down to a free position b - k, and the sign is
the parity of the beads strictly in between.  Masks are normalised by
dropping the beads of empty rows (the run of set bits at the bottom), so
every shape has one key whatever its number of rows, and sub-rows are
shared across degrees.  Python ints put no cap on the degree.

The canonical class order is reverse-lexicographic, so the classes of
degree n whose largest cycle is k form one block, (k,) + sigma with sigma
running over the classes of degree n - k whose largest cycle is at most k:
the suffix of classes(n - k).cycles from classes(n - k).start(k).  The
rule (Macdonald I.3 Ex. 11) then holds block by block,

    row(shape)[block k] = sum over border strips of length k of
                          +- row(shape - strip)[start(n - k, k):],

so each block is a sum of tuple slices.

Rows are cached in one LRU cache of ROW_CACHE_ROWS rows, keyed by the
normalised mask.  A row of degree n holds p(n) ints, so the cache holds
at most ROW_CACHE_ROWS * p(n) entries when no row passes degree n.  At the
default degree budget of 14 every shape fits at once: the 508 shapes of
degree <= 14 hold 41,074 entries in all.  A module polynomial reads one
row per mu by its parts, and the polynomials of one session read the same
shapes again and again (434 reads for the 67 socles of size <= 8), so each
shape's key (mask, n) is kept too, in a second LRU cache of
ROW_CACHE_ROWS keys.  It holds two ints per shape and never a row: the
rows live in the row cache alone, and its evictions free them.
"""

from functools import lru_cache
from operator import add, neg, sub

from .partitions import classes

ROW_CACHE_ROWS = 4096


def char_value(shape, cycles):
    n = sum(shape)
    if n != sum(cycles):
        raise ValueError(f"size mismatch: |{shape}| vs |{cycles}|")
    return char_row(shape)[classes(n).index[cycles]]


def char_row(shape):
    """The values of shape's character on classes(|shape|).cycles, as a tuple."""
    return _row(*_key(shape))


@lru_cache(maxsize=ROW_CACHE_ROWS)
def _key(shape):
    """(mask, |shape|): the key of shape's row in the row cache."""
    ell = len(shape)
    mask = 0
    for i, part in enumerate(shape):
        mask |= 1 << (part + ell - 1 - i)
    return mask, sum(shape)


def cache_size():
    """Number of rows in the kernel cache, at most ROW_CACHE_ROWS."""
    return _row.cache_info().currsize


@lru_cache(maxsize=ROW_CACHE_ROWS)
def _row(mask, n):
    """The row of the shape with normalised mask `mask` and size n."""
    if not n:
        return (1,)
    row = []
    for k in range(n, 0, -1):
        j = n - k
        sub_classes = classes(j)
        start = sub_classes.start(k)
        block = None
        # beads at b >= k whose slot b - k is free
        movable = mask & (~mask << k)
        while movable:
            bit = movable & -movable
            movable ^= bit
            low = bit >> k
            rest = mask ^ bit ^ low
            rest >>= (rest ^ (rest + 1)).bit_length() - 1
            part = _row(rest, j)[start:]
            odd = (mask & (bit - 1) & ~((low << 1) - 1)).bit_count() & 1
            if block is None:
                block = map(neg, part) if odd else part
            else:
                block = map(sub if odd else add, block, part)
        if block is None:
            row.extend([0] * (len(sub_classes.cycles) - start))
        else:
            row.extend(block)
    return tuple(row)
