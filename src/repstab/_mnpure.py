"""Murnaghan-Nakayama kernel on the abacus bitmask.

char_value(shape, cycles) returns the irreducible character of the
symmetric group indexed by `shape` (a descending tuple of positive ints)
at an element whose cycle lengths are `cycles` (a descending tuple with
the same sum); char_row(shape, cycle_list) gives a whole row of values.

A shape is carried as a Python int: bit shape[i] + (len - 1 - i) is set
for each row i (its beta-set).  Removing a border strip of length k moves
one bead from a position b down to a free position b - k, and the sign is
the parity of the beads strictly in between.  Masks are normalised by
dropping the beads of empty rows (the run of set bits at the bottom), so
every shape has one key whatever its number of rows, and the memo is
shared across degrees.  Python ints put no cap on the degree.

The memo holds one dict per cycle suffix, keyed by the mask.
"""

_memo = {}


def char_value(shape, cycles):
    if sum(shape) != sum(cycles):
        raise ValueError(f"size mismatch: |{shape}| vs |{cycles}|")
    return _mn(_mask(shape), cycles)


def char_row(shape, cycle_list):
    """The values of char_value(shape, cycles) for each cycles in cycle_list.

    Every entry of cycle_list must have the size of shape; the sizes are
    checked and the mask is built once for the whole row.
    """
    n = sum(shape)
    if any(map(n.__ne__, map(sum, cycle_list))):
        bad = next(c for c in cycle_list if sum(c) != n)
        raise ValueError(f"size mismatch: |{shape}| vs |{bad}|")
    mask = _mask(shape)
    return tuple([_mn(mask, cycles) for cycles in cycle_list])


def _mask(shape):
    ell = len(shape)
    mask = 0
    for i, part in enumerate(shape):
        mask |= 1 << (part + ell - 1 - i)
    return mask


def clear_cache():
    _memo.clear()


def cache_size():
    return sum(len(memo) for memo in _memo.values())


def _mn(mask, cycles):
    if not cycles:
        return 1
    memo = _memo.get(cycles)
    if memo is None:
        memo = _memo[cycles] = {}
    else:
        cached = memo.get(mask)
        if cached is not None:
            return cached
    k = cycles[0]
    rest = cycles[1:]
    total = 0
    # beads at b >= k whose slot b - k is free
    movable = mask & (~mask << k)
    while movable:
        bit = movable & -movable
        movable ^= bit
        low = bit >> k
        sub = mask ^ bit ^ low
        sub >>= (sub ^ (sub + 1)).bit_length() - 1
        value = _mn(sub, rest)
        if (mask & (bit - 1) & ~((low << 1) - 1)).bit_count() & 1:
            total -= value
        else:
            total += value
    memo[mask] = total
    return total
