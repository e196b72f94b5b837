"""Pieri's rule: decompositions of modules induced along a trivial factor.

Inducing the irreducible indexed by nu from degree n up to degree m
(tensored with the trivial module on the extra m - n letters) decomposes
multiplicity-free into the irreducibles whose diagrams add m - n boxes to
nu with no two boxes in the same column (a horizontal strip).

Write s[m] for the partition (m - |s|, s) of m.  Then s[m]/nu is a
horizontal strip exactly when m - |s| >= nu_1 >= s_1 >= nu_2 >= s_2 >= ...:
nu/s is a horizontal strip and m >= |s| + nu_1.  Only the last condition
involves m, so an induced family is a step function of m.  Its step list
holds one entry (s, |s| + nu_1, multiplicity of nu) for each factor nu of
the base and each s with nu/s a horizontal strip, sorted by the start
|s| + nu_1; the factors at degree m are the s[m] of the entries that start
at or below m.  horizontal_strip_steps lists the entries once per tuple
of pairs (nu, f), in a cache frobenius shares, and prefix_sums reads the
socle multiplicities at ascending degrees off it in one pass.  They stop
changing once m reaches the last start, |nu| + nu_1 for the widest nu.
"""

from functools import lru_cache
from itertools import product
from operator import itemgetter

from .characters import IrrDecomposition
from .partitions import Partition


@lru_cache(maxsize=1024)
def horizontal_strip_steps(pairs):
    """The entries (s, |s| + mu_1, f) for every pair (mu, f) of the tuple
    pairs, each mu once, and every s with mu/s a horizontal strip, that is
    mu_1 >= s_1 >= mu_2 >= s_2 >= ..., sorted by the start |s| + mu_1.

    By Pieri's rule s_mu h_(m - |mu|) holds s[m] once for each entry of mu
    for s that starts at or below m, and no other irreducible.
    """
    steps = []
    socles = {}  # parts -> one Partition per s, so dicts of s match by identity
    for mu, f in pairs:
        first = mu.parts[0] if mu else 0
        ranges = (range(lo, hi + 1) for lo, hi in zip(mu.parts[1:] + (0,), mu.parts))
        for parts in product(*ranges):
            # only the last part can be 0: s_i >= mu_(i+1) >= 1 before it
            if parts and not parts[-1]:
                parts = parts[:-1]
            s = socles.get(parts)
            if s is None:
                s = socles[parts] = Partition.from_parts(parts)
            steps.append((s, sum(parts) + first, f))
    return tuple(sorted(steps, key=itemgetter(1)))


def prefix_sums(steps, degrees):
    """For each of the ascending degrees m in turn, {s: the sum of f over
    the entries (s, start, f) of steps that start at or below m}, zero sums
    dropped, as a fresh dict; steps is sorted by start and read once."""
    acc, i = {}, 0
    for m in degrees:
        while i < len(steps) and steps[i][1] <= m:
            s, _, f = steps[i]
            acc[s] = acc.get(s, 0) + f
            i += 1
        yield {s: n for s, n in acc.items() if n}


def sum_steps(steps, m):
    """prefix_sums of steps at the one degree m."""
    return next(prefix_sums(steps, (m,)))


def pieri_expand(nu, m):
    """Set of partitions of m obtained from nu by adding a horizontal strip.

    These are the s[m] with nu/s a horizontal strip and m >= |s| + nu_1.
    """
    if m < nu.size:
        raise ValueError(f"cannot expand a partition of {nu.size} to smaller m={m}")
    return {s.pad(m) for s in sum_steps(horizontal_strip_steps(((nu, 1),)), m)}


def projective_terms(w, m):
    """Decomposition at degree m of the induced family built from w.

    Zero below the base degree of w; above it, the Pieri expansion of each
    factor of w, carried with its multiplicity (the construction is
    additive and exact), read off the step list of w.
    """
    socles = sum_steps(horizontal_strip_steps(w.items()), m)  # empty below w.m
    return IrrDecomposition(m, {s.pad(m): n for s, n in socles.items()})
