"""The brute-force reference of the oracle's spin sweep: every spin
assignment of the unpinned sites visited in turn.  The library's
``bruteforce._spin_sum`` shares none of this code, so the tests compare it
with this sum on every strip small enough to enumerate."""

from fractions import Fraction
from itertools import product


def equal_bond_counts(strip, q, pinned_rows=()):
    """``counts[k]``: how many of the q**(V - pinned) assignments of the
    sites outside ``pinned_rows``, those in them held at spin 0, have
    exactly k bonds with equal ends."""
    free = [x for x in range(strip.vertex_count) if x % strip.width not in pinned_rows]
    pairs = [(u, w) for u, w, _ in strip.edges()]
    spins = [0] * strip.vertex_count
    counts = [0] * (len(pairs) + 1)
    for assignment in product(range(q), repeat=len(free)):
        for x, s in zip(free, assignment):
            spins[x] = s
        counts[sum(spins[u] == spins[w] for u, w in pairs)] += 1
    return counts


def spin_sum(counts, v):
    """The sum over assignments of (1 + v)**(bonds with equal ends)."""
    one_plus_v = 1 + Fraction(v)
    return sum(c * one_plus_v ** k for k, c in enumerate(counts) if c)
