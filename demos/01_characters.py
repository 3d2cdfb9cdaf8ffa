"""
Connectivity states and character polynomials
=============================================

A cyclic strip is a width-L ladder wrapped into a ring of length N.  The
bonds of one column act on connectivity states: non-crossing partitions of
the L slice points, where a block may carry a mark recording that it still
reaches back to the starting slice.  The character K_1,2l+1 is the trace of
the N-th power of the column transfer restricted to l marks.
"""

from pottstrip import (
    character_K,
    ConnectivityState,
    column_transfer,
    count_states,
    enumerate_states,
    square_strip,
)
from pottstrip.polynomial import Q, v

# The states of a width-3 slice with one marked block.  The ballot-number
# formula says there are C(6,2) - C(6,1) = 9 of them.  A state is its key,
# each point's block label then the marked labels' bit mask; from_key
# validates a key and renders it.
print("width 3, one mark:", count_states(3, 1), "states")
for key in enumerate_states(3, 1):
    print("  ", key, ConnectivityState.from_key(key).render())

# One column of the strip consists of the vertical bonds inside the slice
# followed by the horizontal bonds into the next slice.  On the mark-free
# states of a width-2 strip this is a 2x2 matrix of polynomials in Q and v.
strip = square_strip(2, 3)
block = column_transfer(strip, 0)
print("\ncolumn transfer, width 2, no marks:")
for a in range(block.dimension):
    print("  ", [str(block.entry(a, b)) for b in range(block.dimension)])

# Characters are traces of matrix powers, so they need no diagonalization
# and stay exact polynomials.
for l in range(strip.width + 1):
    print(f"K_1,{2 * l + 1} =", character_K(strip, l))

# Two closed forms worth knowing.  On a width-1 ring every column is a
# single bond, so K_1,1 = (Q + v)^N and K_1,3 = v^N.
ring = square_strip(1, 4)
assert character_K(ring, 0) == (Q + v) ** 4
assert character_K(ring, 1) == v ** 4

# And with every bridge present the only surviving configurations are the
# all-horizontal ones: K_1,2L+1 = v^(L*N).
assert character_K(strip, 2) == v ** 6
print("\nclosed forms check out")
