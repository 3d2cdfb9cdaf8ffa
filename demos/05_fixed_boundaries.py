"""
Strips with both boundary rows pinned
=====================================

Fixing the top and bottom spin rows to a common value turns the width-L
cyclic strip into a boundary problem that duality maps onto the free
width-(L-1) strip at the dual temperature Q/v.  The partition function
then decomposes onto boundary amplitudes b^(l), and at the Beraha points
only a handful of minimal characters survive.
"""

from fractions import Fraction

from pottstrip import (
    amplitude_b,
    fixed_boundary_spin_z,
    square_strip,
    z_fixed_boundary,
    z_fixed_boundary_minimal,
)

# The boundary amplitudes live in Q and the boundary weight Q0; the first
# nontrivial one is b(1) = Q0 - 1.
for l in range(3):
    print(f"b({l}) =", amplitude_b(l))

# A width-3 strip of length 2: two pinned rows, one free row.
width, length = 3, 2
result = z_fixed_boundary(width, length)
print("\nZ_ff =", result.value)

# Ground truth is a spin sum with the boundary rows frozen (a frontier sweep).
for q in (2, 3):
    for vv in (Fraction(1), Fraction(2), Fraction(1, 2)):
        exact = result.value.evaluate({"Q": q, "v": vv, "Q0": 0})
        oracle = fixed_boundary_spin_z(width, length, q, vv)
        assert exact == oracle
        print(f"Q={q}, v={vv}: Z_ff = {exact} (spin oracle agrees)")

# At the Ising point only chi_1,1 survives; the three-state point keeps
# chi_1,1 and chi_1,5.
for p in (4, 6):
    terms = z_fixed_boundary_minimal(width, length, p).terms
    alive = [(l, str(coeff)) for l, coeff, _ in terms if coeff != 0]
    print(f"p={p}: surviving minimal characters {alive}")
