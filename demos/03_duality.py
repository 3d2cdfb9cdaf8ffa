"""
Planar duality, one bond subset at a time
=========================================

On the ring the strip is an annulus, so its dual graph has one interior
face row less and two extra vertices: the caps of the annulus.  Each bond
subset B corresponds to the complementary subset of dual bonds, and the
configuration weights match after swapping v for Q/v.  The library checks
the bookkeeping cluster by cluster, not just in aggregate.
"""

from pottstrip import duality_witness_check, duality_witnesses, square_strip

strip = square_strip(2, 2)
print("strip:", strip, "with", strip.edge_count, "bonds")

# One witness per bond subset.  Each records the direct and dual cluster
# statistics and whether the per-configuration weight identity holds.
witnesses = list(duality_witnesses(strip))
print("configurations:", len(witnesses))

# A dual cluster counts as winding when it wraps the ring or contains one
# of the two cap vertices, so a direct configuration with j winding
# clusters always faces a dual one with j + 1.
sample = witnesses[0]
print(
    "empty subset: direct winding =", sample.direct_ntc,
    "dual winding =", sample.dual_ntc,
)
assert all(w.dual_ntc == w.direct_ntc + 1 for w in witnesses)
print("the j <-> j+1 correspondence holds on every configuration")

assert all(w.ok for w in witnesses)
print("every per-configuration weight identity holds")

# duality_witness_check additionally verifies the aggregate form:
# Q^(1-F) * v^E * Zdual(Q/v) equals Z, checked with denominators cleared.
assert duality_witness_check(strip)
print("aggregate duality identity holds")
