"""
Planar duality, configuration by configuration
==============================================

On the ring the strip is an annulus, so its dual graph has one interior
face row less and two extra vertices: the caps of the annulus.  Each bond
subset B corresponds to the complementary subset of dual bonds, and the
configuration weights match after swapping v for Q/v.  The library checks
the bookkeeping cluster by cluster, not just in aggregate.
"""

from pottstrip import bruteforce, duality_witness_check, square_strip

strip = square_strip(2, 2)
print("strip:", strip, "with", strip.edge_count, "bonds")

# One walk over the bond subsets, each paired with its complementary dual
# configuration, counts them per key: the (clusters, bonds, winding
# clusters) of the direct side and of the dual side.
paired = bruteforce._paired_histogram(strip)
configurations = sum(paired.values())
print("configurations:", configurations)
assert configurations == 2 ** strip.edge_count

# A dual cluster counts as winding when it wraps the ring or contains one
# of the two cap vertices, so a direct configuration with j winding
# clusters always faces a dual one with j + 1.  The empty subset is the one
# direct configuration without bonds.
empty_direct, empty_dual = next(key for key in paired if key[0][1] == 0)
print(
    "empty subset: direct winding =", empty_direct[2],
    "dual winding =", empty_dual[2],
)
assert all(dual[2] == direct[2] + 1 for direct, dual in paired)
print("the j <-> j+1 correspondence holds on every configuration")

# duality_witness_check verifies the weight identity on every key, which
# covers every configuration in it, and the aggregate form:
# Q^(1-F) * v^E * Zdual(Q/v) equals Z, checked with denominators cleared.
assert duality_witness_check(strip)
print("every per-configuration weight identity holds")
print("aggregate duality identity holds")
