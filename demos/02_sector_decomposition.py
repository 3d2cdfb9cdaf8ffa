"""
Partition function and winding sectors from characters
======================================================

The cluster expansion writes Z as a sum over bond subsets weighted
Q^(clusters) * v^(bonds).  Splitting that sum by the number j of clusters
that wind around the ring gives the sectors Z_1, Z_3, ..., Z_2L+1, and
each sector is a fixed linear combination of the characters K_1,2l+1.
Everything below is checked against exhaustive enumeration.
"""

from pottstrip import (
    amplitude_c,
    character_from_sectors,
    character_K,
    fk_spectrum,
    fk_z,
    square_strip,
    z_from_characters,
    z_sector_from_characters,
)

strip = square_strip(2, 3)
print("strip:", strip)

# Ground truth first: enumerate all 2^12 bond subsets and split by the
# winding count j.
spectrum = fk_spectrum(strip)
for j, sector in spectrum.items():
    print(f"Z_{2 * j + 1} =", sector)

# The amplitudes c^(l) are Chebyshev-like polynomials in Q.
for l in range(strip.width + 1):
    print(f"c({l}) =", amplitude_c(l))

# Z = sum_l c^(l) K_1,2l+1, exactly.
decomposition = z_from_characters(strip)
assert decomposition.value == fk_z(strip)
print("\nZ matches the amplitude-character sum")

# Each sector keeps a single term of each amplitude: the Q^j one.
for j in range(strip.width + 1):
    sector = z_sector_from_characters(strip, j)
    assert sector.value == spectrum[j]
print("every winding sector matches its character sum")

# The linear map is invertible: the characters can be rebuilt from the
# sectors, dividing out the Q^j that every winding cluster contributes.
for l in range(strip.width + 1):
    assert character_from_sectors(strip, l, spectrum) == character_K(strip, l)
print("and the inversion reproduces the characters")
