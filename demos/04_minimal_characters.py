"""
Minimal characters at the rational Beraha points
================================================

At Q = (2 cos(pi/p))^2 with integer p the amplitudes c^(l) become periodic
in l up to sign, so the character sum for Z telescopes into finitely many
combinations chi_1,2l+1 of the K's.  Four of these points have rational Q:
p = 2, 3, 4, 6 give Q = 0, 1, 2, 3 (the Ising model sits at p = 4).
"""

from pottstrip import (
    BerahaParam,
    amplitude_c,
    fk_spectrum,
    fk_z,
    minimal_character,
    square_strip,
    z1_minimal_alternating,
    z_minimal,
)

# The periodic sign pattern behind the telescoping, here at Q = 2:
values = [amplitude_c(l).evaluate({"Q": 2, "v": 0, "Q0": 0}) for l in range(9)]
print("c(l) at Q=2, l=0..8:", values)

strip = square_strip(2, 3)
print("strip:", strip)

for p in (2, 3, 4, 6):
    q = BerahaParam.from_p(p).q_value
    # chi combines K's with indices marching in steps of p
    chis = [
        minimal_character(strip, l, p) for l in range(0, (p - 2) // 2 + 1)
    ]
    z_regrouped = z_minimal(strip, p).value
    z_direct = fk_z(strip).subs_poly("Q", q)
    assert z_regrouped == z_direct
    print(f"p={p} (Q={q}): Z regroups onto {len(chis)} minimal character(s)")

# At even p the j=0 sector also telescopes, with alternating signs.
z1 = fk_spectrum(strip)[0].subs_poly("Q", 2)
assert z1_minimal_alternating(strip, 4) == z1
print("even-p alternating sum reproduces the non-winding sector at Q=2")

# The Ising point in full: chi_1,1 alone carries Z's leading behavior.
print("chi_1,1 at p=4:", minimal_character(strip, 0, 4))
