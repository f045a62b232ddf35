"""
Existence thresholds for all three fields
=========================================

For each target minimum weight d, the averaging bound pins down the
smallest even length from which a double Toeplitz code of minimum
weight at least d is guaranteed to exist.  Each threshold comes with
an exact-integer certificate that the bound holds at every longer
even length too.
"""

from dtcodes import GF, minimal_guaranteed_length

fields = [GF(2), GF(3), GF(4)]

print("d  " + "  ".join(f"F{gf.q:<4d}" for gf in fields))
for d in range(5, 13):
    row = [minimal_guaranteed_length(gf, d) for gf in fields]
    print(f"{d:<3d}" + "  ".join(f"{n:<5d}" for n in row))

# larger fields guarantee any given weight at shorter lengths
for d in range(5, 13):
    n2, n3, n4 = (minimal_guaranteed_length(gf, d) for gf in fields)
    assert n2 > n3 > n4
print("ordering n_2(d) > n_3(d) > n_4(d) holds throughout")

# the rate of growth is near-linear in d; show the binary increments
steps = [minimal_guaranteed_length(GF(2), d) for d in range(5, 15)]
print("binary thresholds:", steps)
print("increments:", [b - a for a, b in zip(steps, steps[1:])])
