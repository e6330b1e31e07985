#!/usr/bin/env python3
"""
Ground permutation sets: small families of permutations of [q] whose
pairwise LCS is provably tiny. They are the per-group reordering
alphabet of the staged-shuffle code, and their LCS cap is what the
shuffler code's Hamming distance "lifts" to full length.
"""
from ulamcodes import (
    brute_force_ground_set,
    greedy_gv_code,
    identity_code,
    xor_ground_set,
)

# XOR route: position i of sigma_g holds i XOR g. Two codewords of a
# binary code that agree on few bit positions give permutations with a
# small common subsequence: LCS <= 2^(number of agreeing positions).
q = 16
code = greedy_gv_code(2, 4, 2)  # 8 binary words, pairwise distance >= 2
ground = xor_ground_set(q, code)
print(f"q={q}, |G|={code.size}, G min distance={code.min_distance}")
print(f"ground set: p={ground.p} permutations, certified max LCS={ground.certified_max_lcs}")
print(f"predicted cap 2^(4 - {code.min_distance}) = {2 ** (4 - code.min_distance)}")
for sigma in ground.perms[:4]:
    print("  ", sigma)
print("   ...")

# the constructor certified every pair; worst_pair is the first pair that
# reaches the certified max
i, j = ground.worst_pair
print(f"certified max LCS {ground.certified_max_lcs} <= cap {2 ** (4 - code.min_distance)}, "
      f"reached first by perms {i} and {j}")

# using every binary word (distance 1) doubles p but doubles the LCS cap
dense = xor_ground_set(q, identity_code(2, 4))
print(f"\nall-words variant: p={dense.p}, certified max LCS={dense.certified_max_lcs}")

# brute-force route: greedy scan of the q! permutations; feasible for
# small q and the only option when q is not a power of two
bf = brute_force_ground_set(6, target_p=4, max_lcs=3)
print(f"\ngreedy search over [6]: found p={bf.p} with max LCS={bf.certified_max_lcs}")
for sigma in bf.perms:
    print("  ", sigma)
