#!/usr/bin/env python3
"""
The staged-shuffle codec end to end.

A codeword permutation of [q^ell] is built in ell stages from the
identity. Stage i splits the positions into groups of q that agree on
every base-q digit except digit i; a length-(n/q) shuffler string picks,
per group, which ground permutation rearranges that group's contents.
Drawing the ell shufflers as codewords of a block code C makes distinct
messages collide in at most a controlled number of groups, and each
differing group caps the common subsequence at the ground set's max
LCS: total pairwise distance >= C.min_distance * (q - max_lcs).
"""
from ulamcodes import (
    DecodeFailure,
    GroundSet,
    apply_stage,
    decode,
    encode,
    greedy_gv_code,
    identity,
    message_to_shufflers,
    rate_report,
    relocate,
    run_stages,
    ulam_distance,
    xor_ground_set,
)
from ulamcodes.ulam_code import UlamCodeParams

# --- the two-permutation swap picture, drawn stage by stage -----------------
# With q=2 the ground set is {identity, swap} and each stage either swaps
# or keeps each pair of positions differing in one binary digit.
swaps = GroundSet(2, [(0, 1), (1, 0)])
pi = identity(8)
print("start       :", pi)
for stage, w in enumerate([(1, 0, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1)], start=1):
    pi = apply_stage(pi, stage, w, swaps)
    print(f"after stage {stage}:", pi, f"   shuffler {w}")

# same answer in one call
assert pi == run_stages([(1, 0, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1)], swaps)

# --- a full instance: n = 64, quaternary ground set over [8] ----------------
ground = xor_ground_set(8, greedy_gv_code(2, 3, 2))
code = greedy_gv_code(4, 8, 5)
params = UlamCodeParams(q=8, ell=2, ground=ground, code=code)
print(f"\ninstance: {params}")
print(f"pairwise distance bound : {params.distance_bound} "
      f"(= {code.min_distance} * separation {ground.separation})")
print(f"decoding guarantee      : below {params.decode_guarantee} relocations")
print(f"rate lower bound        : {rate_report(params).rate_lower:.4f}")

x = 2025
shufflers = message_to_shufflers(x, params)
word = encode(x, params)
print(f"\nmessage {x} -> stage shufflers {shufflers}")
print(f"codeword: {word}")

# corrupt with relocations inside the radius and decode
corrupted, trace = relocate(word, 6, seed=7)
print(f"\nafter {len(trace.moves)} random relocations "
      f"(Ulam distance {ulam_distance(word, corrupted)}):")
print(f"received: {corrupted}")
result = decode(corrupted, params)
assert not isinstance(result, DecodeFailure)
print(f"decoded message: {result.message} (correct: {result.message == x})")

# push far past the radius: the decoder refuses rather than guessing
hopeless, _ = relocate(word, 40, seed=8)
print(f"\nafter 40 relocations: {decode(hopeless, params)!r}")
