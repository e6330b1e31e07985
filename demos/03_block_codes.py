#!/usr/bin/env python3
"""
The pluggable Hamming-metric block-code layer.

The staged-shuffle construction only asks a shuffler code for three
things: encode, unique decoding, and a known minimum distance. Any of
the constructions here can play that role; at desk scale Reed-Solomon,
greedy Gilbert-Varshamov lists, and their concatenations cover the
parameter ranges the permutation code needs.
"""
from ulamcodes import DecodeFailure, concat_code, greedy_gv_code, identity_code, rs_code

# Reed-Solomon over GF(5): message digits are polynomial coefficients,
# codeword = evaluations at 0..4; distance n-k+1 = 4 corrects 1 error
rs = rs_code(5, 5, 2)
word = rs.encode((1, 2))  # the polynomial 1 + 2x
print(f"RS [5,2,4] over GF(5): encode (1,2) -> {word}")
corrupted = (1, 3, 4, 2, 4)
# decode_word returns the message index, the base-5 value of the digits (1, 2)
print(f"decode {corrupted} (one corrupted position) -> {rs.decode_word(corrupted)}")
hopeless = (4, 0, 0, 1, 3)
print(f"decode a far word -> {rs.decode_word(hopeless)!r}")
assert isinstance(rs.decode_word(hopeless), DecodeFailure)

# extension fields work the same way (orders p^m via an irreducible polynomial)
rs16 = rs_code(16, 12, 5)
print(f"\nRS over GF(16): n=12, k=5, distance {rs16.min_distance}, "
      f"radius {rs16.decoding_radius}")

# greedy Gilbert-Varshamov search: scan words in lexicographic order,
# keep those far from everything kept; decoding is nearest-codeword
gv = greedy_gv_code(4, 8, 5)
print(f"\ngreedy GV over [4]^8 at distance 5: {gv.size} codewords, "
      f"exact min distance {gv.min_distance}")
print(f"first codewords: {list(gv.codewords())[:3]}")

# concatenation reaches long block lengths over small alphabets:
# outer RS over GF(16), inner expands each GF(16) symbol into two
# quaternary digits
concat = concat_code(rs_code(16, 8, 3), identity_code(4, 2))
print(f"\nconcatenated code: alphabet {concat.alphabet_size}, length "
      f"{concat.block_length}, design distance {concat.min_distance}, "
      f"radius {concat.decoding_radius}")
msg = 1234
encoded = concat.encode_index(msg)
print(f"encode_index({msg}) -> {encoded}")
damaged = list(encoded)
damaged[5] ^= 1
print(f"decode with one flipped digit -> {concat.decode_word(tuple(damaged))}")
