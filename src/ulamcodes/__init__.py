"""
Permutation codes in the Ulam metric.

A codeword is a permutation of [n], n = q^ell, produced by ell shuffle
stages over the identity: each stage partitions the positions into
groups of q and reorders every group by one of p small "ground"
permutations, selected per group by a codeword of a Hamming-metric block
code. The block code's distance lifts the ground set's pairwise-LCS gap
to the full length, giving codes with certified minimum Ulam distance
and a stage-wise unique decoder up to a quarter of that distance.

Modules: perm_core (distances), block_codes (+ fields), ground_set,
ulam_code (the codec), channel (relocation noise), verify (audits),
cli (command-line front end).
"""
from .block_codes import (
    BlockCode,
    DecodeFailure,
    concat_code,
    greedy_gv_code,
    identity_code,
    load_explicit_code,
    repetition_code,
    rs_code,
    save_explicit_code,
)
from .channel import RelocationTrace, random_permutation, relocate
from .errors import ParameterError
from .ground_set import (
    GroundSet,
    brute_force_ground_set,
    load_ground_set,
    save_ground_set,
    xor_ground_set,
)
from .perm_core import (
    from_digits,
    identity,
    lcs_length,
    lcs_length_dp,
    restrict,
    to_digits,
    ulam_distance,
)
from .ulam_code import (
    DecodeResult,
    UlamCodeParams,
    apply_stage,
    decode,
    encode,
    message_to_shufflers,
    run_stages,
)
from .verify import audit_pairwise, decoder_sweep, rate_report

__all__ = [
    "BlockCode",
    "DecodeFailure",
    "DecodeResult",
    "GroundSet",
    "ParameterError",
    "RelocationTrace",
    "UlamCodeParams",
    "apply_stage",
    "audit_pairwise",
    "brute_force_ground_set",
    "concat_code",
    "decode",
    "decoder_sweep",
    "encode",
    "from_digits",
    "greedy_gv_code",
    "identity",
    "identity_code",
    "lcs_length",
    "lcs_length_dp",
    "load_explicit_code",
    "load_ground_set",
    "message_to_shufflers",
    "random_permutation",
    "rate_report",
    "relocate",
    "repetition_code",
    "restrict",
    "rs_code",
    "run_stages",
    "save_explicit_code",
    "save_ground_set",
    "to_digits",
    "ulam_distance",
    "xor_ground_set",
]

__version__ = "0.1.0"
