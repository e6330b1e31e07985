"""
Named refusals that the other tests do not reach: each case builds the
refused input and checks the exception's type and message.
"""
import itertools
import re

import pytest

import ulamcodes as uc
from ulamcodes import cli
from ulamcodes.block_codes import ExplicitCode, IdentityCode, ReedSolomonCode, hamming_distance
from ulamcodes.errors import ParameterError
from ulamcodes.fields import Field

Q4_GROUND = uc.xor_ground_set(4, uc.identity_code(2, 2))
Q4_CODE = uc.greedy_gv_code(4, 4, 2)


def written(tmp_path, text):
    path = tmp_path / "file.txt"
    path.write_text(text)
    return str(path)


# name -> (call taking tmp_path, exception type, message)
REFUSALS = {
    "hamming_distance lengths": (
        lambda tmp: hamming_distance((0,), (0, 1)), ValueError,
        "hamming_distance needs equal lengths",
    ),
    "ReedSolomonCode k": (
        lambda tmp: ReedSolomonCode(Field(16), 8, 9), ParameterError,
        "need 1 <= k <= n, got k=9, n=8",
    ),
    "ExplicitCode alphabet": (
        lambda tmp: ExplicitCode(1, [(0,)]), ParameterError,
        "alphabet size must be >= 2, got 1",
    ),
    "ExplicitCode empty": (
        lambda tmp: ExplicitCode(2, []), ParameterError,
        "explicit code needs at least one codeword",
    ),
    "greedy_gv_code distance": (
        lambda tmp: uc.greedy_gv_code(2, 3, 4), ParameterError,
        "need 1 <= min_distance <= length, got d=4, length=3",
    ),
    "IdentityCode alphabet": (
        lambda tmp: IdentityCode(1, 3), ParameterError,
        "identity code needs alphabet >= 2 and length >= 1",
    ),
    "explicit-code file header": (
        lambda tmp: uc.load_explicit_code(written(tmp, "2 3\n0 0 0\n")), ValueError,
        "bad explicit-code header in ",
    ),
    "random_permutation length": (
        lambda tmp: uc.random_permutation(0, 1), ValueError,
        "permutation length must be >= 1, got 0",
    ),
    "config line": (
        lambda tmp: cli.load_config_file(written(tmp, "q=4\nell 2\n")), ParameterError,
        ":2: config line is not key=value: 'ell 2'",
    ),
    "xor descriptor q": (
        lambda tmp: cli.resolve_ground_set("xor:all", 6), ParameterError,
        "xor ground set needs q a power of two, got 6",
    ),
    "xor sub-descriptor": (
        lambda tmp: cli.resolve_ground_set("xor:rs", 4), ParameterError,
        "unknown xor sub-descriptor 'rs'",
    ),
    "ground-set descriptor": (
        lambda tmp: cli.resolve_ground_set("greedy:2", 4), ParameterError,
        "unknown ground-set descriptor 'greedy:2'",
    ),
    "concat descriptor": (
        lambda tmp: cli._parse_code("concat:rs:16,4,2"), ParameterError,
        "concat descriptor needs outer/inner",
    ),
    "brute-force max_lcs": (
        lambda tmp: uc.brute_force_ground_set(4, None, -1), ParameterError,
        "max_lcs must be >= 0, got -1",
    ),
    "ground-set file header": (
        lambda tmp: uc.load_ground_set(written(tmp, "4 1\n0 1 2 3\n")), ValueError,
        "bad ground-set header in ",
    ),
    "ground-set file body": (
        lambda tmp: uc.load_ground_set(written(tmp, "4 2 0\n0 1 2 3\n")), ValueError,
        "disagrees with header",
    ),
    "from_digits base": (
        lambda tmp: uc.from_digits((0,), 0), ValueError,
        "base must be >= 1, got 0",
    ),
    "UlamCodeParams q": (
        lambda tmp: uc.UlamCodeParams(1, 2, Q4_GROUND, Q4_CODE), ParameterError,
        "q must be >= 2, got 1",
    ),
    "UlamCodeParams ell": (
        lambda tmp: uc.UlamCodeParams(4, 0, Q4_GROUND, Q4_CODE), ParameterError,
        "ell must be >= 1, got 0",
    ),
    "GroundSet empty": (
        lambda tmp: uc.GroundSet(2000, []), ParameterError, "ground set is empty",
    ),
    "GroundSet size limit": (
        lambda tmp: uc.GroundSet(7, itertools.islice(itertools.permutations(range(7)), 1025)),
        ParameterError, "ground set of 1025 permutations is above the limit 1024",
    ),
    "brute-force size limit": (
        # at q = 8 the bound q - 1 admits every permutation; refused at the 1025th
        lambda tmp: uc.brute_force_ground_set(8, None, 7), ParameterError,
        "ground set of 1025 permutations is above the limit 1024",
    ),
    "brute-force target above the limit": (
        lambda tmp: uc.brute_force_ground_set(4, 1025, 3), ParameterError,
        "ground set of 1025 permutations is above the limit 1024",
    ),
    "GroundSet q above the limit": (
        lambda tmp: uc.GroundSet(2048, [range(2048)]), ParameterError,
        "ground set over [2048] is above the limit 1024",
    ),
    "xor_ground_set q above the limit": (
        lambda tmp: uc.xor_ground_set(2048, uc.identity_code(2, 11)), ParameterError,
        "ground set over [2048] is above the limit 1024",
    ),
    "brute-force q above the limit": (
        lambda tmp: uc.brute_force_ground_set(2048, None, 0), ParameterError,
        "ground set over [2048] is above the limit 1024",
    ),
    "ground-set file q above the limit": (
        lambda tmp: uc.load_ground_set(written(tmp, "2048 1 0\n" + " ".join(map(str, range(2048))))),
        ParameterError, "ground set over [2048] is above the limit 1024",
    ),
    # refused before the 2^20-word binary code is built
    "xor descriptor q above the limit": (
        lambda tmp: cli.resolve_ground_set("xor:gv:1", 1 << 20), ParameterError,
        "ground set over [1048576] is above the limit 1024",
    ),
    "ground-set file with no permutation": (
        lambda tmp: uc.load_ground_set(written(tmp, "2000 0 0\n")), ParameterError,
        "ground set is empty",
    ),
    "Field order limit": (
        lambda tmp: cli._parse_code("rs:2147483647,4,2"), ParameterError,
        "field order 2147483647 is above the limit 65536",
    ),
    "run_stages no stage": (
        lambda tmp: uc.run_stages((), Q4_GROUND), ParameterError,
        "need at least one stage",
    ),
    # refused before the 4^40-symbol identity would be built
    "run_stages stage count": (
        lambda tmp: uc.run_stages(((0,),) * 40, Q4_GROUND), ParameterError,
        f"shuffler length 1 != n/q = {4**39}",
    ),
    "decode length": (
        lambda tmp: uc.decode(uc.identity(8), uc.UlamCodeParams(4, 2, Q4_GROUND, Q4_CODE)),
        ParameterError, "permutation length 8 != n = 16",
    ),
}

# each pair also holds every fault later in the order lcs_length checks them
STRING_PAIR_FAULTS = {
    "repeat in the first string": (
        (0, 0, 1), (1, 1, 5, 6), "first string repeats symbol 0 at positions 0 and 1",
    ),
    "repeat in the second string": (
        (0, 1, 2), (1, 1, 5, 6), "second string repeats symbol 1 at positions 0 and 1",
    ),
    "unequal lengths": ((0, 1, 2), (3, 0, 1, 2), "strings have unequal lengths 3 and 4"),
    "symbol sets": ((0, 1, 2), (0, 4, 3), "second string has symbol 4, not in the first"),
}
for fault, (a, b, message) in STRING_PAIR_FAULTS.items():
    for distance in (uc.lcs_length, uc.ulam_distance):
        REFUSALS[f"{distance.__name__} {fault}"] = (
            lambda tmp, distance=distance, a=a, b=b: distance(a, b), ValueError, message,
        )


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_named_refusal(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)) as exc:
        call(tmp_path)
    assert type(exc.value) is error
