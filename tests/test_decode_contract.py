"""
The decoder contract as a property over small drawn instances.

Ground sets are XOR, brute-force and explicit families; shuffler codes are
greedy GV, Reed-Solomon, concatenated, repetition and one-codeword codes.
On relocation noise, on arbitrary permutations, and on the decode-gv64
benchmark instance under stage-targeted noise:

- an input strictly inside decode_guarantee of a codeword decodes to
  exactly that codeword's message;
- any other input decodes to DecodeFailure or to a codeword strictly
  within distance_bound/4 of it;
- decode never raises.

Along a geodesic between two codewords, every step is checked the same way.
"""
import itertools
from bisect import bisect_left
from functools import cache

from hypothesis import assume, example, given, note, settings
from hypothesis import strategies as st

import ulamcodes as uc
from ulamcodes.block_codes import ExplicitCode
from ulamcodes.errors import ParameterError
from ulamcodes.fields import factor_prime_power

MAX_N = 64
# instances with at most this many messages also check arbitrary inputs
# against every codeword
ENUMERABLE = 256


def is_prime_power(order):
    try:
        factor_prime_power(order)
    except ParameterError:
        return False
    return True


@cache
def build_ground(spec):
    kind, q, arg = spec
    if kind == "xor":
        return uc.xor_ground_set(q, uc.greedy_gv_code(2, q.bit_length() - 1, arg))
    if kind == "bruteforce":
        return uc.brute_force_ground_set(q, None, arg)
    return uc.GroundSet(q, arg)


@cache
def build_code(spec):
    kind, p, length, *args = spec
    if kind == "gv":
        return uc.greedy_gv_code(p, length, *args)
    if kind == "rs":
        return uc.rs_code(p, length, *args)
    if kind == "repetition":
        return uc.repetition_code(p, length)
    if kind == "one":
        return ExplicitCode(p, [(0,) * length])
    inner_kind, chunk, k = args
    if inner_kind == "repetition":
        outer, inner = uc.rs_code(p, length // chunk, k), uc.repetition_code(p, chunk)
    else:
        outer, inner = uc.rs_code(p**chunk, length // chunk, k), uc.identity_code(p, chunk)
    return uc.concat_code(outer, inner)


@st.composite
def ground_specs(draw):
    kind = draw(st.sampled_from(["xor", "bruteforce", "explicit"]))
    if kind == "xor":
        q = draw(st.sampled_from([2, 4, 8]))
        return kind, q, draw(st.integers(1, q.bit_length() - 1))
    if kind == "bruteforce":
        q = draw(st.integers(3, 5))
        return kind, q, draw(st.integers(1, q - 1))
    q = draw(st.integers(2, 4))
    all_perms = list(itertools.permutations(range(q)))
    perms = draw(st.lists(st.sampled_from(all_perms), min_size=2, max_size=6, unique=True))
    return kind, q, tuple(perms)


@st.composite
def code_specs(draw, p, length):
    """A spec of a code over [p] of the given block length."""
    concat = []
    if is_prime_power(p):
        for chunk in range(1, length + 1):
            if length % chunk == 0 and length // chunk <= p:
                concat.append(("repetition", chunk))
            if length % chunk == 0 and length // chunk <= p**chunk <= 64:
                concat.append(("identity", chunk))
    kinds = ["repetition", "one"]
    if p**length <= 4096:
        kinds.append("gv")
    if is_prime_power(p) and length <= p:
        kinds.append("rs")
    if concat:
        kinds.append("concat")
    kind = draw(st.sampled_from(kinds))
    if kind == "gv":
        return kind, p, length, draw(st.integers(1, length))
    if kind == "rs":
        return kind, p, length, draw(st.integers(1, length))
    if kind == "concat":
        inner_kind, chunk = draw(st.sampled_from(concat))
        return kind, p, length, inner_kind, chunk, draw(st.integers(1, length // chunk))
    return kind, p, length


@st.composite
def instances(draw):
    ground_spec = draw(ground_specs())
    ground = build_ground(ground_spec)
    q = ground.q
    top = 1
    while q ** (top + 1) <= MAX_N:
        top += 1
    ell = draw(st.integers(1, top))
    code_spec = draw(code_specs(ground.p, q ** (ell - 1)))
    note(f"ground {ground_spec}, code {code_spec}, ell {ell}")
    return uc.UlamCodeParams(q=q, ell=ell, ground=ground, code=build_code(code_spec))


def assert_contract(params, pi, result):
    """decode's answer to pi is a failure or a codeword within distance_bound/4 of pi."""
    if isinstance(result, uc.DecodeFailure):
        return
    assert result.codeword == uc.encode(result.message, params)
    assert 4 * uc.ulam_distance(pi, result.codeword) < params.distance_bound


@given(instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_relocation_noise(params, data):
    x = data.draw(st.integers(0, params.message_count - 1), label="message")
    word = uc.encode(x, params)
    t = data.draw(st.integers(0, params.distance_bound // 2 + 1), label="t")
    corrupted, _ = uc.relocate(word, t, data.draw(st.integers(0, 2**32), label="seed"))
    result = uc.decode(corrupted, params)
    assert_contract(params, corrupted, result)
    if uc.ulam_distance(word, corrupted) < params.decode_guarantee:
        assert result == uc.DecodeResult(x, word)


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_arbitrary_permutations(params, data):
    pi = tuple(data.draw(st.permutations(range(params.n)), label="pi"))
    result = uc.decode(pi, params)
    assert_contract(params, pi, result)
    if params.message_count <= ENUMERABLE:
        for x in range(params.message_count):
            word = uc.encode(x, params)
            if uc.ulam_distance(pi, word) < params.decode_guarantee:
                assert result == uc.DecodeResult(x, word)


def lcs_symbols(a, b):
    """
    The symbols of one longest common subsequence of two strings over one
    symbol set: patience sorting of b relabeled by positions in a, with a
    back-pointer from each symbol to the top of the pile on its left when it
    was placed, walked back from the top of the last pile.
    """
    pos = {s: i for i, s in enumerate(a)}
    top_values, top_indices, back = [], [], []
    for j, s in enumerate(b):
        k = bisect_left(top_values, pos[s])
        back.append(top_indices[k - 1] if k else None)
        if k == len(top_values):
            top_values.append(pos[s])
            top_indices.append(j)
        else:
            top_values[k], top_indices[k] = pos[s], j
    symbols = set()
    j = top_indices[-1] if top_indices else None
    while j is not None:
        symbols.add(b[j])
        j = back[j]
    return symbols


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_codeword_geodesics(params, data):
    assume(params.message_count >= 2)
    x = data.draw(st.integers(0, params.message_count - 1), label="start")
    y = data.draw(st.integers(0, params.message_count - 2), label="target")
    y += y >= x
    start, target = uc.encode(x, params), uc.encode(y, params)
    kept = lcs_symbols(start, target)
    assert len(kept) == uc.lcs_length(start, target)
    distance = params.n - len(kept)
    word = list(start)
    step = 0
    # each symbol outside the LCS goes right after its predecessor in target,
    # which is already in place, so the common subsequence grows by one
    for i, s in enumerate(target):
        if s in kept:
            continue
        word.remove(s)
        word.insert(word.index(target[i - 1]) + 1 if i else 0, s)
        step += 1
        pi = tuple(word)
        assert uc.ulam_distance(pi, target) == distance - step
        result = uc.decode(pi, params)
        assert_contract(params, pi, result)
        if step < params.decode_guarantee:
            assert result == uc.DecodeResult(x, start)
        if distance - step < params.decode_guarantee:
            assert result == uc.DecodeResult(y, target)
    assert step == distance and tuple(word) == target


# the decode-gv64 benchmark instance: q = 8, ell = 2, n = 64, a shuffler code
# of radius 2 and a ground set of separation 6, so the guarantee is 15/2
GV64 = uc.UlamCodeParams(
    q=8, ell=2,
    ground=uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2)),
    code=uc.greedy_gv_code(4, 8, 5),
)
GV64_BLOCKS = GV64.code.decoding_radius + 1


def step_toward(block, target):
    """block after the first relocation that brings it one nearer target."""
    d = uc.ulam_distance(block, target)
    for i, j in itertools.product(range(len(block)), repeat=2):
        moved = list(block)
        moved.insert(j, moved.pop(i))
        if uc.ulam_distance(moved, target) < d:
            return moved
    raise AssertionError("no relocation brings the block nearer")


def stage_targeted(params, x, moves):
    """
    The codeword of message x after moves[j] relocations in each last-stage
    block j in moves, toward the nearest other ground permutation.

    At the last stage a group is a contiguous block of q positions, so a
    relocation inside it changes only that block's rank pattern. After k
    steps from sigma_c toward sigma_y the pattern is k from sigma_c and
    d(sigma_c, sigma_y) - k from sigma_y: about half of that distance in
    each of radius + 1 blocks makes one more shuffler error than the code
    corrects.
    """
    q, perms = params.q, params.ground.perms
    last = uc.message_to_shufflers(x, params)[-1]
    noisy = list(uc.encode(x, params))
    for j, count in moves.items():
        sigma = perms[last[j]]
        # the nearest other ground permutation, ties to the smallest index
        near = min((p for p in perms if p != sigma), key=lambda p: uc.ulam_distance(sigma, p))
        block = noisy[j * q:(j + 1) * q]
        # block[k] is the symbol of x-index sigma[k]; target lists them in near's order
        target = [block[sigma.index(v)] for v in near]
        for _ in range(count):
            block = step_toward(block, target)
        noisy[j * q:(j + 1) * q] = block
    return tuple(noisy)


@given(
    st.integers(0, GV64.message_count - 1),
    st.lists(st.integers(0, GV64.n // GV64.q - 1), min_size=GV64_BLOCKS, max_size=GV64_BLOCKS,
             unique=True),
    st.lists(st.integers(0, GV64.ground.separation // 2 + 1), min_size=GV64_BLOCKS,
             max_size=GV64_BLOCKS),
)
# t = 7 inside the guarantee, then t = 8, 9 and 12 past it
@example(4095, [0, 1, 2], [3, 3, 1])
@example(17, [1, 4, 6], [3, 3, 2])
@example(0, [5, 6, 7], [3, 3, 3])
@example(1234, [0, 3, 7], [4, 4, 4])
@settings(max_examples=150, deadline=None)
def test_stage_targeted_noise(x, blocks, counts):
    word = uc.encode(x, GV64)
    noisy = stage_targeted(GV64, x, dict(zip(blocks, counts)))
    # each block moves along a geodesic, so the relocations add up
    assert uc.ulam_distance(word, noisy) == sum(counts)
    result = uc.decode(noisy, GV64)
    assert_contract(GV64, noisy, result)
    if sum(counts) < GV64.decode_guarantee:
        assert result == uc.DecodeResult(x, word)
