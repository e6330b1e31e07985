import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ulamcodes as uc
from ulamcodes import ulam_code
from ulamcodes.block_codes import DecodeFailure
from ulamcodes.errors import ParameterError
from ulamcodes.perm_core import (
    from_digits,
    identity,
    inverse,
    lcs_length,
    restrict,
    to_digits,
    ulam_distance,
    validate_permutation,
)
from ulamcodes.ulam_code import _best_symbol, _rank_patterns, _stage_groups

# ---------------------------------------------------------------- oracles

def reference_stage(pi, stage, shuffler, perms, q, ell):
    """Independent per-position recomputation of one shuffle stage."""
    n = q**ell
    out = [None] * n
    for m in range(n):
        digits = to_digits(m, q, ell)
        alpha, x, beta = digits[: stage - 1], digits[stage - 1], digits[stage:]
        slot = from_digits(alpha + beta, q) if ell > 1 else 0
        y = perms[shuffler[slot]][x]
        src = from_digits(alpha + (y,) + beta, q)
        out[m] = pi[src]
    return tuple(out)


def reference_rank_pattern(received, prev_star, stage, slot, q, ell):
    """One group's rank pattern from its digit strings: restrict the
    received permutation to the symbols prev_star[alpha x beta] and read
    off their x-indices in received order."""
    digits = to_digits(slot, q, ell - 1) if ell > 1 else ()
    alpha, beta = digits[: stage - 1], digits[stage - 1 :]
    positions = [from_digits(alpha + (x,) + beta, q) for x in range(q)]
    x_of = {prev_star[m]: x for x, m in enumerate(positions)}
    return tuple(x_of[sym] for sym in restrict(received, x_of))


def reference_best_symbol(received_order, group_by_x, ground):
    """Full scan: the c minimizing the Ulam distance between the received
    order and sigma_c's reordering of group_by_x, ties to the smallest c."""
    best_c, best_d = 0, None
    for c, sigma in enumerate(ground.perms):
        candidate = tuple(group_by_x[y] for y in sigma)
        d = ulam_distance(received_order, candidate)
        if best_d is None or d < best_d:
            best_c, best_d = c, d
            if d == 0:
                break
    return best_c


def reference_encode(shufflers, q, perms):
    ell = len(shufflers)
    pi = tuple(range(q**ell))
    for stage, w in enumerate(shufflers, start=1):
        pi = reference_stage(pi, stage, w, perms, q, ell)
    return pi


# --------------------------------------------------------- worked examples

BINARY_SWAPS = ((0, 1), (1, 0))
TERNARY_PERMS = ((0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0))


class TestWorkedExamples:
    def test_three_stage_binary_shuffle(self):
        ground = uc.GroundSet(2, BINARY_SWAPS)
        shufflers = ((1, 0, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1))
        s1 = uc.apply_stage(identity(8), 1, shufflers[0], ground)
        assert s1 == (4, 1, 2, 7, 0, 5, 6, 3)
        s2 = uc.apply_stage(s1, 2, shufflers[1], ground)
        assert s2 == (2, 7, 4, 1, 6, 5, 0, 3)
        s3 = uc.apply_stage(s2, 3, shufflers[2], ground)
        assert s3 == (2, 7, 4, 1, 6, 5, 3, 0)
        assert uc.run_stages(shufflers, ground) == (2, 7, 4, 1, 6, 5, 3, 0)
        # independent per-position oracle agrees end to end
        assert reference_encode(shufflers, 2, BINARY_SWAPS) == (2, 7, 4, 1, 6, 5, 3, 0)

    def test_two_stage_ternary_shuffle(self):
        ground = uc.GroundSet(3, TERNARY_PERMS)
        s1 = uc.apply_stage(identity(9), 1, (3, 0, 1), ground)
        assert s1 == (3, 1, 8, 6, 4, 5, 0, 7, 2)
        out = uc.run_stages(((3, 0, 1), (2, 2, 3)), ground)
        assert out == (1, 3, 8, 4, 6, 5, 7, 2, 0)
        assert reference_encode(((3, 0, 1), (2, 2, 3)), 3, TERNARY_PERMS) == out

    def test_identity_shuffler_is_noop(self):
        ground = uc.GroundSet(3, TERNARY_PERMS)  # perms[0] is identity
        pi = uc.run_stages(((0, 0, 0), (0, 0, 0)), ground)
        assert pi == identity(9)

    def test_matches_reference_on_random_inputs(self):
        rng = random.Random(5)
        ground = uc.GroundSet(3, TERNARY_PERMS)
        for _ in range(50):
            shufflers = tuple(
                tuple(rng.randrange(4) for _ in range(3)) for _ in range(2)
            )
            got = uc.run_stages(shufflers, ground)
            want = reference_encode(shufflers, 3, TERNARY_PERMS)
            assert got == want


class TestStageProperties:
    def test_output_is_a_permutation(self):
        rng = random.Random(9)
        ground = uc.xor_ground_set(4, uc.identity_code(2, 2))
        for _ in range(100):
            pi = tuple(rng.sample(range(16), 16))
            stage = rng.randrange(1, 3)
            w = tuple(rng.randrange(4) for _ in range(4))
            out = uc.apply_stage(pi, stage, w, ground)
            validate_permutation(out)

    def test_locality_other_digits_fixed(self):
        rng = random.Random(10)
        q, ell = 3, 3
        ground = uc.GroundSet(3, TERNARY_PERMS)
        for _ in range(60):
            pi = tuple(rng.sample(range(27), 27))
            stage = rng.randrange(1, ell + 1)
            w = tuple(rng.randrange(4) for _ in range(9))
            out = uc.apply_stage(pi, stage, w, ground)
            where = {sym: m for m, sym in enumerate(pi)}
            for m, sym in enumerate(out):
                src = where[sym]
                md, sd = to_digits(m, q, ell), to_digits(src, q, ell)
                for d in range(ell):
                    if d != stage - 1:
                        assert md[d] == sd[d]

    def test_dimension_checks(self):
        ground = uc.GroundSet(2, BINARY_SWAPS)
        with pytest.raises(ParameterError):
            uc.apply_stage(identity(8), 4, (0, 0, 0, 0), ground)
        with pytest.raises(ParameterError):
            uc.apply_stage(identity(8), 1, (0, 0), ground)
        with pytest.raises(ParameterError):
            uc.apply_stage(identity(8), 1, (0, 0, 0, 2), ground)
        with pytest.raises(ParameterError):
            uc.apply_stage(identity(6), 1, (0, 0, 0), ground)
        # a negative symbol must not pick a ground permutation from the end
        with pytest.raises(ParameterError):
            uc.apply_stage(identity(8), 1, (0, -1, 0, 0), ground)
        # no ground set is over [1], where the length walk would never reach n
        with pytest.raises(ParameterError):
            uc.apply_stage((0, 1), 1, (0, 0), uc.GroundSet(1, [(0,)]))


def _shuffled_subset(perms, size, seed):
    rng = random.Random(seed)
    return rng.sample(list(perms), size)


def _sampled_ground(q, size, seed):
    return uc.GroundSet(
        q, _shuffled_subset(itertools.permutations(range(q)), size, seed)
    )


# per q: XOR sets where q is a power of two, and explicit sets that are not
# XOR sets (for q = 2 every set is one)
STAGE_GROUNDS = {
    2: [uc.xor_ground_set(2, uc.identity_code(2, 1)), uc.GroundSet(2, [(1, 0)])],
    3: [uc.GroundSet(3, TERNARY_PERMS), _sampled_ground(3, 5, 1)],
    4: [uc.xor_ground_set(4, uc.identity_code(2, 2)), _sampled_ground(4, 7, 2)],
    5: [_sampled_ground(5, 9, 3), uc.brute_force_ground_set(5, None, 3)],
    8: [uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2)), _sampled_ground(8, 11, 4)],
}


class TestStageKernel:
    @given(
        st.sampled_from(sorted(STAGE_GROUNDS)),
        st.integers(1, 4),
        st.integers(0, 1),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_stage(self, q, ell, which, as_list, rng):
        ground = STAGE_GROUNDS[q][which]
        pi = list(range(q**ell))
        rng.shuffle(pi)
        pi = pi if as_list else tuple(pi)
        for stage in range(1, ell + 1):
            w = [rng.randrange(ground.p) for _ in range(q ** (ell - 1))]
            want = reference_stage(pi, stage, w, ground.perms, q, ell)
            assert uc.apply_stage(pi, stage, w, ground) == want

    def test_grounds_include_non_xor_sets(self):
        for q in (3, 4, 5, 8):
            assert any(
                sigma != tuple(i ^ sigma[0] for i in range(q))
                for ground in STAGE_GROUNDS[q]
                for sigma in ground.perms
            )


def _group_positions(q, ell, stage, slot):
    """The positions of one stage group, read from the group walk."""
    return tuple(range(q**ell)[_stage_groups(q, ell, stage)[slot]])


class TestGroupKeys:
    def test_positions_partition(self):
        q, ell = 3, 3
        for stage in range(1, ell + 1):
            seen = set()
            assert len(_stage_groups(q, ell, stage)) == q ** (ell - 1)
            for slot in range(q ** (ell - 1)):
                pos = _group_positions(q, ell, stage, slot)
                assert len(pos) == q
                assert pos == tuple(sorted(pos))
                # the walk agrees slot by slot with the digit strings alpha x beta,
                # where alpha + beta spells the slot in base q
                digits = to_digits(slot, q, ell - 1)
                alpha, beta = digits[: stage - 1], digits[stage - 1 :]
                assert pos == tuple(from_digits(alpha + (x,) + beta, q) for x in range(q))
                seen.update(pos)
            assert seen == set(range(q**ell))

    def test_positions_share_all_other_digits(self):
        q, ell, stage = 2, 4, 2
        digit_strings = [to_digits(m, q, ell) for m in _group_positions(q, ell, stage, 5)]
        for d in range(ell):
            values = {s[d] for s in digit_strings}
            if d == stage - 1:
                assert values == set(range(q))
            else:
                assert len(values) == 1


class TestMessagePipeline:
    def test_zero_message_zero_codewords(self, q4_instance):
        shufflers = uc.message_to_shufflers(0, q4_instance)
        zero = q4_instance.code.encode_index(0)
        assert shufflers == (zero, zero)

    def test_max_message_all_top_digits(self, q4_instance):
        top = q4_instance.code.size - 1
        shufflers = uc.message_to_shufflers(q4_instance.message_count - 1, q4_instance)
        assert shufflers == (
            q4_instance.code.encode_index(top),
            q4_instance.code.encode_index(top),
        )

    def test_round_trip_random(self, q4_instance):
        rng = random.Random(3)
        for _ in range(100):
            x = rng.randrange(q4_instance.message_count)
            assert uc.decode(uc.encode(x, q4_instance), q4_instance).message == x

    def test_out_of_range(self, q4_instance):
        with pytest.raises(ParameterError):
            uc.message_to_shufflers(q4_instance.message_count, q4_instance)
        with pytest.raises(ParameterError):
            uc.message_to_shufflers(-1, q4_instance)


class TestEncode:
    def test_injective_over_all_messages(self, swap_instance):
        words = [uc.encode(x, swap_instance) for x in range(swap_instance.message_count)]
        assert len(set(words)) == swap_instance.message_count

    def test_shuffler_tuple_injectivity(self, swap_instance):
        # distinct shuffler tuples from C^ell give distinct permutations
        code = swap_instance.code
        seen = {}
        for tup in itertools.product(range(code.size), repeat=swap_instance.ell):
            shufflers = tuple(code.encode_index(i) for i in tup)
            word = uc.run_stages(shufflers, swap_instance.ground)
            assert word not in seen
            seen[word] = tup

    def test_encode_agrees_with_raw_shuffler_path(self, swap_instance):
        for x in (0, 17, 511):
            shufflers = uc.message_to_shufflers(x, swap_instance)
            assert uc.encode(x, swap_instance) == uc.run_stages(shufflers, swap_instance.ground)

    def test_pairwise_distance_meets_bound_sampled(self, q4_instance):
        rng = random.Random(12)
        for _ in range(300):
            x = rng.randrange(q4_instance.message_count)
            y = rng.randrange(q4_instance.message_count)
            if x == y:
                continue
            d = ulam_distance(uc.encode(x, q4_instance), uc.encode(y, q4_instance))
            assert d >= q4_instance.distance_bound


class TestLcsMonotonicity:
    def test_first_differing_stage_freezes_group_orders(self, swap_instance):
        # instrument two encodings that first differ at stage j: per
        # stage-j group, restriction LCS must be identical at every later stage
        code = swap_instance.code
        ground = swap_instance.ground
        q, ell = swap_instance.q, swap_instance.ell
        rng = random.Random(21)
        for _ in range(20):
            j = rng.randrange(1, ell + 1)
            shared = [code.encode_index(rng.randrange(code.size)) for _ in range(j - 1)]
            i1 = rng.randrange(code.size)
            i2 = rng.randrange(code.size)
            if i1 == i2:
                i2 = (i2 + 1) % code.size
            tail1 = [code.encode_index(rng.randrange(code.size)) for _ in range(ell - j)]
            tail2 = [code.encode_index(rng.randrange(code.size)) for _ in range(ell - j)]
            w1 = shared + [code.encode_index(i1)] + tail1
            w2 = shared + [code.encode_index(i2)] + tail2

            stages1, stages2 = [identity(q**ell)], [identity(q**ell)]
            for stage in range(1, ell + 1):
                stages1.append(uc.apply_stage(stages1[-1], stage, w1[stage - 1], ground))
                stages2.append(uc.apply_stage(stages2[-1], stage, w2[stage - 1], ground))

            for slot in range(code.block_length):
                symbols = set(stages1[j - 1][_stage_groups(q, ell, j)[slot]])
                at_j = lcs_length(
                    restrict(stages1[j], symbols), restrict(stages2[j], symbols)
                )
                for later in range(j + 1, ell + 1):
                    assert (
                        lcs_length(
                            restrict(stages1[later], symbols),
                            restrict(stages2[later], symbols),
                        )
                        == at_j
                    )


class TestGuessSymbol:
    def test_uncorrupted_recovers_true_symbol(self, q4_instance):
        rng = random.Random(31)
        q, ell = q4_instance.q, q4_instance.ell
        ground = q4_instance.ground
        for _ in range(20):
            x = rng.randrange(q4_instance.message_count)
            shufflers = uc.message_to_shufflers(x, q4_instance)
            pos_of = inverse(uc.run_stages(shufflers, ground))
            prev = identity(q4_instance.n)
            for stage in range(1, ell + 1):
                ranks = _rank_patterns(pos_of, prev, q, ell, stage)
                assert [_best_symbol(rank, ground) for rank in ranks] == list(shufflers[stage - 1])
                prev = uc.apply_stage(prev, stage, shufflers[stage - 1], ground)

    def test_good_pair_corruption_still_recovers(self, q8_instance):
        # relocations confined to one group, strictly fewer than half the
        # lifted ground-set separation (q - max_lcs)/2 = 3, must leave the
        # guess intact
        params = q8_instance
        q, ell = params.q, params.ell
        rng = random.Random(37)
        for _ in range(50):
            x = rng.randrange(params.message_count)
            shufflers = uc.message_to_shufflers(x, params)
            word = list(uc.run_stages(shufflers, params.ground))
            slot = rng.randrange(params.code.block_length)
            members = set(identity(params.n)[_stage_groups(q, ell, 1)[slot]])
            # relocate up to 2 of the group's own symbols
            for _ in range(rng.randrange(1, 3)):
                src = word.index(rng.choice(sorted(members)))
                word.insert(rng.randrange(len(word)), word.pop(src))
            rank = _rank_patterns(inverse(word), identity(params.n), q, ell, 1)[slot]
            assert _best_symbol(rank, params.ground) == shufflers[0][slot]

    def test_tie_breaks_to_smallest_index(self):
        # received (1,0,3,2) sits at Ulam distance 1 from the first two
        # candidates and 2 from the identity: the tie goes to index 0
        ground4 = uc.GroundSet(
            4, [(1, 0, 2, 3), (0, 1, 3, 2), (0, 1, 2, 3)]
        )
        received = (1, 0, 3, 2)
        (rank,) = _rank_patterns(inverse(received), identity(4), 4, 1, 1)
        assert rank == received
        assert _best_symbol(rank, ground4) == 0

    @given(
        st.sampled_from(
            [(q, ell, stage) for q, ell in [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)]
             for stage in range(1, ell + 1)]
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_patterns_match_reference(self, shape, rng):
        q, ell, stage = shape
        received = list(range(q**ell))
        prev_star = list(range(q**ell))
        rng.shuffle(received)
        rng.shuffle(prev_star)
        got = _rank_patterns(inverse(received), prev_star, q, ell, stage)
        assert got == [
            reference_rank_pattern(received, prev_star, stage, slot, q, ell)
            for slot in range(q ** (ell - 1))
        ]


def _equidistant_ground(q, lcs, seed):
    """Greedy over S_q in shuffled order: every kept pair has LCS exactly lcs."""
    kept = []
    for word in _shuffled_subset(itertools.permutations(range(q)), math.factorial(q), seed):
        if all(lcs_length(word, other) == lcs for other in kept):
            kept.append(word)
    return uc.GroundSet(q, kept)


# XOR sets hold at most one permutation per first symbol; the brute-force
# and shuffled sets hold several, in no particular index order. The q = 64
# set is the paper's regime (max LCS q/4), where the triangle bounds
# separate candidates widely; in the equidistant sets every scored
# candidate bounds all others alike.
XOR_GROUNDS = [
    uc.xor_ground_set(8, uc.identity_code(2, 3)),
    uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2)),
    uc.xor_ground_set(16, uc.identity_code(2, 4)),
    uc.xor_ground_set(16, uc.greedy_gv_code(2, 4, 2)),
    uc.xor_ground_set(32, uc.identity_code(2, 5)),
    uc.xor_ground_set(32, uc.greedy_gv_code(2, 5, 2)),
    uc.GroundSet(
        32, _shuffled_subset(uc.xor_ground_set(32, uc.identity_code(2, 5)).perms, 20, 6)
    ),
]
SHARED_FIRST_GROUNDS = [
    uc.brute_force_ground_set(5, None, 3),
    uc.brute_force_ground_set(6, 12, 3, seed=5),
    uc.brute_force_ground_set(7, None, 4, seed=5, sample_budget=3000),
    uc.GroundSet(5, _shuffled_subset(itertools.permutations(range(5)), 40, 3)),
    uc.GroundSet(8, _shuffled_subset(itertools.permutations(range(8)), 60, 4)),
    uc.brute_force_ground_set(64, 64, 16, seed=1, sample_budget=20000),
    _equidistant_ground(5, 3, 0),
]
# q = 2 and 3, where the anchors' look one symbol further in would pass
# the end of the rank pattern: the one-member sets of S_2 and subsets of S_3
SMALL_Q_GROUNDS = [
    uc.GroundSet(2, [(0, 1)]),
    uc.GroundSet(2, [(1, 0)]),
    *(_sampled_ground(3, size, size) for size in range(1, 7)),
]


def _relocated(word, moves):
    out = list(word)
    for src, dst in moves:
        out.insert(dst % len(out), out.pop(src % len(out)))
    return tuple(out)


@st.composite
def rank_patterns(draw, grounds):
    """A ground set and a rank pattern: uniform, or a ground permutation after a few relocations."""
    ground = draw(st.sampled_from(grounds))
    if draw(st.booleans()):
        return ground, tuple(draw(st.permutations(range(ground.q))))
    sigma = ground.perms[draw(st.integers(0, ground.p - 1))]
    moves = draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=6))
    return ground, _relocated(sigma, moves)


@st.composite
def end_moved_ranks(draw, grounds):
    """A ground set and one of its permutations with 1-3 symbols moved to either end."""
    ground = draw(st.sampled_from(grounds))
    sigma = ground.perms[draw(st.integers(0, ground.p - 1))]
    moves = draw(
        st.lists(st.tuples(st.integers(0, 63), st.sampled_from((0, -1))), min_size=1, max_size=3)
    )
    return ground, _relocated(sigma, moves)


def _check_against_full_scan(ground, rank, relabel_seed):
    # the full scan sees the group's symbols under an arbitrary labeling
    group_by_x = random.Random(relabel_seed).sample(range(10 * ground.q), ground.q)
    received_order = tuple(group_by_x[x] for x in rank)
    assert _best_symbol(rank, ground) == reference_best_symbol(received_order, group_by_x, ground)


def _index_order_scan(rank, ground):
    """Exact pruned scan in index order: each candidate is skipped when the
    current best's pair LCS rules it out. The baseline distance-call count
    for the best-first search."""
    perms = ground.perms
    starts = ground.by_first_symbol[rank[0]]
    for c in starts:
        if perms[c] == rank:
            return c
    best = start = starts[0] if starts else 0
    best_d = ulam_code.ulam_distance(rank, perms[best])
    q = len(rank)
    row = ground.pair_lcs[best]
    for c in range(len(perms)):
        lower = q - row[c] - best_d
        if c == start or lower > best_d or (lower == best_d and c > best):
            continue
        d = ulam_code.ulam_distance(rank, perms[c])
        if d < best_d or (d == best_d and c < best):
            best, best_d, row = c, d, ground.pair_lcs[c]
    return best


def _calls_per_rank(monkeypatch, ground, ranks):
    """Distance calls per rank pattern of _best_symbol, after checking
    each answer against the full scan's argmin."""
    expected = [
        min(range(ground.p), key=lambda c: (ulam_distance(rank, ground.perms[c]), c))
        for rank in ranks
    ]
    calls = []
    real = ulam_code.ulam_distance
    monkeypatch.setattr(ulam_code, "ulam_distance", lambda a, b: calls.append(1) or real(a, b))
    assert [_best_symbol(rank, ground) for rank in ranks] == expected
    return len(calls) / len(ranks)


class TestPrunedGuess:
    def test_shared_first_symbol_grounds_share(self):
        for ground in SHARED_FIRST_GROUNDS:
            assert max(len(cs) for cs in ground.by_first_symbol) > 1
        for ground in XOR_GROUNDS:
            assert max(len(cs) for cs in ground.by_first_symbol) == 1

    @given(rank_patterns(XOR_GROUNDS), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_matches_full_scan_on_xor_grounds(self, case, relabel_seed):
        _check_against_full_scan(*case, relabel_seed)

    @given(rank_patterns(SHARED_FIRST_GROUNDS), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_matches_full_scan_on_shared_first_symbols(self, case, relabel_seed):
        _check_against_full_scan(*case, relabel_seed)

    @given(rank_patterns(SMALL_Q_GROUNDS), st.integers(0, 2**32))
    @example(case=(SMALL_Q_GROUNDS[0], (1, 0)), relabel_seed=0)
    @settings(max_examples=200)
    def test_matches_full_scan_on_small_q(self, case, relabel_seed):
        _check_against_full_scan(*case, relabel_seed)

    @given(
        end_moved_ranks(XOR_GROUNDS + SHARED_FIRST_GROUNDS + SMALL_Q_GROUNDS),
        st.integers(0, 2**32),
    )
    @settings(max_examples=300)
    def test_matches_full_scan_after_end_moves(self, case, relabel_seed):
        # the moved symbols land at rank[0] and rank[-1], where the anchors look
        _check_against_full_scan(*case, relabel_seed)

    @given(rank_patterns(XOR_GROUNDS + SHARED_FIRST_GROUNDS))
    @settings(max_examples=200)
    def test_gap_bounds_never_exceed_true_distance(self, case):
        # the bounds any search may read for this rank, from every c at
        # its true distance d: gaps[d][pair_lcs[c][x]] for each x
        ground, rank = case
        distances = [ulam_distance(rank, sigma) for sigma in ground.perms]
        for c, d in enumerate(distances):
            gap = ground.gaps[d]
            bounds = [gap[l] for l in ground.pair_lcs[c]]
            assert bounds[c] == d
            assert all(bound <= true for bound, true in zip(bounds, distances))

    @pytest.mark.parametrize("seed", range(9))
    def test_ties_exhaustively(self, seed):
        # small subsets of S_4 and S_5 in random index order: every rank
        # pattern, most of them tied between several nearest candidates.
        # Seeds 6-8 take equidistant subsets.
        q = 4 + seed % 2
        if seed < 6:
            ground = uc.GroundSet(
                q, _shuffled_subset(itertools.permutations(range(q)), 6 + seed, seed)
            )
        else:
            ground = _equidistant_ground(q, q - 2, seed)
            assert {l for row in ground.pair_lcs for l in row} == {q - 2, q} and ground.p > 3
        ties = 0
        for rank in itertools.permutations(range(q)):
            distances = [ulam_distance(rank, sigma) for sigma in ground.perms]
            ties += distances.count(min(distances)) > 1
            _check_against_full_scan(ground, rank, seed)
        assert ties > 0

    def test_best_first_halves_distance_calls(self, monkeypatch):
        # relocated ground permutations, as a decode meets them: the
        # best-first search scores at most half as many candidates
        ground = uc.xor_ground_set(32, uc.identity_code(2, 5))
        rng = random.Random(11)
        ranks = [
            _relocated(
                ground.perms[rng.randrange(ground.p)],
                [(rng.randrange(32), rng.randrange(32)) for _ in range(rng.randrange(1, 9))],
            )
            for _ in range(500)
        ]
        calls = []
        real = ulam_code.ulam_distance
        monkeypatch.setattr(ulam_code, "ulam_distance", lambda a, b: calls.append(1) or real(a, b))
        expected = [_index_order_scan(rank, ground) for rank in ranks]
        scan_calls = len(calls)
        calls.clear()
        assert [_best_symbol(rank, ground) for rank in ranks] == expected
        assert len(calls) <= scan_calls / 2

    def test_anchors_find_end_moved_ranks_in_few_calls(self, monkeypatch):
        # 1-3 symbols moved to either end: the candidate named by rank[-1]
        # or rank[1] is usually the sent one, well inside the early-accept
        # radius
        ground = uc.xor_ground_set(32, uc.identity_code(2, 5))
        rng = random.Random(16)
        ranks = [
            _relocated(
                ground.perms[rng.randrange(ground.p)],
                [(rng.randrange(32), rng.choice((0, -1))) for _ in range(rng.randint(1, 3))],
            )
            for _ in range(500)
        ]
        assert _calls_per_rank(monkeypatch, ground, ranks) <= 1.5

    def test_anchors_find_ranks_moved_to_both_ends_in_few_calls(self, monkeypatch):
        # a symbol moved to each end, then 0-2 more to either: rank[0] and
        # rank[-1] rarely name the sent candidate, the places further in do
        ground = uc.xor_ground_set(32, uc.identity_code(2, 5))
        rng = random.Random(17)
        ranks = [
            _relocated(
                ground.perms[rng.randrange(ground.p)],
                [(rng.randrange(32), 0), (rng.randrange(32), -1)]
                + [(rng.randrange(32), rng.choice((0, -1))) for _ in range(rng.randint(0, 2))],
            )
            for _ in range(500)
        ]
        assert _calls_per_rank(monkeypatch, ground, ranks) <= 1.5

    def test_exact_match_needs_no_distance_call(self, q8_instance, monkeypatch):
        calls = []
        real = ulam_code.ulam_distance
        monkeypatch.setattr(ulam_code, "ulam_distance", lambda a, b: calls.append(len(a)) or real(a, b))
        word = uc.encode(1234 % q8_instance.message_count, q8_instance)
        assert uc.decode(word, q8_instance).message == 1234 % q8_instance.message_count
        assert calls == [q8_instance.n]  # the final check only


class TestDecode:
    def test_round_trip_all_messages(self, swap_instance):
        for x in range(swap_instance.message_count):
            result = uc.decode(uc.encode(x, swap_instance), swap_instance)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x
            assert result.codeword == uc.encode(x, swap_instance)

    def test_round_trip_sampled(self, q8_instance):
        rng = random.Random(41)
        for _ in range(50):
            x = rng.randrange(q8_instance.message_count)
            result = uc.decode(uc.encode(x, q8_instance), q8_instance)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x

    def test_within_radius_relocations(self, q8_instance):
        rng = random.Random(43)
        bound4 = Fraction(q8_instance.distance_bound, 4)
        assert bound4 == Fraction(15, 2)
        for _ in range(200):
            x = rng.randrange(q8_instance.message_count)
            word = uc.encode(x, q8_instance)
            t = rng.randrange(0, 8)  # strictly below 7.5 relocations
            corrupted, _ = uc.relocate(word, t, rng.getrandbits(32))
            assert ulam_distance(word, corrupted) < bound4
            result = uc.decode(corrupted, q8_instance)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x

    def test_far_input_fails_or_lands_near(self, q8_instance):
        rng = random.Random(47)
        failures = 0
        for _ in range(30):
            pi = tuple(rng.sample(range(64), 64))
            result = uc.decode(pi, q8_instance)
            if isinstance(result, DecodeFailure):
                failures += 1
            else:
                assert (
                    4 * ulam_distance(pi, result.codeword)
                    < q8_instance.distance_bound
                )
        assert failures >= 28  # random permutations are far from every codeword

    def test_decode_leaves_ground_set_unchanged(self):
        # a fresh set, so no earlier decode has touched it; random inputs
        # take the group guess past its early return into the bound search
        ground = uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2))
        params = uc.UlamCodeParams(q=8, ell=2, ground=ground, code=uc.greedy_gv_code(4, 8, 5))
        before = repr(sorted(vars(ground).items()))
        rng = random.Random(61)
        for _ in range(20):
            uc.decode(tuple(rng.sample(range(64), 64)), params)
        assert repr(sorted(vars(ground).items())) == before

    # 1 - n = -63 indexes the slot of the symbol 1 it replaces, so the word
    # fills every slot of the position table and only its sign refuses it
    @pytest.mark.parametrize("bad", [0.5, 1.0, float("nan"), -63])
    def test_float_symbol_is_value_error(self, q8_instance, bad):
        # a float or negative symbol is named as not a permutation, never
        # left to raise a TypeError or pass through the position table
        word = list(uc.encode(3, q8_instance))
        word[word.index(1)] = bad
        with pytest.raises(ValueError, match="not a permutation"):
            uc.decode(word, q8_instance)

    def test_concat_instance_round_trip(self, concat_instance):
        rng = random.Random(53)
        for _ in range(30):
            x = rng.randrange(concat_instance.message_count)
            result = uc.decode(uc.encode(x, concat_instance), concat_instance)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x

    def test_concat_instance_guarantee(self, concat_instance):
        # plain inner-outer decoding shrinks the certified radius below
        # distance_bound/4
        assert concat_instance.distance_bound == 12
        assert concat_instance.decode_guarantee == Fraction(2)
        rng = random.Random(59)
        for _ in range(100):
            x = rng.randrange(concat_instance.message_count)
            word = uc.encode(x, concat_instance)
            corrupted, _ = uc.relocate(word, 1, rng.getrandbits(32))
            result = uc.decode(corrupted, concat_instance)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x


class TestParamsAndBounds:
    def test_validation(self):
        ground = uc.xor_ground_set(4, uc.identity_code(2, 2))
        with pytest.raises(ParameterError):
            uc.UlamCodeParams(q=4, ell=2, ground=ground, code=uc.identity_code(3, 4))
        with pytest.raises(ParameterError):
            uc.UlamCodeParams(q=4, ell=2, ground=ground, code=uc.identity_code(4, 5))
        with pytest.raises(ParameterError):
            uc.UlamCodeParams(q=8, ell=2, ground=ground, code=uc.identity_code(4, 8))

    @pytest.mark.parametrize("q, ell", [(8.0, 2), (8, 2.0), (8, "2"), (None, 2)])
    def test_refuses_non_integer_q_or_ell(self, q, ell):
        ground = uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2))
        with pytest.raises(ParameterError, match="q and ell must be integers"):
            uc.UlamCodeParams(q=q, ell=ell, ground=ground, code=uc.greedy_gv_code(4, 8, 5))

    def test_reads_q_and_ell_by_the_integer_rule(self):
        # an object with only __index__ used to pass the type check and then
        # escape as TypeError from the first comparison
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        ground = uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2))
        params = uc.UlamCodeParams(
            q=Index(8), ell=Index(2), ground=ground, code=uc.greedy_gv_code(4, 8, 5)
        )
        assert (params.q, params.ell, params.n) == (8, 2, 64)
        assert type(params.q) is int and type(params.ell) is int

    @pytest.mark.parametrize("ell", [10**4, 10**6])
    def test_refuses_a_huge_ell_without_building_q_to_its_power(self, ell):
        # formatting 8^(ell-1) into the message once raised Python's
        # integer string conversion limit instead of a ParameterError
        ground = uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2))
        message = f"shuffler code length 8 != n/q = q^(ell-1) for q=8, ell={ell}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            uc.UlamCodeParams(8, ell, ground, uc.greedy_gv_code(4, 8, 5))

    def test_derived_quantities(self, q4_instance):
        assert q4_instance.n == 16
        assert q4_instance.p == 4
        assert q4_instance.message_count == 64**2
        assert q4_instance.distance_bound == 2 * (4 - 2)

    def test_bounds_arithmetic_example(self, q4_instance):
        # delta_C = 2/4, max_lcs/q = 2/4: lcs_upper = 0.75 n, dist_lower = 0.25 n
        assert q4_instance.n - q4_instance.distance_bound == Fraction(3, 4) * 16
        assert q4_instance.distance_bound == Fraction(1, 4) * 16
        assert uc.rate_report(q4_instance).rate_lower == pytest.approx(
            math.log(64) / (16 * math.log(4)), rel=1e-12
        )

    def test_bounds_degenerate_ground(self):
        # max_lcs = q - 1 forces the distance lower bound toward zero
        ground = uc.GroundSet(3, [(0, 1, 2), (0, 2, 1)])  # LCS 2
        code = uc.greedy_gv_code(2, 3, 1)
        params = uc.UlamCodeParams(q=3, ell=2, ground=ground, code=code)
        assert params.distance_bound == Fraction(1, 3) * 9 * Fraction(1, 3)

    def test_single_stage_degenerate(self):
        ground = uc.GroundSet(2, BINARY_SWAPS)
        code = uc.identity_code(2, 1)
        params = uc.UlamCodeParams(q=2, ell=1, ground=ground, code=code)
        assert params.n == 2
        assert [uc.encode(x, params) for x in range(2)] == [(0, 1), (1, 0)]


class TestReedSolomonShufflerCode:
    def test_full_pipeline_with_rs_code(self):
        # algebraic shuffler code: RS over GF(4) fits exactly when the
        # block length n/q equals the field order
        ground = uc.xor_ground_set(4, uc.identity_code(2, 2))
        code = uc.rs_code(4, 4, 2)  # d=3, radius 1
        params = uc.UlamCodeParams(q=4, ell=2, ground=ground, code=code)
        assert params.distance_bound == 3 * (4 - 2)
        assert params.decode_guarantee == Fraction(3, 2)
        rng = random.Random(67)
        for _ in range(100):
            x = rng.randrange(params.message_count)
            word = uc.encode(x, params)
            result = uc.decode(word, params)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x
            corrupted, _ = uc.relocate(word, 1, rng.getrandbits(32))
            result = uc.decode(corrupted, params)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x

    def test_rs_instance_sweep_has_no_radius_violations(self):
        ground = uc.xor_ground_set(4, uc.identity_code(2, 2))
        params = uc.UlamCodeParams(q=4, ell=2, ground=ground, code=uc.rs_code(4, 4, 2))
        report = uc.decoder_sweep(params, [0, 1, 2, 3], trials=100, seed=71)
        assert report.radius_violations == 0


class TestBigMessages:
    def test_message_count_beyond_64_bits(self):
        # n=256 instance whose message space overflows machine words
        ground = uc.xor_ground_set(16, uc.greedy_gv_code(2, 4, 2))
        code = uc.concat_code(uc.rs_code(64, 8, 6), uc.identity_code(8, 2))
        params = uc.UlamCodeParams(q=16, ell=2, ground=ground, code=code)
        assert params.message_count == 64**12 > 2**64
        rng = random.Random(61)
        for x in [0, params.message_count - 1] + [
            rng.randrange(params.message_count) for _ in range(3)
        ]:
            word = uc.encode(x, params)
            result = uc.decode(word, params)
            assert not isinstance(result, DecodeFailure)
            assert result.message == x
