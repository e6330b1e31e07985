import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamcodes import ground_set
from ulamcodes.block_codes import greedy_gv_code, hamming_distance, identity_code
from ulamcodes.errors import ParameterError
from ulamcodes.ground_set import (
    GroundSet,
    brute_force_ground_set,
    load_ground_set,
    save_ground_set,
    xor_ground_set,
)
from ulamcodes.perm_core import lcs_length, lcs_length_dp, to_digits, ulam_distance
from ulamcodes.ulam_code import UlamCodeParams


class TestXorConstruction:
    def test_two_codeword_example(self):
        ground = xor_ground_set(4, greedy_gv_code(2, 2, 2))  # {00, 11}
        assert ground.perms == ((0, 1, 2, 3), (3, 2, 1, 0))
        assert ground.certified_max_lcs == 1

    def test_full_code_example(self):
        ground = xor_ground_set(4, identity_code(2, 2))
        assert ground.perms == (
            (0, 1, 2, 3),
            (1, 0, 3, 2),
            (2, 3, 0, 1),
            (3, 2, 1, 0),
        )
        assert ground.certified_max_lcs == 2

    def test_zero_codeword_gives_identity(self):
        ground = xor_ground_set(8, identity_code(2, 3))
        assert ground.perms[0] == tuple(range(8))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            xor_ground_set(6, identity_code(2, 2))
        with pytest.raises(ParameterError):
            xor_ground_set(8, identity_code(2, 2))  # length 2 != log2 8
        with pytest.raises(ParameterError):
            xor_ground_set(4, identity_code(3, 2))  # not binary

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
    def test_relative_order_determined_by_first_differing_bit(self, q):
        r = q.bit_length() - 1
        ground = xor_ground_set(q, identity_code(2, r))
        for g_value, sigma in zip(range(q), ground.perms):
            pos = {sym: i for i, sym in enumerate(sigma)}
            g_bits = to_digits(g_value, 2, r)
            for x, y in itertools.combinations(range(q), 2):
                xb, yb = to_digits(x, 2, r), to_digits(y, 2, r)
                m = next(i for i in range(r) if xb[i] != yb[i])
                # ascending exactly when x's bit m agrees with g's bit m == 0
                expected_x_first = (xb[m] ^ g_bits[m]) == 0
                assert (pos[x] < pos[y]) == expected_x_first

    @pytest.mark.parametrize("q", [4, 8, 16, 32])
    def test_pairwise_lcs_capped_by_agreeing_positions(self, q):
        r = q.bit_length() - 1
        for d in range(1, r + 1):
            code = greedy_gv_code(2, r, d)
            if code.size < 2:
                continue
            ground = xor_ground_set(q, code)
            words = list(code.codewords())
            for (i, gi), (j, gj) in itertools.combinations(enumerate(words), 2):
                agreeing = r - hamming_distance(gi, gj)
                assert (
                    lcs_length_dp(ground.perms[i], ground.perms[j]) <= 2**agreeing
                )
            assert ground.certified_max_lcs <= 2 ** (r - code.min_distance)


class TestBruteForce:
    def test_exhaustive_truth_q3(self):
        # all 6 permutations of [3]: only a permutation and its reversal
        # have LCS 1, so the maximum admissible family has size 2
        perms = list(itertools.permutations(range(3)))
        best = 0
        for r in range(1, 7):
            for sub in itertools.combinations(perms, r):
                if all(lcs_length_dp(a, b) <= 1 for a, b in itertools.combinations(sub, 2)):
                    best = max(best, r)
        assert best == 2
        ground = brute_force_ground_set(3, None, 1)
        assert ground.perms == ((0, 1, 2), (2, 1, 0))

    def test_q2(self):
        ground = brute_force_ground_set(2, None, 1)
        assert ground.perms == ((0, 1), (1, 0))

    def test_vacuous_constraint_admits_everything(self):
        ground = brute_force_ground_set(3, None, 3)
        assert ground.p == 6

    @pytest.mark.parametrize("seed", [1, 7])
    def test_sampled_search_with_a_vacuous_bound_admits_no_repeat(self, seed):
        # 720 draws from 24 permutations repeat many; the LCS bound, capped at
        # q - 1, refuses every repeat, so the set is all 24 once each
        ground = brute_force_ground_set(4, None, 9, seed=seed, sample_budget=720)
        assert sorted(ground.perms) == list(itertools.permutations(range(4)))

    def test_sampled_search_stops_once_it_holds_every_permutation(self, monkeypatch):
        # the number of draws after which seed 1's stream has shown all 24
        rng, base, seen, needed = random.Random(1), list(range(4)), set(), 0
        while len(seen) < 24:
            rng.shuffle(base)
            seen.add(tuple(base))
            needed += 1
        draws = []

        class CountingRandom(random.Random):
            def shuffle(self, x):
                draws.append(x)
                super().shuffle(x)

        monkeypatch.setattr(random, "Random", CountingRandom)
        # budgets that would take hours to draw: no draw after the 24th
        # admission can be admitted, so the search stops there
        ground = brute_force_ground_set(4, None, 9, seed=1, sample_budget=10**9)
        assert (len(draws), sorted(ground.perms)) == (needed, sorted(seen))
        with pytest.raises(ParameterError, match="search exhausted with 24 permutations"):
            brute_force_ground_set(4, 25, 9, seed=1, sample_budget=10**9)
        assert len(draws) == 2 * needed

    def test_target_reached_stops_early(self):
        ground = brute_force_ground_set(4, 2, 2)
        assert ground.p == 2
        assert ground.certified_max_lcs <= 2

    @pytest.mark.parametrize("q", [1, 0, -1])
    def test_q_below_two_raises_before_the_search(self, q):
        with pytest.raises(ParameterError, match=f"q must be >= 2, got {q}"):
            brute_force_ground_set(q, None, 0)

    def test_unreachable_target_raises(self):
        with pytest.raises(ParameterError):
            brute_force_ground_set(3, 3, 1)

    @pytest.mark.parametrize("target_p", [0, -1])
    def test_target_below_one_raises(self, target_p):
        # q=9 would take 9! admission checks if the target were accepted
        with pytest.raises(ParameterError, match="target_p must be >= 1"):
            brute_force_ground_set(9, target_p, 9)
        with pytest.raises(ParameterError, match="target_p must be >= 1"):
            brute_force_ground_set(9, target_p, 9, seed=1)

    @pytest.mark.parametrize(
        "q, target_p, max_lcs, seed, budget",
        [
            (5, None, 2, None, None),
            (6, None, 3, None, None),
            (9, 12, 4, 3, 5000),
            (12, None, 5, 1, 400),
        ],
    )
    def test_admission_matches_dp_greedy(self, q, target_p, max_lcs, seed, budget):
        # the same candidate stream, admitted through the quadratic DP
        if seed is None:
            candidates = itertools.permutations(range(q))
        else:
            rng, base = random.Random(seed), list(range(q))
            candidates = (tuple(rng.shuffle(base) or base) for _ in range(budget))
        chosen = []
        for word in candidates:
            if word not in chosen and all(lcs_length_dp(word, c) <= max_lcs for c in chosen):
                chosen.append(word)
                if len(chosen) == target_p:
                    break
        kwargs = {} if seed is None else {"seed": seed, "sample_budget": budget}
        ground = brute_force_ground_set(q, target_p, max_lcs, **kwargs)
        assert ground.perms == tuple(chosen)
        assert ground.p > 2

    def test_budget_bounds_the_lexicographic_scan(self):
        # the bound q - 1 admits every distinct pair, so the set is the
        # first three candidates, where the scan used to run through all 5!
        ground = brute_force_ground_set(5, None, 4, sample_budget=3)
        assert ground.p == 3
        assert ground.perms == tuple(itertools.islice(itertools.permutations(range(5)), 3))

    def test_default_budget_ends_a_scan_of_12_factorial(self, monkeypatch):
        # no two permutations have LCS 0, so the first candidate is the only
        # one kept; the scan stops after the default budget, not after 12!
        candidates, inverse = [], ground_set.inverse

        def counting_inverse(word):
            candidates.append(word)
            return inverse(word)

        monkeypatch.setattr(ground_set, "inverse", counting_inverse)
        message = "search exhausted with 1 permutations, target was 2 (q=12, max_lcs=0)"
        with pytest.raises(ParameterError, match=re.escape(message)):
            brute_force_ground_set(12, 2, 0)
        assert len(candidates) == 100_000

    def test_seeded_search_draws_no_candidate_past_the_budget(self, monkeypatch):
        draws = []

        class CountingRandom(random.Random):
            def shuffle(self, x):
                draws.append(x)
                super().shuffle(x)

        monkeypatch.setattr(random, "Random", CountingRandom)
        with pytest.raises(ParameterError, match="search exhausted with 1 permutations"):
            brute_force_ground_set(5, 2, 0, seed=1, sample_budget=7)
        assert len(draws) == 7

    @pytest.mark.parametrize("seed", [None, 1])
    def test_negative_budget_draws_nothing(self, seed):
        with pytest.raises(ParameterError, match="search exhausted with 0 permutations"):
            brute_force_ground_set(4, 1, 3, seed=seed, sample_budget=-1)

    def test_random_mode_deterministic(self):
        a = brute_force_ground_set(5, 3, 2, seed=17, sample_budget=5000)
        b = brute_force_ground_set(5, 3, 2, seed=17, sample_budget=5000)
        assert a.perms == b.perms
        assert a.certified_max_lcs <= 2


class TestCertification:
    def test_certified_value_matches_dp_oracle(self):
        for ground in [
            xor_ground_set(8, greedy_gv_code(2, 3, 2)),
            brute_force_ground_set(4, None, 2),
        ]:
            if ground.p < 2:
                continue
            recomputed = max(
                lcs_length_dp(a, b)
                for a, b in itertools.combinations(ground.perms, 2)
            )
            assert ground.certified_max_lcs == recomputed

    def test_verify_pass_and_fail(self):
        # the figures the constructor certifies, for a set within a cap of
        # 1, a set with no pairs, and a close pair above a cap of 2
        ground = xor_ground_set(4, greedy_gv_code(2, 2, 2))
        assert ground.certified_max_lcs == 1 and ground.worst_pair == (0, 1)

        single = GroundSet(4, [(0, 1, 2, 3)])  # no pairs at all
        assert single.certified_max_lcs == 0 and single.worst_pair is None

        close = GroundSet(4, [(0, 1, 2, 3), (0, 1, 3, 2)])
        assert close.certified_max_lcs == 3
        assert close.worst_pair == (0, 1)

    def test_certified_figures_cannot_be_passed_in(self):
        ground = xor_ground_set(8, greedy_gv_code(2, 3, 2))
        params = UlamCodeParams(q=8, ell=2, ground=ground, code=greedy_gv_code(4, 8, 5))
        assert ground.certified_max_lcs == 2 and params.distance_bound == 5 * (8 - 2)
        # a smaller figure would let UlamCodeParams overstate distance_bound
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(ground, certified_max_lcs=0)
        with pytest.raises(TypeError):
            GroundSet(q=8, perms=ground.perms, certified_max_lcs=0)
        derived = (
            "separation", "worst_pair", "pair_lcs", "by_first_symbol", "by_last_symbol",
            "gathers", "gaps",
        )
        for name in derived:
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(ground, **{name: getattr(ground, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            ground.certified_max_lcs = 0

    def test_replace_with_new_perms_certifies_again(self):
        ground = xor_ground_set(4, greedy_gv_code(2, 2, 2))
        close = dataclasses.replace(ground, perms=[[0, 1, 2, 3], [0, 1, 3, 2]])
        assert close == GroundSet(4, [(0, 1, 2, 3), (0, 1, 3, 2)])
        assert close.perms == ((0, 1, 2, 3), (0, 1, 3, 2))
        assert close.certified_max_lcs == 3 and close.pair_lcs == ((4, 3), (3, 4))
        with pytest.raises(ValueError, match="ground permutation"):
            dataclasses.replace(ground, perms=[(0, 1, 2, 3), (0, 1, 1, 3)])

    @pytest.mark.parametrize(
        "q, perms", [(-1, []), (0, [()]), (1, [(0,)]), (4, [5]), (4, None)]
    )
    def test_refuses_q_below_two_and_non_iterables(self, q, perms):
        # these used to build a set over [q < 2] or escape as a bare TypeError
        with pytest.raises(ParameterError):
            GroundSet(q, perms)

    @pytest.mark.parametrize(
        "perms, named",
        [
            ([(0, 1, 2), (2, 1, 0), (0, 1, 2)], (0, 1, 2)),
            # worst_pair, the first pair at LCS q row by row, is (0, 4), not
            # (1, 3), the first repeat in list order; its later member is named
            ([(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 0, 2), (0, 1, 2)], (0, 1, 2)),
        ],
    )
    def test_a_repeat_is_a_pair_at_lcs_q(self, perms, named):
        message = re.escape(f"duplicate ground permutation {named}")
        with pytest.raises(ParameterError, match=message):
            GroundSet(3, perms)

    def test_rejects_malformed_members(self):
        with pytest.raises(ParameterError):
            GroundSet(3, [(0, 1, 2), (0, 1, 2)])
        with pytest.raises(ParameterError):
            GroundSet(3, [(0, 1)])
        with pytest.raises(ValueError):
            GroundSet(3, [(0, 1, 1)])


@st.composite
def ground_sets(draw):
    """An XOR set over [4], [8] or [16], a seeded brute-force set, or a shuffled subset of one."""
    if draw(st.booleans()):
        q = draw(st.sampled_from([4, 8, 16]))
        r = q.bit_length() - 1
        ground = xor_ground_set(q, greedy_gv_code(2, r, draw(st.integers(1, r))))
    else:
        q = draw(st.sampled_from(range(2, 8)))
        ground = brute_force_ground_set(
            q, None, draw(st.sampled_from(range(q))), seed=draw(st.integers(0, 99)), sample_budget=40
        )
    if draw(st.booleans()):
        members = draw(st.permutations(ground.perms))
        ground = GroundSet(q, members[: draw(st.integers(1, len(members)))])
    return ground


class TestSeparation:
    @settings(max_examples=60, deadline=None)
    @given(ground=ground_sets())
    def test_separation_is_the_least_pairwise_ulam_distance(self, ground):
        pairs = itertools.combinations(ground.perms, 2)
        assert ground.separation == min((ulam_distance(a, b) for a, b in pairs), default=ground.q)
        if ground.p == 1:
            assert ground.separation == ground.q

    @pytest.mark.parametrize(
        "instance, bound, guarantee",
        [
            ("swap_instance", 2, Fraction(1, 2)),
            ("q4_instance", 4, Fraction(1)),
            ("q8_instance", 30, Fraction(15, 2)),
            ("concat_instance", 12, Fraction(2)),
        ],
    )
    def test_distance_bound_is_code_distance_times_separation(
        self, request, instance, bound, guarantee
    ):
        params = request.getfixturevalue(instance)
        assert params.distance_bound == params.code.min_distance * params.ground.separation == bound
        assert params.decode_guarantee == guarantee


class TestCertificationOracle:
    """The position-table certification against the quadratic DP, pair by pair."""

    @staticmethod
    def check_against_dp(ground):
        pairs = list(itertools.combinations(range(ground.p), 2))
        dp = {(i, j): lcs_length_dp(ground.perms[i], ground.perms[j]) for i, j in pairs}
        for (i, j), expected in dp.items():
            assert ground.pair_lcs[i][j] == ground.pair_lcs[j][i] == expected
        best = max(dp.values())
        assert ground.certified_max_lcs == best
        # the first pair, in (i, j) order, that reaches the max
        assert ground.worst_pair == next(ij for ij in pairs if dp[ij] == best)

    def test_xor_set(self):
        self.check_against_dp(xor_ground_set(16, identity_code(2, 4)))

    def test_seeded_brute_force_set(self):
        ground = brute_force_ground_set(9, 12, 4, seed=3, sample_budget=5000)
        assert ground.p == 12
        self.check_against_dp(ground)

    def test_file_loaded_set(self, tmp_path):
        path = tmp_path / "ground.txt"
        save_ground_set(str(path), brute_force_ground_set(7, 8, 3, seed=5, sample_budget=5000))
        self.check_against_dp(load_ground_set(str(path)))

    @pytest.mark.parametrize(
        "perms",
        [
            ((0, 1, 2, 3), (0, 1, 1, 3)),  # repeated symbol
            ((0, 1, 2, 3), (0, 1, 2, 7)),  # symbol out of range
            ((0, 1, 2, 3), (2, 1, 0)),  # short member
            ((0, 1, 2, 3), (3, 2, 1, 0), (0, 1, 2, 3)),  # repeated member
        ],
    )
    def test_verify_rejects_hand_built_malformed_set(self, perms):
        # the constructor verifies a hand-built family before certifying it:
        # a named ValueError, never an IndexError from the position table
        # and never a certified set
        with pytest.raises(ValueError, match="ground permutation"):
            GroundSet(4, perms)


class TestPairTable:
    @pytest.mark.parametrize(
        "ground",
        [
            xor_ground_set(8, identity_code(2, 3)),
            xor_ground_set(16, greedy_gv_code(2, 4, 2)),
            brute_force_ground_set(5, None, 3),
            GroundSet(4, [(3, 1, 0, 2), (0, 1, 2, 3), (3, 0, 2, 1)]),
        ],
    )
    def test_pair_lcs_and_first_symbol_index(self, ground):
        table = ground.pair_lcs
        assert len(table) == ground.p and all(len(row) == ground.p for row in table)
        for i, j in itertools.product(range(ground.p), repeat=2):
            assert table[i][j] == table[j][i] == lcs_length(ground.perms[i], ground.perms[j])
        assert all(table[i][i] == ground.q for i in range(ground.p))
        assert ground.certified_max_lcs == max(
            (table[i][j] for i, j in itertools.combinations(range(ground.p), 2)), default=0
        )
        for index, end in ((ground.by_first_symbol, 0), (ground.by_last_symbol, -1)):
            assert len(index) == ground.q
            for s, cs in enumerate(index):
                assert list(cs) == sorted(cs) and all(ground.perms[c][end] == s for c in cs)
            assert sorted(c for cs in index for c in cs) == list(range(ground.p))
        q = ground.q
        assert ground.gaps == tuple(tuple(abs(q - d - l) for l in range(q + 1)) for d in range(q + 1))


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        ground = xor_ground_set(8, greedy_gv_code(2, 3, 2))
        path = tmp_path / "ground.txt"
        save_ground_set(str(path), ground)
        assert path.read_bytes() == (
            b"8 4 2\n0 1 2 3 4 5 6 7\n3 2 1 0 7 6 5 4\n5 4 7 6 1 0 3 2\n6 7 4 5 2 3 0 1\n"
        )
        assert load_ground_set(str(path)) == ground

    def test_reload_recertifies(self, tmp_path):
        path = tmp_path / "ground.txt"
        path.write_text("3 2 1\n0 1 2\n0 2 1\n")  # true max LCS is 2, header lies
        with pytest.raises(ValueError):
            load_ground_set(str(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("4 2 1\n0 1 2 3\n3 2 x 0\n", 3),
            ("4 2 z\n0 1 2 3\n3 2 1 0\n", 1),
            # int() reads these as 10 and 1, which would make a valid set
            ("1_0 2 1\n0 1 2 3 4 5 6 7 8 9\n9 8 7 6 5 4 3 2 1 0\n", 1),
            ("4 2 1\n0 1 2 3\n3 2 +1 0\n", 3),
            ("4 2 1\n0 1 2 3\n3 2 1 0\u00a0\n", 3),
        ],
    )
    def test_bad_token_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "ground.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            load_ground_set(str(path))
