import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulamcodes.block_codes import (
    DecodeFailure,
    ExplicitCode,
    concat_code,
    greedy_gv_code,
    gv_ball_volume,
    hamming_distance,
    identity_code,
    load_explicit_code,
    repetition_code,
    rs_code,
    save_explicit_code,
)
from ulamcodes.errors import ParameterError


def exact_min_distance(code):
    return min(
        hamming_distance(a, b) for a, b in itertools.combinations(code.codewords(), 2)
    )


def corruptions(word, weight, alphabet):
    """Every word at Hamming distance exactly `weight` from word."""
    n = len(word)
    for positions in itertools.combinations(range(n), weight):
        choices = [
            [v for v in range(alphabet) if v != word[i]] for i in positions
        ]
        for replacement in itertools.product(*choices):
            out = list(word)
            for i, v in zip(positions, replacement):
                out[i] = v
            yield tuple(out)


class TestReedSolomon:
    def test_encode_example(self):
        code = rs_code(5, 5, 2)
        assert code.encode((1, 2)) == (1, 3, 0, 2, 4)

    def test_spec_numbers(self):
        code = rs_code(5, 5, 2)
        assert code.min_distance == 4
        assert code.decoding_radius == 1
        degenerate = rs_code(7, 7, 7)
        assert degenerate.min_distance == 1
        assert degenerate.decoding_radius == 0

    def test_block_length_exceeds_field(self):
        with pytest.raises(ParameterError):
            rs_code(4, 5, 2)

    def test_zero_message_is_zero_codeword(self):
        code = rs_code(7, 6, 3)
        assert code.encode((0, 0, 0)) == (0,) * 6

    def test_decode_corrupted_example(self):
        code = rs_code(5, 5, 2)
        assert code.decode((1, 3, 4, 2, 4)) == (1, 2)

    def test_injective_and_min_distance(self):
        code = rs_code(5, 5, 2)
        words = list(code.codewords())
        assert len(set(words)) == code.size == 25
        assert exact_min_distance(code) == code.min_distance

    @given(st.integers(0, 7**3 - 1))
    def test_round_trip(self, x):
        code = rs_code(7, 6, 3)
        assert code.decode_word(code.encode_index(x)) == x

    @pytest.mark.parametrize(
        "field_order,n,k",
        [(5, 5, 2), (7, 6, 2), (8, 5, 2), (9, 5, 2), (13, 5, 2), (16, 5, 2)],
    )
    def test_unique_decoding_exhaustive(self, field_order, n, k):
        code = rs_code(field_order, n, k)
        for x in range(code.size):
            word = code.encode_index(x)
            for weight in range(code.decoding_radius + 1):
                for corrupted in corruptions(word, weight, field_order):
                    assert code.decode_word(corrupted) == x

    def test_beyond_radius_flags_failure(self):
        code = rs_code(5, 5, 2)  # radius 1
        word = list(code.encode_index(7))
        word[0] = (word[0] + 1) % 5
        word[2] = (word[2] + 1) % 5
        result = code.decode_word(tuple(word))
        # two errors: either a failure or some message whose codeword is
        # within the radius of the corrupted word - never a silent miss
        if not isinstance(result, DecodeFailure):
            assert hamming_distance(code.encode_index(result), tuple(word)) <= 1

    def test_extension_field_code(self):
        code = rs_code(9, 7, 3)
        for x in (0, 1, 100, code.size - 1):
            word = code.encode_index(x)
            assert code.decode_word(word) == x
            corrupted = list(word)
            corrupted[3] = (corrupted[3] + 1) % 9
            assert code.decode_word(tuple(corrupted)) == x

    @pytest.mark.parametrize("field_order,n,k", [(8, 7, 3), (16, 6, 2)])
    def test_decode_matches_brute_force_nearest_codeword(self, field_order, n, k):
        code = rs_code(field_order, n, k)
        words = list(code.codewords())
        rng = random.Random(field_order * 100 + n)
        inside = beyond = 0
        for _ in range(400):
            # corrupt a random codeword in 0..n positions, so that both
            # sides of the decoding radius are drawn
            received = list(rng.choice(words))
            for i in rng.sample(range(n), rng.randrange(n + 1)):
                received[i] = rng.randrange(field_order)
            received = tuple(received)
            near = [x for x, w in enumerate(words)
                    if hamming_distance(w, received) <= code.decoding_radius]
            assert len(near) <= 1
            result = code.decode_word(received)
            if near:
                inside += 1
                assert result == near[0]
            else:
                beyond += 1
                assert isinstance(result, DecodeFailure)
        assert inside > 50 and beyond > 50

    def test_wrong_message_shape(self):
        code = rs_code(5, 5, 2)
        with pytest.raises(ValueError):
            code.encode((1, 2, 3))
        with pytest.raises(ValueError):
            code.encode((1, 7))


class TestGreedyGv:
    def test_binary_examples(self):
        assert list(greedy_gv_code(2, 2, 2).codewords()) == [(0, 0), (1, 1)]
        assert list(greedy_gv_code(2, 3, 3).codewords()) == [(0, 0, 0), (1, 1, 1)]

    def test_distance_one_keeps_all_words(self):
        code = greedy_gv_code(3, 2, 1)
        assert code.size == 9

    def test_gv_bound_size(self):
        for alphabet, length, d in [(2, 6, 3), (3, 4, 3), (4, 4, 2)]:
            code = greedy_gv_code(alphabet, length, d)
            bound = alphabet**length // gv_ball_volume(length, d - 1, alphabet)
            assert code.size >= bound
            assert code.min_distance >= d
            assert exact_min_distance(code) == code.min_distance

    def test_search_space_budget(self):
        with pytest.raises(ParameterError):
            greedy_gv_code(10, 10, 2)

    def test_deterministic(self):
        a = list(greedy_gv_code(3, 3, 2).codewords())
        b = list(greedy_gv_code(3, 3, 2).codewords())
        assert a == b

    @pytest.mark.parametrize("alphabet,length,d", [(2, 6, 3), (2, 8, 3), (3, 4, 3), (4, 4, 2)])
    def test_unique_decoding_exhaustive(self, alphabet, length, d):
        code = greedy_gv_code(alphabet, length, d)
        for x in range(code.size):
            word = code.encode_index(x)
            for weight in range(code.decoding_radius + 1):
                for corrupted in corruptions(word, weight, alphabet):
                    assert code.decode_word(corrupted) == x

    def test_far_word_fails(self):
        code = greedy_gv_code(2, 4, 4)  # {0000, 1111}, radius 1
        assert isinstance(code.decode_word((0, 0, 1, 1)), DecodeFailure)


class TestExplicitCode:
    def test_rejects_duplicates_and_ragged(self):
        with pytest.raises(ParameterError):
            ExplicitCode(2, [(0, 0), (0, 0)])
        with pytest.raises(ParameterError):
            ExplicitCode(2, [(0, 0), (0, 1, 1)])
        with pytest.raises(ParameterError):
            ExplicitCode(2, [(0, 2)])

    def test_message_length_only_for_alphabet_powers(self):
        assert ExplicitCode(2, [(0, 0), (0, 1), (1, 0), (1, 1)]).message_length == 2
        assert ExplicitCode(2, [(0, 0), (0, 1), (1, 0)]).message_length is None

    def test_digit_api_requires_power_size(self):
        code = ExplicitCode(2, [(0, 0), (0, 1), (1, 0)])
        with pytest.raises(ParameterError):
            code.encode((0,))

    def test_file_round_trip(self, tmp_path):
        code = greedy_gv_code(3, 4, 2)
        path = tmp_path / "code.txt"
        save_explicit_code(str(path), code)
        loaded = load_explicit_code(str(path))
        assert list(loaded.codewords()) == list(code.codewords())
        assert loaded.min_distance == code.min_distance
        assert loaded.alphabet_size == code.alphabet_size

    def test_file_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 3\n0 0\n1 1\n")
        with pytest.raises(ValueError):
            load_explicit_code(str(path))


class TestConcatenation:
    def test_composed_min_distance(self):
        outer = rs_code(4, 3, 1)
        inner = ExplicitCode(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
        assert inner.size == outer.alphabet_size
        code = concat_code(outer, inner)
        assert code.block_length == 9
        actual = exact_min_distance(code)
        assert actual >= outer.min_distance * inner.min_distance
        assert actual >= 2  # and in fact >= 3*2 here

    def test_inner_identity_reexpresses_outer(self):
        outer = rs_code(4, 4, 2)
        inner = identity_code(2, 2)
        code = concat_code(outer, inner)
        for x in (0, 5, code.size - 1):
            word = code.encode_index(x)
            outer_word = outer.encode_index(x)
            rebuilt = tuple(
                sym
                for pair in ((w >> 1, w & 1) for w in outer_word)
                for sym in pair
            )
            assert word == rebuilt

    def test_round_trip_and_radius(self):
        outer = rs_code(4, 4, 2)  # d=3
        inner = ExplicitCode(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])  # d=2
        code = concat_code(outer, inner)
        assert code.min_distance == 6
        assert code.decoding_radius == 1  # ceil(6/4) - 1
        for x in range(code.size):
            word = code.encode_index(x)
            assert code.decode_word(word) == x
            for corrupted in corruptions(word, 1, 2):
                assert code.decode_word(corrupted) == x

    def test_alphabet_mismatch(self):
        with pytest.raises(ParameterError):
            concat_code(rs_code(5, 5, 2), identity_code(2, 2))


class TestTrivialCodes:
    def test_repetition(self):
        code = repetition_code(3, 4)
        assert code.encode((2,)) == (2, 2, 2, 2)
        assert code.decode_word((2, 1, 2, 2)) == 2
        assert isinstance(code.decode_word((0, 0, 1, 1)), DecodeFailure)

    def test_repetition_unique_decoding_exhaustive(self):
        code = repetition_code(3, 5)
        for x in range(3):
            word = code.encode_index(x)
            for weight in range(code.decoding_radius + 1):
                for corrupted in corruptions(word, weight, 3):
                    assert code.decode_word(corrupted) == x

    def test_identity(self):
        code = identity_code(3, 2)
        assert code.encode_index(5) == (1, 2)
        assert code.decode_word((1, 2)) == 5
        assert code.min_distance == 1


class TestSpecObject:
    def test_spec_invariants(self):
        for code in [
            rs_code(5, 5, 2),
            greedy_gv_code(2, 4, 2),
            repetition_code(3, 4),
            identity_code(2, 3),
            concat_code(rs_code(4, 3, 1), identity_code(2, 2)),
        ]:
            spec = code.spec
            assert spec.decoding_radius <= (spec.min_distance - 1) // 2
            if spec.message_length is not None:
                assert spec.alphabet_size**spec.message_length == spec.size
            words = list(code.codewords())
            assert len(set(words)) == spec.size
            if spec.size >= 2:
                assert exact_min_distance(code) >= spec.min_distance

    def test_word_validation(self):
        code = rs_code(5, 5, 2)
        with pytest.raises(ValueError):
            code.decode_word((0, 0, 0))
        with pytest.raises(ValueError):
            code.decode_word((0, 0, 0, 0, 9))
