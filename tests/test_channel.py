import math
import random
import re
import statistics

import pytest

from ulamcodes.channel import RelocationTrace, load_trace, random_permutation, relocate, save_trace
from ulamcodes.perm_core import identity, lcs_length, ulam_distance


class TestRelocate:
    def test_zero_moves(self):
        word = (3, 0, 1, 2)
        out, trace = relocate(word, 0, seed=1)
        assert out == word
        assert trace.moves == ()

    def test_single_known_move(self):
        # moving the symbol at position 0 to the end costs one relocation
        trace = RelocationTrace(moves=((0, 3),))
        out = trace.replay((0, 1, 2, 3))
        assert out == (1, 2, 3, 0)
        assert ulam_distance((0, 1, 2, 3), out) == 1

    def test_budget_soundness(self):
        rng = random.Random(2)
        for _ in range(1000):
            n = rng.randrange(2, 40)
            word = tuple(rng.sample(range(n), n))
            t = rng.randrange(0, n + 1)
            out, _ = relocate(word, t, seed=rng.getrandbits(32))
            assert sorted(out) == list(range(n))
            assert ulam_distance(word, out) <= t

    def test_deterministic_and_replayable(self):
        word = tuple(range(12))
        out1, trace1 = relocate(word, 5, seed=99)
        out2, trace2 = relocate(word, 5, seed=99)
        assert out1 == out2
        assert trace1 == trace2
        assert trace1.replay(word) == out1

    def test_replay_rejects_out_of_range_moves(self):
        with pytest.raises(ValueError, match="move 0 "):
            RelocationTrace(moves=((0, 99),)).replay((0, 1, 2, 3))
        with pytest.raises(ValueError, match="move 1 "):
            RelocationTrace(moves=((0, 3), (4, 0))).replay((0, 1, 2, 3))
        with pytest.raises(ValueError, match="move 0 "):
            RelocationTrace(moves=((-1, 2),)).replay((0, 1, 2, 3))
        with pytest.raises(ValueError, match="move 0 "):
            RelocationTrace(moves=((1, -4),)).replay((0, 1, 2, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            relocate((0, 1, 2), 4, seed=0)
        with pytest.raises(ValueError):
            relocate((0, 1, 2), -1, seed=0)


class TestRandomPermutation:
    def test_length_one(self):
        assert random_permutation(1, seed=0) == (0,)

    def test_deterministic(self):
        assert random_permutation(50, seed=7) == random_permutation(50, seed=7)
        assert random_permutation(50, seed=7) != random_permutation(50, seed=8)

    def test_lis_concentration_band(self):
        # the longest increasing run of a uniform permutation concentrates
        # near 2*sqrt(n); a generous band guards the sampler's uniformity
        for n in (16, 64, 256):
            values = [
                lcs_length(random_permutation(n, seed=s), identity(n))
                for s in range(300)
            ]
            mean = statistics.fmean(values)
            assert 1.2 * math.sqrt(n) <= mean <= 2.6 * math.sqrt(n)


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        _, trace = relocate(tuple(range(9)), 4, seed=5)
        path = tmp_path / "trace.txt"
        save_trace(str(path), trace)
        assert path.read_bytes() == b"4 5\n8 0\n7 3\n0 2\n"
        assert load_trace(str(path)) == trace

    @pytest.mark.parametrize("bad", ["2 x", "3", "1 2 3", "-1 2", "0 +1", "1_0 2", "0 \u00b2"])
    def test_bad_token_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "trace.txt"
        path.write_text(f"0 1\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            load_trace(str(path))
