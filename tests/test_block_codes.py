import collections
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamcodes.block_codes import (
    DecodeFailure,
    ExplicitCode,
    concat_code,
    greedy_gv_code,
    hamming_distance,
    identity_code,
    load_explicit_code,
    repetition_code,
    rs_code,
    save_explicit_code,
)
from ulamcodes import block_codes
from ulamcodes.block_codes import _poly_divmod
from ulamcodes.errors import ParameterError
from ulamcodes.perm_core import from_digits, to_digits


def gv_ball_volume(length, radius, alphabet_size):
    """Hamming-ball volume V(length, radius) over the given alphabet."""
    return sum(math.comb(length, i) * (alphabet_size - 1) ** i for i in range(radius + 1))


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
        assert code.decode_word((1, 3, 4, 2, 4)) == from_digits((1, 2), 5)

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


# (field order, n, k): characteristic 2, odd prime powers and prime fields;
# n < order and n == order; odd and even n - k; k = 1 and k = n (radius 0);
# GF(1024) has no multiplication table, so its products read exp/log.
ORACLE_CODES = [
    (4, 4, 2), (8, 7, 3), (8, 6, 3), (16, 16, 8), (32, 32, 16), (8, 8, 8),
    (9, 8, 3), (9, 9, 2), (27, 20, 7), (25, 24, 9),
    (7, 6, 3), (11, 11, 4), (13, 12, 1), (7, 5, 5), (5, 5, 1),
    (1024, 10, 4),
]


def horner(f, coeffs, x):
    """The polynomial with ascending coeffs at x, by scalar f.mul and f.add (exp/log)."""
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, x), c)
    return acc


def decode_outcome(result):
    """The decoded message, or DecodeFailure whatever its reason text."""
    return DecodeFailure if isinstance(result, DecodeFailure) else result


@st.composite
def oracle_cases(draw):
    field_order, n, k = draw(st.sampled_from(ORACLE_CODES))
    code = rs_code(field_order, n, k)
    symbol = st.integers(0, field_order - 1)
    if draw(st.booleans()):
        word = draw(st.lists(symbol, min_size=n, max_size=n))
    else:
        # a codeword corrupted in 0..n positions, both sides of the radius
        word = list(code.encode_index(draw(st.integers(0, code.size - 1))))
        positions = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        for i in positions:
            word[i] = draw(symbol)
    return code, tuple(word)


def berlekamp_welch_decode(code, word):
    """
    Berlekamp-Welch decoding of ``code``: the oracle for
    ``ReedSolomonCode.decode_word`` (Gao). The two share only the field
    arithmetic and polynomial division.
    """
    word = code.check_word(word)
    f = code.field
    k, e = code.k, code.decoding_radius
    # find Q of degree < k+e and monic E of degree e with
    # Q(a_i) = r_i * E(a_i) for all i; then the message polynomial is Q/E.
    cols = (k + e) + e
    rows = []
    rhs = []
    for a, r in zip(code.points, word):
        row = [0] * cols
        pw = 1
        for u in range(k + e):
            row[u] = pw
            pw = f.mul(pw, a)
        pw = 1
        for j in range(e):
            row[k + e + j] = f.neg(f.mul(r, pw))
            pw = f.mul(pw, a)
        rows.append(row)
        rhs.append(f.mul(r, pw))  # r * a^e, the monic term moved across
    sol = solve_linear(f, rows, rhs)
    if sol is None:
        return DecodeFailure("berlekamp-welch system inconsistent")
    q_coeffs = sol[: k + e]
    e_coeffs = sol[k + e :] + [1]  # monic
    msg_poly, rem = _poly_divmod(f, q_coeffs, e_coeffs)
    if any(rem) or len(msg_poly) > k:
        return DecodeFailure("residual error locator does not divide")
    msg_poly = msg_poly + [0] * (k - len(msg_poly))
    codeword = code.encode(msg_poly)
    if hamming_distance(codeword, word) > e:
        return DecodeFailure("nearest candidate beyond decoding radius")
    return from_digits(msg_poly, code.alphabet_size)


def solve_linear(f, rows, rhs):
    """Gaussian elimination over f; any solution with free variables at 0."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = f.inv(aug[r][c])
        aug[r] = [f.mul(inv, v) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                aug[i] = f.sub_scaled(aug[i], aug[i][c], aug[r])
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][cols] for i in range(r, m)):
        return None
    sol = [0] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols]
    return sol




class TestGaoAgainstBerlekampWelch:
    """decode_word (Gao) against the Berlekamp-Welch oracle: same outcome."""

    @settings(max_examples=400, deadline=None)
    @given(oracle_cases())
    def test_agrees_with_oracle(self, case):
        code, word = case
        assert decode_outcome(code.decode_word(word)) == decode_outcome(
            berlekamp_welch_decode(code, word)
        )

    @pytest.mark.parametrize("field_order,n,k", [(4, 4, 2), (5, 5, 2), (3, 3, 1)])
    def test_agrees_with_oracle_on_every_word(self, field_order, n, k):
        code = rs_code(field_order, n, k)
        decoded = 0
        for word in itertools.product(range(field_order), repeat=n):
            gao = decode_outcome(code.decode_word(word))
            assert gao == decode_outcome(berlekamp_welch_decode(code, word))
            decoded += gao is not DecodeFailure
        # every word within the radius of a codeword, and nothing else, decodes
        assert decoded == code.size * sum(
            math.comb(n, i) * (field_order - 1) ** i
            for i in range(code.decoding_radius + 1)
        )

    @pytest.mark.parametrize("field_order,n,k,reasons", [
        (5, 5, 1, {"error locator does not divide the remainder": 1700,
                   "message polynomial has degree 1 >= k = 1": 420,
                   "message polynomial has degree 2 >= k = 1": 100}),
        (4, 4, 2, {"message polynomial has degree 2 >= k = 2": 48}),
    ])
    def test_each_failure_names_its_kind(self, field_order, n, k, reasons):
        # Gao fails either on a remainder left by the error locator or on a
        # quotient of degree >= k; every word of the code is tried
        code = rs_code(field_order, n, k)
        results = map(code.decode_word, itertools.product(range(field_order), repeat=n))
        counts = collections.Counter(r.reason for r in results if isinstance(r, DecodeFailure))
        assert counts == reasons

    def test_round_trip_over_gf1024_with_errors(self):
        # GF(1024) has no multiplication table: encode and decode read exp/log
        code = rs_code(1024, 40, 20)
        rng = random.Random(1024)
        for trial in range(6):
            x = rng.randrange(code.size)
            word = list(code.encode_index(x))
            for i in rng.sample(range(40), trial * 2):  # 0..10 errors, radius 10
                word[i] ^= rng.randrange(1, 1024)
            assert code.decode_word(word) == berlekamp_welch_decode(code, word) == x
        # past the radius both decoders fail or agree
        for i in rng.sample(range(40), 15):
            word[i] ^= rng.randrange(1, 1024)
        assert decode_outcome(code.decode_word(word)) == decode_outcome(
            berlekamp_welch_decode(code, word)
        )

    def test_interpolation_tables_built_on_first_decode(self):
        # byte rows in characteristic 2 and in odd characteristic, and
        # tuple rows above the table limit
        for code in (rs_code(16, 16, 8), rs_code(9, 8, 3), rs_code(1024, 10, 4)):
            code.encode_index(7)
            assert code._interpolation == ()
            attributes = set(vars(code))
            assert code.decode_word(code.encode_index(7)) == 7
            # filled in place: a decode adds no instance attribute
            assert set(vars(code)) == attributes
            g0, rows = code._interpolation
            f = code.field
            # g0 vanishes on every point; row i is L_i as a field vector, so
            # 1 at a_i and 0 elsewhere, and g1 = sum r_i * L_i needs no sign
            assert len(g0) == code.block_length + 1
            assert all(horner(f, g0, a) == 0 for a in code.points)
            assert len(rows) == code.block_length
            for i, row in enumerate(rows):
                assert row == f.vector(row) and len(row) == code.block_length
                assert [horner(f, row, a) for a in code.points] == [
                    int(j == i) for j in range(code.block_length)
                ]

    # characteristic 2 with byte rows (up to GF(256)), odd orders with byte
    # rows, and fields above the table limit, which combine element by element
    @pytest.mark.parametrize("field_order,n,k", [
        (2, 2, 1), (16, 16, 8), (32, 32, 16), (256, 40, 12), (9, 8, 3),
        (25, 24, 9), (13, 12, 5), (243, 30, 7), (512, 20, 6), (1024, 10, 4),
    ])
    def test_encode_matches_horner(self, field_order, n, k):
        code = rs_code(field_order, n, k)
        f = code.field
        rng = random.Random(field_order * 1000 + n)
        special = [0, 1, field_order - 1]
        for _ in range(30):
            message = [rng.choice(special + [rng.randrange(field_order)]) for _ in range(k)]
            assert code.encode(message) == tuple(horner(f, message, a) for a in code.points)
        x = rng.randrange(code.size)
        digits = to_digits(x, field_order, k)
        assert code.encode_index(x) == tuple(horner(f, digits, a) for a in code.points)


def _count_divisions(monkeypatch, code):
    """Calls of _poly_divmod made from here on, after the code's first
    decode has built its interpolation tables."""
    code.decode_word(code.encode_index(0))
    calls = []
    real = block_codes._poly_divmod
    monkeypatch.setattr(block_codes, "_poly_divmod", lambda *a: calls.append(1) or real(*a))
    return calls


class TestGaoWithoutEuclidStep:
    """A word whose interpolation already has 2*deg < n + k takes no Euclid
    step; its message polynomial is read off with no division."""

    @pytest.mark.parametrize("field_order,n,k", [(4, 4, 2), (5, 5, 2), (7, 6, 3)])
    def test_every_codeword_decodes_without_division(self, monkeypatch, field_order, n, k):
        code = rs_code(field_order, n, k)
        calls = _count_divisions(monkeypatch, code)
        assert [code.decode_word(code.encode_index(x)) for x in range(code.size)] == list(
            range(code.size)
        )
        assert calls == []

    def test_sampled_rs1024_stage_codewords_decode_without_division(self, monkeypatch):
        # the shuffler code of the n = 1024 benchmark rung
        code = rs_code(32, 32, 16)
        calls = _count_divisions(monkeypatch, code)
        rng = random.Random(32)
        for x in [0, 1, code.size - 1] + [rng.randrange(code.size) for _ in range(50)]:
            assert code.decode_word(code.encode_index(x)) == x
        assert calls == []

    @pytest.mark.parametrize("field_order,n,k", [(5, 5, 1), (5, 5, 2), (32, 32, 16), (9, 8, 3)])
    def test_high_degree_without_euclid_step_still_fails(self, monkeypatch, field_order, n, k):
        # degrees k .. ceil((n+k)/2) - 1: no Euclid step, and the quotient
        # of degree >= k is refused as before
        code = rs_code(field_order, n, k)
        f = code.field
        calls = _count_divisions(monkeypatch, code)
        rng = random.Random(field_order * 100 + n)
        for degree in range(k, (n + k + 1) // 2):
            poly = [rng.randrange(field_order) for _ in range(degree)] + [
                rng.randrange(1, field_order)
            ]
            word = tuple(horner(f, poly, a) for a in code.points)
            assert code.decode_word(word) == DecodeFailure(
                f"message polynomial has degree {degree} >= k = {k}"
            )
        assert calls == []

    def test_words_with_errors_still_divide(self, monkeypatch):
        code = rs_code(32, 32, 16)
        calls = _count_divisions(monkeypatch, code)
        word = list(code.encode_index(12345))
        word[3] ^= 1
        assert code.decode_word(word) == 12345
        assert calls


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

    def test_a_repeat_is_a_pair_at_distance_0(self):
        with pytest.raises(ParameterError, match="explicit code has repeated codewords"):
            ExplicitCode(2, [(0, 1, 1), (1, 0, 1), (0, 1, 1)])
        # a single codeword has the block length as its distance
        code = ExplicitCode(2, [(1,)])
        assert (code.size, code.min_distance, code.decode_word((1,))) == (1, 1, 0)

    def test_refuses_codewords_of_length_0(self):
        # length 0 would make the radius -1, so () could not decode to itself
        for words in ([()], [(), ()]):
            with pytest.raises(ParameterError, match="codewords must share one length >= 1"):
                ExplicitCode(2, words)

    def test_file_round_trip(self, tmp_path):
        code = greedy_gv_code(3, 4, 2)
        path = tmp_path / "code.txt"
        save_explicit_code(str(path), code)
        loaded = load_explicit_code(str(path))
        assert list(loaded.codewords()) == list(code.codewords())
        assert loaded.min_distance == code.min_distance
        assert loaded.alphabet_size == code.alphabet_size

    def test_file_save_pins_bytes(self, tmp_path):
        path = tmp_path / "code.txt"
        save_explicit_code(str(path), greedy_gv_code(2, 4, 2))
        assert path.read_bytes() == (
            b"2 4 8\n0 0 0 0\n0 0 1 1\n0 1 0 1\n0 1 1 0\n"
            b"1 0 0 1\n1 0 1 0\n1 1 0 0\n1 1 1 1\n"
        )

    def test_file_bad_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text, line in [
            ("2 3 2\n0 0 x\n1 1 1\n", 2),
            # int() reads these as 10 and 1, which would make a valid code
            ("1_0 3 2\n0 0 0\n9 9 9\n", 1),
            ("2 3 2\n0 0 0\n+1 1 1\n", 3),
            ("2 3 2\n0 0 0\n1 1 1\u00a0\n", 3),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
                load_explicit_code(str(path))

    def test_file_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 3\n0 0\n1 1\n")
        with pytest.raises(ValueError):
            load_explicit_code(str(path))


def nearest_codeword_scan(code, word):
    """The plain nearest-codeword scan: oracle for ExplicitCode.decode_word."""
    word = code.check_word(word)
    best, best_d = 0, code.block_length + 1
    for i, cw in enumerate(code.codewords()):
        d = hamming_distance(cw, word)
        if d < best_d:
            best, best_d = i, d
    if best_d > code.decoding_radius:
        return DecodeFailure(
            f"nearest codeword at distance {best_d} > radius {code.decoding_radius}"
        )
    return best


def greedy_gv_loop(alphabet_size, length, min_distance):
    """The plain greedy Gilbert-Varshamov loop: oracle for greedy_gv_code."""
    chosen = []
    for word in itertools.product(range(alphabet_size), repeat=length):
        if all(hamming_distance(word, cw) >= min_distance for cw in chosen):
            chosen.append(word)
    return chosen


@st.composite
def explicit_codes(draw):
    """Random explicit codes, alphabets past one byte and lengths past 255 included."""
    alphabet = draw(st.sampled_from([2, 3, 5, 256, 257, 70000]))
    length = draw(st.sampled_from([1, 2, 3, 7, 16, 255, 256, 300]))
    size = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # codewords drift from one base word so that some lie close together
    base = [rng.randrange(alphabet) for _ in range(length)]
    spread = draw(st.integers(1, length))
    words = {tuple(base)}
    for _ in range(size - 1):
        word = list(base)
        for i in rng.sample(range(length), rng.randint(0, spread)):
            word[i] = rng.randrange(alphabet)
        words.add(tuple(word))
    return ExplicitCode(alphabet, list(words)), rng


class TestPackedAgreements:
    def test_decode_matches_scan_on_every_word(self):
        code = greedy_gv_code(4, 6, 3)
        for word in itertools.product(range(4), repeat=6):
            assert code.decode_word(word) == nearest_codeword_scan(code, word)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 63), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=8))
    def test_decode_matches_scan_on_gv64_code(self, q8_instance, x, changes):
        code = q8_instance.code  # greedy_gv_code(4, 8, 5)
        word = list(code.encode_index(x))
        for i, v in changes:
            word[i] = v
        assert code.decode_word(word) == nearest_codeword_scan(code, word)

    @settings(max_examples=60, deadline=None)
    @given(explicit_codes())
    def test_random_codes_match_scan_and_pairwise_distance(self, code_and_rng):
        code, rng = code_and_rng
        if code.size >= 2:
            assert code.min_distance == exact_min_distance(code)
        else:
            assert code.min_distance == code.block_length
        n, alphabet = code.block_length, code.alphabet_size
        for _ in range(8):
            word = list(code.encode_index(rng.randrange(code.size)))
            for i in rng.sample(range(n), rng.randint(0, n)):
                word[i] = rng.randrange(alphabet)
            assert code.decode_word(word) == nearest_codeword_scan(code, word)

    @pytest.mark.parametrize(
        "alphabet,length,d",
        [
            (4, 8, 5), (2, 3, 2), (4, 4, 3), (2, 10, 3), (3, 7, 3), (2, 12, 4),
            # length 1, d = 1 (nothing pruned), d = length, alphabet > length
            (2, 1, 1), (3, 2, 2), (8, 3, 2), (3, 5, 1), (4, 5, 5), (5, 4, 3), (2, 7, 7),
        ],
    )
    def test_greedy_search_matches_loop(self, alphabet, length, d):
        assert list(greedy_gv_code(alphabet, length, d).codewords()) == greedy_gv_loop(
            alphabet, length, d
        )


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
        assert code.encode_index(2) == (2, 2, 2, 2)
        assert code.decode_word((2, 1, 2, 2)) == 2
        assert isinstance(code.decode_word((0, 0, 1, 1)), DecodeFailure)

    def test_repetition_unique_decoding_exhaustive(self):
        code = repetition_code(3, 5)
        for x in range(3):
            word = code.encode_index(x)
            for weight in range(code.decoding_radius + 1):
                for corrupted in corruptions(word, weight, 3):
                    assert code.decode_word(corrupted) == x

    @pytest.mark.parametrize("alphabet, length", [(3, 4), (3, 5)])
    def test_repetition_decodes_every_word_by_plurality(self, alphabet, length):
        code = repetition_code(alphabet, length)
        radius = (length - 1) // 2
        assert (code.size, code.min_distance, code.decoding_radius) == (alphabet, length, radius)
        for word in itertools.product(range(alphabet), repeat=length):
            counts = [word.count(s) for s in range(alphabet)]
            plurality = counts.index(max(counts))  # ties go to the smallest symbol
            if length - counts[plurality] <= radius:
                assert code.decode_word(word) == plurality
            else:
                assert isinstance(code.decode_word(word), DecodeFailure)
        with pytest.raises(ParameterError):
            repetition_code(alphabet, 0)

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
            assert code.decoding_radius <= (code.min_distance - 1) // 2
            words = list(code.codewords())
            assert len(set(words)) == code.size
            assert all(len(w) == code.block_length for w in words)
            if code.size >= 2:
                assert exact_min_distance(code) >= code.min_distance

    def test_word_validation(self):
        code = rs_code(5, 5, 2)
        with pytest.raises(ValueError):
            code.decode_word((0, 0, 0))
        with pytest.raises(ValueError):
            code.decode_word((0, 0, 0, 0, 9))

    # one code of each type; an integral float such as 1.0 passes a range
    # check, so each must be refused by type before any table lookup
    @pytest.mark.parametrize("make", [
        lambda: rs_code(16, 8, 3),
        lambda: rs_code(5, 5, 2),
        lambda: greedy_gv_code(4, 4, 3),
        lambda: concat_code(rs_code(16, 16, 8), greedy_gv_code(4, 4, 3)),
        lambda: repetition_code(3, 5),
        lambda: identity_code(3, 4),
    ], ids=["rs-gf16", "rs-gf5", "gv", "concat", "repetition", "identity"])
    def test_decode_rejects_non_integer_symbols(self, make):
        code = make()
        zeros = (0,) * (code.block_length - 1)
        for bad in (1.0, 0.5, "1", None):
            with pytest.raises(ValueError, match=re.escape(f"symbol {bad!r} is not an integer")):
                code.decode_word((bad,) + zeros)
        # bools and other __index__ types are read as the ints they stand for
        assert code.decode_word((True,) + zeros) == code.decode_word((1,) + zeros)

    @pytest.mark.parametrize("field_order", [16, 5, 1024])
    def test_encode_rejects_non_integer_symbols(self, field_order):
        code = rs_code(field_order, 5, 3)
        for bad in (1.0, "1", None):
            with pytest.raises(ValueError, match=f"GF\\({field_order}\\) element .* is not an integer"):
                code.encode((0, bad, 0))
        assert code.encode((0, True, 0)) == code.encode((0, 1, 0))
