"""
Acceptance suite: one test per exit criterion, each printing a PASS line
with its measurements (run with `pytest -s tests/test_acceptance.py` to
see them). Criteria cover the two worked shuffle examples, exhaustive
distance/injectivity audits, rate accounting, the decoder radius under
relocation noise, LCS oracle equivalence, ground-set certification,
restriction subadditivity, and block-code unique decoding.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import ulamcodes as uc
from ulamcodes.block_codes import DecodeFailure, hamming_distance
from ulamcodes.perm_core import (
    identity,
    lcs_length,
    lcs_length_dp,
    restrict,
    ulam_distance,
)
from ulamcodes.verify import audit_pairwise, rate_report


def _report(criterion: str, elapsed: float, detail: str) -> None:
    print(f"PASS {criterion}: {detail} [{elapsed:.2f}s]")


def test_criterion_1_binary_three_stage_worked_example():
    start = time.monotonic()
    ground = uc.GroundSet(2, [(0, 1), (1, 0)])
    shufflers = ((1, 0, 0, 1), (1, 1, 1, 0), (0, 0, 0, 1))
    s1 = uc.apply_stage(identity(8), 1, shufflers[0], ground)
    s2 = uc.apply_stage(s1, 2, shufflers[1], ground)
    s3 = uc.apply_stage(s2, 3, shufflers[2], ground)
    assert s1 == (4, 1, 2, 7, 0, 5, 6, 3)
    assert s2 == (2, 7, 4, 1, 6, 5, 0, 3)
    assert s3 == (2, 7, 4, 1, 6, 5, 3, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(
        "criterion 1 (binary worked example)",
        elapsed,
        "stages (4,1,2,7,0,5,6,3) -> (2,7,4,1,6,5,0,3) -> (2,7,4,1,6,5,3,0)",
    )


def test_criterion_2_ternary_two_stage_worked_example():
    start = time.monotonic()
    ground = uc.GroundSet(3, [(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)])
    out = uc.run_stages(((3, 0, 1), (2, 2, 3)), ground)
    # expected value re-derived independently (hand recurrence plus the
    # per-position digit-string oracle in test_ulam_code) before freezing
    assert out == (1, 3, 8, 4, 6, 5, 7, 2, 0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("criterion 2 (ternary worked example)", elapsed, f"output {out}")


def test_criterion_3_exhaustive_distance_audit(q4_instance):
    start = time.monotonic()
    report = audit_pairwise(q4_instance)
    assert report.injective
    assert report.message_count == q4_instance.code.size**2 == 4096
    # delta_C (1 - max_lcs/q) n = (2/4)(1 - 2/4)*16 = 4
    assert report.dist_lower == 4
    assert report.min_distance >= 4
    assert report.passed
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(
        "criterion 3 (exhaustive pairwise audit)",
        elapsed,
        f"{report.pairs_checked} pairs, min d_U {report.min_distance} >= 4, injective",
    )


def test_criterion_4_rate_accounting(q4_instance, q8_instance):
    start = time.monotonic()
    for params in (q4_instance, q8_instance):
        report = rate_report(params)
        # cross-check the log arithmetic two independent ways
        assert report.log_message_count == pytest.approx(
            math.log(params.message_count), rel=1e-9
        )
        assert report.log_factorial == pytest.approx(
            math.lgamma(params.n + 1), rel=1e-9
        )
        assert report.rate >= report.rate_lower
        # rate_lower == epsilon_D * R_C / q evaluated from actual parameters
        product = report.ground_size_exponent * report.code_rate / params.q
        assert report.rate_lower == pytest.approx(product, rel=1e-9)
    elapsed = time.monotonic() - start
    _report(
        "criterion 4 (rate accounting)",
        elapsed,
        f"n=16: rate {rate_report(q4_instance).rate:.6f} >= "
        f"{rate_report(q4_instance).rate_lower:.6f}; n=64 likewise",
    )


def test_criterion_5_decoder_radius(q8_instance):
    start = time.monotonic()
    params = q8_instance
    radius = Fraction(params.distance_bound, 4)
    assert radius >= 2
    assert params.decode_guarantee == radius  # GV shuffler code decodes to half distance
    rng = random.Random(20240801)
    trials_per_t = 1000
    total_inside = 0
    for t in (0, 2, 4, 6, 7):
        for _ in range(trials_per_t):
            x = rng.randrange(params.message_count)
            word = uc.encode(x, params)
            corrupted, _ = uc.relocate(word, t, rng.getrandbits(63))
            measured = ulam_distance(word, corrupted)
            assert measured <= t
            if Fraction(measured) >= radius:
                continue
            total_inside += 1
            result = uc.decode(corrupted, params)
            assert not isinstance(result, DecodeFailure), (t, x, measured)
            assert result.message == x, (t, x, measured)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(
        "criterion 5 (decoder radius)",
        elapsed,
        f"{total_inside} within-radius trials (radius {radius}), 100% recovered",
    )


def test_criterion_6_lcs_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(6)
    checked = 0
    for n in (16, 64, 256):
        for _ in range(1000):
            a = list(range(n))
            b = list(range(n))
            rng.shuffle(a)
            rng.shuffle(b)
            fast = lcs_length(a, b)
            assert fast == lcs_length_dp(a, b)
            assert ulam_distance(a, b) == n - fast
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 6 (LCS oracle equivalence)",
        elapsed,
        f"{checked} random pairs across n in (16, 64, 256), zero mismatches",
    )


def test_criterion_7_ground_set_certification():
    start = time.monotonic()
    lines = []
    for q in (4, 8, 16, 32):
        r = q.bit_length() - 1
        for d in range(1, r + 1):
            code = uc.greedy_gv_code(2, r, d)
            if code.size < 2:
                continue
            ground = uc.xor_ground_set(q, code)
            words = list(code.codewords())
            # per pair: LCS <= 2^(number of agreeing bit positions)
            max_agree = 0
            for (i, gi), (j, gj) in itertools.combinations(enumerate(words), 2):
                agree = r - hamming_distance(gi, gj)
                max_agree = max(max_agree, agree)
                assert (
                    lcs_length_dp(ground.perms[i], ground.perms[j]) <= 2**agree
                )
            cap = 2**max_agree
            assert ground.certified_max_lcs <= cap <= 2 ** (r - code.min_distance)
            lines.append(f"q={q},d={d}:max_lcs={ground.certified_max_lcs}<={cap}")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("criterion 7 (ground-set certification)", elapsed, "; ".join(lines))


def test_criterion_8_restriction_subadditivity():
    start = time.monotonic()
    rng = random.Random(8)
    for _ in range(10_000):
        n = rng.randrange(2, 65)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        k = rng.randrange(1, 6)
        parts = [set() for _ in range(k)]
        for sym in range(n):
            parts[rng.randrange(k)].add(sym)
        total = sum(lcs_length(restrict(a, part), restrict(b, part)) for part in parts)
        assert lcs_length(a, b) <= total
    elapsed = time.monotonic() - start
    _report(
        "criterion 8 (restriction subadditivity)",
        elapsed,
        "10000 randomized (permutation pair, partition) triples, zero violations",
    )


def _all_corruptions(word, weight, alphabet):
    n = len(word)
    for positions in itertools.combinations(range(n), weight):
        choices = [[v for v in range(alphabet) if v != word[i]] for i in positions]
        for replacement in itertools.product(*choices):
            out = list(word)
            for i, v in zip(positions, replacement):
                out[i] = v
            yield tuple(out)


def test_criterion_9_block_code_unique_decoding():
    start = time.monotonic()
    codes = [
        uc.rs_code(5, 5, 2),
        uc.rs_code(7, 6, 2),
        uc.rs_code(8, 6, 2),
        uc.rs_code(9, 5, 2),
        uc.rs_code(13, 5, 2),
        uc.rs_code(16, 5, 2),
        uc.greedy_gv_code(2, 6, 3),
        uc.greedy_gv_code(2, 8, 3),
        uc.greedy_gv_code(3, 4, 3),
        uc.greedy_gv_code(4, 4, 2),
    ]
    decodes = 0
    for code in codes:
        for x in range(code.size):
            word = code.encode_index(x)
            for weight in range(code.decoding_radius + 1):
                for corrupted in _all_corruptions(word, weight, code.alphabet_size):
                    assert code.decode_word(corrupted) == x
                    decodes += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 9 (block-code unique decoding)",
        elapsed,
        f"{decodes} exhaustive corruptions across {len(codes)} codes, zero failures",
    )
