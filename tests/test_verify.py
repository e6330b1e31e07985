import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc

import pytest

import ulamcodes as uc
from ulamcodes import verify
from ulamcodes.block_codes import BlockCode, ExplicitCode
from ulamcodes.errors import ParameterError
from ulamcodes.perm_core import lcs_length_dp
from ulamcodes.verify import audit_pairwise, decoder_sweep, rate_report, report_json


class DuplicatingCode(BlockCode):
    """Negative control: a deliberately broken code with a repeated codeword."""

    def __init__(self):
        self.alphabet_size = 2
        self.block_length = 4
        self.size = 3
        self.min_distance = 2
        self.decoding_radius = 0
        self._words = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 0)]

    def encode_index(self, x):
        return self._words[x]

    def decode_word(self, word):
        word = self.check_word(word)
        return self._words.index(word) if word in self._words else uc.DecodeFailure("miss")


class TestAuditPairwise:
    def test_exhaustive_passes_on_swap_instance(self, swap_instance):
        report = audit_pairwise(swap_instance)
        assert report.passed
        assert report.injective
        assert report.mode == "exhaustive"
        assert report.pairs_checked == 512 * 511 // 2
        assert report.min_distance >= report.dist_lower == swap_instance.distance_bound

    def test_single_message_vacuous(self):
        ground = uc.GroundSet(2, [(0, 1), (1, 0)])
        code = ExplicitCode(2, [(0, 0)])  # one shuffler string
        params = uc.UlamCodeParams(q=2, ell=2, ground=ground, code=code)
        assert params.message_count == 1
        report = audit_pairwise(params)
        assert report.mode == "exhaustive"
        assert report.pairs_checked == 0
        assert report.passed
        assert report.min_distance is None

    def test_sample_never_below_exhaustive_minimum(self, swap_instance):
        exhaustive = audit_pairwise(swap_instance)
        sampled = audit_pairwise(swap_instance, sample_pairs=2000, seed=9)
        assert sampled.min_distance >= exhaustive.min_distance
        assert sampled.mode == "sample(2000)"
        assert sampled.seed == 9

    def test_sample_requires_seed(self, swap_instance):
        with pytest.raises(ParameterError):
            audit_pairwise(swap_instance, sample_pairs=10)

    def test_seed_requires_sample(self, swap_instance):
        # the exhaustive audit draws nothing, so a seed there is a mistake
        with pytest.raises(ParameterError, match="seed needs sample_pairs"):
            audit_pairwise(swap_instance, seed=5)

    @pytest.mark.parametrize(
        "params",
        [
            # q = 3, p = 2, identity shuffler code: 64 messages over [9]
            uc.UlamCodeParams(
                q=3, ell=2, ground=uc.brute_force_ground_set(3, None, 1),
                code=uc.identity_code(2, 3),
            ),
            # q = 4, p = 4, eight GV codewords: 64 messages over [16]
            uc.UlamCodeParams(
                q=4, ell=2, ground=uc.xor_ground_set(4, uc.identity_code(2, 2)),
                code=ExplicitCode(4, list(uc.greedy_gv_code(4, 4, 2).codewords())[:8]),
            ),
        ],
        ids=["q3", "q4"],
    )
    def test_exhaustive_matches_dp_scan(self, params):
        words = [uc.encode(x, params) for x in range(params.message_count)]
        min_d, worst = None, None
        for i, j in itertools.combinations(range(len(words)), 2):
            d = params.n - lcs_length_dp(words[i], words[j])
            if min_d is None or d < min_d:
                min_d, worst = d, (i, j)
        report = audit_pairwise(params)
        assert (report.min_distance, report.worst_pair) == (min_d, worst)

    def test_negative_sample_rejected(self, swap_instance):
        with pytest.raises(ParameterError, match="sample_pairs must be >= 1, got -5"):
            audit_pairwise(swap_instance, sample_pairs=-5, seed=1)

    def test_zero_sample_rejected(self, swap_instance):
        with pytest.raises(ParameterError, match="sample_pairs must be >= 1, got 0"):
            audit_pairwise(swap_instance, sample_pairs=0, seed=1)

    def test_injectivity_failure_reported(self):
        ground = uc.GroundSet(2, [(0, 1), (1, 0)])
        params = uc.UlamCodeParams(q=2, ell=3, ground=ground, code=DuplicatingCode())
        report = audit_pairwise(params)
        assert not report.injective
        assert not report.passed
        assert report.min_distance == 0

    def test_budget_guard(self, q4_instance, monkeypatch):
        monkeypatch.setattr("ulamcodes.verify.PAIR_BUDGET", 1000)
        with pytest.raises(ParameterError):
            audit_pairwise(q4_instance)

    def test_sampling_handles_huge_message_spaces(self):
        # message count far beyond the exhaustive budget: sampling must
        # work without enumerating the code
        ground = uc.xor_ground_set(16, uc.greedy_gv_code(2, 4, 2))
        code = uc.concat_code(uc.rs_code(64, 8, 6), uc.identity_code(8, 2))
        params = uc.UlamCodeParams(q=16, ell=2, ground=ground, code=code)
        assert params.message_count > 2**64
        report = audit_pairwise(params, sample_pairs=60, seed=5)
        assert report.pairs_checked == 60
        assert report.min_distance >= params.distance_bound
        assert report.passed

    def test_sampled_audit_encodes_two_words_per_pair(self, swap_instance, monkeypatch):
        encoded = []
        real = verify.encode

        def counting_encode(x, params):
            encoded.append(x)
            return real(x, params)

        monkeypatch.setattr(verify, "encode", counting_encode)
        report = audit_pairwise(swap_instance, sample_pairs=5000, seed=4)
        assert len(encoded) == 2 * 5000
        # the report of the earlier audit that encoded each message once
        assert report.as_dict(timings=False) == {
            "q": 2, "ell": 3, "n": 8, "message_count": 512, "mode": "sample(5000)",
            "pairs_checked": 5000, "min_distance": 2, "worst_pair": [41, 44],
            "dist_lower": 2, "injective": True, "passed": True, "seed": 4,
        }

    def test_sampled_audit_memory_does_not_grow_with_pairs(self, q8_instance):
        audit_pairwise(q8_instance, sample_pairs=5, seed=1)  # warm the stage walk

        def peak_bytes(pairs):
            tracemalloc.start()
            try:
                audit_pairwise(q8_instance, sample_pairs=pairs, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # keeping every encoded word and its inverse grew the peak by ~2.2 MB
        # here; what is left is the interpreter's bounded free lists
        assert peak_bytes(2000) - peak_bytes(200) < 256 * 1024

    def test_report_serialization(self, swap_instance):
        report = audit_pairwise(swap_instance, sample_pairs=50, seed=3)
        payload = json.loads(report_json(report))
        assert payload["mode"] == "sample(50)"
        assert payload["dist_lower"] == swap_instance.distance_bound
        assert "min_distance=" in report.as_text()


class TestDecoderSweep:
    def test_negative_trials_rejected(self, q8_instance):
        with pytest.raises(ParameterError, match="trials must be >= 1, got -2"):
            decoder_sweep(q8_instance, [0], trials=-2, seed=5)

    def test_zero_trials_rejected(self, q8_instance):
        with pytest.raises(ParameterError, match="trials must be >= 1, got 0"):
            decoder_sweep(q8_instance, [0], trials=0, seed=5)

    def test_empty_t_values_rejected(self, q8_instance):
        # an empty sweep ran no trial, so it must not report zero violations
        with pytest.raises(ParameterError, match="t_values must hold at least one"):
            decoder_sweep(q8_instance, [], trials=3, seed=1)

    def test_zero_noise_all_succeed(self, q8_instance):
        report = decoder_sweep(q8_instance, [0], trials=20, seed=5)
        assert report.rows[0].success_rate == 1.0
        assert report.radius_violations == 0

    def test_within_radius_always_succeeds(self, q8_instance):
        report = decoder_sweep(q8_instance, [0, 3, 6, 7], trials=150, seed=6)
        assert report.radius_violations == 0
        for row in report.rows:
            assert row.within_radius == row.within_radius_successes
            assert row.wrong == 0

    def test_heavy_noise_fails_flagged(self, q8_instance):
        report = decoder_sweep(q8_instance, [30], trials=50, seed=7)
        row = report.rows[0]
        assert row.failures > 0
        assert row.wrong == 0  # never a silent wrong answer inside the radius
        assert report.radius_violations == 0

    def test_every_miss_inside_the_guarantee_is_a_radius_violation(self, q8_instance, monkeypatch):
        # distances 0 x5, then 7 x3 and 8 x2 around the guarantee 15/2, then 10..12
        honest = decoder_sweep(q8_instance, [0, 8, 12], trials=5, seed=2)
        assert [r.within_radius_successes for r in honest.rows] == [5, 3, 0]
        misses = itertools.cycle([uc.DecodeFailure("forced"), uc.DecodeResult(-1, ())])
        monkeypatch.setattr(verify, "decode", lambda pi, params: next(misses))
        report = decoder_sweep(q8_instance, [0, 8, 12], trials=5, seed=2)
        assert [(r.successes, r.failures, r.wrong) for r in report.rows] == [
            (0, 3, 2), (0, 2, 3), (0, 3, 2)
        ]
        assert [(r.within_radius, r.within_radius_successes) for r in report.rows] == [
            (5, 0), (3, 0), (0, 0)
        ]
        assert report.radius_violations == 8
        assert [r.distance_histogram for r in report.rows] == [
            r.distance_histogram for r in honest.rows
        ]

    def test_report_serialization(self, q8_instance):
        report = decoder_sweep(q8_instance, [0, 2], trials=10, seed=8)
        payload = json.loads(report_json(report))
        assert [row["t"] for row in payload["rows"]] == [0, 2]
        assert "radius_violations=0" in report.as_text()


class TestRateReport:
    def test_exact_message_count(self, q4_instance):
        report = rate_report(q4_instance)
        assert report.message_count == 64**2
        assert report.rate >= report.rate_lower
        # n! <= n^n makes the bound strict but close at desk scale
        assert report.log_factorial == pytest.approx(
            math.lgamma(q4_instance.n + 1), rel=1e-12
        )

    def test_rate_lower_matches_parameter_product(self, q4_instance):
        # epsilon_D * R_C / q telescopes to log_q|C| / n
        report = rate_report(q4_instance)
        q = q4_instance.q
        eps = report.ground_size_exponent
        r_c = report.code_rate
        assert eps * r_c / q == pytest.approx(report.rate_lower, rel=1e-12)

    def test_single_stage_rate(self):
        ground = uc.GroundSet(2, [(0, 1), (1, 0)])
        code = uc.identity_code(2, 1)
        params = uc.UlamCodeParams(q=2, ell=1, ground=ground, code=code)
        report = rate_report(params)
        assert report.rate == pytest.approx(math.log(2) / math.log(2), rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda params: audit_pairwise(params, sample_pairs=20, seed=3),
    lambda params: decoder_sweep(params, [0, 2], trials=5, seed=8),
    rate_report,
], ids=["audit", "sweep", "rate"])
def test_report_json_round_trips_every_report(q4_instance, make):
    report = make(q4_instance)
    payload = report.as_dict()
    assert json.loads(report_json(report)) == payload
    payload.pop("elapsed_seconds", None)
    assert json.loads(report_json(report, timings=False)) == payload


# The exact bytes each report prints, pinned so that a change to how
# reports serialize cannot move them. elapsed_seconds is replaced by a
# fixed value, so the timed forms are pinned too. Text is pinned as
# written; JSON by its sha256.
PINNED_REPORTS = {
    "sampled audit": (
        lambda i: audit_pairwise(i["q4"], sample_pairs=20, seed=3),
        "q=4\nell=2\nn=16\nmessage_count=4096\nmode=sample(20)\npairs_checked=20\n"
        "min_distance=8\nworst_pair=[2562, 3883]\ndist_lower=4\ninjective=True\n"
        "passed=True\nseed=3",
        "f7baaf4ae20cbabe3d85559f4ca8902624ae10e0d032d2a597200f03c51d1bed",
        "86710e8f3b426fe4cfba5837f4d09bc94c72684cf37662f45aac23b552ac940a",
    ),
    "exhaustive audit": (
        lambda i: audit_pairwise(i["swap"]),
        "q=2\nell=3\nn=8\nmessage_count=512\nmode=exhaustive\npairs_checked=130816\n"
        "min_distance=2\nworst_pair=[0, 1]\ndist_lower=2\ninjective=True\n"
        "passed=True\nseed=None",
        "ea1e43cfcf8a59746e9b6527479cd65a8e7e6ad73c1414b1df1d32e4263c8848",
        "39ae480530a258ee6ba08e68bc9e4e9854ee5f396384761de0124f491ed69ecd",
    ),
    # failures, a success rate that rounds (1/7), and histograms with
    # distances of one and two digits, which list in numeric order
    "sweep": (
        lambda i: decoder_sweep(i["q8"], [0, 4, 8, 12, 16, 20], trials=7, seed=11),
        "t trials successes failures wrong within_radius within_radius_successes rate\n"
        "0 7 7 0 0 7 7 1.0000\n4 7 7 0 0 7 7 1.0000\n8 7 1 6 0 1 1 0.1429\n"
        "12 7 0 7 0 0 0 0.0000\n16 7 0 7 0 0 0 0.0000\n20 7 0 7 0 0 0 0.0000\n"
        "decode_guarantee=15/2\nradius_violations=0",
        "875117e3ca946be7205fa4d6dcd8415ae7c8ea79462d272481b8f776468696ce",
        "9489315c322d93c1ca5e8e052e7708ce8fe34e09c0fcfab86e05167b052bd802",
    ),
    "rate": (
        lambda i: rate_report(i["q4"]),
        "message_count=4096\nn=16\nlog_message_count=8.317766166719343\n"
        "log_factorial=30.671860106080672\nrate=0.2711855798100211\nrate_lower=0.1875\n"
        "ground_size_exponent=1.0\ncode_rate=0.75",
        "d09e68c5fd02cae99151071cf254c4194acbe8a0df0d1ff72e46714a115caae1",
        "d09e68c5fd02cae99151071cf254c4194acbe8a0df0d1ff72e46714a115caae1",
    ),
}


@pytest.mark.parametrize("make, text, json_sha, json_sha_untimed",
                         PINNED_REPORTS.values(), ids=PINNED_REPORTS.keys())
def test_report_bytes_are_pinned(swap_instance, q4_instance, q8_instance,
                                 make, text, json_sha, json_sha_untimed):
    report = make({"swap": swap_instance, "q4": q4_instance, "q8": q8_instance})
    if hasattr(report, "elapsed_seconds"):
        report = dataclasses.replace(report, elapsed_seconds=1.25)
        assert report.as_text(timings=False) == text
        assert report.as_text() == text + "\nelapsed_seconds=1.25"
    else:
        assert report.as_text() == text
    for timings, sha in ((True, json_sha), (False, json_sha_untimed)):
        dumped = report_json(report, timings=timings)
        assert hashlib.sha256(dumped.encode()).hexdigest() == sha
    assert report.as_dict() == json.loads(report_json(report))
