import json
import math

import pytest

import ulamcodes as uc
from ulamcodes import verify
from ulamcodes.block_codes import BlockCode
from ulamcodes.errors import ParameterError
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
        ground = uc.ground_set_from_perms(2, [(0, 1), (1, 0)])
        code = uc.greedy_gv_code(2, 2, 2)  # size 2... shrink to 1 message below
        params = uc.UlamCodeParams(q=2, ell=2, ground=ground, code=code)
        # M = 4; emulate the vacuous case with sampling zero pairs instead
        report = audit_pairwise(params, sample_pairs=0, seed=1)
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

    def test_injectivity_failure_reported(self):
        ground = uc.ground_set_from_perms(2, [(0, 1), (1, 0)])
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

    def test_sampled_audit_encodes_each_message_once(self, swap_instance, monkeypatch):
        expected = audit_pairwise(swap_instance, sample_pairs=5000, seed=4)
        encoded = []
        real = verify.encode

        def counting_encode(x, params):
            encoded.append(x)
            return real(x, params)

        monkeypatch.setattr(verify, "encode", counting_encode)
        report = audit_pairwise(swap_instance, sample_pairs=5000, seed=4)
        assert len(encoded) == len(set(encoded)) <= swap_instance.message_count
        assert report.as_dict(timings=False) == expected.as_dict(timings=False)

    def test_report_serialization(self, swap_instance):
        report = audit_pairwise(swap_instance, sample_pairs=50, seed=3)
        payload = json.loads(report_json(report))
        assert payload["mode"] == "sample(50)"
        assert payload["dist_lower"] == swap_instance.distance_bound
        assert "min_distance=" in report.as_text()


class TestDecoderSweep:
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
        ground = uc.ground_set_from_perms(2, [(0, 1), (1, 0)])
        code = uc.identity_code(2, 1)
        params = uc.UlamCodeParams(q=2, ell=1, ground=ground, code=code)
        report = rate_report(params)
        assert report.rate == pytest.approx(math.log(2) / math.log(2), rel=1e-12)
