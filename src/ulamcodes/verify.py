"""
Desk-scale audits of a code instance: exhaustive or sampled pairwise
distance minima against the guaranteed bound, injectivity, exact rate
accounting, and decoder success-rate sweeps under relocation noise.

Every report is a dataclass serialized by one as_dict() (its fields as
JSON values) and one key=value as_text(), which the sweep replaces with
its table; timings=False drops elapsed_seconds. report_json and the CLI
print through the same two layouts. All randomness is seeded and
recorded in the report.
"""
from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass

from .block_codes import DecodeFailure
from .channel import relocate
from .errors import ParameterError
from .perm_core import _index_ints, _lis_length, inverse, ulam_distance
from .ulam_code import UlamCodeParams, decode, encode

PAIR_BUDGET = 10_000_000


def payload_json(payload: dict) -> str:
    """The JSON layout: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True)


def payload_text(payload: dict) -> str:
    """The key=value layout: one line per key, in payload order."""
    return "\n".join(f"{key}={value}" for key, value in payload.items())


def _json_value(value):
    """value in JSON types: dataclasses as dicts of their fields, tuples as lists."""
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


class _Report:
    """The serializers every report dataclass shares (see the module docstring)."""

    def as_dict(self, timings: bool = True) -> dict:
        payload = _json_value(self)
        if not timings:
            payload.pop("elapsed_seconds", None)
        return payload

    def as_text(self, timings: bool = True) -> str:
        return payload_text(self.as_dict(timings))


@dataclass(frozen=True)
class AuditReport(_Report):
    q: int
    ell: int
    n: int
    message_count: int
    mode: str
    pairs_checked: int
    min_distance: int | None
    worst_pair: tuple[int, int] | None
    dist_lower: int
    injective: bool
    passed: bool
    seed: int | None
    elapsed_seconds: float


def audit_pairwise(
    params: UlamCodeParams, *, sample_pairs: int | None = None, seed: int | None = None
) -> AuditReport:
    """
    Check min pairwise Ulam distance >= the distance bound and that
    codewords are distinct (no pair at distance 0). sample_pairs=None
    audits every pair (message_count*(message_count-1)/2 must fit the
    pair budget); otherwise that many seeded uniform pairs are drawn and
    each pair encodes both of its messages, so message spaces beyond the
    budget stay auditable, memory does not grow with sample_pairs, and
    injectivity is certified on the sampled pairs only. A seed is
    required with sample_pairs and refused without it.
    """
    if sample_pairs is not None:
        (sample_pairs,) = _index_ints((sample_pairs,))
        if sample_pairs < 1:
            raise ParameterError(f"sample_pairs must be >= 1, got {sample_pairs}")
    if sample_pairs is None and seed is not None:
        raise ParameterError("a seed needs sample_pairs: the exhaustive audit draws nothing")
    start = time.monotonic()
    m, n = params.message_count, params.n
    total_pairs = m * (m - 1) // 2
    dist_lower = params.distance_bound
    min_d: int | None = None
    worst = None

    if sample_pairs is None:
        if total_pairs > PAIR_BUDGET:
            raise ParameterError(
                f"{total_pairs} pairs exceed the exhaustive budget {PAIR_BUDGET}; sample instead"
            )
        mode = "exhaustive"
        words = [encode(x, params) for x in range(m)]
        # the Ulam distance of two codewords is n minus the LIS of one
        # relabeled through the other's position table
        for i, pos_i in enumerate(map(inverse, words)):
            for j in range(i + 1, m):
                d = n - _lis_length(pos_i, words[j])
                if min_d is None or d < min_d:
                    min_d, worst = d, (i, j)
        pairs_checked = total_pairs
    else:
        if seed is None:
            raise ParameterError("sampled audit needs a seed")
        mode = f"sample({sample_pairs})"
        rng = random.Random(seed)
        pairs_checked = 0
        for _ in range(sample_pairs if m >= 2 else 0):
            i = rng.randrange(m)
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            d = n - _lis_length(inverse(encode(i, params)), encode(j, params))
            pairs_checked += 1
            if min_d is None or d < min_d:
                min_d, worst = d, (min(i, j), max(i, j))

    injective = min_d != 0
    passed = injective and (min_d is None or min_d >= dist_lower)
    return AuditReport(
        q=params.q,
        ell=params.ell,
        n=n,
        message_count=m,
        mode=mode,
        pairs_checked=pairs_checked,
        min_distance=min_d,
        worst_pair=worst,
        dist_lower=dist_lower,
        injective=injective,
        passed=passed,
        seed=seed,
        elapsed_seconds=round(time.monotonic() - start, 3),
    )


@dataclass(frozen=True)
class SweepRow:
    t: int
    trials: int
    successes: int
    failures: int
    wrong: int
    within_radius: int
    within_radius_successes: int
    distance_histogram: tuple[tuple[int, int], ...]  # (distance, trials), by distance

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class SweepReport(_Report):
    rows: tuple[SweepRow, ...]
    decode_guarantee: str
    radius_violations: int
    seed: int
    elapsed_seconds: float

    def as_dict(self, timings: bool = True) -> dict:
        payload = super().as_dict(timings)
        for row, r in zip(payload["rows"], self.rows):
            row["success_rate"] = round(r.success_rate, 6)
        return payload

    def as_text(self, timings: bool = True) -> str:
        lines = [
            "t trials successes failures wrong within_radius within_radius_successes rate"
        ]
        for r in self.rows:
            lines.append(
                f"{r.t} {r.trials} {r.successes} {r.failures} {r.wrong} "
                f"{r.within_radius} {r.within_radius_successes} {r.success_rate:.4f}"
            )
        lines.append(f"decode_guarantee={self.decode_guarantee}")
        lines.append(f"radius_violations={self.radius_violations}")
        if timings:
            lines.append(f"elapsed_seconds={self.elapsed_seconds}")
        return "\n".join(lines)


def decoder_sweep(
    params: UlamCodeParams, t_values: list[int], trials: int, seed: int
) -> SweepReport:
    """
    encode -> relocate(t) -> decode over seeded trials. Every trial whose
    measured corruption distance lands strictly inside the decode
    guarantee must recover its message; such trials failing (or decoding
    to a different message) count as radius violations.
    """
    (trials,) = _index_ints((trials,))
    t_values = _index_ints(t_values)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not t_values:
        raise ParameterError("t_values must hold at least one relocation count")
    start = time.monotonic()
    rng = random.Random(seed)
    m = params.message_count
    guarantee = params.decode_guarantee
    rows = []
    violations = 0
    for t in t_values:
        tally = Counter()  # (outcome, measured strictly inside the guarantee) -> trials
        hist = Counter()
        for _ in range(trials):
            x = rng.randrange(m)
            word = encode(x, params)
            corrupted, _ = relocate(word, t, rng.getrandbits(63))
            measured = ulam_distance(word, corrupted)
            hist[measured] += 1
            result = decode(corrupted, params)
            if isinstance(result, DecodeFailure):
                outcome = "failures"
            else:
                outcome = "successes" if result.message == x else "wrong"
            tally[outcome, measured < guarantee] += 1
        missed = tally["failures", True] + tally["wrong", True]
        violations += missed
        rows.append(
            SweepRow(
                t=t,
                trials=trials,
                successes=tally["successes", True] + tally["successes", False],
                failures=tally["failures", True] + tally["failures", False],
                wrong=tally["wrong", True] + tally["wrong", False],
                within_radius=tally["successes", True] + missed,
                within_radius_successes=tally["successes", True],
                distance_histogram=tuple(sorted(hist.items())),
            )
        )
    return SweepReport(
        rows=tuple(rows),
        decode_guarantee=str(guarantee),
        radius_violations=violations,
        seed=seed,
        elapsed_seconds=round(time.monotonic() - start, 3),
    )


@dataclass(frozen=True)
class RateReport(_Report):
    message_count: int
    n: int
    log_message_count: float
    log_factorial: float
    rate: float
    rate_lower: float
    ground_size_exponent: float  # log_q(p)
    code_rate: float  # log_p(|C|) / block length


def rate_report(params: UlamCodeParams) -> RateReport:
    """
    Exact rate accounting: log(M)/log(n!) from the exact message count
    (via its factorization |C|^ell, so no big-int overflow) against the
    guaranteed lower bound log_q(|C|)/n.
    """
    n, q = params.n, params.q
    log_m = params.ell * math.log(params.code.size)
    log_fact = math.fsum(math.log(i) for i in range(2, n + 1))
    rate = log_m / log_fact if log_fact else float("inf")
    return RateReport(
        message_count=params.message_count,
        n=n,
        log_message_count=log_m,
        log_factorial=log_fact,
        rate=rate,
        rate_lower=math.log(params.code.size) / (n * math.log(q)),
        ground_size_exponent=math.log(params.p) / math.log(q),
        code_rate=math.log(params.code.size) / (math.log(params.p) * params.code.block_length),
    )


def report_json(report, timings: bool = True) -> str:
    """Any report as JSON; timings=False drops its elapsed_seconds, if it has one."""
    return payload_json(report.as_dict(timings))
