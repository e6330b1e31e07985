"""
Desk-scale audits of a code instance: exhaustive or sampled pairwise
distance minima against the guaranteed bound, injectivity, exact rate
accounting, and decoder success-rate sweeps under relocation noise.

Reports are plain dataclasses with as_dict() for JSON-style emission and
as_text() for human-readable key/value lines; all randomness is seeded
and recorded in the report.
"""
from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .block_codes import DecodeFailure
from .channel import relocate
from .errors import ParameterError
from .perm_core import ulam_distance
from .ulam_code import UlamCodeParams, code_bounds, decode, encode

PAIR_BUDGET = 10_000_000


def _fast_ulam(pos_a: list[int], b: tuple[int, ...]) -> int:
    # patience LIS of b relabeled through a's position table; callers
    # guarantee both are permutations of the same [n]
    piles: list[int] = []
    for sym in b:
        v = pos_a[sym]
        j = bisect_left(piles, v)
        if j == len(piles):
            piles.append(v)
        else:
            piles[j] = v
    return len(b) - len(piles)


@dataclass(frozen=True)
class AuditReport:
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

    def as_dict(self, timings: bool = True) -> dict:
        d = dict(self.__dict__)
        d["worst_pair"] = list(self.worst_pair) if self.worst_pair else None
        if not timings:
            del d["elapsed_seconds"]
        return d

    def as_text(self, timings: bool = True) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.as_dict(timings).items())


def audit_pairwise(
    params: UlamCodeParams, *, sample_pairs: int | None = None, seed: int | None = None
) -> AuditReport:
    """
    Check min pairwise Ulam distance >= the distance bound and that
    codewords are distinct. sample_pairs=None audits every pair
    (message_count*(message_count-1)/2 must fit the pair budget);
    otherwise that many seeded uniform pairs are drawn, codewords are
    encoded lazily (message spaces beyond the budget stay auditable), and
    injectivity is certified on the sampled pairs only.
    """
    start = time.monotonic()
    m = params.message_count
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
        injective = len(set(words)) == m
        position_tables = [list(_inverse(w)) for w in words]
        for i in range(m):
            pos_i = position_tables[i]
            for j in range(i + 1, m):
                d = _fast_ulam(pos_i, words[j])
                if min_d is None or d < min_d:
                    min_d, worst = d, (i, j)
        pairs_checked = total_pairs
    else:
        # lazy encoding so huge message spaces stay auditable by sampling
        if seed is None:
            raise ParameterError("sampled audit needs a seed")
        mode = f"sample({sample_pairs})"
        rng = random.Random(seed)
        tables: dict[int, list[int]] = {}
        words_cache: dict[int, tuple[int, ...]] = {}

        def word_of(x: int) -> tuple[int, ...]:
            if x not in words_cache:
                words_cache[x] = encode(x, params)
            return words_cache[x]

        def table_of(x: int) -> list[int]:
            if x not in tables:
                tables[x] = _inverse(word_of(x))
            return tables[x]

        injective = True
        pairs_checked = 0
        for _ in range(sample_pairs if m >= 2 else 0):
            i = rng.randrange(m)
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            d = _fast_ulam(table_of(i), word_of(j))
            pairs_checked += 1
            if d == 0:
                injective = False
            if min_d is None or d < min_d:
                min_d, worst = d, (min(i, j), max(i, j))

    passed = injective and (min_d is None or min_d >= dist_lower)
    return AuditReport(
        q=params.q,
        ell=params.ell,
        n=params.n,
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


def _inverse(word) -> list[int]:
    inv = [0] * len(word)
    for i, x in enumerate(word):
        inv[x] = i
    return inv


@dataclass(frozen=True)
class SweepRow:
    t: int
    trials: int
    successes: int
    failures: int
    wrong: int
    within_radius: int
    within_radius_successes: int
    distance_histogram: dict[int, int] = field(hash=False, default_factory=dict)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    decode_guarantee: str
    radius_violations: int
    seed: int
    elapsed_seconds: float

    def as_dict(self, timings: bool = True) -> dict:
        payload = {
            "decode_guarantee": self.decode_guarantee,
            "radius_violations": self.radius_violations,
            "seed": self.seed,
            "rows": [
                {
                    "t": r.t,
                    "trials": r.trials,
                    "successes": r.successes,
                    "failures": r.failures,
                    "wrong": r.wrong,
                    "within_radius": r.within_radius,
                    "within_radius_successes": r.within_radius_successes,
                    "success_rate": round(r.success_rate, 6),
                    "distance_histogram": {str(k): v for k, v in sorted(r.distance_histogram.items())},
                }
                for r in self.rows
            ],
        }
        if timings:
            payload["elapsed_seconds"] = self.elapsed_seconds
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
    start = time.monotonic()
    rng = random.Random(seed)
    m = params.message_count
    guarantee: Fraction = params.decode_guarantee
    rows = []
    violations = 0
    for t in t_values:
        successes = failures = wrong = within = within_ok = 0
        hist: dict[int, int] = {}
        for _ in range(trials):
            x = rng.randrange(m)
            word = encode(x, params)
            corrupted, _ = relocate(word, t, rng.getrandbits(63))
            measured = ulam_distance(word, corrupted)
            hist[measured] = hist.get(measured, 0) + 1
            inside = Fraction(measured) < guarantee
            if inside:
                within += 1
            result = decode(corrupted, params)
            if isinstance(result, DecodeFailure):
                failures += 1
                if inside:
                    violations += 1
            elif result.message == x:
                successes += 1
                if inside:
                    within_ok += 1
            else:
                wrong += 1
                if inside:
                    violations += 1
        rows.append(
            SweepRow(
                t=t,
                trials=trials,
                successes=successes,
                failures=failures,
                wrong=wrong,
                within_radius=within,
                within_radius_successes=within_ok,
                distance_histogram=hist,
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
class RateReport:
    message_count: int
    n: int
    log_message_count: float
    log_factorial: float
    rate: float
    rate_lower: float
    ground_size_exponent: float  # log_q(p)
    code_rate: float  # log_p(|C|) / block length

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def as_text(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in self.as_dict().items())


def rate_report(params: UlamCodeParams) -> RateReport:
    """
    Exact rate accounting: log(M)/log(n!) from the exact message count
    (via its factorization |C|^ell, so no big-int overflow) against the
    guaranteed lower bound log_q(|C|)/n.
    """
    n, q = params.n, params.q
    log_m = params.ell * math.log(params.code.size)
    log_fact = math.fsum(math.log(i) for i in range(2, n + 1))
    bounds = code_bounds(params)
    rate = log_m / log_fact if log_fact else float("inf")
    return RateReport(
        message_count=params.message_count,
        n=n,
        log_message_count=log_m,
        log_factorial=log_fact,
        rate=rate,
        rate_lower=bounds.rate_lower,
        ground_size_exponent=math.log(params.p) / math.log(q),
        code_rate=math.log(params.code.size) / (math.log(params.p) * params.code.block_length),
    )


def report_json(report, timings: bool = True) -> str:
    return json.dumps(report.as_dict(timings), indent=2, sort_keys=True)
