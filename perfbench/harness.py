"""
Workloads, timing loops and correctness checks of the ulamcodes benchmark.

Every workload builds one code instance through the library's public
constructors, generates all of its inputs from the seed before any
timing starts, and then runs a closed loop with a single client: the
next operation starts when the previous one has returned. The program
only ever sees the generated inputs.

Every output is checked against the decoder contract while it is timed:

* ``encode(x)`` must equal the word encoded while the inputs were made;
* a ``DecodeResult`` must carry the sent message, the sent codeword, and
  lie strictly within ``distance_bound / 4`` of the received word;
* a ``DecodeFailure`` is correct only when the received word is not
  strictly inside ``decode_guarantee`` of the sent codeword;
* a decode workload must decode at least one of its inputs;
* a sampled audit must pass, with the asked-for pair count;
* nothing may raise.

Anything else counts as a failed operation. The distances these checks
use are worked out here (``reference_distance``), never by the library
kernel under test. The first pass over the inputs is hashed (timings
excluded) into an output digest, and later passes must reproduce the
first pass exactly.

Timings are thread CPU time reported in reference seconds (see
calibration.py), with the unscaled figures beside them in the run's
detail line. Only the run length is wall-clock time.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import ulamcodes as uc  # noqa: E402
from calibration import Calibration, Timings, clock  # noqa: E402
from ulamcodes import DecodeFailure, UlamCodeParams, audit_pairwise, decode, encode  # noqa: E402
from ulamcodes.perm_core import validate_permutation  # noqa: E402

# A setup is repeated until both limits are reached (or SETUP_MAX_REPS),
# and its median reported: one GV search takes ~0.3 s, one RS set-up ~5 ms.
# A single GV search's scaled time swings by +-20% within a run; the
# median of many builds takes most of that out of setup_s.
SETUP_MIN_REPS = 31
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 200

# Throughput is the median over this many consecutive windows of calls, so
# a stall inside one window does not move it.
RATE_WINDOWS = 20


# ------------------------------------------------------------------ instances

class Builder:
    """Instance constructors of the public API, called as a user would."""

    def gv(self, alphabet: int, length: int, d: int):
        return uc.greedy_gv_code(alphabet, length, d)

    def identity(self, alphabet: int, length: int):
        return uc.identity_code(alphabet, length)

    def rs(self, order: int, n: int, k: int):
        return uc.rs_code(order, n, k)

    def concat(self, outer, inner):
        return uc.concat_code(outer, inner)

    def xor(self, q: int, code):
        return uc.xor_ground_set(q, code)

    def params(self, q: int, ell: int, ground, code) -> UlamCodeParams:
        return UlamCodeParams(q=q, ell=ell, ground=ground, code=code)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "decode": encode -> relocate -> decode; "audit": sampled audits + encodes
    build: Callable[[Builder], UlamCodeParams]
    pool: int  # inputs per pass; the digest covers exactly one pass
    audit_pairs: int = 0  # sampled pairs per audit_pairwise call
    audit_encodes: int = 0  # stream encodes after each audit call


# Why each workload exists, with its instance in short, is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode-gv64",
            kind="decode",
            build=lambda b: b.params(8, 2, b.xor(8, b.gv(2, 3, 2)), b.gv(4, 8, 5)),
            pool=512,
        ),
        Workload(
            name="decode-rs1024",
            kind="decode",
            build=lambda b: b.params(32, 2, b.xor(32, b.identity(2, 5)), b.rs(32, 32, 16)),
            pool=100,
        ),
        Workload(
            name="audit-concat512",
            kind="audit",
            build=lambda b: b.params(
                8, 3, b.xor(8, b.gv(2, 3, 2)), b.concat(b.rs(16, 16, 8), b.gv(4, 4, 3))
            ),
            pool=100,
            audit_pairs=16,
            audit_encodes=8,
        ),
    )
}


def noise_limit(params: UlamCodeParams) -> int:
    """Largest relocation count drawn: ceil(1.5 * decode_guarantee)."""
    return math.ceil(Fraction(3, 2) * params.decode_guarantee)


def describe(w: Workload, params: UlamCodeParams) -> dict:
    """The instance parameters recorded with every run."""
    out = {
        "workload": w.name,
        "q": params.q,
        "ell": params.ell,
        "n": params.n,
        "p": params.p,
        "ground": repr(params.ground),
        "code": repr(params.code),
        "distance_bound": params.distance_bound,
        "decode_guarantee": str(params.decode_guarantee),
        "pool": w.pool,
    }
    if w.kind == "decode":
        out["noise"] = f"t uniform over 0..{noise_limit(params)}, stratified, seeded order"
    else:
        out["audit_pairs_per_call"] = w.audit_pairs
        out["encodes_per_call"] = w.audit_encodes
    return out


@dataclass
class Measured:
    """Durations of timed calls in reference seconds, and unscaled."""

    ref: list[float]
    raw: list[float]


def measured(cal: Calibration, timings: Timings) -> Measured:
    return Measured(cal.reference(timings), list(timings.seconds))


def time_setups(build: Callable[[], UlamCodeParams], reps: int | None = None):
    """
    Build the instance from scratch repeatedly, `reps` times or by the
    SETUP_* limits, with kernel timings on both sides of each build;
    returns the builds' durations and the last instance.
    """
    cal = Calibration()
    times = Timings()
    while True:
        t0 = clock()
        params = build()
        times.add(t0, clock() - t0)
        cal.burst(3)
        if reps is not None:
            done = len(times) >= reps
        else:
            done = len(times) >= SETUP_MAX_REPS or (
                len(times) >= SETUP_MIN_REPS and sum(times.seconds) >= SETUP_MIN_SECONDS
            )
        if done:
            return measured(cal, times), params


# --------------------------------------------------------------------- inputs

def reference_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """
    Ulam distance of two permutations of the same symbols: n minus their
    longest common subsequence, which is the longest increasing run of
    b's symbols by their positions in a (patience sorting). Kept apart
    from the library so a defect in its distance kernel cannot pass the
    decode checks.
    """
    position = {s: i for i, s in enumerate(a)}
    piles: list[int] = []
    for s in b:
        v = position[s]
        j = bisect_left(piles, v)
        if j == len(piles):
            piles.append(v)
        else:
            piles[j] = v
    return len(a) - len(piles)


@dataclass(frozen=True)
class DecodeInput:
    message: int
    word: tuple[int, ...]
    received: tuple[int, ...]
    distance: int  # Ulam distance from word to received, by reference_distance


@dataclass(frozen=True)
class Inputs:
    decodes: tuple[DecodeInput, ...]
    audit_seeds: tuple[int, ...]
    stream: tuple[tuple[int, tuple[int, ...]], ...]  # (message, word) for the encode stream
    relocate_seconds: tuple[float, ...]  # reference seconds


def make_inputs(w: Workload, params: UlamCodeParams, seed: int) -> Inputs:
    """Everything the timed loop feeds the program, from the seed alone."""
    rng = random.Random(seed)
    cal = Calibration()
    relocs = Timings()
    m = params.message_count
    decodes: list[DecodeInput] = []
    seeds: tuple[int, ...] = ()
    stream: list[tuple[int, tuple[int, ...]]] = []
    if w.kind == "decode":
        # every noise level equally often, so the share of inputs beyond the
        # guarantee is the same for every seed
        limit = noise_limit(params)
        levels = [i % (limit + 1) for i in range(w.pool)]
        rng.shuffle(levels)
        for t in levels:
            x = rng.randrange(m)
            word = encode(x, params)
            validate_permutation(word)
            cal.tick()
            t0 = clock()
            received, _ = uc.relocate(word, t, rng.getrandbits(63))
            relocs.add(t0, clock() - t0)
            decodes.append(DecodeInput(x, word, received, reference_distance(word, received)))
    else:
        seeds = tuple(rng.getrandbits(63) for _ in range(w.pool))
        for _ in range(w.pool * w.audit_encodes):
            x = rng.randrange(m)
            word = encode(x, params)
            validate_permutation(word)
            stream.append((x, word))
    return Inputs(tuple(decodes), seeds, tuple(stream), tuple(cal.reference(relocs)))


# ------------------------------------------------------------------ checking

class Raised:
    """Stands for an exception raised by the program, which is always wrong."""

    def __init__(self, exc: Exception):
        self.name = type(exc).__name__

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name

    def __repr__(self) -> str:
        return f"raised:{self.name}"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # any raise is a contract violation, recorded, not fatal
        return Raised(exc)


def decode_ok(item: DecodeInput, result, params: UlamCodeParams) -> bool:
    if isinstance(result, DecodeFailure):
        return not Fraction(item.distance) < params.decode_guarantee
    if isinstance(result, Raised):
        return False
    return (
        result.message == item.message
        and result.codeword == item.word
        and 4 * item.distance < params.distance_bound
    )


def audit_ok(report, params: UlamCodeParams, pairs: int) -> bool:
    if isinstance(report, Raised):
        return False
    return (
        report.passed
        and report.pairs_checked == pairs
        and report.min_distance is not None
        and report.min_distance >= params.distance_bound
    )


def output_record(result) -> str:
    """Timing-free text of one output, fed to the digest."""
    if isinstance(result, tuple):
        return " ".join(map(str, result))
    if isinstance(result, DecodeFailure):
        return "failure:" + result.reason
    if isinstance(result, uc.DecodeResult):
        return f"message:{result.message} " + " ".join(map(str, result.codeword))
    if isinstance(result, Raised):
        return repr(result)
    return json.dumps(result.as_dict(timings=False), sort_keys=True)


# ----------------------------------------------------------------- the loops

@dataclass
class LoopResult:
    op_name: str  # "decode" or "audit pair"
    ops_per_call: int
    op: Measured  # per call of the primary operation
    encode: Measured
    calibration: list[float]  # the reference kernel's unscaled times
    peak_rss_mb: float  # read when the loop ends
    inputs: int  # primary-operation inputs per pass
    attempted: int
    failed: int
    digest: str
    successes: int  # decodes that returned the sent message, first pass


class Timer:
    """Times one top-level call; the traced run substitutes a span recorder."""

    def call(self, op: str, fn, *args, **kwargs):
        """Returns the output, the start time and the seconds taken."""
        t0 = clock()
        out = attempt(fn, *args, **kwargs)
        return out, t0, clock() - t0


def run_loop(
    w: Workload, params: UlamCodeParams, inputs: Inputs, seconds: float, timer: Timer | None = None
) -> LoopResult:
    """
    Closed loop over the inputs, pass after pass, until `seconds` have
    passed and at least one full pass is done. Garbage collection runs
    as it would in use; the loop starts from a collected heap.
    """
    timer = timer or Timer()
    cal = Calibration()
    op_t, enc_t = Timings(), Timings()
    digest = hashlib.sha256()
    attempted = failed = successes = 0
    first: list = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    if w.kind == "decode":
        pool = inputs.decodes
        n = len(pool)
        i = 0
        while i < n or time.perf_counter() < deadline:
            k = i % n
            item = pool[k]
            cal.tick()
            word, t0, dt = timer.call("encode", encode, item.message, params)
            enc_t.add(t0, dt)
            result, t0, dt = timer.call("decode", decode, item.received, params)
            op_t.add(t0, dt)
            attempted += 2
            failed += word != item.word
            good = decode_ok(item, result, params)
            if i < n:
                first.append(result)
                digest.update((output_record(word) + "\n" + output_record(result) + "\n").encode())
                successes += good and not isinstance(result, DecodeFailure)
            else:
                good = good and result == first[k]
            failed += not good
            i += 1
        op_name, per = "decode", 1
    else:
        seeds, stream = inputs.audit_seeds, inputs.stream
        n, pairs, e = len(seeds), w.audit_pairs, w.audit_encodes
        j = 0
        while j < n or time.perf_counter() < deadline:
            k = j % n
            cal.tick()
            report, t0, dt = timer.call("audit", audit_pairwise, params, sample_pairs=pairs, seed=seeds[k])
            op_t.add(t0, dt)
            attempted += 1
            good = audit_ok(report, params, pairs)
            if j < n:
                first.append(report)
                digest.update((output_record(report) + "\n").encode())
            else:
                good = good and output_record(report) == output_record(first[k])
            failed += not good
            for x, expected in stream[k * e : (k + 1) * e]:
                cal.tick()
                word, t0, dt = timer.call("encode", encode, x, params)
                enc_t.add(t0, dt)
                attempted += 1
                failed += word != expected
                if j < n:
                    digest.update((output_record(word) + "\n").encode())
            j += 1
        op_name, per = "audit pair", pairs
    # a decoder that fails every input breaks the contract even if each
    # failure looked allowed: about two thirds are inside the guarantee
    failed += op_name == "decode" and successes == 0
    rss = peak_rss_mb()  # before the timings are converted, which allocates
    return LoopResult(op_name, per, measured(cal, op_t), measured(cal, enc_t), list(cal.kernel.seconds),
                      rss, n, attempted, failed, digest.hexdigest(), successes)


# ------------------------------------------------------------------- metrics

def windowed_rate(seconds: list[float], ops_per_call: int) -> float:
    """Operations per second: the median over RATE_WINDOWS runs of consecutive calls."""
    size = max(1, len(seconds) // RATE_WINDOWS)
    return statistics.median(
        ops_per_call * size / sum(seconds[i : i + size])
        for i in range(0, len(seconds) - size + 1, size)
    )


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(setups: Measured, loop: LoopResult) -> dict[str, tuple[float, str]]:
    """All timings in reference seconds."""
    per = loop.ops_per_call
    op_ms = [1000 * s / per for s in loop.op.ref]
    enc_ms = [1000 * s for s in loop.encode.ref]
    return {
        "setup_s": (statistics.median(setups.ref), "s"),
        "ops_per_s": (windowed_rate(loop.op.ref, per), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (percentile(op_ms, 90), "ms"),
        "encode_per_s": (windowed_rate(loop.encode.ref, 1), "1/s"),
        "encode_p50_ms": (statistics.median(enc_ms), "ms"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }


def raw_figures(setups: Measured, loop: LoopResult) -> dict[str, float]:
    """The same medians unscaled, and the machine speed seen."""
    return {
        "setup_s": statistics.median(setups.raw),
        "op_p50_ms": 1000 * statistics.median(loop.op.raw) / loop.ops_per_call,
        "encode_p50_ms": 1000 * statistics.median(loop.encode.raw),
        "reference_kernel_p50_ms": 1000 * statistics.median(loop.calibration),
    }


def run_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "clock": "time.thread_time, scaled to reference seconds",
    }


def loop_summary(loop: LoopResult) -> dict:
    """The numbers behind the metrics, and the outcome counts, of one loop."""
    out = {
        "primary_op": loop.op_name,
        "samples": {
            "inputs": loop.inputs,
            "calls": len(loop.op.ref),
            "ops_per_call": loop.ops_per_call,
            "encode_calls": len(loop.encode.ref),
            "calibrations": len(loop.calibration),
        },
        "attempted": loop.attempted,
        "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "digest": loop.digest,
    }
    if loop.op_name == "decode":
        out["decode_success_frac"] = loop.successes / loop.inputs
    return out


def run_untraced(w: Workload, seed: int, seconds: float, *, setup_reps: int | None = None) -> dict:
    """The end-to-end run: set-up timed several times, then the timed loop."""
    builder = Builder()
    setups, params = time_setups(lambda: w.build(builder), setup_reps)
    inputs = make_inputs(w, params, seed)
    loop = run_loop(w, params, inputs, seconds)
    detail = {**describe(w, params), "seed": seed, **run_metadata(), **loop_summary(loop)}
    detail["samples"]["setup"] = len(setups.ref)
    detail["unscaled"] = raw_figures(setups, loop)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": end_to_end(setups, loop),
        "detail": detail,
    }
