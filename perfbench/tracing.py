"""
The traced run: a per-module split of where encode, decode and audit
time goes.

Span recorders exist only in this run. They sit at the calls that cross
module boundaries and use public seams where the library has them:

* a delegating ``BlockCode`` passed through ``UlamCodeParams`` times
  ``encode_index`` and ``decode_word`` (block_codes);
* a counting ``Field`` subclass passed to ``ReedSolomonCode`` counts
  every field method call, nested ones included (fields);
* the module-level names ``ulam_code.ulam_distance``,
  ``ulam_code.apply_stage`` and ``verify.encode`` are rebound to timing
  wrappers for the duration of the traced loop and restored afterwards.

Spans are attributed to the top-level operation running when they
occur (encode, decode or audit), so a layer's time is reported per
operation of that kind. The traced loop must return exactly the outputs
of the untraced loop, which runs first in the same process and also
gives the tracing overhead.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager

import harness
from harness import Builder, Timer, Workload, clock
from ulamcodes import ulam_code, verify
from ulamcodes.block_codes import BlockCode, DecodeFailure, ReedSolomonCode
from ulamcodes.fields import Field

SCORE = "perm_core.ulam_distance"  # q-length scoring calls of the group guess
FINAL = "perm_core.final_check"  # the one n-length distance per decode
DECODE_WORD = "block_codes.decode_word"
DECODE_FAILURES = "block_codes.decode_failures"
ENCODE_INDEX = "block_codes.encode_index"
APPLY_STAGE = "ulam_code.apply_stage"
AUDIT_ENCODE = "verify.encode"
DECODE_CHILDREN = (SCORE, FINAL, DECODE_WORD, ENCODE_INDEX, APPLY_STAGE)


class Recorder(Timer):
    """Span seconds and call counts keyed by (top-level operation, span name)."""

    def __init__(self, n: int):
        self.n = n
        self.op: str | None = None
        self.seconds: dict[tuple[str | None, str], float] = defaultdict(float)
        self.calls: dict[tuple[str | None, str], int] = defaultdict(int)
        self.field_ops = 0  # bumped by CountingField
        self.field_ops_by_op: dict[str, int] = defaultdict(int)

    def call(self, op: str, fn, *args, **kwargs):
        self.op = op
        ops_before = self.field_ops
        out, t0, dt = super().call(op, fn, *args, **kwargs)
        self.seconds[op, op] += dt
        self.calls[op, op] += 1
        self.field_ops_by_op[op] += self.field_ops - ops_before
        self.op = None
        return out, t0, dt

    def span(self, name: str, fn, *args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            self.seconds[self.op, name] += clock() - t0
            self.calls[self.op, name] += 1

    def count(self, name: str) -> None:
        self.calls[self.op, name] += 1


class TracedCode(BlockCode):
    """Delegates to a block code and times its index codecs."""

    def __init__(self, inner: BlockCode, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder
        self.alphabet_size = inner.alphabet_size
        self.block_length = inner.block_length
        self.min_distance = inner.min_distance
        self.decoding_radius = inner.decoding_radius
        self.size = inner.size

    def __repr__(self) -> str:
        return f"TracedCode({self.inner!r})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        return self.recorder.span(ENCODE_INDEX, self.inner.encode_index, x)

    def decode_word(self, word):
        out = self.recorder.span(DECODE_WORD, self.inner.decode_word, word)
        if isinstance(out, DecodeFailure):
            self.recorder.count(DECODE_FAILURES)
        return out


class CountingField(Field):
    """A Field that counts every public method call into its recorder."""

    def __init__(self, order: int, recorder: Recorder):
        self.recorder = recorder
        super().__init__(order)

    def check(self, a):
        self.recorder.field_ops += 1
        return Field.check(self, a)

    def add(self, a, b):
        self.recorder.field_ops += 1
        return Field.add(self, a, b)

    def neg(self, a):
        self.recorder.field_ops += 1
        return Field.neg(self, a)

    def sub(self, a, b):
        self.recorder.field_ops += 1
        return Field.sub(self, a, b)

    def mul(self, a, b):
        self.recorder.field_ops += 1
        return Field.mul(self, a, b)

    def inv(self, a):
        self.recorder.field_ops += 1
        return Field.inv(self, a)

    def div(self, a, b):
        self.recorder.field_ops += 1
        return Field.div(self, a, b)

    def pow(self, a, e):
        self.recorder.field_ops += 1
        return Field.pow(self, a, e)


class TracedBuilder(Builder):
    """Builds the instance with the recorders in place, timing each constructor by module."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.seconds: dict[str, float] = defaultdict(float)

    def _timed(self, module: str, fn, *args):
        t0 = clock()
        out = fn(*args)
        self.seconds[module] += clock() - t0
        return out

    def gv(self, alphabet, length, d):
        return self._timed("block_codes", super().gv, alphabet, length, d)

    def identity(self, alphabet, length):
        return self._timed("block_codes", super().identity, alphabet, length)

    def rs(self, order, n, k):
        field = self._timed("fields", CountingField, order, self.recorder)
        return self._timed("block_codes", ReedSolomonCode, field, n, k)

    def concat(self, outer, inner):
        return self._timed("block_codes", super().concat, outer, inner)

    def xor(self, q, code):
        return self._timed("ground_set", super().xor, q, code)

    def params(self, q, ell, ground, code):
        return super().params(q, ell, ground, TracedCode(code, self.recorder))


@contextmanager
def installed(recorder: Recorder):
    """Rebind the module-level names ulam_code and verify call across modules."""
    saved = (ulam_code.ulam_distance, ulam_code.apply_stage, verify.encode)
    ulam_distance, apply_stage, encode = saved

    def traced_ulam_distance(a, b):
        return recorder.span(FINAL if len(a) == recorder.n else SCORE, ulam_distance, a, b)

    def traced_apply_stage(pi, stage, shuffler, ground):
        return recorder.span(APPLY_STAGE, apply_stage, pi, stage, shuffler, ground)

    def traced_encode(x, params):
        return recorder.span(AUDIT_ENCODE, encode, x, params)

    ulam_code.ulam_distance = traced_ulam_distance
    ulam_code.apply_stage = traced_apply_stage
    verify.encode = traced_encode
    try:
        yield
    finally:
        ulam_code.ulam_distance, ulam_code.apply_stage, verify.encode = saved


def per_layer(
    w: Workload, rec: Recorder, builds: list[TracedBuilder], setups, relocs, plain, traced
) -> dict[str, tuple[float, str]]:
    """
    The per-layer metrics from one traced loop (`traced`) and its untraced
    twin (`plain`). Span times are scaled to reference seconds by the
    ratio their top-level calls were scaled by.
    """
    primary = "decode" if traced.op_name == "decode" else "audit"
    scale = {"decode": 0.0, "audit": 0.0, primary: _ratio(traced.op), "encode": _ratio(traced.encode)}

    def ms_per(op: str, *names: str) -> float:
        done = rec.calls[op, op]
        return 1000 * scale[op] * sum(rec.seconds[op, name] for name in names) / done if done else 0.0

    def count_per(op: str, count: float) -> float:
        done = rec.calls[op, op]
        return count / done if done else 0.0

    def setup(module: str) -> float:
        # each build's constructor times, scaled like that build's total
        return statistics.median(
            b.seconds[module] * ref / raw for b, ref, raw in zip(builds, setups.ref, setups.raw)
        )

    pairs = rec.calls["audit", "audit"] * w.audit_pairs
    audit_self = rec.seconds["audit", "audit"] - rec.seconds["audit", AUDIT_ENCODE]
    words = rec.calls["decode", DECODE_WORD]
    return {
        "ulam_code.group_guess_ms": (
            ms_per("decode", "decode") - ms_per("decode", *DECODE_CHILDREN),
            "ms",
        ),
        "perm_core.ulam_distance_calls": (count_per("decode", rec.calls["decode", SCORE]), "count"),
        "perm_core.ulam_distance_ms": (ms_per("decode", SCORE), "ms"),
        "perm_core.final_check_ms": (ms_per("decode", FINAL), "ms"),
        "block_codes.decode_word_ms": (ms_per("decode", DECODE_WORD), "ms"),
        "block_codes.decode_failure_frac": (
            rec.calls["decode", DECODE_FAILURES] / words if words else 0.0,
            "frac",
        ),
        "fields.ops_per_decode": (count_per("decode", rec.field_ops_by_op["decode"]), "count"),
        "ulam_code.reapply_stage_ms": (ms_per("decode", ENCODE_INDEX, APPLY_STAGE), "ms"),
        "ulam_code.apply_stage_ms": (ms_per("encode", APPLY_STAGE), "ms"),
        "block_codes.encode_index_ms": (ms_per("encode", ENCODE_INDEX), "ms"),
        "fields.ops_per_encode": (count_per("encode", rec.field_ops_by_op["encode"]), "count"),
        "verify.audit_self_ms": (1000 * scale["audit"] * audit_self / pairs if pairs else 0.0, "ms"),
        "verify.encode_calls_per_pair": (
            rec.calls["audit", AUDIT_ENCODE] / pairs if pairs else 0.0,
            "count",
        ),
        "channel.relocate_ms": (1000 * statistics.mean(relocs) if relocs else 0.0, "ms"),
        "ground_set.certify_s": (setup("ground_set"), "s"),
        "block_codes.construct_s": (setup("block_codes"), "s"),
        "fields.construct_s": (setup("fields"), "s"),
        "trace.overhead_frac": (
            statistics.median(traced.op.ref) / statistics.median(plain.op.ref) - 1,
            "frac",
        ),
    }


def _ratio(m: harness.Measured) -> float:
    """Reference seconds per unscaled second over a set of timed calls."""
    return sum(m.ref) / sum(m.raw) if m.raw else 0.0


def decode_shares(rec: Recorder) -> dict[str, float]:
    """Share of traced decode time per layer, to check the workload design."""
    total = rec.seconds["decode", "decode"]
    if not total:
        return {}
    parts = {name: rec.seconds["decode", name] for name in (SCORE, FINAL, DECODE_WORD)}
    parts["ulam_code.reapply_stage"] = rec.seconds["decode", ENCODE_INDEX] + rec.seconds["decode", APPLY_STAGE]
    parts["ulam_code.group_guess"] = total - sum(parts.values())
    return {name: round(s / total, 4) for name, s in parts.items()}


def audit_shares(rec: Recorder) -> dict[str, float]:
    """Share of traced audit time spent encoding versus in verify itself."""
    total = rec.seconds["audit", "audit"]
    if not total:
        return {}
    encode_share = rec.seconds["audit", AUDIT_ENCODE] / total
    return {"verify.encode": round(encode_share, 4), "verify.self": round(1 - encode_share, 4)}


def run_traced(w: Workload, seed: int, seconds: float, *, setup_reps: int | None = None) -> dict:
    """
    Untraced loop then traced loop, each for half of `seconds`, over the
    same inputs; the per-layer metrics come from the traced one.
    """
    params = w.build(Builder())
    rec = Recorder(params.n)
    builds: list[TracedBuilder] = []

    def build_traced():
        builds.append(TracedBuilder(rec))
        return w.build(builds[-1])

    setups, traced_params = harness.time_setups(build_traced, setup_reps)
    inputs = harness.make_inputs(w, params, seed)
    plain = harness.run_loop(w, params, inputs, seconds / 2)
    with installed(rec):
        traced = harness.run_loop(w, traced_params, inputs, seconds / 2, timer=rec)
    failed = plain.failed + traced.failed + (plain.digest != traced.digest)
    detail = {
        **harness.describe(w, params),
        "seed": seed,
        **harness.run_metadata(),
        **harness.loop_summary(traced),
        "untraced_digest": plain.digest,
        "decode_shares": decode_shares(rec),
        "audit_shares": audit_shares(rec),
    }
    return {
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": per_layer(w, rec, builds, setups, inputs.relocate_seconds, plain, traced),
        "detail": detail,
    }
