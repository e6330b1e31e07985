"""
Machine-speed calibration for the benchmark's timings.

On a small shared machine the speed at which the interpreter runs drifts
by up to 2x over seconds to minutes, from load the benchmark does not
control (other tenants on the same cores). Both the library and any
other pure-Python code slow down together: timed next to each other in
3 s bins over two minutes, encode or decode alone had a quartile spread
of ~20%, and its ratio to the reference kernel below one of 5-6%.

So every timed operation is reported in reference seconds: its measured
time scaled by REFERENCE_SECONDS over the kernel's time around it. The
kernel is timed between operations, at most every INTERVAL_S; the time
around an operation is the median of the WINDOW kernel timings nearest
to the operation's midpoint. A reference second is the time the
operation takes on a machine that runs the kernel in exactly
REFERENCE_SECONDS. The raw times are reported beside the scaled ones.

Times are the thread's CPU time. The library does no I/O and never
waits, so CPU time is its whole cost; it leaves out the time the virtual
CPU was taken away (preemption, hypervisor steal), which a short kernel
timing mostly escapes but a long operation does not.

The kernel imports nothing from the library, so no change to the
library can move it; it mixes the operations the library spends its
time on (small method calls, dict and tuple building, bisect-based LIS,
list indexing, small-integer arithmetic). Its method-call part keeps the
ratio steadier for the call-heavy encode and decode paths than the rest
alone does.
"""
from __future__ import annotations

import random
import statistics
import time
from array import array
from bisect import bisect_left

clock = time.thread_time

REFERENCE_SECONDS = 300e-6
INTERVAL_S = 0.01
WINDOW = 6

_PERM = list(range(512))
random.Random(20240131).shuffle(_PERM)
_TABLE = [(7 * i + 3) % 1024 for i in range(1024)]


class _Modulus:
    """Small-object method calls, as in the field arithmetic."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        self.m = m

    def add(self, a: int, b: int) -> int:
        return (a ^ b) % self.m

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.m


def reference_kernel(perm: list[int] = _PERM, table: list[int] = _TABLE) -> int:
    """A fixed piece of pure-Python work, about 0.3 ms."""
    f = _Modulus(65521)
    acc = 1
    for x in perm[:300]:
        acc = f.add(f.mul(acc, 31), x)
    pos = {s: i for i, s in enumerate(perm)}
    piles: list[int] = []
    for s in perm:
        v = pos[s]
        j = bisect_left(piles, v)
        if j == len(piles):
            piles.append(v)
        else:
            piles[j] = v
    row = tuple(table[(a * 7 + b) & 1023] for a, b in zip(perm, reversed(perm)))
    for a in row[:256]:
        acc = (acc * 31 + a) % 65521
    shuffled = tuple(perm[i ^ 5] for i in range(len(perm)))
    return len(piles) + acc + len(set(row)) + len(set(shuffled))


class Timings:
    """Start and duration (thread CPU seconds) of each timed call, in call order."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")

    def add(self, start: float, seconds: float) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.seconds)


class Calibration:
    """Kernel timings taken between operations, to scale them to reference seconds."""

    def __init__(self):
        self.kernel = Timings()
        self.burst(WINDOW)

    def measure(self) -> None:
        t0 = clock()
        reference_kernel()
        self.kernel.add(t0, clock() - t0)

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.measure()

    def tick(self) -> None:
        """Time the kernel if INTERVAL_S has passed since it was last timed."""
        if clock() - self.kernel.starts[-1] >= INTERVAL_S:
            self.measure()

    def reference(self, timed: Timings) -> list[float]:
        """Each call of `timed` in reference seconds."""
        mids = [s + d / 2 for s, d in zip(self.kernel.starts, self.kernel.seconds)]
        kernel = self.kernel.seconds
        windows = [
            statistics.median(kernel[lo : lo + WINDOW]) for lo in range(len(kernel) - WINDOW + 1)
        ]
        out = []
        for start, seconds in zip(timed.starts, timed.seconds):
            i = bisect_left(mids, start + seconds / 2)
            lo = min(max(i - WINDOW // 2, 0), len(windows) - 1)
            out.append(seconds * REFERENCE_SECONDS / windows[lo])
        return out
