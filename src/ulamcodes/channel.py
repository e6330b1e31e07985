"""
Relocation noise: corrupt a permutation by t random remove-and-reinsert
moves, the elementary operation of the Ulam metric, so the corrupted
word is guaranteed within Ulam distance t of the original.

Everything is deterministic given the seed; traces record each move as
(source position, target position) and can replay the corruption exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .perm_core import (
    _at_least, _check_ints, identity, read_int_rows, validate_permutation, write_int_rows
)


@dataclass(frozen=True)
class RelocationTrace:
    """Moves applied in order; replaying them reproduces the corruption."""

    moves: tuple[tuple[int, int], ...]

    def replay(self, word: Sequence[int]) -> tuple[int, ...]:
        """
        Apply the moves to word. Positions are read by the integer rule, so
        one outside [0, len(word)) or not an integer raises ParameterError.
        """
        out = list(word)
        n = len(out)
        for index, move in enumerate(self.moves):
            src, dst = _check_ints(move, n, f"move {index} position")
            out.insert(dst, out.pop(src))
        return tuple(out)


def relocate(
    pi: Sequence[int], t: int, seed: int
) -> tuple[tuple[int, ...], RelocationTrace]:
    """
    Apply t uniformly random relocations (pop a random position, insert
    at a random position). Moves may cancel, so the resulting Ulam
    distance is at most t, not necessarily equal.
    """
    validate_permutation(pi)
    n = len(pi)
    t = _at_least(t, 0, "t")
    if t > n:
        raise ValueError(f"relocation count must be in 0..{n}, got {t}")
    rng = random.Random(seed)
    trace = RelocationTrace(tuple((rng.randrange(n), rng.randrange(n)) for _ in range(t)))
    return trace.replay(pi), trace


def random_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Uniform permutation of [n] by a seeded Fisher-Yates shuffle."""
    word = list(identity(n))
    rng = random.Random(seed)
    rng.shuffle(word)
    return tuple(word)


# ------------------------------------------------------------ text interface
# One move per line: "src dst".

def _check_move(row: tuple[int, ...]) -> None:
    if len(row) != 2 or min(row) < 0:
        raise ValueError(f"expected two non-negative positions 'src dst', got {row}")


def save_trace(path: str, trace: RelocationTrace) -> None:
    write_int_rows(path, trace.moves)


def load_trace(path: str) -> RelocationTrace:
    """The trace in a file written by save_trace."""
    return RelocationTrace(tuple(read_int_rows(path, _check_move)))
