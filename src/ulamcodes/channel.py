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

from .perm_core import validate_permutation


@dataclass(frozen=True)
class RelocationTrace:
    """Moves applied in order; replaying them reproduces the corruption."""

    moves: tuple[tuple[int, int], ...]
    seed: int | None = None

    def replay(self, word: Sequence[int]) -> tuple[int, ...]:
        """Apply the moves to word; a move outside [0, len(word)) raises ValueError."""
        out = list(word)
        n = len(out)
        for index, (src, dst) in enumerate(self.moves):
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"move {index} ({src}, {dst}) is out of range for length {n}"
                )
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
    if not 0 <= t <= n:
        raise ValueError(f"relocation count must be in 0..{n}, got {t}")
    rng = random.Random(seed)
    out = list(pi)
    moves = []
    for _ in range(t):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        out.insert(dst, out.pop(src))
        moves.append((src, dst))
    return tuple(out), RelocationTrace(moves=tuple(moves), seed=seed)


def random_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Uniform permutation of [n] by a seeded Fisher-Yates shuffle."""
    if n < 1:
        raise ValueError(f"permutation length must be >= 1, got {n}")
    rng = random.Random(seed)
    word = list(range(n))
    rng.shuffle(word)
    return tuple(word)


# ------------------------------------------------------------ text interface
# One move per line: "src dst".

def save_trace(path: str, trace: RelocationTrace) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for src, dst in trace.moves:
            fh.write(f"{src} {dst}\n")


def load_trace(path: str) -> RelocationTrace:
    moves = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2 or not all(tok.isdigit() for tok in tokens):
                raise ValueError(
                    f"{path}:{lineno}: expected two non-negative positions "
                    f"'src dst', got {line.strip()!r}"
                )
            moves.append((int(tokens[0]), int(tokens[1])))
    return RelocationTrace(moves=tuple(moves))
