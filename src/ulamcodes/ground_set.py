"""
Ground permutation sets: small sets of permutations of [q] with a
certified maximum pairwise LCS.

Two constructions are provided. The XOR route takes a binary block code
G of length log2(q) and maps each codeword g to the permutation
sigma_g[i] = i XOR g; any two codewords agreeing on |I| bit positions
yield permutations with LCS at most 2^|I|, so G's minimum distance caps
the pairwise LCS at q / 2^dmin. The brute-force route greedily scans
at most sample_budget permutations of [q] (lexicographically, or random
samples under a seed) keeping those whose LCS with every kept permutation
stays within a bound, capped at q - 1. Two permutations of [q] are equal
exactly when their LCS is q, so the search never admits a repeat, and a
set whose certified maximum LCS is q is refused as holding one.

GroundSet(q, perms) is the one way to make a set, and it certifies
exhaustively, so no set exists uncertified. Validating a member
builds its position table (its inverse) in the same pass; each pair then
costs one LIS pass of the other permutation through it, as in the
pairwise audit. The pairwise LCS table is kept, with a
(q+1) x (q+1) table of gaps |q - d - l|; the decoder's group guess reads
its triangle-inequality bounds through the two. Each permutation also
gets an operator.itemgetter, so a shuffle stage reorders a group with
one C call. No table changes afterwards.

GROUND_SET_LIMIT bounds both q and p, so no table holds more than
(GROUND_SET_LIMIT + 1)^2 entries: _check_size refuses a larger q before
anything of size q is built, a larger set before any pair is certified,
and a search the moment it would keep one more member.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .block_codes import BlockCode
from .errors import ParameterError
from .perm_core import (
    _index_ints,
    _lis_length,
    from_digits,
    inverse,
    read_int_rows,
    validate_permutation,
    write_int_rows,
)

GROUND_SET_LIMIT = 1024


def _check_size(q: int, p: int = 1) -> None:
    """Refuse a set of p permutations of [q] when p or q is above GROUND_SET_LIMIT."""
    if p > GROUND_SET_LIMIT:
        raise ParameterError(f"ground set of {p} permutations is above the limit {GROUND_SET_LIMIT}")
    if q > GROUND_SET_LIMIT:
        raise ParameterError(f"ground set over [{q}] is above the limit {GROUND_SET_LIMIT}")


@dataclass(frozen=True)
class GroundSet:
    """
    p >= 1 distinct permutations of [q], q >= 2, plus their exact max pairwise LCS.

    q and perms are the only arguments. The constructor validates and
    certifies them and computes every other field, so no figure can be
    passed in, and dataclasses.replace with new perms certifies again.

    >>> GroundSet(4, [(0, 1, 2, 3), (0, 1, 3, 2)])
    GroundSet(q=4, p=2, max_lcs=3)

    certified_max_lcs is the largest LCS over distinct pairs (0 for
    p = 1) and worst_pair the first pair (i, j), i < j, that reaches it.
    separation = q - certified_max_lcs is the least Ulam distance
    between two members (q for p = 1).
    pair_lcs[i][j] is the LCS of perms[i] and perms[j] (q on the
    diagonal); by_first_symbol[s] (by_last_symbol[s]) lists, ascending,
    the indices of the permutations that start (end) with symbol s.
    gathers[c] is itemgetter(*perms[c]): given a group's q contents g it
    returns (g[perms[c][0]], ..., g[perms[c][q-1]]).

    gaps[d][l] = |q - d - l| for d, l in 0..q. Once some rank pattern r
    is known to lie at Ulam distance d from perms[c], the triangle
    inequality puts it at least gaps[d][pair_lcs[c][x]] from perms[x],
    whose distance from perms[c] is q - pair_lcs[c][x]. Rows are indexed
    by the distance itself, so a distance above q raises IndexError
    instead of wrapping round to a row from the end. Looking the gap up
    is faster than computing the abs per entry.
    """

    q: int
    perms: tuple[tuple[int, ...], ...]
    certified_max_lcs: int = field(init=False)
    separation: int = field(init=False, compare=False)
    worst_pair: tuple[int, int] | None = field(init=False)
    pair_lcs: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    by_first_symbol: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    by_last_symbol: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    gathers: tuple[itemgetter, ...] = field(init=False, compare=False, repr=False)
    gaps: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        (q,) = _index_ints((self.q,))
        if q < 2:
            raise ParameterError(f"q must be >= 2, got {q}")
        try:
            perms = tuple(map(tuple, self.perms))
        except TypeError:
            raise ParameterError(f"perms is not an iterable of words: {self.perms!r}") from None
        if not perms:
            # refused before the per-symbol and (q+1) x (q+1) tables are built
            raise ParameterError("ground set is empty")
        _check_size(q, len(perms))
        positions = []
        for word in perms:
            positions.append(validate_permutation(word, "ground permutation"))
            if len(word) != q:
                raise ParameterError(f"ground permutation of length {len(word)}, expected {q}")
        pair_lcs, max_lcs, worst = _pairwise_lcs(perms, positions)
        if max_lcs == q:
            raise ParameterError(f"duplicate ground permutation {perms[worst[1]]!r}")
        by_first, by_last = [[] for _ in range(q)], [[] for _ in range(q)]
        for c, w in enumerate(perms):
            by_first[w[0]].append(c)
            by_last[w[-1]].append(c)
        for name, value in (
            ("q", q), ("perms", perms), ("pair_lcs", pair_lcs),
            ("certified_max_lcs", max_lcs), ("separation", q - max_lcs), ("worst_pair", worst),
            ("by_first_symbol", tuple(map(tuple, by_first))),
            ("by_last_symbol", tuple(map(tuple, by_last))),
            ("gathers", tuple(itemgetter(*w) for w in perms)),
            ("gaps", tuple((*range(q - d, 0, -1), *range(d + 1)) for d in range(q + 1))),
        ):
            object.__setattr__(self, name, value)

    @property
    def p(self) -> int:
        return len(self.perms)

    def __repr__(self) -> str:
        return f"GroundSet(q={self.q}, p={self.p}, max_lcs={self.certified_max_lcs})"


def _pairwise_lcs(perms: Sequence[tuple[int, ...]], positions: Sequence[tuple[int, ...]]):
    """
    The pairwise LCS table of perms, its off-diagonal max and the first
    pair reaching it. perms must be permutations of one [q], and
    positions[i] the inverse of perms[i]: each pair is one LIS of
    perms[j] through positions[i], with no validation of its own.
    """
    table = [[len(w)] * len(perms) for w in perms]
    max_lcs, worst = 0, None
    for i, pos in enumerate(positions):
        for j in range(i + 1, len(perms)):
            l = table[i][j] = table[j][i] = _lis_length(pos, perms[j])
            if l > max_lcs:
                max_lcs, worst = l, (i, j)
    return tuple(map(tuple, table)), max_lcs, worst


def xor_ground_set(q: int, code: BlockCode) -> GroundSet:
    """
    Build {sigma_g : g in code} with sigma_g[i] = i XOR value(g), for q a
    power of two and a binary code of block length log2(q).
    """
    (q,) = _index_ints((q,))
    r = q.bit_length() - 1
    if q < 2 or q != 1 << r:
        raise ParameterError(f"q must be a power of two, got {q}")
    _check_size(q)
    if code.alphabet_size != 2:
        raise ParameterError("XOR construction needs a binary code")
    if code.block_length != r:
        raise ParameterError(f"code length {code.block_length} != log2(q) = {r}")
    values = [from_digits(g, 2) for g in code.codewords()]
    return GroundSet(q, [tuple(i ^ x for i in range(q)) for x in values])


def brute_force_ground_set(
    q: int,
    target_p: int | None,
    max_lcs: int,
    *,
    seed: int | None = None,
    sample_budget: int = 100_000,
) -> GroundSet:
    """
    Greedy search for permutations of [q] with pairwise LCS <= max_lcs.

    Default mode scans permutations in lexicographic order, with a seed
    random samples; either mode draws at most sample_budget (the default
    is above 8! = 40,320). Stops once target_p >= 1 permutations are
    found, or all q! of them; target_p=None keeps everything the greedy
    scan admits. Raises ParameterError if the search ends before target_p
    is reached, or if q or the set would go past GROUND_SET_LIMIT.
    """
    q, max_lcs, sample_budget = _index_ints((q, max_lcs, sample_budget))
    if target_p is not None:
        (target_p,) = _index_ints((target_p,))
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    if max_lcs < 0:
        raise ParameterError(f"max_lcs must be >= 0, got {max_lcs}")
    if target_p is not None and target_p < 1:
        raise ParameterError(f"target_p must be >= 1, got {target_p}")
    _check_size(q, target_p or 1)
    bound = min(max_lcs, q - 1)  # a repeat has LCS q
    everything = math.factorial(q)  # once all are kept, every draw is a repeat
    chosen: list[tuple[int, ...]] = []
    if seed is None:
        candidates: Iterable[tuple[int, ...]] = itertools.permutations(range(q))
    else:
        rng = random.Random(seed)

        def _sampled():
            base = list(range(q))
            while True:
                rng.shuffle(base)
                yield tuple(base)

        candidates = _sampled()

    # range first, so no candidate is drawn past the budget
    for _, word in zip(range(sample_budget), candidates):
        # candidates are permutations made here, so the LIS kernel needs
        # no validation: one position table per candidate, one pass per pair
        pos = inverse(word)
        if all(_lis_length(pos, c) <= bound for c in chosen):
            _check_size(q, len(chosen) + 1)
            chosen.append(word)
            if len(chosen) in (target_p, everything):
                break
    if target_p is not None and len(chosen) < target_p:
        raise ParameterError(
            f"search exhausted with {len(chosen)} permutations, target was {target_p} "
            f"(q={q}, max_lcs={max_lcs})"
        )
    return GroundSet(q, chosen)


# ------------------------------------------------------------ text interface
# Header "q p certified_max_lcs", then one permutation per line.

def save_ground_set(path: str, ground: GroundSet) -> None:
    write_int_rows(path, [(ground.q, ground.p, ground.certified_max_lcs), *ground.perms])


def load_ground_set(path: str) -> GroundSet:
    rows = read_int_rows(path)
    if not rows or len(rows[0]) != 3:
        raise ValueError(f"bad ground-set header in {path!r}")
    (q, p, claimed), perms = rows[0], rows[1:]
    if len(perms) != p:
        raise ValueError(f"ground-set body of {path!r} disagrees with header")
    ground = GroundSet(q, perms)
    if ground.certified_max_lcs != claimed:
        raise ValueError(f"stored max LCS {claimed} != certified {ground.certified_max_lcs} in {path!r}")
    return ground
