"""
The staged-shuffle permutation codec: message <-> shuffler tuple <->
permutation of [q^ell].

Positions of a length-n permutation, n = q^ell, are addressed by their
base-q digit strings (most significant first). Stage i groups the
positions that agree on every digit except digit i; each group holds q
positions, there are n/q groups, and the group whose fixed digits are
alpha (before digit i) and beta (after) lives at shuffler slot
value_q(alpha + beta). A shuffler is a length-n/q string over [p]
choosing, per group, which of the p ground permutations reorders that
group's contents:

    pi_new[alpha x beta] = pi_old[alpha sigma_c[x] beta],  c = w[(alpha, beta)].

With step = q^(ell-i), the group at slot s = hi*step + lo holds the
positions base, base + step, ..., base + (q-1)*step, base = hi*q*step +
lo: one strided slice of [n]. _stage_groups is the one group walk; it
lists a stage's slices in slot order, and the stage kernel and the
decoder both read it. A stage is applied per group as one
slice read, one C gather through the ground set's itemgetter for
sigma_c, and one slice write.

Encoding folds ell such stages over the identity permutation, with the
stage shufflers drawn as codewords of a Hamming-metric block code C over
[p]; a message in [|C|^ell] picks the ell codewords by mixed radix.
Distinct messages end up at Ulam distance at least
C.min_distance * ground.separation, the ground set's least pairwise
Ulam distance.

Encode and decode both start from one cached identity(n) per instance
length, so every codeword is gathered from the same int objects: a
symbol costs one 8-byte reference instead of a ~36-byte int of its own
for symbols >= 257 (CPython shares the smaller ones). No result is the
cached tuple itself, since every stage returns a new one.

Decoding reverses the stages: at stage i each group's symbols are
located in the received permutation, the ground permutation whose
reordering of the reconstructed stage-(i-1) prefix best matches their
received relative order is guessed per group, and the guessed shuffler
string is corrected with C's Hamming decoder. When C decodes up to half
its distance, any input strictly within a quarter of the distance bound
of a codeword decodes to exactly that codeword.

The per-group guess is an exact nearest-neighbour search. A group is
read once as its rank pattern r, the x-indices of its symbols in
received order; r is a permutation of [q], and relabeling symbols by x
does not change an Ulam distance, so each candidate c is scored as
ulam_distance(r, sigma_c). An exact match is looked up first. Then,
for q >= 4, up to six anchors are scored: the first candidates that
start with r[0], r[1] or r[2], and the first that end with r[-1], r[-2]
or r[-3]. A symbol relocated before or after the group's positions
becomes r[0] or r[-1] and hides the sent candidate from that end, more
rarely from both ends or from the next place in. Anchors that also agree
with r one symbol further in (sigma_c[1] = r[k+1] for a start at r[k],
sigma_c[-2] = r[-2-k] for an end at r[-1-k]) are scored before the
rest, each skipped when missing or ruled out by the bounds below. The
order of scoring never changes the answer. A distance d
below half the ground set's separation (its minimum pairwise distance)
puts every other candidate farther, so that candidate is the answer.
Otherwise the search goes on by best-first elimination (E. Vidal's
AESA, 1986): each scored candidate c
at distance d bounds every x from below by |d - (q - LCS(sigma_c,
sigma_x))|, the triangle inequality; each x keeps the largest bound over
the candidates scored so far, the candidate with the smallest (bound,
index) is scored next, and the search stops once that pair is no smaller
than (best distance, best index). No unscored candidate can then win, so
the result is the full scan's argmin, ties going to the smallest index.
The bound on x from c is |q - d - LCS(sigma_c, sigma_x)|, read from
the ground set's tables as ground.gaps[d][ground.pair_lcs[c][x]].

Everything here is pure; params objects are immutable after validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import itemgetter
from typing import Sequence

from .block_codes import BlockCode, DecodeFailure
from .errors import ParameterError
from .ground_set import GroundSet
from .perm_core import (
    _check_ints, _index_ints, from_digits, identity, to_digits, ulam_distance,
    validate_permutation,
)

ShufflerTuple = tuple[tuple[int, ...], ...]


@cache
def _stage_groups(q: int, ell: int, stage: int) -> tuple[slice, ...]:
    """The stage's groups as strided slices of [q^ell], in shuffler-slot order."""
    step = q ** (ell - stage)
    return tuple(
        slice(base, base + q * step, step)
        for hi in range(0, q**ell, q * step)
        for base in range(hi, hi + step)
    )


@cache
def _identity(n: int) -> tuple[int, ...]:
    """identity(n), built once per instance length: every encode and decode starts here."""
    return identity(n)


@dataclass(frozen=True)
class UlamCodeParams:
    """
    Validated instance parameters: alphabet root q, stage count ell,
    ground set D over [q] with |D| = p, and shuffler code C over [p] of
    block length n/q.

    Derived: n = q^ell, message count M = |C|^ell, distance_bound =
    C.min_distance * D.separation (a lower bound on the pairwise
    Ulam distance of distinct codewords), and decode_guarantee, the
    strict Ulam-weight threshold below which decoding is certain. With a
    shuffler code that uniquely decodes anything strictly below half its
    min distance, decode_guarantee equals distance_bound / 4.
    """

    q: int
    ell: int
    ground: GroundSet
    code: BlockCode

    def __post_init__(self):
        try:
            q, ell = _index_ints((self.q, self.ell))
        except ParameterError:
            raise ParameterError(
                f"q and ell must be integers, got q={self.q!r}, ell={self.ell!r}"
            ) from None
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ell", ell)
        if self.q < 2:
            raise ParameterError(f"q must be >= 2, got {self.q}")
        if self.ell < 1:
            raise ParameterError(f"ell must be >= 1, got {self.ell}")
        if self.ground.q != self.q:
            raise ParameterError(
                f"ground set is over [{self.ground.q}], expected [{self.q}]"
            )
        if self.code.alphabet_size != self.ground.p:
            raise ParameterError(
                f"shuffler code alphabet {self.code.alphabet_size} != |ground| = {self.ground.p}"
            )
        length = self.code.block_length
        # q^(ell-1) >= 2^(ell-1) exceeds length once ell - 1 reaches its bit
        # length, so a longer power is refused before it is built
        if self.ell - 1 >= length.bit_length() or length != self.q ** (self.ell - 1):
            raise ParameterError(
                f"shuffler code length {length} != n/q = q^(ell-1) for q={self.q}, ell={self.ell}"
            )

    @property
    def n(self) -> int:
        return self.q**self.ell

    @property
    def p(self) -> int:
        return self.ground.p

    @property
    def message_count(self) -> int:
        return self.code.size**self.ell

    @property
    def distance_bound(self) -> int:
        return self.code.min_distance * self.ground.separation

    @property
    def decode_guarantee(self) -> Fraction:
        per_stage = Fraction((self.code.decoding_radius + 1) * self.ground.separation, 2)
        return min(Fraction(self.distance_bound, 4), per_stage)

    def __repr__(self) -> str:
        return (
            f"UlamCodeParams(q={self.q}, ell={self.ell}, n={self.n}, p={self.p}, "
            f"|C|={self.code.size}, M={self.message_count}, "
            f"distance_bound={self.distance_bound})"
        )


# ------------------------------------------------------------------- stages

def apply_stage(
    pi: Sequence[int], stage: int, shuffler: Sequence[int], ground: GroundSet
) -> tuple[int, ...]:
    """
    One shuffle stage: reorder each stage-i group of pi by its selected
    ground permutation. Positions only move within their group, so
    digits other than digit i are untouched and the output is again a
    permutation. Each group is one strided slice of pi (see
    _stage_groups), reordered in C by ground.gathers[c].
    """
    q = ground.q
    n = len(pi)
    groups = len(shuffler)
    if q * groups != n:
        raise ParameterError(f"shuffler length {groups} != n/q = {n // q}")
    ell = 0
    size = 1
    while size < n:
        size *= q
        ell += 1
    if size != n:
        raise ParameterError(f"permutation length {n} is not a power of q={q}")
    if type(stage) is not int:
        (stage,) = _index_ints((stage,))
    if not 1 <= stage <= ell:
        raise ParameterError(f"stage must be in 1..{ell}, got {stage}")
    shuffler = _check_ints(shuffler, ground.p, "shuffler symbol")
    gathers = ground.gathers
    out = [0] * n
    for group, c in zip(_stage_groups(q, ell, stage), shuffler):
        out[group] = gathers[c](pi[group])
    return tuple(out)


def run_stages(shufflers: Sequence[Sequence[int]], ground: GroundSet) -> tuple[int, ...]:
    """
    The permutation produced by an explicit shuffler tuple (one length-n/q
    string over [p] per stage): apply_stage folded over stages
    1..len(shufflers), starting from the identity. The strings need not
    be codewords of any block code.
    """
    ell = len(shufflers)
    if ell < 1:
        raise ParameterError("need at least one stage")
    q, n = ground.q, ground.q**ell
    # refused before the identity is built, so the cache holds no length
    # that the first stage would refuse
    if q * len(shufflers[0]) != n:
        raise ParameterError(f"shuffler length {len(shufflers[0])} != n/q = {n // q}")
    pi = _identity(n)
    for i, w in enumerate(shufflers, start=1):
        pi = apply_stage(pi, i, w, ground)
    return pi


# ------------------------------------------------------------------ encoding

def message_to_shufflers(x: int, params: UlamCodeParams) -> ShufflerTuple:
    """
    Split x in [M] into ell stage coordinates by mixed radix base |C|
    (most significant = stage 1) and encode each with C.
    """
    return tuple(map(params.code.encode_index, to_digits(x, params.code.size, params.ell)))


def encode(x: int, params: UlamCodeParams) -> tuple[int, ...]:
    """Codeword permutation of message x; injective over [M]."""
    return run_stages(message_to_shufflers(x, params), params.ground)


# ------------------------------------------------------------------ decoding

def _rank_patterns(
    pos_of: Sequence[int], prev_star: Sequence[int], q: int, ell: int, stage: int
) -> list[tuple[int, ...]]:
    """
    Each stage group's rank pattern, in shuffler-slot order: the x-indices
    of the group's symbols prev_star[alpha x beta], listed in the order
    they appear in the received permutation, whose inverse is pos_of.
    The received position of every symbol of prev_star comes from one C
    gather per stage; each group then sorts its slice of those spots.
    """
    # n = q^ell >= 2, so the itemgetter returns a tuple; it is copied to a
    # list because list.__getitem__ is the cheaper sort key
    spots = list(itemgetter(*prev_star)(pos_of))
    return [
        tuple(sorted(range(q), key=spots[group].__getitem__))
        for group in _stage_groups(q, ell, stage)
    ]


def _best_symbol(rank: tuple[int, ...], ground: GroundSet) -> int:
    """
    The index c minimizing ulam_distance(rank, sigma_c) for a group's rank
    pattern (a permutation of [q]); ties go to the smallest c. The
    anchors named by rank[0], rank[-1], rank[1], rank[-2], rank[2] and
    rank[-3] are scored first, those that agree with rank one symbol
    further in ahead of the rest; then the best-first elimination search
    of the module docstring runs from their bounds. Each candidate scored
    is one call of the module-level ulam_distance, and every other
    candidate is ruled out by a bound.
    """
    perms, first, last = ground.perms, ground.by_first_symbol, ground.by_last_symbol
    starts = first[rank[0]]
    for c in starts:
        if perms[c] == rank:
            return c
    pair_lcs, gaps = ground.pair_lcs, ground.gaps
    q, separation = len(rank), ground.separation
    # each anchor is the first candidate that starts with rank[k] or ends
    # with rank[-1-k], k = 0, 1, 2; the ones that also agree one symbol
    # further in are scored first. Below q = 4 that symbol can lie past
    # the pattern, and a set of at most 3! members needs no anchor.
    agree, other = [], []
    if q > 3:
        for cs, at, symbol in (
            (starts, 1, rank[1]), (last[rank[-1]], -2, rank[-2]),
            (first[rank[1]], 1, rank[2]), (last[rank[-2]], -2, rank[-3]),
            (first[rank[2]], 1, rank[3]), (last[rank[-3]], -2, rank[-4]),
        ):
            if cs:
                (agree if perms[cs[0]][at] == symbol else other).append(cs[0])
    # popped from the end, so the agreeing anchors go first
    anchors = agree + other
    anchors.reverse()
    # lower[x] <= d(rank, sigma_x), with equality for every scored x, so no
    # scored candidate is picked again; best_d starts above every distance
    lower = [0] * len(perms)
    best, best_d = 0, q + 1
    while True:
        if anchors:
            x = anchors.pop()
            if lower[x] > best_d or (lower[x] == best_d and x >= best):
                continue
        else:
            bound = min(lower)
            x = lower.index(bound)
            if bound > best_d or (bound == best_d and x >= best):
                return best
        d = ulam_distance(rank, perms[x])
        if 2 * d < separation:
            return x
        if d < best_d or (d == best_d and x < best):
            best, best_d = x, d
        # elementwise max; a comprehension is faster here than map(max, ...)
        gap = gaps[d]
        lower = [a if a > gap[l] else gap[l] for a, l in zip(lower, pair_lcs[x])]


@dataclass(frozen=True)
class DecodeResult:
    message: int
    codeword: tuple[int, ...]


def decode(pi: Sequence[int], params: UlamCodeParams) -> DecodeResult | DecodeFailure:
    """
    Stage-wise decoding. Returns the message and its codeword whenever
    the input lies strictly within distance_bound/4 of one (unique
    decoding); returns DecodeFailure when a stage's Hamming decode fails
    or the final candidate is not within that radius of the input.

    Every stage guesses from the original received permutation: a stage-i
    group's relative order in the full codeword is already fixed by stage
    i (later stages never move a symbol across its digit-i slot), so per
    group the received order is compared against each ground permutation's
    reordering of the reconstructed stage-(i-1) prefix, and the subadditive
    partition bound keeps the guessed shuffler within the Hamming decoding
    radius of the true one for inputs inside the radius.
    """
    pos_of = validate_permutation(pi)
    q, ell, n = params.q, params.ell, params.n
    if len(pi) != n:
        raise ParameterError(f"permutation length {len(pi)} != n = {n}")
    ground = params.ground
    prev_star = _identity(n)
    stage_indices = []
    for i in range(1, ell + 1):
        ranks = _rank_patterns(pos_of, prev_star, q, ell, i)
        guessed = [_best_symbol(rank, ground) for rank in ranks]
        idx = params.code.decode_word(tuple(guessed))
        if isinstance(idx, DecodeFailure):
            return DecodeFailure(f"stage {i}: {idx.reason}")
        w_star = params.code.encode_index(idx)
        stage_indices.append(idx)
        prev_star = apply_stage(prev_star, i, w_star, ground)
    if 4 * ulam_distance(pi, prev_star) >= params.distance_bound:
        return DecodeFailure(
            "no codeword within a quarter of the distance bound of the input"
        )
    return DecodeResult(from_digits(stage_indices, params.code.size), prev_star)
