"""
Hamming-metric block codes over finite alphabets with unique decoding.

Every code numbers its messages 0..size-1 and implements
``encode_index``/``decode_word`` on that numbering (for structured codes
the numbering is the base-alphabet value of the message digit string;
for explicit codeword lists it is the list position). Codes whose size
is an exact power of the alphabet additionally expose the digit-string
``encode``/``decode``; for the others ``message_length`` is None.

``decode_word`` never raises on a decoding miss: it returns a
``DecodeFailure`` value, and it never returns a wrong message when some
codeword lies within ``decoding_radius`` of the input.

Available constructions: Reed-Solomon with Berlekamp-Welch decoding,
greedy Gilbert-Varshamov searched codeword lists with brute-force
nearest-codeword decoding, code concatenation (inner-then-outer
decoding), plus repetition and identity codes for plumbing. Codes are
immutable after construction and safe for concurrent use.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ParameterError
from .fields import Field
from .perm_core import from_digits, to_digits

GV_SEARCH_LIMIT = 10_000_000


@dataclass(frozen=True)
class DecodeFailure:
    """Returned (not raised) when unique decoding cannot certify a message."""

    reason: str


@dataclass(frozen=True)
class BlockCodeSpec:
    alphabet_size: int
    block_length: int
    message_length: int | None
    min_distance: int
    decoding_radius: int
    size: int


class BlockCode:
    """Base class; subclasses set the parameter attributes and the index codecs."""

    alphabet_size: int
    block_length: int
    min_distance: int
    decoding_radius: int
    size: int

    @property
    def message_length(self) -> int | None:
        """k with size == alphabet^k, or None when size is not such a power."""
        k, value = 0, 1
        while value < self.size:
            value *= self.alphabet_size
            k += 1
        return k if value == self.size else None

    @property
    def spec(self) -> BlockCodeSpec:
        return BlockCodeSpec(
            alphabet_size=self.alphabet_size,
            block_length=self.block_length,
            message_length=self.message_length,
            min_distance=self.min_distance,
            decoding_radius=self.decoding_radius,
            size=self.size,
        )

    def encode_index(self, x: int) -> tuple[int, ...]:
        raise NotImplementedError

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        raise NotImplementedError

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """Encode a base-alphabet message digit string of length message_length."""
        k = self.message_length
        if k is None:
            raise ParameterError(
                f"{self!r} has {self.size} messages, not an alphabet power; "
                "use encode_index"
            )
        if len(message) != k:
            raise ValueError(f"message length must be {k}, got {len(message)}")
        return self.encode_index(from_digits(message, self.alphabet_size))

    def decode(self, word: Sequence[int]) -> tuple[int, ...] | DecodeFailure:
        """Digit-string counterpart of decode_word."""
        k = self.message_length
        if k is None:
            raise ParameterError(
                f"{self!r} has {self.size} messages, not an alphabet power; "
                "use decode_word"
            )
        x = self.decode_word(word)
        if isinstance(x, DecodeFailure):
            return x
        return to_digits(x, self.alphabet_size, k)

    def codewords(self) -> Iterator[tuple[int, ...]]:
        return (self.encode_index(x) for x in range(self.size))

    def check_word(self, word: Sequence[int]) -> tuple[int, ...]:
        word = tuple(word)
        if len(word) != self.block_length:
            raise ValueError(
                f"word length must be {self.block_length}, got {len(word)}"
            )
        for d in word:
            if not 0 <= d < self.alphabet_size:
                raise ValueError(f"symbol {d} out of range [0, {self.alphabet_size})")
        return word


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("hamming_distance needs equal lengths")
    return sum(x != y for x, y in zip(a, b))


# ---------------------------------------------------------------- Reed-Solomon

class ReedSolomonCode(BlockCode):
    """
    [n, k, n-k+1] Reed-Solomon code over GF(field_order), evaluation
    points 0..n-1, message digit j = coefficient of x^j. Unique decoding
    up to floor((n-k)/2) errors via Berlekamp-Welch.
    """

    def __init__(self, field: Field, n: int, k: int):
        if n > field.order:
            raise ParameterError(
                f"block length {n} exceeds field order {field.order}"
            )
        if not 1 <= k <= n:
            raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.field = field
        self.alphabet_size = field.order
        self.block_length = n
        self.k = k
        self.min_distance = n - k + 1
        self.decoding_radius = (n - k) // 2
        self.size = field.order**k
        self.points = tuple(range(n))

    def __repr__(self) -> str:
        return f"ReedSolomonCode(GF({self.field.order}), n={self.block_length}, k={self.k})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.size:
            raise ValueError(f"message index {x} out of range [0, {self.size})")
        digits = to_digits(x, self.alphabet_size, self.k)
        return self.encode(digits)

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        if len(message) != self.k:
            raise ValueError(f"message length must be {self.k}, got {len(message)}")
        f = self.field
        for c in message:
            f.check(c)
        return tuple(f.eval_poly(message, a) for a in self.points)

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        word = self.check_word(word)
        f = self.field
        n, k, e = self.block_length, self.k, self.decoding_radius
        # Berlekamp-Welch: find Q of degree < k+e and monic E of degree e with
        # Q(a_i) = r_i * E(a_i) for all i; then the message polynomial is Q/E.
        cols = (k + e) + e
        rows = []
        rhs = []
        for a, r in zip(self.points, word):
            row = [0] * cols
            pw = 1
            for u in range(k + e):
                row[u] = pw
                pw = f.mul(pw, a)
            pw = 1
            for j in range(e):
                row[k + e + j] = f.neg(f.mul(r, pw))
                pw = f.mul(pw, a)
            rows.append(row)
            rhs.append(f.mul(r, pw))  # r * a^e, the monic term moved across
        sol = _solve_linear(f, rows, rhs)
        if sol is None:
            return DecodeFailure("berlekamp-welch system inconsistent")
        q_coeffs = sol[: k + e]
        e_coeffs = sol[k + e :] + [1]  # monic
        msg_poly, rem = _poly_divmod(f, q_coeffs, e_coeffs)
        if any(rem) or len(msg_poly) > k:
            return DecodeFailure("residual error locator does not divide")
        msg_poly = msg_poly + [0] * (k - len(msg_poly))
        codeword = self.encode(msg_poly)
        if hamming_distance(codeword, word) > e:
            return DecodeFailure("nearest candidate beyond decoding radius")
        return from_digits(msg_poly, self.alphabet_size)


def _solve_linear(f: Field, rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """Gaussian elimination over f; any solution with free variables at 0."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = f.inv(aug[r][c])
        aug[r] = [f.mul(inv, v) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                aug[i] = f.sub_scaled(aug[i], aug[i][c], aug[r])
        pivots.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][cols] for i in range(r, m)):
        return None
    sol = [0] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols]
    return sol


def _poly_divmod(f: Field, num: Sequence[int], den: Sequence[int]):
    """Polynomial division over f, coefficients ascending; den need not be monic."""
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = f.inv(den[-1])
    for i in range(len(quot) - 1, -1, -1):
        coeff = f.mul(num[i + len(den) - 1], inv_lead)
        quot[i] = coeff
        if coeff:
            num[i : i + len(den)] = f.sub_scaled(num[i : i + len(den)], coeff, den)
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def rs_code(field_order: int, n: int, k: int) -> ReedSolomonCode:
    """Reed-Solomon [n, k] over GF(field_order); min distance n-k+1."""
    return ReedSolomonCode(Field(field_order), n, k)


# ------------------------------------------------------------- explicit codes

class ExplicitCode(BlockCode):
    """
    A code given by its codeword list. Message x is codewords[x];
    decoding scans for the nearest codeword and fails beyond the radius.
    min_distance is the exact minimum pairwise Hamming distance, computed
    on construction (for a single codeword it is the block length,
    vacuously).
    """

    def __init__(self, alphabet_size: int, words: Sequence[Sequence[int]], label: str = "explicit"):
        if alphabet_size < 2:
            raise ParameterError(f"alphabet size must be >= 2, got {alphabet_size}")
        if not words:
            raise ParameterError("explicit code needs at least one codeword")
        tup = tuple(tuple(w) for w in words)
        length = len(tup[0])
        for w in tup:
            if len(w) != length:
                raise ParameterError("codewords must share one length")
            for d in w:
                if not 0 <= d < alphabet_size:
                    raise ParameterError(f"symbol {d} out of range [0, {alphabet_size})")
        if len(set(tup)) != len(tup):
            raise ParameterError("explicit code has repeated codewords")
        self.alphabet_size = alphabet_size
        self.block_length = length
        self.size = len(tup)
        self.words = tup
        self.label = label
        if self.size >= 2:
            self.min_distance = min(
                hamming_distance(a, b) for a, b in itertools.combinations(tup, 2)
            )
        else:
            self.min_distance = length
        self.decoding_radius = (self.min_distance - 1) // 2

    def __repr__(self) -> str:
        return (
            f"ExplicitCode({self.label}: alphabet {self.alphabet_size}, "
            f"[{self.block_length}, size {self.size}, d={self.min_distance}])"
        )

    def encode_index(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.size:
            raise ValueError(f"message index {x} out of range [0, {self.size})")
        return self.words[x]

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        word = self.check_word(word)
        best, best_d = 0, self.block_length + 1
        for i, cw in enumerate(self.words):
            d = hamming_distance(cw, word)
            if d < best_d:
                best, best_d = i, d
                if d == 0:
                    break
        if best_d > self.decoding_radius:
            return DecodeFailure(
                f"nearest codeword at distance {best_d} > radius {self.decoding_radius}"
            )
        return best


def greedy_gv_code(alphabet_size: int, length: int, min_distance: int) -> ExplicitCode:
    """
    Greedy Gilbert-Varshamov search: scan [alphabet]^length in
    lexicographic order from the all-zero word and keep every word at
    Hamming distance >= min_distance from all kept words. Deterministic;
    the resulting size is at least alphabet^length / V(length, d-1) with
    V the Hamming-ball volume.
    """
    if min_distance < 1 or min_distance > length:
        raise ParameterError(
            f"need 1 <= min_distance <= length, got d={min_distance}, length={length}"
        )
    if alphabet_size**length > GV_SEARCH_LIMIT:
        raise ParameterError(
            f"search space {alphabet_size}^{length} exceeds {GV_SEARCH_LIMIT}"
        )
    chosen: list[tuple[int, ...]] = []
    for word in itertools.product(range(alphabet_size), repeat=length):
        ok = True
        for cw in chosen:
            mismatches = 0
            for a, b in zip(word, cw):
                if a != b:
                    mismatches += 1
                    if mismatches >= min_distance:
                        break
            if mismatches < min_distance:
                ok = False
                break
        if ok:
            chosen.append(word)
    return ExplicitCode(alphabet_size, chosen, label=f"gv(d>={min_distance})")


def gv_ball_volume(length: int, radius: int, alphabet_size: int) -> int:
    """Hamming-ball volume V(length, radius) over the given alphabet."""
    import math

    return sum(
        math.comb(length, i) * (alphabet_size - 1) ** i for i in range(radius + 1)
    )


# -------------------------------------------------------------- concatenation

class ConcatenatedCode(BlockCode):
    """
    Outer code over alphabet p^m composed with an inner code over [p]
    whose message space enumerates the outer alphabet. Decoding is plain
    inner-then-outer, certified strictly below d_outer*d_inner/4 errors.
    """

    def __init__(self, outer: BlockCode, inner: BlockCode):
        if inner.size != outer.alphabet_size:
            raise ParameterError(
                f"inner message space ({inner.size}) must match outer alphabet "
                f"({outer.alphabet_size})"
            )
        self.outer = outer
        self.inner = inner
        self.alphabet_size = inner.alphabet_size
        self.block_length = outer.block_length * inner.block_length
        self.size = outer.size
        self.min_distance = outer.min_distance * inner.min_distance
        self.decoding_radius = -(-self.min_distance // 4) - 1  # ceil(d/4) - 1

    def __repr__(self) -> str:
        return f"ConcatenatedCode({self.outer!r} over {self.inner!r})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        outer_word = self.outer.encode_index(x)
        out: list[int] = []
        for sym in outer_word:
            out.extend(self.inner.encode_index(sym))
        return tuple(out)

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        word = self.check_word(word)
        n_in = self.inner.block_length
        outer_word = []
        for i in range(self.outer.block_length):
            chunk = word[i * n_in : (i + 1) * n_in]
            sym = self.inner.decode_word(chunk)
            # unreadable chunks become symbol 0 and are left to the outer decoder
            outer_word.append(0 if isinstance(sym, DecodeFailure) else sym)
        x = self.outer.decode_word(tuple(outer_word))
        if isinstance(x, DecodeFailure):
            return x
        if hamming_distance(self.encode_index(x), word) > self.decoding_radius:
            return DecodeFailure("decoded candidate beyond concatenated radius")
        return x


def concat_code(outer: BlockCode, inner: BlockCode) -> ConcatenatedCode:
    return ConcatenatedCode(outer, inner)


# ------------------------------------------------------------- trivial codes

class RepetitionCode(BlockCode):
    """One symbol repeated block_length times; plurality decoding."""

    def __init__(self, alphabet_size: int, block_length: int):
        if alphabet_size < 2 or block_length < 1:
            raise ParameterError("repetition code needs alphabet >= 2 and length >= 1")
        self.alphabet_size = alphabet_size
        self.block_length = block_length
        self.size = alphabet_size
        self.min_distance = block_length
        self.decoding_radius = (block_length - 1) // 2

    def __repr__(self) -> str:
        return f"RepetitionCode({self.alphabet_size}, n={self.block_length})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.size:
            raise ValueError(f"message index {x} out of range [0, {self.size})")
        return (x,) * self.block_length

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        word = self.check_word(word)
        counts = [0] * self.alphabet_size
        for d in word:
            counts[d] += 1
        best = max(range(self.alphabet_size), key=lambda s: counts[s])
        if self.block_length - counts[best] > self.decoding_radius:
            return DecodeFailure("no symbol within the repetition radius")
        return best


class IdentityCode(BlockCode):
    """Every word is a codeword (rate 1, distance 1, radius 0)."""

    def __init__(self, alphabet_size: int, block_length: int):
        if alphabet_size < 2 or block_length < 1:
            raise ParameterError("identity code needs alphabet >= 2 and length >= 1")
        self.alphabet_size = alphabet_size
        self.block_length = block_length
        self.size = alphabet_size**block_length
        self.min_distance = 1
        self.decoding_radius = 0

    def __repr__(self) -> str:
        return f"IdentityCode({self.alphabet_size}, n={self.block_length})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        if not 0 <= x < self.size:
            raise ValueError(f"message index {x} out of range [0, {self.size})")
        return to_digits(x, self.alphabet_size, self.block_length)

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        return from_digits(self.check_word(word), self.alphabet_size)


def repetition_code(alphabet_size: int, block_length: int) -> RepetitionCode:
    return RepetitionCode(alphabet_size, block_length)


def identity_code(alphabet_size: int, block_length: int) -> IdentityCode:
    return IdentityCode(alphabet_size, block_length)


# ------------------------------------------------------------ text interface
# Explicit codes serialize as: header "alphabet length size", then one
# codeword per line as space-separated digits.

def save_explicit_code(path: str, code: BlockCode) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{code.alphabet_size} {code.block_length} {code.size}\n")
        for cw in code.codewords():
            fh.write(" ".join(str(d) for d in cw) + "\n")


def load_explicit_code(path: str, label: str | None = None) -> ExplicitCode:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"bad explicit-code header in {path!r}")
        alphabet_size, length, size = (int(tok) for tok in header)
        words = []
        for line in fh:
            if line.strip():
                words.append(tuple(int(tok) for tok in line.split()))
    if len(words) != size or any(len(w) != length for w in words):
        raise ValueError(f"explicit-code body of {path!r} disagrees with header")
    return ExplicitCode(alphabet_size, words, label=label or path)
