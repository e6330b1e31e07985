"""
Hamming-metric block codes over finite alphabets with unique decoding.

Every code numbers its messages 0..size-1 and implements
``encode_index``/``decode_word`` on that numbering (for structured codes
the numbering is the base-alphabet value of the message digit string;
for explicit codeword lists it is the list position).

``decode_word`` never raises on a decoding miss: it returns a
``DecodeFailure`` value, and it never returns a wrong message when some
codeword lies within ``decoding_radius`` of the input.

Every symbol and message index a code takes is checked by the one
integer rule of ``perm_core._check_ints``, and every size parameter is
read by it through ``_index_ints``; a bad one raises ParameterError.

Available constructions: Reed-Solomon with Gao decoding, explicit
codeword lists such as the greedy Gilbert-Varshamov codes with
nearest-codeword decoding through packed agreement counts, code
concatenation (inner-then-outer decoding), and identity codes for
plumbing. A repetition code is the explicit code of its constant words,
so it decodes by plurality through the same agreement counts.

A Reed-Solomon code keeps its k Vandermonde rows (a^j over the evaluation
points) as field vectors, so encoding is one ``Field.combine`` call, and
Gao decoding interpolates through the Lagrange rows with one more. Those
rows are built on the first decode and published in one assignment, the
only write to a code after construction; concurrent first decodes at
worst build them twice. Every other code is immutable after construction,
and all are safe for concurrent use.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

from .errors import ParameterError
from .fields import Field
from .perm_core import (
    _check_ints, _index_ints, from_digits, read_int_rows, to_digits, write_int_rows
)

GV_SEARCH_LIMIT = 10_000_000


@dataclass(frozen=True)
class DecodeFailure:
    """Returned (not raised) when unique decoding cannot certify a message."""

    reason: str


class BlockCode:
    """Base class; subclasses set the parameter attributes and the index codecs."""

    alphabet_size: int
    block_length: int
    min_distance: int
    decoding_radius: int
    size: int

    def encode_index(self, x: int) -> tuple[int, ...]:
        raise NotImplementedError

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        raise NotImplementedError

    def codewords(self) -> Iterator[tuple[int, ...]]:
        return (self.encode_index(x) for x in range(self.size))

    def check_word(self, word: Sequence[int]) -> tuple[int, ...]:
        """word as a tuple of ints, or ValueError for a wrong length or symbol."""
        word = tuple(word)
        if len(word) != self.block_length:
            raise ValueError(
                f"word length must be {self.block_length}, got {len(word)}"
            )
        return _check_ints(word, self.alphabet_size)


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("hamming_distance needs equal lengths")
    return sum(x != y for x, y in zip(a, b))


# ---------------------------------------------------------------- Reed-Solomon

class ReedSolomonCode(BlockCode):
    """
    [n, k, n-k+1] Reed-Solomon code over GF(field_order), evaluation
    points 0..n-1, message digit j = coefficient of x^j. Unique decoding
    up to floor((n-k)/2) errors in O(n*(n-k)) field operations via Gao
    decoding (interpolation plus a partial extended Euclidean algorithm;
    S. Gao, "A new algorithm for decoding Reed-Solomon codes", 2003).
    Gao's degree bound certifies the radius: an accepted message
    polynomial agrees with the word except at the <= (n-k)/2 roots of the
    error locator, so a decode is not re-encoded to check it. When the
    Euclid loop takes no step, as for every codeword, the locator is 1 and
    the remainder is read off as the message polynomial with no division.
    """

    def __init__(self, field: Field, n: int, k: int):
        n, k = _index_ints((n, k))
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
        # row j holds a^j at every point a, so a codeword is one combine()
        self._rows = field.power_rows(self.points, k)
        # _interpolation_tables(), filled on the first decode. Not a
        # cached_property: on CPython 3.11 its write to __dict__ makes every
        # later attribute read of the code about three times slower.
        self._interpolation: tuple = ()

    def __repr__(self) -> str:
        return f"ReedSolomonCode(GF({self.field.order}), n={self.block_length}, k={self.k})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        return self.encode(to_digits(x, self.alphabet_size, self.k))

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        if len(message) != self.k:
            raise ValueError(f"message length must be {self.k}, got {len(message)}")
        f = self.field
        return f.combine(list(map(f.check, message)), self._rows)

    def _interpolation_tables(self) -> tuple[list[int], tuple]:
        """
        g0 = prod (x - a_i), and for each point a_i the row L_i of the
        Lagrange basis (L_i(a_j) = [i == j]), coefficients ascending, as a
        field vector: g0 / (x - a_i) over the product of (a_i - a_j), j != i.
        Built on the first decode, so encode-only users never pay for it.
        """
        f = self.field
        g0 = [1]
        for a in self.points:
            # (x - a) * g0 = x*g0 - a*g0
            g0 = f.sub_scaled([0] + g0, a, g0 + [0])
        rows = []
        for a in self.points:
            others, _ = _poly_divmod(f, g0, [f.neg(a), 1])
            scale = f.inv(reduce(f.mul, [f.sub(a, b) for b in self.points if b != a], 1))
            rows.append(f.vector([f.mul(scale, c) for c in others]))
        return g0, tuple(rows)

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        word = self.check_word(word)
        f = self.field
        n, k = self.block_length, self.k
        # Gao: interpolate g1 = sum r_i * L_i through the received word,
        # run the extended Euclidean algorithm on (g0, g1) until the
        # remainder g has 2*deg(g) < n + k, keeping g1's cofactor v; the
        # message polynomial is g / v.
        if not self._interpolation:
            self._interpolation = self._interpolation_tables()
        g0, rows = self._interpolation
        prev, g = g0, _trim(list(f.combine(word, rows)))
        v_prev, v = [], [1]
        while 2 * len(g) >= n + k + 2:  # 2 * deg(g) >= n + k
            quot, rem = _poly_divmod(f, prev, g)
            prev, g = g, rem
            v_prev, v = v, _poly_sub_mul(f, v_prev, quot, v)
        # with no Euclid step v is 1, as for every codeword, and g is the quotient
        msg_poly, rem = (g, ()) if v == [1] else _poly_divmod(f, g, v)
        # deg v = n - deg prev <= (n - k)/2 and g = v * g1 at every point, so a
        # quotient of degree < k misses the word only at roots of v: in radius
        if any(rem):
            return DecodeFailure("error locator does not divide the remainder")
        if len(msg_poly) > k:
            return DecodeFailure(f"message polynomial has degree {len(msg_poly) - 1} >= k = {k}")
        return from_digits(msg_poly + [0] * (k - len(msg_poly)), self.alphabet_size)


def _poly_divmod(f: Field, num: Sequence[int], den: Sequence[int]):
    """Polynomial division over f, coefficients ascending; den need not be monic."""
    num = list(num)
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = f.inv(den[-1])
    for i in range(len(quot) - 1, -1, -1):
        coeff = f.mul(num[i + len(den) - 1], inv_lead)
        quot[i] = coeff
        if coeff:
            num[i : i + len(den)] = f.sub_scaled(num[i : i + len(den)], coeff, den)
    return quot, _trim(num)


def _poly_sub_mul(f: Field, a: Sequence[int], q: Sequence[int], b: Sequence[int]) -> list[int]:
    """The polynomial a - q*b over f, coefficients ascending."""
    out = list(a) + [0] * max(len(q) + len(b) - 1 - len(a), 0)
    for i, c in enumerate(q):
        if c:
            out[i : i + len(b)] = f.sub_scaled(out[i : i + len(b)], c, b)
    return _trim(out)


def _trim(poly: list[int]) -> list[int]:
    """Drop zero leading coefficients in place, so len(poly) == deg + 1."""
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def rs_code(field_order: int, n: int, k: int) -> ReedSolomonCode:
    """Reed-Solomon [n, k] over GF(field_order); min distance n-k+1."""
    return ReedSolomonCode(Field(field_order), n, k)


# ------------------------------------------------------------- explicit codes

class ExplicitCode(BlockCode):
    """
    A code given by its codeword list. Message x is codewords[x];
    decoding returns the nearest codeword (the first one on ties) and
    fails beyond the radius. min_distance is the exact minimum pairwise
    Hamming distance, computed on construction (for a single codeword it
    is the block length, vacuously); a repeat is a pair at distance 0.

    Both come from packed agreement counts. The integer _cols[j][s] has
    one field per codeword, the smallest array item that holds
    block_length, and field c is 1 when codeword c has symbol s at
    position j. Summing the integers a word selects therefore counts its
    agreements with every codeword in block_length big-integer additions.
    """

    def __init__(self, alphabet_size: int, words: Sequence[Sequence[int]], label: str = "explicit"):
        (alphabet_size,) = _index_ints((alphabet_size,))
        if alphabet_size < 2:
            raise ParameterError(f"alphabet size must be >= 2, got {alphabet_size}")
        if not words:
            raise ParameterError("explicit code needs at least one codeword")
        tup = tuple(_check_ints(w, alphabet_size) for w in words)
        length = len(tup[0])
        if length < 1 or any(len(w) != length for w in tup):
            raise ParameterError("codewords must share one length >= 1")
        self.alphabet_size = alphabet_size
        self.block_length = length
        self.size = len(tup)
        self.words = tup
        self.label = label
        self._typecode = next(t for t in "BHILQ" if 256 ** array(t).itemsize > length)
        width = array(self._typecode).itemsize
        self._nbytes = width * self.size
        # one dict per position keeps the table to the symbols that occur,
        # whatever the alphabet size
        self._cols: list[dict[int, int]] = [{} for _ in range(length)]
        for c, w in enumerate(tup):
            bit = 1 << (8 * width * c)
            for col, s in zip(self._cols, w):
                col[s] = col.get(s, 0) + bit
        self._zeros = (0,) * length
        # each codeword's largest agreement with another one
        self.min_distance = length - max(
            max(counts[:c] + counts[c + 1 :], default=0)
            for c, counts in enumerate(map(self._agreements, tup))
        )
        if self.min_distance == 0 and self.size > 1:
            raise ParameterError("explicit code has repeated codewords")
        self.decoding_radius = (self.min_distance - 1) // 2

    def __repr__(self) -> str:
        return (
            f"ExplicitCode({self.label}: alphabet {self.alphabet_size}, "
            f"[{self.block_length}, size {self.size}, d={self.min_distance}])"
        )

    def _agreements(self, word: Sequence[int]) -> bytes | array:
        """The number of positions where word agrees with each codeword, in codeword order."""
        packed = sum(map(dict.get, self._cols, word, self._zeros))
        counts = packed.to_bytes(self._nbytes, "little")
        if self._typecode == "B":
            return counts
        counts = array(self._typecode, counts)
        if sys.byteorder == "big":
            counts.byteswap()
        return counts

    def encode_index(self, x: int) -> tuple[int, ...]:
        return self.words[_check_ints((x,), self.size, "message index")[0]]

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        counts = self._agreements(self.check_word(word))
        top = max(counts)
        best_d = self.block_length - top
        if best_d > self.decoding_radius:
            return DecodeFailure(
                f"nearest codeword at distance {best_d} > radius {self.decoding_radius}"
            )
        return counts.index(top)


def greedy_gv_code(alphabet_size: int, length: int, min_distance: int) -> ExplicitCode:
    """
    Greedy Gilbert-Varshamov search: scan [alphabet]^length in
    lexicographic order from the all-zero word and keep every word at
    Hamming distance >= min_distance from all kept words. Deterministic;
    the resulting size is at least alphabet^length / V(length, d-1) with
    V the Hamming-ball volume.

    Agreements with the kept words are packed as in ExplicitCode, one
    byte per kept word, and each byte starts at 127 - (length - d): its
    top bit is set exactly when the candidate agrees with that word in
    more than length - d places, so one AND rejects it. The search-space
    limit keeps length <= 23, so a byte never overflows.

    The scan is a depth-first walk over prefixes in the same order. Each
    prefix's packed sum is its parent's plus one column, and a kept word
    adds (start + j) to the sum at depth j, since it agrees with the
    current path there. Agreements only grow as a prefix is extended and
    kept words are never dropped, so a prefix whose sum has a top bit set
    rejects every word below it, and its subtree is skipped; the walk
    keeps exactly the words the word-by-word scan keeps, in its order.
    """
    alphabet_size, length, min_distance = _index_ints((alphabet_size, length, min_distance))
    if min_distance < 1 or min_distance > length:
        raise ParameterError(
            f"need 1 <= min_distance <= length, got d={min_distance}, length={length}"
        )
    if alphabet_size**length > GV_SEARCH_LIMIT:
        raise ParameterError(
            f"search space {alphabet_size}^{length} exceeds {GV_SEARCH_LIMIT}"
        )
    cols = [[0] * alphabet_size for _ in range(length)]
    start = 127 - (length - min_distance)
    top_bits = 0  # 0x80 in every kept word's byte
    chosen: list[tuple[int, ...]] = []
    path = [0] * length
    # sums[j]: the packed agreements of path[:j], each byte offset by start
    sums = [0] * length
    symbols = range(alphabet_size)

    def walk(j: int) -> None:
        nonlocal top_bits
        col = cols[j]
        for s in symbols:
            total = sums[j] + col[s]
            if total & top_bits:
                continue
            path[j] = s
            if j + 1 < length:
                sums[j + 1] = total
                walk(j + 1)
                continue
            shift = 8 * len(chosen)
            for c, x in zip(cols, path):
                c[x] += 1 << shift
            for i in range(length):
                sums[i] += (start + i) << shift
            top_bits += 0x80 << shift
            chosen.append(tuple(path))

    walk(0)
    return ExplicitCode(alphabet_size, chosen, label=f"gv(d>={min_distance})")


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
        # the inner codeword of each outer symbol: the outer code only makes
        # symbols in [inner.size], so encoding reads them unchecked
        self._inner_words = tuple(inner.codewords())

    def __repr__(self) -> str:
        return f"ConcatenatedCode({self.outer!r} over {self.inner!r})"

    def encode_index(self, x: int) -> tuple[int, ...]:
        out: list[int] = []
        for sym in self.outer.encode_index(x):
            out += self._inner_words[sym]
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

class IdentityCode(BlockCode):
    """Every word is a codeword (rate 1, distance 1, radius 0)."""

    def __init__(self, alphabet_size: int, block_length: int):
        alphabet_size, block_length = _index_ints((alphabet_size, block_length))
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
        return to_digits(x, self.alphabet_size, self.block_length)

    def decode_word(self, word: Sequence[int]) -> int | DecodeFailure:
        return from_digits(self.check_word(word), self.alphabet_size)


def repetition_code(alphabet_size: int, block_length: int) -> ExplicitCode:
    """The alphabet_size constant words of length block_length, as an explicit code."""
    alphabet_size, block_length = _index_ints((alphabet_size, block_length))
    if alphabet_size < 2 or block_length < 1:
        raise ParameterError("repetition code needs alphabet >= 2 and length >= 1")
    words = [(s,) * block_length for s in range(alphabet_size)]
    return ExplicitCode(alphabet_size, words, label="repetition")


def identity_code(alphabet_size: int, block_length: int) -> IdentityCode:
    return IdentityCode(alphabet_size, block_length)


# ------------------------------------------------------------ text interface
# Explicit codes serialize as: header "alphabet length size", then one
# codeword per line as space-separated digits.

def save_explicit_code(path: str, code: BlockCode) -> None:
    header = (code.alphabet_size, code.block_length, code.size)
    write_int_rows(path, [header, *code.codewords()])


def load_explicit_code(path: str) -> ExplicitCode:
    rows = read_int_rows(path)
    if not rows or len(rows[0]) != 3:
        raise ValueError(f"bad explicit-code header in {path!r}")
    (alphabet_size, length, size), words = rows[0], rows[1:]
    if len(words) != size or any(len(w) != length for w in words):
        raise ValueError(f"explicit-code body of {path!r} disagrees with header")
    return ExplicitCode(alphabet_size, words, label=path)
