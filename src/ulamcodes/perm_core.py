"""
Permutation strings, restriction, base-q position indexing, the Ulam
distance, the integer rule, and the integer-row file format.

Permutations of [n] = {0, ..., n-1} are handled in word form: the tuple
(pi[0], ..., pi[n-1]). Distance computations accept any two
distinct-symbol strings over one symbol set, so the restrictions of two
permutations to one symbol subset can be compared directly.

The Ulam distance of two strings over the same symbol set is the least
number of single-symbol relocations turning one into the other, which
equals the common length minus the length of a longest common subsequence.
For distinct-symbol strings the LCS reduces, after relabeling one string
by positions in the other, to a longest increasing subsequence, computed
here by patience sorting in O(m log m). A symbol that extends the top
pile is appended without a search, so a near-sorted relabeling, which is
what the decoder's distances between nearby words give, costs close to
one comparison per symbol; the O(m log m) worst case is unchanged. The
quadratic dynamic program is kept alongside permanently as an
independent oracle.

The integer rule: every integer a caller passes is read through
operator.index, so a bool counts as its int and a float (even 1.0), a
string or None is refused as ParameterError (a ValueError) naming the
value. _check_ints applies it to every symbol, digit, message index and
shuffler symbol, which must lie in [0, bound); _at_least applies it to
every count, length, stage, base, order and budget, which must reach a
lower bound, and names the parameter in either refusal. An upper bound,
or one relating two parameters, is checked where it is used.

validate_permutation is the one permutation check. It returns the word's
inverse, built in the same pass that checks the word, so a caller that
needs the position table (the decoder, ground-set certification) gets it
without a second pass; a word it refuses goes to the integer rule and
check_distinct, whose message names the first fault.

Every file is ASCII text read by read_lines, the one reader, which skips
blank lines and raises a non-ASCII byte or any fault in a line as
ParameterError prefixed path:line; the command line's config file too.
Library files (permutations, ground sets, explicit codes, traces) hold
one row of space-separated integers per line, read by read_int_rows and
written by write_int_rows; a token must match -?[0-9]+, so "+1" and "1_0"
are refused. The command line reads its integers by the same rule,
through int_token.

Apart from those three, all functions are pure and operate on immutable
values; they are safe to call concurrently.
"""
from __future__ import annotations

import operator
import re
from bisect import bisect_left
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ParameterError


def check_distinct(s: Sequence[int], name: str = "string") -> None:
    """Raise ValueError naming the first repeated symbol of s and its two positions."""
    if len(set(s)) != len(s):
        first: dict = {}
        for j, x in enumerate(s):
            if first.setdefault(x, j) != j:
                raise ValueError(f"{name} repeats symbol {x!r} at positions {first[x]} and {j}")


def _check_ints(values: Iterable[int], bound: int, name: str = "symbol") -> tuple[int, ...]:
    """
    values as a tuple of ints in [0, bound) under the integer rule (see the
    module docstring), or ParameterError naming the first bad value. A
    single value x is checked as (x,).

    >>> _check_ints((True, 2), 3)
    (1, 2)
    >>> _check_ints((1.0,), 3, "digit")
    Traceback (most recent call last):
    ...
    ulamcodes.errors.ParameterError: digit 1.0 is not an integer
    """
    values = tuple(values)
    for v in values:
        if type(v) is not int or not 0 <= v < bound:
            break
    else:
        return values
    ints = []
    for v in values:
        try:
            v = operator.index(v)
        except TypeError:
            raise ParameterError(f"{name} {v!r} is not an integer") from None
        if not 0 <= v < bound:
            raise ParameterError(f"{name} {v} out of range [0, {bound})")
        ints.append(v)
    return tuple(ints)


def _at_least(value: int, low: int, name: str) -> int:
    """
    value as an int >= low under the integer rule, or ParameterError
    naming the parameter: the one reader of every size parameter.

    >>> _at_least(True, 1, "n")
    1
    >>> _at_least(0, 1, "n")
    Traceback (most recent call last):
    ...
    ulamcodes.errors.ParameterError: n must be >= 1, got 0
    """
    if type(value) is int and value >= low:
        return value
    try:
        index = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} {value!r} is not an integer") from None
    if index < low:
        raise ParameterError(f"{name} must be >= {low}, got {index}")
    return index


def validate_permutation(word: Sequence[int], name: str = "permutation") -> tuple[int, ...]:
    """
    inverse(word), or ValueError naming the first fault unless word is a
    permutation of [len(word)].

    One pass writes inv[x] = i for each symbol x at position i. It
    accepts when every write landed (no TypeError or IndexError), every
    slot was written, and no symbol is negative: a negative symbol
    indexes from the end, so (-1, 0) fills both slots. Anything else,
    and an __index__ object min() cannot compare, goes to the integer
    rule and check_distinct, which name the fault or accept.

    >>> validate_permutation((2, 0, 1))
    (1, 2, 0)
    """
    n = len(word)
    inv = [-1] * n
    try:
        for i, x in enumerate(word):
            inv[x] = i
        if -1 not in inv and min(word, default=0) >= 0:
            return tuple(inv)
    except (TypeError, IndexError):
        pass
    try:
        # n distinct ints in [0, n) are exactly [n]
        ints = _check_ints(word, n)
        check_distinct(ints, "it")
    except ValueError as exc:
        raise ValueError(f"{name} is not a permutation of [{n}]: {exc}") from None
    return inverse(ints)


def identity(n: int) -> tuple[int, ...]:
    """
    The identity permutation of [n].

    >>> identity(4)
    (0, 1, 2, 3)
    """
    return tuple(range(_at_least(n, 1, "n")))


def inverse(word: Sequence[int]) -> tuple[int, ...]:
    """Positions of each symbol: inverse(word)[s] = index of s in word."""
    inv = [0] * len(word)
    for i, x in enumerate(word):
        inv[x] = i
    return tuple(inv)


def _lis_length(pos: Sequence[int] | dict[int, int], word: Iterable[int]) -> int:
    # the LIS of word relabeled through the position table pos, by patience
    # sorting: the one LIS kernel behind lcs_length and the audits. It does
    # no validation; a symbol missing from a dict pos raises KeyError.
    # top is the last pile's value (positions are >= 0): a value above it,
    # the common case in a near-sorted word, is appended with no search
    piles: list[int] = []
    top = -1
    for sym in word:
        v = pos[sym]
        if v > top:
            piles.append(v)
            top = v
        else:
            piles[bisect_left(piles, v)] = v
            top = piles[-1]
    return len(piles)


def lcs_length(a: Sequence[int], b: Sequence[int]) -> int:
    """
    Length of a longest common subsequence of two distinct-symbol strings
    over one symbol set: the longest increasing subsequence of b relabeled
    by positions in a, found by patience sorting. ValueError names the
    first fault, in this order: a repeat in a, a repeat in b, unequal
    lengths, the first symbol of b that a lacks.

    >>> lcs_length((0, 1, 2, 3), (0, 1, 2, 3))
    4
    >>> lcs_length((0, 1, 2, 3), (3, 2, 1, 0))
    1
    >>> lcs_length((0, 2, 1, 3), (3, 0, 1, 2))
    2
    """
    pos_in_a = dict(zip(a, range(len(a))))
    if len(pos_in_a) != len(a):
        check_distinct(a, "first string")
    check_distinct(b, "second string")
    if len(a) != len(b):
        raise ValueError(f"strings have unequal lengths {len(a)} and {len(b)}")
    try:
        return _lis_length(pos_in_a, b)
    except KeyError as exc:
        raise ValueError(f"second string has symbol {exc.args[0]!r}, not in the first") from None


def lcs_length_dp(a: Sequence[int], b: Sequence[int]) -> int:
    """
    The same LCS length by the classical O(|a|*|b|) dynamic program, on
    any two distinct-symbol strings.

    Retained permanently as an independent oracle for lcs_length; the two
    implementations share no code path. Symbols match as dict keys do, by
    identity or equality, so one shared nan object matches itself here as
    it does in lcs_length.
    """
    check_distinct(a, "first string")
    check_distinct(b, "second string")
    m = len(b)
    prev = [0] * (m + 1)
    for x in a:
        cur = [0] * (m + 1)
        for j, y in enumerate(b, 1):
            if x is y or x == y:
                cur[j] = prev[j - 1] + 1
            else:
                pj, cj = prev[j], cur[j - 1]
                cur[j] = pj if pj >= cj else cj
        prev = cur
    return prev[m]


def ulam_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """
    Ulam distance between two distinct-symbol strings over one symbol
    set: len(a) - lcs_length(a, b), which also refuses any other pair.

    >>> ulam_distance((0, 1, 2, 3), (0, 1, 2, 3))
    0
    >>> ulam_distance((0, 1, 2, 3), (3, 2, 1, 0))
    3
    """
    return len(a) - lcs_length(a, b)


def restrict(s: Sequence[int], symbols: Iterable[int]) -> tuple[int, ...]:
    """
    The subsequence of s consisting of the given symbols, order preserved.

    >>> restrict((3, 1, 8, 6, 4, 5, 0, 7, 2), {3, 6, 0})
    (3, 6, 0)
    >>> restrict((0, 1, 2, 3), set())
    ()
    """
    keep = set(symbols)
    return tuple(x for x in s if x in keep)


def to_digits(m: int, q: int, length: int) -> tuple[int, ...]:
    """
    Base-q digits of message index m, most significant first, padded to `length`.

    >>> to_digits(5, 2, 3)
    (1, 0, 1)
    >>> to_digits(7, 3, 2)
    (2, 1)
    """
    if type(q) is not int or type(length) is not int or q < 1 or length < 0:
        q, length = _at_least(q, 1, "base"), _at_least(length, 0, "length")
    (m,) = _check_ints((m,), q**length, "message index")
    digits = []
    for _ in range(length):
        m, r = divmod(m, q)
        digits.append(r)
    return tuple(reversed(digits))


def from_digits(digits: Sequence[int], q: int) -> int:
    """
    Integer value of base-q digits, most significant first.

    >>> from_digits((1, 0, 1), 2)
    5
    """
    if type(q) is not int or q < 1:
        q = _at_least(q, 1, "base")
    value = 0
    for d in _check_ints(digits, q, "digit"):
        value = value * q + d
    return value


# -- the integer-row file format (see the module docstring) ------------------

_INT_TOKEN = re.compile(r"-?[0-9]+")
T = TypeVar("T")


def int_token(text: str) -> int:
    """
    text as an int by the token rule -?[0-9]+, or ValueError: the one check
    behind every file token (read_int_rows) and every command-line integer.
    """
    if not _INT_TOKEN.fullmatch(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def format_permutation(word: Sequence[int]) -> str:
    return " ".join(str(x) for x in word)


def read_lines(path: str, parse: Callable[[str], T]) -> list[T]:
    """
    parse(line) for each line of the text file at path that is not blank:
    the one reader of outside files. A non-ASCII byte, or a ValueError
    from parse, raises ParameterError prefixed path:line.
    """
    values = []
    # surrogateescape keeps a non-ASCII byte in its line, to be named there
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                if not line.isascii():
                    raise ValueError("non-ASCII byte")
                if not line.isspace():
                    values.append(parse(line))
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return values


def read_int_rows(
    path: str, check: Callable[[tuple[int, ...]], None] | None = None
) -> list[tuple[int, ...]]:
    """
    The non-blank rows of an integer-row file, each passed to check if given;
    read_lines names the line of a bad token or of a ValueError from check.
    """
    def row(line: str) -> tuple[int, ...]:
        ints = tuple(map(int_token, line.split()))
        if check is not None:
            check(ints)
        return ints

    return read_lines(path, row)


def write_int_rows(path: str, rows: Iterable[Sequence[int]]) -> None:
    """Write each row as one line of space-separated decimal integers."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(format_permutation(row) + "\n" for row in rows)


def read_permutations(path: str) -> list[tuple[int, ...]]:
    """Read all permutations from a text file, one per line; blank lines skipped."""
    return read_int_rows(path, validate_permutation)
