"""
Finite field arithmetic for the Reed-Solomon layer.

Elements of GF(p) and GF(p^m) are plain ints in [0, order). Extension
field elements pack polynomial coefficients base p, so that int digit i
is the coefficient of x^i; the reducing polynomial is the lexicographically
first monic irreducible of degree m, making every field reproducible from
its order alone.

In characteristic 2 the packing makes addition and subtraction a bitwise
XOR; odd characteristics add digit by digit. Negation is multiplication
by -1, the constant p - 1 (1 in characteristic 2).
Multiplication and inversion read exp/log tables of the smallest
primitive element g: exp[i] = g^i and log[a] is the exponent of a.
Walking the powers of the candidates 1, 2, ... until one reaches all
order - 1 nonzero elements costs a small multiple of order raw products
(1.3 * order at GF(2^16), 2 * order at GF(3^7)). An order above
ORDER_LIMIT = 2^16 is refused before it is factored or any table built.

``mul`` reads those tables in every field. Beyond them a field has one
of two shapes. In characteristic 2 up to order 256 the multiplication
table is one ``bytes`` row per element, padded to 256 bytes: row g is
filled from exp/log, and the row of g^(i+1) is the row of g^i translated
through it, so the table costs O(order) ``bytes.translate`` calls. The
vector methods read these rows: ``sub_scaled`` (an elimination row) and
``combine`` (sum of c_i * row_i over ``bytes`` rows made by ``vector`` or
``power_rows``, one ``bytes.translate`` per row, read as an integer and
XORed). Every other field has no table and tuple rows, and the vector
methods call ``mul`` per element.
"""
from __future__ import annotations

import operator
from functools import reduce
from itertools import chain, repeat
from typing import Sequence

from .errors import ParameterError
from .perm_core import _at_least, _check_ints

_TABLE_LIMIT = 256
ORDER_LIMIT = 1 << 16


def factor_prime_power(order: int) -> tuple[int, int]:
    """Return (p, m) with order = p^m and p prime, or raise ParameterError."""
    order = _at_least(order, 2, "field order")
    p = 2
    while p * p <= order:
        if order % p == 0:
            m = 0
            n = order
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise ParameterError(f"{order} is not a prime power")
            return p, m
        p += 1
    return order, 1  # order itself prime


class Field:
    """Arithmetic in GF(p^m); element values are ints in [0, order)."""

    def __init__(self, order: int):
        order = _at_least(order, 2, "field order")
        if order > ORDER_LIMIT:
            raise ParameterError(f"field order {order} is above the limit {ORDER_LIMIT}")
        p, m = factor_prime_power(order)
        self.order = order
        self.characteristic = p
        self.degree = m
        self.modulus = _find_irreducible(p, m) if m > 1 else None
        self._exp, self._log = self._exp_log()
        self._mul_rows: list[bytes] | None = None
        if p == 2 and order <= _TABLE_LIMIT:
            exp, log = self._exp, self._log
            pad = bytes(256 - order)
            # the row of a is b -> a*b; the row of g^(i+1) is g's row
            # applied to the row of g^i
            g_row = bytes(exp[1 + lb] for lb in log) + pad
            rows = [bytes(256)] * order
            row = bytes(range(order)) + pad
            for a in exp[: order - 1]:
                rows[a] = row
                row = row.translate(g_row)
            self._mul_rows = rows

    def __repr__(self) -> str:
        return f"Field({self.order})"

    def check(self, a: int) -> int:
        """a as an element by perm_core's integer rule, or ParameterError naming it."""
        if type(a) is int and 0 <= a < self.order:
            return a
        return _check_ints((a,), self.order, f"GF({self.order}) element")[0]

    def add(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        if self.degree == 1:
            return (a + b) % self.order
        p = self.characteristic
        out, shift = 0, 1
        while a or b:
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a: int) -> int:
        # -1 is the constant p - 1 in GF(p^m), which is 1 in characteristic 2
        return self.mul(self.characteristic - 1, a)

    def sub(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if not 0 <= a < self.order or not 0 <= b < self.order:
            raise ValueError(f"mul({a}, {b}): not elements of GF({self.order})")
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.order})")
        if not 0 < a < self.order:
            raise ValueError(f"{a} is not an element of GF({self.order})")
        return self._exp[self.order - 1 - self._log[a]]

    def sub_scaled(self, u: Sequence[int], c: int, v: Sequence[int]) -> list[int]:
        """The row u - c*v, element by element (zip stops at the shorter)."""
        if self._mul_rows is None:
            return [self.sub(x, self.mul(c, y)) for x, y in zip(u, v)]
        row = self._mul_rows[c]
        return [x ^ row[y] for x, y in zip(u, v)]

    def power_rows(self, points: Sequence[int], count: int) -> tuple:
        """
        For j = 0..count-1 the vector of a^j over the points, from exp/log.
        With the exp cycle repeated, a^j for a != 0 is entry j*log(a), so
        each point's powers are one strided slice, and each row is one more.
        """
        if points and not (0 <= min(points) and max(points) < self.order):
            raise ValueError(f"power_rows: points must be elements of GF({self.order})")
        m, log = self.order - 1, self._log
        cycle = self.vector(self._exp[:m]) * count
        zero = self.vector([1] + [0] * (count - 1))  # 0^0 = 1
        # step m reads exp[0] = 1 at every j, the powers of a = 1
        columns = [cycle[: count * (log[a] or m) : log[a] or m] if a else zero for a in points]
        if self._mul_rows is not None:
            flat = b"".join(columns)
        else:
            flat = tuple(chain.from_iterable(columns))
        return tuple(flat[j::count] for j in range(count))

    def vector(self, values: Sequence[int]) -> bytes | tuple[int, ...]:
        """values as a row for ``combine``: bytes when the field has byte rows."""
        return bytes(values) if self._mul_rows is not None else tuple(values)

    def combine(self, coeffs: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """
        The sum of c * row over zip(coeffs, rows). Rows share one length and
        are made by ``vector`` or ``power_rows``; coefficients are elements
        of the field.
        """
        if not rows:
            return ()
        length = len(rows[0])
        if self._mul_rows is not None:
            # c * row is row translated through c's table row; XOR adds
            scaled = map(bytes.translate, rows, map(self._mul_rows.__getitem__, coeffs))
            total = reduce(operator.xor, map(int.from_bytes, scaled, repeat("little")), 0)
            return tuple(total.to_bytes(length, "little"))
        out = [0] * length
        for c, row in zip(coeffs, rows):
            if c:
                out = [self.add(x, self.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    def _mul_raw(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a * b) % self.order
        p = self.characteristic
        fa = _unpack(a, p)
        fb = _unpack(b, p)
        prod = [0] * (len(fa) + len(fb) - 1) if fa and fb else []
        for i, ca in enumerate(fa):
            if ca:
                for j, cb in enumerate(fb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        return _pack(_poly_mod(prod, self.modulus, p), p)

    def _exp_log(self) -> tuple[list[int], list[int]]:
        # exp[i] = g^i for the smallest primitive element g, found by
        # walking each candidate's powers until they return to 1. exp is
        # written out twice, so exp[log a + log b] needs no reduction, and
        # log[0] points past both copies into zeros, so a zero factor gives
        # 0 without a branch.
        n = self.order - 1
        for g in range(1, self.order):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._mul_raw(x, g)
            if len(powers) == n:
                break
        log = [2 * n] * self.order
        for i, x in enumerate(powers):
            log[x] = i
        return powers * 2 + [0] * (2 * n + 1), log


def _unpack(value: int, p: int) -> list[int]:
    coeffs = []
    while value:
        value, r = divmod(value, p)
        coeffs.append(r)
    return coeffs


def _pack(coeffs: list[int], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_mod(poly: list[int], modulus: list[int], p: int) -> list[int]:
    poly = list(poly)
    dm = len(modulus) - 1
    while len(poly) > dm:
        lead = poly[-1]
        if lead:
            # modulus is monic, so subtract lead * x^(deg poly - dm) * modulus
            off = len(poly) - 1 - dm
            for i, c in enumerate(modulus):
                poly[off + i] = (poly[off + i] - lead * c) % p
        poly.pop()
    return poly


def _is_irreducible(candidate: list[int], p: int) -> bool:
    # trial division by every monic polynomial of degree 1..deg/2
    deg = len(candidate) - 1
    for d in range(1, deg // 2 + 1):
        for packed in range(p**d):
            low = _unpack(packed, p)
            divisor = low + [0] * (d - len(low)) + [1]
            if not any(_poly_mod(candidate, divisor, p)):
                return False
    return True


def _find_irreducible(p: int, m: int) -> list[int]:
    """Lexicographically first monic irreducible of degree m over GF(p)."""
    for packed in range(p**m):
        coeffs = _unpack(packed, p)
        coeffs += [0] * (m - len(coeffs))
        candidate = coeffs + [1]
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")
