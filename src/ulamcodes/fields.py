"""
Finite field arithmetic for the Reed-Solomon layer.

Elements of GF(p) and GF(p^m) are plain ints in [0, order). Extension
field elements pack polynomial coefficients base p, so that int digit i
is the coefficient of x^i; the reducing polynomial is the lexicographically
first monic irreducible of degree m, making every field reproducible from
its order alone.

In characteristic 2 the packing makes addition and subtraction a bitwise
XOR and negation the identity; odd characteristics add digit by digit.
Multiplication and inversion read tables built eagerly for orders up to
512 (construction cost grows quadratically with the order), and the two
vector methods, ``sub_scaled`` for an elimination row and ``eval_poly``
for Horner evaluation, read one multiplication-table row per call instead
of making a method call per element.
"""
from __future__ import annotations

from typing import Sequence

from .errors import ParameterError

_TABLE_LIMIT = 512


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(order: int) -> tuple[int, int]:
    """Return (p, m) with order = p^m and p prime, or raise ParameterError."""
    if order < 2:
        raise ParameterError(f"field order must be >= 2, got {order}")
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
        p, m = factor_prime_power(order)
        self.order = order
        self.characteristic = p
        self.degree = m
        self.modulus = _find_irreducible(p, m) if m > 1 else None
        self._mul_table = None
        self._inv_table = None
        if order <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        return f"Field({self.order})"

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF({self.order})")
        return a

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
        if self.characteristic == 2:
            return a
        if self.degree == 1:
            return (-a) % self.order
        p = self.characteristic
        out, shift = 0, 1
        while a:
            out += (-a % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.characteristic == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.order + b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.order})")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def sub_scaled(self, u: Sequence[int], c: int, v: Sequence[int]) -> list[int]:
        """The row u - c*v, element by element (zip stops at the shorter)."""
        if self._mul_table is None or self.characteristic != 2:
            return [self.sub(x, self.mul(c, y)) for x, y in zip(u, v)]
        row = self._mul_table[c * self.order : (c + 1) * self.order]
        return [x ^ row[y] for x, y in zip(u, v)]

    def eval_poly(self, coeffs: Sequence[int], x: int) -> int:
        """Horner evaluation at x of the polynomial with ascending coefficients."""
        acc = 0
        if self._mul_table is None or self.characteristic != 2:
            for c in reversed(coeffs):
                acc = self.add(self.mul(acc, x), c)
            return acc
        row = self._mul_table[x * self.order : (x + 1) * self.order]
        for c in reversed(coeffs):
            acc = row[acc] ^ c
        return acc

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

    def _build_tables(self):
        n = self.order
        table = [0] * (n * n)
        for a in range(n):
            for b in range(a, n):
                v = self._mul_raw(a, b)
                table[a * n + b] = v
                table[b * n + a] = v
        self._mul_table = table
        inv = [0] * n
        for a in range(1, n):
            for b in range(1, n):
                if table[a * n + b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv


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
