import itertools
import random

import pytest

from ulamcodes.errors import ParameterError
from ulamcodes.fields import Field, factor_prime_power, is_prime

PRIME_POWERS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


def test_factor_prime_power():
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(49) == (7, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ParameterError):
            factor_prime_power(bad)


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_additive_inverse(order):
    f = Field(order)
    for a in range(order):
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_multiplicative_inverse(order):
    f = Field(order)
    for a in range(1, order):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_distributivity_exhaustive(order):
    f = Field(order)
    for a, b, c in itertools.product(range(order), repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("order", [4, 8, 9, 16, 27])
def test_commutativity_and_associativity(order):
    f = Field(order)
    for a, b in itertools.product(range(order), repeat=2):
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
    for a, b, c in itertools.product(range(order), repeat=3):
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_pow_matches_repeated_multiplication():
    f = Field(16)
    for a in range(16):
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_extension_field_characteristic_addition():
    f = Field(9)
    # adding an element to itself three times returns to zero in GF(3^2)
    for a in range(9):
        assert f.add(f.add(a, a), a) == 0


def test_multiplicative_group_order():
    # a^(order-1) == 1 for every nonzero a
    for order in (8, 9, 25, 64):
        f = Field(order)
        for a in range(1, order):
            assert f.pow(a, order - 1) == 1


def digitwise(f, a, b, sign):
    """a + sign*b added base-p digit by digit, written apart from Field."""
    p = f.characteristic
    out, shift = 0, 1
    for _ in range(f.degree):
        out += ((a % p + sign * (b % p)) % p) * shift
        a //= p
        b //= p
        shift *= p
    return out


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_add_sub_neg_match_digitwise_reference(order):
    f = Field(order)
    for a, b in itertools.product(range(order), repeat=2):
        assert f.add(a, b) == digitwise(f, a, b, 1)
        assert f.sub(a, b) == digitwise(f, a, b, -1)
    for a in range(order):
        assert f.neg(a) == digitwise(f, 0, a, -1)


def check_vector_methods(f, rows):
    rng = random.Random(f.order)
    for _ in range(rows):
        length = rng.randrange(0, 12)
        u = [rng.randrange(f.order) for _ in range(length)]
        v = [rng.randrange(f.order) for _ in range(length)]
        c = rng.randrange(f.order)
        assert f.sub_scaled(u, c, v) == [f.sub(x, f.mul(c, y)) for x, y in zip(u, v)]
        x = rng.randrange(f.order)
        expected = 0
        for j, coeff in enumerate(u):
            expected = f.add(expected, f.mul(coeff, f.pow(x, j)))
        assert f.eval_poly(u, x) == expected


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_vector_methods_match_scalar_composition(order):
    check_vector_methods(Field(order), 300)


def test_vector_methods_without_tables():
    # above the table limit both vector methods take the scalar path
    f = Field(1024)
    check_vector_methods(f, 20)
    assert f.add(0b1011, 0b0110) == 0b1101 == f.sub(0b1011, 0b0110)
    assert f.neg(77) == 77
