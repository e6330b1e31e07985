import itertools
import random

import pytest

from ulamcodes import fields
from ulamcodes.errors import ParameterError
from ulamcodes.fields import Field, factor_prime_power

PRIME_POWERS_TO_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


def test_factor_prime_power():
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(49) == (7, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ParameterError):
            factor_prime_power(bad)


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


@pytest.mark.parametrize("order", [32, 1024])
def test_mul_and_inv_reject_non_elements(order):
    # with and without the multiplication table, a negative index must not
    # wrap around to a table entry
    f = Field(order)
    for bad in (-1, order):
        for call in (lambda: f.mul(bad, 3), lambda: f.mul(3, bad), lambda: f.inv(bad)):
            with pytest.raises(ValueError, match="GF"):
                call()


def power(f, a, e):
    """a^e in f by square-and-multiply over f.mul, apart from Field."""
    out = 1
    while e:
        if e & 1:
            out = f.mul(out, a)
        a = f.mul(a, a)
        e >>= 1
    return out


def test_pow_matches_repeated_multiplication():
    f = Field(16)
    for a in range(16):
        acc = 1
        for e in range(6):
            assert power(f, a, e) == acc
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
            assert power(f, a, order - 1) == 1


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


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_vector_methods_match_scalar_composition(order):
    check_vector_methods(Field(order), 300)


@pytest.mark.parametrize("order", [256, 512])
def test_vector_methods_at_the_table_limit(order):
    # GF(256) is the largest field with byte rows; GF(512) reads exp/log
    f = Field(order)
    assert (f._mul_rows is None) == (order > 256)
    check_vector_methods(f, 100)


def test_vector_methods_without_tables():
    # above the table limit sub_scaled calls mul per element, and mul reads
    # the exp/log tables
    for order in (512, 1024):
        f = Field(order)
        assert f._mul_rows is None
        check_vector_methods(f, 20)
        assert f.add(0b1011, 0b0110) == 0b1101 == f.sub(0b1011, 0b0110)
        assert f.neg(77) == 77


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64 + [256, 512, 1024])
def test_combine_matches_scalar_sum(order):
    # the sum of c_i * row_i against raw products added digit by digit
    f = Field(order)
    rng = random.Random(order)
    special = [0, 1, order - 1]
    for _ in range(60):
        length = rng.randrange(1, 12)
        rows = [
            [rng.choice(special + [rng.randrange(order)]) for _ in range(length)]
            for _ in range(rng.randrange(1, 9))
        ]
        coeffs = [rng.choice(special + [rng.randrange(order)]) for _ in rows]
        expected = [0] * length
        for c, row in zip(coeffs, rows):
            expected = [digitwise(f, x, f._mul_raw(c, y), 1) for x, y in zip(expected, row)]
        vectors = [f.vector(row) for row in rows]
        assert all(type(v) is (bytes if f.characteristic == 2 and order <= 256 else tuple)
                   for v in vectors)
        assert f.combine(coeffs, vectors) == tuple(expected)
    assert f.combine([], []) == ()


@pytest.mark.parametrize("order", [2, 3, 8, 9, 243, 256, 512, 1024])
def test_power_rows_match_repeated_raw_products(order):
    f = Field(order)
    points = sorted({0, 1, 2 % order, order - 1, order // 2})
    for count in (0, 1, 12):
        rows = f.power_rows(points, count)
        assert len(rows) == count
        for j, row in enumerate(rows):
            assert row == f.vector(row)
            expected = []
            for a in points:
                acc = 1
                for _ in range(j):
                    acc = f._mul_raw(acc, a)
                expected.append(acc)
            assert list(row) == expected
    for bad in (-1, order):
        with pytest.raises(ValueError, match="GF"):
            f.power_rows([0, bad], 3)


@pytest.mark.parametrize("order", [4, 9, 32, 243, 256])
def test_multiplication_rows_are_padded_bytes(order):
    # only characteristic 2 has byte rows: no other field's kernels read them
    f = Field(order)
    if f.characteristic != 2:
        assert f._mul_rows is None
        return
    assert len(f._mul_rows) == order
    for a, row in enumerate(f._mul_rows):
        assert type(row) is bytes and len(row) == 256
        assert not any(row[order:])
        assert list(row[:order]) == [f._mul_raw(a, b) for b in range(order)]


@pytest.mark.parametrize("order", [32, 1024])
def test_check_rejects_non_integers(order):
    f = Field(order)
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match="GF"):
            f.check(bad)
    assert f.check(True) == 1 and type(f.check(True)) is int


# ------------------------------------------- exp/log tables against _mul_raw

def check_exp_log(f):
    """exp walks every nonzero element once, and log is its inverse."""
    n = f.order - 1
    assert sorted(f._exp[:n]) == list(range(1, f.order))
    assert all(f._log[f._exp[i]] == i for i in range(n))


@pytest.mark.parametrize("order", PRIME_POWERS_TO_64)
def test_tables_match_raw_product_exhaustively(order):
    f = Field(order)
    check_exp_log(f)
    for a, b in itertools.product(range(order), repeat=2):
        assert f.mul(a, b) == f._mul_raw(a, b)
    for a in range(1, order):
        assert f._mul_raw(a, f.inv(a)) == 1


@pytest.mark.parametrize("order", [125, 128, 243, 256, 512])
def test_tables_match_raw_product_on_samples(order):
    f = Field(order)
    check_exp_log(f)
    rng = random.Random(order)
    for _ in range(2000):
        a, b = rng.randrange(order), rng.randrange(order)
        assert f.mul(a, b) == f._mul_raw(a, b)
    # every row and column through 0 and 1, and every inverse
    for a in range(order):
        assert f.mul(a, 0) == f.mul(0, a) == 0 and f.mul(a, 1) == f.mul(1, a) == a
    for a in range(1, order):
        assert f._mul_raw(a, f.inv(a)) == 1


def test_order_above_the_limit_is_refused_before_factoring(monkeypatch):
    # GF(4096), the largest order below, stays within the limit
    assert fields.ORDER_LIMIT >= 4096
    monkeypatch.setattr(fields, "factor_prime_power", None)
    for order in (fields.ORDER_LIMIT + 1, 10**30):
        with pytest.raises(ParameterError, match=f"field order {order} is above the limit"):
            Field(order)


@pytest.mark.parametrize("order", [512, 1024, 2187, 4096])
def test_above_table_limit_matches_raw_product(order):
    f = Field(order)
    assert f._mul_rows is None
    check_exp_log(f)
    rng = random.Random(order)
    elements = [*range(8), order - 1] + [rng.randrange(order) for _ in range(60)]
    for a, b in itertools.product(elements, repeat=2):
        assert f.mul(a, b) == f._mul_raw(a, b)
    for a in range(1, order, 7):
        assert f._mul_raw(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    for _ in range(40):
        length = rng.randrange(0, 12)
        u = [rng.choice(elements) for _ in range(length)]
        v = [rng.choice(elements) for _ in range(length)]
        c = rng.choice(elements)
        assert f.sub_scaled(u, c, v) == [f.sub(s, f._mul_raw(c, t)) for s, t in zip(u, v)]
