"""GF(p^e) arithmetic and modulus validation."""

import time
from itertools import product

import pytest

from groupcent import gf
from groupcent.core import is_prime
from groupcent.errors import BadParameter, NotIrreducible, TooLarge
from groupcent.fields import _irreducible

from conftest import loop_field_tables


def test_gf4_multiplication_by_hand():
    # elements: 0, 1, x (=2), x+1 (=3) with modulus x^2 + x + 1
    f = gf(2, 2)
    x, x1 = f.encode((0, 1)), f.encode((1, 1))
    assert f.mul(x, x1) == 1
    assert f.mul(x, x) == x1  # x^2 = x + 1
    assert f.add(x, x1) == 1


def test_prime_field_is_mod_p():
    f = gf(7)
    assert all(f.add(a, b) == (a + b) % 7 for a in range(7) for b in range(7))
    assert all(f.mul(a, b) == (a * b) % 7 for a in range(7) for b in range(7))


def test_reducible_modulus_rejected():
    # x^2 + 1 has the root 1 over GF(2)
    with pytest.raises(NotIrreducible):
        gf(2, 2, modulus=(1, 0, 1))


def test_gf9_modulus_irreducible():
    f = gf(3, 2)
    assert f.order == 9
    # x^2 = -1 = 2 under x^2 + 1
    x = f.encode((0, 1))
    assert f.mul(x, x) == 2


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_and_cyclic_units(p, e):
    f = gf(p, e)
    q = f.order
    # distributivity spot grid and associativity of multiplication
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, f.neg(a)) == 0
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    g = f.generator()
    assert f.multiplicative_order(g) == q - 1


def test_distributivity_gf8():
    f = gf(2, 3)
    for a in range(8):
        for b in range(8):
            for c in range(8):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_bad_parameters():
    with pytest.raises(BadParameter):
        gf(4, 1)
    with pytest.raises(BadParameter):
        gf(2, 0)
    with pytest.raises(BadParameter):
        gf(5, 2)  # no built-in modulus for order 25
    with pytest.raises(BadParameter):
        gf(2, 2, modulus=(1, 1))  # wrong degree


def test_inverse_of_zero_rejected():
    with pytest.raises(BadParameter):
        gf(3).inv(0)


def _monic(p, degree):
    """Every monic polynomial of the degree over GF(p), ascending coefficients."""
    return [tail + (1,) for tail in product(range(p), repeat=degree)]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p,top", [(2, 4), (3, 4), (5, 2)])
def test_irreducible_matches_product_enumeration(p, top):
    # a monic polynomial of degree e is reducible iff it is the product of two
    # monic polynomials of degrees d and e - d for some 1 <= d < e
    for e in range(1, top + 1):
        reducible = {
            _times(a, b, p) for d in range(1, e) for a in _monic(p, d) for b in _monic(p, e - d)
        }
        for f in _monic(p, e):
            assert _irreducible(f, p) == (f not in reducible), (p, f)


@pytest.mark.parametrize("args", [(2305843009213693951,), (2, 17), (3, 10**30), (65537, 1)])
def test_field_past_the_table_cap_is_too_large_at_once(args):
    # compared with the cap before the primality test and the power
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        gf(*args)
    assert time.perf_counter() - start < 1


def test_prime_field_generator_matches_the_table_walk():
    # the smallest a whose multiplicative order, walked through mul_table,
    # is p - 1
    for p in filter(is_prime, range(200)):
        f = gf(p)
        assert "mul_table" not in f.__dict__, p
        walked = next(a for a in range(1, p) if f.multiplicative_order(a) == p - 1)
        assert f.generator() == walked, p


def test_largest_prime_field_builds_no_table():
    f = gf(65521)
    assert f.generator() == 17
    assert "mul_table" not in f.__dict__ and "add_table" not in f.__dict__


def test_prime_field_tables_are_byte_identical_to_the_loop():
    # the broadcast tables, taken mod p in int64 and stored as int32, for
    # every prime below 200; the tables are q x q, so tests keep q small
    # (at q = 65521 the int64 outer product alone would take 34 GB)
    for p in filter(is_prime, range(200)):
        f = gf(p)
        for got, want in zip((f.add_table, f.mul_table), loop_field_tables(f)):
            assert got.dtype == want.dtype and got.shape == want.shape, p
            assert got.tobytes() == want.tobytes(), p
            assert not got.flags.writeable, p
