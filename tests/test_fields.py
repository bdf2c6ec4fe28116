"""GF(p^e) arithmetic and modulus validation."""

import time
from itertools import product

import numpy as np
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


def test_prime_field_power_is_repeated_mul():
    for p in filter(is_prime, range(50)):
        f = gf(p)
        for a in range(p):
            x = 1
            for k in range(2 * p):
                assert f._power(a, k) == x, (p, a, k)
                x = f.mul(x, a)


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


@pytest.mark.parametrize(
    "p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (3, 3), (5, 2)]
)
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
    assert gf(5, 2).order == 25  # built on the searched modulus
    with pytest.raises(BadParameter):
        gf(2, 2, modulus=(1, 1))  # wrong degree


def test_inverse_of_zero_rejected():
    with pytest.raises(BadParameter):
        gf(3).inv(0)


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3)], ids=["GF7", "GF8"])
@pytest.mark.parametrize("which", ["low", "high"])
@pytest.mark.parametrize(
    "method",
    [
        lambda f, x: f.add(x, 0),
        lambda f, x: f.add(0, x),
        lambda f, x: f.mul(x, 2),
        lambda f, x: f.mul(0, x),
        lambda f, x: f.neg(x),
        lambda f, x: f.inv(x),
        lambda f, x: f.decode(x),
        lambda f, x: f.multiplicative_order(x),
    ],
    ids=["add", "add_right", "mul", "mul_by_zero", "neg", "inv", "decode", "multiplicative_order"],
)
def test_code_out_of_range_rejected(p, e, which, method):
    # numpy would wrap -1 to the last code, and digit arithmetic would reduce q
    f = gf(p, e)
    code = -1 if which == "low" else f.order
    with pytest.raises(BadParameter, match=rf"^code {code} is not in 0\.\.{f.order - 1} of GF\({f.order}\)$"):
        method(f, code)


def test_encode_reduces_coefficients():
    assert gf(7).encode((-1,)) == 6 and gf(7).encode((9,)) == 2
    assert gf(2, 3).encode((3, -1, 2)) == 3


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


# the first irreducible x^e + t, tails t in code order; the first four were
# once a table of built-in moduli
@pytest.mark.parametrize(
    "p,e,modulus",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 1, 0, 1)),
        (2, 4, (1, 1, 0, 0, 1)),
        (3, 2, (1, 0, 1)),
        (2, 1, (0, 1)),
        (3, 1, (0, 1)),
        (16381, 1, (0, 1)),
        (3, 3, (1, 2, 0, 1)),
        (5, 2, (2, 0, 1)),
    ],
)
def test_searched_modulus(p, e, modulus):
    assert gf(p, e).modulus == modulus


PRIMES = list(filter(is_prime, range(200)))
EXTENSIONS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (2, 5)]


def _formula_tables(p):
    """GF(p)'s tables as add and multiply mod p in int64, stored as int32:
    an oracle independent of the digit arrays and the exp/log pair."""
    a = np.arange(p, dtype=np.int64)
    return [(op.outer(a, a) % p).astype(np.int32) for op in (np.add, np.multiply)]


def _assert_generator_is_walked(f, mul):
    """The generator is the smallest a whose multiplicative order, walked
    through the oracle table mul, is q - 1, and multiplicative_order agrees
    with the walk at every unit. Building the field built no table."""
    assert "mul_table" not in f.__dict__ and "add_table" not in f.__dict__
    q = f.order
    codes = np.arange(q)
    orders = np.zeros(q, dtype=np.int64)
    x = codes.copy()  # x[a] = a^k, all codes at once
    for k in range(1, q):
        orders[(x == 1) & (orders == 0)] = k
        x = mul[x, codes]
    assert f.generator() == int(np.flatnonzero(orders == q - 1)[0])
    assert [f.multiplicative_order(a) for a in range(1, q)] == orders[1:].tolist()


def _assert_tables_match(f, oracle):
    for got, want in zip((f.add_table, f.mul_table), oracle):
        assert got.dtype == want.dtype == np.int32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, f.order))


def test_prime_field_generator_matches_the_table_walk():
    for p in PRIMES:
        _assert_generator_is_walked(gf(p), _formula_tables(p)[1])


@pytest.mark.parametrize("p,e", EXTENSIONS)
def test_extension_field_generator_matches_the_table_walk(p, e):
    f = gf(p, e)
    _assert_generator_is_walked(f, loop_field_tables(f)[1])


def test_prime_field_tables_are_byte_identical_to_the_loop():
    # the mod p formula for every prime below 200, and the polynomial loop,
    # which costs O(q^2) Python steps, below 30; the tables are q x q, so
    # tests keep q small (at q = 16381 the int64 outer product alone would
    # take 2 GB)
    for p in PRIMES:
        f = gf(p)
        _assert_tables_match(f, _formula_tables(p))
        if p < 30:
            _assert_tables_match(f, loop_field_tables(f))


@pytest.mark.parametrize("p,e", EXTENSIONS)
def test_extension_field_tables_are_byte_identical_to_the_loop(p, e):
    f = gf(p, e)
    _assert_tables_match(f, loop_field_tables(f))


def test_largest_prime_field_builds_no_table():
    start = time.perf_counter()
    f = gf(16381)
    assert time.perf_counter() - start < 0.1
    assert f.generator() == 2
    assert "mul_table" not in f.__dict__ and "add_table" not in f.__dict__


def test_field_of_order_4096_builds_no_table():
    start = time.perf_counter()
    f = gf(2, 12)
    assert time.perf_counter() - start < 0.1
    assert f.modulus == (1, 0, 0, 1) + (0,) * 8 + (1,)  # x^12 + x^3 + 1
    assert "mul_table" not in f.__dict__ and "add_table" not in f.__dict__


@pytest.mark.parametrize("p,e", [(p, 1) for p in PRIMES if p < 30] + EXTENSIONS)
def test_add_and_mul_match_the_tables(p, e):
    f = gf(p, e)
    pairs = list(product(range(f.order), repeat=2))
    assert [f.add(a, b) for a, b in pairs] == [int(f.add_table[a, b]) for a, b in pairs]
    assert [f.mul(a, b) for a, b in pairs] == [int(f.mul_table[a, b]) for a, b in pairs]


def test_one_product_builds_no_table():
    # the tables of GF(4001) take 128 MB
    f = gf(4001)
    assert f.mul(2, 3) == 6 and f.add(4000, 5) == 4
    assert "mul_table" not in f.__dict__ and "add_table" not in f.__dict__
