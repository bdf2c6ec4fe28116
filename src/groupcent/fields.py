"""Small finite fields GF(p^e) with table-backed arithmetic.

Elements are encoded as integers 0..p^e-1 whose base-p digits are the
coefficients of a polynomial over GF(p), reduced by a fixed irreducible
modulus. Only desk-scale fields are supported; everything is precomputed
into dense tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TABLE_ORDER_CAP, _check_order, _shown, is_prime, largest_prime_divisor
from .errors import BadParameter, InvariantViolation, NotIrreducible, TooLarge

# Irreducible moduli (ascending-degree coefficients, monic) for every prime
# power <= 16; larger fields need a user-supplied modulus.
BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def _poly_mod(a: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a by a monic modulus, coefficients mod p."""
    a = list(a)
    deg_m = len(modulus) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i] % p
        if c:
            for j, cm in enumerate(modulus):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * cm) % p
    return [c % p for c in a[:deg_m]]


def _irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Has the monic modulus no monic factor of degree 1..e/2 over GF(p)?"""
    e = len(modulus) - 1
    for deg in range(1, e // 2 + 1):
        for tail in range(p**deg):
            cand = tuple((tail // p**i) % p for i in range(deg)) + (1,)
            if not any(_poly_mod(list(modulus), cand, p)):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) presented through dense add/mul tables on integer codes."""

    p: int
    e: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.e

    def decode(self, x: int) -> tuple[int, ...]:
        return tuple((x // self.p**i) % self.p for i in range(self.e))

    def encode(self, coeffs) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))

    def _prime_table(self, op: np.ufunc) -> np.ndarray:
        """The read-only table of op mod p on GF(p), whose codes are 0..p-1."""
        a = np.arange(self.p, dtype=np.int64)
        t = (op.outer(a, a) % self.p).astype(np.int32)
        t.setflags(write=False)
        return t

    @cached_property
    def add_table(self) -> np.ndarray:
        if self.e == 1:
            return self._prime_table(np.add)
        q = self.order
        t = np.zeros((q, q), dtype=np.int32)
        for a in range(q):
            da = self.decode(a)
            for b in range(a, q):
                db = self.decode(b)
                s = self.encode([x + y for x, y in zip(da, db)])
                t[a, b] = t[b, a] = s
        t.setflags(write=False)
        return t

    @cached_property
    def mul_table(self) -> np.ndarray:
        if self.e == 1:
            return self._prime_table(np.multiply)
        q = self.order
        t = np.zeros((q, q), dtype=np.int32)
        for a in range(q):
            da = self.decode(a)
            for b in range(a, q):
                prod = _poly_mod(_poly_mul(da, self.decode(b), self.p), self.modulus, self.p)
                t[a, b] = t[b, a] = self.encode(prod)
        t.setflags(write=False)
        return t

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        q = self.order
        inv = [0] * q
        for a in range(1, q):
            row = self.mul_table[a]
            b = int(np.nonzero(row == 1)[0][0])
            inv[a] = b
        return tuple(inv)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return self.encode([-c for c in self.decode(a)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise BadParameter("0 has no multiplicative inverse")
        return self.inverse_table[a]

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise BadParameter("0 has no multiplicative order")
        k, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    def generator(self) -> int:
        """Smallest generator of the (cyclic) multiplicative group.

        Over GF(p) that is the smallest a with a^((p-1)/r) != 1 mod p for
        each prime r dividing p - 1, so no table is built; over GF(p^e),
        e > 1, the multiplication table is walked."""
        target = self.order - 1
        if self.e == 1:
            divisors, m = [], target
            while m > 1:
                r = largest_prime_divisor(m)
                divisors.append(r)
                while m % r == 0:
                    m //= r
            found = (a for a in range(1, self.p)
                     if all(pow(a, target // r, self.p) != 1 for r in divisors))
        else:
            found = (a for a in range(1, self.order) if self.multiplicative_order(a) == target)
        a = next(found, None)
        if a is None:
            raise InvariantViolation("multiplicative group has no generator")
        return a


def gf(p: int, e: int = 1, modulus: tuple[int, ...] | None = None) -> FiniteField:
    """Field of order p^e; built-in modulus for p^e <= 16, else user-supplied.

    Raises NotIrreducible when a supplied modulus factors over GF(p), and
    TooLarge when p^e exceeds TABLE_ORDER_CAP, as no group table over the
    field fits under it.
    """
    # p meets the cap before the primality test, which takes up to sqrt(p)
    # steps, and e meets its bit length before the power, as in
    # constructions._check_elementary_abelian
    _check_order(p)
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    if e < 1:
        raise BadParameter("field degree must be >= 1")
    if e > TABLE_ORDER_CAP.bit_length():
        raise TooLarge(f"field order {p}^{_shown(e)} exceeds {TABLE_ORDER_CAP}")
    _check_order(p**e)
    if modulus is None:
        if e == 1:
            modulus = (0, 1)
        elif (p, e) in BUILTIN_MODULI:
            modulus = BUILTIN_MODULI[(p, e)]
        else:
            raise BadParameter(
                f"no built-in modulus for GF({p}^{e}); supply an irreducible one"
            )
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != e + 1 or modulus[-1] != 1:
        raise BadParameter("modulus must be monic of degree e")
    if not _irreducible(modulus, p):
        raise NotIrreducible(f"modulus {modulus} is reducible over GF({p})")
    field = FiniteField(p, e, modulus)
    field.generator()  # cyclic multiplicative group, witnessed
    return field
