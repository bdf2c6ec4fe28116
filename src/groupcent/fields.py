"""Small finite fields GF(p^e) on integer codes.

Elements are encoded as integers 0..p^e-1 whose base-p digits are the
coefficients of a polynomial over GF(p), reduced by an irreducible monic
modulus: unless one is supplied, the first x^e + t with the tails t in code
order. Multiplicative orders and the generator come from the prime factors
of p^e - 1 by square-and-multiply, so building a field builds no table, and
neither do ``add`` and ``mul``, which read base-p digits and one exp/log pair
of the generator. The dense q x q tables are built on first use from those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TABLE_ORDER_CAP, _check_order, _prime_factors, _shown, is_prime
from .errors import BadParameter, InvariantViolation, NotIrreducible, TooLarge


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


def _monic(tail: int, p: int, degree: int) -> tuple[int, ...]:
    """x^degree plus the polynomial whose coefficients are the base-p digits
    of tail, ascending."""
    return tuple((tail // p**i) % p for i in range(degree)) + (1,)


def _irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Has the monic modulus no monic factor of degree 1..e/2 over GF(p)?"""
    e = len(modulus) - 1
    for deg in range(1, e // 2 + 1):
        for tail in range(p**deg):
            if not any(_poly_mod(list(modulus), _monic(tail, p, deg), p)):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^e) on integer codes, with dense add/mul tables built on demand."""

    p: int
    e: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.e

    def _code(self, x: int) -> int:
        """x if it codes an element, else BadParameter; ``encode`` reduces instead."""
        if not 0 <= x < self.order:
            raise BadParameter(f"code {x} is not in 0..{self.order - 1} of GF({self.order})")
        return x

    def decode(self, x: int) -> tuple[int, ...]:
        x = self._code(x)
        return tuple((x // self.p**i) % self.p for i in range(self.e))

    def encode(self, coeffs) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))

    def _times(self, a: list[int], b: list[int]) -> list[int]:
        """The product of two digit lists, as a digit list."""
        return _poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p)

    def _power(self, a: int, k: int) -> int:
        """a^k for k >= 0: ``pow`` mod p in a prime field, else by square-and-multiply."""
        if self.e == 1:
            return pow(self._code(a), k, self.p)
        result, base = [1], list(self.decode(a))
        while k:
            if k & 1:
                result = self._times(result, base)
            base = self._times(base, base)
            k >>= 1
        return self.encode(result)

    @cached_property
    def _exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[i] = g^i for 0 <= i < q - 1 and log[exp[i]] = i, for the
        generator g; log[0] is an unused 0."""
        q, g = self.order, list(self.decode(self.generator()))
        exp = np.ones(q - 1, dtype=np.int32)
        x = [1]
        for i in range(1, q - 1):
            x = self._times(x, g)
            exp[i] = self.encode(x)
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        return exp, log

    @cached_property
    def add_table(self) -> np.ndarray:
        # digit by digit: sum of (d_i(a) + d_i(b) mod p) p^i
        codes = np.arange(self.order, dtype=np.int32)
        t = np.zeros((self.order, self.order), dtype=np.int32)
        for i in range(self.e):
            d = (codes // self.p**i) % self.p
            t += (np.add.outer(d, d) % self.p) * self.p**i
        t.setflags(write=False)
        return t

    @cached_property
    def mul_table(self) -> np.ndarray:
        exp, log = self._exp_log
        t = exp[(log[:, None] + log[None, :]) % (self.order - 1)]
        t[0, :] = t[:, 0] = 0
        t.setflags(write=False)
        return t

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        exp, log = self._exp_log
        inv = exp[-log % (self.order - 1)]
        inv[0] = 0
        return tuple(inv.tolist())

    def add(self, a: int, b: int) -> int:
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def mul(self, a: int, b: int) -> int:
        a, b = self._code(a), self._code(b)
        exp, log = self._exp_log
        return int(exp[(log[a] + log[b]) % (self.order - 1)]) if a and b else 0

    def neg(self, a: int) -> int:
        return self.encode([-c for c in self.decode(a)])

    def inv(self, a: int) -> int:
        if self._code(a) == 0:
            raise BadParameter("0 has no multiplicative inverse")
        return self.inverse_table[a]

    def multiplicative_order(self, a: int) -> int:
        """The least k >= 1 with a^k = 1: q - 1 divided by each prime r of
        q - 1 for as long as the power stays 1."""
        if self._code(a) == 0:
            raise BadParameter("0 has no multiplicative order")
        k = self.order - 1
        for r, _ in _prime_factors(k):
            while k % r == 0 and self._power(a, k // r) == 1:
                k //= r
        return k

    def generator(self) -> int:
        """Smallest generator of the (cyclic) multiplicative group: the
        smallest a with a^((q-1)/r) != 1 for each prime r dividing q - 1."""
        target = self.order - 1
        factors = _prime_factors(target)
        found = (a for a in range(1, self.order)
                 if all(self._power(a, target // r) != 1 for r, _ in factors))
        a = next(found, None)
        if a is None:
            raise InvariantViolation("multiplicative group has no generator")
        return a


def gf(p: int, e: int = 1, modulus: tuple[int, ...] | None = None) -> FiniteField:
    """Field of order p^e, modulo the supplied monic modulus of degree e or,
    without one, the first irreducible x^e + t with the tails t taken in
    code order sum(t_i p^i); that is x for e = 1.

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
        # an irreducible polynomial of every degree exists over GF(p)
        monic = (_monic(t, p, e) for t in range(p**e))
        modulus = next(m for m in monic if _irreducible(m, p))
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise BadParameter("modulus must be monic of degree e")
        if not _irreducible(modulus, p):
            raise NotIrreducible(f"modulus {modulus} is reducible over GF({p})")
    field = FiniteField(p, e, modulus)
    field.generator()  # cyclic multiplicative group, witnessed
    return field
