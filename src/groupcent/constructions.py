"""Builders for the group families used throughout the catalog.

Each builder's table is a group by construction (a formula, a product, a
permutation closure or ``semidirect``'s action tests), so it goes to
``core._group`` with no Light's test or copy; only ``dihedral`` keeps
``from_table``. All write uint16; products use ``core._product_table``.

Each spec family's parameter domain is one private ``_check_*`` function,
the first step of its builder: it returns the order of the group through
``core._check_order``, the one size rule. The spec parser runs it on each
builtin part and checks the product of the orders, so a bad argument, or a
group over the table budget, is refused before anything is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TABLE_ORDER_CAP,
    FiniteGroup,
    Subgroup,
    _check_order,
    _group,
    _product_table,
    _shown,
    center,
    direct_product,
    from_table,
    is_prime,
    quotient,
    renamed,
)
from .errors import (
    BadOrder,
    BadParameter,
    NotAnAction,
    NotAPermutation,
    NotCentralIso,
    TooLarge,
)
from .fields import FiniteField, gf


def _check_cyclic(n: int) -> int:
    if n < 1:
        raise BadParameter("cyclic group order must be >= 1")
    return _check_order(n)


def _cyclic_table(n: int) -> np.ndarray:
    """The table of C_n as a uint16 view: row i is the window i, ..., i + n - 1
    of 0..n-1 written twice, so nothing n x n is allocated."""
    wrapped = (np.arange(2 * n - 1) % n).astype(np.uint16)
    return np.lib.stride_tricks.sliding_window_view(wrapped, n)


def cyclic(n: int) -> FiniteGroup:
    _check_cyclic(n)
    return _group(np.ascontiguousarray(_cyclic_table(n)), f"C{n}", 0)


def _check_elementary_abelian(p: int, k: int) -> int:
    # p and k meet the cap before the primality test and the power: a table
    # holds no C_p with p above it, and p^k passes it once k passes 16
    _check_order(p)
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    if k < 0:
        raise BadParameter("exponent must be >= 0")
    if k > TABLE_ORDER_CAP.bit_length():
        raise TooLarge(f"order {p}^{_shown(k)} exceeds {TABLE_ORDER_CAP}")
    return _check_order(p**k)


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """Direct power C_p^k, with digit-wise addition base p."""
    _check_elementary_abelian(p, k)
    # C_p^(j+1) is C_p x C_p^j: a new leading digit
    table = np.zeros((1, 1), dtype=np.uint16)
    for _ in range(k):
        table = _product_table(_cyclic_table(p), table)
    name = f"C{p}^{k}" if k != 1 else f"C{p}"
    return _group(table, name, 0)


def _check_dihedral(two_n: int) -> int:
    if two_n % 2 != 0 or two_n < 6:
        raise BadParameter(f"dihedral order must be even and >= 6, got {two_n}")
    return _check_order(two_n)


def dihedral(two_n: int) -> FiniteGroup:
    """Dihedral group of order two_n (rotations first, then reflections)."""
    _check_dihedral(two_n)
    # Element f * half + i is s^f r^i, and s^f1 r^i1 s^f2 r^i2 is
    # s^(f1 ^ f2) r^(i2 + i1) when f2 = 0 and r^(i2 + half - i1) when f2 = 1.
    # Built in place in uint16: no sum exceeds two_n - 1, and none is negative.
    half = two_n // 2
    i = np.arange(two_n, dtype=np.uint16) % half
    table = np.empty((two_n, two_n), dtype=np.uint16)
    np.add(i[:, None], i[None, :half], out=table[:, :half])
    np.add((half - i)[:, None], i[None, half:], out=table[:, half:])
    table %= half
    table[:half, half:] += half
    table[half:, :half] += half
    # stays on from_table: without its copy, glibc keeps more free heap after the bench's D1030
    return from_table(table, name=f"D{two_n}")


def quaternion8() -> FiniteGroup:
    """The quaternion group on {1, -1, i, -i, j, -j, k, -k}."""
    # Element 2u + s is (-1)^s times unit u of (1, i, j, k). The product of
    # units u1 and u2 is unit u1 XOR u2, negated where neg[u1, u2] is set.
    u, s = np.divmod(np.arange(8, dtype=np.uint16), 2)
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint16)
    table = 2 * (u[:, None] ^ u) + (s[:, None] ^ s ^ neg[u[:, None], u])
    return _group(table, "Q8", 0)


def _check_degree(n: int, index: int = 1) -> int:
    """The degree of ``symmetric``, or with index 2 of ``alternating``, whose
    order is n!/index; n meets the cap's bit length before the factorial."""
    if n < 1:
        raise BadParameter(f"degree must be >= 1, got {n}")
    if n > TABLE_ORDER_CAP.bit_length():
        raise TooLarge(f"degree {_shown(n)} gives an order above {TABLE_ORDER_CAP}")
    return _check_order(max(1, math.factorial(n) // index))


def _cycle(n: int, i: int, k: int) -> list[int]:
    """The k-cycle (i i+1 ... i+k-1) as a permutation of 0..n-1."""
    return [*range(i), *range(i + 1, i + k), i, *range(i + k, n)]


def symmetric(n: int) -> FiniteGroup:
    """S_n, the closure of the transpositions (i i+1)."""
    _check_degree(n)
    return from_permutations(n, [_cycle(n, i, 2) for i in range(n - 1)], name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """A_n, the closure of the 3-cycles (i i+1 i+2)."""
    _check_degree(n, 2)
    return from_permutations(n, [_cycle(n, i, 3) for i in range(n - 2)], name=f"A{n}")


@dataclass(frozen=True)
class ActionSpec:
    """A complement acting on a kernel: action[h] permutes kernel indices."""

    kernel: FiniteGroup
    complement: FiniteGroup
    action: tuple[tuple[int, ...], ...]


def semidirect(spec: ActionSpec, name: str | None = None) -> FiniteGroup:
    """Semidirect product on pairs (k, h), indexed as k * |H| + h.

    Raises NotAnAction when some permutation is not an automorphism of the
    kernel or the map h -> action[h] is not a homomorphism.
    """
    K, H = spec.kernel, spec.complement
    nk, nh = K.order, H.order
    _check_order(nk * nh)
    if len(spec.action) != nh:
        raise NotAnAction(f"need one permutation per complement element, got {len(spec.action)}")
    perms = np.empty((nh, nk), dtype=np.int64)  # row h is action[h]
    for h, p in enumerate(spec.action):
        try:
            arr = np.asarray(p)  # not cast: an int64 cast would truncate floats
        except ValueError:  # numpy refuses nested sequences of unequal length
            arr = np.asarray(p, dtype=object)
        integral = arr.shape == (nk,) and np.issubdtype(arr.dtype, np.integer)
        if not integral or not np.array_equal(np.sort(arr), np.arange(nk)):
            raise NotAnAction(f"action of complement element {h} is not a permutation of the kernel")
        # uint16 only once in range, so that arr[K.table] is no wider than the table
        arr = arr.astype(np.uint16)
        if not np.array_equal(arr[K.table], K.table[arr[:, None], arr[None, :]]):
            raise NotAnAction(f"action of complement element {h} is not an automorphism")
        perms[h] = arr
    for h1 in range(nh):
        # entry h2: does action[h1 h2] differ from action[h1] o action[h2]?
        wrong = (perms[H.table[h1]] != perms[h1][perms]).any(axis=1)
        if wrong.any():
            raise NotAnAction(f"action is not a homomorphism at ({h1}, {int(wrong.argmax())})")
    # automorphisms and a homomorphism make this a group law: no Light's test
    table = _product_table(K.table, H.table, perms)
    return _group(table, name or f"{K.name}:{H.name}", K.identity * nh + H.identity)


def _check_frobenius(q: int, n: int, r: int) -> int:
    # q and then the order q n meet the cap before the primality test, which
    # takes up to sqrt(q) steps, and the order of r over GF(q)
    _check_order(q)
    if n < 2:
        raise BadParameter("complement order must be >= 2")
    _check_order(q * n)
    if not is_prime(q):
        raise BadParameter(f"kernel order {q} must be prime")
    if r % q == 0:
        raise BadOrder(f"r={r} is not a unit mod {q}")
    k = gf(q).multiplicative_order(r % q)
    if k != n:
        raise BadOrder(f"r={r} has multiplicative order {k} mod {q}, need {n}")
    return q * n


def frobenius_cq_cn(q: int, n: int, r: int) -> FiniteGroup:
    """C_q with a cyclic complement of order n acting by x -> x * r mod q.

    r must have multiplicative order exactly n mod q (else BadOrder). That
    makes the action fixed-point free with no further test: for 0 < j < n,
    r^j is not 1 mod the prime q, so x r^j = x mod q only at x = 0.
    """
    _check_frobenius(q, n, r)
    action = tuple(tuple(x * pow(r, j, q) % q for x in range(q)) for j in range(n))
    return semidirect(ActionSpec(cyclic(q), cyclic(n), action), name=f"C{q}:C{n}(r={r})")


def smallest_frobenius_unit(q: int, n: int) -> int:
    """Least r with multiplicative order exactly n mod q; helper for fixtures."""
    if not is_prime(q) or n < 2 or (q - 1) % n != 0:
        raise BadParameter(f"no unit of order {n} exists mod {q}")
    # GF(q)^* is cyclic of order q - 1, so a unit of each order n | q - 1 exists
    field = gf(q)
    return next(r for r in range(2, q) if field.multiplicative_order(r) == n)


def central_product(
    A: FiniteGroup,
    B: FiniteGroup,
    iso: dict[int, int] | None = None,
) -> FiniteGroup:
    """(A x B) / {(z, iso(z)^-1)} for an isomorphism iso of the two centers.

    With iso omitted, both centers must have order <= 2 so that the
    identification is forced.
    """
    za, zb = center(A), center(B)
    if iso is None:
        if za.order != zb.order or za.order > 2:
            raise NotCentralIso(
                "an explicit center isomorphism is required unless both centers have order <= 2"
            )
        # at most one element of each center is not the identity
        iso = {A.identity: B.identity}
        iso.update(zip(set(za.elements) - {A.identity}, set(zb.elements) - {B.identity}))
    if set(iso) != set(za.elements) or set(iso.values()) != set(zb.elements):
        raise NotCentralIso("map is not a bijection between the two centers")
    for z1 in za.elements:
        for z2 in za.elements:
            if iso[A.mul(z1, z2)] != B.mul(iso[z1], iso[z2]):
                raise NotCentralIso(f"map does not preserve products at ({z1}, {z2})")

    P = direct_product(A, B)
    nb = B.order
    anti = [z * nb + B.inv(iso[z]) for z in za.elements]
    result = quotient(P, Subgroup(P, tuple(sorted(anti))))
    return renamed(result.quotient, f"{A.name}o{B.name}")


def _check_extraspecial2(a: int, variant: str) -> int:
    if variant not in ("plus", "minus"):
        raise BadParameter(f"variant must be 'plus' or 'minus', got {variant!r}")
    if a < 1:
        raise BadParameter(f"a must be >= 1, got {a}")
    if a > TABLE_ORDER_CAP.bit_length():
        raise TooLarge(f"order 2^(2 * {_shown(a)} + 1) exceeds {TABLE_ORDER_CAP}")
    return _check_order(2 ** (2 * a + 1))


def extraspecial2(a: int, variant: str) -> FiniteGroup:
    """Central products of a copies of D8 ("plus") or D8's and one Q8 ("minus");
    order 2^(2a+1)."""
    _check_extraspecial2(a, variant)
    G = dihedral(8) if variant == "plus" else quaternion8()
    for _ in range(a - 1):
        G = central_product(G, dihedral(8))
    sign = "+" if variant == "plus" else "-"
    return renamed(G, f"E{2 ** (2 * a + 1)}{sign}")


def _check_heisenberg(p: int, e: int) -> int:
    """The field GF(p^e) of ``heisenberg``, checked before it is built."""
    # p meets the cap before the primality test, and e the cap's bit length
    # before the order q^3 is raised
    _check_order(p)
    if not (1 <= e <= TABLE_ORDER_CAP.bit_length() and is_prime(p)):
        raise BadParameter(f"field order {p}^{_shown(e)} not supported: need a prime p "
                           f"and 1 <= e <= {TABLE_ORDER_CAP.bit_length()}")
    return _check_order(p ** (3 * e))


def heisenberg(field: FiniteField) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over the field; order q^3, center of
    order q. Triples (a, b, c) multiply as (a+a', b+b', c+c'+a*b')."""
    _check_heisenberg(field.p, field.e)
    q = field.order
    # in uint16: no entry exceeds q^3 - 1
    add, mul = field.add_table.astype(np.uint16), field.mul_table.astype(np.uint16)
    # one axis per digit of the two factors: (a, b, c, a', b', c')
    a3 = add[:, None, None, :, None, None]
    b3 = add[None, :, None, None, :, None]
    # c + c' + a*b' over the axes (a, c, b', c')
    c3 = add[add[None, :, None, :], mul[:, None, :, None]][:, None, :, None, :, :]
    table = ((a3 * q + b3) * q + c3).reshape(q**3, q**3)
    return _group(table, f"Heis({q})", 0)


def from_permutations(degree: int, generators, name: str | None = None) -> FiniteGroup:
    """Group generated by permutations of {0..degree-1}, numbered by the rank
    of their tuples; the product of a and b is the tuple a[b]. The closure
    finds each element y as g y' for a generator g and an element y' found
    before it, and stops with TooLarge past the table budget. Row y is g's
    left multiplication gathered at row y': a left multiplication by a product
    of generators. Permutations compose associatively, so the table is a group."""
    if degree < 1:
        raise BadParameter("degree must be >= 1")
    gens: list[tuple[int, ...]] = []
    for g in generators:
        try:
            arr = np.asarray(g)  # not cast: int() would truncate floats
        except ValueError:  # numpy refuses nested sequences of unequal length
            arr = np.asarray(g, dtype=object)
        p = tuple(arr.tolist())
        if not np.issubdtype(arr.dtype, np.integer) or sorted(p) != list(range(degree)):
            raise NotAPermutation(f"{p} is not a permutation of 0..{degree - 1}")
        gens.append(p)

    perms = [tuple(range(degree))]
    index = {perms[0]: 0}
    parents: list[tuple[int, int]] = [(0, 0)]  # (y', s) with y = gens[s] y'
    by_gen: list[list[int]] = [[] for _ in gens]  # by_gen[s][x] is gens[s] x
    for x, p in enumerate(perms):  # perms grows as the loop runs
        for s, g in enumerate(gens):
            y = tuple(map(g.__getitem__, p))
            if y not in index:
                index[y] = len(perms)
                perms.append(y)
                parents.append((x, s))
            by_gen[s].append(index[y])
        if len(perms) > TABLE_ORDER_CAP:
            raise TooLarge(f"the permutations generate more than {TABLE_ORDER_CAP} elements")
    m = len(perms)
    ranked = np.array(sorted(range(m), key=perms.__getitem__))  # ranked[r] has rank r
    rank = np.argsort(ranked).astype(np.uint16)
    left = rank[np.array(by_gen, dtype=np.intp).reshape(len(gens), m)[:, ranked]]  # on ranks
    table = np.empty((m, m), dtype=np.uint16)
    table[0] = np.arange(m)  # the identity sorts first
    for y, (parent, s) in enumerate(parents[1:], start=1):
        table[rank[y]] = left[s, table[rank[parent]]]
    return _group(table, name or f"P{degree}({m})", 0)
