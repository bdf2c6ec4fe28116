"""Dense-table finite groups: validation, subgroups, quotients, recognizers.

Elements of a group of order n are the indices 0..n-1 and the whole group is
a single n x n uint16 product table, so every product, inverse and
commutation scan is an O(1) array lookup, and a table costs 2 n^2 bytes.
Orders above TABLE_ORDER_CAP raise TooLarge before anything n x n is
allocated. All values are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadParameter,
    NotAGroup,
    NotNormal,
    NotPrime,
    OrderCapExceeded,
    TooLarge,
)

# isomorphic() refuses orders above this cap. The predicates and checks never
# call it: they recognize groups from invariants, with no order cap.
ISOMORPHISM_ORDER_CAP = 512

# The one size rule: a uint16 table of this order takes 512 MiB. A build plus
# analyze peaks at about 1.6 times its table when the builder hands it to
# _group (C16384 832 MB, Heis(25) 759 MB), and at 5 times through from_table's
# copy and Light's test (D16384 2.59 GB), on a 2 vCPU, 8 GB machine; so 2^15
# would need ~10 GB for a dihedral group.
TABLE_ORDER_CAP = 2**14


def _shown(v: int) -> str:
    """v in decimal, or a power of two below it when v is too long to print."""
    return str(v) if v.bit_length() <= 64 else f"2^{v.bit_length() - 1} or more"


def _check_order(n: int) -> int:
    """n, unless the table of a group of order n is over the budget: then
    TooLarge. Every builder and family check calls it before it allocates."""
    if n > TABLE_ORDER_CAP:
        raise TooLarge(
            f"order {_shown(n)} exceeds {TABLE_ORDER_CAP}: "
            f"its uint16 table would take {_shown(2 * n * n)} bytes"
        )
    return n


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of a, as ``np.unique(a)`` returns them. A
    plain ``np.unique`` call in numpy 2 probes ``np.ma.is_masked``, which
    imports all of ``numpy.ma`` on first use; asking for the counts takes
    the sorting path, which does not."""
    return np.unique(a, return_counts=True)[0]


class FiniteGroup:
    """A finite group on elements 0..order-1 with a dense product table.

    ``table[i, j]`` is the index of the product of element i by element j.
    ``table`` and ``inverses`` are read-only uint16 arrays, the order is at
    most TABLE_ORDER_CAP and the table takes 2 n^2 bytes. Their values
    are unsigned 16-bit: arithmetic on them must not subtract or pass 65535
    without widening first. The identity is wherever validation finds it,
    not pinned to index 0.
    Derived data (center, centralizer rows, predicates) is memoized on the
    instance as arrays and plain values that never point back at the group,
    so it is computed once, and a dropped group is freed at once by refcount.
    The greedy generating set is memoized the same way, found once on first use.
    """

    __slots__ = ("name", "order", "table", "identity", "inverses", "element_orders", "_memo")

    def __init__(
        self,
        name: str,
        table: np.ndarray,
        identity: int,
        inverses: np.ndarray,
        element_orders: tuple[int, ...],
    ):
        self.name = name
        self.order = int(table.shape[0])
        self.table = table
        self.identity = int(identity)
        self.inverses = inverses
        self.element_orders = element_orders
        self._memo: dict = {}

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conj(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        t = self.table
        return int(t[t[self.inverses[g], x], g])

    def order_of(self, a: int) -> int:
        return self.element_orders[a]

    def elements(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def memoized(fn: Callable[[FiniteGroup], object]) -> Callable:
    """Cache fn(G) in G's own memo. Exceptions are not cached. Two threads
    racing on a cold value may both compute it; setdefault keeps one copy."""

    @wraps(fn)
    def wrapper(G: FiniteGroup):
        memo = G._memo
        return memo[fn] if fn in memo else memo.setdefault(fn, fn(G))

    return wrapper


@dataclass(frozen=True)
class Subgroup:
    """A closed subset of a parent group, stored as sorted element indices."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.elements, self.elements[1:])):
            raise BadParameter("subgroup elements must be strictly sorted")
        if self.elements and not (
            0 <= self.elements[0] and self.elements[-1] < self.group.order
        ):
            raise BadParameter("subgroup elements out of range")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.element_set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class QuotientResult:
    """A quotient group together with the projection from the parent."""

    quotient: FiniteGroup
    projection: tuple[int, ...]
    normal_subgroup: Subgroup


def _adjoin(table: np.ndarray, reached: np.ndarray, gens: list[int], new: Iterable[int]) -> list[int]:
    """Append each element of ``new`` that ``reached`` lacks to ``gens``, and
    grow ``reached``, the closure of ``gens`` (just the identity when ``gens``
    is empty), in place to the closure of the longer list. Returns ``gens``.

    The closure grows a right coset at a time. When g is adjoined to the
    reached set H, it marks Hg; then for each new representative r and each
    generator s with t = rs unreached, it marks the coset Ht in one gather
    and takes t as a new representative. In a group these cosets fill the
    subgroup generated so far, so the result is what an element-wise closure
    reaches. Every marked element is a product of marked elements, hence of
    the generators, on any magma with an identity, which is what keeps
    Light's test exact on tables that are not groups.
    """
    for g in map(int, new):
        if reached[g]:
            continue
        gens.append(g)
        h = np.flatnonzero(reached)
        reached[table[h, g]] = True
        reps = [g]
        while reps:
            r = reps.pop()
            for s in gens:
                t = int(table[r, s])
                if not reached[t]:
                    reached[table[h, t]] = True
                    reps.append(t)
    return gens


def _greedy_generators(table: np.ndarray, identity: int) -> tuple[int, ...]:
    """Small generating set: each element, in index order, that the closure of
    the earlier picks lacks."""
    n = table.shape[0]
    return tuple(_adjoin(table, np.arange(n) == identity, [], range(n)))


def _validate_light_associativity(arr: np.ndarray, gens: Sequence[int]) -> None:
    # Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    # 1961): the elements a with (xa)z = x(az) for all x, z contain the
    # identity and are closed under products, so once they contain a
    # generating set they are the whole table. This is exact, not sampled.
    # With the identity and the power walk's inverses found first, that makes
    # the table a group, so it needs no separate Latin-square test.
    for g in gens:
        lhs = arr.take(arr[:, g], axis=0)
        rhs = arr.take(arr[g, :], axis=1)
        if not np.array_equal(lhs, rhs):
            x, z = map(int, np.argwhere(lhs != rhs)[0])
            raise NotAGroup(f"associativity fails on triple ({x}, {g}, {z})")


def _element_orders(arr: np.ndarray, identity: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Orders and inverses from one walk of all powers x^k = x^(k-1) x. The
    units of a finite monoid are the x with some x^k = e, of inverse x^(k-1);
    NotAGroup names the lowest element with no power at e."""
    n = arr.shape[0]
    orders, inverses = np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.uint16)
    pending = np.arange(n)
    power, prev = pending, np.full(n, identity)
    for k in range(1, n + 1):
        hit = power == identity
        orders[pending[hit]] = k
        inverses[pending[hit]] = prev[hit]
        pending, power = pending[~hit], power[~hit]
        if pending.size == 0:
            break
        prev, power = power, arr[power, pending]
    else:
        raise NotAGroup(f"powers of element {int(pending[0])} never reach the identity")
    inverses.setflags(write=False)
    return tuple(orders.tolist()), inverses


def _group(table: np.ndarray, name: str, identity: int) -> FiniteGroup:
    """The one constructor from a fresh uint16 table with a known identity:
    freezes it in place, uncopied, and walks the powers for the orders and
    inverses. ``from_table`` runs Light's test next; other callers need none."""
    table.setflags(write=False)
    element_orders, inverses = _element_orders(table, identity)
    return FiniteGroup(name, table, identity, inverses, element_orders)


def from_table(table, name: str = "G") -> FiniteGroup:
    """Build a validated group from a square table of element indices.

    Validation is exact at every order: the identity, from the diagonal's
    fixed points; one power walk for the orders and inverses; then Light's
    associativity test on a generating set, which the group keeps for later
    use. Raises NotAGroup with the witnessing triple or element when any
    axiom fails, and TooLarge above TABLE_ORDER_CAP before any entry is read.

    The group keeps a read-only uint16 copy of the table, so the caller's
    array is never frozen or aliased.
    """
    try:
        src = np.asarray(table)
    except ValueError:  # numpy refuses rows of unequal length
        raise NotAGroup("table must be square, got rows of unequal length") from None
    if src.ndim != 2 or src.shape[0] != src.shape[1]:
        raise NotAGroup(f"table must be square, got shape {src.shape}")
    n = _check_order(src.shape[0])
    if n == 0:
        raise NotAGroup("table is empty")
    # checked on the source: the uint16 cast truncates floats and wraps wide ints
    if not np.issubdtype(src.dtype, np.integer) or src.min() < 0 or src.max() >= n:
        raise NotAGroup(f"table entries must be integers in [0, {n})")
    arr = np.array(src, dtype=np.uint16)

    # an identity e has e e = e, so only the diagonal's fixed points are tried
    expect = np.arange(n, dtype=arr.dtype)
    fixed = map(int, np.flatnonzero(arr.diagonal() == expect))
    two_sided = (e for e in fixed if np.array_equal(arr[e], expect) and np.array_equal(arr[:, e], expect))
    identity = next(two_sided, None)
    if identity is None:
        raise NotAGroup("no two-sided identity element")

    # walked first: a table with a non-unit can take n - 1 generators to Light
    G = _group(arr, name, identity)
    _validate_light_associativity(arr, _generators(G))
    return G


def renamed(G: FiniteGroup, name: str) -> FiniteGroup:
    """The same group, and generating set, under another name (no revalidation)."""
    H = FiniteGroup(name, G.table, G.identity, G.inverses, G.element_orders)
    H._memo[_generators.__wrapped__] = _generators(G)
    return H


# ---------------------------------------------------------------------------
# subgroups


@memoized
def _commuting_matrix(G: FiniteGroup) -> np.ndarray:
    """K packed: bit y of row x, in ``np.packbits`` order, is set iff xy = yx,
    in rows zero-padded to whole 64-bit words of a read-only uint8 array.
    Row x is C(x); every centralizer computation in the package reads it."""
    k = np.zeros((G.order, -(-G.order // 64) * 8), dtype=np.uint8)
    k[:, : -(-G.order // 8)] = np.packbits(G.table == G.table.T, axis=1)
    k.setflags(write=False)
    return k


def _commuting_rows(G: FiniteGroup, xs) -> np.ndarray:
    """The rows of K at xs, an element or an index array, as booleans."""
    return np.unpackbits(_commuting_matrix(G)[xs], axis=-1, count=G.order).view(bool)


def _row_counts(b: np.ndarray) -> np.ndarray:
    """Entry i is the number of true entries in row i of the boolean matrix
    b, as int64. The rows are summed as uint8 into uint16, which is exact
    because no row is longer than TABLE_ORDER_CAP, and several times faster
    than ``b.sum(axis=1)``, which widens every entry to int64."""
    return b.view(np.uint8).sum(axis=1, dtype=np.uint16).astype(np.int64)


@memoized
def _centralizer_orders(G: FiniteGroup) -> np.ndarray:
    """Entry x is |C(x)|, the set bits of row x of K, counted once for all readers."""
    sizes = np.bitwise_count(_commuting_matrix(G).view(np.uint64)).sum(axis=1, dtype=np.int64)
    sizes.setflags(write=False)
    return sizes


@memoized
def _center_elements(G: FiniteGroup) -> np.ndarray:
    """Z(G) as a sorted read-only index array."""
    z = np.flatnonzero(_centralizer_orders(G) == G.order)
    z.setflags(write=False)
    return z


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything; a view built on each call."""
    return Subgroup(G, tuple(_center_elements(G).tolist()))


def _element_index(G: FiniteGroup, x) -> int:
    """x as an element of G; BadParameter unless it is an integer in range."""
    try:
        x = operator.index(x)
    except TypeError:
        raise BadParameter(f"element indices must be integers, not {x!r}") from None
    if not 0 <= x < G.order:
        raise BadParameter(f"element index {x} out of range")
    return x


def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    """Elements commuting with x; always contains <x> and the center."""
    k = _commuting_rows(G, _element_index(G, x))
    return Subgroup(G, tuple(np.flatnonzero(k).tolist()))


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest closed subset containing the generators and the identity."""
    gen_list = [_element_index(G, g) for g in gens]
    reached = np.arange(G.order) == G.identity
    _adjoin(G.table, reached, [], gen_list)
    return Subgroup(G, tuple(np.flatnonzero(reached).tolist()))


def _is_closed(G: FiniteGroup, elems: np.ndarray) -> bool:
    member = np.zeros(G.order, dtype=bool)
    member[elems] = True
    return bool(member[G.table[np.ix_(elems, elems)]].all())


def _require_subgroup(G: FiniteGroup, H: Subgroup) -> np.ndarray:
    if H.group is not G:
        raise BadParameter("subgroup belongs to a different group")
    elems = np.asarray(H.elements, dtype=np.int64)
    if H.group.identity not in H.element_set or not _is_closed(G, elems):
        raise BadParameter("element set is not a subgroup")
    return elems


def conjugate_elements(G: FiniteGroup, elems: Sequence[int], g: int) -> np.ndarray:
    """g^-1 E g as an unsorted index array."""
    t = G.table
    return t[t[G.inverses[g], np.asarray(elems, dtype=np.int64)], g]


@memoized
def _generators(G: FiniteGroup) -> tuple[int, ...]:
    """A small generating set: the one Light's test in ``from_table`` runs
    on. A finite set that conjugation by each of these maps into itself is
    invariant under the whole group."""
    return _greedy_generators(G.table, G.identity)


def _generator_commutators(G: FiniteGroup, xs: Sequence[int]) -> np.ndarray:
    """[x, g] = x g x^-1 g^-1 for x in xs (rows) and each generator g
    (columns)."""
    t = G.table
    xs = np.asarray(xs, dtype=np.int64)
    s = np.asarray(_generators(G), dtype=np.int64)
    return t[t[np.ix_(xs, s)], G.inverses[t[np.ix_(s, xs)].T]]


@memoized
def _derived_elements(G: FiniteGroup) -> np.ndarray:
    """G' as a sorted read-only index array. It is the normal closure N of
    the generators' commutators: G/N is generated by images that commute,
    so it is abelian and G' <= N; N <= G' as G' is normal. Each generator
    of N is conjugated once by each generator of G, and an image outside N
    is adjoined as one more generator; so G's generators map N into N."""
    t, s = G.table, np.asarray(_generators(G), dtype=np.int64)
    reached = np.arange(G.order) == G.identity
    n_generators = _adjoin(t, reached, [], _generator_commutators(G, s).ravel())
    for x in n_generators:  # grows as images are adjoined
        _adjoin(t, reached, n_generators, t[t[G.inverses[s], x], s])
    elems = np.flatnonzero(reached)
    elems.setflags(write=False)
    return elems


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators; normal in G; a view built per call."""
    return Subgroup(G, tuple(_derived_elements(G).tolist()))


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    elems = _require_subgroup(G, H)
    member = np.zeros(G.order, dtype=bool)
    member[elems] = True
    return all(member[conjugate_elements(G, elems, g)].all() for g in _generators(G))


def _coset_labels(G: FiniteGroup, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosets xH of the subgroup H with elements ``elems``: their least
    elements in increasing order, and entry x the uint16 label of xH, the
    rank of its least element. The one numbering of the cosets of H; both
    arrays are read-only."""
    reps, label = np.unique(G.table[:, elems].min(axis=1), return_inverse=True)
    label = label.reshape(-1).astype(np.uint16)
    for a in (reps, label):
        a.setflags(write=False)
    return reps, label


def quotient(G: FiniteGroup, N: Subgroup) -> QuotientResult:
    """Coset group G/N with its projection map; requires N normal (validated once, by is_normal)."""
    if not is_normal(G, N):
        raise NotNormal(f"{N.elements} is not normal in {G.name}")
    reps, label = _coset_labels(G, np.asarray(N.elements, dtype=np.int64))
    q = _group(label[G.table[np.ix_(reps, reps)]], f"{G.name}/N{N.order}", int(label[G.identity]))
    return QuotientResult(q, tuple(label.tolist()), N)


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """H with its inherited product, reindexed to 0..|H|-1."""
    elems = _require_subgroup(G, H)
    pos = np.empty(G.order, dtype=np.uint16)  # H is closed: only entries at elems are read
    pos[elems] = np.arange(elems.size, dtype=np.uint16)
    return _group(pos[G.table[np.ix_(elems, elems)]], f"{G.name}|H{H.order}", int(pos[G.identity]))


def _product_table(a: np.ndarray, b: np.ndarray, action: np.ndarray | None = None) -> np.ndarray:
    """The table of the product of the groups with uint16 tables a and b on
    pairs (x, y), indexed as x * |B| + y: (x1, y1)(x2, y2) is
    (x1 phi_y1(x2), y1 y2), where row y of the |B| x |A| ``action`` array is
    phi_y, the identity when it is None. One broadcast in the factors'
    uint16: x * |B| + y <= |A| |B| - 1, which the caller's order check
    keeps below 2^16. ``np.take`` gathers in C order, where ``a[:, action]``
    would not, and the reshape would then copy the table."""
    na, nb = a.shape[0], b.shape[0]
    twisted = (a[:, None, :] if action is None else np.take(a, action, axis=1)) * nb  # [x1, y1, x2]
    return (twisted[:, :, :, None] + b[None, :, None, :]).reshape(na * nb, na * nb)


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed as a * |B| + b."""
    _check_order(A.order * B.order)
    return _group(_product_table(A.table, B.table), f"{A.name}x{B.name}", A.identity * B.order + B.identity)


# ---------------------------------------------------------------------------
# recognizers


@memoized
def is_abelian(G: FiniteGroup) -> bool:
    return _center_elements(G).size == G.order


def is_cyclic(G: FiniteGroup) -> bool:
    return max(G.element_orders) == G.order


def exponent(G: FiniteGroup) -> int:
    """Least common multiple of the element orders."""
    return math.lcm(*G.element_orders)


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n)."""
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """The (p, k) with p^k exactly dividing n, p ascending, by trial
    division up to the square root of the cofactor; [] for n < 2."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors.append((p, k))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, or None if n is not a prime power (or n = 1)."""
    factors = _prime_factors(n)
    return factors[0] if len(factors) == 1 else None


def largest_prime_divisor(n: int) -> int:
    if n < 2:
        raise BadParameter("largest prime divisor is undefined for n < 2")
    return _prime_factors(n)[-1][0]


def is_elementary_abelian(G: FiniteGroup, p: int) -> bool:
    """Abelian of order p^k and exponent p (the trivial group qualifies)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if G.order == 1:
        return True
    if not is_abelian(G):
        return False
    pp = prime_power(G.order)
    if pp is None or pp[0] != p:
        return False
    return all(o in (1, p) for o in G.element_orders)


@memoized
def is_nilpotent(G: FiniteGroup) -> bool:
    """Ascending central series reaches the whole group. Z_{i+1} holds the x
    with [x, g] in Z_i for every generator g: the centralizer of xZ_i in
    G/Z_i is a subgroup, so holding the generators' images it is all of it."""
    k = _generator_commutators(G, np.arange(G.order))
    mask = np.zeros(G.order, dtype=bool)
    mask[G.identity] = True
    while True:
        new = mask[k].all(axis=1)
        if new.all():
            return True
        if np.array_equal(new, mask):
            return False
        mask = new


def is_perfect(G: FiniteGroup) -> bool:
    return _derived_elements(G).size == G.order


# ---------------------------------------------------------------------------
# isomorphism


def isomorphic(A: FiniteGroup, B: FiniteGroup, cap: int = ISOMORPHISM_ORDER_CAP) -> bool:
    """Exact isomorphism test by generator-image backtracking.

    Candidate images are pruned by the (element order, centralizer size)
    fingerprint; a partial assignment is extended to a full word map by
    closure and rejected on the first inconsistency. Only intended for
    small groups, hence the order cap.
    """
    if A.order > cap or B.order > cap:
        raise OrderCapExceeded(f"isomorphism testing capped at order {cap}")
    if A is B:
        return True
    if A.order != B.order:
        return False
    # per-element (order, centralizer size); preserved by isomorphism
    fpa, fpb = (
        list(zip(G.element_orders, _centralizer_orders(G).tolist())) for G in (A, B)
    )
    if sorted(fpa) != sorted(fpb):
        return False

    n = A.order
    ta, tb = A.table, B.table
    gens = _generators(A)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, fp in enumerate(fpb):
        buckets.setdefault(fp, []).append(i)
    candidates = [buckets.get(fpa[g], []) for g in gens]

    def extend(images: list[int]) -> np.ndarray | None:
        m = np.full(n, -1, dtype=np.int32)
        m[A.identity] = B.identity
        stack = [A.identity]
        count = 1
        while stack:
            a = stack.pop()
            ma = m[a]
            for g, h in zip(gens, images):
                a2 = int(ta[a, g])
                b2 = int(tb[ma, h])
                if m[a2] < 0:
                    m[a2] = b2
                    stack.append(a2)
                    count += 1
                elif m[a2] != b2:
                    return None
        if _distinct(m[m >= 0]).size != count:
            return None
        return m

    def dfs(images: list[int]) -> bool:
        m = extend(images)
        if m is None:
            return False
        if len(images) == len(gens):
            if (m < 0).any():
                return False
            perm = m.astype(np.int64)
            return bool((perm[ta] == tb[perm[:, None], perm[None, :]]).all())
        return any(dfs(images + [h]) for h in candidates[len(images)])

    return dfs([])
