"""Centralizer-derived structure of a finite group.

This module computes the centralizer profile (the distinct proper
centralizers, their count n, and the per-element subgroups Z(x), the center
of the centralizer C(x)), the induced family of subgroups of the central
quotient with partition/normality verdicts, conjugate-type data, the
classification predicates built on those, and the numeric bound functions
of n used by the check suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .core import (
    FiniteGroup,
    QuotientResult,
    Subgroup,
    _center_elements,
    _centralizer_orders,
    _commuting_matrix,
    _commuting_rows,
    _coset_labels,
    _derived_elements,
    _distinct,
    _element_index,
    _generators,
    _row_counts,
    center,
    derived_subgroup,
    is_abelian,
    memoized,
    prime_power,
    quotient,
    subgroup_as_group,
)
from .errors import (
    AbelianGroupError,
    BadN,
    CentralElementError,
    InvariantViolation,
    NotPerfectQuotient,
    PreconditionNotMet,
)


@dataclass(frozen=True)
class CentralizerProfile:
    """The distinct proper centralizers of a non-abelian group.

    ``n`` counts the group itself as one centralizer, so n = 1 + number of
    proper ones. ``z_of`` maps every element x to Z(x), the center of C(x)
    (for central x that is just the center of the group).

    A public view only: ``profile`` builds it on each call, gathering each
    centralizer's row of K at its representative, and no predicate or check
    reads it. The predicates read the memoized record directly; Z(x) lies in
    C(x), so C(x) is abelian iff the two have one size, and the CA test
    compares sizes.
    """

    group: FiniteGroup
    proper_centralizers: tuple[Subgroup, ...]
    n: int
    element_to_centralizer: Mapping[int, int]
    z_of: Mapping[int, Subgroup]


@dataclass(frozen=True)
class PartitionReport:
    """The images of the distinct Z(x) inside G/Z(G), with verdicts.

    Components include the identity coset; the partition property concerns
    the nontrivial elements of the quotient only.
    """

    components: tuple[tuple[int, ...], ...]
    is_partition: bool
    is_normal: bool
    witness: dict | None


@dataclass(frozen=True)
class ConjugateTypeReport:
    """Uniformity of proper-centralizer indices; (m, p, k) when uniform."""

    is_uniform: bool
    m: int | None = None
    p: int | None = None
    k: int | None = None


@dataclass(frozen=True)
class BoundReport:
    """Numeric bounds recomputable from n and the central quotient order."""

    n: int
    q_order: int
    bound_f: int
    bound_general: int | float
    factorial_bound: int
    satisfied: Mapping[str, bool | None]


@dataclass(frozen=True)
class PerfectQuotientReport:
    """Measured centralizer counts of a group and its derived subgroup."""

    cent_count: int
    derived_cent_count: int
    derived_order: int


class _Centralizers(NamedTuple):
    """The distinct centralizers: the proper ones in canonical (size,
    elements) order, then G. ``index[x]`` is the row of C(x), and
    ``reps[i]`` one element whose centralizer is row i, so row i is
    ``K[reps[i]]``; the record keeps no copy of K. ``z_rows[i]`` is the
    center of row i as a boolean row, ``contains[i, j]`` says row i lies in
    row j, and ``abelian[i]`` says row i is abelian.

    ``z_rows[i]`` is the AND of the rows of K at the members of row i, taken
    over K packed eight elements to a byte. ``contains`` is read off the Z
    rows, with no matrix product: row i lies in C(y) iff y lies in Z_i, so
    it gathers the Z rows at the representatives. Z_i lies in row i, so row
    i is abelian iff the two have one size. The containments of the Z rows
    are not kept: np1 and co1 test Z(y) <= Z(x) at the pairs they check,
    independently of ``contains``."""

    index: np.ndarray
    reps: np.ndarray
    z_rows: np.ndarray
    contains: np.ndarray
    abelian: np.ndarray


# The bytes one gather of a chunked pass aims to stay under; a single row
# that needs more is gathered alone.
_GATHER_LIMIT = 1 << 22


def _chunks(weights: np.ndarray) -> Iterator[slice]:
    """Consecutive slices of range(len(weights)) whose weights sum to at
    most ``_GATHER_LIMIT``, or that hold a single entry."""
    ends = np.cumsum(weights)
    start = 0
    while start < ends.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _GATHER_LIMIT, side="right")))
        yield slice(start, stop)
        start = stop


def _cells(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero(b)`` for a 2-D array b, read off one flat scan, which is
    several times faster than numpy's 2-D ``nonzero``."""
    return np.divmod(np.flatnonzero(b), b.shape[1])


def _byte_strings(packed: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 array, each viewed as one byte string."""
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


@memoized
def _centralizers(G: FiniteGroup) -> _Centralizers:
    """The one centralizer representation every predicate and check reads:
    per distinct centralizer one representative, its Z row, its
    containments and its abelian flag, with no copy of K (see
    ``_Centralizers``).

    Every step is a whole-array pass over the packed K that ``core`` keeps.
    The distinct rows of K are found by one 1-D ``np.unique`` over its rows,
    each viewed as a single byte string, and one ``np.lexsort`` over (row
    size, reversed byte-string rank) puts them in canonical order. The Z
    rows are one ``np.bitwise_and.reduceat`` over the rows of K gathered at
    the members of each row, in chunks of about ``_GATHER_LIMIT`` bytes that
    unpack only their representatives' rows. Row sizes are read from
    ``_centralizer_orders``, and the CA flags compare them with the Z row
    sizes. np1 and co1 test Z(y) <= Z(x) on the Z rows at their own pairs.

    Raises AbelianGroupError for abelian input, where the only centralizer
    is the group itself, and InvariantViolation if the rows break the
    count, sandwich or covering facts that hold in every group.
    """
    if is_abelian(G):
        raise AbelianGroupError(f"{G.name} is abelian; its only centralizer is itself")
    k = _commuting_matrix(G)
    first, inverse = np.unique(_byte_strings(k), return_index=True, return_inverse=True)[1:]
    orders = _centralizer_orders(G)
    # np.unique sorts the rows as byte strings, and of two rows of one size the
    # larger string holds the smaller first element where they differ, so it
    # sorts first; G is the one row of size |G|, so it sorts last
    canon = np.lexsort((np.arange(first.size)[::-1], orders[first]))
    index = np.argsort(canon)[inverse.reshape(-1)]
    reps = first[canon]
    sizes = orders[reps]
    # x lies in C(x), so whatever commutes with all of C(x) lies in C(x): that
    # is Z(x), the AND of the rows of K at the members of C(x)
    words = k.view(np.uint64)
    z_words = np.empty((reps.size, words.shape[1]), dtype=np.uint64)
    # a chunk unpacks its rows of K, and per member gathers a packed row and two int64 indices
    for part in _chunks(G.order + sizes * (k.shape[1] + 16)):
        members = _cells(_commuting_rows(G, reps[part]))[1]
        ends = sizes[part].cumsum()
        z_words[part] = np.bitwise_and.reduceat(words[members], ends - sizes[part], axis=0)
    z_rows = np.unpackbits(z_words.view(np.uint8), axis=1, count=G.order).view(bool)

    n = reps.size
    if n < 4:
        raise InvariantViolation(f"{G.name} reports n={n}; no group has 2 or 3 centralizers")
    zg = z_rows[-1]
    proper = sizes[:-1]
    # K is symmetric, so row i holds Z(G) iff each central row holds row i's representative
    central = _commuting_rows(G, np.flatnonzero(zg))[:, reps[:-1]]
    if not (((zg.sum() < proper) & (proper < G.order)).all() and central.all()):
        raise InvariantViolation("proper centralizer fails the strict sandwich Z(G) < C < G")
    if not z_rows.any(axis=0).all():
        raise InvariantViolation("the Z(x) together with the center do not cover the group")

    abelian = _row_counts(z_rows) == sizes
    # row i lies in C(y) iff y commutes with all of row i, that is, iff y lies in Z_i
    contains = z_rows.take(reps, axis=1)
    cz = _Centralizers(index, reps, z_rows, contains, abelian)
    for a in cz:
        a.setflags(write=False)
    return cz


def central_quotient(G: FiniteGroup) -> QuotientResult:
    """G/Z(G) with its projection: a public view, built and validated on each
    call. Nothing in the package calls it; it reads G/Z through coset labels."""
    return quotient(G, center(G))


@memoized
def _central_cosets(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The cosets of Z(G) as ``core._coset_labels`` numbers them: the least
    element of each coset, and entry x the label of xZ(G)."""
    return _coset_labels(G, _center_elements(G))


def profile(G: FiniteGroup) -> CentralizerProfile:
    """Deduplicated proper centralizers, n = |Cent(G)|, and all Z(x).

    Built afresh on each call from the memoized ``_centralizers`` record,
    with the proper centralizers gathered from K at their representatives.
    Raises AbelianGroupError for abelian input, where the only centralizer
    is the group itself.
    """
    cz = _centralizers(G)
    zg = center(G)
    m = cz.reps.size - 1
    rows = _commuting_rows(G, cz.reps[:m])
    proper = tuple(Subgroup(G, tuple(np.flatnonzero(r).tolist())) for r in rows)
    z_by_row = [Subgroup(G, tuple(np.flatnonzero(r).tolist())) for r in cz.z_rows[:m]] + [zg]
    index = cz.index.tolist()
    element_to_centralizer = {x: i for x, i in enumerate(index) if i < m}
    z_of = {x: z_by_row[i] for x, i in enumerate(index)}
    return CentralizerProfile(G, proper, m + 1, element_to_centralizer, z_of)


def cent_count(G: FiniteGroup) -> int:
    """|Cent(G)| for non-abelian G."""
    return _centralizers(G).reps.size


@memoized
def is_F_group(G: FiniteGroup) -> bool:
    """No proper centralizer strictly contains another."""
    cz = _centralizers(G)
    m = cz.reps.size - 1
    # the rows are distinct, so containment off the diagonal is strict
    return bool(np.count_nonzero(cz.contains[:m, :m]) == m)


@memoized
def is_CA_group(G: FiniteGroup) -> bool:
    """Every proper centralizer is abelian; a subclass of the F-groups."""
    if not _centralizers(G).abelian[:-1].all():
        return False
    if not is_F_group(G):
        raise InvariantViolation(f"{G.name} is CA but not F, which is impossible")
    return True


def _proper_sizes(G: FiniteGroup) -> np.ndarray:
    return _centralizer_orders(G)[_centralizers(G).reps[:-1]]


def is_I_group(G: FiniteGroup) -> bool:
    """All proper centralizers share one order."""
    return _distinct(_proper_sizes(G)).size == 1


@memoized
def conjugate_type(G: FiniteGroup) -> ConjugateTypeReport:
    indices = _distinct(G.order // _proper_sizes(G))
    if indices.size != 1:
        return ConjugateTypeReport(is_uniform=False)
    m = int(indices[0])
    pp = prime_power(m)
    if pp is None:
        return ConjugateTypeReport(is_uniform=True, m=m)
    return ConjugateTypeReport(is_uniform=True, m=m, p=pp[0], k=pp[1])


def _rows_closed(G: FiniteGroup, rows: np.ndarray) -> bool:
    """Is each row of the boolean matrix ``rows``, as a subset of G, closed
    under the product? One pass per size class of rows, in chunks of about
    ``_GATHER_LIMIT`` bytes: a chunk gathers all products of its rows'
    members by one uint16 broadcast gather of the table and looks them up
    in its rows, flattened. Several rows need a uint32 index into them; a
    row gathered alone, which may hold many products, is indexed by its
    uint16 products, so no wider copy of them is made."""
    sizes = _row_counts(rows)
    order = np.argsort(sizes, kind="stable")
    starts = np.flatnonzero(np.diff(sizes[order], prepend=-1)).tolist()
    for a, b in zip(starts, starts[1:] + [order.size]):
        s = int(sizes[order[a]])
        cls = order[a:b]
        # per product: a uint16 product, its uint32 flat index and a bool
        for part in _chunks(np.full(cls.size, G.order + 7 * s * s)):
            member = rows[cls[part]]
            c = member.shape[0]
            elems = _cells(member)[1].reshape(c, s)
            products = G.table[elems[:, :, None], elems[:, None, :]]
            if c > 1:  # look up in the flattened rows: at most 2^22 entries, so uint32 is exact
                products = products + (np.arange(c, dtype=np.uint32) * G.order)[:, None, None]
            if not member.ravel()[products].all():
                return False
    return True


@memoized
def central_partition(G: FiniteGroup) -> PartitionReport:
    """Project the distinct Z(x) into G/Z(G) and test partition/normality.

    This reads the Z rows through the coset labels of G/Z, while is_F_group
    reads them at the row representatives (the ``contains`` gather), so the
    two verdicts are cross-validated from one source by different routes.

    Each Z(x) must be a subgroup of G whose image has at least two cosets;
    ``_rows_closed`` tests closure once per size class of Z rows. The
    family is normal iff conjugating it by each generator of G keeps it:
    the conjugated components are packed and looked up in the sorted packed
    family by one ``searchsorted`` per generator.
    """
    z_rows = _centralizers(G).z_rows[:-1]
    # closure first, so its gathers never overlap the m x |G/Z| images below
    if not _rows_closed(G, z_rows):
        raise InvariantViolation("a projected component is not a nontrivial subgroup")
    reps, label = _central_cosets(G)
    # Z(x) contains Z(G), so it is the union of the cosets whose least element it holds
    images = z_rows.take(reps, axis=1)
    lengths = _row_counts(images)
    if (lengths < 2).any():
        raise InvariantViolation("a projected component is not a nontrivial subgroup")
    cols = _cells(images)[1].tolist()
    ends = lengths.cumsum().tolist()
    comps = [tuple(cols[a:b]) for a, b in zip([0, *ends], ends)]
    order = sorted(range(len(comps)), key=lambda i: (len(comps[i]), comps[i]))
    components = tuple(comps[i] for i in order)

    # the nontrivial cosets of the components, scanned in component order
    scan = images[order]
    del images
    hit = scan.any(axis=0)  # the identity coset lies in every component
    scan[:, label[G.identity]] = False
    owner, coset = _cells(scan)
    repeat = np.setdiff1d(np.arange(coset.size), np.unique(coset, return_index=True)[1], assume_unique=True)
    witness = None
    if repeat.size:
        j = repeat[0]
        first = int(owner[np.argmax(coset == coset[j])])
        witness = {"kind": "overlap", "element": int(coset[j]), "components": [first, int(owner[j])]}
    elif not hit.all():
        witness = {"kind": "uncovered", "element": int(hit.argmin())}
    is_partition = witness is None

    # the coset of b lies in g^-1 C g iff the coset of g b g^-1 lies in C
    family = np.sort(_byte_strings(np.packbits(scan, axis=1)))
    t, inv = G.table, G.inverses
    moved = None
    for g in _generators(G):
        conj = _byte_strings(np.packbits(scan.take(label[t[t[g, reps], inv[g]]], axis=1), axis=1))
        found = family[np.searchsorted(family, conj).clip(max=family.size - 1)] == conj
        if not found.all():
            moved = (int(label[g]), int(found.argmin()))
            break
    if moved is not None and witness is None:
        witness = {"kind": "not-normal", "conjugator": moved[0], "component": moved[1]}

    return PartitionReport(components, is_partition, moved is None, witness)


# ---------------------------------------------------------------------------
# special p-group predicates


def _p_group_prime(G: FiniteGroup) -> int | None:
    pp = prime_power(G.order)
    return pp[0] if pp else None


def _pth_powers_central(G: FiniteGroup, p: int) -> bool:
    """Does x^p lie in Z(G) for every x, that is, is (xZ)^p = 1 in G/Z?"""
    xs = power = np.arange(G.order)
    for _ in range(p - 1):
        power = G.table[power, xs]
    label = _central_cosets(G)[1]
    return bool((label[power] == label[G.identity]).all())


@memoized
def is_semi_extraspecial(G: FiniteGroup) -> bool:
    """G/N is extraspecial for every maximal subgroup N of the center.

    Decided by Beisiegel's criterion (Semi-extraspezielle p-Gruppen, Math. Z.
    156, 1977): a p-group with 1 < |Z| < |G| is semi-extraspecial iff
    G' = Z, G/Z has exponent p, and |C(x)| |Z| = |G| for every non-central x.
    """
    p = _p_group_prime(G)
    if p is None:
        return False
    zg = _center_elements(G)
    if not 1 < zg.size < G.order or not np.array_equal(_derived_elements(G), zg):
        return False
    # central x have |C(x)| = |G|; the others need index |Z|
    sizes = _centralizer_orders(G)
    return _pth_powers_central(G, p) and bool(np.isin(sizes, (G.order, G.order // zg.size)).all())


def is_extraspecial(G: FiniteGroup) -> bool:
    """Z(G) = G' of prime order p, with G/Z elementary abelian."""
    return is_semi_extraspecial(G) and _center_elements(G).size == _p_group_prime(G)


def is_ultraspecial(G: FiniteGroup) -> bool:
    """Semi-extraspecial with |G'| equal to the square root of [G : G']."""
    if not is_semi_extraspecial(G):
        return False
    return _derived_elements(G).size ** 3 == G.order


# ---------------------------------------------------------------------------
# bound functions


def _exact_exp_term(m: int) -> int | None:
    """2 * m^(log2 m) as an exact integer, when that is possible."""
    if m <= 0:
        return 0
    if m == 1:
        return 2
    if m & (m - 1) == 0:
        return 2 * m ** (m.bit_length() - 1)
    return None


def _log2_squared(m: int) -> Decimal:
    """(log2 m)^2 in 50-digit decimal: m^(log2 m) is 2 to this power."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(m).ln() / Decimal(2).ln()) ** 2


def exp_bound_holds(q_order: int, n: int) -> bool | None:
    """Is q_order <= 2*(n-4)^(log2(n-4))?

    Exact integer arithmetic when n-4 is a power of two; otherwise the
    comparison runs in 50-digit decimal as log2(q_order/2) <= (log2(n-4))^2
    with a relative guard band of 1e-9. None means the values landed inside
    the guard band and the verdict is indeterminate.
    """
    exact = _exact_exp_term(n - 4)
    if exact is not None:
        return q_order <= exact
    rhs = _log2_squared(n - 4)
    with localcontext() as ctx:
        ctx.prec = 50
        lhs = (Decimal(q_order) / 2).ln() / Decimal(2).ln()
        guard = Decimal("1e-9") * max(Decimal(1), abs(rhs))
        if lhs <= rhs - guard:
            return True
        if lhs >= rhs + guard:
            return False
        return None


def bounds(n: int, q_order: int) -> BoundReport:
    """Bound report for a group with |Cent| = n and |G/Z| = q_order."""
    if n < 4:
        raise BadN(f"bounds are defined for n >= 4, got {n}")
    bound_f = (n - 2) ** 2
    factorial_bound = math.factorial(n - 1)
    exact = _exact_exp_term(n - 4)
    if exact is not None:
        bound_general: int | float = max(bound_f, exact)
    else:
        with localcontext() as ctx:
            ctx.prec = 50
            approx = 2 * Decimal(2) ** _log2_squared(n - 4)
        bound_general = max(float(bound_f), float(approx))

    sat_general: bool | None
    if q_order <= bound_f:
        sat_general = True
    else:
        sat_general = exp_bound_holds(q_order, n)
    satisfied = {
        "bound_f": q_order <= bound_f,
        "bound_general": sat_general,
        "factorial_bound": q_order < factorial_bound,
    }
    return BoundReport(n, q_order, bound_f, bound_general, factorial_bound, satisfied)


def gcd_condition(n: int, q_order: int) -> bool:
    """gcd(n - 2, |G/Z|) != 1."""
    if n < 4:
        raise BadN(f"defined for n >= 4, got {n}")
    if q_order < 1:
        raise BadN("quotient order must be positive")
    return math.gcd(n - 2, q_order) != 1


# ---------------------------------------------------------------------------
# element- and group-level consequence checks


@memoized
def _sandwich_chains(G: FiniteGroup) -> tuple[tuple[int, int, int], ...]:
    """Entry x is (|C(x)|/|Z(G)|, |C(x Z)| in G/Z, |C(x)|)."""
    upper = _centralizer_orders(G)
    z = _center_elements(G).size
    if z == 1:
        # the labels are the identity map, so G/Z is G and the q x q table is K
        middle = upper
    else:
        reps, label = _central_cosets(G)
        # xZ and yZ commute iff the labels of xy and yx agree
        lt = label[G.table[np.ix_(reps, reps)]]
        middle = _row_counts(lt == lt.T)[label]
    return tuple(map(tuple, np.stack([upper // z, middle, upper], 1).tolist()))


def quotient_centralizer_sandwich(G: FiniteGroup, x: int) -> tuple[int, int, int]:
    """(|C(x)|/|Z(G)|, |C(x Z)| in G/Z, |C(x)|) with the chain asserted."""
    x = _element_index(G, x)
    if x in _center_elements(G):
        raise CentralElementError(f"element {x} is central")
    chain = lower, middle, upper = _sandwich_chains(G)[x]
    if not lower <= middle <= upper:
        raise InvariantViolation(
            f"sandwich {lower} <= {middle} <= {upper} fails at element {x} of {G.name}"
        )
    return chain


def _perfect_central_quotient(G: FiniteGroup) -> bool:
    # (G/Z)' = G'Z/Z, so G/Z is perfect iff |G'Z| = |G'| |Z| / |G' n Z| is |G|
    d, z = _derived_elements(G), _center_elements(G)
    return d.size * z.size == G.order * np.intersect1d(d, z, assume_unique=True).size


@memoized
def perfect_quotient_check(G: FiniteGroup) -> PerfectQuotientReport:
    """For G with perfect central quotient: G' * Z = G and the centralizer
    counts of G and G' agree. Raises InvariantViolation if either fails.
    The report holds only ints, so G' as a group is built once and dropped."""
    if is_abelian(G):
        raise NotPerfectQuotient(f"{G.name} is abelian")
    if not _perfect_central_quotient(G):
        raise NotPerfectQuotient(f"central quotient of {G.name} is not perfect")
    d = derived_subgroup(G)
    covered = _distinct(G.table[np.ix_(_derived_elements(G), _center_elements(G))]).size
    if covered != G.order:
        raise InvariantViolation(f"G'Z covers only {covered} of {G.order} elements")
    n_g = cent_count(G)
    n_d = cent_count(subgroup_as_group(G, d))
    if n_g != n_d:
        raise InvariantViolation(
            f"|Cent({G.name})| = {n_g} but its derived subgroup has {n_d}"
        )
    return PerfectQuotientReport(n_g, n_d, d.order)


def nonabelian_centralizer_check(G: FiniteGroup) -> bool:
    """For a p-group of uniform type (p^k, 1) with |G/Z| > p^(2k): are all
    proper centralizers non-abelian? Raises PreconditionNotMet otherwise."""
    p = _p_group_prime(G)
    if p is None or is_abelian(G):
        raise PreconditionNotMet(f"{G.name} is not a non-abelian p-group")
    ct = conjugate_type(G)
    if not ct.is_uniform or ct.p is None:
        raise PreconditionNotMet(f"{G.name} is not of uniform prime-power conjugate type")
    qz = G.order // _center_elements(G).size
    if qz <= ct.p ** (2 * ct.k):
        raise PreconditionNotMet(
            f"|G/Z| = {qz} does not exceed p^2k = {ct.p ** (2 * ct.k)}"
        )
    return not _centralizers(G).abelian[:-1].any()
