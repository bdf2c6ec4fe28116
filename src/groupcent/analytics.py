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
from typing import Mapping, NamedTuple

import numpy as np

from .core import (
    FiniteGroup,
    QuotientResult,
    Subgroup,
    _center_elements,
    _centralizer_orders,
    _commuting_matrix,
    _coset_labels,
    _derived_elements,
    _distinct,
    _element_index,
    _generators,
    _is_closed,
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

    ``contains`` is read off the Z rows, with no matrix product: row i lies
    in C(y) iff y lies in Z_i, so it gathers the Z rows at the
    representatives. Z_i lies in row i, so row i is abelian iff the two have
    one size. The containments of the Z rows are not kept: np1 and co1 test
    Z(y) <= Z(x) at the pairs they check, independently of ``contains``."""

    index: np.ndarray
    reps: np.ndarray
    z_rows: np.ndarray
    contains: np.ndarray
    abelian: np.ndarray


@memoized
def _centralizers(G: FiniteGroup) -> _Centralizers:
    """The one centralizer representation every predicate and check reads:
    per distinct centralizer one representative, its Z row, its
    containments and its abelian flag, with no copy of K (see
    ``_Centralizers``).

    The distinct rows of K are found by one 1-D ``np.unique`` over the
    packed rows, each viewed as a single byte string; the canonical sort
    after it fixes the row order. Row sizes are read from
    ``_centralizer_orders`` at the representatives, so no row of K is
    summed again, and the CA flags compare them with the Z row sizes.
    np1 and co1 test Z(y) <= Z(x) on the Z rows at their own pairs.

    Raises AbelianGroupError for abelian input, where the only centralizer
    is the group itself, and InvariantViolation if the rows break the
    count, sandwich or covering facts that hold in every group.
    """
    if is_abelian(G):
        raise AbelianGroupError(f"{G.name} is abelian; its only centralizer is itself")
    k = _commuting_matrix(G)
    packed = np.packbits(k, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    first, inverse = np.unique(keys, return_index=True, return_inverse=True)[1:]
    del packed, keys  # freed before the row gathers below
    elems = [np.flatnonzero(k[x]).tolist() for x in first]
    # G is the one row of size |G|, so it sorts last
    canon = sorted(range(first.size), key=lambda i: (len(elems[i]), elems[i]))
    index = np.argsort(canon)[inverse.reshape(-1)]
    reps = first[canon]
    # x lies in C(x), so whatever commutes with all of C(x) lies in C(x): that is Z(x).
    z_rows = np.array([k[k[x]].all(axis=0) for x in reps])

    n = reps.size
    if n < 4:
        raise InvariantViolation(f"{G.name} reports n={n}; no group has 2 or 3 centralizers")
    zg = z_rows[-1]
    sizes = _centralizer_orders(G)[reps]
    proper = sizes[:-1]
    if not (((zg.sum() < proper) & (proper < G.order)).all() and k[np.ix_(reps[:-1], zg)].all()):
        raise InvariantViolation("proper centralizer fails the strict sandwich Z(G) < C < G")
    if not z_rows.any(axis=0).all():
        raise InvariantViolation("the Z(x) together with the center do not cover the group")

    abelian = z_rows.sum(axis=1) == sizes
    # row i lies in C(y) iff y commutes with all of row i, that is, iff y lies in Z_i
    contains = z_rows[:, reps]
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
    rows = _commuting_matrix(G)[cz.reps[:m]]
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


@memoized
def central_partition(G: FiniteGroup) -> PartitionReport:
    """Project the distinct Z(x) into G/Z(G) and test partition/normality.

    This reads the Z rows through the coset labels of G/Z, while is_F_group
    reads them at the row representatives (the ``contains`` gather), so the
    two verdicts are cross-validated from one source by different routes.
    """
    z_rows = _centralizers(G).z_rows[:-1]
    reps, label = _central_cosets(G)
    # Z(x) contains Z(G), so it is the union of the cosets whose least element it holds
    images = z_rows.take(reps, axis=1)
    cols = np.nonzero(images)[1].tolist()
    ends = np.count_nonzero(images, axis=1).cumsum().tolist()
    comps = [tuple(cols[a:b]) for a, b in zip([0, *ends], ends)]
    order = sorted(range(len(comps)), key=lambda i: (len(comps[i]), comps[i]))
    components = tuple(comps[i] for i in order)

    for comp, z in zip(comps, z_rows):
        if len(comp) < 2 or not _is_closed(G, np.flatnonzero(z)):
            raise InvariantViolation("a projected component is not a nontrivial subgroup")

    # the nontrivial cosets of the components, scanned in component order
    scan = images[order]
    hit = scan.any(axis=0)  # the identity coset lies in every component
    scan[:, label[G.identity]] = False
    owner, coset = np.nonzero(scan)
    repeat = np.setdiff1d(np.arange(coset.size), np.unique(coset, return_index=True)[1], assume_unique=True)
    witness = None
    if repeat.size:
        j = repeat[0]
        first = int(owner[np.argmax(coset == coset[j])])
        witness = {"kind": "overlap", "element": int(coset[j]), "components": [first, int(owner[j])]}
    elif not hit.all():
        witness = {"kind": "uncovered", "element": int(hit.argmin())}
    is_partition = witness is None

    # the family is normal iff conjugating by each generator of G keeps it;
    # the coset of b lies in g^-1 C g iff the coset of g b g^-1 lies in C
    family = set(map(bytes, np.packbits(scan, axis=1)))
    t, inv = G.table, G.inverses
    moved = next(
        ((int(label[g]), i) for g in _generators(G)
         for i, row in enumerate(np.packbits(scan.take(label[t[t[g, reps], inv[g]]], axis=1), axis=1))
         if bytes(row) not in family),
        None,
    )
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


def exp_bound_holds(q_order: int, n: int) -> bool | None:
    """Is q_order <= 2*(n-4)^(log2(n-4))?

    Exact integer arithmetic when n-4 is a power of two; otherwise the
    comparison runs in 50-digit decimal as log2(q_order/2) <= (log2(n-4))^2
    with a relative guard band of 1e-9. None means the values landed inside
    the guard band and the verdict is indeterminate.
    """
    m = n - 4
    exact = _exact_exp_term(m)
    if exact is not None:
        return q_order <= exact
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()
        lhs = (Decimal(q_order) / 2).ln() / ln2
        rhs = (Decimal(m).ln() / ln2) ** 2
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
            m = Decimal(n - 4)
            approx = 2 * Decimal(2) ** ((m.ln() / Decimal(2).ln()) ** 2)
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
        middle = (lt == lt.T).sum(axis=1)[label]
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
