"""Catalog-driven checks, one per verified statement, plus search queries.

Each check takes one group, evaluates its statement's hypothesis (skipping,
with the violated precondition, when it does not apply) and reports pass,
fail with a concrete witness, or indeterminate when a transcendental bound
comparison lands inside the guard band. Census-style statements that
quantify over all finite groups of a kind are evaluated catalog-relative:
the per-group check decides both sides of the characterization for that
group, and the suite over the default catalog supplies the witnesses.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import specs
from .analytics import (
    BoundReport,
    bounds,
    central_partition,
    cent_count,
    conjugate_type,
    gcd_condition,
    is_CA_group,
    is_F_group,
    is_extraspecial,
    is_semi_extraspecial,
    is_ultraspecial,
    nonabelian_centralizer_check,
    perfect_quotient_check,
    _central_cosets,
    _centralizers,
    _perfect_central_quotient,
    _proper_sizes,
    _pth_powers_central,
    _sandwich_chains,
)
from .core import (
    FiniteGroup,
    _center_elements,
    _centralizer_orders,
    _commuting_rows,
    _derived_elements,
    _distinct,
    _row_counts,
    is_abelian,
    is_nilpotent,
    is_prime,
    largest_prime_divisor,
    memoized,
    prime_power,
    renamed,
)
from .errors import (
    BadParameter,
    GroupTheoryError,
    InvariantViolation,
    PreconditionNotMet,
    UnknownCheckId,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
INDETERMINATE = "indeterminate"
ERROR = "error"

DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLE_PAIRS = 200
DEFAULT_EXHAUSTIVE_CAP = 64


@dataclass(frozen=True)
class CheckSettings:
    """Quantification controls: exhaustive pair scans up to the cap, seeded
    sampling above it."""

    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP
    sample_pairs: int = DEFAULT_SAMPLE_PAIRS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not isinstance(self.sample_pairs, int) or self.sample_pairs < 0:
            raise BadParameter(f"sample_pairs must be a non-negative integer, got {self.sample_pairs!r}")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    group_name: str
    status: str
    details: Mapping

    def as_dict(self) -> dict:
        return {
            "check": self.check_id,
            "group": self.group_name,
            "status": self.status,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class CatalogEntry:
    """A named group in the verification catalog, with optional expected
    attributes (centralizer count, conjugate type, predicate flags). The
    group is built on the first ``build()`` and kept on the entry, so it is
    freed with the entry. A build that raises is not kept."""

    name: str
    builder_spec: str
    expected: Mapping | None = None

    def build(self) -> FiniteGroup:
        # as core.memoized keeps a value, with no lock: racing threads keep one copy
        held = self.__dict__
        if "group" not in held:
            held.setdefault("group", renamed(specs.build_group(self.builder_spec), self.name))
        return held["group"]


@dataclass(frozen=True)
class SearchQuery:
    """A predicate over (cent_count, order, center_order), with an optional
    order clamp and class restriction ("f" or "ca")."""

    predicate: str | Callable[[int, int, int], bool]
    max_order: int | None = None
    restrict: str | None = None


@dataclass(frozen=True)
class SearchHit:
    name: str
    order: int
    center_order: int
    cent_count: int
    f_group: bool
    ca_group: bool
    family: str | None

    @property
    def in_known_family(self) -> bool:
        return self.family is not None

    def as_dict(self) -> dict:
        return {
            "group": self.name,
            "order": self.order,
            "center_order": self.center_order,
            "cent_count": self.cent_count,
            "f_group": self.f_group,
            "ca_group": self.ca_group,
            "family": self.family,
            "in_known_family": self.in_known_family,
        }


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CheckResult, ...]
    summary: Mapping[str, int]


# ---------------------------------------------------------------------------
# shared helpers


def _pairs(G: FiniteGroup, s: CheckSettings, xs: Sequence[int]) -> np.ndarray:
    """(x, y) pairs with x in xs and y in G, one per row: every such pair up
    to the exhaustive cap, seeded samples above it.

    k samples take one ``getrandbits(64 * k)`` call, read as 2k little-endian
    32-bit words, two per pair. A word w maps to [0, b) as (w * b) >> 32: an
    index into xs for x, an element for y. As b <= 2^16 the product fits in
    uint64, and each value's chance is within a relative b / 2^32 of 1/b."""
    n = G.order
    xs = np.asarray(xs, dtype=np.int64)
    if n <= s.exhaustive_cap:
        return np.stack([np.repeat(xs, n), np.tile(np.arange(n, dtype=np.int64), xs.size)], axis=1)
    k = s.sample_pairs
    bits = random.Random(s.seed).getrandbits(64 * k).to_bytes(8 * k, "little")
    words = np.frombuffer(bits, dtype="<u4").astype(np.uint64).reshape(k, 2)
    bounds = np.array([xs.size, n], dtype=np.uint64)
    picks = ((words * bounds) >> np.uint64(32)).astype(np.int64)
    picks[:, 0] = xs[picks[:, 0]]
    return picks


def _pair_verdict(G, s, pairs: np.ndarray, ok: np.ndarray, names: tuple[str, str]):
    """FAIL at the first pair where ok is false, else PASS with the pair count."""
    if not ok.all():
        i = int(np.argmin(ok))
        return FAIL, {names[0]: int(pairs[i, 0]), names[1]: int(pairs[i, 1])}
    mode = "exhaustive" if G.order <= s.exhaustive_cap else "sampled"
    return PASS, {"mode": mode, "pairs": len(pairs)}


def _quotient_order(G: FiniteGroup) -> int:
    return G.order // _center_elements(G).size


@memoized
def _bound_report(G: FiniteGroup) -> BoundReport:
    """The bound report of G, read by the 1sb, bc1b, sb1 and bbc checks and
    by analyze."""
    return bounds(cent_count(G), _quotient_order(G))


def _quotient_is_elementary(G: FiniteGroup, p: int, k: int) -> bool:
    """Is G/Z isomorphic to C_p^k: of order p^k, abelian (G' <= Z) and of exponent p?"""
    label = _central_cosets(G)[1]
    abelian = (label[_derived_elements(G)] == label[G.identity]).all()
    return bool(_quotient_order(G) == p**k and abelian and _pth_powers_central(G, p))


@memoized
def _known_family(G: FiniteGroup) -> str | None:
    """Membership in the families that settle the census characterizations:
    A4, Q8, D8, dihedral of twice-odd order, or extraspecial 2-group.

    Recognized from invariants. A4 is the only group of order 12 with trivial
    center; Q8 is the non-abelian group of order 8 with one involution, D8
    the other. For odd m, a group of order 2m with an element a of order m
    and m involutions has them all outside <a>, so every b outside <a> and
    ab are involutions, bab = a^-1, and it is dihedral."""
    n, orders = G.order, G.element_orders
    if n == 12 and _center_elements(G).size == 1:
        return "A4"
    if n == 8 and not is_abelian(G):
        return "Q8" if orders.count(2) == 1 else "D8"
    m = n // 2
    if n >= 6 and n % 2 == 0 and m % 2 == 1 and m in orders and orders.count(2) == m:
        return "dihedral_odd"
    if is_extraspecial(G) and n % 2 == 0:
        return "extraspecial_2"
    return None


def _is_frobenius_prime_cyclic(G: FiniteGroup) -> bool:
    """Is G a Frobenius group with kernel of prime order q (q the largest
    prime divisor of |G|) and a cyclic complement?

    Decided as: m = |G|/q > 1, some x has order q and |C(x)| = q, and some h
    has order m. Such an x means q^2 does not divide |G|: in a Sylow
    q-subgroup P that holds x, <x>Z(P) centralizes x, so Z(P) lies in
    C(x) = <x>, hence Z(P) = <x> and P lies in C(x) too. So q does not
    divide m, and <h> meets <x> trivially by Lagrange. Then G = <x><h> is a
    product of two cyclic groups, hence supersolvable (Huppert), where the
    Sylow subgroup <x> for the largest prime q is normal; and as C(x) = <x>,
    no nontrivial element of <h> fixes a nontrivial element of <x>.
    """
    q = largest_prime_divisor(G.order)
    m = G.order // q
    orders = np.asarray(G.element_orders)
    sizes = _centralizer_orders(G)
    return bool(m > 1 and ((orders == q) & (sizes == q)).any() and (orders == m).any())


# ---------------------------------------------------------------------------
# the checks


def _z_subset(z_rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Z_a[i] <= Z_b[i] for each i, tested on the Z rows themselves, so np1
    compares it with ``contains`` as an independent derivation."""
    return (z_rows[a] <= z_rows[b]).all(axis=1)


def _check_np1(G, s):
    cz = _centralizers(G)
    pairs = _pairs(G, s, np.arange(G.order))
    cx, cy = cz.index[pairs[:, 0]], cz.index[pairs[:, 1]]
    ok = cz.contains[cx, cy] == _z_subset(cz.z_rows, cy, cx)
    return _pair_verdict(G, s, pairs, ok, ("x", "y"))


def _check_co1(G, s):
    cz = _centralizers(G)
    pairs = _pairs(G, s, np.arange(G.order))
    cx, cy = cz.index[pairs[:, 0]], cz.index[pairs[:, 1]]
    ok = cz.z_rows[cx, pairs[:, 1]] == _z_subset(cz.z_rows, cy, cx)
    return _pair_verdict(G, s, pairs, ok, ("x", "y"))


def _check_npcor1(G, s):
    cz, sizes = _centralizers(G), _proper_sizes(G)
    prime = np.isin(sizes, list(filter(is_prime, _distinct(sizes).tolist())))
    # prime-order rows i inside another proper row j; the first hit in row-major order
    hits = cz.contains[:-1, :-1] & prime[:, None] & ~np.eye(sizes.size, dtype=bool)
    if hits.any():
        i, j = divmod(int(hits.argmax()), sizes.size)
        return FAIL, {"prime_centralizer": i, "containing_centralizer": j}
    return PASS, {"prime_order_centralizers": int(prime.sum())}


def _check_np155(G, s):
    central = set(_center_elements(G).tolist())
    for x, (lower, middle, upper) in enumerate(_sandwich_chains(G)):
        if x not in central and not lower <= middle <= upper:
            return FAIL, {"x": x, "chain": [lower, middle, upper]}
    return PASS, {"elements": G.order - len(central)}


def _check_zclass1(G, s):
    cz = _centralizers(G)
    pairs = _pairs(G, s, np.flatnonzero(~cz.z_rows[-1]))
    x, g = pairs[:, 0], pairs[:, 1]
    t, inv = G.table, G.inverses
    rx, rc = cz.index[x], cz.index[t[t[inv[g], x], g]]
    # Conjugation is a bijection, so g^-1 Z(x) g = Z(x^g) iff the two have one
    # size and g^-1 z g lies in Z(x^g) for each member z of Z(x): only the
    # members are conjugated, one segment of them per pair. No segment is
    # empty, as every Z row holds the identity.
    flat = np.flatnonzero(cz.z_rows)
    members = flat % G.order  # of every Z row, row-major
    sizes = np.bincount(flat // G.order, minlength=len(cz.z_rows))
    starts = sizes.cumsum() - sizes
    lens = sizes[rx]
    seg = lens.cumsum() - lens
    # entry k of a pair's segment is member k of its Z(x)
    z = members[np.repeat(starts[rx] - seg, lens) + np.arange(lens.sum())]
    gz = g.repeat(lens)
    inside = cz.z_rows[rc.repeat(lens), t[t[inv[gz], z], gz]]
    ok = (lens == sizes[rc]) & np.logical_and.reduceat(inside, seg)
    return _pair_verdict(G, s, pairs, ok, ("x", "g"))


def _check_zclass5(G, s):
    lhs = is_F_group(G)
    rep = central_partition(G)
    rhs = rep.is_partition and rep.is_normal
    details = {
        "f_group": lhs,
        "is_partition": rep.is_partition,
        "is_normal": rep.is_normal,
        "component_sizes": sorted(len(c) for c in rep.components),
    }
    if lhs != rhs:
        details["witness"] = rep.witness
        return FAIL, details
    return PASS, details


def _check_1np(G, s):
    if not is_F_group(G):
        return SKIP, {"reason": "not an F-group"}
    n, qz = cent_count(G), _quotient_order(G)
    g = math.gcd(n - 2, qz)
    details = {"n": n, "quotient_order": qz, "gcd": g}
    return (PASS, details) if gcd_condition(n, qz) else (FAIL, details)


def _check_np22(G, s):
    if not is_F_group(G):
        return SKIP, {"reason": "not an F-group"}
    if not is_nilpotent(G):
        return SKIP, {"reason": "not nilpotent"}
    n, qz = cent_count(G), _quotient_order(G)
    pp = prime_power(qz)
    if pp is None:
        return FAIL, {"quotient_order": qz, "reason": "central quotient order is not a prime power"}
    p, k = pp
    details = {"n": n, "p": p, "k": k}
    return (PASS, details) if (n - 2) % p == 0 else (FAIL, details)


def _check_np2(G, s):
    ct = conjugate_type(G)
    if not ct.is_uniform:
        return SKIP, {"reason": "not of uniform conjugate type"}
    n = cent_count(G)
    if ct.p is None:
        return FAIL, {"m": ct.m, "reason": "uniform index is not a prime power"}
    details = {"n": n, "m": ct.m, "p": ct.p}
    return (PASS, details) if (n - 2) % ct.p == 0 else (FAIL, details)


def _check_bc1a(G, s):
    if not is_F_group(G):
        return SKIP, {"reason": "not an F-group"}
    n, qz = cent_count(G), _quotient_order(G)
    bound = (n - 2) ** 2
    if qz > bound:
        return FAIL, {"n": n, "quotient_order": qz, "bound": bound}
    # Z(x) of a non-central x holds x and Z(G), so each of these rows is larger than Z(G)
    z_sizes = _row_counts(_centralizers(G).z_rows[:-1])
    stricter = bool((((z_sizes // _center_elements(G).size) ** 2) < qz).all())
    details = {"n": n, "quotient_order": qz, "bound": bound, "strict_hypothesis": stricter}
    if stricter and qz >= bound:
        return FAIL, details
    return PASS, details


def _check_bc1b(G, s):
    if is_F_group(G):
        return SKIP, {"reason": "F-group; covered by bc1a"}
    return _check_1sb(G, s)


def _check_1sb(G, s):
    rep = _bound_report(G)
    details = {"n": rep.n, "quotient_order": rep.q_order, "bound_general": rep.bound_general}
    verdict = rep.satisfied["bound_general"]
    if verdict is None:
        return INDETERMINATE, details
    return (PASS, details) if verdict else (FAIL, details)


def _check_sb1(G, s):
    # for n > 11, (n-2)^2 < 2(n-4)^log2(n-4), so the general bound is this one
    rep = _bound_report(G)
    if rep.n <= 11:
        return SKIP, {"reason": f"n = {rep.n} <= 11"}
    details = {"n": rep.n, "quotient_order": rep.q_order}
    verdict = rep.satisfied["bound_general"]
    if verdict is None:
        return INDETERMINATE, details
    return (PASS, details) if verdict else (FAIL, details)


def _check_bbc(G, s):
    rep = _bound_report(G)
    details = {"n": rep.n, "quotient_order": rep.q_order}
    return (PASS, details) if rep.satisfied["factorial_bound"] else (FAIL, details)


def _check_xx(G, s):
    if not is_F_group(G):
        return SKIP, {"reason": "not an F-group"}
    n, qz = cent_count(G), _quotient_order(G)
    sq = (n - 2) ** 2
    details = {"n": n, "quotient_order": qz, "squared": sq}
    if qz <= sq and 4 * sq <= G.order**2:
        return PASS, details
    return FAIL, details


def _uniform_type_check(G, k_wanted):
    ct = conjugate_type(G)
    if not ct.is_uniform:
        return None, (SKIP, {"reason": "not of uniform conjugate type"})
    if ct.p is None or ct.k != k_wanted:
        return None, (SKIP, {"reason": f"uniform index {ct.m} is not p^{k_wanted} for a prime p"})
    return ct, None


def _type_pk_quotient_check(k, n_key, q_key):
    """The check that, for type (p^k, 1), n - 2 = p^k iff G/Z is C_p^2k."""

    def check(G, s):
        ct, skip = _uniform_type_check(G, k)
        if skip:
            return skip
        n = cent_count(G)
        lhs, rhs = n - 2 == ct.p**k, _quotient_is_elementary(G, ct.p, 2 * k)
        details = {"n": n, "p": ct.p, n_key: lhs, q_key: rhs}
        return (PASS, details) if lhs == rhs else (FAIL, details)

    return check


def _type_pk_bound_check(k, q_key):
    """The check that, for type (p^k, 1), |G/Z| <= (n-2)^2 with equality iff
    G/Z is C_p^2k."""

    def check(G, s):
        ct, skip = _uniform_type_check(G, k)
        if skip:
            return skip
        n, qz = cent_count(G), _quotient_order(G)
        bound = (n - 2) ** 2
        if qz > bound:
            return FAIL, {"n": n, "quotient_order": qz, "bound": bound}
        rhs = _quotient_is_elementary(G, ct.p, 2 * k)
        details = {"n": n, "quotient_order": qz, "equality": qz == bound, q_key: rhs}
        return (PASS, details) if (qz == bound) == rhs else (FAIL, details)

    return check


# one callable per check id, as run_check memoizes results by callable
_check_5sb = _type_pk_quotient_check(1, "n_minus_2_equals_p", "quotient_is_CpxCp")
_check_52sb = _type_pk_quotient_check(2, "n_minus_2_equals_p2", "quotient_is_Cp4")
_check_np2b = _type_pk_bound_check(1, "quotient_is_CpxCp")
_check_np2a = _type_pk_bound_check(2, "quotient_is_Cp4")


def _check_semi(G, s):
    if not is_semi_extraspecial(G):
        return SKIP, {"reason": "not semi-extraspecial"}
    p = prime_power(G.order)[0]
    n, qz = cent_count(G), _quotient_order(G)
    details = {"n": n, "p": p, "quotient_order": qz}
    if (n - 2) % p == 0 and qz <= (n - 2) ** 2:
        return PASS, details
    return FAIL, details


def _check_bbu(G, s):
    pp = prime_power(G.order)
    if pp is None or pp[1] != 6 or not is_ultraspecial(G):
        return SKIP, {"reason": "not an ultraspecial group of order p^6"}
    n = cent_count(G)
    cz = _centralizers(G)
    if not cz.abelian[:-1].all():
        i = int(np.argmin(cz.abelian[:-1]))
        return FAIL, {"nonabelian_centralizer_order": int(_proper_sizes(G)[i])}
    covers = bool(_commuting_rows(G, cz.reps[:-1]).any(axis=0).all())
    qz = _quotient_order(G)
    details = {
        "n": n,
        "abelian_proper_centralizers": n - 1,
        "covers_group": covers,
        "quotient_order": qz,
        "ca_group": is_CA_group(G),
    }
    ok = covers and qz == (n - 2) ** 2 and details["ca_group"]
    return (PASS, details) if ok else (FAIL, details)


def _check_np12a(G, s):
    if _center_elements(G).size > 1:
        return SKIP, {"reason": "center is nontrivial"}
    q = largest_prime_divisor(G.order)
    n = cent_count(G)
    if n < q + 2:
        return FAIL, {"n": n, "q": q}
    frob = _is_frobenius_prime_cyclic(G)
    details = {"n": n, "q": q, "equality": n == q + 2, "frobenius_prime_kernel": frob}
    return (PASS, details) if (n == q + 2) == frob else (FAIL, details)


def _check_np12b(G, s):
    if _center_elements(G).size > 1:
        return SKIP, {"reason": "center is nontrivial"}
    n = cent_count(G)
    if n > G.order - 1:
        return FAIL, {"n": n, "order": G.order}
    # centerless and of order 6 means S3
    is_s3 = G.order == 6
    details = {"n": n, "order": G.order, "equality": n == G.order - 1, "is_S3": is_s3}
    return (PASS, details) if (n == G.order - 1) == is_s3 else (FAIL, details)


def _check_t1(G, s):
    if _center_elements(G).size == 1:
        return SKIP, {"reason": "center is trivial"}
    n = cent_count(G)
    if 2 * n > G.order:
        return FAIL, {"n": n, "order": G.order}
    es2 = is_extraspecial(G) and G.order % 2 == 0
    details = {"n": n, "order": G.order, "equality": 2 * n == G.order, "extraspecial_2": es2}
    return (PASS, details) if (2 * n == G.order) == es2 else (FAIL, details)


def _check_thm1(G, s):
    n = cent_count(G)
    lhs = is_F_group(G) and 2 * n >= G.order
    fam = _known_family(G)
    rhs = fam in ("A4", "dihedral_odd", "extraspecial_2", "Q8", "D8")
    details = {"n": n, "f_group_with_large_count": lhs, "family": fam, "catalog_relative": True}
    return (PASS, details) if lhs == rhs else (FAIL, details)


def _check_ccor1(G, s):
    n = cent_count(G)
    lhs = is_CA_group(G) and 2 * n >= G.order
    fam = _known_family(G)
    rhs = fam in ("A4", "Q8", "D8", "dihedral_odd")
    details = {"n": n, "ca_group_with_large_count": lhs, "family": fam, "catalog_relative": True}
    return (PASS, details) if lhs == rhs else (FAIL, details)


def _check_cg118(G, s):
    if not _perfect_central_quotient(G):
        return SKIP, {"reason": "central quotient is not perfect"}
    try:
        rep = perfect_quotient_check(G)
    except InvariantViolation as exc:
        return FAIL, {"reason": str(exc)}
    return PASS, {
        "cent_count": rep.cent_count,
        "derived_cent_count": rep.derived_cent_count,
        "derived_order": rep.derived_order,
    }


def _check_za1(G, s):
    try:
        ok = nonabelian_centralizer_check(G)
    except PreconditionNotMet as exc:
        return SKIP, {"reason": str(exc)}
    if ok:
        ct = conjugate_type(G)
        return PASS, {"p": ct.p, "k": ct.k, "proper_centralizers": cent_count(G) - 1}
    cz = _centralizers(G)
    i = int(np.argmax(cz.abelian[:-1]))
    return FAIL, {"abelian_centralizer": i, "order": int(_proper_sizes(G)[i])}


def _check_tom11(G, s):
    n, qz = cent_count(G), _quotient_order(G)
    if n > 11:
        return SKIP, {"reason": f"n = {n} > 11"}
    details = {"n": n, "quotient_order": qz, "bound": (n - 2) ** 2}
    return (PASS, details) if qz <= (n - 2) ** 2 else (FAIL, details)


#: check id -> (implementation, one-line description); iteration order is the
#: suite's minor ordering.
REGISTRY: dict[str, tuple[Callable, str]] = {
    "np1": (_check_np1, "C(x) <= C(y) iff Z(y) <= Z(x), over element pairs"),
    "co1": (_check_co1, "y in Z(x) iff Z(y) <= Z(x), over element pairs"),
    "npcor1": (_check_npcor1, "a prime-order centralizer is contained in no other proper one"),
    "np155": (_check_np155, "|C(x)|/|Z| <= |C(xZ)| <= |C(x)| for non-central x"),
    "zclass1": (_check_zclass1, "conjugation transports Z(x) to Z(g^-1 x g)"),
    "zclass5": (_check_zclass5, "F-group iff the Z(x)/Z family is a normal partition of G/Z"),
    "1np": (_check_1np, "F-group: gcd(n-2, |G/Z|) != 1"),
    "np22": (_check_np22, "nilpotent F-group: |G/Z| = p^k with p | n-2"),
    "np2": (_check_np2, "uniform type (m,1): m = p^k and p | n-2"),
    "bc1a": (_check_bc1a, "F-group: |G/Z| <= (n-2)^2, strict under the small-Z(x) hypothesis"),
    "bc1b": (_check_bc1b, "non-F-group: |G/Z| within the combined general bound"),
    "1sb": (_check_1sb, "|G/Z| <= max((n-2)^2, 2(n-4)^log2(n-4)) for every group"),
    "sb1": (_check_sb1, "n > 11: |G/Z| <= 2(n-4)^log2(n-4)"),
    "bbc": (_check_bbc, "|G/Z| < (n-1)!"),
    "xx": (_check_xx, "F-group: |G/Z| <= (n-2)^2 <= |G|^2/4"),
    "5sb": (_check_5sb, "type (p,1): n-2 = p iff G/Z is C_p x C_p"),
    "52sb": (_check_52sb, "type (p^2,1): n-2 = p^2 iff G/Z is C_p^4"),
    "np2b": (_check_np2b, "type (p,1): |G/Z| <= (n-2)^2 with equality iff G/Z is C_p x C_p"),
    "np2a": (_check_np2a, "type (p^2,1): |G/Z| <= (n-2)^2 with equality iff G/Z is C_p^4"),
    "semi": (_check_semi, "semi-extraspecial: p | n-2 and |G/Z| <= (n-2)^2"),
    "bbu": (_check_bbu, "ultraspecial of order p^6: n-1 abelian centralizers cover G, |G/Z| = (n-2)^2"),
    "np12a": (_check_np12a, "centerless: n >= q+2, equality iff Frobenius with C_q kernel"),
    "np12b": (_check_np12b, "centerless: n <= |G|-1, equality iff S3"),
    "t1": (_check_t1, "nontrivial center: n <= |G|/2, equality iff extraspecial 2-group"),
    "thm1": (_check_thm1, "F-group with n >= |G|/2 iff A4, twice-odd dihedral, or extraspecial 2"),
    "ccor1": (_check_ccor1, "CA-group with n >= |G|/2 iff A4, Q8, D8, or twice-odd dihedral"),
    "cg118": (_check_cg118, "perfect central quotient: |Cent(G)| = |Cent(G')|"),
    "za1": (_check_za1, "p-group of type (p^k,1), |G/Z| > p^2k: all proper centralizers non-abelian"),
    "tom11": (_check_tom11, "n <= 11: |G/Z| <= (n-2)^2"),
}

#: the checks that read their CheckSettings: the pair checks, which sample
#: pairs by the seed above the exhaustive cap. run_check stores no sampled
#: result.
SAMPLED_CHECKS = frozenset({"np1", "co1", "zclass1"})


def check_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_check(check_id: str, G: FiniteGroup, settings: CheckSettings | None = None) -> CheckResult:
    """Run one named check against one group.

    The result is stored in G's own memo under the check function
    ``REGISTRY[check_id][0]`` (so a check patched into the registry runs
    afresh), as ``memoized`` stores any derived value: exceptions are not
    cached, and of two threads racing on it setdefault keeps one copy. Only
    the ``SAMPLED_CHECKS`` read the settings, and at order <=
    ``exhaustive_cap`` they read nothing but that bound. Above it their
    result depends on the seed, so it is recomputed on each call and not
    stored. A stored result is shared by every caller, so its ``details``
    must not be mutated; ``as_dict()`` returns a copy of the top level.
    """
    if check_id not in REGISTRY:
        raise UnknownCheckId(f"no check registered under {check_id!r}")
    settings = settings or CheckSettings()
    if is_abelian(G):
        return CheckResult(
            check_id, G.name, SKIP, {"reason": "abelian group; centralizer structure is trivial"}
        )
    fn = REGISTRY[check_id][0]
    if check_id in SAMPLED_CHECKS and G.order > settings.exhaustive_cap:
        return CheckResult(check_id, G.name, *fn(G, settings))
    memo = G._memo
    if fn not in memo:
        memo.setdefault(fn, CheckResult(check_id, G.name, *fn(G, settings)))
    return memo[fn]


def _expected_result(entry: CatalogEntry, G: FiniteGroup) -> CheckResult:
    """Validate an entry's expected attributes against measured values."""
    measured: dict = {"order": G.order, "center_order": _center_elements(G).size}
    if not is_abelian(G):
        measured["cent_count"] = cent_count(G)
        ct = conjugate_type(G)
        measured["conjugate_type"] = [ct.m, 1] if ct.is_uniform else None
        measured["f_group"] = is_F_group(G)
        measured["ca_group"] = is_CA_group(G)
        measured["extraspecial"] = is_extraspecial(G)
    mismatches = {
        key: {"expected": want, "measured": measured.get(key)}
        for key, want in (entry.expected or {}).items()
        if measured.get(key) != want
    }
    if mismatches:
        return CheckResult("expected", entry.name, FAIL, mismatches)
    return CheckResult("expected", entry.name, PASS, {"attributes": sorted(entry.expected or ())})


def _isolated(check_id: str, group_name: str, run: Callable[[], CheckResult]) -> CheckResult:
    """run(), or an error row in its place when it raises GroupTheoryError."""
    try:
        return run()
    except GroupTheoryError as exc:
        return CheckResult(check_id, group_name, ERROR, {"reason": str(exc)})


def _check_rows(G: FiniteGroup, settings: CheckSettings | None) -> list[CheckResult]:
    """Every registered check on G, in registry order, each isolated: the one
    runner of ``analyze`` and the suite."""
    return [_isolated(cid, G.name, lambda cid=cid: run_check(cid, G, settings)) for cid in REGISTRY]


def _entry_results(entry: CatalogEntry, settings: CheckSettings | None) -> list[CheckResult]:
    try:
        G = entry.build()
    except (GroupTheoryError, OSError) as exc:
        return [CheckResult("build", entry.name, ERROR, {"reason": str(exc)})]
    results = []
    if entry.expected is not None:
        results.append(_isolated("expected", entry.name, lambda: _expected_result(entry, G)))
    return results + _check_rows(G, settings)


def run_suite(
    catalog: Iterable[CatalogEntry] | None = None,
    *,
    jobs: int = 1,
    settings: CheckSettings | None = None,
) -> SuiteReport:
    """Every applicable check against every catalog entry, in deterministic
    order (catalog major, registry minor); entries with expected attributes
    get one extra validation row first. A builder failure becomes one error
    row for its entry, and a check that raises becomes an error row in its
    own place, without disturbing the rest. The entries run on ``jobs``
    worker threads; BadParameter when jobs < 1."""
    if jobs < 1:
        raise BadParameter(f"jobs must be >= 1, got {jobs}")
    entries = list(default_catalog() if catalog is None else catalog)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        chunks = list(pool.map(lambda e: _entry_results(e, settings), entries))
    results = tuple(r for chunk in chunks for r in chunk)
    summary = {"total": len(results), PASS: 0, FAIL: 0, SKIP: 0, INDETERMINATE: 0, ERROR: 0}
    for r in results:
        summary[r.status] += 1
    return SuiteReport(results, summary)


# ---------------------------------------------------------------------------
# search

_NAMED_PREDICATES: dict[str, Callable[[int, int, int], bool]] = {
    "cent_eq_half": lambda n, order, z: 2 * n == order,
    "cent_eq_half_plus_two": lambda n, order, z: 2 * (n - 2) == order,
    "cent_ge_half": lambda n, order, z: 2 * n >= order,
}


def search(query: SearchQuery, catalog: Iterable[CatalogEntry] | None = None) -> list[SearchHit]:
    """Catalog groups satisfying the predicate, flagged by family membership
    so out-of-family hits stand out. Abelian entries are not profiled and
    never match."""
    if callable(query.predicate):
        pred = query.predicate
    else:
        if query.predicate not in _NAMED_PREDICATES:
            raise UnknownCheckId(f"unknown search predicate {query.predicate!r}")
        pred = _NAMED_PREDICATES[query.predicate]
    if query.restrict not in (None, "f", "ca"):
        raise UnknownCheckId(f"unknown restriction {query.restrict!r}")

    hits = []
    for entry in default_catalog() if catalog is None else catalog:
        G = entry.build()
        if query.max_order is not None and G.order > query.max_order:
            continue
        if is_abelian(G):
            continue
        f_flag, ca_flag = is_F_group(G), is_CA_group(G)
        if query.restrict == "f" and not f_flag:
            continue
        if query.restrict == "ca" and not ca_flag:
            continue
        n, z = cent_count(G), _center_elements(G).size
        if pred(n, G.order, z):
            hits.append(
                SearchHit(
                    name=entry.name,
                    order=G.order,
                    center_order=z,
                    cent_count=n,
                    f_group=f_flag,
                    ca_group=ca_flag,
                    family=_known_family(G),
                )
            )
    return hits


# ---------------------------------------------------------------------------
# the default catalog


def _frobenius_entry(q: int, n: int, r: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"C{q}:C{n}(r={r})",
        builder_spec=f"builtin:frobenius:{q}:{n}:{r}",
        expected={"cent_count": q + 2, "f_group": True, "ca_group": True},
    )


def default_catalog() -> list[CatalogEntry]:
    """The built-in verification catalog (37 groups): a fresh list of the
    entries made once at import, so each group is built once per process."""
    return list(_DEFAULT_CATALOG)


def _default_entries() -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    for half in range(3, 11):
        odd = half % 2 == 1
        expected = {"cent_count": half + 2 if odd else half // 2 + 2, "f_group": True, "ca_group": True}
        entries.append(CatalogEntry(f"D{2 * half}", f"builtin:dihedral:{2 * half}", expected))
    entries.append(
        CatalogEntry("Q8", "builtin:quaternion8", {"cent_count": 4, "ca_group": True, "extraspecial": True})
    )
    for a in (1, 2, 3):
        order = 2 ** (2 * a + 1)
        for variant, sign in (("plus", "+"), ("minus", "-")):
            entries.append(
                CatalogEntry(
                    f"E{order}{sign}",
                    f"builtin:extraspecial2:{a}:{variant}",
                    {
                        "cent_count": order // 2,
                        "conjugate_type": [2, 1],
                        "f_group": True,
                        "ca_group": a == 1,
                        "extraspecial": True,
                    },
                )
            )
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        q = p**e
        entries.append(
            CatalogEntry(
                f"Heis({q})",
                f"builtin:heisenberg:{p}:{e}",
                {"cent_count": q + 2, "conjugate_type": [q, 1], "f_group": True, "ca_group": True},
            )
        )
    for q, n, r in ((5, 4, 2), (7, 3, 2), (7, 6, 3), (11, 5, 3), (13, 3, 3), (13, 4, 5)):
        entries.append(_frobenius_entry(q, n, r))
    entries.append(CatalogEntry("A4", "builtin:alternating:4", {"cent_count": 6, "f_group": True, "ca_group": True}))
    entries.append(CatalogEntry("S4", "builtin:symmetric:4", {"cent_count": 14, "f_group": False}))
    entries.append(CatalogEntry("A5", "builtin:alternating:5", {"cent_count": 22, "f_group": True, "ca_group": True}))
    entries.append(CatalogEntry("S5", "builtin:symmetric:5", {"cent_count": 57, "f_group": False}))
    entries.append(
        CatalogEntry(
            "S3xS3", "builtin:symmetric:3*builtin:symmetric:3", {"cent_count": 25, "f_group": False}
        )
    )
    entries.append(
        CatalogEntry(
            "C6xA5", "builtin:cyclic:6*builtin:alternating:5", {"cent_count": 22, "center_order": 6}
        )
    )
    entries.append(
        CatalogEntry(
            "D8xC2",
            "builtin:dihedral:8*builtin:cyclic:2",
            {"cent_count": 4, "conjugate_type": [2, 1], "extraspecial": False},
        )
    )
    entries.append(CatalogEntry("C12", "builtin:cyclic:12", {"center_order": 12}))
    entries.append(CatalogEntry("C2^3", "builtin:elementary_abelian:2:3", {"center_order": 8}))
    entries.append(CatalogEntry("C15", "builtin:cyclic:15", {"center_order": 15}))
    return entries


_DEFAULT_CATALOG = tuple(_default_entries())
