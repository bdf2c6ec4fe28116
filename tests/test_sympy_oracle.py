"""Differential test against sympy's permutation groups.

sympy is not a dependency of groupcent; the module is skipped without it.
Each builder group is handed to sympy as its right regular representation,
the permutations x -> xg for g in a generating set, and sympy's own center,
derived subgroup and nilpotency decide the expected values. S6 and A6 are
compared with sympy's own groups on 6 points: their regular representations
would compose 720^3 entries. Random permutation groups, which reach groups
outside the builder families, are compared with sympy on their own points
and with the loop oracles of conftest. The prime factorization behind
prime_power and largest_prime_divisor is compared with sympy's factorint.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from groupcent import (
    CheckSettings,
    alternating,
    cent_count,
    center,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    elementary_abelian,
    extraspecial2,
    frobenius_cq_cn,
    from_permutations,
    from_table,
    gf,
    heisenberg,
    is_abelian,
    is_nilpotent,
    quaternion8,
    symmetric,
)
from groupcent.core import _generators, _prime_factors

from conftest import (
    assert_centralizers_match_loops,
    brute_force_bad_triple,
    brute_force_inverses,
    loop_element_orders,
)

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup  # noqa: E402

MAX_ORDER = 96

FACTORS = [
    cyclic(1),
    cyclic(2),
    cyclic(3),
    cyclic(4),
    cyclic(5),
    elementary_abelian(2, 2),
    symmetric(3),
    dihedral(8),
    quaternion8(),
    dihedral(10),
    dihedral(12),
    alternating(4),
    frobenius_cq_cn(5, 4, 2),
    symmetric(4),
    heisenberg(gf(3)),
    extraspecial2(2, "minus"),
]


@st.composite
def small_products(draw):
    """A direct product of one to three small builders, of order <= 96."""
    g = draw(st.sampled_from(FACTORS))
    for _ in range(draw(st.integers(0, 2))):
        fits = [f for f in FACTORS if g.order * f.order <= MAX_ORDER]
        g = direct_product(g, draw(st.sampled_from(fits)))
    return g


def regular_representation(G):
    """sympy's permutation group on the points 0..n-1 generated by the
    table columns x -> xg of G's generators."""
    gens = [Permutation(G.table[:, g].tolist()) for g in _generators(G)]
    return PermutationGroup(gens or [Permutation(G.order - 1)])


def sympy_cent_count(P):
    """Distinct centralizers among sympy's enumeration of the elements, by
    composing their permutations."""
    perms = np.array([p.array_form for p in P.elements])
    composed = perms[:, perms]  # [a, b] is b then a
    commute = (composed == composed.transpose(1, 0, 2)).all(axis=2)
    return np.unique(commute, axis=0).shape[0]


@given(small_products())
@settings(max_examples=40, deadline=None)
def test_core_numbers_match_sympy(g):
    P = regular_representation(g)
    assert P.order() == g.order
    assert center(g).order == P.center().order()
    assert derived_subgroup(g).order == P.derived_subgroup().order()
    assert is_nilpotent(g) == P.is_nilpotent
    n = sympy_cent_count(P)
    assert n == (1 if is_abelian(g) else cent_count(g))


@pytest.mark.parametrize(
    "build,sympy_build,want",
    [(symmetric, SymmetricGroup, 317), (alternating, AlternatingGroup, 137)],
    ids=["S6", "A6"],
)
def test_degree_six_matches_sympy(build, sympy_build, want):
    g, P = build(6), sympy_build(6)
    assert P.order() == g.order
    assert center(g).order == P.center().order() == 1
    assert cent_count(g) == sympy_cent_count(P) == want


# the cycle types of a permutation that moves exactly k points
DERANGEMENT_SHAPES = {2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,), (3, 2)]}


@st.composite
def point_permutations(draw):
    """A degree of 4 to 8 and one to three permutations of its points, each
    moving 2 to 5 of them, as image lists."""
    degree = draw(st.integers(4, 8))
    perms = []
    for _ in range(draw(st.integers(1, 3))):
        moved = draw(st.integers(2, min(5, degree)))
        points = draw(st.permutations(range(degree)))[:moved]
        image, start = list(range(degree)), 0
        for length in draw(st.sampled_from(DERANGEMENT_SHAPES[moved])):
            cycle = points[start:start + length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a] = b
            start += length
        perms.append(image)
    return degree, perms


@given(point_permutations())
@settings(max_examples=100, deadline=None)
def test_permutation_groups_match_sympy_and_the_loop_oracles(drawn):
    degree, perms = drawn
    P = PermutationGroup([Permutation(p) for p in perms])
    assume(P.order() <= 1000)
    g = from_permutations(degree, perms)
    assert g.order == P.order()
    assert center(g).order == P.center().order()
    assert derived_subgroup(g).order == P.derived_subgroup().order()
    assert is_nilpotent(g) == P.is_nilpotent
    assert sympy_cent_count(P) == (1 if is_abelian(g) else cent_count(g))
    assert g.element_orders == loop_element_orders(g.table, g.identity)
    assert tuple(g.inverses.tolist()) == brute_force_inverses(g.table)
    # the closure runs no Light's test: from_table revalidates its table
    rebuilt = from_table(g.table)
    assert (rebuilt.identity, rebuilt.element_orders) == (g.identity, g.element_orders)
    assert np.array_equal(rebuilt.inverses, g.inverses) and _generators(rebuilt) == _generators(g)
    if g.order <= 64:
        assert brute_force_bad_triple(g.table) is None
    if not is_abelian(g):
        # the centralizer record, the F and CA flags and the pair checks,
        # exhaustive up to order 64 and sampled at every order
        assert_centralizers_match_loops(g, [CheckSettings(), CheckSettings(exhaustive_cap=0)])


def test_prime_factors_match_sympy():
    for n in range(2**14 + 1):
        assert _prime_factors(n) == sorted(sympy.factorint(n).items() if n >= 2 else []), n
