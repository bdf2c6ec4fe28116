"""Cross-cutting invariants, exhaustive on small groups, hypothesis on the rest."""

import pytest
from hypothesis import given, settings, strategies as st

from groupcent import (
    CheckSettings,
    alternating,
    cent_count,
    center,
    centralizer,
    conjugate_type,
    cyclic,
    dihedral,
    direct_product,
    extraspecial2,
    frobenius_cq_cn,
    from_permutations,
    generated_subgroup,
    gf,
    heisenberg,
    is_CA_group,
    is_F_group,
    is_I_group,
    is_abelian,
    is_prime,
    isomorphic,
    profile,
    quaternion8,
    quotient,
    symmetric,
)

from conftest import assert_centralizers_match_loops, relabel_group

# exhaustively scanned pool; everything here has order <= 64
SMALL_POOL = [
    symmetric(3),
    dihedral(8),
    quaternion8(),
    dihedral(12),
    alternating(4),
    symmetric(4),
    extraspecial2(2, "plus"),
    heisenberg(gf(3)),
    frobenius_cq_cn(5, 4, 2),
    direct_product(symmetric(3), cyclic(2)),
]


@pytest.mark.parametrize("g", SMALL_POOL, ids=lambda g: g.name)
def test_conjugation_transports_centralizers(g):
    cz = [centralizer(g, x).element_set for x in g.elements()]
    for x in g.elements():
        for c in g.elements():
            conj_x = g.conj(x, c)
            transported = frozenset(g.conj(a, c) for a in cz[x])
            assert transported == cz[conj_x]


@pytest.mark.parametrize("g", SMALL_POOL, ids=lambda g: g.name)
def test_containment_duality_exhaustive(g):
    prof = profile(g)
    cz = [centralizer(g, x).element_set for x in g.elements()]
    zs = [prof.z_of[x].element_set for x in g.elements()]
    for x in g.elements():
        for y in g.elements():
            assert (cz[x] <= cz[y]) == (zs[y] <= zs[x])
            assert (y in zs[x]) == (zs[y] <= zs[x])


@pytest.mark.parametrize("g", SMALL_POOL, ids=lambda g: g.name)
def test_center_conjugation_exhaustive(g):
    prof = profile(g)
    zs = [prof.z_of[x].element_set for x in g.elements()]
    zset = center(g).element_set
    for x in g.elements():
        if x in zset:
            continue
        for c in g.elements():
            assert frozenset(g.conj(a, c) for a in zs[x]) == zs[g.conj(x, c)]


@pytest.mark.parametrize("g", SMALL_POOL, ids=lambda g: g.name)
def test_prime_centralizer_maximality(g):
    prof = profile(g)
    sets = [c.element_set for c in prof.proper_centralizers]
    for i, c in enumerate(prof.proper_centralizers):
        if not is_prime(c.order):
            continue
        for j, other in enumerate(sets):
            assert i == j or not sets[i] < other


@pytest.mark.parametrize("g", SMALL_POOL, ids=lambda g: g.name)
def test_z_family_covers_group(g):
    prof = profile(g)
    covered = set(center(g).elements)
    for x in g.elements():
        covered |= prof.z_of[x].element_set
    assert covered == set(g.elements())


@pytest.mark.parametrize("g", SMALL_POOL, ids=lambda g: g.name)
def test_class_inclusions(g):
    if is_CA_group(g):
        assert is_F_group(g)
    ct = conjugate_type(g)
    if is_I_group(g) and ct.p is not None:
        assert is_F_group(g)


def test_cent_count_bounds_by_center():
    for g in SMALL_POOL:
        n = cent_count(g)
        if center(g).order > 1:
            assert 2 * n <= g.order
        else:
            assert n <= g.order - 1


def test_isomorphic_is_equivalence_on_pool():
    pool = SMALL_POOL[:6]
    for a in pool:
        assert isomorphic(a, a)
        for b in pool:
            assert isomorphic(a, b) == isomorphic(b, a)


def test_isomorphic_transitive_on_equal_order_triples():
    triples = [
        (dihedral(8), heisenberg(gf(2)), extraspecial2(1, "plus")),
        (quaternion8(), extraspecial2(1, "minus"), dihedral(8)),
        (symmetric(3), dihedral(6), direct_product(cyclic(3), cyclic(2))),
    ]
    for a, b, c in triples:
        if isomorphic(a, b) and isomorphic(b, c):
            assert isomorphic(a, c)


# ---------------------------------------------------------------------------
# hypothesis-driven properties


@st.composite
def group_and_permutation(draw):
    g = draw(st.sampled_from(SMALL_POOL[:7]))
    perm = draw(st.permutations(range(g.order)))
    return g, perm


@given(group_and_permutation())
@settings(max_examples=40, deadline=None)
def test_relabelling_preserves_centralizer_structure(gp):
    g, perm = gp
    h = relabel_group(g, perm)
    assert cent_count(h) == cent_count(g)
    assert conjugate_type(h) == conjugate_type(g)
    assert is_F_group(h) == is_F_group(g)
    assert is_CA_group(h) == is_CA_group(g)
    assert sorted(h.element_orders) == sorted(g.element_orders)
    sampled = CheckSettings(exhaustive_cap=0, sample_pairs=50, seed=len(perm))
    assert_centralizers_match_loops(h, [CheckSettings(), sampled])


@given(group_and_permutation())
@settings(max_examples=15, deadline=None)
def test_relabelling_is_isomorphic(gp):
    g, perm = gp
    assert isomorphic(g, relabel_group(g, perm))


@given(
    g=st.sampled_from(SMALL_POOL),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_generated_subgroup_satisfies_lagrange(g, data):
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    h = generated_subgroup(g, gens)
    assert g.order % h.order == 0
    assert g.identity in h


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_quotient_projection_respects_products(data):
    g = data.draw(st.sampled_from([quaternion8(), dihedral(12), extraspecial2(2, "minus")]))
    qr = quotient(g, center(g))
    a = data.draw(st.integers(0, g.order - 1))
    b = data.draw(st.integers(0, g.order - 1))
    assert qr.projection[g.mul(a, b)] == qr.quotient.mul(qr.projection[a], qr.projection[b])


@given(st.permutations(range(5)))
@settings(max_examples=30, deadline=None)
def test_single_generator_closure_is_cyclic(perm):
    g = from_permutations(5, [tuple(perm)])
    orders = {g.element_orders[x] for x in g.elements()}
    assert max(orders) == g.order  # one generator: the closure is cyclic
    assert is_abelian(g)
