import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab.errors import (
    CapExceededError,
    GroupMismatchError,
    UnsupportedGroupError,
)
from cosetlab.groups import (
    ConjugacyClass,
    Permutation,
    SymmetricGroup,
    WreathElement,
    WreathGroup,
    cached_group,
    conjugate,
    group_from_spec,
    involution_class,
    parse_cycles,
    parse_permutation,
    parse_wreath_element,
)


def test_identity_law_s3():
    g3 = SymmetricGroup(3)
    e = g3.identity()
    for g in g3.elements:
        assert e * g == g
        assert g * e == g


def test_swap_squares_to_identity():
    for n in (1, 2, 3):
        s = WreathElement.swap(n)
        assert (s * s).is_identity()


def test_swap_times_plain_pair_swaps_the_pair():
    # ((e,e),1) * ((a,b),0) = ((b,a),1)
    a = parse_cycles("(01)", 2)
    b = Permutation.identity(2)
    s = WreathElement.swap(2)
    prod = s * WreathElement(a, b, 0)
    assert prod == WreathElement(b, a, 1)


def test_conjugate_by_identity():
    g3 = SymmetricGroup(3)
    e = g3.identity()
    for g in g3.elements:
        assert conjugate(g, e) == g


def test_conjugate_transposition():
    g = parse_cycles("(01)", 3)
    x = parse_cycles("(12)", 3)
    assert conjugate(g, x) == parse_cycles("(02)", 3)


def test_conjugate_swap_by_plain_pair():
    tau = parse_cycles("(01)", 2)
    s = WreathElement.swap(2)
    x = WreathElement(tau, Permutation.identity(2), 0)
    assert conjugate(s, x) == WreathElement(tau, tau, 1)


def test_composition_is_apply_right_first():
    g = parse_cycles("(01)", 3)
    h = parse_cycles("(12)", 3)
    gh = g * h
    for i in range(3):
        assert gh(i) == g(h(i))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_symmetric_group_axioms_exhaustive(n):
    grp = SymmetricGroup(n)
    els = grp.elements
    assert len(els) == grp.order
    assert els[0] == grp.identity()
    for g in els:
        assert g * g.inverse() == grp.identity()
    if n <= 3:
        for g, h, k in itertools.product(els, repeat=3):
            assert (g * h) * k == g * (h * k)
    # Closure: products land back in the enumeration.
    for g, h in itertools.product(els, repeat=2):
        grp.index(g * h)


@pytest.mark.parametrize("n", [1, 2])
def test_wreath_group_axioms_exhaustive(n):
    grp = WreathGroup(n)
    els = grp.elements
    assert len(els) == grp.order == 2 * math_factorial(n) ** 2
    for g in els:
        assert g * g.inverse() == grp.identity()
        assert g.inverse() * g == grp.identity()
    for g, h, k in itertools.product(els, repeat=3):
        assert (g * h) * k == g * (h * k)


def math_factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_wreath3_sampled_axioms():
    grp = WreathGroup(3)
    els = grp.elements
    assert len(els) == 72
    rng = random.Random(7)
    for _ in range(200):
        g, h, k = (els[rng.randrange(72)] for _ in range(3))
        assert (g * h) * k == g * (h * k)
        grp.index(g * h)


def test_conjugacy_classes_s3():
    sizes = sorted(c.size for c in SymmetricGroup(3).conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_s4_count():
    assert len(SymmetricGroup(4).conjugacy_classes()) == 5


def test_conjugacy_classes_wreath2_count():
    # W(2) is the dihedral group of order 8: five classes.
    grp = WreathGroup(2)
    classes = grp.conjugacy_classes()
    assert len(classes) == 5
    assert sum(c.size for c in classes) == 8


@pytest.mark.parametrize("spec", ["sym:3", "sym:4", "wreath:2", "wreath:3"])
def test_class_equation(spec):
    grp = group_from_spec(spec)
    classes = grp.conjugacy_classes()
    assert sum(c.size for c in classes) == grp.order
    for i, cls in enumerate(classes):
        assert isinstance(cls, ConjugacyClass)
        assert {grp.class_position(g) for g in cls.members} == {i}
        # Closure under conjugation by every group element.
        member_set = set(cls.members)
        for x in grp.elements:
            assert conjugate(cls.representative, x) in member_set


_SMALL_SPECS = [f"sym:{n}" for n in range(6)] + [f"wreath:{n}" for n in range(4)]


def _orbit_partition(grp):
    """Classes as orbits under conjugation, one element object at a time:
    (representative, members in enumeration order, label) per class."""
    els = grp.elements
    assigned = set()
    out = []
    for i, g in enumerate(els):
        if i in assigned:
            continue
        orbit = sorted({grp.index(x.inverse() * g * x) for x in els})
        assigned.update(orbit)
        members = tuple(els[j] for j in orbit)
        out.append((members[0], members, grp.class_label(members[0])))
    return out


@pytest.mark.parametrize("spec", _SMALL_SPECS + ["wreath:4"])
def test_classes_match_the_object_level_orbit_loop(spec):
    grp = cached_group(spec)
    got = [(c.representative, c.members, c.label) for c in grp.conjugacy_classes()]
    assert got == _orbit_partition(grp)
    for i, cls in enumerate(grp.conjugacy_classes()):
        assert all(grp.class_label(g) == cls.label for g in cls.members)
        assert all(grp.class_of(g) is cls for g in cls.members)
        assert (grp.class_indices()[[grp.index(g) for g in cls.members]] == i).all()


@pytest.mark.parametrize(
    "spec", [f"sym:{n}" for n in range(8)] + [f"wreath:{n}" for n in range(5)])
def test_generators_generate_the_group(spec):
    grp = cached_group(spec)
    pts = grp.point_images()
    gens = pts[[grp.index(s) for s in grp.generators()]]
    seen = np.zeros(grp.order, dtype=bool)
    frontier = np.array([grp.index(grp.identity())])
    seen[frontier] = True
    while frontier.size:
        rows = pts[frontier][:, gens].reshape(frontier.size * len(gens), pts.shape[1])
        kids = grp.point_rank(rows)
        frontier = np.unique(kids[~seen[kids]])
        seen[frontier] = True
    assert seen.all()


def test_generators_are_listed_in_the_documented_order():
    s0, s1 = parse_permutation("[1,0,2]"), parse_permutation("[0,2,1]")
    e = Permutation.identity(3)
    assert SymmetricGroup(3).generators() == (s0, s1)
    assert SymmetricGroup(1).generators() == ()
    assert WreathGroup(3).generators() == (
        WreathElement(s0, e, 0), WreathElement(s1, e, 0),
        WreathElement(e, s0, 0), WreathElement(e, s1, 0), WreathElement.swap(3))
    assert WreathGroup(0).generators() == (WreathElement.swap(0),)


@pytest.mark.parametrize("spec", ["sym:0", "sym:4", "wreath:0", "wreath:2", "wreath:3"])
def test_multiplication_table_is_the_product_index(spec):
    # The point row of g * h is g's row indexed by h's row: the products
    # that MatrixRep.check and the Young walk take with every generator h.
    grp = group_from_spec(spec)
    els = grp.elements
    pts = grp.point_images()
    for j, h in enumerate(els):
        got = grp.point_rank(pts[:, pts[j]])
        assert got.tolist() == [grp.index(g * h) for g in els]


def _action(g):
    """The documented point action of a permutation or wreath element."""
    if isinstance(g, Permutation):
        return list(g.images)
    n = g.degree
    a, b = list(g.alpha.images), [n + j for j in g.beta.images]
    return (a + b + [2 * n, 2 * n + 1]) if g.flip == 0 else (b + a + [2 * n + 1, 2 * n])


@pytest.mark.parametrize("spec", _SMALL_SPECS + ["wreath:4"])
def test_point_images_rank_back_to_enumeration_order(spec):
    grp = cached_group(spec)
    pts = grp.point_images()
    assert not pts.flags.writeable
    assert pts.tolist() == [_action(g) for g in grp.elements]
    assert np.array_equal(grp.point_rank(pts), np.arange(grp.order))


@settings(max_examples=50, deadline=None, database=None)
@given(i=st.integers(0, 1151), j=st.integers(0, 1151))
def test_conjugation_keeps_the_class_position_wreath4(i, j):
    grp = cached_group("wreath:4")
    g, x = grp.elements[i], grp.elements[j]
    assert grp.class_position(conjugate(g, x)) == grp.class_position(g)


def test_involution_class_wreath2():
    grp = WreathGroup(2)
    cls = involution_class(grp)
    tau = parse_cycles("(01)", 2)
    e = Permutation.identity(2)
    assert set(cls.members) == {WreathElement(e, e, 1), WreathElement(tau, tau, 1)}


@pytest.mark.parametrize("n,size", [(1, 1), (2, 2), (3, 6)])
def test_involution_class_size_and_shape(n, size):
    cls = involution_class(WreathGroup(n))
    assert cls.size == size
    for m in cls.members:
        assert m.flip == 1
        assert m.order() == 1 if m.is_identity() else m.order() == 2
        assert m.beta == m.alpha.inverse()


def test_involution_class_rejects_symmetric():
    with pytest.raises(UnsupportedGroupError):
        involution_class(SymmetricGroup(3))


def test_centralizer_size_via_class_equation():
    for n in (2, 3):
        grp = WreathGroup(n)
        cls = involution_class(grp)
        assert grp.order // cls.size == 2 * math_factorial(n)


def test_enumeration_order_is_lexicographic():
    g3 = SymmetricGroup(3)
    assert [str(g) for g in g3.elements[:3]] == ["[0,1,2]", "[0,2,1]", "[1,0,2]"]
    w1 = WreathGroup(1)
    assert [str(g) for g in w1.elements] == ["([0],[0],0)", "([0],[0],1)"]


def test_serialization_roundtrip():
    rng = random.Random(3)
    g4 = SymmetricGroup(4)
    for _ in range(20):
        g = g4.elements[rng.randrange(g4.order)]
        assert parse_permutation(str(g)) == g
    w2 = WreathGroup(2)
    for g in w2.elements:
        assert parse_wreath_element(str(g)) == g


def test_parse_cycles_forms():
    assert parse_cycles("(01)", 3) == Permutation((1, 0, 2))
    assert parse_cycles("(0 2)(1 3)", 4) == Permutation((2, 3, 0, 1))
    assert parse_cycles("(0,1,2)", 3) == Permutation((1, 2, 0))
    assert parse_cycles("e", 3) == Permutation.identity(3)


@pytest.mark.parametrize("text", ["(0 1 2", "(01)(2", "(01))"])
def test_parse_cycles_rejects_unbalanced(text):
    with pytest.raises(ValueError):
        parse_cycles(text, 3)


def test_cycle_type_and_order():
    g = parse_cycles("(012)(34)", 5)
    assert g.cycle_type() == (3, 2)
    assert g.order() == 6


def test_degree_mismatch_raises():
    with pytest.raises(GroupMismatchError):
        Permutation((0, 1)) * Permutation((0, 1, 2))
    with pytest.raises(GroupMismatchError):
        SymmetricGroup(3).index(Permutation((0, 1)))


def test_enumeration_cap():
    grp = group_from_spec("wreath:6")
    with pytest.raises(CapExceededError):
        _ = grp.elements


def test_sym0_is_the_trivial_group():
    g0 = SymmetricGroup(0)
    assert g0.order == 1
    assert g0.elements == (Permutation(()),)
    assert len(g0.conjugacy_classes()) == 1
