from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from cosetlab.errors import (
    CapExceededError,
    RepresentationDefectError,
)
from cosetlab.groups import (
    FiniteGroup,
    Permutation,
    WreathGroup,
    cached_group,
    involution_class,
    parse_cycles,
)
from cosetlab import irreps
from cosetlab.irreps import (
    DiagonalLabel,
    MatrixRep,
    PairLabel,
    character_table,
    group_irreps,
    irrep_labels,
    label_dim,
    label_matrices,
    label_str,
    parse_label,
    plancherel,
    wreath_character,
    wreath_matrices,
    young_orthogonal_rep,
)
from cosetlab.tableaux import dimension, partitions


def test_yor_21_adjacent_swap_is_diag_1_minus1():
    rep = young_orthogonal_rep((2, 1))
    m = rep.matrix(parse_cycles("(01)", 3))
    assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-12)


def test_yor_traces_match_characters():
    for n in range(7):
        for lam in partitions(n):
            rep = young_orthogonal_rep(lam)
            rep.check()


def test_yor_s3_generates_group_of_order_6():
    rep = young_orthogonal_rep((2, 1))
    a = rep.matrix(parse_cycles("(01)", 3))
    b = rep.matrix(parse_cycles("(12)", 3))
    seen = {np.round(np.eye(2), 9).tobytes()}
    frontier = [np.eye(2)]
    while frontier:
        m = frontier.pop()
        for g in (a, b):
            nxt = m @ g
            key = np.round(nxt, 9).tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    assert len(seen) == 6


def _fifo_stack(lam):
    """Reference: the Cayley-graph walk with a first-in-first-out queue,
    on Permutation objects, one matrix product per element."""
    n = sum(lam)
    group = cached_group(f"sym:{n}")
    gens = []
    for i in range(n - 1):
        images = list(range(n))
        images[i], images[i + 1] = images[i + 1], images[i]
        gens.append((Permutation(tuple(images)), irreps._yor_generator(lam, i)))
    d = dimension(lam)
    stack = np.zeros((group.order, d, d))
    e = group.identity()
    stack[group.index(e)] = np.eye(d)
    seen = {e}
    queue = deque([e])
    while queue:
        g = queue.popleft()
        for s, mat in gens:
            h = g * s
            if h not in seen:
                seen.add(h)
                stack[group.index(h)] = stack[group.index(g)] @ mat
                queue.append(h)
    assert len(seen) == group.order
    return stack


@pytest.mark.parametrize("n", range(7))
def test_level_fill_has_the_bits_of_a_fifo_walk(n):
    # group_irreps fills every partition from one walk, young_orthogonal_rep
    # one partition from its own
    for lam, rep in zip(partitions(n), group_irreps(cached_group(f"sym:{n}"))):
        want = _fifo_stack(lam)
        assert rep.label == lam
        assert np.array_equal(rep.stack, want), lam
        assert np.array_equal(young_orthogonal_rep(lam).stack, want), lam


def test_yor_cap():
    with pytest.raises(CapExceededError):
        young_orthogonal_rep((8,))


def test_sym0_and_sym1_edge_cases():
    rep0 = young_orthogonal_rep(())
    assert rep0.dim == 1 and rep0.stack.shape == (1, 1, 1)
    rep1 = young_orthogonal_rep((1,))
    rep1.check()


@pytest.mark.parametrize("n", [2, 3])
def test_wreath_irrep_dimensions(n):
    irs = group_irreps(cached_group(f"wreath:{n}"))
    dims = sorted(ir.dim for ir in irs)
    if n == 2:
        assert dims == [1, 1, 1, 1, 2]
    else:
        assert dims == [1, 1, 1, 1, 2, 4, 4, 4, 4]
    assert sum(d * d for d in dims) == WreathGroup(n).order


def _pair_stacks(n):
    """The wreath:n irrep stacks as they were built before wreath_matrices: the
    Kronecker products of every (alpha, beta) pair at once, flip 0 and flip 1
    interleaved.  Kept literally as a reference."""
    parts = partitions(n)
    sym = {lam: young_orthogonal_rep(lam).stack for lam in parts}
    f = len(next(iter(sym.values())))
    stacks = []
    for lab in character_table(cached_group(f"wreath:{n}")).labels:
        if isinstance(lab, DiagonalLabel):
            r = sym[lab.rho]
            d = r.shape[1]
            big = np.einsum("aij,bkl->abikjl", r, r).reshape(f, f, d * d, d * d)
            swap = np.zeros((d * d, d * d))
            for i in range(d):
                for j in range(d):
                    swap[i * d + j, j * d + i] = 1.0
            out = np.empty((2 * f * f, d * d, d * d))
            out[0::2] = big.reshape(f * f, d * d, d * d)
            out[1::2] = (lab.sign * (big @ swap)).reshape(f * f, d * d, d * d)
        else:
            r, s = sym[lab.first], sym[lab.second]
            m = r.shape[1] * s.shape[1]
            krs = np.einsum("aij,bkl->abikjl", r, s).reshape(f, f, m, m)
            blk11 = krs.reshape(f * f, m, m)
            blk22 = krs.transpose(1, 0, 2, 3).reshape(f * f, m, m)
            out = np.zeros((2 * f * f, 2 * m, 2 * m))
            out[0::2, :m, :m] = blk11
            out[0::2, m:, m:] = blk22
            out[1::2, :m, m:] = blk11
            out[1::2, m:, :m] = blk22
        stacks.append(out)
    return stacks


@pytest.mark.parametrize("n", range(5))
def test_wreath_irreps_have_the_bytes_of_the_pair_stacks(n):
    # tobytes, not array_equal: the signs of zeros match too
    irs = group_irreps(cached_group(f"wreath:{n}"))
    want = _pair_stacks(n)
    assert len(irs) == len(want)
    for ir, stack in zip(irs, want):
        assert ir.stack.shape == stack.shape and ir.stack.tobytes() == stack.tobytes()


@pytest.mark.parametrize("n", range(5))
def test_wreath_matrices_rows_have_the_bytes_of_the_full_stacks(n):
    group = cached_group(f"wreath:{n}")
    full = group_irreps(group)
    labels = [ir.label for ir in full]
    pick = np.random.default_rng(n)
    members = [group.index(m) for m in involution_class(group).members] if n else [1]
    element_lists = [
        pick.integers(0, group.order, size=17).tolist(),  # random, with repeats
        [group.order - 1, 0, group.order - 1, group.order // 2, 1],  # unsorted
        [],
        members,
        list(range(group.order)),
    ]
    # every label in order, and a reversed subset: other partitions in the walk
    for picked in (list(range(len(labels))), list(range(len(labels)))[::-2]):
        for elements in element_lists:
            got = wreath_matrices(n, [labels[i] for i in picked], elements)
            assert len(got) == len(picked)
            for i, mats in zip(picked, got):
                d = full[i].dim
                assert mats.shape == (len(elements), d, d)
                assert mats.tobytes() == full[i].stack[elements].tobytes()


def test_wreath_matrices_are_capped_before_any_group():
    with pytest.raises(CapExceededError, match="capped at n <= 4, got n = 5"):
        wreath_matrices(5, [DiagonalLabel((5,), 1)], [0])


@pytest.mark.parametrize("spec,message", [
    ("sym:8", "orthogonal-form matrices are capped at n <= 7, got n = 8"),
    ("wreath:5", "wreath irrep matrices are capped at n <= 4, got n = 5"),
])
def test_every_builder_checks_the_matrix_cap_before_any_class(monkeypatch, spec,
                                                               message):
    def refuse(self):
        raise AssertionError("classes were built before the matrix cap check")

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", refuse)
    group = cached_group(spec)
    for build in (irreps.check_matrix_cap, group_irreps,
                  lambda g: label_matrices(g, [], [0])):
        with pytest.raises(CapExceededError, match=message):
            build(group)


@pytest.mark.parametrize("spec", [*(f"sym:{n}" for n in range(5)),
                                  *(f"wreath:{n}" for n in range(5))])
def test_label_irrep_has_the_bytes_of_group_irreps(spec):
    # one label's irrep built alone by label_matrices, as `sample --strong`
    # builds it, has the bytes of that label's stack among all the labels
    group = cached_group(spec)
    for ir in group_irreps(group):
        one, = label_matrices(group, [ir.label], range(group.order))
        assert one.tobytes() == ir.stack.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wreath_irreps_pass_all_checks(n):
    for ir in group_irreps(cached_group(f"wreath:{n}")):
        ir.check()
        assert ir.dim == label_dim(ir.label)


def test_wreath_label_order_and_strings():
    labels = irrep_labels(cached_group("wreath:2"))
    assert [label_str(l) for l in labels] == [
        "([2],+)",
        "([2],-)",
        "([1,1],+)",
        "([1,1],-)",
        "{[2],[1,1]}",
    ]
    for l in labels:
        assert parse_label(label_str(l)) == l


def test_pair_label_is_unordered():
    assert PairLabel((1, 1), (2,)) == PairLabel((2,), (1, 1))
    with pytest.raises(ValueError):
        PairLabel((2,), (2,))


def test_wreath_character_at_involution_class():
    for n in (2, 3):
        grp = cached_group(f"wreath:{n}")
        m = involution_class(grp).representative
        for lab in irrep_labels(grp):
            chi = wreath_character(lab, m)
            if isinstance(lab, PairLabel):
                assert chi == 0
            else:
                d_rho = dimension(lab.rho)
                assert chi == lab.sign * d_rho
                # Normalized character is +-1/d_rho.
                assert Fraction(chi, label_dim(lab)) == Fraction(lab.sign, d_rho)


def test_character_table_orthogonality_exact():
    for spec in ("sym:4", "wreath:2", "wreath:3"):
        grp = cached_group(spec)
        classes = grp.conjugacy_classes()
        table = character_table(grp)
        rows = table.chi.tolist()
        for a, row_a in enumerate(rows):
            for b, row_b in enumerate(rows):
                total = sum(
                    c.size * x * y
                    for c, x, y in zip(classes, row_a, row_b)
                )
                assert total == (grp.order if a == b else 0)


@pytest.mark.parametrize("spec", ["sym:0", "sym:1", "sym:2", "sym:3", "sym:4",
                                  "sym:5", "wreath:1", "wreath:2", "wreath:3"])
def test_character_table_rows_are_group_irreps_positions(spec):
    grp = cached_group(spec)
    table = character_table(grp)
    assert character_table(grp) is table
    assert irrep_labels(grp) is table.labels
    assert table.dims.dtype.kind == "i" and table.chi.dtype.kind == "i"
    assert table.chi.shape == (len(table.labels), len(grp.conjugacy_classes()))
    assert not table.dims.flags.writeable and not table.chi.flags.writeable
    reps = group_irreps(grp)
    assert len(reps) == len(table.labels)
    for i, rep in enumerate(reps):
        assert rep.label == table.labels[i]
        assert rep.name == table.names[i] == label_str(table.labels[i])
        assert rep.dim == table.dims[i]
        # the matrices carry row i's characters
        traces = rep.traces()[[grp.index(c.representative)
                               for c in grp.conjugacy_classes()]]
        assert np.allclose(traces, table.chi[i], atol=1e-9)
        assert table.position(rep.label) == i
        assert table.position(rep) == i


def test_character_table_wreath4_at_character_level():
    grp = cached_group("wreath:4")
    table = character_table(grp)
    classes = grp.conjugacy_classes()
    sizes = np.array([c.size for c in classes])
    identity = grp.class_position(grp.identity())
    assert table.chi[:, identity].tolist() == table.dims.tolist()
    assert table.dims.tolist() == [label_dim(lab) for lab in table.labels]
    assert table.names == tuple(label_str(lab) for lab in table.labels)
    gram = (table.chi * sizes) @ table.chi.T
    assert np.array_equal(gram, grp.order * np.eye(len(table.labels), dtype=int))
    for i, lab in enumerate(table.labels):
        assert table.chi[i].tolist() == [
            wreath_character(lab, c.representative) for c in classes
        ]


def test_character_table_position_rejects_foreign_labels():
    table = character_table(cached_group("wreath:2"))
    with pytest.raises(KeyError):
        table.position((2,))
    with pytest.raises(KeyError):
        table.position(DiagonalLabel((3,), 1))


def test_plancherel_s3():
    dist = plancherel(cached_group("sym:3"))
    assert dist.exact
    assert dict(dist.outcomes) == {
        "[3]": Fraction(1, 6),
        "[2,1]": Fraction(4, 6),
        "[1,1,1]": Fraction(1, 6),
    }


def test_plancherel_wreath2():
    dist = plancherel(cached_group("wreath:2"))
    masses = sorted(dist.exact_values())
    assert masses == [Fraction(1, 8)] * 4 + [Fraction(1, 2)]
    assert sum(masses) == 1


def test_plancherel_refuses_dimensions_that_do_not_square_sum_to_the_order(monkeypatch):
    grp = cached_group("sym:3")
    table = character_table(grp)
    dims = table.dims.copy()
    dims[0] = 2  # 4 + 4 + 1 != 6
    monkeypatch.setitem(irreps._TABLE_CACHE, grp.spec, irreps.CharacterTable(
        table.labels, table.names, dims, table.chi))
    with pytest.raises(RepresentationDefectError, match="sum to 9, not"):
        plancherel(grp)


def test_plancherel_wreath4_character_only():
    # No matrices needed at n=4 for exact label-level data.
    dist = plancherel(cached_group("wreath:4"))
    assert sum(dist.exact_values()) == 1
    assert len(dist.outcomes) == 20


def test_rep_check_detects_broken_homomorphism():
    rep = young_orthogonal_rep((2, 1))
    broken = rep.stack.copy()
    broken[3] = np.eye(2)
    with pytest.raises(RepresentationDefectError):
        MatrixRep(rep.group, broken, name="broken").check()


def test_rep_check_finds_a_defect_at_any_element():
    # Conjugating one entry by an orthogonal q keeps it orthogonal with the
    # same trace, but breaks the homomorphism at that element only.
    ir = next(ir for ir in group_irreps(cached_group("wreath:4")) if ir.name == "{[3,1],[2,1,1]}")
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((ir.dim, ir.dim)))
    broken = ir.stack.copy()
    broken[281] = q @ broken[281] @ q.T
    assert np.allclose(np.trace(broken[281]), np.trace(ir.stack[281]))
    with pytest.raises(RepresentationDefectError, match="homomorphism defect"):
        MatrixRep(ir.group, broken, name="broken").check()


def test_group_irreps_dispatch():
    assert len(group_irreps(cached_group("sym:4"))) == 5
    assert len(group_irreps(cached_group("wreath:2"))) == 5
