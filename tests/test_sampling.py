import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from cosetlab import cli, oracle, sampling
from cosetlab.errors import (
    CapExceededError,
    GroupMismatchError,
    NonCharacterError,
    RepresentationDefectError,
    ZeroRankError,
)
from cosetlab.groups import cached_group, involution_class, parse_cycles
from cosetlab.irreps import (
    TRACE_INT_TOL,
    CharacterTable,
    character_table,
    group_irreps,
    irrep_labels,
    label_dim,
    label_str,
    plancherel,
)
from cosetlab.rng import CounterRng
from cosetlab.sampling import (
    HiddenSubgroup,
    MeasurementBasis,
    RegisterTuple,
    claim_projector_average,
    doubled_expectation,
    expected_isotypic_dimension,
    interference_moments,
    isotypic_masses,
    member_projectors,
    multiregister_dist,
    projector_sum_bound,
    strong_dist,
    subset_expectation,
    subsets,
    weak_dist,
    weak_dist_tuples,
    weak_rank,
    weak_tuple_law,
)

S3 = cached_group("sym:3")
S4 = cached_group("sym:4")
W2 = cached_group("wreath:2")
W3 = cached_group("wreath:3")
SRC = Path(__file__).resolve().parent.parent / "src"


def transposition_subgroup(group, text="(01)"):
    return HiddenSubgroup(group, parse_cycles(text, group.n))


def swap_subgroup(group):
    return HiddenSubgroup(group, involution_class(group).representative)


# ---------------------------------------------------------------------------
# Hidden subgroup and basis plumbing

def test_hidden_subgroup_rejects_identity():
    with pytest.raises(ValueError):
        HiddenSubgroup(S3, parse_cycles("e", 3))


def test_hidden_subgroup_rejects_non_involution():
    with pytest.raises(ValueError):
        HiddenSubgroup(S3, parse_cycles("(012)", 3))


def test_hidden_subgroup_descriptor():
    assert HiddenSubgroup(S3).descriptor() == "trivial"
    assert HiddenSubgroup(S3).order == 1
    h = transposition_subgroup(S3)
    assert h.order == 2
    assert h.descriptor() == str(h.m)


def test_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        MeasurementBasis(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        MeasurementBasis(np.ones((2, 3)))


def test_basis_product_and_haar():
    rng = CounterRng(7, "basis")
    b1 = MeasurementBasis.haar(2, rng.sub("a"))
    # Haar basis is replayable from the same stream.
    again = MeasurementBasis.haar(2, rng.sub("a"))
    np.testing.assert_array_equal(b1.vectors, again.vectors)


def test_register_tuple_validation():
    reps3 = group_irreps(S3)
    reps4 = group_irreps(S4)
    with pytest.raises(GroupMismatchError):
        RegisterTuple((reps3[1], reps4[1]))
    with pytest.raises(CapExceededError):
        RegisterTuple((reps3[1],) * 3, tensor_cap=7)
    with pytest.raises(KeyError):
        RegisterTuple.from_labels(S3, ["[7]"])
    tup = RegisterTuple.from_labels(S3, ["[2,1]", "[2,1]"])
    assert tup.k == 2 and tup.total_dim == 4
    assert tup.labels == ("[2,1]", "[2,1]")


# ---------------------------------------------------------------------------
# Projectors and ranks

def test_projector_rank_matches_character_rank():
    for group, hidden in [
        (S3, transposition_subgroup(S3)),
        (S4, transposition_subgroup(S4)),
        (S4, transposition_subgroup(S4, "(01)(23)")),
        (W2, swap_subgroup(W2)),
        (W3, swap_subgroup(W3)),
    ]:
        members = [group.index(m) for m in group.class_of(hidden.m).members]
        assert len(members) > 1
        for rep in group_irreps(group):
            rank = weak_rank(group, rep.label, hidden)
            projs = member_projectors(rep.stack[members], rank)
            assert projs.shape == (len(members), rep.dim, rep.dim)
            traces = np.trace(projs, axis1=1, axis2=2)
            np.testing.assert_allclose(traces, rank, rtol=0, atol=TRACE_INT_TOL)


def test_member_projectors_refuse_a_defect_or_a_wrong_rank():
    hidden = swap_subgroup(W3)
    members = [W3.index(m) for m in W3.class_of(hidden.m).members]
    for rep in group_irreps(W3):
        rank = weak_rank(W3, rep.label, hidden)
        member_projectors(rep.stack[members], rank)
        with pytest.raises(RepresentationDefectError, match="trace"):
            member_projectors(rep.stack[members], rank + 1)
        mats = rep.stack[members]
        mats[-1] *= 1.01
        with pytest.raises(RepresentationDefectError, match="idempotent"):
            member_projectors(mats, rank)


def test_standard_sign_rep_rank_zero():
    # Sign representation of S_3 kills the transposition coset projector.
    assert weak_rank(S3, (1, 1, 1), transposition_subgroup(S3)) == 0


# ---------------------------------------------------------------------------
# Weak stage

def test_weak_s3_transposition_exact_values():
    dist = weak_dist(S3, transposition_subgroup(S3))
    assert dist.exact
    assert dist.probability("[3]") == Fraction(1, 3)
    assert dist.probability("[2,1]") == Fraction(2, 3)
    assert dist.probability("[1,1,1]") == 0


def test_weak_trivial_is_plancherel():
    for group in (S3, S4, W2, W3):
        dist = weak_dist(group, HiddenSubgroup(group))
        assert dist.outcomes == plancherel(group).outcomes


def test_weak_sums_to_one_everywhere():
    cases = [
        (S3, transposition_subgroup(S3)),
        (S4, transposition_subgroup(S4, "(01)(23)")),
        (W2, swap_subgroup(W2)),
        (W3, swap_subgroup(W3)),
    ]
    for group, hidden in cases:
        dist = weak_dist(group, hidden)
        assert sum(dist.exact_values()) == 1


def test_weak_wreath_swap_pairs_get_half_dimension_rank():
    hidden = swap_subgroup(W2)
    for lab in irrep_labels(W2):
        rank = weak_rank(W2, lab, hidden)
        if label_str(lab).startswith("{"):
            # chi vanishes on flip classes, so pairs keep exactly half.
            assert 2 * rank == label_dim(lab)


def test_weak_tuples_product_measure(monkeypatch):
    hidden = transposition_subgroup(S3)
    dist = weak_dist_tuples(S3, hidden, 2)
    assert sum(dist.exact_values()) == 1
    single = weak_dist(S3, hidden)
    # Marginal over the second register recovers the one-register weights.
    for lab, p in single.outcomes:
        marg = sum(
            q for lbl, q in dist.outcomes if lbl.startswith("(" + lab + ",")
        )
        assert marg == p
    monkeypatch.setattr(sampling, "TUPLE_CAP", 5)
    with pytest.raises(CapExceededError):
        weak_dist_tuples(S3, hidden, 2)


def _fraction_product_loop(group, hidden, k):
    """The labelled k-register weak law as the Fraction product loop that
    built it before weak_tuple_law, kept literally as a reference."""
    table = character_table(group)
    single = tuple(
        (name, Fraction(d * hidden.order * weak_rank(group, lab, hidden), group.order))
        for lab, name, d in zip(table.labels, table.names, table.dims.tolist())
    )
    outcomes = []
    for combo in itertools.product(single, repeat=k):
        lbl = "(" + ",".join(lab for lab, _ in combo) + ")"
        p = math.prod((p for _, p in combo), start=Fraction(1))
        outcomes.append((lbl, p))
    return tuple(outcomes)


@pytest.mark.parametrize("spec", ["sym:2", "sym:3", "sym:4", "sym:5",
                                  "wreath:2", "wreath:3"])
def test_weak_tuple_law_equals_the_fraction_product_loop(spec):
    group = cached_group(spec)
    involution = (swap_subgroup(group) if spec.startswith("wreath")
                  else transposition_subgroup(group))
    for hidden in (HiddenSubgroup(group), involution):
        for k in (1, 2, 3):
            law = weak_tuple_law(group, hidden, k)
            old = _fraction_product_loop(group, hidden, k)
            assert all(type(w) is int for w in law)
            assert [Fraction(w, group.order ** k) for w in law] == [p for _, p in old]
            assert weak_dist_tuples(group, hidden, k).outcomes == old
            if k == 1:
                assert weak_dist(group, hidden).outcomes == tuple(
                    (lbl[1:-1], p) for lbl, p in old)


def test_weak_tuple_law_checks_group_and_cap_first_and_its_total(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rank was computed before the checks")

    monkeypatch.setattr(sampling, "weak_rank", refuse)
    with pytest.raises(GroupMismatchError):
        weak_tuple_law(W2, swap_subgroup(W3), 1)
    with pytest.raises(CapExceededError, match=r"^9\^6 tuple outcomes exceed cap 100000$"):
        weak_tuple_law(W3, swap_subgroup(W3), 6)
    # ranks of the trivial subgroup under |H| = 2: the law sums to 2^k |G|^k
    monkeypatch.setattr(sampling, "weak_rank", lambda group, lab, hidden: label_dim(lab))
    with pytest.raises(RepresentationDefectError, match="weak law sums to"):
        weak_tuple_law(W3, swap_subgroup(W3), 2)


# ---------------------------------------------------------------------------
# Strong stage

def test_strong_trivial_uniform_every_basis():
    rep = group_irreps(S3)[1]
    for basis in (
        MeasurementBasis.standard(2),
        MeasurementBasis.haar(2, CounterRng(3, "strong")),
    ):
        dist = strong_dist(S3, rep.label, HiddenSubgroup(S3), basis)
        assert dist.exact
        assert all(p == Fraction(1, 2) for p in dist.exact_values())


def test_strong_zero_rank_raises():
    rep = group_irreps(S3)[2]
    assert rep.name == "[1,1,1]"
    with pytest.raises(ZeroRankError):
        strong_dist(S3, rep.label, transposition_subgroup(S3),
                    MeasurementBasis.standard(1))


def test_strong_standard_rep_pinned_values():
    rep = group_irreps(S3)[1]
    dist = strong_dist(S3, rep.label, transposition_subgroup(S3),
                       MeasurementBasis.standard(2))
    # Pi for (01) is diag(1, 0) in the orthogonal model, rank 1.
    assert dist.probability("b0") == pytest.approx(1.0, abs=1e-12)
    assert dist.probability("b1") == pytest.approx(0.0, abs=1e-12)


def test_strong_matches_rebuilt_matrices():
    rng = CounterRng(11, "strong-check")
    for group, hidden in [(S4, transposition_subgroup(S4)), (W2, swap_subgroup(W2))]:
        for rep in group_irreps(group):
            rank = weak_rank(group, rep.label, hidden)
            if rank == 0:
                continue
            basis = MeasurementBasis.haar(rep.dim, rng.sub(group.spec, rep.name))
            dist = strong_dist(group, rep.label, hidden, basis)
            proj = 0.5 * (np.eye(rep.dim) + oracle.rebuilt_matrix(rep, hidden.m))
            for j in range(rep.dim):
                mass = np.linalg.norm(proj @ basis.column(j)) ** 2
                assert dist.probability(f"b{j}") == pytest.approx(
                    mass / rank, abs=1e-9
                )


# ---------------------------------------------------------------------------
# Multiregister stage

def test_multiregister_trivial_uniform():
    tup = RegisterTuple.from_labels(S3, ["[2,1]", "[2,1]"])
    dist = multiregister_dist(tup, HiddenSubgroup(S3), MeasurementBasis.standard(4))
    assert dist.exact
    assert all(p == Fraction(1, 4) for p in dist.exact_values())


def test_multiregister_zero_rank_names_register():
    tup = RegisterTuple.from_labels(S3, ["[2,1]", "[1,1,1]"])
    with pytest.raises(ZeroRankError) as info:
        multiregister_dist(
            tup, transposition_subgroup(S3), MeasurementBasis.standard(2)
        )
    assert "[1,1,1]" in str(info.value)


def test_multiregister_matches_kron_oracle():
    rng = CounterRng(5, "multi-check")
    cases = [
        (S3, ["[2,1]", "[2,1]"], transposition_subgroup(S3)),
        (W2, ["{[2],[1,1]}", "([2],+)"], swap_subgroup(W2)),
    ]
    for group, labels, hidden in cases:
        tup = RegisterTuple.from_labels(group, labels)
        basis = MeasurementBasis.haar(tup.total_dim, rng.sub(group.spec))
        dist = multiregister_dist(tup, hidden, basis)
        mats = [
            0.5 * (np.eye(rep.dim) + oracle.rebuilt_matrix(rep, hidden.m))
            for rep in tup.irreps
        ]
        full = mats[0]
        for mat in mats[1:]:
            full = np.kron(full, mat)
        rank = round(np.real(full.trace()))
        for j in range(tup.total_dim):
            mass = np.linalg.norm(full @ basis.column(j)) ** 2
            assert dist.probability(f"b{j}") == pytest.approx(mass / rank, abs=1e-9)


def test_multiregister_k1_equals_strong():
    hidden = transposition_subgroup(S4)
    rep = group_irreps(S4)[1]
    basis = MeasurementBasis.haar(rep.dim, CounterRng(2, "k1"))
    tup = RegisterTuple((rep,))
    a = strong_dist(S4, rep.label, hidden, basis)
    b = multiregister_dist(tup, hidden, basis)
    assert np.array_equal(a.values(), b.values())


def test_projected_masses_match_oracle_per_member():
    """The batched kernel over every m in M, as exact enumeration calls it,
    against the oracle's per-member Kronecker projectors."""
    rng = CounterRng(7, "projected-masses")
    by_name = {r.name: r for r in group_irreps(W3)}
    zero_rank = [by_name["([3],-)"], by_name["([2,1],-)"], by_name["([2,1],-)"]]
    cases = [
        (S3, S3.class_of(parse_cycles("(01)", 3)), []),
        (W2, involution_class(W2), []),
        (W3, involution_class(W3), [zero_rank]),
    ]
    for group, M, fixed in cases:
        reps = group_irreps(group)
        hidden = HiddenSubgroup(group, M.representative)
        members = [group.index(m) for m in M.members]
        tuples = fixed + [
            [reps[rng.index(4 * t + i, len(reps))] for i in range(1 + t % 3)]
            for t in range(6)
        ]
        for t, tup in enumerate(tuples):
            D = int(np.prod([r.dim for r in tup]))
            basis = rng.sub(group.spec, t).haar_basis(D)
            masses = sampling.projected_masses(
                [member_projectors(r.stack[members], weak_rank(group, r.label, hidden))
                 for r in tup], basis
            )
            assert masses.shape == (M.size, D)
            for j in range(D):
                want = oracle.brute_projected_masses(tup, basis[:, j], M)
                np.testing.assert_allclose(masses[:, j], want, rtol=0, atol=1e-12)
            if tup is zero_rank:
                assert np.all(masses == 0.0)


# ---------------------------------------------------------------------------
# Interference functionals

def test_subsets_enumeration():
    assert subsets(2) == [(), (0,), (1,), (0, 1)]
    assert subsets(2, nonempty=True) == [(0,), (1,), (0, 1)]
    with pytest.raises(ValueError):
        subsets(-1)


def test_subset_expectation_pinned_standard_rep():
    rep = group_irreps(S3)[1]
    tup = RegisterTuple((rep, rep))
    M = S3.class_of(parse_cycles("(01)", 3))
    b = np.zeros(4, dtype=complex)
    b[0] = 1.0
    # Averaged (0,0) entry over the three transpositions is zero, and the
    # doubled entry squares to (1 + 1/4 + 1/4)/3 = 1/2.
    assert subset_expectation(tup, b, (0,), M) == pytest.approx(0.0, abs=1e-12)
    assert subset_expectation(tup, b, (1,), M) == pytest.approx(0.0, abs=1e-12)
    assert subset_expectation(tup, b, (0, 1), M) == pytest.approx(0.5, abs=1e-12)


def test_subset_expectation_matches_brute():
    rng = CounterRng(13, "subset")
    cases = [
        (S3, ["[2,1]", "[2,1]"], S3.class_of(parse_cycles("(01)", 3))),
        (W2, ["([2],-)", "{[2],[1,1]}"], involution_class(W2)),
    ]
    for group, labels, M in cases:
        tup = RegisterTuple.from_labels(group, labels)
        b = rng.sub(group.spec).unit_vector(tup.total_dim)
        for sub in subsets(tup.k, nonempty=True):
            spectral = subset_expectation(tup, b, sub, M)
            brute = oracle.brute_subset_overlap(tup.irreps, b, sub, M)
            assert abs(brute.imag) < 1e-9
            assert spectral == pytest.approx(brute.real, abs=1e-9)


@pytest.mark.parametrize("spec", ["wreath:2", "wreath:3", "sym:4"])
def test_per_element_overlap_fallback_matches_the_dense_path(monkeypatch, spec):
    group = cached_group(spec)
    M = (involution_class(group) if spec.startswith("wreath")
         else group.class_of(parse_cycles("(01)", 4)))
    largest = sorted(group_irreps(group), key=lambda rep: -rep.dim)
    cases = []
    for k in (1, 2, 3):
        regs = RegisterTuple(tuple(largest[:k]))
        b = CounterRng(5, "fallback", spec, k).unit_vector(regs.total_dim)
        cases += [(regs, b, subsets(k), isotypic_masses(regs, subsets(k), b))]

    def refuse(*args):
        raise AssertionError("the dense subset stack was built")

    monkeypatch.setattr(sampling, "_DENSE_LIMIT", 0)
    monkeypatch.setattr(sampling, "_span_stack", refuse)
    for regs, b, subs, dense in cases:
        assert np.max(np.abs(isotypic_masses(regs, subs, b) - dense)) <= 1e-12
        for sub in subs:
            got = subset_expectation(regs, b, sub, M)
            assert abs(got - oracle.brute_subset_overlap(regs.irreps, b, sub, M)) <= 1e-9


def test_doubled_expectation_matches_brute():
    rng = CounterRng(17, "doubled")
    cases = [
        (S3, ["[2,1]", "[2,1]"], S3.class_of(parse_cycles("(01)", 3))),
        (W2, ["([1,1],-)", "{[2],[1,1]}"], involution_class(W2)),
    ]
    for group, labels, M in cases:
        tup = RegisterTuple.from_labels(group, labels)
        b = rng.sub(group.spec).unit_vector(tup.total_dim)
        for s1 in subsets(tup.k):
            for s2 in subsets(tup.k):
                spectral = doubled_expectation(tup, b, s1, s2, M)
                brute = oracle.brute_doubled_overlap(tup.irreps, b, s1, s2, M)
                assert abs(brute.imag) < 1e-9
                assert spectral == pytest.approx(brute.real, abs=1e-9)


def test_doubled_empty_pair_is_norm_fourth():
    tup = RegisterTuple.from_labels(S3, ["[2,1]"])
    b = CounterRng(19).unit_vector(2)
    M = S3.class_of(parse_cycles("(01)", 3))
    assert doubled_expectation(tup, b, (), (), M) == pytest.approx(1.0, abs=1e-12)


def _assert_moments_match_brute(mom, registers, b, M):
    """The spectral moments against brute enumeration of M, at 1e-9: the
    mean, the variance, and the bound not below the brute variance."""
    mean, var = oracle.brute_multiregister_moments(registers.irreps, b, M)
    assert abs(mom.expectation - mean) <= 1e-9
    assert abs(mom.variance - var) <= 1e-9
    assert mom.variance_bound >= var - 1e-9
    return mean, var


def test_interference_moments_pinned():
    rep = group_irreps(S3)[1]
    tup = RegisterTuple((rep, rep))
    M = S3.class_of(parse_cycles("(01)", 3))
    b = np.zeros(4, dtype=complex)
    b[0] = 1.0
    mom = interference_moments(tup, b, M)
    assert mom.expectation == pytest.approx(3 / 8, abs=1e-12)
    assert mom.variance == pytest.approx(25 / 128, abs=1e-12)
    assert mom.variance_bound >= mom.variance
    mean, _ = _assert_moments_match_brute(mom, tup, b, M)
    assert mean == pytest.approx(3 / 8, abs=1e-12)


def test_interference_moments_random_vectors_verified():
    rng = CounterRng(23, "moments")
    cases = [
        (S3, ["[2,1]", "[2,1]", "[2,1]"], S3.class_of(parse_cycles("(01)", 3))),
        (W2, ["{[2],[1,1]}", "([2],-)"], involution_class(W2)),
        (W3, ["{[3],[2,1]}", "([2,1],+)"], involution_class(W3)),
    ]
    for group, labels, M in cases:
        tup = RegisterTuple.from_labels(group, labels)
        for t in range(3):
            b = rng.sub(group.spec, t).unit_vector(tup.total_dim)
            mom = interference_moments(tup, b, M)
            assert mom.variance >= -1e-12
            assert mom.variance_bound >= mom.variance - 1e-12
            _assert_moments_match_brute(mom, tup, b, M)


def test_trivial_register_moments_are_degenerate():
    tup = RegisterTuple.from_labels(S3, ["[3]", "[3]"])
    M = S3.class_of(parse_cycles("(01)", 3))
    b = np.array([1.0 + 0j])
    mom = interference_moments(tup, b, M)
    assert mom.expectation == pytest.approx(1.0, abs=1e-12)
    assert mom.variance == pytest.approx(0.0, abs=1e-12)
    _assert_moments_match_brute(mom, tup, b, M)


def test_multiregister_expectation_verifies_against_oracle():
    tup = RegisterTuple.from_labels(W2, ["([2],-)", "([1,1],+)"])
    b = CounterRng(29).unit_vector(tup.total_dim)
    M = involution_class(W2)
    _assert_moments_match_brute(interference_moments(tup, b, M), tup, b, M)


def test_class_must_be_involutions():
    tup = RegisterTuple.from_labels(S3, ["[2,1]"])
    b = np.zeros(2, dtype=complex)
    b[0] = 1.0
    with pytest.raises(ValueError):
        subset_expectation(tup, b, (0,), S3.class_of(parse_cycles("(012)", 3)))
    with pytest.raises(GroupMismatchError):
        subset_expectation(tup, b, (0,), involution_class(W2))


# ---------------------------------------------------------------------------
# Second-moment inequalities

def test_claim_projector_average_irreducible_is_tight():
    for group in (S3, S4, W2):
        for rep in group_irreps(group):
            b = CounterRng(31, group.spec, rep.name).unit_vector(rep.dim)
            lhs, rhs = claim_projector_average(rep, b)
            assert lhs == pytest.approx(1 / rep.dim, abs=1e-9)
            assert rhs == pytest.approx(1 / rep.dim, abs=1e-9)


def test_claim_projector_average_tensor_rep():
    from cosetlab.irreps import MatrixRep

    rep = group_irreps(S3)[1]
    stack = np.einsum("gij,gkl->gikjl", rep.stack, rep.stack).reshape(6, 4, 4)
    tensor = MatrixRep(S3, stack, name="[2,1]x[2,1]")
    for t in range(4):
        b = CounterRng(37, t).unit_vector(4)
        lhs, rhs = claim_projector_average(tensor, b)
        assert lhs <= rhs + 1e-9


def test_projector_sum_bound_holds():
    rng = CounterRng(41, "psb")
    cases = [
        (S3, ["[2,1]"], 1),
        (S3, ["[2,1]", "[2,1]"], 2),
        (W2, ["{[2],[1,1]}", "([1,1],-)"], 2),
    ]
    for group, labels, _ in cases:
        tup = RegisterTuple.from_labels(group, labels)
        b = rng.sub(group.spec, len(labels)).unit_vector(tup.total_dim)
        for sigma in irrep_labels(group):
            lhs, rhs = projector_sum_bound(tup, sigma, b)
            assert lhs <= rhs + 1e-9


def test_projector_sum_bound_needs_empty_subsets():
    # Restricting the right side to nonempty subsets breaks on the trivial
    # component already at k = 1: the identity-pair term contributes a full
    # ||b||^4 to the left side that only the empty subset can pay for.
    tup = RegisterTuple.from_labels(S3, ["[2,1]"])
    b = np.zeros(2, dtype=complex)
    b[0] = 1.0
    lhs, rhs = projector_sum_bound(tup, (3,), b)
    assert lhs <= rhs + 1e-12
    (masses,) = sampling.isotypic_masses(tup, [(0,)], b)
    nonempty_rhs = 2 * sum(
        m / label_dim(t) for m, t in zip(masses, irrep_labels(S3))
    )
    assert lhs > nonempty_rhs + 0.4


def test_expected_isotypic_dimension_identity():
    for group in (S3, W2):
        for k in (1, 2):
            for sub in subsets(k, nonempty=True):
                for sigma in irrep_labels(group):
                    val = expected_isotypic_dimension(sigma, sub, k, group)
                    assert val == Fraction(label_dim(sigma) ** 2, group.order)


def test_expected_isotypic_dimension_guards(monkeypatch):
    with pytest.raises(ValueError):
        expected_isotypic_dimension((3,), (), 2, S3)
    with pytest.raises(ValueError):
        expected_isotypic_dimension((3,), (5,), 2, S3)
    monkeypatch.setattr(sampling, "TUPLE_CAP", 3)
    with pytest.raises(CapExceededError):
        expected_isotypic_dimension((3,), (0,), 2, S3)


# ---------------------------------------------------------------------------
# The element-chunked doubled grid against the four-operand einsum, pair by pair

def _four_operand_masses(regs, first, second, b):
    """Per-element doubled overlaps and the isotypic masses from them, with
    both subset stacks and one einsum per (first, second) pair."""
    w = np.outer(b, b.conj())
    stacks = [rep.stack for rep in regs.irreps]
    s1 = sampling._span_stack(stacks, first, 0, regs.k)
    s2 = sampling._span_stack(stacks, second, 0, regs.k)
    per = np.einsum("gik,kl,gjl,ij->g", s1, w, s2.conj(), w.conj(), optimize=True)
    return per, sampling._class_masses(regs.group, per)


def _random_registers(group, k, stream):
    reps = group_irreps(group)
    rng = CounterRng(53, "doubled-rows", group.spec, k, stream)
    regs = RegisterTuple(tuple(reps[rng.index(i, len(reps))] for i in range(k)))
    return regs, rng.sub("vec").unit_vector(regs.total_dim)


# sym:4 and wreath:2 at k = 4 add middle subsets such as (1,) and (1, 2),
# non-contiguous ones such as (0, 2), (1, 3) and (0, 3), and D = 1 tuples
DOUBLED_CASES = [(g, k, stream) for g in (W2, W3, S4) for k in (1, 2, 3)
                 for stream in range(3)] + [(W2, 4, stream) for stream in range(3)]


def _assert_grid_has_the_pinned_bits(monkeypatch, regs, b):
    """The whole subset grid in one call: each entry's per-element values and
    masses equal the four-operand einsum's with np.array_equal."""
    all_subs = subsets(regs.k)
    seen = []
    class_masses = sampling._class_masses
    monkeypatch.setattr(sampling, "_class_masses",
                        lambda grp, per: seen.append(per) or class_masses(grp, per))
    grid = sampling.doubled_isotypic_masses(regs, all_subs, all_subs, b)
    monkeypatch.setattr(sampling, "_class_masses", class_masses)
    assert grid.shape == (len(all_subs), len(all_subs), len(group_irreps(regs.group)))
    pairs = [(s1, s2) for s1 in all_subs for s2 in all_subs]
    (per_grid,) = seen
    for (s1, s2), per, row in zip(pairs, per_grid.reshape(len(pairs), -1),
                                  grid.reshape(len(pairs), -1), strict=True):
        want_per, want_row = _four_operand_masses(regs, s1, s2, b)
        assert np.array_equal(per, want_per), (s1, s2)
        assert np.array_equal(row, want_row), (s1, s2)


@pytest.mark.parametrize("group,k,stream", DOUBLED_CASES)
def test_doubled_rows_have_the_bits_of_the_four_operand_einsum(
        monkeypatch, group, k, stream):
    _assert_grid_has_the_pinned_bits(monkeypatch, *_random_registers(group, k, stream))


# chunks of 1 element (each a one-row contraction), of 5 (a ragged last
# chunk of 3, 4 or 2 elements at |G| = 8, 24 or 72) and of the whole group
@pytest.mark.parametrize("elements", [1, 5, None])
@pytest.mark.parametrize("group,k,stream",
                         [(g, k, 0) for g in (W2, W3, S4) for k in (1, 2, 3)])
def test_doubled_grid_keeps_its_bits_at_every_chunk_size(
        monkeypatch, group, k, stream, elements):
    regs, b = _random_registers(group, k, stream)
    count = group.order if elements is None else elements
    monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", count * regs.total_dim ** 2)
    _assert_grid_has_the_pinned_bits(monkeypatch, regs, b)


def _one_subset_masses(regs, subset, b):
    """The isotypic masses of one subset on its own: the dense einsum over
    the subset's stack, class buckets by np.add.at, one dot product per
    character row."""
    stack = sampling._span_stack([rep.stack for rep in regs.irreps], subset, 0, regs.k)
    per = np.einsum("i,gij,j->g", b.conj(), stack, b)
    group = regs.group
    buckets = np.zeros(len(group.conjugacy_classes()), dtype=np.complex128)
    np.add.at(buckets, group.class_indices(), per)
    table = character_table(group)
    chi = table.chi.astype(np.float64)
    scale = table.dims / group.order
    return np.array([complex(scale[i] * np.dot(chi[i], buckets)).real
                     for i in range(len(chi))])


@pytest.mark.parametrize("group,k,stream", DOUBLED_CASES)
def test_batched_isotypic_rows_have_the_bits_of_one_subset_calls(monkeypatch, group, k, stream):
    # the default element chunks, then budgets of 1 element (wide_slices
    # makes chunks of two) and of 2, 5, 7 and 23 elements: a ragged last
    # chunk, with a one-element remainder folded into it at 8 % 7 and 24 % 23
    regs, b = _random_registers(group, k, stream)
    all_subs = subsets(k)
    want = [_one_subset_masses(regs, sub, b) for sub in all_subs]
    D = regs.total_dim
    for step in (None, 1, 2, 5, 7, 23):
        if step:
            monkeypatch.setattr(sampling, "_DENSE_CHUNK_ENTRIES", step * D * D)
        masses = isotypic_masses(regs, all_subs, b)
        assert masses.shape == (len(all_subs), len(group_irreps(group)))
        for sub, row, want_row in zip(all_subs, masses, want, strict=True):
            assert np.array_equal(row, want_row), (step, sub)


def test_class_masses_refuse_an_imaginary_mass():
    # constant values c give the trivial irrep the mass c and the others 0
    with pytest.raises(RepresentationDefectError, match="imaginary part 1.000e"):
        sampling._class_masses(S3, 1j * np.ones(S3.order))
    with pytest.raises(RepresentationDefectError, match="imaginary part"):
        sampling._class_masses(S3, np.ones((2, 3, S3.order)) + 2j * sampling.EPS)
    masses = sampling._class_masses(S3, np.ones((2, 3, S3.order)) + 0.5j * sampling.EPS)
    assert np.array_equal(masses, np.broadcast_to([1.0, 0.0, 0.0], (2, 3, 3)))


@pytest.mark.parametrize("group,k,stream", DOUBLED_CASES)
def test_moments_and_projector_sum_equal_their_per_pair_sums(group, k, stream):
    regs, b = _random_registers(group, k, stream)
    M = (involution_class(group) if group is not S4
         else group.class_of(parse_cycles("(01)", 4)))
    ratios = sampling.normalized_characters(group, M)
    masses = {(s1, s2): _four_operand_masses(regs, s1, s2, b)[1]
              for s1 in subsets(k) for s2 in subsets(k)}
    nonempty = subsets(k, nonempty=True)
    want = {
        (s1, s2): float(sum(float(c) * m for c, m in
                            zip(ratios, masses[s1, s2].tolist()) if c))
        for s1 in nonempty for s2 in nonempty
    }
    got = interference_moments(regs, b, M).doubled_terms
    assert list(got) == list(want)
    assert got == want
    labels = irrep_labels(group)
    i = stream * 2 % len(labels)
    lhs = 0.0
    for row in masses.values():
        lhs += row[i]
    assert projector_sum_bound(regs, labels[i], b)[0] == float(lhs)


def test_doubled_cap_is_checked_before_any_stack(monkeypatch):
    def refuse(*_):
        raise AssertionError("a subset stack was built")

    monkeypatch.setattr(sampling, "_span_stack", refuse)
    regs = RegisterTuple.from_labels(W3, ["{[3],[2,1]}", "{[3],[2,1]}"], tensor_cap=100)
    b = CounterRng(59).unit_vector(regs.total_dim)
    with pytest.raises(CapExceededError):
        sampling.doubled_isotypic_masses(regs, [(0,)], [(0,), (1,)], b)
    with pytest.raises(CapExceededError):
        doubled_expectation(regs, b, (0,), (1,), involution_class(W3))


def test_doubled_kernel_peaks_no_higher_than_the_dense_stacks():
    # the whole 8 x 8 grid at D = 64 peaks at 1.83 MB measured this way; the
    # dense-stack kernel peaked at 16.7 MB for one row of 8
    regs = RegisterTuple.from_labels(W3, ["{[3],[2,1]}"] * 3)
    b = CounterRng(61).unit_vector(regs.total_dim)
    sampling.doubled_isotypic_masses(regs, [()], [()], b)  # fills the group's caches
    tracemalloc.start()
    try:
        sampling.doubled_isotypic_masses(regs, subsets(3), subsets(3), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2e6, peak


_DOUBLED_THREAD_PROBE = """
import hashlib, sys
from cosetlab.cli import main
from cosetlab.groups import cached_group
from cosetlab.rng import CounterRng
from cosetlab.sampling import (RegisterTuple, doubled_isotypic_masses,
                               isotypic_masses, subsets)
regs = RegisterTuple.from_labels(cached_group("wreath:3"), ["{[3],[2,1]}"] * 3)
b = CounterRng(67).unit_vector(64)
grid = doubled_isotypic_masses(regs, subsets(3), subsets(3), b)
print(hashlib.sha256(grid.tobytes()).hexdigest())
print(hashlib.sha256(isotypic_masses(regs, subsets(3), b).tobytes()).hexdigest())
sys.exit(main(["verify", "--lemma", "multiregister", "--group", "wreath:3",
               "--k", "3", "--trials", "3", "--seed", "0"]))
"""


def test_verify_bits_do_not_depend_on_the_blas_thread_count():
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _DOUBLED_THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert '"all_pass": true' in outs[0]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# The integer decomposition sum against a tuple-by-tuple loop

def _tuple_loop_isotypic_dimension(sigma, sub, k, group):
    """sum over label tuples of P(tuple) * mult(sigma) * d_sigma / d_tuple,
    one itertools tuple at a time."""
    table = sampling.character_table(group)
    pos = table.position(sigma)
    dims = table.dims.tolist()
    chi = table.chi.tolist()
    d_sigma = dims[pos]
    weights = [c.size * x for c, x in zip(group.conjugacy_classes(), chi[pos])]
    numerator = 0
    for tup in itertools.product(range(len(dims)), repeat=k):
        reg_dims = [dims[j] for j in tup]
        outside = math.prod(reg_dims[i] for i in range(k) if i not in sub)
        inner = outside * sum(
            w * math.prod(chi[tup[i]][c] for i in sub) for c, w in enumerate(weights)
        )
        mult, rem = divmod(inner, group.order)
        if rem or mult < 0:
            raise NonCharacterError(
                f"multiplicity {Fraction(inner, group.order)} of "
                f"{table.names[pos]} is not a nonnegative integer"
            )
        numerator += math.prod(reg_dims) * mult * d_sigma
    return Fraction(numerator, group.order ** k)


@pytest.mark.parametrize("spec", ["sym:2", "sym:3", "sym:4", "sym:5",
                                  "wreath:2", "wreath:3"])
def test_expected_isotypic_dimension_equals_the_tuple_loop(spec):
    group = cached_group(spec)
    for k in (1, 2, 3):
        for sub in subsets(k, nonempty=True):
            for sigma in irrep_labels(group):
                got = expected_isotypic_dimension(sigma, sub, k, group)
                assert got == _tuple_loop_isotypic_dimension(sigma, sub, k, group)


def _patched_table(monkeypatch, group, dims=None, chi=None):
    table = sampling.character_table(group)
    bad = CharacterTable(table.labels, table.names,
                         table.dims if dims is None else dims,
                         table.chi if chi is None else chi)
    monkeypatch.setattr(sampling, "character_table",
                        lambda g: bad if g.spec == group.spec else table)


def test_expected_isotypic_dimension_refuses_a_corrupted_character_row(monkeypatch):
    chi = sampling.character_table(S3).chi.copy()
    chi[0, 2] += 1  # row [3], class of 3-cycles, where chi_[2,1] is -1
    _patched_table(monkeypatch, S3, chi=chi)
    sigma = irrep_labels(S3)[1]
    with pytest.raises(NonCharacterError, match=re.escape(label_str(sigma))) as got:
        expected_isotypic_dimension(sigma, (0, 1), 2, S3)
    with pytest.raises(NonCharacterError) as want:
        _tuple_loop_isotypic_dimension(sigma, (0, 1), 2, S3)
    assert str(got.value) == str(want.value)


def test_expected_isotypic_dimension_returns_a_wrong_total_for_verify_to_fail(
        monkeypatch, capsys):
    # Doubling one dimension keeps every multiplicity an integer at
    # I = (0,), k = 2, but the dimensions no longer square-sum to |G|.  The
    # formula returns the total it computes; verify judges it.
    dims = sampling.character_table(S3).dims.copy()
    dims[2] *= 2
    _patched_table(monkeypatch, S3, dims=dims)
    assert expected_isotypic_dimension(irrep_labels(S3)[0], (0,), 2, S3) == Fraction(1, 4)
    code = cli.main(["verify", "--lemma", "expected-decomp", "--group", "sym:3",
                     "--k", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = {r["name"]: r for r in report["results"] if not r["pass"]}
    wrong = failed["expected-decomp sym:3 k=2 sigma=[3] I=(0,)"]
    assert (wrong["formula"], wrong["oracle"]) == ("1/6", "1/4")
    assert report["fail_count"] == len(failed)


def test_expected_isotypic_dimension_refuses_int64_overflow(monkeypatch):
    chi = sampling.character_table(S3).chi * 2 ** 40
    _patched_table(monkeypatch, S3, chi=chi)
    with pytest.raises(CapExceededError, match="overflow"):
        expected_isotypic_dimension(irrep_labels(S3)[1], (0,), 2, S3)


# ---------------------------------------------------------------------------
# Property test: spectral sums over the positional character table against
# brute force over the class members

@functools.lru_cache(maxsize=None)
def _irreps_and_involution_classes(spec):
    group = cached_group(spec)
    e = group.identity()
    classes = tuple(
        c for c in group.conjugacy_classes()
        if c.representative != e and c.representative * c.representative == e
    )
    return group_irreps(group), classes


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_spectral_expectations_match_brute_force(data):
    spec = data.draw(st.sampled_from(["sym:3", "sym:4", "wreath:2", "wreath:3"]))
    reps, classes = _irreps_and_involution_classes(spec)
    M = data.draw(st.sampled_from(classes))
    k = data.draw(st.integers(1, 2))
    picks = data.draw(st.lists(st.integers(0, len(reps) - 1), min_size=k, max_size=k))
    regs = RegisterTuple(tuple(reps[i] for i in picks))
    b = CounterRng(data.draw(st.integers(0, 2 ** 32 - 1)), "prop").unit_vector(
        regs.total_dim
    )
    some_subset = st.sets(st.integers(0, k - 1)).map(lambda s: tuple(sorted(s)))
    subset = data.draw(some_subset)
    got = subset_expectation(regs, b, subset, M)
    assert abs(got - oracle.brute_subset_overlap(regs.irreps, b, subset, M)) <= 1e-9
    first, second = data.draw(some_subset), data.draw(some_subset)
    got = doubled_expectation(regs, b, first, second, M)
    want = oracle.brute_doubled_overlap(regs.irreps, b, first, second, M)
    assert abs(got - want) <= 1e-9
