from fractions import Fraction

import numpy as np
import pytest

from cosetlab.distributions import SamplingDistribution
from cosetlab.errors import CapExceededError, GroupMismatchError, OutcomeMismatchError
from cosetlab.groups import WreathElement, cached_group, parse_cycles
from cosetlab.irreps import (
    class_character,
    character_table,
    wreath_irreps,
    young_orthogonal_rep,
)
from cosetlab.oracle import (
    brute_expectation_overlap,
    brute_induced_rep,
    brute_multiregister_moments,
    brute_second_moment,
    equality_result,
    exact_result,
    exact_tv,
    generator_word,
    inequality_result,
    rebuilt_matrix,
    transposition_word,
)
from cosetlab.rng import CounterRng
from cosetlab.tableaux import partitions


def transposition_class(n):
    grp = cached_group(f"sym:{n}")
    return grp.class_of(parse_cycles("(01)", n))


def test_transposition_word_reconstructs_elements():
    for spec in ("sym:0", "sym:4", "wreath:0", "wreath:1", "wreath:3"):
        grp = cached_group(spec)
        gens = grp.generators()
        for g in grp.elements:
            word = generator_word(g)
            if spec.startswith("sym"):
                assert word == transposition_word(g)
            acc = grp.identity()
            for i in word:
                acc = acc * gens[i]
            assert acc == g


def test_rebuilt_matrix_matches_stack_sym():
    rep = young_orthogonal_rep((2, 1))
    for g in rep.group.elements:
        assert np.allclose(rebuilt_matrix(rep, g), rep.matrix(g), atol=1e-12)


def test_rebuilt_matrix_matches_stack_wreath():
    for ir in wreath_irreps(2):
        for g in ir.group.elements:
            assert np.allclose(rebuilt_matrix(ir, g), ir.matrix(g), atol=1e-12)


def test_rebuilt_matrix_rejects_an_element_of_another_group():
    rep = young_orthogonal_rep((2, 1))
    with pytest.raises(GroupMismatchError):
        rebuilt_matrix(rep, parse_cycles("(01)", 4))
    with pytest.raises(GroupMismatchError):
        rebuilt_matrix(wreath_irreps(3)[0], WreathElement.swap(2))


def test_overlap_trivial_rep_is_one():
    rep = young_orthogonal_rep((3,))
    M = transposition_class(3)
    b = np.array([1.0 + 0j])
    assert abs(brute_expectation_overlap(rep, b, M) - 1.0) < 1e-12


def test_overlap_irreducible_is_normalized_character():
    # Exp_m <b, m b> = chi(M)/d * ||b||^2 for any unit b.
    M = transposition_class(4)
    table = character_table(M.group)
    ci = [i for i, c in enumerate(M.group.conjugacy_classes()) if c is M][0]
    for lam in partitions(4):
        rep = young_orthogonal_rep(lam)
        b = CounterRng(5, "overlap", str(lam)).unit_vector(rep.dim)
        want = table.chi[table.position(lam), ci] / rep.dim
        got = brute_expectation_overlap(rep, b, M)
        assert abs(got - want) < 1e-9


def test_second_moment_standard_basis_vector():
    # [2,1] of S_3 at the transposition class, b = e_0: the three overlaps
    # are 1, -1/2, -1/2, so the squared average is exactly 1/2.
    rep = young_orthogonal_rep((2, 1))
    M = transposition_class(3)
    b = np.array([1.0, 0.0], dtype=complex)
    assert abs(brute_second_moment(rep, b, M) - 0.5) < 1e-12


def test_multiregister_moments_trivial_registers():
    rep = young_orthogonal_rep((3,))
    M = transposition_class(3)
    b = np.array([1.0 + 0j])
    mean, var = brute_multiregister_moments([rep, rep], b, M)
    assert abs(mean - 1.0) < 1e-12 and abs(var) < 1e-24


def test_multiregister_single_register_matches_direct_projector():
    rep = young_orthogonal_rep((2, 1))
    M = transposition_class(3)
    b = CounterRng(8).unit_vector(2)
    mean, var = brute_multiregister_moments([rep], b, M)
    masses = []
    for m in M.members:
        proj = 0.5 * (np.eye(2) + rep.matrix(m))
        masses.append(float(np.linalg.norm(proj @ b) ** 2))
    assert abs(mean - np.mean(masses)) < 1e-12
    assert abs(var - np.var(masses)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_induced_rep_is_a_representation(n):
    parts = partitions(n)
    rep = brute_induced_rep(n, parts[0], parts[1])
    rep.check()
    assert rep.dim == 2 * 1 * len_dim(parts[1])


def len_dim(lam):
    from cosetlab.tableaux import dimension

    return dimension(lam)


def _literal_induced_stack(n, rho, sigma):
    """brute_induced_rep's stack with every coset product formed for this
    (rho, sigma), as the oracle did before it cached them per n."""
    grp = cached_group(f"wreath:{n}")
    rep_r, rep_s = young_orthogonal_rep(rho), young_orthogonal_rep(sigma)
    reps = [grp.identity(), grp.swap_element()]
    m = rep_r.dim * rep_s.dim
    stack = np.zeros((grp.order, 2 * m, 2 * m))
    for gi, g in enumerate(grp.elements):
        for i, ri in enumerate(reps):
            for j, rj in enumerate(reps):
                h = ri.inverse() * g * rj
                if h.flip == 0:
                    stack[gi, i * m:(i + 1) * m, j * m:(j + 1) * m] = np.kron(
                        rep_r.matrix(h.alpha), rep_s.matrix(h.beta))
    return stack


@pytest.mark.parametrize("n", [2, 3])
def test_cached_coset_products_give_the_literal_induced_stacks(n):
    for rho in partitions(n):
        for sigma in partitions(n):
            got = brute_induced_rep(n, rho, sigma).stack
            assert np.array_equal(got, _literal_induced_stack(n, rho, sigma))


def test_induced_rep_cap():
    with pytest.raises(CapExceededError):
        brute_induced_rep(4, (4,), (3, 1))


def test_induced_character_inner_products():
    # <chi, chi> = 2 when rho == sigma (reducible), 1 otherwise.
    grp = cached_group("wreath:2")
    ind_diff = brute_induced_rep(2, (2,), (1, 1))
    chi = class_character(ind_diff)
    total = sum(
        c.size * x * x for c, x in zip(grp.conjugacy_classes(), chi)
    )
    assert total == 1 * grp.order
    ind_same = brute_induced_rep(2, (2,), (2,))
    chi2 = class_character(ind_same)
    total2 = sum(
        c.size * x * x for c, x in zip(grp.conjugacy_classes(), chi2)
    )
    assert total2 == 2 * grp.order


def test_induced_traces_match_formula_characters_exactly():
    for n in (2, 3):
        grp = cached_group(f"wreath:{n}")
        table = character_table(grp)
        parts = partitions(n)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                from cosetlab.irreps import PairLabel

                ind = brute_induced_rep(n, parts[i], parts[j])
                row = table.chi[table.position(PairLabel(parts[i], parts[j]))]
                assert class_character(ind) == tuple(row.tolist())


def dist(labels, probs, exact=False):
    return SamplingDistribution(
        "weak", "sym:3", "test", tuple(zip(labels, probs)), exact=exact
    )


def test_exact_tv_basic():
    p = dist(["a", "b"], [Fraction(1), Fraction(0)], exact=True)
    q = dist(["a", "b"], [Fraction(1, 2), Fraction(1, 2)], exact=True)
    assert exact_tv(p, q) == 1
    assert exact_tv(p, p) == 0


def test_exact_tv_mismatch():
    p = dist(["a", "b"], [0.5, 0.5])
    q = dist(["a", "c"], [0.5, 0.5])
    with pytest.raises(OutcomeMismatchError):
        exact_tv(p, q)


def test_oracle_result_kinds():
    r = equality_result("x", 1.0, 1.0 + 5e-10)
    assert r.passed and r.kind == "equality"
    r2 = inequality_result("y", 2.0, 2.5)
    assert not r2.passed and r2.difference == 0.5
    r3 = inequality_result("z", 2.0, 1.5)
    assert r3.passed and r3.difference == 0.0
    r4 = exact_result("w", Fraction(1, 3), Fraction(1, 3))
    assert r4.passed and r4.kind == "exact"
    d = r4.to_json_dict()
    assert d["pass"] is True and d["formula"] == "1/3"
