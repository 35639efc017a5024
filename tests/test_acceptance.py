"""Acceptance gate: one test per primary criterion, named and ordered.

Run with -v to get the one pass/fail line per criterion.  Tolerances are
stated inline; exact means integer or Fraction equality, no epsilon.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from cosetlab import bounds
from cosetlab.cli import main
from cosetlab.groups import cached_group, involution_class
from cosetlab.irreps import (
    DiagonalLabel,
    PairLabel,
    character_table,
    group_irreps,
    irrep_labels,
    label_dim,
    label_str,
    wreath_character,
)
from cosetlab.oracle import (
    brute_expectation_overlap,
    brute_induced_rep,
    brute_multiregister_moments,
    brute_second_moment,
    brute_subset_overlap,
    rebuilt_matrix,
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
    multiregister_dist,
    projector_sum_bound,
    strong_dist,
    subset_expectation,
    subsets,
    weak_dist,
    weak_rank,
)
from cosetlab.tableaux import dimension, partitions

EPS = 1e-9


def _sym_involution(group):
    for cls in group.conjugacy_classes():
        if cls.representative.order() == 2:
            return cls
    raise AssertionError("no involution class")


def test_criterion_01_representation_integrity():
    t0 = time.time()
    for spec in ("sym:0", "sym:1", "sym:2", "sym:3", "sym:4", "sym:5",
                 "wreath:2", "wreath:3"):
        group = cached_group(spec)
        reps = group_irreps(group)
        assert sum(r.dim ** 2 for r in reps) == group.order
        chi = character_table(group).chi.tolist()
        classes = group.conjugacy_classes()
        for a, row_a in enumerate(chi):
            for b, row_b in enumerate(chi):
                inner = sum(c.size * row_a[i] * row_b[i]
                            for i, c in enumerate(classes))
                assert inner == (group.order if a == b else 0)
        for rep in reps:
            rep.check()
    elapsed = time.time() - t0
    assert elapsed <= 60
    print(f"PASS criterion 1: representation integrity ({elapsed:.1f}s)")


def test_criterion_02_induced_representation_equivalence():
    t0 = time.time()
    for n in (2, 3):
        group = cached_group(f"wreath:{n}")
        classes = group.conjugacy_classes()
        parts = list(partitions(n))
        for i, rho in enumerate(parts):
            for sigma in parts[i:]:
                induced = brute_induced_rep(n, rho, sigma)
                traces = induced.traces()
                for cls in classes:
                    g = cls.representative
                    tr = complex(traces[group.index(g)])
                    assert abs(tr.imag) <= EPS
                    got = int(round(tr.real))
                    assert abs(tr.real - got) <= 1e-6
                    if rho == sigma:
                        want = (wreath_character(DiagonalLabel(rho, 1), g)
                                + wreath_character(DiagonalLabel(rho, -1), g))
                    else:
                        want = wreath_character(PairLabel(rho, sigma), g)
                    assert got == want
        table = character_table(group)
        rows = table.chi.tolist()
        for a, row_a in enumerate(rows):
            for b, row_b in enumerate(rows):
                inner = sum(c.size * row_a[i] * row_b[i]
                            for i, c in enumerate(classes))
                assert inner == group.order * (1 if a == b else 0)
        M = involution_class(group)
        pos = [i for i, c in enumerate(classes)
               if c.representative == M.representative][0]
        for lab, row in zip(table.labels, rows):
            chi = Fraction(row[pos], label_dim(lab))
            if isinstance(lab, PairLabel):
                assert chi == 0
            else:
                assert chi == Fraction(lab.sign, dimension(lab.rho))
    elapsed = time.time() - t0
    assert elapsed <= 120
    print(f"PASS criterion 2: induced-representation equivalence ({elapsed:.1f}s)")


def test_criterion_03_rank_identity():
    for n in (2, 3):
        group = cached_group(f"wreath:{n}")
        M = involution_class(group)
        hidden = HiddenSubgroup(group, M.representative)
        table = character_table(group)
        pos = [i for i, c in enumerate(group.conjugacy_classes())
               if c.representative == M.representative][0]
        for rep in group_irreps(group):
            proj = 0.5 * (np.eye(rep.dim) + rebuilt_matrix(rep, M.representative))
            trace = complex(np.trace(proj))
            rank = int(round(trace.real))
            assert abs(trace.real - rank) <= 1e-6 and abs(trace.imag) <= 1e-6
            chi = int(table.chi[table.position(rep.label), pos])
            assert Fraction(rank, rep.dim) == Fraction(1, 2) * (1 + Fraction(chi, rep.dim))
            assert rank == weak_rank(group, rep.label, hidden)
    print("PASS criterion 3: rank identity exact on wreath:2..3")


def test_criterion_04_expectation_and_second_moment_oracles():
    for spec in ("sym:3", "wreath:2"):
        group = cached_group(spec)
        M = (involution_class(group) if spec.startswith("wreath")
             else _sym_involution(group))
        reps = group_irreps(group)
        # irreducible case: every irrep, 100 seeded vectors each
        for rep in reps:
            regs = RegisterTuple((rep,))
            for t in range(100):
                b = CounterRng(17, "acc4", spec, label_str(rep.label), t).unit_vector(rep.dim)
                formula = subset_expectation(regs, b, (0,), M)
                oracle = brute_expectation_overlap(rep, b, M)
                assert abs(formula - oracle) <= EPS
                second = doubled_expectation(regs, b, (0,), (0,), M)
                assert abs(second - brute_second_moment(rep, b, M)) <= EPS
        # reducible case: two-register tensor products, 100 seeded vectors
        labels = irrep_labels(group)
        for t in range(100):
            rng = CounterRng(23, "acc4", spec, "pair", t)
            tup = (labels[rng.index(0, len(labels))], labels[rng.index(1, len(labels))])
            regs = RegisterTuple(tuple(r for l in tup for r in reps if r.label == l))
            b = rng.sub("vec").unit_vector(regs.total_dim)
            full = (0, 1)
            formula = subset_expectation(regs, b, full, M)
            oracle = brute_subset_overlap(regs.irreps, b, full, M)
            assert abs(formula - oracle) <= EPS
    print("PASS criterion 4: expectation and second-moment oracles at 1e-9")


def test_criterion_05_multiregister_moments():
    t0 = time.time()
    configs = [("sym:3", k) for k in (1, 2, 3)]
    configs += [("wreath:2", k) for k in (1, 2, 3)]
    configs += [("wreath:3", k) for k in (1, 2)]
    for spec, k in configs:
        group = cached_group(spec)
        M = (involution_class(group) if spec.startswith("wreath")
             else _sym_involution(group))
        reps = {r.label: r for r in group_irreps(group)}
        labels = irrep_labels(group)
        for t in range(100):
            rng = CounterRng(31, "acc5", spec, k, t)
            tup = tuple(labels[rng.index(i, len(labels))] for i in range(k))
            regs = RegisterTuple(tuple(reps[l] for l in tup))
            basis = rng.sub("basis").haar_basis(regs.total_dim)
            b = basis[:, rng.index(1000, regs.total_dim)]
            moments = interference_moments(regs, b, M)
            mean_o, var_o = brute_multiregister_moments(regs.irreps, b, M)
            assert abs(moments.expectation - mean_o) <= EPS
            assert abs(moments.variance - var_o) <= EPS
            assert moments.variance_bound >= var_o - EPS
    elapsed = time.time() - t0
    assert elapsed <= 600
    print(f"PASS criterion 5: multiregister mean/variance identities ({elapsed:.1f}s)")


def test_criterion_06_claim_and_projector_sum():
    for spec in ("sym:3", "sym:4", "wreath:2"):
        group = cached_group(spec)
        for rep in group_irreps(group):
            for t in range(20):
                b = CounterRng(41, "acc6", spec, label_str(rep.label), t).unit_vector(rep.dim)
                lhs, rhs = claim_projector_average(rep, b)
                assert abs(lhs - 1.0 / rep.dim) <= EPS
                assert abs(rhs - 1.0 / rep.dim) <= EPS
    for spec, k in (("sym:3", 2), ("wreath:2", 2), ("wreath:2", 1)):
        group = cached_group(spec)
        reps = {r.label: r for r in group_irreps(group)}
        labels = irrep_labels(group)
        for t in range(10):
            rng = CounterRng(43, "acc6", spec, k, t)
            tup = tuple(labels[rng.index(i, len(labels))] for i in range(k))
            regs = RegisterTuple(tuple(reps[l] for l in tup))
            b = rng.sub("vec").unit_vector(regs.total_dim)
            for sigma in labels:
                lhs, rhs = projector_sum_bound(regs, sigma, b)
                assert lhs <= rhs + EPS
    print("PASS criterion 6: claim and projector-sum inequalities, Schur equality 1/d")


def test_criterion_07_expected_decomposition_exact():
    for spec, kmax in (("sym:3", 3), ("wreath:2", 2)):
        group = cached_group(spec)
        for k in range(1, kmax + 1):
            for sigma in irrep_labels(group):
                want = Fraction(label_dim(sigma) ** 2, group.order)
                for subset in subsets(k, nonempty=True):
                    got = expected_isotypic_dimension(sigma, subset, k, group)
                    assert got == want
    print("PASS criterion 7: expected isotypic dimension exact identity")


def test_criterion_08_bound_chain_dominates():
    for n, k in itertools.product((2, 3), (1, 2)):
        report = bounds.theorem_pipeline(n, k, seed=5, trials=6)
        assert report["mode"] == "exact"
        assert report["flags"]["weak_tv"]
        assert report["flags"]["expectation_tv"]
        assert report["flags"]["full_tvd"]
        assert report["flags"]["expected_variance"]
        assert report["all_pass"], report["flags"]
    for n in (2, 3, 4):
        group = cached_group(f"wreath:{n}")
        M = involution_class(group)
        bad = bounds.build_bad_set(group, M, "paper")
        assert bounds.lambda_cutoff_holds(bad, n)
    print("PASS criterion 8: bound chain dominates exact counterparts; cutoff exact")


def test_criterion_09_trivial_subgroup_control():
    for spec in ("sym:3", "wreath:2", "wreath:3"):
        group = cached_group(spec)
        trivial = HiddenSubgroup(group)
        dist = weak_dist(group, trivial)
        for lab, p in zip(dist.labels, dist.exact_values()):
            d = label_dim(next(l for l in irrep_labels(group)
                               if label_str(l) == lab))
            assert p == Fraction(d * d, group.order)
        reps = [r for r in group_irreps(group) if r.dim > 1]
        for rep in reps[:2]:
            for t in range(3):
                basis = (MeasurementBasis.standard(rep.dim) if t == 0 else
                         MeasurementBasis.haar(rep.dim, CounterRng(59, "acc9", spec, t)))
                sdist = strong_dist(group, rep.label, trivial, basis)
                assert all(p == Fraction(1, rep.dim) for p in sdist.exact_values())
        labels = irrep_labels(group)
        rng = CounterRng(61, "acc9", spec)
        tup = tuple(labels[rng.index(i, len(labels))] for i in range(2))
        regs = RegisterTuple(tuple(r for l in tup for r in group_irreps(group)
                                   if r.label == l))
        basis = MeasurementBasis.haar(regs.total_dim, rng.sub("b"))
        mdist = multiregister_dist(regs, trivial, basis)
        assert all(p == Fraction(1, regs.total_dim) for p in mdist.exact_values())
    print("PASS criterion 9: trivial-subgroup control exactly uniform, TV = 0")


def test_criterion_10_byte_identical_reports(tmp_path):
    blobs = []
    for i, threads in enumerate(("1", "4")):
        p = tmp_path / f"bounds{i}.json"
        assert main(["bounds", "--n", "2", "--k", "2", "--seed", "9",
                     "--trials", "5", "--threads", threads, "--out", str(p)]) == 0
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]
    rerun = tmp_path / "bounds2.json"
    assert main(["bounds", "--n", "2", "--k", "2", "--seed", "9",
                 "--trials", "5", "--threads", "1", "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == blobs[0]
    vblobs = []
    for i in range(2):
        p = tmp_path / f"verify{i}.json"
        assert main(["verify", "--lemma", "multiregister", "--trials", "4",
                     "--seed", "2", "--out", str(p)]) == 0
        vblobs.append(p.read_bytes())
    assert vblobs[0] == vblobs[1]
    json.loads(blobs[0])
    print("PASS criterion 10: byte-identical verify and bounds reports")
