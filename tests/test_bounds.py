import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cosetlab import bounds, irreps, rng
from cosetlab.distributions import SamplingDistribution
from cosetlab.errors import BoundUndefinedError, CapExceededError, GroupMismatchError
from cosetlab.groups import cached_group, involution_class
from cosetlab.irreps import character_table, group_irreps, irrep_labels
from cosetlab.oracle import exact_tv
from cosetlab.parallel import kahan_sum, wide_slices
from cosetlab.report import json_text
from cosetlab.rng import CounterRng
from cosetlab.sampling import (
    HiddenSubgroup,
    member_projectors,
    projected_masses,
    weak_dist_tuples,
    weak_rank,
    weak_tuple_law,
)


def _setup(n):
    g = cached_group(f"wreath:{n}")
    return g, involution_class(g)


def test_cutoff_badset_wreath2():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "paper")
    assert bad.label_strings() == ("([2],+)", "([2],-)", "([1,1],+)", "([1,1],-)")
    assert bad.lambda_value == 0
    assert bad.plancherel_mass == Fraction(1, 2)
    assert not bad.complement_empty


def test_cutoff_badset_wreath3():
    g, M = _setup(3)
    bad = bounds.build_bad_set(g, M, "paper")
    # partitions of 3 with d^5 < 27: [3] and [1,1,1] (d=1); [2,1] has d=2, 32 >= 27
    assert set(bad.label_strings()) == {
        "([3],+)", "([3],-)", "([1,1,1],+)", "([1,1,1],-)"
    }
    assert bad.lambda_value == Fraction(1, 2)
    assert bad.plancherel_mass == Fraction(4, 72)


def test_empty_badset_lambda_one():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "empty")
    assert bad.labels == frozenset()
    assert bad.lambda_value == 1
    assert bad.plancherel_mass == 0


def test_explicit_label_rule():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, ["([2],+)", "([1,1],+)"])
    assert bad.plancherel_mass == Fraction(1, 4)
    # the complement still contains one-dimensional labels with |chi| = d
    assert bad.lambda_value == 1


def test_unknown_label_rejected():
    g, M = _setup(2)
    with pytest.raises(ValueError):
        bounds.build_bad_set(g, M, ["([5],+)"])


def test_cutoff_rule_needs_wreath():
    g = cached_group("sym:3")
    cls = g.conjugacy_classes()[1]
    with pytest.raises(GroupMismatchError):
        bounds.build_bad_set(g, cls, "paper")


def test_all_labels_badset_flagged():
    g, M = _setup(2)
    from cosetlab.irreps import irrep_labels

    bad = bounds.build_bad_set(g, M, list(irrep_labels(g)))
    assert bad.complement_empty
    assert bad.lambda_value == 0
    assert bad.plancherel_mass == 1


def test_sum_of_dimensions():
    assert bounds.sum_of_dimensions(cached_group("wreath:2")) == 6
    assert bounds.sum_of_dimensions(cached_group("wreath:3")) == 22


def test_delta_values_wreath2():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "paper")
    assert bounds.delta(bad) == 3
    assert bounds.delta_alt(bad) == Fraction(3, 8)


def test_delta_values_wreath3():
    g, M = _setup(3)
    bad = bounds.build_bad_set(g, M, "paper")
    assert bounds.delta(bad) == Fraction(1, 2) + Fraction(4, 72) * 22
    assert bounds.delta_alt(bad) == Fraction(1, 2) + Fraction(4 * 22, 72 * 72)


def test_lambda_cutoff_exact():
    for n in (2, 3, 4):
        g, M = _setup(n)
        bad = bounds.build_bad_set(g, M, "paper")
        assert bounds.lambda_cutoff_holds(bad, n)
        lam = bad.lambda_value
        assert lam.numerator ** 5 * n ** n <= lam.denominator ** 5


def test_lambda_cutoff_holds_at_exact_equality():
    # lambda^5 * n^n = 2^-160 * 32^32 = 1 holds; the next larger lambda fails
    g = cached_group("wreath:2")
    for lam, holds in ((Fraction(1, 2 ** 32), True), (Fraction(1, 2 ** 32 - 1), False)):
        bad = bounds.BadSet(g, frozenset(), lam, Fraction(0), complement_empty=False)
        assert bounds.lambda_cutoff_holds(bad, 32) is holds


def test_weak_bound_dominates_exact():
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        g, M = _setup(n)
        bad = bounds.build_bad_set(g, M, "paper")
        exact = bounds.exact_weak_tv(g, M, k)
        assert isinstance(exact, Fraction)
        assert bounds.weak_tv_bound(bad, k) >= exact


def test_exact_weak_tv_wreath2_value():
    g, M = _setup(2)
    assert bounds.exact_weak_tv(g, M, 1) == Fraction(1, 2)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_exact_weak_tv_equals_the_tv_of_the_labelled_laws(n, k):
    g, M = _setup(n)
    h = weak_dist_tuples(g, HiddenSubgroup(g, M.representative), k)
    p = weak_dist_tuples(g, HiddenSubgroup(g), k)
    got = bounds.exact_weak_tv(g, M, k)
    assert type(got) is Fraction
    assert got == exact_tv(h, p)


def test_weak_bound_monotone_in_k():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "paper")
    prev_bound = Fraction(0)
    prev_exact = Fraction(0)
    for k in (1, 2, 3):
        b = bounds.weak_tv_bound(bad, k)
        e = bounds.exact_weak_tv(g, M, k)
        assert b > prev_bound
        # marginalizing a tuple coordinate contracts total variation
        assert e >= prev_exact
        prev_bound, prev_exact = b, e


def test_expectation_bound_value():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "paper")
    assert bounds.expectation_tv_bound(bad, 2) == 2 * 4 * Fraction(1, 2)


def test_full_bound_wreath2_value():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "paper")
    assert bounds.full_tvd_bound(bad, 1) == pytest.approx(2 * math.sqrt(3) + 3, abs=1e-12)


def test_full_bound_undefined_at_lambda_one():
    g, M = _setup(2)
    bad = bounds.build_bad_set(g, M, "empty")
    with pytest.raises(BoundUndefinedError):
        bounds.full_tvd_bound(bad, 1)


def test_weighted_quantile():
    vals = [0.0, 1.0, 2.0]
    wts = [0.5, 0.25, 0.25]
    assert bounds.weighted_quantile(vals, wts, 0.5) == 0.0
    assert bounds.weighted_quantile(vals, wts, 0.6) == 1.0
    assert bounds.weighted_quantile(vals, wts, 1.0) == 2.0


def test_exact_enumeration_zero_rank_mass():
    g, M = _setup(2)
    fields, quantiles = bounds.exact_enumeration(g, M, 2, seed=0, trials=2)
    # one zero-rank register spoils the tuple: 1 - (3/4)^2
    assert fields["zero_rank_mass"] == {"exact": "7/16", "value": 7 / 16}
    # the exact-mode fields of the report's "exact" section, in its key order
    assert list(fields) == [
        "expectation_tv_max", "expectation_tv_mean", "full_tv_max", "full_tv_mean",
        "full_tv_weak_weighted_mean", "expected_variance_max",
        "expectation_deviation_max", "zero_rank_mass"]
    # zero-rank triples score the pessimal 2 and carry 7/16 of the weight
    assert quantiles["p50"] <= quantiles["p90"] <= quantiles["max"] == bounds.PESSIMAL_TV


def _six_tuple_enumeration(g, M, k, seed, trials):
    """exact_enumeration as it was before its tasks returned arrays: each
    tuple gives a positional 6-tuple, and the combine reads it by position.
    Kept literally as a reference."""
    labels = irrep_labels(g)
    hidden = HiddenSubgroup(g, M.representative)
    ranks = [weak_rank(g, lab, hidden) for lab in labels]
    members = [g.index(m) for m in M.members]
    projs = [member_projectors(rep.stack[members], r)
             for rep, r in zip(group_irreps(g), ranks)]

    def task(projs, rank_total, tuple_idx):
        n_m = len(projs[0])
        if rank_total == 0:
            pessimal = np.full(trials, bounds.PESSIMAL_TV)
            return (pessimal, pessimal, np.zeros(trials), np.full(trials, 0.5 ** k),
                    [bounds.PESSIMAL_TV] * (n_m * trials), rank_total)
        D = math.prod(p.shape[-1] for p in projs)
        exp_tv, full_tv = np.empty(trials), np.empty(trials)
        var_, dev = np.empty(trials), np.empty(trials)
        triples = []
        for t in range(trials):
            basis = CounterRng(seed, "bases", tuple_idx, t).haar_basis(D)
            raw = projected_masses(projs, basis)
            mean_raw = raw.mean(axis=0)
            var_[t] = np.mean(np.mean((raw - mean_raw) ** 2, axis=0))
            dev[t] = np.mean(np.abs(mean_raw - 0.5 ** k))
            probs = raw / rank_total
            tvs = np.sum(np.abs(probs - 1.0 / D), axis=1)
            full_tv[t] = tvs.mean()
            exp_tv[t] = np.sum(np.abs(probs.mean(axis=0) - 1.0 / D))
            triples.extend(float(v) for v in tvs)
        return exp_tv, full_tv, var_, dev, triples, rank_total

    tuples = list(itertools.product(range(len(labels)), repeat=k))
    results = [task([projs[i] for i in tup], math.prod(ranks[i] for i in tup), idx)
               for idx, tup in enumerate(tuples)]
    dims = character_table(g).dims.tolist()
    planch = [math.prod((Fraction(dims[i] ** 2, g.order) for i in tup), start=Fraction(1))
              for tup in tuples]
    hweight = [math.prod((Fraction(2 * dims[i] * ranks[i], g.order) for i in tup),
                         start=Fraction(1)) for tup in tuples]
    zero_rank_mass = sum(
        (wp for wp, res in zip(planch, results) if res[5] == 0), Fraction(0)
    )
    weights_p = [float(wp) for wp in planch]
    weights_h = [float(wh) for wh in hweight]

    def combine(which, weights):
        return tuple(
            kahan_sum(w * res[which][t] for w, res in zip(weights, results))
            for t in range(trials)
        )

    triple_weights = []
    triple_values = []
    for w, res in zip(weights_p, results):
        per = w / (M.size * trials)
        for v in res[4]:
            triple_weights.append(per)
            triple_values.append(v)
    return (zero_rank_mass, combine(0, weights_p), combine(1, weights_p),
            combine(1, weights_h), combine(2, weights_p), combine(3, weights_p),
            triple_weights, triple_values)


@pytest.mark.parametrize("trials", [1, 2, 3])
@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_exact_enumeration_equals_the_six_tuple_combine(n, k, trials):
    g, M = _setup(n)
    fields, quantiles = bounds.exact_enumeration(g, M, k, seed=6, trials=trials)
    (zero_rank_mass, exp_tv, full_tv, full_tv_h, var_, dev,
     triple_weights, triple_values) = _six_tuple_enumeration(g, M, k, 6, trials)
    # max and mean of the reference's per-trial sums, bit for bit
    assert fields == {
        "expectation_tv_max": max(exp_tv),
        "expectation_tv_mean": kahan_sum(exp_tv) / trials,
        "full_tv_max": max(full_tv),
        "full_tv_mean": kahan_sum(full_tv) / trials,
        "full_tv_weak_weighted_mean": kahan_sum(full_tv_h) / trials,
        "expected_variance_max": max(var_),
        "expectation_deviation_max": max(dev),
        "zero_rank_mass": {"exact": str(zero_rank_mass), "value": float(zero_rank_mass)},
    }
    assert quantiles == {
        "p50": bounds.weighted_quantile(triple_values, triple_weights, 0.5),
        "p90": bounds.weighted_quantile(triple_values, triple_weights, 0.9),
        "max": max(triple_values),
    }


def _count_bases(monkeypatch) -> list:
    """The dimension of every Haar basis built from here on: each stream
    passed to the batched entry, which CounterRng.haar_basis also calls."""
    built = []
    haar_bases = rng.haar_bases

    def counting(streams, d):
        built.extend([d] * len(streams))
        return haar_bases(streams, d)

    monkeypatch.setattr(rng, "haar_bases", counting)
    monkeypatch.setattr(bounds, "haar_bases", counting)
    return built


def _refuse_bases(monkeypatch, refuse) -> None:
    """Make every Haar basis path call refuse."""
    monkeypatch.setattr(CounterRng, "haar_basis", refuse)
    monkeypatch.setattr(rng, "haar_bases", refuse)
    monkeypatch.setattr(bounds, "haar_bases", refuse)


@pytest.mark.parametrize("n,k,trials", [(2, 3, 2), (3, 2, 3), (3, 3, 1), (3, 3, 3)])
def test_exact_enumeration_does_not_depend_on_its_chunks(monkeypatch, n, k, trials):
    # the default chunks, one basis per chunk, and chunks of 2 or 3 bases at
    # the largest D, which split a tuple's trials across chunks unless trials
    # is 1; each over one and two threads
    g, M = _setup(n)
    want = bounds.exact_enumeration(g, M, k, 5, trials)
    D = int(character_table(g).dims.max()) ** k
    for entries in (bounds.CHUNK_ENTRIES, 1, 2 * D * D, 3 * D * D + 1):
        monkeypatch.setattr(bounds, "CHUNK_ENTRIES", entries)
        for threads in (1, 2):
            assert bounds.exact_enumeration(g, M, k, 5, trials, threads) == want


@pytest.mark.parametrize("entries", [1, 3 * 16 * 16, bounds.CHUNK_ENTRIES])
def test_no_exact_chunk_outgrows_its_budget_unless_one_basis_does(monkeypatch, entries):
    # every haar_bases call gets at most max(1, CHUNK_ENTRIES // D^2) streams
    g, M = _setup(3)
    calls = []
    haar_bases = rng.haar_bases

    def counting(streams, d):
        calls.append((d, len(streams)))
        return haar_bases(streams, d)

    monkeypatch.setattr(bounds, "haar_bases", counting)
    monkeypatch.setattr(bounds, "CHUNK_ENTRIES", entries)
    hidden = HiddenSubgroup(g, M.representative)
    useful = sum(1 for lab in irrep_labels(g) if weak_rank(g, lab, hidden) > 0)
    k, trials = 2, 3
    bounds.exact_enumeration(g, M, k, seed=4, trials=trials)
    assert sum(count for _, count in calls) == useful ** k * trials
    assert all(count <= max(1, entries // (d * d)) for d, count in calls)
    if entries == 3 * 16 * 16:
        # a full chunk at D = 8 holds 12 bases: the trials of four tuples
        assert (8, 12) in calls


def _parent_tuple_task(projs, rank_totals, bases, k):
    """_tuple_task as it was before it measured column slices, kept
    literally as a reference: C tuples of T bases (C, T, D, D), one
    contiguous copy, then one projected_masses call per member."""
    D = bases.shape[-1]
    bases = np.ascontiguousarray(bases)  # copied once, not once per member
    # (C, trials, members, D), a member at a time: no array outgrows the bases
    raw = np.concatenate([projected_masses([p[:, None, w:w + 1] for p in projs], bases)
                          for w in range(projs[0].shape[1])], axis=2)
    mean_raw = raw.mean(axis=2)
    probs = raw / rank_totals[:, None, None, None]
    dists = np.sum(np.abs(probs - 1.0 / D), axis=3)
    rows = (np.sum(np.abs(probs.mean(axis=2) - 1.0 / D), axis=2), dists.mean(axis=2),
            np.mean(np.mean((raw - mean_raw[:, :, None]) ** 2, axis=2), axis=2),
            np.mean(np.abs(mean_raw - 0.5 ** k), axis=2))
    return np.stack(rows, axis=1), dists


def _assert_sliced_task_has_the_parents_bits(g, M, tup, trials, members):
    """_tuple_task on `trials` Haar bases of one label tuple, Pi_m at the
    given members, against _parent_tuple_task on the same bases."""
    ranks, projs = bounds._label_projectors(g, M)
    D = math.prod(int(character_table(g).dims[i]) for i in tup)
    bases = rng.haar_bases([CounterRng(9, "slices", *tup, t) for t in range(trials)], D)
    stacks = [projs[i][None, members] for i in tup]
    rank_total = np.array([math.prod(ranks[i] for i in tup)])
    rows, dists = bounds._tuple_task([np.repeat(p, trials, axis=0) for p in stacks],
                                     np.repeat(rank_total, trials), bases, len(tup))
    want_rows, want_dists = _parent_tuple_task(stacks, rank_total, bases[None], len(tup))
    assert np.array_equal(rows, want_rows[0].T) and np.array_equal(dists, want_dists[0])


def test_a_large_basis_is_measured_in_slices_with_the_bits_of_one_copy():
    # d = 324 (wreath:4, k = 2): 50-column slices, the last 24 wide
    g, M = _setup(4)
    top = int(np.argmax(character_table(g).dims))
    assert bounds.CHUNK_ENTRIES // (324 * 324) == 0
    _assert_sliced_task_has_the_parents_bits(g, M, (top, top), 1, [0, 5, 11])


@pytest.mark.parametrize("step", [2, 3, 5])
def test_ragged_slices_have_the_bits_of_one_copy(monkeypatch, step):
    # every D of wreath:3 at k = 3, two bases per call, slices of `step`
    # columns with a one-column remainder folded into the last slice
    g, M = _setup(3)
    hidden = HiddenSubgroup(g, M.representative)
    dims = character_table(g).dims.tolist()
    useful = [i for i, lab in enumerate(irrep_labels(g)) if weak_rank(g, lab, hidden) > 0]
    by_D = {}
    for tup in itertools.product(useful, repeat=3):
        by_D.setdefault(math.prod(dims[i] for i in tup), tup)
    assert sorted(by_D) == [1, 2, 4, 8, 16, 32, 64]
    for D, tup in by_D.items():
        monkeypatch.setattr(bounds, "CHUNK_ENTRIES", 2 * D * step)
        _assert_sliced_task_has_the_parents_bits(g, M, tup, 2, list(range(M.size)))


def test_wide_slices_cover_the_range_and_are_never_one_wide():
    for count in range(1, 70):
        for step in range(0, 12):
            cuts = wide_slices(count, step)
            assert [i for cut in cuts for i in range(count)[cut]] == list(range(count))
            widths = [cut.stop - cut.start for cut in cuts]
            assert all(2 <= w <= max(2, step) + 1 for w in widths) or widths == [1] == [count]


@pytest.mark.parametrize("n", [2, 3])
def test_exact_enumeration_builds_no_basis_for_zero_rank_tuples(monkeypatch, n):
    g, M = _setup(n)
    hidden = HiddenSubgroup(g, M.representative)
    useful = sum(1 for lab in irrep_labels(g) if weak_rank(g, lab, hidden) > 0)
    assert 0 < useful < len(irrep_labels(g))
    built = _count_bases(monkeypatch)
    k, trials = 2, 2
    fields, _ = bounds.exact_enumeration(g, M, k, seed=4, trials=trials)
    assert len(built) == useful ** k * trials
    assert Fraction(fields["zero_rank_mass"]["exact"]) > 0


def test_the_control_builds_no_basis(monkeypatch):
    g, M = _setup(3)
    hidden = HiddenSubgroup(g, M.representative)
    useful = sum(1 for lab in irrep_labels(g) if weak_rank(g, lab, hidden) > 0)
    built = _count_bases(monkeypatch)
    k, trials = 2, 2
    report = bounds.theorem_pipeline(3, k, trials=trials)
    assert report["mode"] == "exact" and report["control_trivial_tv"] == 0.0
    assert len(built) == useful ** k * trials


def test_the_pipeline_builds_no_labelled_tuple_law(monkeypatch):
    # The pipeline reads the weak laws as integers; the only distribution it
    # builds is the control's multiregister law.  Exact and sampled mode.
    contexts = []
    post_init = SamplingDistribution.__post_init__

    def recording(self):
        contexts.append(self.context)
        post_init(self)

    monkeypatch.setattr(SamplingDistribution, "__post_init__", recording)
    for n, k in ((2, 2), (3, 2), (4, 1)):
        bounds.theorem_pipeline(n, k, trials=1)
    assert contexts == ["multiregister"] * 3


def _parent_sampled_loop(group, M, k, seed, trials, reps):
    """sampled_enumeration as it was before it shared _tuple_task with exact
    mode: its own per-trial projectors and distance.  Kept literally as a
    reference."""
    labels = irrep_labels(group)
    hidden = HiddenSubgroup(group, M.representative)
    planch = weak_tuple_law(group, HiddenSubgroup(group), 1)
    cum = np.cumsum([p / group.order for p in planch])
    ranks = [weak_rank(group, l, hidden) for l in labels]
    values = np.full(trials, bounds.PESSIMAL_TV)
    for t in range(trials):
        rng = CounterRng(seed, "sampled", t)
        picks = rng.floats01(0, k)
        tup = [
            min(int(np.searchsorted(cum, u, side="right")), len(labels) - 1)
            for u in picks
        ]
        D = math.prod(reps[i].dim for i in tup)
        rank_total = math.prod(ranks[i] for i in tup)
        m = group.index(M.members[rng.index(k, M.size)])
        if rank_total == 0:
            continue
        basis = rng.sub("basis").haar_basis(D)
        projs = [member_projectors(reps[i].stack[[m]], ranks[i]) for i in tup]
        probs = projected_masses(projs, basis)[0] / rank_total
        values[t] = np.sum(np.abs(probs - 1.0 / D))
    return values


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (2, 2)])
def test_sampled_enumeration_has_the_bits_of_its_own_loop(n, k):
    g, M = _setup(n)
    reps = group_irreps(g)
    values = []
    for seed in range(4):
        got = bounds.sampled_enumeration(g, M, k, seed, 4)
        assert np.array_equal(got, _parent_sampled_loop(g, M, k, seed, 4, reps))
        values.extend(got)
    if n == 2:
        # zero-rank tuples are drawn too, and scored 2 without a basis
        assert bounds.PESSIMAL_TV in values


def test_sampled_enumeration_checks_tensor_cap_before_any_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Haar basis or an irrep stack was built")

    _refuse_bases(monkeypatch, refuse)
    monkeypatch.setattr(bounds, "label_matrices", refuse)
    monkeypatch.setattr(irreps, "label_matrices", refuse)
    # wreath:4 has an 18-dimensional irrep and 18^3 > 4096; n = 4 is sampled
    # mode, and the pipeline checks the cap once, before either enumeration
    with pytest.raises(CapExceededError, match="exceed tensor cap 4096"):
        bounds.theorem_pipeline(4, 3, seed=0, trials=200)


@pytest.mark.parametrize("n", [2, 4])
def test_pipeline_builds_matrices_only_at_the_members(monkeypatch, n):
    # n=2 runs exact_enumeration, n=4 sampled_enumeration.  No all-label
    # stack is built: the enumeration builds every label at the members of
    # M only, and the trivial control reads no matrix.
    def refuse(*args):
        raise AssertionError("a whole set of irrep stacks was built")

    monkeypatch.setattr(irreps, "group_irreps", refuse)
    monkeypatch.setattr(bounds, "group_irreps", refuse, raising=False)
    label_matrices = irreps.label_matrices
    calls = []

    def recording(group, labels, elements):
        calls.append((len(labels), len(elements)))
        return label_matrices(group, labels, elements)

    monkeypatch.setattr(irreps, "label_matrices", recording)
    monkeypatch.setattr(bounds, "label_matrices", recording)
    report = bounds.theorem_pipeline(n, 1, seed=0, trials=1)
    g, M = _setup(n)
    assert report["mode"] == ("exact" if n == 2 else "sampled")
    assert report["control_trivial_tv"] == 0.0
    assert calls == [(len(irrep_labels(g)), M.size)]


def test_warm_sampled_pipeline_peaks_under_3_5_mb():
    # All wreath:4 stacks are 10.6 MB; a whole d = 324 Gaussian draw and its
    # temporaries peaked at 5.9 MB, and a contiguous copy of the d = 324
    # basis with its register blocks at 5.3 MB.  Measured in column slices
    # the peak reads 3.0 MB: the basis (1.7 MB) and a few 50-column slices.
    # Warm: the group, classes and table are cached by the first run.
    bounds.theorem_pipeline(4, 2, seed=3, trials=10)
    tracemalloc.start()
    try:
        bounds.theorem_pipeline(4, 2, seed=3, trials=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_500_000


def test_pipeline_wreath2_k1_all_pass():
    rep = bounds.theorem_pipeline(2, 1, seed=3, trials=8)
    assert rep["mode"] == "exact"
    assert rep["all_pass"]
    assert rep["exact"]["zero_rank_mass"]["exact"] == "1/4"
    assert rep["control_trivial_tv"] == 0.0
    assert rep["lambda_cutoff_ok"]
    assert rep["exact"]["weak_tv"]["exact"] == "1/2"
    assert rep["bounds"]["full_tvd"] == pytest.approx(2 * math.sqrt(3) + 3)
    assert rep["quantiles"]["max"] <= 2.0 + 1e-12


def test_pipeline_wreath2_k2_all_pass():
    rep = bounds.theorem_pipeline(2, 2, seed=1, trials=5)
    assert rep["mode"] == "exact"
    assert rep["all_pass"]
    assert rep["exact"]["zero_rank_mass"]["exact"] == "7/16"


def test_pipeline_wreath3_all_pass():
    rep = bounds.theorem_pipeline(3, 1, seed=7, trials=4)
    assert rep["mode"] == "exact"
    assert rep["all_pass"]
    assert rep["bad_set"]["lambda"]["exact"] == "1/2"


def test_pipeline_sampled_mode_wreath4():
    rep = bounds.theorem_pipeline(4, 1, seed=5, trials=3)
    assert rep["mode"] == "sampled"
    assert rep["exact"]["expectation_tv_max"] is None
    assert rep["exact"]["full_tv_max"] is None
    assert rep["exact"]["zero_rank_mass"] is None
    assert "full_tvd_sampled_mean" in rep["flags"]
    assert rep["all_pass"]


def test_pipeline_undefined_full_bound_still_reports():
    rep = bounds.theorem_pipeline(2, 1, seed=2, trials=3, rule="empty")
    assert rep["bounds"]["full_tvd"] is None
    assert rep["bounds"]["full_tvd_undefined"]
    assert "full_tvd" not in rep["flags"]
    # weak bound 2k(1+0) = 2 still dominates
    assert rep["flags"]["weak_tv"]


# the exact-mode flags: (flag, its "exact" key, its bound from the bad set and k)
_EXACT_LINKS = (
    ("expectation_tv", "expectation_tv_max", bounds.expectation_tv_bound),
    ("full_tvd", "full_tv_max", bounds.full_tvd_bound),
    ("expected_variance", "expected_variance_max", lambda bad, k: bounds.delta(bad)),
    ("expectation_deviation", "expectation_deviation_max",
     lambda bad, k: bad.lambda_value + bad.plancherel_mass),
)


@pytest.mark.parametrize("excess,holds", [(bounds.TOL / 2, True), (2 * bounds.TOL, False)])
def test_exact_mode_flags_forgive_tol_and_no_more(monkeypatch, excess, holds):
    enumeration = bounds.exact_enumeration

    def over_the_bounds(group, M, k, *args):
        fields, quantiles = enumeration(group, M, k, *args)
        bad = bounds.build_bad_set(group, M, bounds.CUTOFF_RULE)
        for _, key, bound in _EXACT_LINKS:
            fields[key] = float(bound(bad, k)) + excess
        return fields, quantiles

    monkeypatch.setattr(bounds, "exact_enumeration", over_the_bounds)
    rep = bounds.theorem_pipeline(2, 1, seed=3, trials=2)
    assert rep["mode"] == "exact"
    for flag, _, _ in _EXACT_LINKS:
        assert rep["flags"][flag] is holds, flag
    assert rep["all_pass"] is holds


def test_pipeline_reports_byte_identical():
    a = json_text(bounds.theorem_pipeline(3, 2, seed=11, trials=3, threads=1))
    b = json_text(bounds.theorem_pipeline(3, 2, seed=11, trials=3, threads=4))
    assert a == b
    c = json_text(bounds.theorem_pipeline(3, 2, seed=12, trials=3))
    assert a != c


# the CSV columns before the flag columns, with the report key path each reads
_CSV_PATHS = {
    "group": ("group",), "n": ("n",), "k": ("k",), "mode": ("mode",),
    "seed": ("seed",), "trials": ("trials",),
    "class": ("involution_class", "descriptor"), "rule": ("bad_set", "rule"),
    "lambda": ("bad_set", "lambda"),
    "plancherel_mass": ("bad_set", "plancherel_mass"),
    "delta": ("delta",), "delta_alt": ("delta_alt",),
    "weak_bound": ("bounds", "weak_tv"), "weak_exact": ("exact", "weak_tv"),
    "expectation_bound": ("bounds", "expectation_tv"),
    "expectation_exact_max": ("exact", "expectation_tv_max"),
    "full_bound": ("bounds", "full_tvd"), "full_exact_max": ("exact", "full_tv_max"),
    "expected_variance_max": ("exact", "expected_variance_max"),
    "zero_rank_mass": ("exact", "zero_rank_mass"),
    "control_trivial_tv": ("control_trivial_tv",), "all_pass": ("all_pass",),
}


def test_report_csv_row():
    import csv
    import io
    import json

    from cosetlab.report import csv_text

    # exact mode with the paper rule has 29 columns, sampled mode 26
    cases = (
        (2, 2, ["weak_tv", "control_trivial", "lambda_cutoff", "expectation_tv",
                "full_tvd", "expected_variance", "expectation_deviation"], 29),
        (4, 3, ["weak_tv", "control_trivial", "lambda_cutoff",
                "full_tvd_sampled_mean"], 26),
    )
    for n, trials, flags, width in cases:
        rep = bounds.theorem_pipeline(n, 1, seed=3, trials=trials)
        text = csv_text([bounds.csv_row(rep)])
        lines = text.split("\r\n")
        assert len(lines) == 3 and lines[2] == ""
        header = [*_CSV_PATHS, *("flag_" + f for f in flags)]
        assert lines[0] == ",".join(header) and len(header) == width
        (row,) = csv.DictReader(io.StringIO(text))
        doc = json.loads(json_text(rep))
        for column, path in _CSV_PATHS.items():
            node = doc
            for key in path:
                node = node[key]
            if node is None:
                assert row[column] == ""
            elif isinstance(node, dict):
                # the float of the exact value, as the CSV has always written it
                assert float(row[column]) == float(Fraction(node["exact"])) == node["value"]
                assert row[column] == str(node["value"])
            else:
                assert row[column] == str(node)
        for f in flags:
            assert row["flag_" + f] == str(doc["flags"][f])
