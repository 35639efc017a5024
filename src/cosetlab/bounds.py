"""Bad sets and the total-variation bound chain, exact at desk scale.

Given a conjugacy class M of involutions and a set Lambda of irrep labels
(the "bad" ones), the key scalars are exact rationals:

  lambda    = max over sigma outside Lambda of |chi_sigma(M)| / d_sigma
  P(Lambda) = Plancherel mass of Lambda
  Delta     = lambda + P(Lambda) * (sum of ALL irrep dimensions)

and the bound chain, in the L1 distance convention:

  weak:        ||H^(x)k - P^(x)k||_1          <= 2 k (lambda + P(Lambda))
  expectation: Exp_rho ||U - A(rho,.)||_1     <= 2 * 2^k (lambda + P(Lambda))
  full:        Exp_rho Exp_m ||H_m - U||_1    <= 2^k [ (1-lambda)^-k sqrt(Delta)
                                                       + 3 (lambda + P(Lambda)) ]

where H is the weak distribution for the subgroup {e, m}, P the Plancherel
distribution, H_m(rho,.) the multiregister strong distribution, A its
average over m in M, and U uniform.  Expectations over the label tuple rho
use the Plancherel product measure; the report also recomputes the full
distance under the H product weights to show the gap between the two.

Every bound is compared against an exactly enumerated counterpart whenever
the tuple space is small enough.  A tuple containing a register of rank
zero has no conditional strong distribution; such tuples are scored with
the pessimal L1 distance 2 under Plancherel weighting (their weight under H
is exactly zero) and their total mass is reported separately.

An auxiliary variant of Delta with the second term divided by |G| is
computed and reported alongside; all inequality checks use the primary
definition above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod, sqrt

import numpy as np

from .errors import BoundUndefinedError, CapExceededError, GroupMismatchError
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    WreathGroup,
    cached_group,
    involution_class,
)
from .irreps import (
    DiagonalLabel,
    character_table,
    check_wreath_n,
    irrep_labels,
    label_irrep,
    label_str,
    parse_label,
    wreath_matrices,
)
from .parallel import kahan_sum, ordered_map, wide_slices
from .report import exact_node
from .rng import CounterRng, haar_bases
from .sampling import (
    DEFAULT_TENSOR_CAP,
    HiddenSubgroup,
    MeasurementBasis,
    RegisterTuple,
    member_projectors,
    multiregister_dist,
    normalized_characters,
    projected_masses,
    weak_rank,
    weak_tuple_law,
)
from .tableaux import dimension

TOL = 1e-9
PESSIMAL_TV = 2.0
EXACT_TUPLE_CAP = 10_000
CUTOFF_RULE = "paper"


# ---------------------------------------------------------------------------
# Bad sets and the scalar bound inputs

@dataclass(frozen=True)
class BadSet:
    """A set Lambda of irrep labels with its exact lambda and mass."""

    group: FiniteGroup
    labels: frozenset
    lambda_value: Fraction
    plancherel_mass: Fraction
    complement_empty: bool

    def __post_init__(self):
        assert 0 <= self.lambda_value <= 1
        assert 0 <= self.plancherel_mass <= 1

    def label_strings(self) -> tuple[str, ...]:
        table = character_table(self.group)
        return tuple(
            name for lab, name in zip(table.labels, table.names) if lab in self.labels
        )


def cutoff_labels(group: FiniteGroup, n: int) -> frozenset:
    """Diagonal labels whose base partition dimension d satisfies d^5 < n^n,
    checked in exact integer arithmetic."""
    picked = set()
    for lab in irrep_labels(group):
        if isinstance(lab, DiagonalLabel) and dimension(lab.rho) ** 5 < n ** n:
            picked.add(lab)
    return frozenset(picked)


def build_bad_set(group: FiniteGroup, M: ConjugacyClass, rule) -> BadSet:
    """rule: the string "paper" (dimension-cutoff set over a wreath group),
    "empty", or an explicit iterable of labels / label strings."""
    if rule == CUTOFF_RULE:
        if not isinstance(group, WreathGroup):
            raise GroupMismatchError("the dimension cutoff rule needs a wreath group")
        labels = cutoff_labels(group, group.n)
    elif rule == "empty":
        labels = frozenset()
    else:
        known = set(irrep_labels(group))
        picked = set()
        for item in rule:
            lab = parse_label(item) if isinstance(item, str) else item
            if lab not in known:
                raise ValueError(f"label {label_str(lab)} is not an irrep of {group.spec}")
            picked.add(lab)
        labels = frozenset(picked)
    table = character_table(group)
    ratios = normalized_characters(group, M)
    outside = [abs(r) for l, r in zip(table.labels, ratios) if l not in labels]
    lam = max(outside) if outside else Fraction(0)
    mass = sum(
        (Fraction(d * d, group.order)
         for l, d in zip(table.labels, table.dims.tolist()) if l in labels),
        Fraction(0),
    )
    return BadSet(group, labels, lam, mass, complement_empty=not outside)


def lambda_cutoff_holds(badset: BadSet, n: int) -> bool:
    """lambda <= n^(-n/5), checked exactly: lambda^5 * n^n <= 1."""
    lam = badset.lambda_value
    return lam.numerator ** 5 * n ** n <= lam.denominator ** 5


def sum_of_dimensions(group: FiniteGroup) -> int:
    return sum(character_table(group).dims.tolist())


def delta(badset: BadSet) -> Fraction:
    """lambda + P(Lambda) * (sum over ALL irreps of d), exact."""
    return badset.lambda_value + badset.plancherel_mass * sum_of_dimensions(badset.group)


def delta_alt(badset: BadSet) -> Fraction:
    """Variant with the mass term divided by |G|, reported alongside delta."""
    group = badset.group
    return badset.lambda_value + Fraction(
        badset.plancherel_mass * sum_of_dimensions(group), group.order
    )


def weak_tv_bound(badset: BadSet, k: int) -> Fraction:
    return 2 * k * (badset.lambda_value + badset.plancherel_mass)


def expectation_tv_bound(badset: BadSet, k: int) -> Fraction:
    return 2 * 2 ** k * (badset.lambda_value + badset.plancherel_mass)


def full_tvd_bound(badset: BadSet, k: int) -> float:
    """2^k [ (1-lambda)^-k sqrt(Delta) + 3 (lambda + P(Lambda)) ]."""
    lam = badset.lambda_value
    if lam >= 1:
        raise BoundUndefinedError(
            f"lambda = {lam} >= 1: the (1-lambda)^-k factor is undefined"
        )
    head = float((1 - lam)) ** (-k) * sqrt(float(delta(badset)))
    return 2 ** k * (head + 3 * float(lam + badset.plancherel_mass))


def exact_weak_tv(group: FiniteGroup, M: ConjugacyClass, k: int) -> Fraction:
    """||H^(x)k - P^(x)k||_1 by full tuple enumeration, exact."""
    h = weak_tuple_law(group, HiddenSubgroup(group, M.representative), k)
    p = weak_tuple_law(group, HiddenSubgroup(group), k)
    return Fraction(sum(abs(a - b) for a, b in zip(h, p)), group.order ** k)


# ---------------------------------------------------------------------------
# The per-tuple kernel and the two enumerations

def _check_tensor_cap(group: FiniteGroup, k: int, tensor_cap: int) -> None:
    """Raise CapExceededError when some k-tuple of irreps exceeds the tensor
    cap.  Every label has positive Plancherel mass, so such a tuple is
    enumerated in exact mode and drawn sooner or later in sampled mode."""
    max_dim = int(character_table(group).dims.max())
    if max_dim ** k > tensor_cap:
        raise CapExceededError(
            f"{k} registers of dimension {max_dim} exceed tensor cap {tensor_cap}"
        )


def _label_projectors(group: FiniteGroup, M: ConjugacyClass) -> tuple[list, list]:
    """Each label's exact weak rank and its (|M|, d, d) stack of Pi_m over
    the members of M, in label order, from the wreath matrices at those
    members only."""
    hidden = HiddenSubgroup(group, M.representative)
    labels = character_table(group).labels
    ranks = [weak_rank(group, lab, hidden) for lab in labels]
    mats = wreath_matrices(group.n, labels, [group.index(m) for m in M.members])
    return ranks, [member_projectors(m, r) for m, r in zip(mats, ranks)]


# rows of _tuple_task's per-basis array
EXP_TV, FULL_TV, VARIANCE, DEVIATION = range(4)
# complex Haar-basis entries per chunk of (tuple, trial) bases (at least one
# basis) and per column slice of a chunk's bases
CHUNK_ENTRIES = 16_384


def _tuple_task(projs, rank_totals, bases, k):
    """B Haar bases (B, D, D) of one register-dimension signature, each
    measuring its own label tuple, with one (B, members, d, d) Pi_m stack
    per register and the B nonzero rank products: the (B, 4) EXP_TV to
    DEVIATION values and the (B, members) L1 distances to uniform.  The
    bases are read in column slices of CHUNK_ENTRIES entries over the stack
    (wide_slices: never one column), a member at a time, so besides the
    bases no array outgrows a slice; a chunk of at most CHUNK_ENTRIES
    entries is one slice.  Each mass has the bits of a whole-basis
    measurement."""
    D = bases.shape[-1]
    raw = np.empty((len(bases), projs[0].shape[1], D))
    for cols in wide_slices(D, CHUNK_ENTRIES // (len(bases) * D)):
        block = np.ascontiguousarray(bases[:, :, cols])  # copied once, not once per member
        for w in range(raw.shape[1]):
            raw[:, w:w + 1, cols] = projected_masses([p[:, w:w + 1] for p in projs], block)
    mean_raw = raw.mean(axis=1)
    probs = raw / rank_totals[:, None, None]
    dists = np.sum(np.abs(probs - 1.0 / D), axis=2)
    rows = (np.sum(np.abs(probs.mean(axis=1) - 1.0 / D), axis=1), dists.mean(axis=1),
            np.mean(np.mean((raw - mean_raw[:, None]) ** 2, axis=1), axis=1),
            np.mean(np.abs(mean_raw - 0.5 ** k), axis=1))
    return np.stack(rows, axis=1), dists


def exact_enumeration(group: FiniteGroup, M: ConjugacyClass, k: int,
                      seed: int, trials: int, threads: int = 1) -> tuple[dict, dict]:
    """Enumerate every label tuple with its exact Plancherel and H weights,
    in one Haar basis per (tuple, trial), and reduce with deterministic
    ordered sums.  Returns the exact-mode fields of the report's "exact"
    section and the quantiles of the per-triple distances.  The (tuple,
    trial) bases are built and measured in chunks of one register-dimension
    signature and at most CHUNK_ENTRIES entries (at least one basis), which
    may split a tuple's trials; a zero-rank tuple's projector is 0, so it
    builds no basis and gets the values of all-zero masses."""
    if trials < 1:
        raise ValueError("need at least one basis trial")
    dims = character_table(group).dims.tolist()
    if len(dims) ** k > EXACT_TUPLE_CAP:
        raise CapExceededError(
            f"{len(dims)}^{k} tuples exceed the exact-mode cap {EXACT_TUPLE_CAP}"
        )
    ranks, projs = _label_projectors(group, M)
    tuples = list(itertools.product(range(len(dims)), repeat=k))
    rows = np.tile(np.array([PESSIMAL_TV, PESSIMAL_TV, 0.0, 0.5 ** k])[:, None],
                   (len(tuples), 1, trials))
    dists = np.full((len(tuples), trials, M.size), PESSIMAL_TV)
    signatures = {}
    for idx, tup in enumerate(tuples):
        if all(ranks[i] for i in tup):
            signatures.setdefault(tuple(dims[i] for i in tup), []).append(idx)
    chunks = []
    for signature, indices in signatures.items():
        # the signature's (tuple index, trial) pairs, in order
        pairs = np.column_stack((np.repeat(indices, trials),
                                 np.tile(np.arange(trials), len(indices))))
        size = max(1, CHUNK_ENTRIES // prod(signature) ** 2)
        chunks += [pairs[s:s + size] for s in range(0, len(pairs), size)]

    def run(chunk):
        ids = chunk[:, 0].tolist()
        D = prod(dims[i] for i in tuples[ids[0]])
        streams = [CounterRng(seed, "bases", idx, t) for idx, t in chunk.tolist()]
        return _tuple_task(
            [np.stack([projs[tuples[idx][r]] for idx in ids]) for r in range(k)],
            np.array([prod(ranks[i] for i in tuples[idx]) for idx in ids]),
            haar_bases(streams, D), k)

    for chunk, (chunk_rows, chunk_dists) in zip(
            chunks, ordered_map(run, chunks, threads=threads)):
        rows[chunk[:, 0], :, chunk[:, 1]] = chunk_rows
        dists[chunk[:, 0], chunk[:, 1]] = chunk_dists

    # the exact tuple laws, in the itertools.product order of `tuples`; a
    # tuple has H weight 0 exactly when one of its ranks is 0
    total = group.order ** k
    planch = weak_tuple_law(group, HiddenSubgroup(group), k)
    hlaw = weak_tuple_law(group, HiddenSubgroup(group, M.representative), k)
    weights_p = np.array([p / total for p in planch])
    weights_h = np.array([h / total for h in hlaw])

    def per_trial(which, weights=weights_p):
        return [kahan_sum(weights * rows[:, which, t]) for t in range(trials)]

    exp_tv, full_tv = per_trial(EXP_TV), per_trial(FULL_TV)
    per_triple = M.size * trials
    fields = {
        "expectation_tv_max": max(exp_tv),
        "expectation_tv_mean": kahan_sum(exp_tv) / trials,
        "full_tv_max": max(full_tv),
        "full_tv_mean": kahan_sum(full_tv) / trials,
        "full_tv_weak_weighted_mean": kahan_sum(per_trial(FULL_TV, weights_h)) / trials,
        "expected_variance_max": max(per_trial(VARIANCE)),
        "expectation_deviation_max": max(per_trial(DEVIATION)),
        "zero_rank_mass": exact_node(
            Fraction(sum(p for p, h in zip(planch, hlaw) if h == 0), total)),
    }
    return fields, _quantiles(dists.reshape(-1),
                              np.repeat(weights_p / per_triple, per_triple))


def _quantiles(values, weights) -> dict:
    return {"p50": weighted_quantile(values, weights, 0.5),
            "p90": weighted_quantile(values, weights, 0.9),
            "max": float(np.max(values))}


def weighted_quantile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight reaches q of the total."""
    order = np.argsort(np.asarray(values), kind="stable")
    vals = np.asarray(values)[order]
    wts = np.asarray(weights)[order]
    total = wts.sum()
    cum = np.cumsum(wts)
    idx = int(np.searchsorted(cum, q * total, side="left"))
    idx = min(idx, len(vals) - 1)
    return float(vals[idx])


def sampled_enumeration(group: FiniteGroup, M: ConjugacyClass, k: int,
                        seed: int, trials: int) -> np.ndarray:
    """Monte Carlo over (tuple, m, basis) triples, for tuple spaces too large
    to enumerate: tuple per-register from the Plancherel measure, m uniform
    in M, basis Haar-seeded.  Returns the (trials,) per-triple L1 distances
    to uniform (pessimal 2 on zero-rank tuples).  _tuple_task measures each
    basis in column slices, so a large basis is the one basis-sized array."""
    dims = character_table(group).dims.tolist()
    ranks, projs = _label_projectors(group, M)
    planch = weak_tuple_law(group, HiddenSubgroup(group), 1)
    cum = np.cumsum([p / group.order for p in planch])
    values = np.full(trials, PESSIMAL_TV)
    for t in range(trials):
        rng = CounterRng(seed, "sampled", t)
        tup = [min(int(np.searchsorted(cum, u, side="right")), len(dims) - 1)
               for u in rng.floats01(0, k)]
        w = rng.index(k, M.size)
        rank_total = prod(ranks[i] for i in tup)
        if rank_total:
            values[t] = _tuple_task(
                [projs[i][None, w:w + 1] for i in tup], np.array([rank_total]),
                rng.sub("basis").haar_basis(prod(dims[i] for i in tup))[None],
                k)[1][0, 0]
    return values


# ---------------------------------------------------------------------------
# The assembled pipeline

def _control_tv(group, k, tensor_cap) -> float:
    """Trivial-subgroup control: the multiregister distribution must be
    exactly uniform, whatever the basis, so the standard one serves.  k
    registers of the first irrep of dimension above 1, the only irrep it
    builds; _check_tensor_cap has passed, so they fit."""
    table = character_table(group)
    pick = next((i for i, d in enumerate(table.dims.tolist()) if d > 1), 0)
    tup = RegisterTuple((label_irrep(group, table.labels[pick]),) * k,
                        tensor_cap=tensor_cap)
    basis = MeasurementBasis.standard(tup.total_dim)
    dist = multiregister_dist(tup, HiddenSubgroup(group), basis)
    uniform = Fraction(1, tup.total_dim)
    return float(sum((abs(p - uniform) for p in dist.exact_values()), Fraction(0)))


def theorem_pipeline(n: int, k: int, seed: int = 0, trials: int = 20,
                     rule=CUTOFF_RULE, tensor_cap: int = DEFAULT_TENSOR_CAP,
                     threads: int = 1) -> dict:
    """End-to-end bound report over the wreath group on 2n points: the
    nested dict that report.json_text prints, in key order.  Exact values
    are {"exact", "value"} nodes; a quantity the mode does not compute is
    None.  n is checked against the wreath matrix cap before any group is
    built."""
    check_wreath_n(n)
    group = cached_group(f"wreath:{n}")
    M = involution_class(group)
    bad = build_bad_set(group, M, rule)
    _check_tensor_cap(group, k, tensor_cap)

    d_val = delta(bad)
    weak_b = weak_tv_bound(bad, k)
    exp_b = expectation_tv_bound(bad, k)
    try:
        full_b = full_tvd_bound(bad, k)
    except BoundUndefinedError:
        full_b = None

    weak_x = exact_weak_tv(group, M, k)
    exact = dict.fromkeys((
        "weak_tv", "expectation_tv_max", "expectation_tv_mean", "full_tv_max",
        "full_tv_mean", "full_tv_weak_weighted_mean", "expected_variance_max",
        "expectation_deviation_max", "zero_rank_mass"))
    exact["weak_tv"] = exact_node(weak_x)
    flags = {"weak_tv": weak_b >= weak_x}
    control = _control_tv(group, k, tensor_cap)
    flags["control_trivial"] = control == 0.0
    cutoff_ok = None
    if rule == CUTOFF_RULE:
        cutoff_ok = flags["lambda_cutoff"] = lambda_cutoff_holds(bad, n)

    if len(character_table(group).labels) ** k <= EXACT_TUPLE_CAP and n <= 3:
        mode = "exact"
        fields, quantiles = exact_enumeration(group, M, k, seed, trials, threads)
    else:
        mode = "sampled"
        values = sampled_enumeration(group, M, k, seed, trials)
        fields = {"full_tv_mean": float(values.mean())}
        quantiles = _quantiles(values, np.ones_like(values))
    exact.update(fields)
    # (mode, flag, bound, the "exact" key the bound must dominate); the
    # mode's links with a defined bound become flags, in this order
    links = (
        ("exact", "expectation_tv", exp_b, "expectation_tv_max"),
        ("exact", "full_tvd", full_b, "full_tv_max"),
        ("exact", "expected_variance", d_val, "expected_variance_max"),
        ("exact", "expectation_deviation", bad.lambda_value + bad.plancherel_mass,
         "expectation_deviation_max"),
        ("sampled", "full_tvd_sampled_mean", full_b, "full_tv_mean"),
    )
    flags.update((flag, float(bound) >= exact[key] - TOL)
                 for link_mode, flag, bound, key in links
                 if link_mode == mode and bound is not None)

    return {
        "report": "bounds",
        "group": group.spec,
        "n": n,
        "k": k,
        "mode": mode,
        "seed": seed,
        "trials": trials,
        "involution_class": {
            "descriptor": str(M.representative),
            "size": M.size,
        },
        "bad_set": {
            "rule": rule if isinstance(rule, str) else "explicit",
            "labels": list(bad.label_strings()),
            "lambda": exact_node(bad.lambda_value),
            "lambda_complement_empty": bad.complement_empty,
            "plancherel_mass": exact_node(bad.plancherel_mass),
        },
        "sum_dims": sum_of_dimensions(group),
        "delta": exact_node(d_val),
        "delta_alt": exact_node(delta_alt(bad)),
        "bounds": {
            "weak_tv": exact_node(weak_b),
            "expectation_tv": exact_node(exp_b),
            "full_tvd": full_b,
            "full_tvd_undefined": full_b is None,
        },
        "exact": exact,
        "quantiles": quantiles,
        "control_trivial_tv": control,
        "lambda_cutoff_ok": cutoff_ok,
        "flags": flags,
        "all_pass": all(flags.values()),
    }


# CSV column -> "."-separated key path into the report, in column order;
# one flag_<name> column per flag follows
_CSV_COLUMNS = (
    ("group", "group"), ("n", "n"), ("k", "k"), ("mode", "mode"),
    ("seed", "seed"), ("trials", "trials"),
    ("class", "involution_class.descriptor"), ("rule", "bad_set.rule"),
    ("lambda", "bad_set.lambda"), ("plancherel_mass", "bad_set.plancherel_mass"),
    ("delta", "delta"), ("delta_alt", "delta_alt"),
    ("weak_bound", "bounds.weak_tv"), ("weak_exact", "exact.weak_tv"),
    ("expectation_bound", "bounds.expectation_tv"),
    ("expectation_exact_max", "exact.expectation_tv_max"),
    ("full_bound", "bounds.full_tvd"), ("full_exact_max", "exact.full_tv_max"),
    ("expected_variance_max", "exact.expected_variance_max"),
    ("zero_rank_mass", "exact.zero_rank_mass"),
    ("control_trivial_tv", "control_trivial_tv"), ("all_pass", "all_pass"),
)


def csv_row(report: dict) -> dict:
    """The report's one CSV row: an exact node gives its float value, None
    a blank cell."""
    row = {}
    for column, path in _CSV_COLUMNS:
        node = report
        for key in path.split("."):
            node = node[key]
        if isinstance(node, dict):
            node = node["value"]
        row[column] = "" if node is None else node
    row.update(("flag_" + name, ok) for name, ok in report["flags"].items())
    return row
