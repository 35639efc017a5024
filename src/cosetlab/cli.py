"""Command-line interface.

Four commands: `irreps` prints representation inventories with exact
integrity checks, `sample` emits measurement distributions, `verify` runs
formula-vs-oracle comparisons, and `bounds` produces the bound-chain
report.

Exit codes: 0 every check passed; 1 a verification or bound check failed;
2 usage error (bad flags, unsupported group, malformed element); 3
precondition or resource error (zero-rank strong measurement, tensor caps,
a bound that is undefined for the requested parameters, a report that
cannot be written).  A --out path that names no file, a directory or a
file in a missing directory is a usage error, found before any group is
built.

Identical (command line, seed) pairs produce byte-identical output for any
--threads value; randomness comes only from the documented counter-based
generator.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from fractions import Fraction
from math import prod

import numpy as np

from . import bounds as bounds_mod
from .errors import (
    BoundUndefinedError,
    CapExceededError,
    CosetLabError,
    GroupMismatchError,
    UnsupportedGroupError,
    ZeroRankError,
)
from .groups import (
    FiniteGroup,
    SymmetricGroup,
    WreathGroup,
    cached_group,
    involution_class,
    parse_cycles,
    parse_permutation,
    parse_wreath_element,
)
from .irreps import (
    DiagonalLabel,
    MatrixRep,
    PairLabel,
    character_table,
    check_matrix_cap,
    class_character,
    exact_int,
    group_irreps,
    label_dim,
    label_matrices,
    label_str,
    parse_label,
    wreath_character,
)
from .oracle import (
    brute_doubled_overlap,
    brute_induced_rep,
    brute_multiregister_moments,
    brute_subset_overlap,
    equality_result,
    exact_result,
    inequality_result,
    rebuilt_matrix,
)
from .rng import CounterRng
from .report import csv_text, emit, exact_node, json_text
from .sampling import (
    DEFAULT_TENSOR_CAP,
    HiddenSubgroup,
    MeasurementBasis,
    RegisterTuple,
    claim_projector_average,
    doubled_expectation,
    expected_isotypic_dimension,
    interference_moments,
    label_tuple_dist,
    projector_sum_bound,
    strong_dist,
    subset_expectation,
    subsets,
    weak_dist,
    weak_dist_tuples,
    weak_rank,
)
from .tableaux import dimension, partitions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

TUPLE_REPORT_CAP = 10_000


# ---------------------------------------------------------------------------
# shared plumbing

def _add_output_flags(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _involution(group: FiniteGroup):
    """The distinguished involution class: block-swap elements for wreath
    groups, the transposition class for symmetric groups."""
    if isinstance(group, WreathGroup):
        return involution_class(group)
    for cls in group.conjugacy_classes():
        if cls.representative.order() == 2:
            return cls
    raise UnsupportedGroupError(f"{group.spec} has no involutions")


def _parse_member(group: FiniteGroup, text: str):
    if isinstance(group, SymmetricGroup):
        if text.strip().startswith("["):
            return parse_permutation(text)
        return parse_cycles(text, group.n)
    return parse_wreath_element(text)


def _resolve_hidden(group: FiniteGroup, args) -> HiddenSubgroup:
    chosen = [args.trivial, args.m is not None, args.m_index is not None]
    if sum(chosen) > 1:
        raise UsageError("choose at most one of --trivial, --m, --m-index")
    if args.trivial:
        return HiddenSubgroup(group)
    if args.m is not None:
        return HiddenSubgroup(group, _parse_member(group, args.m))
    M = _involution(group)
    index = args.m_index if args.m_index is not None else 0
    if not 0 <= index < M.size:
        raise UsageError(f"--m-index out of range, class has {M.size} members")
    return HiddenSubgroup(group, M.members[index])


class UsageError(Exception):
    pass


_COUNT_NOUNS = {"k": "register", "trials": "trial", "threads": "thread"}


def _require_counts(args, *names) -> None:
    """UsageError unless every named count flag is at least 1."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise UsageError(
                f"--{name} must be a positive {_COUNT_NOUNS[name]} count, got {value}"
            )


def _basis_for(args, dim: int, *stream) -> MeasurementBasis:
    if args.basis == "standard":
        return MeasurementBasis.standard(dim)
    return MeasurementBasis.haar(dim, CounterRng(args.seed, "cli", *stream))


def _dist_rows(dist) -> list[dict]:
    rows = []
    exact = dist.exact_values() if dist.exact else None
    floats = dist.values()
    for i, lab in enumerate(dist.labels):
        row = {"outcome": lab, "probability": float(floats[i])}
        if exact is not None:
            row["exact"] = str(exact[i])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# irreps

def cmd_irreps(args) -> int:
    group = cached_group(args.group)
    table = character_table(group)
    classes = group.conjugacy_classes()
    dims = table.dims.tolist()
    order = group.order
    sizes = np.array([c.size for c in classes], dtype=np.int64)
    # exact in int64: each entry is at most |G|^2 in absolute value
    gram = (table.chi * sizes) @ table.chi.T
    ortho_ok = bool(np.array_equal(gram, order * np.eye(len(dims), dtype=np.int64)))
    checks = {"sum_dim_sq": sum(d * d for d in dims) == order,
              "orthogonality": ortho_ok}
    payload = {
        "command": "irreps",
        "group": group.spec,
        "order": order,
        "classes": [
            {"representative": str(c.representative), "size": c.size}
            for c in classes
        ],
        "irreps": [
            {
                "label": name,
                "dim": d,
                "plancherel": exact_node(Fraction(d * d, order)),
                "characters": row,
            }
            for name, d, row in zip(table.names, dims, table.chi.tolist())
        ],
        "checks": checks,
        "all_pass": all(checks.values()),
    }
    if args.format == "csv":
        rows = []
        for entry in payload["irreps"]:
            row = {"label": entry["label"], "dim": entry["dim"],
                   "plancherel": entry["plancherel"]["value"]}
            for c, chi in zip(classes, entry["characters"]):
                row[f"chi@{c.representative}"] = chi
            rows.append(row)
        emit(csv_text(rows), args.out)
    else:
        emit(json_text(payload), args.out)
    return EXIT_OK if payload["all_pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    _require_counts(args, "k")
    group = cached_group(args.group)
    if args.weak and args.strong:
        raise UsageError("--weak and --strong are mutually exclusive")
    if args.strong and args.label is None:
        raise UsageError("--strong needs --label")
    if not (args.weak or args.trivial):
        check_matrix_cap(group)
    hidden = _resolve_hidden(group, args)
    if args.weak:
        dist = (weak_dist(group, hidden) if args.k == 1
                else weak_dist_tuples(group, hidden, args.k))
    elif args.strong:
        target = parse_label(args.label)
        try:
            character_table(group).position(target)
        except KeyError:
            raise UsageError(f"{args.label} is not an irrep of {group.spec}") from None
        basis = _basis_for(args, label_dim(target), "strong", label_str(target))
        dist = strong_dist(group, target, hidden, basis)
    else:
        payload = _tuple_report(group, hidden, args)
        dist = None
    if args.format == "csv":
        rows = (_dist_rows(dist) if dist is not None
                else [_tuple_csv_row(entry) for entry in payload["entries"]])
        emit(csv_text(rows), args.out)
    else:
        emit(json_text(payload if dist is None else dist.to_json_dict()), args.out)
    return EXIT_OK


def _tuple_report(group: FiniteGroup, hidden: HiddenSubgroup, args) -> dict:
    """All label k-tuples with exact weak probabilities, plus the conditional
    multiregister distribution for each tuple in the chosen basis."""
    k = args.k
    table = character_table(group)
    names = table.names
    if len(names) ** k > TUPLE_REPORT_CAP:
        raise CapExceededError(
            f"{len(names)}^{k} tuples exceed the report cap {TUPLE_REPORT_CAP}"
        )
    # the exact tuple law, in itertools.product order
    probs = weak_dist_tuples(group, hidden, k).exact_values()
    dims = table.dims.tolist()
    # each label's matrix at the hidden m: the one row the law reads
    at_m = (None if hidden.trivial else
            label_matrices(group, table.labels, [group.index(hidden.m)]))
    ranks = [weak_rank(group, lab, hidden) for lab in table.labels]

    entries = []
    tuples = itertools.product(range(len(names)), repeat=k)
    for idx, (tup, prob) in enumerate(zip(tuples, probs)):
        D = prod(dims[i] for i in tup)
        conditional = None
        # a zero-rank tuple draws no basis; each tuple has its own stream
        zero_rank = D <= args.tensor_cap and 0 in (ranks[i] for i in tup)
        if D <= args.tensor_cap and not zero_rank:
            basis = _basis_for(args, D, "tuple", idx)
            dist = label_tuple_dist(group, [table.labels[i] for i in tup],
                                    None if at_m is None else [at_m[i] for i in tup],
                                    hidden, basis)
            conditional = [float(v) for v in dist.values()]
        entries.append({
            "labels": [names[i] for i in tup],
            "weak": exact_node(prob),
            "zero_rank": zero_rank,
            "conditional": conditional,
        })
    return {
        "command": "sample",
        "mode": "tuple",
        "group": group.spec,
        "subgroup": hidden.descriptor(),
        "k": k,
        "basis": args.basis,
        "seed": args.seed,
        "outcome_sets": len(entries),
        "weak_total": str(sum(probs, Fraction(0))),
        "entries": entries,
    }


def _tuple_csv_row(entry: dict) -> dict:
    """The CSV row of one tuple-report entry."""
    conditional = entry["conditional"]
    return {
        "labels": ";".join(entry["labels"]),
        "weak_exact": entry["weak"]["exact"],
        "weak": entry["weak"]["value"],
        "zero_rank": entry["zero_rank"],
        "conditional_sum": "" if conditional is None else sum(conditional),
    }


# ---------------------------------------------------------------------------
# verify

def _default_groups(args, fallback):
    if args.group:
        return [cached_group(args.group)]
    return [cached_group(s) for s in fallback]


def _register_trials(args, irreps_of, lemma, doubled=True):
    """(group, trials) per group of a random-register lemma.  Trial t draws
    k registers from the stream (seed, "verify", lemma, group, t), k copies
    of the first irrep when they exceed the tensor cap, and a unit vector
    from that stream's "vec" sub-stream, and yields (t, rng, registers, b).
    With doubled, a trial whose doubled dimension D^2 exceeds the tensor
    cap is skipped, with one line on stderr."""
    def trials(group):
        reps = irreps_of(group)
        for t in range(args.trials):
            rng = CounterRng(args.seed, "verify", lemma, group.spec, t)
            tup = tuple(reps[rng.index(i, len(reps))] for i in range(args.k))
            if prod(r.dim for r in tup) > args.tensor_cap:
                tup = (reps[0],) * args.k
            regs = RegisterTuple(tup, tensor_cap=args.tensor_cap)
            if doubled and regs.total_dim ** 2 > args.tensor_cap:
                print(f"skip {lemma} {group.spec} k={args.k} trial={t}: doubled "
                      f"dimension {regs.total_dim ** 2} exceeds tensor cap "
                      f"{args.tensor_cap}", file=sys.stderr)
                continue
            yield t, rng, regs, rng.sub("vec").unit_vector(regs.total_dim)

    for group in _default_groups(args, ("wreath:2",)):
        yield group, trials(group)


def _lemma_rank(args, irreps_of) -> list:
    results = []
    for group in _default_groups(args, ("wreath:2", "wreath:3")):
        M = _involution(group)
        hidden = HiddenSubgroup(group, M.representative)
        for rep in irreps_of(group):
            proj = 0.5 * (np.eye(rep.dim) + rebuilt_matrix(rep, M.representative))
            oracle_rank = exact_int(np.trace(proj),
                                    f"oracle trace of Pi_m in {rep.name}")
            results.append(exact_result(
                f"rank {group.spec} {rep.name}",
                weak_rank(group, rep.label, hidden),
                oracle_rank,
            ))
    return results


def _lemma_expectation(args, irreps_of) -> list:
    results = []
    for group, trials in _register_trials(args, irreps_of, "expectation",
                                          doubled=False):
        M = _involution(group)
        for t, rng, regs, b in trials:
            full = tuple(range(args.k))
            formula = subset_expectation(regs, b, full, M)
            oracle_v = brute_subset_overlap(regs.irreps, b, full, M)
            results.append(equality_result(
                f"expectation {group.spec} k={args.k} trial={t}", formula, oracle_v
            ))
            if args.k > 1:
                mask = rng.index(100, 2 ** args.k)
                sub = subsets(args.k)[mask]
                formula = subset_expectation(regs, b, sub, M)
                oracle_v = brute_subset_overlap(regs.irreps, b, sub, M)
                results.append(equality_result(
                    f"expectation {group.spec} subset={sub} trial={t}",
                    formula, oracle_v,
                ))
    return results


def _lemma_second_moment(args, irreps_of) -> list:
    results = []
    for group, trials in _register_trials(args, irreps_of, "second-moment"):
        M = _involution(group)
        for t, rng, regs, b in trials:
            full = tuple(range(args.k))
            pairs = [(full, full)]
            subs = subsets(args.k)
            pairs.append((subs[rng.index(200, 2 ** args.k)],
                          subs[rng.index(201, 2 ** args.k)]))
            for first, second in pairs:
                formula = doubled_expectation(regs, b, first, second, M)
                oracle_v = brute_doubled_overlap(regs.irreps, b, first, second, M)
                results.append(equality_result(
                    f"second-moment {group.spec} I1={first} I2={second} trial={t}",
                    formula, oracle_v,
                ))
    return results


def _lemma_multiregister(args, irreps_of) -> list:
    results = []
    for group, trials in _register_trials(args, irreps_of, "multiregister"):
        M = _involution(group)
        for t, _, regs, b in trials:
            moments = interference_moments(regs, b, M)
            mean_o, var_o = brute_multiregister_moments(regs.irreps, b, M)
            tag = f"{group.spec} k={args.k} trial={t}"
            results.append(equality_result(
                f"multiregister mean {tag}", moments.expectation, mean_o))
            results.append(equality_result(
                f"multiregister variance {tag}", moments.variance, var_o))
            results.append(inequality_result(
                f"multiregister variance bound {tag}",
                moments.variance_bound, var_o))
    return results


def _lemma_claim_average(args, irreps_of) -> list:
    results = []
    for group in _default_groups(args, ("sym:3", "wreath:2")):
        reps = irreps_of(group)
        for rep in reps:
            for t in range(min(args.trials, 5)):
                rng = CounterRng(args.seed, "verify", "claim", group.spec,
                                 rep.name, t)
                b = rng.unit_vector(rep.dim)
                lhs, rhs = claim_projector_average(rep, b)
                tag = f"{group.spec} {rep.name} trial={t}"
                results.append(equality_result(
                    f"claim lhs=1/d {tag}", lhs, 1.0 / rep.dim))
                results.append(equality_result(
                    f"claim rhs=1/d {tag}", rhs, 1.0 / rep.dim))
        # a genuinely reducible instance: the tensor square of the last irrep
        rep = reps[-1]
        stack = np.einsum("gij,gkl->gikjl", rep.stack, rep.stack)
        stack = stack.reshape(group.order, rep.dim ** 2, rep.dim ** 2)
        square = MatrixRep(group, stack, f"{rep.name}^2")
        rng = CounterRng(args.seed, "verify", "claim", group.spec, "square")
        b = rng.unit_vector(square.dim)
        lhs, rhs = claim_projector_average(square, b)
        results.append(inequality_result(
            f"claim reducible {group.spec} {square.name}", rhs, lhs))
    return results


def _lemma_projector_sum(args, irreps_of) -> list:
    results = []
    for group, trials in _register_trials(args, irreps_of, "projector-sum"):
        reps = irreps_of(group)
        for t, rng, regs, b in trials:
            sigma = reps[rng.index(300, len(reps))]
            lhs, rhs = projector_sum_bound(regs, sigma, b)
            results.append(inequality_result(
                f"projector-sum {group.spec} sigma={sigma.name} trial={t}",
                rhs, lhs,
            ))
    return results


def _lemma_induced(args, irreps_of) -> list:
    results = []
    for n in [cached_group(args.group).n] if args.group else [2, 3]:
        group = cached_group(f"wreath:{n}")
        classes = group.conjugacy_classes()
        parts = list(partitions(n))
        for i, rho in enumerate(parts):
            for sigma in parts[i:]:
                induced = brute_induced_rep(n, rho, sigma)
                for cls, got in zip(classes, class_character(induced)):
                    g = cls.representative
                    if rho == sigma:
                        want = (wreath_character(DiagonalLabel(rho, 1), g)
                                + wreath_character(DiagonalLabel(rho, -1), g))
                    else:
                        want = wreath_character(PairLabel(rho, sigma), g)
                    results.append(exact_result(
                        f"induced wreath:{n} {rho}x{sigma} at {g}", want, got))
        # normalized characters at the swap class, and the matrix truth of
        # the diagonal labels on flip elements
        M = involution_class(group)
        column = character_table(group).chi[:, group.class_position(M.representative)]
        for rep, x in zip(irreps_of(group), column.tolist()):
            lab = rep.label
            chi = Fraction(x, rep.dim)
            if isinstance(lab, PairLabel):
                want = Fraction(0)
            else:
                want = Fraction(lab.sign, dimension(lab.rho))
            results.append(exact_result(
                f"normalized char at M wreath:{n} {rep.name}", want, chi))
            if isinstance(lab, DiagonalLabel):
                traces = rep.traces()
                for cls in classes:
                    if not cls.representative.flip:
                        continue
                    g = cls.representative
                    results.append(equality_result(
                        f"diagonal flip trace wreath:{n} {rep.name} at {g}",
                        wreath_character(lab, g), complex(traces[group.index(g)]),
                    ))
    return results


def _lemma_expected_decomp(args, irreps_of) -> list:
    results = []
    if args.group:
        configs = [(cached_group(args.group), args.k)]
    else:
        configs = [(cached_group("sym:3"), min(args.k, 3)),
                   (cached_group("wreath:2"), min(args.k, 2))]
    for group, k in configs:
        table = character_table(group)
        for sigma, name, d in zip(table.labels, table.names, table.dims.tolist()):
            want = Fraction(d * d, group.order)
            for subset in subsets(k, nonempty=True):
                got = expected_isotypic_dimension(sigma, subset, k, group)
                results.append(exact_result(
                    f"expected-decomp {group.spec} k={k} sigma={name} I={subset}",
                    want, got,
                ))
    return results


# the lemmas that measure at the distinguished involution class
_INVOLUTION_LEMMAS = {"rank", "expectation", "second-moment", "multiregister"}

_LEMMAS = {
    "rank": _lemma_rank,
    "expectation": _lemma_expectation,
    "second-moment": _lemma_second_moment,
    "multiregister": _lemma_multiregister,
    "claim-average": _lemma_claim_average,
    "projector-sum": _lemma_projector_sum,
    "induced": _lemma_induced,
    "expected-decomp": _lemma_expected_decomp,
}


def cmd_verify(args) -> int:
    _require_counts(args, "k", "trials")
    if args.lemma == "all":
        names = list(_LEMMAS)
        args.trials = min(args.trials, 10)
    else:
        names = [args.lemma]
    if args.group:
        # each chosen lemma's precondition on the group, before any lemma runs
        group = cached_group(args.group)
        if "induced" in names and not (isinstance(group, WreathGroup) and group.n <= 3):
            raise UsageError("--lemma induced needs a wreath group with n <= 3")
        if set(names) - {"expected-decomp"}:
            check_matrix_cap(group)
        if _INVOLUTION_LEMMAS.intersection(names):
            _involution(group)
    built = {}

    def irreps_of(group: FiniteGroup) -> tuple:
        # one set of stacks per group spec for the whole run
        if group.spec not in built:
            built[group.spec] = group_irreps(group)
        return built[group.spec]

    results = []
    for name in names:
        results.extend(_LEMMAS[name](args, irreps_of))
    failed = [r for r in results if not r.passed]
    payload = {
        "command": "verify",
        "lemma": args.lemma,
        "group": args.group,
        "k": args.k,
        "trials": args.trials,
        "seed": args.seed,
        "results": [r.to_json_dict() for r in results],
        "pass_count": len(results) - len(failed),
        "fail_count": len(failed),
        "all_pass": not failed,
    }
    if args.format == "csv":
        emit(csv_text([r.to_json_dict() for r in results]), args.out)
    else:
        emit(json_text(payload), args.out)
    for r in failed:
        print(f"FAIL {r.name}: formula={r.formula_value} oracle={r.oracle_value}",
              file=sys.stderr)
    return EXIT_OK if not failed else EXIT_FAIL


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(args) -> int:
    _require_counts(args, "k", "trials", "threads")
    if args.lambda_all and args.labels is not None:
        raise UsageError("--lambda-all and --labels are mutually exclusive")
    rule = bounds_mod.CUTOFF_RULE
    if args.lambda_all:
        rule = "empty"
    elif args.labels is not None:
        rule = [s.strip() for s in args.labels.split(";")]
    report = bounds_mod.theorem_pipeline(
        args.n, args.k, seed=args.seed, trials=args.trials, rule=rule,
        tensor_cap=args.tensor_cap, threads=args.threads,
    )
    if args.full_tvd and report["bounds"]["full_tvd_undefined"]:
        print("full bound undefined: the largest normalized character outside "
              "the bad set is >= 1", file=sys.stderr)
        return EXIT_RESOURCE
    if args.format == "csv":
        emit(csv_text([bounds_mod.csv_row(report)]), args.out)
    else:
        emit(json_text(report), args.out)
    return EXIT_OK if report["all_pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetlab",
        description="Exact Fourier-sampling laboratory for symmetric and "
                    "wreath product groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("irreps", help="list irreps with exact integrity checks")
    p.add_argument("--group", required=True, help="sym:n or wreath:n")
    _add_output_flags(p)
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("sample", help="emit measurement distributions")
    p.add_argument("--group", required=True)
    p.add_argument("--m", default=None,
                   help='hidden involution: cycles "(01)" or image list for '
                        'sym:n, "([..],[..],t)" for wreath:n')
    p.add_argument("--m-index", type=int, default=None,
                   help="index into the distinguished involution class")
    p.add_argument("--trivial", action="store_true",
                   help="trivial hidden subgroup (control)")
    p.add_argument("--weak", action="store_true",
                   help="representation-name distribution only")
    p.add_argument("--strong", action="store_true",
                   help="within-representation distribution; needs --label")
    p.add_argument("--label", default=None, help="irrep label for --strong")
    p.add_argument("--k", type=int, default=1, help="number of registers")
    p.add_argument("--basis", choices=("standard", "haar"), default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor-cap", type=int, default=DEFAULT_TENSOR_CAP)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="formula-vs-oracle comparisons")
    p.add_argument("--lemma", required=True, choices=sorted(_LEMMAS) + ["all"])
    p.add_argument("--group", default=None,
                   help="override the lemma's default group matrix")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor-cap", type=int, default=DEFAULT_TENSOR_CAP)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="bound-chain report for wreath:n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--labels", default=None,
                   help='explicit bad-set labels, ";"-separated (default: '
                        "the diagonal labels of base dimension d^5 < n^n)")
    p.add_argument("--lambda-all", action="store_true",
                   help="empty bad set, so lambda ranges over every irrep")
    p.add_argument("--full-tvd", action="store_true",
                   help="fail with exit 3 if the full bound is undefined")
    p.add_argument("--threads", type=int, default=1,
                   help="size of exact mode's thread pool (sampled mode runs "
                        "on one thread); the report bytes do not depend on it")
    p.add_argument("--tensor-cap", type=int, default=DEFAULT_TENSOR_CAP)
    _add_output_flags(p)
    p.set_defaults(func=cmd_bounds)
    return parser


# Exit code per exception type.  The first match wins, so the CosetLabError
# subclasses that are usage or resource errors come before the catch-all.
EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    (UnsupportedGroupError, EXIT_USAGE),
    (GroupMismatchError, EXIT_USAGE),
    (ZeroRankError, EXIT_RESOURCE),
    (CapExceededError, EXIT_RESOURCE),
    (BoundUndefinedError, EXIT_RESOURCE),
    (ValueError, EXIT_USAGE),
    (CosetLabError, EXIT_FAIL),
    (OSError, EXIT_RESOURCE),  # the report could not be written
)


def _check_out(out: str) -> None:
    """UsageError unless out names a file in an existing directory."""
    if not os.path.basename(out):
        raise UsageError(f"--out {out!r} names no file")
    if os.path.isdir(out):
        raise UsageError(f"--out {out} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"--out {out}: no such directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
