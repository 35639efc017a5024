import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab import cli, groups, irreps, oracle, rng, sampling
from cosetlab.cli import _LEMMAS, main
from cosetlab.groups import cached_group, parse_cycles
from cosetlab.irreps import CharacterTable, MatrixRep, character_table
from cosetlab.report import csv_text


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_irreps_sym3(capsys):
    code, d = run_json(capsys, ["irreps", "--group", "sym:3"])
    assert code == 0
    assert d["schema"] == 1
    assert [r["label"] for r in d["irreps"]] == ["[3]", "[2,1]", "[1,1,1]"]
    assert sorted(r["dim"] for r in d["irreps"]) == [1, 1, 2]
    assert d["all_pass"]


def test_irreps_wreath2(capsys):
    code, d = run_json(capsys, ["irreps", "--group", "wreath:2"])
    assert code == 0
    assert len(d["irreps"]) == 5
    assert sum(r["dim"] ** 2 for r in d["irreps"]) == 8
    assert d["checks"]["orthogonality"]


def test_irreps_sym0(capsys):
    code, d = run_json(capsys, ["irreps", "--group", "sym:0"])
    assert code == 0
    assert len(d["irreps"]) == 1
    assert d["irreps"][0]["dim"] == 1


def test_irreps_unknown_group(capsys):
    assert main(["irreps", "--group", "foo:3"]) == 2


def test_weak_sample_values(capsys):
    code, d = run_json(capsys, ["sample", "--group", "sym:3", "--weak", "--m", "(01)"])
    assert code == 0
    probs = {o["label"]: o["exact"] for o in d["outcomes"]}
    assert probs == {"[3]": "1/3", "[2,1]": "2/3", "[1,1,1]": "0"}


def test_weak_tuple_sample(capsys):
    code, d = run_json(
        capsys, ["sample", "--group", "sym:3", "--weak", "--m", "(01)", "--k", "2"]
    )
    assert code == 0
    assert len(d["outcomes"]) == 9
    from fractions import Fraction

    assert sum(Fraction(o["exact"]) for o in d["outcomes"]) == 1


def test_strong_pinned(capsys):
    code, d = run_json(capsys, [
        "sample", "--group", "sym:3", "--strong", "--label", "[2,1]", "--m", "(01)",
    ])
    assert code == 0
    assert [o["probability"] for o in d["outcomes"]] == ["1", "0"]


def test_strong_trivial_uniform(capsys):
    code, d = run_json(capsys, [
        "sample", "--group", "sym:3", "--strong", "--label", "[2,1]",
        "--trivial", "--basis", "haar", "--seed", "3",
    ])
    assert code == 0
    assert [o["exact"] for o in d["outcomes"]] == ["1/2", "1/2"]


def test_strong_zero_rank_exit3(capsys):
    assert main(["sample", "--group", "wreath:2", "--strong",
                 "--label", "([2],-)"]) == 3


def test_strong_needs_label(capsys):
    assert main(["sample", "--group", "sym:3", "--strong"]) == 2
    # a usage error comes before the matrix cap
    assert main(["sample", "--group", "sym:8", "--strong"]) == 2
    assert capsys.readouterr().err.endswith("error: --strong needs --label\n")


@pytest.mark.parametrize("group,label", [
    ("sym:3", "[2,1]"), ("wreath:2", "([2],+)"), ("wreath:3", "{[3],[2,1]}"),
])
def test_strong_builds_only_its_labels_irrep(monkeypatch, capsys, group, label):
    # same stdout with group_irreps refusing; the label's matrix is built
    # once, at the hidden m alone, and not at all for the trivial subgroup
    def refuse(*args):
        raise AssertionError("every irrep stack of the group was built")

    label_matrices = irreps.label_matrices
    calls = []

    def recording(group, labels, elements):
        calls.append((list(labels), list(elements)))
        return label_matrices(group, labels, elements)

    for extra, want_calls in (([], 1), (["--trivial"], 0)):
        argv = ["sample", "--group", group, "--strong", "--label", label,
                "--basis", "haar", "--seed", "2", *extra]
        with monkeypatch.context() as patched:
            assert main(argv) == 0
            want = capsys.readouterr()
            patched.setattr(irreps, "group_irreps", refuse)
            patched.setattr(cli, "group_irreps", refuse)
            patched.setattr(sampling, "group_irreps", refuse)
            patched.setattr(sampling, "label_matrices", recording)
            calls.clear()
            assert main(argv) == 0
            assert capsys.readouterr() == want
        assert len(calls) == want_calls
        for labels, elements in calls:
            assert [irreps.label_str(lab) for lab in labels] == [label]
            assert len(elements) == 1


@pytest.mark.parametrize("group,label", [("sym:3", "[3,1]"), ("wreath:2", "[2]"),
                                         ("sym:3", "([2,1],+)"), ("wreath:2", "([3],+)")])
def test_strong_refuses_a_label_of_another_group(capsys, group, label):
    assert main(["sample", "--group", group, "--strong", "--label", label]) == 2
    assert capsys.readouterr() == ("", f"error: {label} is not an irrep of {group}\n")


def test_tuple_report(capsys):
    code, d = run_json(capsys, [
        "sample", "--group", "wreath:2", "--k", "2", "--basis", "haar",
        "--seed", "7",
    ])
    assert code == 0
    assert d["outcome_sets"] == 25
    assert d["weak_total"] == "1"
    zero = [e for e in d["entries"] if e["zero_rank"]]
    assert len(zero) == 16
    for e in d["entries"]:
        if e["conditional"] is not None:
            assert sum(e["conditional"]) == pytest.approx(1.0, abs=1e-9)
        else:
            assert e["zero_rank"] or e["weak"]["exact"] == "0"


@pytest.mark.parametrize("argv", [
    ["--group", "sym:3", "--k", "2"],
    ["--group", "sym:4", "--k", "2", "--basis", "haar", "--m", "(01)(23)"],
    ["--group", "wreath:2", "--k", "2", "--m-index", "1", "--basis", "haar"],
    ["--group", "wreath:3", "--k", "2", "--basis", "haar", "--tensor-cap", "8"],
    ["--group", "wreath:3", "--k", "2", "--trivial", "--basis", "haar"],
])
def test_tuple_report_builds_matrices_only_at_the_hidden_m(monkeypatch, capsys, argv):
    # same stdout with every all-stack builder refusing; each label's
    # matrices are built once, at the hidden m alone (none for --trivial)
    argv = ["sample", "--seed", "3", *argv]
    assert main(argv) == 0
    want = capsys.readouterr()

    def refuse(*args):
        raise AssertionError("every irrep stack of the group was built")

    monkeypatch.setattr(irreps, "group_irreps", refuse)
    monkeypatch.setattr(cli, "group_irreps", refuse)
    label_matrices = irreps.label_matrices
    calls = []

    def recording(group, labels, elements):
        calls.append((len(labels), list(elements)))
        return label_matrices(group, labels, elements)

    monkeypatch.setattr(cli, "label_matrices", recording)
    assert main(argv) == 0
    assert capsys.readouterr() == want
    group = cached_group(argv[argv.index("--group") + 1])
    if "--trivial" in argv:
        assert calls == []
    else:
        (count, elements), = calls
        assert count == len(character_table(group).labels) and len(elements) == 1
        assert json.loads(want.out)["subgroup"] == str(group.elements[elements[0]])


def test_label_matrices_have_the_bytes_of_the_irrep_stacks():
    for spec in ("sym:1", "sym:3", "sym:4", "wreath:2", "wreath:3"):
        group = cached_group(spec)
        labels = character_table(group).labels
        picks = [0, group.order - 1, group.order // 2, 0]
        for rep, mats in zip(irreps.group_irreps(group),
                             irreps.label_matrices(group, labels, picks), strict=True):
            assert mats.tobytes() == rep.stack[picks].tobytes()


def test_tuple_report_draws_no_basis_for_zero_rank_tuples(monkeypatch, capsys):
    # wreath:4 has 20 labels, two of rank 0 at the swap class: 18 bases,
    # with the bytes of a run that drew all 20
    argv = ["sample", "--group", "wreath:4", "--k", "1", "--basis", "haar"]
    assert main(argv) == 0
    want = capsys.readouterr()
    haar_bases = rng.haar_bases
    drawn = []

    def counting(streams, d):
        drawn.append(len(streams))
        return haar_bases(streams, d)

    monkeypatch.setattr(rng, "haar_bases", counting)
    assert main(argv) == 0
    assert capsys.readouterr() == want
    assert sum(drawn) == 18
    assert sum(e["zero_rank"] for e in json.loads(want.out)["entries"]) == 2


SYM8 = "error: orthogonal-form matrices are capped at n <= 7, got n = 8\n"


@pytest.mark.parametrize("argv,err", [
    (["sample", "--group", "sym:8", "--k", "1"], SYM8),
    (["sample", "--group", "sym:8", "--strong", "--label", "[8]"], SYM8),
    (["sample", "--group", "wreath:5", "--k", "1"],
     "error: wreath irrep matrices are capped at n <= 4, got n = 5\n"),
    (["verify", "--lemma", "expectation", "--group", "sym:8", "--k", "1",
      "--trials", "1"], SYM8),
], ids=["sample-k", "sample-strong", "sample-wreath", "verify"])
def test_the_matrix_cap_is_checked_before_any_class(monkeypatch, capsys, argv, err):
    def refuse(self):
        raise AssertionError("classes were built before the matrix cap check")

    monkeypatch.setattr(groups.FiniteGroup, "conjugacy_classes", refuse)
    assert main(argv) == 3
    assert capsys.readouterr() == ("", err)


def test_the_trivial_subgroup_reads_no_matrix_above_the_cap(capsys):
    code, d = run_json(capsys, ["sample", "--group", "sym:8", "--trivial",
                                "--strong", "--label", "[8]"])
    assert code == 0
    assert [(o["label"], o["exact"]) for o in d["outcomes"]] == [("b0", "1")]
    code, d = run_json(capsys, ["sample", "--group", "sym:8", "--trivial", "--k", "1"])
    assert code == 0 and d["weak_total"] == "1"
    code, d = run_json(capsys, ["verify", "--lemma", "expected-decomp",
                                "--group", "sym:8", "--k", "1"])
    assert code == 0 and d["all_pass"]


def test_sample_flag_conflicts(capsys):
    assert main(["sample", "--group", "sym:3", "--weak", "--strong"]) == 2
    assert main(["sample", "--group", "sym:3", "--weak", "--trivial",
                 "--m", "(01)"]) == 2
    assert main(["sample", "--group", "wreath:2", "--weak",
                 "--m-index", "99"]) == 2


def test_non_involution_m_rejected(capsys):
    assert main(["sample", "--group", "sym:3", "--weak", "--m", "(012)"]) == 2


def test_verify_negative_k_is_a_usage_error(capsys):
    assert main(["verify", "--lemma", "expected-decomp", "--k", "-2"]) == 2
    assert "register count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--lemma", "expectation", "--k", "2", "--trials", "-1"],
    ["verify", "--lemma", "all", "--trials", "0"],
    ["verify", "--lemma", "expected-decomp", "--k", "0"],
    ["bounds", "--n", "2", "--threads", "-2"],
    ["bounds", "--n", "2", "--threads", "0"],
    ["bounds", "--n", "2", "--k", "0"],
    ["bounds", "--n", "2", "--trials", "-1"],
    ["sample", "--group", "sym:3", "--weak", "--k", "0"],
    ["sample", "--group", "sym:3", "--weak", "--k", "-1"],
], ids=" ".join)
def test_out_of_range_count_is_a_usage_error(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the count check")

    monkeypatch.setattr(cli, "cached_group", refuse)
    monkeypatch.setattr(cli.bounds_mod, "theorem_pipeline", refuse)
    assert main(argv) == 2
    assert "must be a positive" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["{[2][1,1]}", "{[2]"])
def test_malformed_label_is_a_usage_error(capsys, label):
    assert main(["sample", "--group", "sym:3", "--strong", "--label", label]) == 2
    assert capsys.readouterr().err == f"error: cannot parse irrep label {label!r}\n"


def test_verify_rank(capsys):
    code, d = run_json(capsys, ["verify", "--lemma", "rank"])
    assert code == 0
    assert d["fail_count"] == 0
    assert d["pass_count"] == 14


def test_verify_expectation(capsys):
    code, d = run_json(capsys, [
        "verify", "--lemma", "expectation", "--group", "wreath:2",
        "--k", "2", "--trials", "5", "--seed", "1",
    ])
    assert code == 0
    assert d["all_pass"]
    assert d["pass_count"] == 10


def test_verify_claim_average_sym3(capsys):
    code, d = run_json(capsys, ["verify", "--lemma", "claim-average",
                                "--group", "sym:3", "--trials", "3"])
    assert code == 0
    assert d["all_pass"]


def test_verify_all_small(capsys):
    code, d = run_json(capsys, ["verify", "--lemma", "all", "--trials", "2",
                                "--k", "2"])
    assert code == 0
    assert d["all_pass"]
    assert d["pass_count"] > 150


def _halved_masses(monkeypatch):
    masses = sampling._class_masses
    monkeypatch.setattr(sampling, "_class_masses", lambda *args: 0.5 * masses(*args))


def _negated_isotypic_masses(monkeypatch):
    masses = sampling.isotypic_masses
    monkeypatch.setattr(sampling, "isotypic_masses", lambda *args: -masses(*args))


def _doubled_sym3_dimension(monkeypatch):
    table = sampling.character_table(cached_group("sym:3"))
    dims = table.dims.copy()
    dims[2] *= 2
    bad = CharacterTable(table.labels, table.names, dims, table.chi)
    character_table = sampling.character_table
    monkeypatch.setattr(sampling, "character_table",
                        lambda g: bad if g.spec == "sym:3" else character_table(g))


@pytest.mark.parametrize("lemma,group,corrupt,failing", [
    ("claim-average", "sym:3", _halved_masses, "claim rhs=1/d sym:3 [2,1] trial=0"),
    ("projector-sum", "wreath:2", _negated_isotypic_masses, "projector-sum wreath:2"),
    ("expected-decomp", "sym:3", _doubled_sym3_dimension,
     "expected-decomp sym:3 k=2 sigma=[3] I=(0,)"),
], ids=["claim-average", "projector-sum", "expected-decomp"])
def test_verify_reports_a_failing_lemma_in_full(monkeypatch, capsys, lemma, group,
                                                corrupt, failing):
    corrupt(monkeypatch)
    code = main(["verify", "--lemma", lemma, "--group", group, "--k", "2",
                 "--trials", "2"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1
    failed = [r["name"] for r in report["results"] if not r["pass"]]
    assert report["fail_count"] == len(failed) >= 1
    assert not report["all_pass"]
    assert any(name.startswith(failing) for name in failed)
    assert f"FAIL {failing}" in captured.err


def _shifted_rebuilt_matrix(rep, g):
    return oracle.rebuilt_matrix(rep, g) + 0.1 * np.eye(rep.dim)


def _shifted_induced(n, rho, sigma):
    induced = oracle.brute_induced_rep(n, rho, sigma)
    return MatrixRep(induced.group, induced.stack + 0.1 * np.eye(induced.dim),
                     induced.name)


@pytest.mark.parametrize("lemma,target,corrupt,message", [
    ("rank", "rebuilt_matrix", _shifted_rebuilt_matrix,
     "error: oracle trace of Pi_m in "),
    ("induced", "brute_induced_rep", _shifted_induced, "error: induced{"),
], ids=["rank", "induced"])
def test_a_non_integer_oracle_trace_is_a_typed_error(monkeypatch, capsys, lemma,
                                                     target, corrupt, message):
    monkeypatch.setattr(cli, target, corrupt)
    assert main(["verify", "--lemma", lemma, "--group", "wreath:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.endswith(" is not an integer within tolerance\n")


@pytest.mark.parametrize("argv,message", [
    (["verify", "--lemma", "all", "--group", "wreath:4"],
     "--lemma induced needs a wreath group with n <= 3"),
    (["verify", "--lemma", "all", "--group", "sym:3"],
     "--lemma induced needs a wreath group with n <= 3"),
    (["verify", "--lemma", "expectation", "--group", "sym:1"], "sym:1 has no involutions"),
], ids=["wreath:4", "sym:3", "no-involution"])
def test_verify_checks_every_lemmas_group_before_the_first_lemma(monkeypatch, capsys,
                                                                 argv, message):
    def refuse(group):
        raise AssertionError("a lemma ran before the group preconditions")

    monkeypatch.setattr(cli, "group_irreps", refuse)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("lemma", ["multiregister", "projector-sum"])
def test_verify_refuses_too_many_subset_pairs_before_any_pair(monkeypatch, capsys,
                                                               lemma):
    # 4^16 subset pairs; registers beyond the tensor cap fall back to
    # dimension 1, so only the pair cap stops the run
    def refuse(*args):
        raise AssertionError("a subset pair was computed")

    monkeypatch.setattr(sampling, "doubled_isotypic_masses", refuse)
    monkeypatch.setattr(sampling, "isotypic_masses", refuse)
    assert main(["verify", "--lemma", lemma, "--group", "wreath:2", "--k", "16",
                 "--trials", "1"]) == 3
    assert capsys.readouterr() == ("", "error: 4^16 subset pairs exceed cap 4096\n")


@pytest.mark.parametrize("lemma", ["multiregister", "projector-sum"])
def test_the_subset_pair_cap_stops_k_7_and_lets_k_6_run(monkeypatch, capsys, lemma):
    # the cap is 4^6 subset pairs: k = 6 runs, k = 7 stops before any pair
    assert main(["verify", "--lemma", lemma, "--group", "wreath:2", "--k", "6",
                 "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]

    def refuse(*args):
        raise AssertionError("a subset pair was computed")

    monkeypatch.setattr(sampling, "doubled_isotypic_masses", refuse)
    monkeypatch.setattr(sampling, "isotypic_masses", refuse)
    assert main(["verify", "--lemma", lemma, "--group", "wreath:2", "--k", "7",
                 "--trials", "1"]) == 3
    assert capsys.readouterr() == ("", "error: 4^7 subset pairs exceed cap 4096\n")


def test_verify_builds_each_groups_stacks_once(monkeypatch, capsys):
    group_irreps = cli.group_irreps
    built = []

    def recording(group):
        built.append(group.spec)
        return group_irreps(group)

    monkeypatch.setattr(cli, "group_irreps", recording)
    code, d = run_json(capsys, ["verify", "--lemma", "all", "--group", "wreath:3",
                                "--k", "2", "--trials", "1"])
    assert code == 0 and d["all_pass"]
    assert built == ["wreath:3"]


@pytest.mark.parametrize("command", [
    ["irreps", "--group", "sym:3"],
    ["sample", "--group", "sym:3", "--weak"],
    ["verify", "--lemma", "rank"],
    ["bounds", "--n", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", [["--cache-dir", "stacks"], ["--no-cache"]],
                         ids=lambda flag: flag[0])
def test_cache_flags_are_usage_errors(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(command + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_csv(capsys):
    code = main(["verify", "--lemma", "rank", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.split("\r\n")[0]
    assert header.startswith("name,kind,formula,oracle")


def test_csv_rows_must_share_the_first_rows_keys():
    assert csv_text([{"a": 1, "b": 2}, {"a": 3, "b": 4}]) == "a,b\r\n1,2\r\n3,4\r\n"
    with pytest.raises(ValueError, match="'c'"):
        csv_text([{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}])


def test_bounds_cutoff_example(capsys):
    code, d = run_json(capsys, ["bounds", "--n", "2", "--k", "1", "--trials", "4"])
    assert code == 0
    assert d["bad_set"]["rule"] == "paper"
    assert d["bad_set"]["lambda"]["exact"] == "0"
    assert d["all_pass"]
    # the dimension cutoff is the default rule, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "2", "--cutoff", "paper"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cutoff paper" in capsys.readouterr().err


def test_an_odd_weak_rank_is_a_typed_error(monkeypatch, capsys):
    # chi(m) of [2,1] at a transposition shifted from 0 to 1 makes the
    # rank (d + chi(m)) / 2 = 3/2
    group = cached_group("sym:3")
    table = character_table(group)
    chi = table.chi.copy()
    chi[table.position((2, 1)), group.class_position(parse_cycles("(01)", 3))] += 1
    monkeypatch.setitem(irreps._TABLE_CACHE, group.spec, CharacterTable(
        table.labels, table.names, table.dims, chi))
    assert main(["sample", "--group", "sym:3", "--weak", "--m", "(01)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rank (d + chi(m)) / 2 = (2 + 1) / 2 of [2,1]")
    assert captured.err.count("\n") == 1


def test_bounds_lambda_all(capsys):
    code, d = run_json(capsys, ["bounds", "--n", "2", "--k", "1",
                                "--lambda-all", "--trials", "3"])
    assert code == 0
    assert d["bad_set"]["lambda"]["exact"] == "1"
    assert d["bounds"]["full_tvd_undefined"]


def test_bounds_full_tvd_undefined_exit3(capsys):
    assert main(["bounds", "--n", "2", "--k", "1", "--lambda-all",
                 "--full-tvd", "--trials", "2"]) == 3


def test_bounds_explicit_labels(capsys):
    code, d = run_json(capsys, [
        "bounds", "--n", "2", "--k", "1", "--trials", "3",
        "--labels", "([2],+);([2],-);([1,1],+);([1,1],-)",
    ])
    assert code == 0
    assert d["bad_set"]["rule"] == "explicit"
    assert d["bad_set"]["plancherel_mass"]["exact"] == "1/2"


@pytest.mark.parametrize("labels", ["", ";"], ids=repr)
def test_an_empty_bad_set_label_is_a_usage_error(capsys, labels):
    assert main(["bounds", "--n", "2", "--k", "1", "--labels", labels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse irrep label ''\n"
    assert main(["bounds", "--n", "2", "--lambda-all", "--labels", labels]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_bounds_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["bounds", "--n", "2", "--k", "1", "--trials", "3",
                 "--out", str(out)])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["schema"] == 1


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--n", "2", "--out", "/nonexistent/x.json"],
     "error: --out /nonexistent/x.json: no such directory\n"),
    (["irreps", "--group", "sym:3", "--out", "."], "error: --out . is a directory\n"),
    (["verify", "--lemma", "rank", "--out", ""], "error: --out '' names no file\n"),
    (["sample", "--group", "sym:3", "--weak", "--out", "x/"],
     "error: --out 'x/' names no file\n"),
], ids=["missing-directory", "directory", "empty", "trailing-slash"])
def test_an_unusable_out_path_is_a_usage_error_before_any_group(monkeypatch, capsys,
                                                                argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a group was built before the --out check")

    monkeypatch.setattr(cli, "cached_group", refuse)
    monkeypatch.setattr(cli.bounds_mod, "theorem_pipeline", refuse)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)


def test_a_failed_report_write_is_one_error_line(monkeypatch, tmp_path, capsys):
    from cosetlab import report

    def full_disk(path, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(report, "open", full_disk, raising=False)
    out = tmp_path / "r.json"
    assert main(["irreps", "--group", "sym:3", "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"error: cannot write the report to {out}: [Errno 28] No space left on device\n")


def test_reports_byte_identical_across_threads(tmp_path, capsys):
    paths = []
    for i, threads in enumerate(("1", "4", "1")):
        p = tmp_path / f"r{i}.json"
        assert main(["bounds", "--n", "2", "--k", "2", "--seed", "9",
                     "--trials", "4", "--threads", threads,
                     "--out", str(p)]) == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_verify_names_each_skipped_trial_on_stderr(capsys):
    # at wreath:3, k=3 trials 0-2 draw a doubled dimension D^2 above 1000
    assert main(["verify", "--lemma", "multiregister", "--group", "wreath:3",
                 "--k", "3", "--trials", "6", "--tensor-cap", "1000"]) == 0
    out, err = capsys.readouterr()
    # the report is unchanged: it lists the trials that ran, and nothing else
    d = json.loads(out)
    assert [r["name"] for r in d["results"]] == [
        f"multiregister {what} wreath:3 k=3 trial={t}" for t in (3, 4, 5)
        for what in ("mean", "variance", "variance bound")
    ]
    assert d["trials"] == 6 and d["pass_count"] == 9
    assert err.splitlines() == [
        f"skip multiregister wreath:3 k=3 trial={t}: doubled dimension {dd} "
        "exceeds tensor cap 1000" for t, dd in ((0, 4096), (1, 4096), (2, 1024))
    ]


def test_verify_byte_identical(tmp_path, capsys):
    blobs = []
    for i in range(2):
        p = tmp_path / f"v{i}.json"
        assert main(["verify", "--lemma", "multiregister", "--trials", "4",
                     "--seed", "2", "--out", str(p)]) == 0
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "cosetlab.cli", "bounds", "--n", "2",
         "--k", "1", "--trials", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"]


_IMPORT_PROBE = """
import json, sys
import cosetlab.cli
caches = {}
for name, module in list(sys.modules.items()):
    if name.startswith("cosetlab"):
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for fn in vars(owner).values():
                if hasattr(fn, "cache_info"):
                    caches[f"{fn.__module__}.{fn.__qualname__}"] = fn.cache_info().currsize
print(json.dumps({"caches": caches, "futures": "concurrent.futures" in sys.modules}))
"""


def test_importing_the_cli_fills_no_cache_and_starts_no_pool():
    # import-time work shows up in every command's start-up time
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["futures"] is False
    caches = got["caches"]
    assert caches["cosetlab.groups.cached_group"] == 0
    assert caches["cosetlab.oracle._coset_products"] == 0
    assert {name: size for name, size in caches.items() if size} == {}


def test_bounds_above_the_wreath_cap_fails_before_any_group(monkeypatch, capsys):
    from cosetlab import bounds, groups

    def refuse(*args, **kwargs):
        raise AssertionError("a group was built before the wreath cap check")

    monkeypatch.setattr(bounds, "cached_group", refuse)
    monkeypatch.setattr(groups.WreathGroup, "_enumerate", refuse)
    monkeypatch.setattr(groups.WreathGroup, "_build_points", refuse)
    assert main(["bounds", "--n", "5", "--k", "1"]) == 3
    assert capsys.readouterr() == (
        "", "error: wreath irrep matrices are capped at n <= 4, got n = 5\n")


def test_bounds_tensor_cap_fails_before_any_work(monkeypatch, capsys):
    from cosetlab import bounds, rng
    from cosetlab.rng import CounterRng

    def refuse(*args, **kwargs):
        raise AssertionError("expensive work ran before the tensor-cap check")

    monkeypatch.setattr(CounterRng, "haar_basis", refuse)
    monkeypatch.setattr(rng, "haar_bases", refuse)
    monkeypatch.setattr(bounds, "haar_bases", refuse)
    monkeypatch.setattr(bounds, "exact_weak_tv", refuse)
    assert main(["bounds", "--n", "4", "--k", "3", "--trials", "200"]) == 3
    assert "tensor cap" in capsys.readouterr().err


_SPECS = ["sym:3", "wreath:2", "sym:0", "wreath:1", "sym:-1", "wreath:-2",
          "foo:3", "wreath:9", "sym:x", "sym", ""]
_M_TEXTS = ["(0 1)", "([1,0],[0,1],1)", "(0 1", "(01))", "((01)", "(0 9)",
            "(a b)", "(0 0)", "(-1 0)", "[1,0", "[0,0,1]", "[]", "()", "x",
            "([0],[1],2)", "([1,0],[0,1]", "([a],[0],1)", "(,,)"]
_SMALL = st.integers(-2, 3)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["irreps", "sample", "verify", "bounds"]))
    spec = draw(st.sampled_from(_SPECS))
    k = draw(st.integers(-2, 2))
    trials = draw(st.integers(-2, 2))
    if command == "irreps":
        return ["irreps", "--group", spec]
    if command == "sample":
        argv = ["sample", "--group", spec, "--k", str(k)]
        argv += draw(st.sampled_from([[], ["--weak"], ["--strong", "--label", "[2,1]"]]))
        if draw(st.booleans()):
            argv += ["--m", draw(st.sampled_from(_M_TEXTS))]
        return argv
    if command == "verify":
        lemma = draw(st.sampled_from(sorted(_LEMMAS) + ["all"]))
        argv = ["verify", "--lemma", lemma, "--k", str(k), "--trials", str(trials)]
        if draw(st.booleans()):
            argv += ["--group", spec]
        return argv
    return ["bounds", "--n", str(draw(_SMALL)), "--k", str(k),
            "--trials", str(trials), "--threads", str(draw(_SMALL))]


@settings(max_examples=40, deadline=None, database=None)
@given(argv=_argv())
def test_cli_fuzz_exits_with_a_documented_code(argv):
    # Every run is cheap (n <= 3, k <= 2, trials <= 2); any exception other
    # than argparse's SystemExit is a traceback the user would see.
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3), (argv, sink.getvalue())
    counts = [int(argv[i + 1]) for i, a in enumerate(argv)
              if a in ("--k", "--trials", "--threads")]
    if argv[0] in ("sample", "verify", "bounds") and min(counts) < 1:
        assert code == 2, (argv, sink.getvalue())
