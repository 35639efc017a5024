"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import spans


# ---------------------------------------------------------------------------
# self-time arithmetic

def test_self_times_of_nested_spans():
    sp = [
        ["a", None, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 0, 5.0, 6.0],
        ["d", 1, 2.0, 3.0],
        ["b", None, 10.5, 11.0],
    ]
    times = spans.attribute(sp, 0.0, 12.0)
    assert times == pytest.approx({"a": 6.0, "b": 2.5, "c": 1.0, "d": 1.0,
                                   spans.UNATTRIBUTED: 1.5})
    assert sum(times.values()) == pytest.approx(12.0)


def test_overlapping_tasks_split_the_wall_time():
    # a parallel map over [0, 10] whose two tasks overlap: 18 s of task
    # time covers 10 s of wall time, so each subtree counts 10/18 of itself
    sp = [
        ["parallel.map", None, 0.0, 10.0],
        ["work", 0, 0.0, 10.0],
        ["work", 0, 0.0, 8.0],
        ["haar", 1, 0.0, 4.0],
    ]
    times = spans.attribute(sp, 0.0, 10.0)
    scale = 10.0 / 18.0
    assert times["parallel.map"] == pytest.approx(0.0)
    assert times["work"] == pytest.approx((6.0 + 8.0) * scale)
    assert times["haar"] == pytest.approx(4.0 * scale)
    assert sum(times.values()) == pytest.approx(10.0)
    assert spans.busy_fraction(sp, {"0": 2}) == pytest.approx(18.0 / 20.0)


def test_map_gaps_are_map_self_time():
    sp = [["parallel.map", None, 0.0, 4.0], ["work", 0, 0.5, 1.5], ["work", 0, 2.0, 3.0]]
    times = spans.attribute(sp, 0.0, 4.0)
    assert times["parallel.map"] == pytest.approx(2.0)
    assert times["work"] == pytest.approx(2.0)
    assert spans.busy_fraction(sp, {"0": 1}) == pytest.approx(0.5)
    assert spans.busy_fraction([], {}) == 0.0


def test_recorder_nests_spans():
    rec = spans.Recorder()
    rec.call("outer", lambda: rec.call("inner", lambda: None, (), {}), (), {})
    assert [s[:2] for s in rec.spans] == [["outer", None], ["inner", 0]]
    outer, inner = rec.spans
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


# ---------------------------------------------------------------------------
# correctness gate

def _reference():
    ref = run.load_reference("bounds-exact", 0)
    text = json.dumps(ref["report"], indent=2, ensure_ascii=True) + "\n"
    return ref, text.encode()


def test_reference_report_passes_with_matching_digest():
    ref, report = _reference()
    assert gate.check(0, report, ref) == ([], True)


@pytest.mark.parametrize("tamper", [
    lambda d: d["bad_set"]["lambda"].update(exact="1/4"),
    lambda d: d["exact"]["weak_tv"].update(value=d["exact"]["weak_tv"]["value"] + 1e-6),
    lambda d: d["bad_set"]["labels"].append("([3],+)"),
    lambda d: d["flags"].update(weak_tv=False),
    lambda d: d.update(all_pass=False),
    lambda d: d.update(trials=3),
    lambda d: d.pop("quantiles"),
])
def test_tampered_report_counts_as_failed(tamper):
    ref, _ = _reference()
    doc = json.loads(json.dumps(ref["report"]))
    tamper(doc)
    report = (json.dumps(doc, indent=2) + "\n").encode()
    problems, digest_match = gate.check(0, report, ref)
    assert problems and not digest_match

    w = run.Workload("bounds-exact", 0, runner=None)
    w._check(run.Invocation(0, 1.0, 1.0, 1.0, report, b""), 0)
    assert (w.attempted, w.failed) == (1, 1)


def test_float_noise_passes_but_changes_the_digest():
    ref, _ = _reference()
    doc = json.loads(json.dumps(ref["report"]))
    doc["exact"]["full_tv_max"] += 1e-12
    problems, digest_match = gate.check(0, (json.dumps(doc) + "\n").encode(), ref)
    assert problems == [] and not digest_match


def test_exit_code_and_fail_count_fail_the_gate():
    ref, report = _reference()
    assert gate.check(1, report, ref)[0] == ["exit code 1"]
    assert gate.check(0, b"not json", ref)[0]
    want = {"results": [{"formula": "1/3", "oracle": "0.333333333333"}],
            "fail_count": 0, "all_pass": True}
    got = json.loads(json.dumps(want))
    got["fail_count"] = 1
    got["results"][0]["oracle"] = "(0.3333333333331+1e-17j)"
    assert gate.differences(got["results"], want["results"]) == []
    problems, _ = gate.check(0, json.dumps(got).encode(), {"sha256": "", "report": want})
    assert problems == ["fail_count is 1", "$.fail_count: 1 != 0"]


# ---------------------------------------------------------------------------
# the benchmark definition and the whole benchmark

def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "bounds-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_quick_mode_runs_every_workload_once():
    done = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(run.WORKLOADS)
    metrics = result["metrics"]
    for name in run.WORKLOADS:
        for metric, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            assert metrics[f"{name}/{metric}"]["unit"] == unit
        value = lambda m: metrics[f"{name}/{m}"]["value"]  # noqa: E731
        layers = sum(value(f"{layer}_s") for layer in run.LAYER_TIMES)
        assert layers + value("trace.unattributed_s") == pytest.approx(
            value("trace.wall_s"), abs=1e-6)
        assert value("failed_frac") == 0.0
        assert value("report.digest_match") == 1.0
