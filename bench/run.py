"""Benchmark of the cosetlab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick

Each workload is one fixed CLI command.  Researchers run the CLI one
command at a time, and every invocation pays for interpreter start-up,
imports, group, irrep, Haar-basis and tuple work, so a run is a closed loop
of fresh `python3 -m cosetlab.cli` subprocesses, one at a time, for
--seconds seconds.

The CLI's own --seed changes how much work some commands do (which tuples
are sampled, which register dimensions a verify trial draws), so every run
covers the same REFERENCE_SEEDS CLI seeds: invocation i gets CLI seed
(seed + i) mod REFERENCE_SEEDS, a run makes at least REFERENCE_SEEDS
invocations, and each metric is the median over one CLI seed's
invocations, averaged over the CLI seeds.

--trace 0 reports the end-to-end metrics: wall time, CPU time and peak RSS
of the child, and setup_s, the median time of SETUP_SAMPLES fresh
interpreters importing cosetlab.cli (every invocation pays it).  --trace 1
pairs each untraced invocation with a traced one (bench/traced_cli.py,
which wraps each module's public entry points, see bench/spans.py) and
reports per-layer self times and counts, the tracing overhead and the
failed fraction.  --quick runs every workload once, untraced and traced,
and prints every metric by name with its unit.

Every invocation is checked by bench/gate.py against the report that the
seed commit produced for the same command and CLI seed, stored under
bench/reference/ (regenerate with bench/make_reference.py).

Children run in a sealed environment: PYTHONPATH is the checkout's src/,
COSETLAB_CACHE_DIR is unset (no disk cache), BLAS and OpenMP use one thread,
and no bytecode is written, so every invocation compiles the working tree.

The child's peak RSS comes from wait4().  On Linux a child started with
vfork inherits the parent's peak RSS as its starting maximum, so this
process stays small: it never imports numpy or cosetlab itself.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"
REFERENCE_SEEDS = 4
SETUP_SAMPLES = 5
# The benchmark must end within 180 s; a child still running at this point
# of the run is killed and counts as failed.
DEADLINE_S = 170.0

# name -> (CLI arguments without --seed, reference report)
WORKLOADS = {
    # 729 label triples (D <= 64), 731 Haar bases: rng and the tuple
    # projector-mass kernel
    "bounds-exact": (["bounds", "--n", "3", "--k", "3", "--trials", "1"],
                     "bounds-exact"),
    # the same report from the thread pool, the only workload for
    # `parallel`.  Not in BENCHMARK.json: its wall time depends on whether
    # another tenant holds the second core (run-to-run spread 7% and 22% in
    # two 10-run sets on a shared 2-core host), so it is run by hand or by
    # --quick, not gated.
    "bounds-exact-threads2": (["bounds", "--n", "3", "--k", "3", "--trials", "1",
                               "--threads", "2"], "bounds-exact"),
    # few large Haar bases, the brute class build at wreath:4 and the exact
    # Fraction weak TV over 400 tuples
    "bounds-sampled": (["bounds", "--n", "4", "--k", "2", "--trials", "10"],
                       "bounds-sampled"),
    # the sampling interference kernels and the oracle; no Haar bases
    "verify-wreath3": (["verify", "--lemma", "all", "--group", "wreath:3",
                        "--k", "3", "--trials", "3"], "verify-wreath3"),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# layers whose self time is a metric, named <layer>_s
LAYER_TIMES = [
    "rng.haar", "rng.vector", "bounds.enumeration", "bounds.sampled",
    "bounds.weak_tv", "groups.classes", "tableaux.character", "irreps.build",
    "irreps.table", "sampling.doubled", "sampling.subset", "sampling.decomp",
    "sampling.weak", "sampling.multiregister", "oracle.brute", "parallel.map",
    "report.emit",
]
# metric -> layer whose span count it is
CALL_COUNTS = {
    "rng.haar_calls": "rng.haar",
    "tableaux.character_calls": "tableaux.character",
    "sampling.doubled_calls": "sampling.doubled",
    "oracle.brute_calls": "oracle.brute",
}
# metric -> unit, for counters the wrappers compute from call arguments
COUNTERS = {
    "rng.haar_entries": "count",
    "bounds.tuple_trials": "count",
    "groups.conjugations": "count",
    "irreps.stack_bytes": "B",
    "sampling.doubled_bytes": "B",
    "report.bytes": "B",
}
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in LAYER_TIMES},
    **{name: "count" for name in CALL_COUNTS},
    **COUNTERS,
    "bounds.useful_frac": "frac",
    "parallel.busy_frac": "frac",
    "report.digest_match": "frac",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "frac",
}

_PROBE = """
import json, platform, numpy, cosetlab.cli
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "cosetlab": cosetlab.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no reference)."""


@dataclass
class Invocation:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def sealed_env() -> dict:
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG") if k in os.environ}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Starts children one at a time in the sealed environment and a
    scratch directory, and enforces the run's deadline."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = sealed_env()
        self.started = time.perf_counter()

    def python(self, *args) -> Invocation:
        """Run `python3 *args` to completion; stdout and stderr are kept."""
        out_path = self.scratch / "stdout"
        err_path = self.scratch / "stderr"
        limit = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / 1e6, out_path.read_bytes(),
            err_path.read_bytes(),
        )


def git_output(*args) -> str | None:
    env = {"PATH": os.environ.get("PATH", ""), "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(runner: Runner, seed: int) -> dict:
    probe = runner.python("-c", _PROBE)
    if probe.returncode != 0:
        raise BenchError("cannot import cosetlab.cli from src/:\n"
                         + probe.stderr.decode(errors="replace"))
    versions = json.loads(probe.stdout)
    if not Path(versions["cosetlab"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"cosetlab imported from {versions['cosetlab']}, not src/")
    sha = git_output("rev-parse", "HEAD")
    status = git_output("status", "--porcelain", "--untracked-files=no")
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(runner.env["OPENBLAS_NUM_THREADS"]),
        "cache_env": "COSETLAB_CACHE_DIR unset",
        "src": str(ROOT / "src"),
        "seed": seed,
        "cli_seeds": [(seed + i) % REFERENCE_SEEDS for i in range(REFERENCE_SEEDS)],
        "src_lines": src_lines,
    }


def load_reference(report: str, cli_seed: int) -> dict:
    path = REFERENCE_DIR / f"{report}-seed{cli_seed}.json.gz"
    try:
        return json.loads(gzip.decompress(path.read_bytes()))
    except OSError as exc:
        raise BenchError(f"no reference report: {exc}") from None


class Workload:
    """One workload in one run: its invocations and their gate tally."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.args, report = WORKLOADS[name]
        self.references = [load_reference(report, s) for s in range(REFERENCE_SEEDS)]
        self.seed = seed
        self.runner = runner
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.digest_matches = 0

    def next_seed(self) -> int:
        cli_seed = (self.seed + self.steps) % REFERENCE_SEEDS
        self.steps += 1
        return cli_seed

    def _check(self, inv: Invocation, cli_seed: int, problems=()) -> None:
        found, digest_match = gate.check(inv.returncode, inv.stdout,
                                         self.references[cli_seed])
        problems = list(problems) + found
        self.attempted += 1
        self.digest_matches += digest_match
        if problems:
            self.failed += 1
            print(f"FAILED {self.name} (cli seed {cli_seed}): "
                  + "; ".join(problems[:5]), file=sys.stderr)
            if inv.stderr:
                print(inv.stderr.decode(errors="replace")[-2000:], file=sys.stderr)

    def untraced(self, cli_seed: int) -> Invocation:
        inv = self.runner.python("-m", "cosetlab.cli", *self.args,
                                 "--seed", str(cli_seed))
        self._check(inv, cli_seed)
        return inv

    def traced(self, cli_seed: int) -> tuple[Invocation, dict | None]:
        """A traced invocation and its spans document (None if the child
        wrote none, which fails the invocation)."""
        path = self.runner.scratch / "spans.json"
        path.unlink(missing_ok=True)
        inv = self.runner.python(str(BENCH / "traced_cli.py"), str(path), *self.args,
                                 "--seed", str(cli_seed))
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = None
        self._check(inv, cli_seed, [] if doc else ["the traced child wrote no spans"])
        return inv, doc

    def repeat(self, step, seconds: float, minimum: int) -> list:
        """(cli seed, step(cli seed)) for successive CLI seeds: at least
        `minimum` of them unless the run's deadline has passed, then more
        until the next would likely end past `seconds`."""
        results = []
        durations = []
        start = time.perf_counter()
        while True:
            cli_seed = self.next_seed()
            t0 = time.perf_counter()
            results.append((cli_seed, step(cli_seed)))
            durations.append(time.perf_counter() - t0)
            now = time.perf_counter()
            if now - self.runner.started > DEADLINE_S:
                return results
            if (len(results) >= minimum
                    and now - start + statistics.median(durations) > seconds):
                return results


def seed_balanced(samples) -> float:
    """Mean over CLI seeds of the median of each seed's (seed, value) samples."""
    by_seed = defaultdict(list)
    for cli_seed, value in samples:
        by_seed[cli_seed].append(value)
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def end_to_end(w: Workload, seconds: float, minimum: int, setup_samples: int):
    """(metrics, sample counts) with tracing off."""
    w.runner.python("-c", "import cosetlab.cli")  # warm the file cache
    setup = [w.runner.python("-c", "import cosetlab.cli").wall
             for _ in range(setup_samples)]
    runs = w.repeat(w.untraced, seconds, minimum)
    metrics = {
        "wall_s": seed_balanced((s, r.wall) for s, r in runs),
        "cpu_s": seed_balanced((s, r.cpu) for s, r in runs),
        "peak_rss_mb": seed_balanced((s, r.rss_mb) for s, r in runs),
        "setup_s": statistics.median(setup),
    }
    counts = dict.fromkeys(metrics, len(runs))
    counts["setup_s"] = len(setup)
    return metrics, counts


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced invocation."""
    sp = doc["spans"]
    times = spans.attribute(sp, doc["start"], doc["end"])
    counts = doc["counts"]
    out = {f"{layer}_s": times.get(layer, 0.0) for layer in LAYER_TIMES}
    for name, layer in CALL_COUNTS.items():
        out[name] = sum(1 for s in sp if s[0] == layer)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    tried = counts.get("bounds.tuple_trials", 0)
    out["bounds.useful_frac"] = (
        counts.get("bounds.useful_tuple_trials", 0) / tried if tried else 0.0)
    out["parallel.busy_frac"] = spans.busy_fraction(sp, doc["threads"])
    out["trace.wall_s"] = doc["end"] - doc["start"]
    out["trace.unattributed_s"] = times.get(spans.UNATTRIBUTED, 0.0)
    return out


def per_layer(w: Workload, seconds: float, minimum: int):
    """(metrics, sample counts) from untraced and traced invocation pairs."""
    runs = w.repeat(lambda s: (w.untraced(s), *w.traced(s)), seconds, minimum)
    traced = [(s, layer_metrics(doc)) for s, (_, _, doc) in runs if doc is not None]
    metrics = {}
    counts = {}
    for name in PER_LAYER:
        values = [(s, m[name]) for s, m in traced if name in m]
        metrics[name] = seed_balanced(values) if values else 0.0
        counts[name] = len(values)
    metrics["trace.overhead_s"] = seed_balanced(
        (s, t.wall - u.wall) for s, (u, t, _) in runs)
    metrics["report.digest_match"] = w.digest_matches / w.attempted
    metrics["failed_frac"] = w.failed / w.attempted
    counts["trace.overhead_s"] = len(runs)
    counts["report.digest_match"] = counts["failed_frac"] = w.attempted
    return metrics, counts


def run(names, seed: int, seconds: float, traces, minimum: int,
        setup_samples: int) -> int:
    """Run each named workload in each trace mode; print the tables and the
    result line."""
    ROOT.joinpath(".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        runner = Runner(scratch)
        print("run record: " + json.dumps(run_record(runner, seed)))
        results = {}
        attempted = failed = 0
        for trace in traces:
            for name in names:
                w = Workload(name, seed, runner)
                if trace:
                    metrics, counts = per_layer(w, seconds, minimum)
                    units = PER_LAYER
                else:
                    metrics, counts = end_to_end(w, seconds, minimum, setup_samples)
                    units = END_TO_END
                print(f"{name} (trace {trace}): CLI-seed medians averaged over "
                      f"CLI seeds; sample counts in brackets")
                for metric, value in metrics.items():
                    print(f"  {metric:<28} {value:>18.6f} {units[metric]:<6}"
                          f" ({counts[metric]})")
                prefix = f"{name}/" if len(names) > 1 else ""
                for metric, value in metrics.items():
                    results[prefix + metric] = {"value": value, "unit": units[metric]}
                attempted += w.attempted
                failed += w.failed
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": results}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload once, untraced then traced")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if not (ROOT / "src" / "cosetlab" / "cli.py").is_file():
        print(f"error: no cosetlab source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return run(list(WORKLOADS), args.seed, 0.0, (0, 1), minimum=1,
                       setup_samples=1)
        return run([args.workload], args.seed, args.seconds, (args.trace,),
                   minimum=REFERENCE_SEEDS, setup_samples=SETUP_SAMPLES)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
