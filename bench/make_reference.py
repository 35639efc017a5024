"""Write the reference reports the correctness gate compares against.

    python3 bench/make_reference.py

Runs every reference report's command for CLI seeds 0..REFERENCE_SEEDS-1
in the benchmark's sealed environment and stores, per report and seed,
the SHA-256 of the report bytes and the parsed report as
bench/reference/<report>-seed<N>.json.gz.  Run it only on a commit whose
reports are known good; each file records the commit it came from.
"""

import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    run.ROOT.joinpath(".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp") as scratch:
        runner = run.Runner(Path(scratch))
        source = run.git_output("rev-parse", "HEAD")
        # each reference report is named after the workload that makes it
        reports = sorted({report for _, report in run.WORKLOADS.values()})
        for report in reports:
            args = run.WORKLOADS[report][0]
            for seed in range(run.REFERENCE_SEEDS):
                cli_args = args + ["--seed", str(seed)]
                inv = runner.python("-m", "cosetlab.cli", *cli_args)
                if inv.returncode != 0:
                    print(f"{report} seed {seed}: exit {inv.returncode}\n"
                          + inv.stderr.decode(errors="replace"), file=sys.stderr)
                    return 1
                doc = {
                    "command": cli_args,
                    "source_commit": source,
                    "sha256": hashlib.sha256(inv.stdout).hexdigest(),
                    "report": json.loads(inv.stdout),
                }
                path = run.REFERENCE_DIR / f"{report}-seed{seed}.json.gz"
                data = json.dumps(doc, indent=1, sort_keys=False).encode() + b"\n"
                path.write_bytes(gzip.compress(data, mtime=0))
                print(f"{path.name}: {inv.wall:.2f} s, {len(inv.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
