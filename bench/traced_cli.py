"""Run the cosetlab CLI with spans recorded.

    python3 bench/traced_cli.py SPANS_OUT CLI_ARGS...

The report goes to stdout exactly as from `python3 -m cosetlab.cli`.  The
spans, the counters and the start and end of the CLI's main() go to
SPANS_OUT as JSON.
"""

import json
import sys
import time

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    from cosetlab.cli import main as cli_main

    start = time.perf_counter()
    try:
        return cli_main(argv)
    finally:
        end = time.perf_counter()
        doc = rec.to_json()
        doc.update(start=start, end=end)
        with open(out, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
