"""Machine-readable report serialization.

JSON reports carry a top-level {"schema": 1}; field order is fixed by
construction order, so identical inputs give identical bytes.  CSV output
follows RFC 4180 (CRLF line endings, minimal quoting).
"""

from __future__ import annotations

import csv
import io
import json
import sys

SCHEMA_VERSION = 1


def exact_node(x) -> dict:
    """An exact rational as reports print it: its string and its float."""
    return {"exact": str(x), "value": float(x)}


def json_text(payload: dict) -> str:
    doc = {"schema": SCHEMA_VERSION}
    doc.update(payload)
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def csv_text(rows: list[dict]) -> str:
    """The rows as CSV under the first row's keys; every row has those keys."""
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def emit(text: str, out: str | None) -> None:
    """Write to the named file, or stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write the report to {out}: {exc}") from exc
