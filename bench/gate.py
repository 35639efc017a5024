"""Correctness gate: compare one CLI report against a stored reference.

An invocation fails when its exit code is not 0, when the report says
`all_pass` is false or `fail_count` is not 0, when an exact field differs
from the reference, or when a float field differs by more than FLOAT_TOL.

Exact fields are integers, booleans, null, rational strings ("3", "-7/12")
and every other string that is not a number (labels, result names).  Float
fields are JSON floats and strings that parse as a real or complex number
("0.180947234377", "(0.18+3.7e-18j)", "5.564e-17").  Dictionaries must have
the same keys and lists the same length.

The SHA-256 of the report bytes is compared too, but a digest mismatch is
only recorded, never a failure: report bytes may change for a stated
reason while every value stays within the gate.
"""

from __future__ import annotations

import hashlib
import json
import re

FLOAT_TOL = 1e-9
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _as_number(text: str):
    try:
        return complex(text)
    except ValueError:
        return None


def differences(got, want, path: str = "$") -> list[str]:
    """Paths at which `got` leaves the gate around `want`, in document order."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for key in want:
            out.extend(differences(got[key], want[key], f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(differences(g, w, f"{path}[{i}]"))
        return out
    if isinstance(want, bool) or want is None or isinstance(got, bool) or got is None:
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if isinstance(want, int) and isinstance(got, int):
            ok = got == want
        else:
            ok = abs(got - want) <= FLOAT_TOL
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, str) and isinstance(got, str):
        if got == want:
            return []
        if not _RATIONAL.fullmatch(want):
            a, b = _as_number(got), _as_number(want)
            if a is not None and b is not None and abs(a - b) <= FLOAT_TOL:
                return []
        return [f"{path}: {got!r} != {want!r}"]
    return [f"{path}: {got!r} != {want!r}"]


def check(returncode: int, report: bytes, reference: dict) -> tuple[list[str], bool]:
    """(problems, digest_match) for one invocation against its reference,
    a dict with the reference report's "sha256" and parsed "report"."""
    digest_match = hashlib.sha256(report).hexdigest() == reference["sha256"]
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        doc = json.loads(report)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"], digest_match
    if not isinstance(doc, dict):
        return problems + ["report is not a JSON object"], digest_match
    if doc.get("all_pass") is not True:
        problems.append("all_pass is not true")
    if doc.get("fail_count", 0) != 0:
        problems.append(f"fail_count is {doc.get('fail_count')!r}")
    problems.extend(differences(doc, reference["report"]))
    return problems, digest_match
