"""Finite outcome distributions with exact or floating probabilities.

A SamplingDistribution keeps its outcomes in a deterministic order and
remembers enough context (group, subgroup, registers) to serialize itself
into the report JSON: {context, group, subgroup, registers, outcomes:
[{label, probability}]}, probabilities as 12-significant-digit decimal
strings.  Probabilities may be exact Fractions (weak sampling, Plancherel)
or floats (anything touching matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PROB_TOL = 1e-9


def format_probability(p) -> str:
    return f"{float(p):.12g}"


@dataclass(frozen=True)
class SamplingDistribution:
    context: str
    group_spec: str
    subgroup: str
    outcomes: tuple[tuple[str, object], ...]
    registers: tuple[str, ...] = ()
    exact: bool = False

    def __post_init__(self):
        if self.exact:
            # exact constructors check their totals in integers (weak_tuple_law,
            # plancherel) or are exact by construction (uniform_distribution)
            assert all(isinstance(p, Fraction) for _, p in self.outcomes)
        else:
            total = sum(p for _, p in self.outcomes)
            assert abs(float(total) - 1.0) <= PROB_TOL, f"sums to {float(total)!r}"
            assert all(float(p) >= -PROB_TOL for _, p in self.outcomes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.outcomes)

    def probability(self, label: str):
        for lbl, p in self.outcomes:
            if lbl == label:
                return p
        raise KeyError(label)

    def values(self) -> np.ndarray:
        return np.array([float(p) for _, p in self.outcomes])

    def exact_values(self) -> tuple[Fraction, ...]:
        assert self.exact
        return tuple(p for _, p in self.outcomes)

    def to_json_dict(self) -> dict:
        def entry(lbl, p):
            row = {"label": lbl, "probability": format_probability(p)}
            if self.exact:
                row["exact"] = str(Fraction(p))
            return row

        return {
            "context": self.context,
            "group": self.group_spec,
            "subgroup": self.subgroup,
            "registers": list(self.registers),
            "outcomes": [entry(lbl, p) for lbl, p in self.outcomes],
        }


def uniform_distribution(labels, context: str, group_spec: str, subgroup: str,
                         registers=()) -> SamplingDistribution:
    labels = tuple(labels)
    p = Fraction(1, len(labels))
    return SamplingDistribution(
        context, group_spec, subgroup,
        tuple((lbl, p) for lbl in labels), tuple(registers), exact=True,
    )
