"""Brute-force reference implementations used only for verification.

Everything here works by direct group multiplication and dense matrix
action: class averages are literal sums over class members, induced
representations are built from the induction definition with a membership
test, and total variation is a literal sum of absolute differences.  No
character tables and no isotypic machinery enter, so agreement with the
formula modules is evidence rather than circularity.

Matrices of group elements are re-derived by multiplying the matrices of the
group's generators() along a word for the element (generator_word) instead
of reading an irrep's cached per-element stack, which decouples failure
modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import SamplingDistribution, format_probability
from .errors import CapExceededError, OutcomeMismatchError
from .groups import ConjugacyClass, Permutation, WreathElement, cached_group
from .irreps import Irrep, MatrixRep, young_orthogonal_rep
from .tableaux import check_partition, partition_str

TOL = 1e-9


def transposition_word(perm: Permutation) -> tuple[int, ...]:
    """Indices i with perm = s_{w0} * s_{w1} * ... for adjacent swaps s_i.

    Bubble elimination: right-multiplying by s_i at a descent removes one
    inversion, and reversing the removals spells the element.
    """
    imgs = list(perm.images)
    suffix = []
    while True:
        for i in range(len(imgs) - 1):
            if imgs[i] > imgs[i + 1]:
                imgs[i], imgs[i + 1] = imgs[i + 1], imgs[i]
                suffix.append(i)
                break
        else:
            break
    return tuple(reversed(suffix))


def generator_word(g) -> tuple[int, ...]:
    """Positions in the group's generators() whose product, left to right,
    is g: the transposition word of a permutation; for a wreath element
    the word of alpha, then that of beta offset past the n-1 alpha moves,
    then the swap, the last generator, when the flip is set."""
    if isinstance(g, Permutation):
        return transposition_word(g)
    if isinstance(g, WreathElement):
        shift = max(g.degree - 1, 0)
        beta = tuple(shift + i for i in transposition_word(g.beta))
        return transposition_word(g.alpha) + beta + (2 * shift,) * g.flip
    raise TypeError(f"unsupported element type {type(g)!r}")


def rebuilt_matrix(rep, g) -> np.ndarray:
    """rep(g) from generator matrices along generator_word(g).

    For Irrep inputs this never touches the cached stack entry for g, only
    the generator entries.  Composite MatrixRep fixtures (direct sums and
    tensors built by tests) fall back to their own matrix table.
    """
    if not isinstance(rep, Irrep):
        return rep.matrix(g)
    word = generator_word(g)
    rep.group.index(g)  # an element of another group is a GroupMismatchError
    gens = rep.group.generators()
    out = np.eye(rep.dim)
    for i in word:
        out = out @ rep.matrix(gens[i])
    return out


def _tensor_matrix(registers, m, subset=None) -> np.ndarray:
    """Kronecker product over registers; outside `subset` the factor is the
    identity (subset None means every register acts)."""
    mats = []
    for i, rep in enumerate(registers):
        if subset is None or i in subset:
            mats.append(rebuilt_matrix(rep, m))
        else:
            mats.append(np.eye(rep.dim))
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out


def brute_subset_overlap(registers, b: np.ndarray, subset, M: ConjugacyClass) -> complex:
    """(1/|M|) sum over m of <b, m^subset b>, where m acts only on the
    registers named by `subset` and by identity elsewhere."""
    total = 0j
    for m in M.members:
        total += np.vdot(b, _tensor_matrix(registers, m, frozenset(subset)) @ b)
    return complex(total / M.size)


def brute_doubled_overlap(registers, b: np.ndarray, first, second, M: ConjugacyClass) -> complex:
    """(1/|M|) sum over m of <b (x) conj(b), (m^first (x) conj(m^second)) (b (x) conj(b))>.

    The doubled-space inner product factors into the two single-space
    overlaps, one conjugated, which is what gets averaged here."""
    total = 0j
    for m in M.members:
        o1 = np.vdot(b, _tensor_matrix(registers, m, frozenset(first)) @ b)
        o2 = np.vdot(b, _tensor_matrix(registers, m, frozenset(second)) @ b)
        total += o1 * np.conj(o2)
    return complex(total / M.size)


def brute_expectation_overlap(rep, b: np.ndarray, M: ConjugacyClass) -> complex:
    """(1/|M|) sum over m of <b, rep(m) b>, by direct matrix action."""
    total = 0j
    for m in M.members:
        total += np.vdot(b, rebuilt_matrix(rep, m) @ b)
    return complex(total / M.size)


def brute_second_moment(rep, b: np.ndarray, M: ConjugacyClass) -> float:
    """(1/|M|) sum over m of |<b, rep(m) b>|^2."""
    total = 0.0
    for m in M.members:
        total += abs(np.vdot(b, rebuilt_matrix(rep, m) @ b)) ** 2
    return float(total / M.size)


def brute_projected_masses(registers, b: np.ndarray, M: ConjugacyClass) -> np.ndarray:
    """For each m in M (member order): ||Pi_m tensor ... tensor Pi_m b||^2."""
    out = np.empty(M.size)
    for w, m in enumerate(M.members):
        mats = [
            0.5 * (np.eye(rep.dim) + rebuilt_matrix(rep, m)) for rep in registers
        ]
        proj = mats[0]
        for p in mats[1:]:
            proj = np.kron(proj, p)
        v = proj @ b
        out[w] = np.real(np.vdot(v, v))
    return out


def brute_multiregister_moments(registers, b: np.ndarray, M: ConjugacyClass):
    """Mean and population variance of ||Pi_m^(tensor k) b||^2 over m in M."""
    masses = brute_projected_masses(registers, b, M)
    mean = float(masses.mean())
    var = float(np.mean((masses - mean) ** 2))
    return mean, var


def brute_induced_rep(n: int, rho, sigma) -> MatrixRep:
    """The W(n) representation induced from rho (x) sigma on the flip-0
    subgroup, with coset representatives {identity, s}.

    Block (i, j) of the matrix at g is the base-subgroup matrix of
    r_i^-1 * g * r_j when that element has flip 0, and zero otherwise.
    Built independently of the block formulas in the irreps module.
    """
    if n > 3:
        raise CapExceededError(f"induced-rep oracle is capped at n <= 3, got {n}")
    rho = check_partition(rho)
    sigma = check_partition(sigma)
    grp = cached_group(f"wreath:{n}")
    rep_r = young_orthogonal_rep(rho)
    rep_s = young_orthogonal_rep(sigma)
    m = rep_r.dim * rep_s.dim
    dim = 2 * m
    stack = np.zeros((grp.order, dim, dim))
    for gi, blocks in enumerate(_coset_products(n)):
        for i, j, h in blocks:
            stack[gi, i * m : (i + 1) * m, j * m : (j + 1) * m] = np.kron(
                rep_r.matrix(h.alpha), rep_s.matrix(h.beta)
            )
    name = "induced{" + partition_str(rho) + "," + partition_str(sigma) + "}"
    return MatrixRep(grp, stack, name=name)


@lru_cache(maxsize=None)
def _coset_products(n: int) -> tuple:
    """Per element g of wreath:n, in element order: (i, j, r_i^-1 * g * r_j)
    for the coset representatives r_0 = identity and r_1 = s, keeping the
    products of flip 0.  They depend on n only, not on the induced irreps."""
    grp = cached_group(f"wreath:{n}")
    reps = [grp.identity(), grp.swap_element()]
    inverses = [r.inverse() for r in reps]
    return tuple(
        tuple((i, j, h) for i, inv in enumerate(inverses)
              for j, rj in enumerate(reps) if (h := inv * g * rj).flip == 0)
        for g in grp.elements
    )


def exact_tv(p: SamplingDistribution, q: SamplingDistribution):
    """L1 distance sum |p - q| over a shared outcome set.

    Exact (Fraction) when both inputs are exact, float otherwise.
    """
    if p.labels != q.labels:
        raise OutcomeMismatchError(
            f"outcome sets differ: {p.labels[:4]}... vs {q.labels[:4]}..."
        )
    if p.exact and q.exact:
        return sum(
            abs(a - b) for a, b in zip(p.exact_values(), q.exact_values())
        )
    return float(np.sum(np.abs(p.values() - q.values())))


@dataclass(frozen=True)
class OracleResult:
    """One formula-vs-oracle comparison.

    kind "equality": pass iff |formula - oracle| <= tolerance.
    kind "inequality": oracle_value <= formula_value + tolerance (the formula
    side is the bound).
    kind "exact": pass iff the two values are equal as exact rationals.
    """

    name: str
    formula_value: object
    oracle_value: object
    difference: float
    passed: bool
    kind: str = "equality"
    tolerance: float = TOL

    def to_json_dict(self) -> dict:
        def fmt(v):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, complex):
                return format_probability(v.real) if v.imag == 0 else repr(v)
            return format_probability(v)

        return {
            "name": self.name,
            "kind": self.kind,
            "formula": fmt(self.formula_value),
            "oracle": fmt(self.oracle_value),
            "difference": f"{self.difference:.3e}",
            "tolerance": f"{self.tolerance:.1e}",
            "pass": self.passed,
        }


def equality_result(name: str, formula, oracle) -> OracleResult:
    diff = abs(complex(formula) - complex(oracle))
    return OracleResult(name, formula, oracle, float(diff), diff <= TOL)


def inequality_result(name: str, bound, value) -> OracleResult:
    """value (the exact/oracle side) must not exceed bound (the formula side)."""
    excess = float(value) - float(bound)
    return OracleResult(name, bound, value, max(excess, 0.0), excess <= TOL, "inequality")


def exact_result(name: str, formula, oracle) -> OracleResult:
    diff = abs(Fraction(formula) - Fraction(oracle))
    return OracleResult(name, formula, oracle, float(diff), diff == 0, "exact", 0.0)
