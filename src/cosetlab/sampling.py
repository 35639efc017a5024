"""Fourier sampling of coset states for a hidden involution subgroup.

The hidden subgroup is H = {e, m} with m an involution (or the trivial
subgroup, for control runs).  Measuring a coset state block-diagonalizes
into three stages, each of which is a finite distribution here:

  weak:   irrep label rho comes up with  d_rho |H| rank(Pi_H) / |G|,
          where Pi_H = (rho(e) + rho(m)) / 2.  The rank is (d + chi(m)) / 2,
          an exact integer read from the characters (weak_rank), so the
          whole distribution is exact.
  strong: given rho, a basis vector b comes up with ||Pi_H b||^2 / rank.
  multiregister: k labels drawn independently at the weak stage share the
          same hidden m, so the strong stage on the tensor product sees
          interference between registers; strong is its one-register case.

One builder, member_projectors, makes every matrix Pi_m, and checks each
is a projector whose trace is that exact rank.

The interference functionals below average over a full conjugacy class M of
involutions.  With J_sigma the isotypic projector onto sigma inside the
action of the group on the chosen registers:

  subset_expectation(I)        sum_sigma (chi_sigma(M)/d_sigma) ||J_sigma b||^2
                               = average over m in M of <b, m^I b>,
  doubled_expectation(I1, I2)  the same on b (x) conj(b), carried as the
                               rank-one matrix W = b b^dagger so that no
                               D^2 x D^2 matrix is ever materialized.  Its
                               kernel computes a whole (I1s x I2s) grid in
                               one walk over chunks of elements: per chunk
                               each subset's span stack is built once, g^I1
                               W is formed once per I1, and g^I is applied
                               on I's first to last registers only.

isotypic_masses and doubled_isotypic_masses take lists of subsets; they
and claim_projector_average end in _class_masses, which buckets
per-element values by class and takes one dot product per character row.

These give exact mean / variance identities for the measured mass
||Pi_m^(x)k b||^2 as m ranges over M, which is what the distinguishability
bounds consume.  The functions here only compute: `verify` and the test
suite compare every functional with the brute-force oracle module and decide
pass or fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .distributions import SamplingDistribution, uniform_distribution
from .errors import (
    CapExceededError,
    GroupMismatchError,
    NonCharacterError,
    RepresentationDefectError,
    ZeroRankError,
)
from .groups import ConjugacyClass, FiniteGroup
from .irreps import (
    EPS,
    TRACE_INT_TOL,
    Irrep,
    MatrixRep,
    character_table,
    group_irreps,
    label_dim,
    label_str,
)
from .parallel import wide_slices
from .rng import CounterRng

DEFAULT_TENSOR_CAP = 4096
# the most label tuples an exact k-register law or decomposition sum lists
TUPLE_CAP = 100_000
# the most subset pairs the doubled-space sums visit (4^6: k <= 6)
PAIR_CAP = 4 ** 6
# Above this many stacked entries (|G| * D^2) the subset action falls back to
# a per-element loop instead of a dense Kronecker stack.
_DENSE_LIMIT = 1 << 25
# The doubled kernel walks the group in chunks of at most this many
# elements * D^2 entries.
_CHUNK_ENTRIES = 1 << 14
# isotypic_masses's dense path walks it in chunks of at most this many: 512 KB
# float64 stacks.  At 2^14, `verify --group wreath:3 --k 3` took 5-14% more
# CPU than with whole-group stacks and peaked no lower than at 2^16 (Linux,
# glibc malloc: the heap was trimmed between the doubled kernel's chunks, with
# 5x the page faults).
_DENSE_CHUNK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Hidden subgroup and measurement basis

@dataclass(frozen=True)
class HiddenSubgroup:
    """H = {e, m} for an involution m, or the trivial subgroup (m None)."""

    group: FiniteGroup
    m: object = None

    def __post_init__(self):
        if self.m is None:
            return
        e = self.group.elements[0]
        self.group.index(self.m)
        if self.m == e:
            raise ValueError("m is the identity; use m=None for the trivial subgroup")
        if self.m * self.m != e:
            raise ValueError(f"m = {self.m} is not an involution")

    @property
    def trivial(self) -> bool:
        return self.m is None

    @property
    def order(self) -> int:
        return 1 if self.trivial else 2

    def descriptor(self) -> str:
        return "trivial" if self.trivial else str(self.m)


class MeasurementBasis:
    """An orthonormal basis, the columns of `vectors`."""

    def __init__(self, vectors: np.ndarray):
        arr = np.array(vectors, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"basis must be a square matrix, got {arr.shape}")
        gram = arr.conj().T @ arr
        defect = np.max(np.abs(gram - np.eye(arr.shape[0])))
        if defect > 1e-8:
            raise ValueError(f"basis is not orthonormal (defect {defect:.3e})")
        arr.setflags(write=False)
        self.vectors = arr

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.vectors[:, j]

    @classmethod
    def standard(cls, dim: int) -> "MeasurementBasis":
        return cls(np.eye(dim))

    @classmethod
    def haar(cls, dim: int, rng: CounterRng) -> "MeasurementBasis":
        return cls(rng.haar_basis(dim))


@dataclass(frozen=True)
class RegisterTuple:
    """A k-tuple of irreps of one group, with a cap on the tensor dimension."""

    irreps: tuple[Irrep, ...]
    tensor_cap: int = DEFAULT_TENSOR_CAP

    def __post_init__(self):
        if not self.irreps:
            raise ValueError("need at least one register")
        spec = self.irreps[0].group.spec
        for r in self.irreps:
            if r.group.spec != spec:
                raise GroupMismatchError("registers live over different groups")
        if self.total_dim > self.tensor_cap:
            raise CapExceededError(
                f"tensor dimension {self.total_dim} exceeds cap {self.tensor_cap}"
            )

    @classmethod
    def from_labels(cls, group: FiniteGroup, labels,
                    tensor_cap: int = DEFAULT_TENSOR_CAP) -> "RegisterTuple":
        names = character_table(group).names
        reps = group_irreps(group)
        picked = []
        for lab in labels:
            key = lab if isinstance(lab, str) else label_str(lab)
            if key not in names:
                raise KeyError(f"no irrep labelled {key!r} over {group.spec}")
            picked.append(reps[names.index(key)])
        return cls(tuple(picked), tensor_cap)

    @property
    def group(self) -> FiniteGroup:
        return self.irreps[0].group

    @property
    def k(self) -> int:
        return len(self.irreps)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.irreps)


# ---------------------------------------------------------------------------
# Projectors and the three sampling stages

def member_projectors(mats: np.ndarray, rank: int) -> np.ndarray:
    """(W, d, d) stack of Pi_m = (rho(e) + rho(m)) / 2 from the (W, d, d)
    matrices rho(m) of W members m of one class.  Each Pi_m must be
    idempotent and self-adjoint within EPS, and its trace must be the exact
    rank from weak_rank within TRACE_INT_TOL."""
    mats = 0.5 * (np.eye(mats.shape[1]) + mats)
    for what, excess, tol in (
        ("idempotent", mats @ mats - mats, EPS),
        ("self-adjoint", mats - mats.conj().swapaxes(1, 2), EPS),
        (f"of trace {rank}", np.trace(mats, axis1=1, axis2=2) - rank, TRACE_INT_TOL),
    ):
        defect = np.max(np.abs(excess))
        if defect > tol:
            raise RepresentationDefectError(
                f"subgroup projector not {what} (defect {defect:.3e})"
            )
    return mats


def weak_rank(group: FiniteGroup, label, hidden: HiddenSubgroup) -> int:
    """rank of Pi_H inside the irrep, exactly: d for trivial H, else
    (d + chi(m)) / 2."""
    table = character_table(group)
    i = table.position(label)
    d = int(table.dims[i])
    if hidden.trivial:
        return d
    chi = int(table.chi[i, group.class_position(hidden.m)])
    rank, odd = divmod(d + chi, 2)
    if odd or rank < 0:
        raise NonCharacterError(f"rank (d + chi(m)) / 2 = ({d} + {chi}) / 2 of "
                                f"{table.names[i]} is not a nonnegative integer")
    return rank


def weak_tuple_law(group: FiniteGroup, hidden: HiddenSubgroup, k: int) -> list[int]:
    """The k-register weak law, exactly: one int numerator over |G|^k per
    label tuple, in itertools.product order, at most TUPLE_CAP of them.  A
    tuple's numerator is the product of its registers' d |H| weak_rank."""
    if hidden.group.spec != group.spec:
        raise GroupMismatchError("hidden subgroup belongs to a different group")
    if k < 0:
        raise ValueError(f"register count must be >= 0, got {k}")
    table = character_table(group)
    if len(table.dims) ** k > TUPLE_CAP:
        raise CapExceededError(
            f"{len(table.dims)}^{k} tuple outcomes exceed cap {TUPLE_CAP}")
    single = [d * hidden.order * weak_rank(group, lab, hidden)
              for lab, d in zip(table.labels, table.dims.tolist())]
    law = [1]
    for _ in range(k):
        law = [a * b for a in law for b in single]
    if sum(law) != group.order ** k:
        raise RepresentationDefectError(
            f"weak law sums to {sum(law)}, not |G|^k = {group.order ** k}"
        )
    return law


def weak_dist(group: FiniteGroup, hidden: HiddenSubgroup) -> SamplingDistribution:
    """Exact distribution of the observed irrep label."""
    law = weak_tuple_law(group, hidden, 1)
    outcomes = tuple((name, Fraction(w, group.order))
                     for name, w in zip(character_table(group).names, law))
    return SamplingDistribution(
        "weak", group.spec, hidden.descriptor(), outcomes, exact=True
    )


def weak_dist_tuples(group: FiniteGroup, hidden: HiddenSubgroup,
                     k: int) -> SamplingDistribution:
    """The k-register weak distribution: weak_tuple_law with tuple labels."""
    law = weak_tuple_law(group, hidden, k)
    combos = itertools.product(character_table(group).names, repeat=k)
    outcomes = tuple(("(" + ",".join(combo) + ")", Fraction(w, group.order ** k))
                     for combo, w in zip(combos, law))
    return SamplingDistribution(
        "weak-product", group.spec, hidden.descriptor(), outcomes, exact=True
    )


def strong_dist(rep: Irrep, hidden: HiddenSubgroup,
                basis: MeasurementBasis) -> SamplingDistribution:
    """Distribution of the measured basis vector inside one observed irrep."""
    return _strong_stage("strong", (rep,), hidden, basis)


def projected_masses(projectors, basis: np.ndarray) -> np.ndarray:
    """||(P_0[w] (x) ... (x) P_{k-1}[w]) b_j||^2 for every w and every column
    b_j of a basis block.

    projectors holds one (..., W, d_i, d_i) stack per register and basis
    (..., D, w) blocks of w basis columns, D the product of the d_i, leading
    axes broadcast.  Returns the (..., W, w) masses, a matmul per register.
    A column's mass has the same bits in any block of two or more columns;
    a one-column block has others (numpy sends its products to gemv).
    """
    D = basis.shape[-2]
    block = basis[..., None, None, :, :]
    lead = 1
    for proj in projectors:
        d = proj.shape[-1]
        # register i is axis -2 of the (..., W, d_0 * ... * d_{i-1}, d_i, rest) view
        block = proj[..., None, :, :] @ block.reshape(*block.shape[:-3], lead, d, -1)
        lead *= d
    return np.sum(np.abs(block.reshape(*block.shape[:-3], D, -1)) ** 2, axis=-2)


def multiregister_dist(registers: RegisterTuple, hidden: HiddenSubgroup,
                       basis: MeasurementBasis) -> SamplingDistribution:
    """Strong measurement on the tensor product of k registers, one shared m."""
    return _strong_stage("multiregister", registers.irreps, hidden, basis)


def _strong_stage(context: str, irreps, hidden: HiddenSubgroup,
                  basis: MeasurementBasis) -> SamplingDistribution:
    """label_tuple_dist of the irreps, each read at the hidden m."""
    group = irreps[0].group
    at_m = None
    if not hidden.trivial:
        if group.spec != hidden.group.spec:
            raise GroupMismatchError("rep and hidden subgroup live over different groups")
        member = [group.index(hidden.m)]
        at_m = [rep.stack[member] for rep in irreps]
    return label_tuple_dist(group, [rep.label for rep in irreps], at_m, hidden, basis,
                            context)


def label_tuple_dist(group: FiniteGroup, labels, at_m, hidden: HiddenSubgroup,
                     basis: MeasurementBasis,
                     context: str = "multiregister") -> SamplingDistribution:
    """The multiregister (or, for one register, strong) distribution of
    registers with these irrep labels of the group: basis vector b_j comes
    up with ||Pi_m^(x)k b_j||^2 / rank, the rank being the exact product of
    the registers' weak ranks.  It reads each register's (1, d, d) matrix
    at_m at the hidden m alone (none for the trivial subgroup), so no
    register needs its whole stack."""
    D = prod(label_dim(lab) for lab in labels)
    if basis.dim != D:
        raise ValueError(f"basis dim {basis.dim} != tensor dim {D}")
    outcomes = tuple(f"b{j}" for j in range(D))
    names = tuple(label_str(lab) for lab in labels)
    if hidden.trivial:
        # Pi_H is exactly the identity and each basis vector is unit, so the
        # distribution is uniform with no arithmetic to do.
        return uniform_distribution(
            outcomes, context, group.spec, "trivial", registers=names
        )
    projs = []
    rank_total = 1
    for i, (lab, name, mat) in enumerate(zip(labels, names, at_m)):
        rank = weak_rank(group, lab, hidden)
        if rank == 0:
            raise ZeroRankError(
                f"{name}: Pi_H has rank 0 for m = {hidden.m}; this label "
                "never survives the weak stage" if context == "strong" else
                f"register {i} ({name}): Pi_H has rank 0 for m = {hidden.m}"
            )
        projs.append(member_projectors(mat, rank))
        rank_total *= rank
    masses = projected_masses(projs, basis.vectors)[0]
    return SamplingDistribution(
        context, group.spec, hidden.descriptor(),
        tuple((outcomes[j], float(masses[j] / rank_total)) for j in range(D)),
        registers=names,
    )


# ---------------------------------------------------------------------------
# Isotypic masses via class-bucketed group averages

def subsets(k: int, nonempty: bool = False):
    """All subsets of range(k) as sorted tuples, in bitmask order."""
    if k < 0:
        raise ValueError(f"register count must be >= 0, got {k}")
    out = []
    for mask in range(2 ** k):
        sub = tuple(i for i in range(k) if mask >> i & 1)
        if nonempty and not sub:
            continue
        out.append(sub)
    return out


def _span_stack(stacks, subset, start: int, stop: int) -> np.ndarray:
    """Dense (c, D', D') stack of g acting on the subset registers among
    start .. stop - 1 and as the identity on the others there, D' the product
    of their dimensions, for the c elements whose register matrices are the
    (c, d_i, d_i) `stacks`.  start 0, stop k gives g^subset on the whole
    tuple."""
    count = len(stacks[0])
    stack = np.ones((count, 1, 1))
    for i, fac in enumerate(stacks[start:stop], start):
        if i not in subset:
            fac = np.broadcast_to(np.eye(fac.shape[1]), fac.shape)
        d = stack.shape[1] * fac.shape[1]
        stack = np.einsum("gij,gkl->gikjl", stack, fac).reshape(count, d, d)
    return stack


def _subset_span(subset, k: int, columns: bool) -> tuple[int, int]:
    """(start, stop): the registers that _apply_subset's span stack for
    `subset` covers, from the subset's first register to its last.  On the
    column index of a (c, D, D) array (columns) a block that starts past
    register 0 spans to the last register, so that _apply_subset takes its
    x @ K^T form there."""
    if not subset:
        return 0, 0
    start = subset[0]
    return (start, k) if start and columns else (start, subset[-1] + 1)


def _apply_subset(dims, subset, x: np.ndarray, K: np.ndarray) -> np.ndarray:
    """(c, R * D * t): g^subset for each of c elements on the register index
    of x, a (1 or c, R, D * t) array whose last axis is that index followed
    by t entries, by one batched matmul of a reshaped view of x with K, the
    (c, D', D') span stack over _subset_span's registers (conjugated for
    conj(g^subset)).  The dense stack's other entries only add exact-zero
    terms and factors of 1.0 to each BLAS sum, so the result has the dense
    product's bits."""
    pre = prod(dims[:subset[0]]) if subset else 1
    rows, post = x.shape[1] * pre, x.shape[-1] // (pre * K.shape[1])
    if post == 1:
        # nothing after the block: x.reshape(c, R * pre, D_span) @ K^T.  The other
        # form would be a one-column product, which goes through gemv: other bits
        y = x.reshape(-1, rows, K.shape[1]) @ K.swapaxes(1, 2)
    else:
        # entries after the block: K[:, None] @ x.reshape(c, R * pre, D_span, post)
        y = K[:, None] @ x.reshape(-1, rows, K.shape[1], post)
    return y.reshape(len(K), -1)


def _check_pair_cap(k: int) -> None:
    """CapExceededError when the 4^k subset pairs exceed PAIR_CAP."""
    if 4 ** k > PAIR_CAP:
        raise CapExceededError(f"4^{k} subset pairs exceed cap {PAIR_CAP}")


def _class_masses(group: FiniteGroup, per: np.ndarray) -> np.ndarray:
    """Isotypic masses (..., irreps), in label order, from per-element
    values (..., |G|), row by row: np.add.at into class buckets, then
    d_sigma / |G| times one dot product per character row, whose imaginary
    part must be within EPS.  Both sides of isotypic_masses's _DENSE_LIMIT
    fork end here; the fork stays because the dense einsum has the
    reports' bits and the loop is faster past the limit."""
    table = character_table(group)
    chi = table.chi.astype(np.float64)
    scale = table.dims / group.order
    classes = group.class_indices()
    out = np.empty(per.shape[:-1] + (len(chi),))
    for row in np.ndindex(per.shape[:-1]):
        buckets = np.zeros(len(chi), dtype=np.complex128)
        np.add.at(buckets, classes, per[row])
        for i in range(len(chi)):
            val = complex(scale[i] * np.dot(chi[i], buckets))
            if abs(val.imag) > EPS:
                raise RepresentationDefectError(
                    f"isotypic mass for {table.names[i]} has imaginary part "
                    f"{val.imag:.3e}"
                )
            out[row + (i,)] = val.real
    return out


def isotypic_masses(registers: RegisterTuple, subsets, b: np.ndarray) -> np.ndarray:
    """||J_sigma b||^2 per sigma, in label order, with g acting by g^subset:
    a (len(subsets), irreps) array from the overlaps <b, g^subset b>.

    Up to _DENSE_LIMIT entries (|G| * D^2) a subset's overlaps are one
    einsum over its dense stack, whose bits the verify reports print, taken
    over wide_slices of at most _DENSE_CHUNK_ENTRIES elements * D^2 entries
    (at least two elements) with the bits of the whole stack; past it a
    per-element tensordot loop, which is faster there and never holds the
    stack, so both forks stay."""
    group, D = registers.group, registers.total_dim
    stacks = [rep.stack for rep in registers.irreps]
    per = np.empty((len(subsets), group.order), dtype=np.complex128)
    if group.order * D * D <= _DENSE_LIMIT:
        for chunk in wide_slices(group.order, _DENSE_CHUNK_ENTRIES // (D * D)):
            part = [stack[chunk] for stack in stacks]
            for row, subset in zip(per, subsets):
                # no name holds the stack, so the last one is freed before the next
                row[chunk] = np.einsum("i,gij,j->g", b.conj(),
                                       _span_stack(part, subset, 0, registers.k), b)
        return _class_masses(group, per)
    for row, subset in zip(per, subsets):
        for gi in range(group.order):
            v = b.reshape(registers.dims)
            for i in subset:
                v = np.moveaxis(np.tensordot(stacks[i][gi], v, axes=(1, i)), 0, i)
            row[gi] = np.vdot(b, v.reshape(-1))
    return _class_masses(group, per)


def doubled_isotypic_masses(registers: RegisterTuple, firsts, seconds,
                            b: np.ndarray) -> np.ndarray:
    """||J_sigma (b (x) conj(b))||^2 per sigma, in label order, on the doubled
    space, where g acts by g^first on the left factor and conj(g^second) on
    the right: a (len(firsts), len(seconds), irreps) grid.

    The group is walked in chunks of at most _CHUNK_ENTRIES elements * D^2
    entries.  In a chunk each subset's span stack is built once; for each
    first, left = g^first W (W = b b^dagger) is formed once, and each second
    applies conj(g^second) to its columns and contracts with conj(W), giving
    per-element values.  The masses come from their class buckets after the
    last chunk.  Both actions go block by block through _apply_subset and
    every product keeps its per-element shape, so each grid entry has the
    bits of numpy's einsum "gik,kl,gjl,ij->g" on the dense stacks."""
    D = registers.total_dim
    if D * D > registers.tensor_cap:
        raise CapExceededError(
            f"doubled dimension {D * D} exceeds cap {registers.tensor_cap}"
        )
    group, k, dims = registers.group, registers.k, registers.dims
    w = np.outer(b, b.conj())
    right = w.conj().reshape(-1)
    per = np.empty((len(firsts), len(seconds), group.order), dtype=np.complex128)
    step = max(1, _CHUNK_ENTRIES // (D * D))
    for lo in range(0, group.order, step):
        chunk = slice(lo, lo + step)
        stacks = [rep.stack[chunk] for rep in registers.irreps]
        rows = {s: _span_stack(stacks, s, *_subset_span(s, k, False)) for s in firsts}
        cols = {s: _span_stack(stacks, s, *_subset_span(s, k, True)).conj()
                for s in seconds}
        for i, first in enumerate(firsts):
            left = _apply_subset(dims, first, w.reshape(1, 1, -1), rows[first])
            left = left.reshape(-1, D, D)
            for j, second in enumerate(seconds):
                y = _apply_subset(dims, second, left, cols[second])
                if D == 1:
                    # numpy's einsum is an elementwise product; a matmul has other bits
                    per[i, j, chunk] = y[:, 0] * right
                    continue
                if len(y) == 1:
                    # a one-row matmul is a dot product, with other bits than gemv
                    y = np.concatenate((y, y))
                per[i, j, chunk] = (y @ right)[:len(left)]
    return _class_masses(group, per)


# ---------------------------------------------------------------------------
# Interference functionals over a class of involutions

def normalized_characters(group: FiniteGroup, M: ConjugacyClass) -> tuple[Fraction, ...]:
    """chi_sigma(M) / d_sigma for every irrep sigma, exact, in label order
    (the order of the isotypic mass arrays).  M must be a class of
    involutions of the group."""
    if M.group.spec != group.spec:
        raise GroupMismatchError(
            f"class over {M.group.spec} used with group {group.spec}"
        )
    e = group.elements[0]
    rep = M.representative
    if rep == e or rep * rep != e:
        raise ValueError(f"class of {rep} is not a class of involutions")
    table = character_table(group)
    column = table.chi[:, group.class_position(rep)].tolist()
    return tuple(Fraction(x, d) for x, d in zip(column, table.dims.tolist()))


def subset_expectation(registers: RegisterTuple, b: np.ndarray, subset,
                       M: ConjugacyClass) -> float:
    """E^I: the average over m in M of <b, m^I b>, computed spectrally."""
    ratios = normalized_characters(registers.group, M)
    return _class_average(ratios, isotypic_masses(registers, [subset], b)[0])


def doubled_expectation(registers: RegisterTuple, b: np.ndarray, first, second,
                        M: ConjugacyClass) -> float:
    """E^{I1,I2}: the doubled-space analogue on b (x) conj(b)."""
    masses = doubled_isotypic_masses(registers, [first], [second], b)[0, 0]
    return _class_average(normalized_characters(registers.group, M), masses)


def _class_average(ratios, masses: np.ndarray) -> float:
    """sum over sigma of ratios[sigma] * masses[sigma], ratios being the
    normalized_characters chi_sigma(M)/d_sigma."""
    return float(sum(float(c) * m for c, m in zip(ratios, masses.tolist()) if c))


@dataclass(frozen=True)
class InterferenceMoments:
    """Exact spectral mean / variance of the mass ||Pi_m^(x)k b||^2 over M."""

    expectation: float
    variance: float
    variance_bound: float
    doubled_terms: dict


def interference_moments(registers: RegisterTuple, b: np.ndarray,
                         M: ConjugacyClass) -> InterferenceMoments:
    """Mean and variance of the multiregister measurement mass over m in M.

    mean     = 2^-k (1 + sum over nonempty I of E^I)
    variance = 4^-k (sum over nonempty I1, I2 of E^{I1,I2}
                     - |sum over nonempty I of E^I|^2)
    and the raw doubled sum divided by 4^k is an upper bound for the
    variance.
    """
    k = registers.k
    _check_pair_cap(k)
    subs = subsets(k, nonempty=True)
    ratios = normalized_characters(registers.group, M)
    lin = sum(_class_average(ratios, masses)
              for masses in isotypic_masses(registers, subs, b))
    grid = doubled_isotypic_masses(registers, subs, subs, b)
    doubled_terms = {
        (s1, s2): _class_average(ratios, masses)
        for s1, row in zip(subs, grid) for s2, masses in zip(subs, row)
    }
    raw = sum(doubled_terms.values())
    mean = (1.0 + lin) / 2 ** k
    bound = raw / 4 ** k
    variance = (raw - lin * lin) / 4 ** k
    return InterferenceMoments(
        float(mean), float(variance), float(bound), doubled_terms
    )


# ---------------------------------------------------------------------------
# Second-moment inequalities

def claim_projector_average(rep: MatrixRep, b: np.ndarray) -> tuple[float, float]:
    """lhs: exact average over ALL g of |<b, g b>|^2.  rhs: the isotypic
    second-moment sum, sum over sigma of ||J_sigma b||^4 / d_sigma.  Returns
    (lhs, rhs); the claim is lhs <= rhs."""
    per = np.einsum("i,gij,j->g", b.conj(), rep.stack, b)
    lhs = float(np.mean(np.abs(per) ** 2))
    masses = _class_masses(rep.group, per)
    dims = character_table(rep.group).dims.tolist()
    rhs = float(sum(m ** 2 / d for m, d in zip(masses.tolist(), dims)))
    return lhs, rhs


def projector_sum_bound(registers: RegisterTuple, sigma,
                        b: np.ndarray) -> tuple[float, float]:
    """lhs: sum over ALL subset pairs (I1, I2) of ||J_sigma (b (x) conj(b))||^2
    on the doubled space.  rhs: 2^k d_sigma^2 times the sum over ALL subsets I
    of sum over tau of ||J_tau^I b||^2 / d_tau.  Returns (lhs, rhs); the bound
    is lhs <= rhs.
    """
    table = character_table(registers.group)
    i = table.position(sigma)
    dims = table.dims.tolist()
    k = registers.k
    _check_pair_cap(k)
    all_subs = subsets(k)
    lhs = 0.0
    for mass in doubled_isotypic_masses(registers, all_subs, all_subs, b)[:, :, i].flat:
        lhs += mass
    inner = 0.0
    for masses in isotypic_masses(registers, all_subs, b):
        inner += sum(m / d for m, d in zip(masses.tolist(), dims))
    rhs = 2 ** k * dims[i] ** 2 * inner
    return float(lhs), float(rhs)


def expected_isotypic_dimension(sigma, subset, k: int, group: FiniteGroup) -> Fraction:
    """Expected rank fraction of J_sigma^I under k-fold Plancherel sampling:
    sum over label tuples of P(tuple) * mult(sigma) * d_sigma / d_tuple.

    Exact arithmetic throughout; the lemma is that the result equals
    d_sigma^2 / |G| for every nonempty I.
    """
    sub = tuple(sorted(set(subset)))
    if not sub:
        raise ValueError("subset must be nonempty")
    if any(i < 0 or i >= k for i in sub):
        raise ValueError(f"subset {sub} out of range for k = {k}")
    table = character_table(group)
    pos = table.position(sigma)
    if len(table.dims) ** k > TUPLE_CAP:
        raise CapExceededError(
            f"{len(table.dims)}^{k} label tuples exceed cap {TUPLE_CAP}")
    d_sigma = int(table.dims[pos])
    weights = [c.size * x for c, x in
               zip(group.conjugacy_classes(), table.chi[pos].tolist())]
    # No int64 below exceeds (1 + sum |w_c|) * top^k.  For sym:n and wreath:n
    # under ELEMENT_CAP and TUPLE_CAP that peaks at 2.9e10 (sym:8,
    # k = 3), far below 2^63; a larger bound is refused, never wrapped.
    top = max(int(np.abs(table.chi).max()), int(table.dims.max()))
    if (1 + sum(map(abs, weights))) * top ** k >= 2 ** 63:
        raise CapExceededError(
            f"decomposition sum of {table.names[pos]} at k = {k} overflows int64"
        )
    # One row per label tuple in itertools.product order: characters on
    # subset registers, dimensions elsewhere.  P(tuple) d_sigma / d_tuple =
    # d_tuple d_sigma / |G|^k, so the sum is one numerator over |G|^k.
    class_products = np.ones((1, len(weights)), dtype=np.int64)
    tuple_dims = np.ones(1, dtype=np.int64)
    for i in range(k):
        factor = table.chi if i in sub else table.dims[:, None]
        class_products = (class_products[:, None] * factor).reshape(-1, len(weights))
        tuple_dims = np.multiply.outer(tuple_dims, table.dims).reshape(-1)
    inner = class_products @ np.array(weights, dtype=np.int64)
    mult, rem = np.divmod(inner, group.order)
    bad = np.flatnonzero((rem != 0) | (mult < 0))
    if bad.size:
        raise NonCharacterError(
            f"multiplicity {Fraction(int(inner[bad[0]]), group.order)} of "
            f"{table.names[pos]} is not a nonnegative integer"
        )
    numerator = d_sigma * sum(d * m for d, m in zip(tuple_dims.tolist(), mult.tolist()))
    return Fraction(numerator, group.order ** k)
