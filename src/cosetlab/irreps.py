"""Irreducible representations and exact characters of S_n and W(n).

S_n irreps use Young's orthogonal form: the adjacent transposition (i,i+1)
acts on standard tableaux with diagonal entry 1/axial-distance and an
off-diagonal coupling to the letter-swapped tableau when that is standard.
General elements are filled in by a breadth-first walk over the Cayley graph
of the adjacent transpositions, the group's generators(), one product each:
stack[g * s] = stack[g] @ stack[s] for the parent g and generator s through
which the walk first reaches g * s.  The walk goes one level at a time on the
group's point-image array.  The children g * s of a whole level are ranked
at once, listed in frontier order and, within one frontier element, in
generator order; each new element takes the first pair in that list as its
parent, and the new elements in list order are the next frontier.  A
first-in-first-out queue that pops g and pushes each unseen g * s in
generator order visits the same levels in the same order and picks the same
parents, so every element's matrix is the same chain of float64 products
as that queue walk gives, bit for bit; the products of one level are one
batched matmul.  The walk depends on n only, so one walk fills the stacks
of every partition of n.

W(n) irreps come in two families:

  * pair label {rho, sigma}, rho != sigma: induced from the flip-0 subgroup
    with coset representatives {identity, s}; dimension 2 d_rho d_sigma.
    Blocks, with m = d_rho d_sigma and KRS(a, b) = rho(a) (x) sigma(b):
    flip 0 -> [[KRS(alpha,beta), 0], [0, KRS(beta,alpha)]],
    flip 1 -> [[0, KRS(alpha,beta)], [KRS(beta,alpha), 0]].
  * diagonal label (rho, sign): acts on V (x) V by
    ((alpha,beta),t) -> (rho(alpha) (x) rho(beta)) . (sign * SWAP)^t,
    dimension d_rho^2.

label_matrices(group, labels, elements) is the one builder of irrep
matrices of either family, at any list of element indices, after the one
matrix cap check_matrix_cap: one Young walk for sym:n, wreath_matrices for
wreath:n.  So bounds builds Pi_m's matrices at the members of the
involution class only and `sample --strong` at the hidden m only;
group_irreps is its every-element case.

Characters are exact integers throughout (Murnaghan-Nakayama plus the
wreath character rules in wreath_character); matrices are float64, since
every explicit model here is real orthogonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import SamplingDistribution
from .errors import (
    CapExceededError,
    GroupMismatchError,
    NonCharacterError,
    RepresentationDefectError,
)
from .groups import FiniteGroup, SymmetricGroup, WreathElement, WreathGroup, cached_group
from .tableaux import (
    Partition,
    character_sn,
    check_partition,
    dimension,
    letter_positions,
    partition_str,
    partitions,
    parse_partition,
    standard_tableaux,
)

EPS = 1e-9
TRACE_INT_TOL = 1e-6
MAX_YOR_N = 7
MAX_WREATH_N = 4


# ---------------------------------------------------------------------------
# Irrep labels

@dataclass(frozen=True)
class PairLabel:
    """Unordered pair {rho, sigma} of distinct partitions of the same n."""

    first: Partition
    second: Partition

    def __post_init__(self):
        a = check_partition(self.first)
        b = check_partition(self.second)
        if sum(a) != sum(b):
            raise ValueError("pair label partitions must have equal size")
        if a == b:
            raise ValueError("pair label needs two distinct partitions")
        order = {lam: i for i, lam in enumerate(partitions(sum(a)))}
        if order[a] > order[b]:
            a, b = b, a
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)


@dataclass(frozen=True)
class DiagonalLabel:
    """Diagonal label (rho, sign), sign in {+1, -1}."""

    rho: Partition
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "rho", check_partition(self.rho))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


def label_str(label) -> str:
    if isinstance(label, tuple):
        return partition_str(label)
    if isinstance(label, PairLabel):
        return "{" + partition_str(label.first) + "," + partition_str(label.second) + "}"
    if isinstance(label, DiagonalLabel):
        return "(" + partition_str(label.rho) + (",+)" if label.sign == 1 else ",-)")
    raise TypeError(f"not an irrep label: {label!r}")


def parse_label(text: str):
    t = text.strip()
    if t.startswith("["):
        return parse_partition(t)
    if t.startswith("{") and t.endswith("}") and "],[" in t:
        mid = t[1:-1].index("],[") + 2
        return PairLabel(parse_partition(t[1:mid]), parse_partition(t[mid:-1].lstrip(",")))
    if t.startswith("(") and t.endswith(")"):
        body = t[1:-1]
        cut = body.rindex(",")
        sign_text = body[cut + 1 :].strip()
        if sign_text not in ("+", "-"):
            raise ValueError(f"diagonal label sign must be + or -, got {sign_text!r}")
        return DiagonalLabel(parse_partition(body[:cut]), 1 if sign_text == "+" else -1)
    raise ValueError(f"cannot parse irrep label {text!r}")


def label_dim(label) -> int:
    if isinstance(label, tuple):
        return dimension(label)
    if isinstance(label, PairLabel):
        return 2 * dimension(label.first) * dimension(label.second)
    if isinstance(label, DiagonalLabel):
        return dimension(label.rho) ** 2
    raise TypeError(f"not an irrep label: {label!r}")


def irrep_labels(group: FiniteGroup) -> tuple:
    """All irrep labels of the group, in the package's fixed order: the
    cached label tuple of its character table.

    Symmetric groups: partitions in reverse-lexicographic order.  Wreath
    groups: for each partition the (+) then (-) diagonal label, then the
    pairs {p_i, p_j} with i < j in partition order.
    """
    return character_table(group).labels


# ---------------------------------------------------------------------------
# Matrix representations

class MatrixRep:
    """A matrix representation given by a stack aligned with group.elements."""

    def __init__(self, group: FiniteGroup, stack: np.ndarray, name: str = "rep"):
        assert stack.shape[0] == group.order and stack.shape[1] == stack.shape[2]
        self.group = group
        self.stack = stack
        self.name = name

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def matrix(self, g) -> np.ndarray:
        return self.stack[self.group.index(g)]

    def traces(self) -> np.ndarray:
        return np.einsum("gii->g", self.stack)

    def check(self) -> None:
        """Verify unitarity and the homomorphism property within EPS.

        Checks rho(g) rho(s) = rho(g*s) for every element g and every s in
        e and group.generators(), with g*s ranked from the point rows; s = e
        gives rho(e) = I, since unitary rho(g) are invertible.  That is the
        whole homomorphism property: every h is a word s_1 ... s_k over the
        generators (a finite group needs no inverses), and by induction on
        k, rho(g) rho(h s) = rho(g) rho(h) rho(s) = rho(g*h) rho(s) =
        rho(g*h*s).  Within tolerance, a word of k steps on d x d matrices
        adds up to about k*d*EPS.  Raises RepresentationDefectError.
        """
        stack = self.stack
        eye = np.eye(self.dim)
        gram = np.einsum("gji,gjk->gik", stack.conj(), stack)
        worst = np.max(np.abs(gram - eye))
        if worst > EPS:
            raise RepresentationDefectError(
                f"{self.name}: unitarity defect {worst:.3e} exceeds {EPS:.1e}"
            )
        group = self.group
        pts = group.point_images()
        for s in (group.identity(),) + group.generators():
            j = group.index(s)
            defect = np.abs(stack @ stack[j] - stack[group.point_rank(pts[:, pts[j]])])
            worst = defect.max(axis=(1, 2))
            if worst.max() > EPS:
                g = group.elements[int(np.argmax(worst))]
                raise RepresentationDefectError(
                    f"{self.name}: homomorphism defect {worst.max():.3e} at {g} * {s}"
                )


class Irrep(MatrixRep):
    """An irreducible representation: the explicit orthogonal model of the
    module docstring for one label.  Its exact integer characters are the
    label's row of character_table(group)."""

    def __init__(self, group, label, stack):
        super().__init__(group, stack, name=label_str(label))
        self.label = label

    def check(self) -> None:
        """MatrixRep.check, then the character-table row: exact
        irreducibility and traces equal to the characters within EPS."""
        super().check()
        table = character_table(self.group)
        chi = table.chi[table.position(self.label)]
        classes = self.group.conjugacy_classes()
        # Exact irreducibility: sum |C| chi(C)^2 == |G| in integer arithmetic.
        norm = sum(c.size * x * x for c, x in zip(classes, chi.tolist()))
        if norm != self.group.order:
            raise RepresentationDefectError(
                f"{self.name}: character norm {norm} != |G| = {self.group.order}"
            )
        traces = self.traces()
        expected = chi.astype(np.float64)[self.group.class_indices()]
        worst = np.max(np.abs(traces - expected))
        if worst > EPS:
            raise RepresentationDefectError(
                f"{self.name}: trace/character mismatch {worst:.3e}"
            )


# ---------------------------------------------------------------------------
# Young's orthogonal form for S_n

def _swap_letters(tab, a: int, b: int):
    return tuple(
        tuple(b if v == a else a if v == b else v for v in row) for row in tab
    )


def _yor_generator(lam: Partition, i: int) -> np.ndarray:
    """Matrix of the adjacent transposition (i, i+1) on standard tableaux."""
    tabs = standard_tableaux(lam)
    index = {t: k for k, t in enumerate(tabs)}
    d = len(tabs)
    mat = np.zeros((d, d))
    for k, tab in enumerate(tabs):
        pos = letter_positions(tab)
        r1, c1 = pos[i]
        r2, c2 = pos[i + 1]
        axial = (c2 - r2) - (c1 - r1)
        mat[k, k] = 1.0 / axial
        swapped = _swap_letters(tab, i, i + 1)
        if swapped in index:
            mat[index[swapped], k] = math.sqrt(1.0 - 1.0 / axial**2)
    return mat


def _yor_stacks(n: int, shapes, elements):
    """Young's orthogonal form stacks of the given partitions of n at the
    elements (an index of the element axis), yielded one at a time, each cut
    before the next is filled.  All are filled from one level-at-a-time
    walk of the module docstring: per level the children, their parents and
    generators as index arrays, then stack[g * s] = stack[g] @ mats[s] as
    one batched matmul per level.  The caller has checked the matrix cap."""
    group = cached_group(f"sym:{n}")
    pts = group.point_images()
    order, width = pts.shape
    # generator i is s_i = (i, i+1), with point row images[i]; the point row
    # of g * s_i is g's row indexed by images[i]
    images = pts[[group.index(s) for s in group.generators()]]
    gens = len(images)
    e = group.index(group.identity())
    seen = np.zeros(order, dtype=bool)
    seen[e] = True
    frontier = np.array([e])
    levels = []
    while frontier.size:
        # position p holds frontier[p // gens] * s_(p % gens)
        kids = group.point_rank(
            pts[frontier][:, images.ravel()].reshape(frontier.size * gens, width))
        positions = np.arange(kids.size)
        first = np.full(order, kids.size)
        np.minimum.at(first, kids, positions)
        found = np.flatnonzero((first[kids] == positions) & ~seen[kids])
        parents, which = np.divmod(found, gens)
        parents = frontier[parents]
        frontier = kids[found]
        seen[frontier] = True
        levels.append((frontier, parents, which))
    assert seen.all(), "generators do not generate the group"
    for lam in shapes:
        d = dimension(lam)
        mats = np.array([_yor_generator(lam, i) for i in range(gens)]).reshape(gens, d, d)
        stack = np.empty((order, d, d))
        stack[e] = np.eye(d)
        for kids, parents, which in levels:
            stack[kids] = stack[parents] @ mats[which]
        yield stack[elements]


def young_orthogonal_rep(lam) -> Irrep:
    """The S_n irrep of shape lam in Young's orthogonal form."""
    lam = check_partition(lam)
    group = cached_group(f"sym:{sum(lam)}")
    stack, = label_matrices(group, [lam], slice(None))
    return Irrep(group, lam, stack)


# ---------------------------------------------------------------------------
# Wreath product irreps

def _swap_matrix(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def wreath_character(label, g: WreathElement) -> int:
    """Exact character of the W(n) irrep with the given label at g."""
    n = g.degree
    ct_a = g.alpha.cycle_type()
    ct_b = g.beta.cycle_type()
    if isinstance(label, PairLabel):
        if sum(label.first) != n:
            raise GroupMismatchError("label degree does not match element degree")
        if g.flip:
            return 0
        rho, sig = label.first, label.second
        return character_sn(rho, ct_a) * character_sn(sig, ct_b) + character_sn(
            sig, ct_a
        ) * character_sn(rho, ct_b)
    if isinstance(label, DiagonalLabel):
        if sum(label.rho) != n:
            raise GroupMismatchError("label degree does not match element degree")
        if g.flip:
            # trace((A (x) B) . sign*SWAP) = sign * trace(AB)
            return label.sign * character_sn(label.rho, (g.alpha * g.beta).cycle_type())
        return character_sn(label.rho, ct_a) * character_sn(label.rho, ct_b)
    raise TypeError(f"not a wreath irrep label: {label!r}")


def wreath_matrices(n: int, labels, elements) -> list[np.ndarray]:
    """Each label's matrices at the given elements (an index of the element
    axis) of W(n), in label order, by the block rules of the module
    docstring, from one _yor_stacks walk for every partition of n."""
    grp = cached_group(f"wreath:{n}")
    check_matrix_cap(grp)
    # index (a * n! + b) * 2 + flip is ((alpha, beta), flip), with a and b
    # the sym:n indices of alpha and beta: the group's point_rank, which
    # must give every element its own index
    assert np.array_equal(grp.point_rank(grp.point_images()), np.arange(grp.order))
    index = np.arange(grp.order)[elements]
    a, b = np.divmod(index // 2, math.factorial(n))
    flip = index % 2
    parts = partitions(n)
    sym = dict(zip(parts, _yor_stacks(n, parts, slice(None))))
    out = []
    for lab in labels:
        if isinstance(lab, DiagonalLabel):
            r = s = sym[lab.rho]
        else:
            r, s = sym[lab.first], sym[lab.second]
        m = r.shape[1] * s.shape[1]
        # KRS(alpha, beta) of the module docstring
        krs = np.einsum("wij,wkl->wikjl", r[a], s[b]).reshape(-1, m, m)
        if isinstance(lab, DiagonalLabel):
            flipped = flip == 1
            krs[flipped] = lab.sign * (krs[flipped] @ _swap_matrix(r.shape[1]))
            out.append(krs)
        else:
            # axes (element, row block, row, column block, column)
            mats = np.zeros((len(flip), 2, m, 2, m))
            rows = np.arange(len(flip))
            mats[rows, 0, :, flip] = krs
            mats[rows, 1, :, 1 - flip] = np.einsum(
                "wij,wkl->wikjl", r[b], s[a]).reshape(-1, m, m)
            out.append(mats.reshape(-1, 2 * m, 2 * m))
    return out


def check_matrix_cap(group: FiniteGroup) -> None:
    """CapExceededError unless the group is within its family's matrix cap:
    n <= MAX_YOR_N for sym:n, n <= MAX_WREATH_N for wreath:n.  It reads n
    alone, so it builds no element and no class."""
    if isinstance(group, SymmetricGroup):
        cap, what = MAX_YOR_N, "orthogonal-form"
    else:
        cap, what = MAX_WREATH_N, "wreath irrep"
    if group.n > cap:
        raise CapExceededError(
            f"{what} matrices are capped at n <= {cap}, got n = {group.n}")


def label_matrices(group: FiniteGroup, labels, elements) -> list[np.ndarray]:
    """The one builder of irrep matrices: each label's (W, d, d) matrices at
    the W elements that `elements` indexes on the element axis (a list of
    indices, or slice(None) for the whole stack), in label order, after
    check_matrix_cap.  For sym:n one Young walk fills the labels' stacks
    one at a time, each cut at the elements before the next is built; for
    wreath:n wreath_matrices builds the rows alone.  A row has the same
    bytes in any element list and beside any other labels."""
    check_matrix_cap(group)
    if isinstance(group, SymmetricGroup):
        return list(_yor_stacks(group.n, labels, elements))
    return wreath_matrices(group.n, labels, elements)


def group_irreps(group: FiniteGroup) -> tuple[Irrep, ...]:
    """Every irrep of the group with its whole stack, in irrep_labels
    order: label_matrices at every element."""
    check_matrix_cap(group)
    labels = character_table(group).labels
    stacks = label_matrices(group, labels, slice(None))
    return tuple(Irrep(group, lab, stack) for lab, stack in zip(labels, stacks))


# ---------------------------------------------------------------------------
# Character tables, Plancherel, exact traces

@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Exact integer characters of every irrep of one group, by position.

    Row i belongs to labels[i]: the irrep_labels order, which is also the
    order of group_irreps.  Column j belongs to group.conjugacy_classes()[j].
    names[i] is label_str(labels[i]) and dims[i] the dimension.  The arrays
    are read-only.
    """

    labels: tuple
    names: tuple[str, ...]
    dims: np.ndarray
    chi: np.ndarray

    def position(self, label) -> int:
        """Row of an irrep label; an Irrep stands for its own label."""
        if isinstance(label, Irrep):
            label = label.label
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"not an irrep label of this group: {label!r}") from None


_TABLE_CACHE: dict[str, CharacterTable] = {}


def character_table(group: FiniteGroup) -> CharacterTable:
    """The group's character table, built on first use and cached per group
    spec."""
    table = _TABLE_CACHE.get(group.spec)
    if table is None:
        table = _TABLE_CACHE[group.spec] = _build_character_table(group)
    return table


def _build_character_table(group: FiniteGroup) -> CharacterTable:
    classes = group.conjugacy_classes()
    if isinstance(group, SymmetricGroup):
        labels = partitions(group.n)
        rows = [[character_sn(lam, c.label) for c in classes] for lam in labels]
    elif isinstance(group, WreathGroup):
        parts = partitions(group.n)
        labels = [DiagonalLabel(rho, sign) for rho in parts for sign in (1, -1)]
        labels += [PairLabel(a, b) for a, b in itertools.combinations(parts, 2)]
        rows = [[wreath_character(lab, c.representative) for c in classes]
                for lab in labels]
    else:
        raise GroupMismatchError(f"unsupported group {group!r}")
    dims = np.array([label_dim(lab) for lab in labels], dtype=np.int64)
    chi = np.array(rows, dtype=np.int64)
    dims.setflags(write=False)
    chi.setflags(write=False)
    return CharacterTable(tuple(labels), tuple(label_str(lab) for lab in labels),
                          dims, chi)


def plancherel(group: FiniteGroup) -> SamplingDistribution:
    """The Plancherel distribution d^2/|G| on irrep labels, exact."""
    table = character_table(group)
    dims = table.dims.tolist()
    total = sum(d * d for d in dims)
    if total != group.order:
        raise RepresentationDefectError(
            f"squared dimensions of {group.spec} sum to {total}, not |G| = {group.order}")
    outcomes = tuple(
        (name, Fraction(d * d, group.order)) for name, d in zip(table.names, dims)
    )
    return SamplingDistribution(
        "plancherel", group.spec, "trivial", outcomes, exact=True
    )


def exact_int(value, what: str) -> int:
    """The integer within TRACE_INT_TOL of value, whose imaginary part must
    be within TRACE_INT_TOL of 0; NonCharacterError otherwise."""
    z = complex(value)
    if abs(z.imag) > TRACE_INT_TOL or abs(z.real - round(z.real)) > TRACE_INT_TOL:
        raise NonCharacterError(f"{what} {z!r} is not an integer within tolerance")
    return round(z.real)


def class_character(rep: MatrixRep) -> tuple[int, ...]:
    """Exact integer class function from matrix traces (guarded rounding)."""
    return tuple(exact_int(rep.matrix(cls.representative).trace(), f"{rep.name} trace")
                 for cls in rep.group.conjugacy_classes())
