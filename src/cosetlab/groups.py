"""Finite group arithmetic for S_n and the block-swap wreath product S_n wr Z2.

Composition convention, used everywhere in this package: (g*h) means "apply h
first, then g", so (g*h)(i) = g(h(i)).  The wreath product W(n) consists of
pairs of degree-n permutations together with a flip bit,

    ((a1,b1),t1) * ((a2,b2),t2) = ((a1*x, b1*y), t1 XOR t2),

with (x,y) = (a2,b2) when t1 = 0 and (x,y) = (b2,a2) when t1 = 1.  The flip
element s = ((e,e),1) swaps the two blocks; |W(n)| = 2*(n!)^2.

Element enumeration order is deterministic: permutations in lexicographic
order of their image tuples, wreath elements in lexicographic order of
(alpha.images, beta.images, flip).

Each group also has one integer point-image array, row i the action of
element i on a set of points: the image tuple for sym:n; for wreath:n the
faithful action on 2n points, alpha on block 0..n-1 and beta on block
n..2n-1 for flip 0, the blocks crossed for flip 1, plus two marker points
that the flip swaps (without them wreath:0 would act trivially).
point_rank maps rows back to enumeration indices: the Lehmer code for sym,
(rank(alpha)*n! + rank(beta))*2 + flip for wreath.  The point row of g*h is
g's row indexed by h's row.

Each group has one generating set, generators(), in a fixed order: for sym:n
the adjacent transpositions s_0, ..., s_(n-2), s_i swapping i and i+1; for
wreath:n ((s_i, e), 0) for each i, then ((e, s_i), 0) for each i, then the
block swap.  Young's orthogonal form walks them, MatrixRep.check tests the
homomorphism on them, and the oracle spells elements as words over them.

Conjugacy classes are brute-force orbits under conjugation by every
element, computed on the point-image arrays; no cycle-type shortcuts are
trusted, the cycle-type descriptor is attached afterwards and checked on
every member.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapExceededError,
    GroupMismatchError,
    UnsupportedGroupError,
)

ELEMENT_CAP = 50_000
_CYCLE = re.compile(r"\(([^()]*)\)")
_CYCLES = re.compile(r"(?:\([^()]*\)\s*)+")


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0,..,n-1}, stored as its image tuple.

    images[i] is the image of point i.  The canonical text form is the
    one-line image list, e.g. "[2,0,1]".
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..n-1: {self.images!r}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise GroupMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        img = self.images
        return Permutation(tuple(img[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles (fixed points included), each starting at its
        minimum, sorted by that minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.degree else 1

    def __str__(self) -> str:
        return "[" + ",".join(str(i) for i in self.images) + "]"


def parse_permutation(text: str) -> Permutation:
    """Inverse of str(): "[2,0,1]" -> Permutation((2,0,1))."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"expected image list like [2,0,1], got {text!r}")
    inner = t[1:-1].strip()
    images = tuple(int(p) for p in inner.split(",")) if inner else ()
    return Permutation(images)


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(01)" or "(0 2)(1 3)" into a permutation.

    Inside each parenthesized cycle, points may be separated by spaces or
    commas; a bare digit string like "(012)" is read one character at a time,
    which is unambiguous for n <= 10.  Every "(" must be closed by a ")"
    before the next cycle opens.
    """
    t = text.strip()
    if t in ("", "()", "e"):
        return Permutation.identity(n)
    if not t.startswith("("):
        raise ValueError(f"expected cycle notation like (01), got {text!r}")
    if not _CYCLES.fullmatch(t):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    images = list(range(n))
    for body in _CYCLE.findall(t):
        body = body.strip()
        if "," in body or " " in body:
            pts = [int(p) for p in body.replace(",", " ").split()]
        else:
            pts = [int(ch) for ch in body]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {pts}")
        for p in pts:
            if not 0 <= p < n:
                raise ValueError(f"point {p} out of range for degree {n}")
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return Permutation(tuple(images))


@dataclass(frozen=True)
class WreathElement:
    """Element ((alpha, beta), flip) of the wreath product W(n).

    Canonical text form: "([..],[..],t)" with the two image lists followed by
    the flip bit, e.g. "([1,0],[0,1],1)".
    """

    alpha: Permutation
    beta: Permutation
    flip: int

    def __post_init__(self):
        if self.alpha.degree != self.beta.degree:
            raise GroupMismatchError("alpha and beta must have equal degree")
        if self.flip not in (0, 1):
            raise ValueError(f"flip must be 0 or 1, got {self.flip!r}")

    @property
    def degree(self) -> int:
        return self.alpha.degree

    @staticmethod
    def identity(n: int) -> "WreathElement":
        e = Permutation.identity(n)
        return WreathElement(e, e, 0)

    @staticmethod
    def swap(n: int) -> "WreathElement":
        """The block-swap involution s = ((e,e),1)."""
        e = Permutation.identity(n)
        return WreathElement(e, e, 1)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.degree != other.degree:
            raise GroupMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        if self.flip == 0:
            x, y = other.alpha, other.beta
        else:
            x, y = other.beta, other.alpha
        return WreathElement(self.alpha * x, self.beta * y, self.flip ^ other.flip)

    def inverse(self) -> "WreathElement":
        if self.flip == 0:
            return WreathElement(self.alpha.inverse(), self.beta.inverse(), 0)
        # ((a,b),1)^-1 = ((b^-1, a^-1), 1): check via the product rule.
        return WreathElement(self.beta.inverse(), self.alpha.inverse(), 1)

    def is_identity(self) -> bool:
        return self.flip == 0 and self.alpha.is_identity() and self.beta.is_identity()

    def order(self) -> int:
        k, acc = 1, self
        while not acc.is_identity():
            acc = acc * self
            k += 1
        return k

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta},{self.flip})"


def parse_wreath_element(text: str) -> WreathElement:
    """Inverse of str(): "([1,0],[0,1],1)" -> WreathElement."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"expected wreath element like ([..],[..],t), got {text!r}")
    body = t[1:-1]
    try:
        a_end = body.index("]")
        b_end = body.index("]", a_end + 1)
        alpha = parse_permutation(body[: a_end + 1])
        beta = parse_permutation(body[a_end + 1 : b_end + 1].lstrip(","))
        flip = int(body[b_end + 1 :].lstrip(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse wreath element {text!r}: {exc}") from exc
    return WreathElement(alpha, beta, flip)


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class with a deterministic member order.

    members are sorted by their position in the group's element enumeration;
    the representative is the first member.  label is a descriptive cycle-type
    tag (verified constant on the class, not relied upon for the partition).
    """

    group: "FiniteGroup"
    representative: object
    members: tuple
    label: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def _lex_permutations(n: int) -> np.ndarray:
    """(n!, n) array of the image tuples of S_n in enumeration order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _lehmer_rank(rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row: its Lehmer code (entry i
    counts the later entries below it) read in the factorial base."""
    n = rows.shape[1]
    rank = np.zeros(len(rows), dtype=np.intp)
    for i in range(n):
        rank *= n - i
        for j in range(i + 1, n):
            rank += rows[:, j] < rows[:, i]
    return rank


class FiniteGroup:
    """Shared brute-force machinery for the two supported families."""

    kind: str = "abstract"

    def __init__(self, n: int):
        self.n = n
        self._elements: tuple | None = None
        self._index: dict | None = None
        self._points: np.ndarray | None = None
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._class_indices: np.ndarray | None = None

    # Subclasses fill these in.
    @property
    def order(self) -> int:
        raise NotImplementedError

    def _enumerate(self):
        raise NotImplementedError

    def _build_points(self) -> np.ndarray:
        raise NotImplementedError

    def point_rank(self, rows: np.ndarray) -> np.ndarray:
        """Enumeration index of each point-image row."""
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def generators(self) -> tuple:
        raise NotImplementedError

    def class_label(self, g) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and (self.kind, self.n) == (
            other.kind,
            other.n,
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.n))

    def __repr__(self) -> str:
        return self.spec

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.n}"

    def _check_cap(self) -> None:
        if self.order > ELEMENT_CAP:
            raise CapExceededError(
                f"{self.spec} has {self.order} elements, cap is {ELEMENT_CAP}"
            )

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._check_cap()
            self._elements = tuple(self._enumerate())
            assert len(self._elements) == self.order
        return self._elements

    def point_images(self) -> np.ndarray:
        """Read-only (|G|, points) int array; row i is the action of
        elements[i] on the points (see the module docstring)."""
        if self._points is None:
            self._check_cap()
            self._points = self._build_points()
            self._points.setflags(write=False)
        return self._points

    def index(self, g) -> int:
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.elements)}
        try:
            return self._index[g]
        except KeyError:
            raise GroupMismatchError(f"{g} is not an element of {self.spec}") from None

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Partition into classes by conjugation orbits, deterministic order.

        The orbit of g is {x^-1 g x : x in G}, brute force over every x at
        once on the point-image array: with inv the inverse rows, the
        conjugate by x is inv[x][g[x]], and point_rank maps it back to an
        element index.  Classes are ordered by their earliest member;
        members sorted by enumeration index; class_label is checked on
        every member.  Cost is O(#classes * |G|) conjugations.
        """
        if self._classes is not None:
            return self._classes
        els = self.elements
        pts = self.point_images()
        order, width = pts.shape
        # flat positions: row x, point p -> x * width + p
        rows = np.arange(order)[:, None] * width
        inv = np.empty(order * width, dtype=pts.dtype)
        inv[rows + pts] = np.arange(width)
        class_indices = np.full(order, -1, dtype=np.int32)
        classes = []
        for i in range(order):
            if class_indices[i] >= 0:
                continue
            in_orbit = np.zeros(order, dtype=bool)
            in_orbit[self.point_rank(inv[rows + pts[i][pts]])] = True
            orbit = np.flatnonzero(in_orbit)
            members = tuple(els[j] for j in orbit.tolist())
            label = self.class_label(members[0])
            for h in members[1:]:
                assert self.class_label(h) == label, "class label is not constant"
            class_indices[orbit] = len(classes)
            classes.append(ConjugacyClass(self, members[0], members, label))
        assert sum(c.size for c in classes) == self.order
        self._class_indices = class_indices
        self._classes = tuple(classes)
        return self._classes

    def class_of(self, g) -> ConjugacyClass:
        return self.conjugacy_classes()[self.class_position(g)]

    def class_indices(self) -> np.ndarray:
        """Per element (in enumeration order), the index of its class."""
        if self._class_indices is None:
            self.conjugacy_classes()
        return self._class_indices

    def class_position(self, g) -> int:
        """Index in conjugacy_classes() of the class containing g."""
        return int(self.class_indices()[self.index(g)])


class SymmetricGroup(FiniteGroup):
    kind = "sym"

    @property
    def order(self) -> int:
        return math.factorial(self.n)

    def _enumerate(self):
        for images in itertools.permutations(range(self.n)):
            yield Permutation(images)

    def _build_points(self) -> np.ndarray:
        return _lex_permutations(self.n)

    def point_rank(self, rows: np.ndarray) -> np.ndarray:
        return _lehmer_rank(rows)

    def identity(self) -> Permutation:
        return Permutation.identity(self.n)

    @lru_cache(maxsize=None)
    def generators(self) -> tuple[Permutation, ...]:
        e = tuple(range(self.n))
        return tuple(Permutation(e[:i] + (i + 1, i) + e[i + 2:]) for i in range(self.n - 1))

    def class_label(self, g: Permutation) -> tuple:
        return g.cycle_type()


class WreathGroup(FiniteGroup):
    """The wreath product W(n): pairs of S_n elements plus a block flip."""

    kind = "wreath"

    @property
    def order(self) -> int:
        f = math.factorial(self.n)
        return 2 * f * f

    def _enumerate(self):
        perms = [Permutation(p) for p in itertools.permutations(range(self.n))]
        for alpha in perms:
            for beta in perms:
                for flip in (0, 1):
                    yield WreathElement(alpha, beta, flip)

    def _build_points(self) -> np.ndarray:
        # Axes (alpha, beta, flip, point): flip 0 maps i -> alpha(i) and
        # n+i -> n+beta(i); flip 1 maps i -> n+beta(i) and n+i -> alpha(i);
        # the flip swaps the markers 2n and 2n+1.
        n = self.n
        perms = _lex_permutations(n)
        f = len(perms)
        out = np.empty((f, f, 2, 2 * n + 2), dtype=np.intp)
        out[:, :, 0, :n] = perms[:, None]
        out[:, :, 0, n:2 * n] = perms[None, :] + n
        out[:, :, 1, :n] = perms[None, :] + n
        out[:, :, 1, n:2 * n] = perms[:, None]
        out[:, :, 0, 2 * n:] = (2 * n, 2 * n + 1)
        out[:, :, 1, 2 * n:] = (2 * n + 1, 2 * n)
        return out.reshape(2 * f * f, 2 * n + 2)

    def point_rank(self, rows: np.ndarray) -> np.ndarray:
        n = self.n
        flip = rows[:, 2 * n] - 2 * n
        first, second = rows[:, :n], rows[:, n:2 * n]
        # flip 1 rows hold n+beta(i) in the first half and alpha(i) in the second
        swap = flip[:, None] * (second - first)
        alpha = first + swap
        beta = second - swap - n
        return (_lehmer_rank(alpha) * math.factorial(n) + _lehmer_rank(beta)) * 2 + flip

    def identity(self) -> WreathElement:
        return WreathElement.identity(self.n)

    def swap_element(self) -> WreathElement:
        return WreathElement.swap(self.n)

    @lru_cache(maxsize=None)
    def generators(self) -> tuple[WreathElement, ...]:
        e = Permutation.identity(self.n)
        s = SymmetricGroup(self.n).generators()
        return (tuple(WreathElement(t, e, 0) for t in s)
                + tuple(WreathElement(e, t, 0) for t in s) + (self.swap_element(),))

    def class_label(self, g: WreathElement) -> tuple:
        # Invariants under conjugation: the unordered pair of cycle types for
        # flip 0, the cycle type of alpha*beta for flip 1.
        if g.flip == 0:
            a, b = g.alpha.cycle_type(), g.beta.cycle_type()
            return (0,) + tuple(sorted((a, b)))
        return (1, (g.alpha * g.beta).cycle_type())


def group_from_spec(spec: str) -> FiniteGroup:
    """Build a group from a "sym:n" or "wreath:n" string."""
    try:
        kind, n_text = spec.split(":")
        n = int(n_text)
    except ValueError:
        raise ValueError(f"group spec must look like sym:3 or wreath:2, got {spec!r}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if kind == "sym":
        return SymmetricGroup(n)
    if kind == "wreath":
        return WreathGroup(n)
    raise ValueError(f"unknown group kind {kind!r}")


def conjugate(g, x):
    """The conjugate x^-1 * g * x."""
    if isinstance(g, Permutation) != isinstance(x, Permutation):
        raise GroupMismatchError("cannot conjugate across group families")
    return x.inverse() * g * x


def involution_class(group: FiniteGroup) -> ConjugacyClass:
    """The conjugacy class of the block swap s in a wreath group.

    Every member has flip 1 and squares to the identity; there are n! of
    them, of the form ((c, c^-1), 1).
    """
    if not isinstance(group, WreathGroup):
        raise UnsupportedGroupError(
            "the distinguished involution class lives in wreath groups only"
        )
    cls = group.class_of(group.swap_element())
    for m in cls.members:
        assert m.flip == 1 and (m * m).is_identity()
    return cls


@lru_cache(maxsize=None)
def cached_group(spec: str) -> FiniteGroup:
    """Shared group instances, so element tables are built once."""
    return group_from_spec(spec)
