"""Deterministic counter-based randomness.

Every random quantity in the package is a pure function of (seed, stream
path, counter), so runs replay byte-identically whatever the evaluation
order, --threads value or BLAS thread count.  The generator is written out
here so any language can reproduce the streams; no library generator is used.

64-bit state mixing (all arithmetic mod 2^64):

    mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
            z ^= z >> 27; z *= 0x94D049BB133111EB;
            z ^= z >> 31; return z

Stream derivation: a stream is named by a path of nonnegative integers and
ascii strings.  Strings are folded big-endian in 64-bit chunks.  Starting
from state = mix(seed), each chunk c updates state = mix(state XOR mix(c +
0x9E3779B97F4A7C15)).

Raw counters: word(i) = mix((base + (i+1) * 0x9E3779B97F4A7C15) mod 2^64).
words(start, count) evaluates the same formula over the whole counter range
start..start+count-1 at once, as wrapping uint64 array arithmetic, and
evaluates it (and the Gaussians below) for many streams at once.

Floats: float01(i) = (word(i) >> 11) * 2^-53 in [0,1);
        float_pos(i) = ((word(i) >> 11) + 1) * 2^-53 in (0,1].

Gaussians come in pairs from the polar form
    g(2j)   = sqrt(-2 ln float_pos(2j)) * cos(2 pi float01(2j+1))
    g(2j+1) = sqrt(-2 ln float_pos(2j)) * sin(2 pi float01(2j+1)),
complex entries are (g(2m) + i g(2m+1)) / sqrt(2) in row-major order, and a
Haar basis is the modified Gram-Schmidt orthonormalization (columns in
order, positive real normalizers) of a square complex Gaussian matrix, run
blocked and right-looking on a stack of same-size bases at once with the
bits each has alone: einsum inner products inside a panel of columns, and
matmuls cut into gemm slices of m * n * k <= 65,536, which OpenBLAS runs on
one thread, for the later columns.  Draws and those later-column updates
go a bounded group of rows at a time, so a large basis is the one
basis-sized array its construction holds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RepresentationDefectError

_MASK = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _M1) & _MASK
    z ^= z >> 27
    z = (z * _M2) & _MASK
    z ^= z >> 31
    return z


def _chunks(component) -> list[int]:
    if isinstance(component, str):
        raw = component.encode("ascii")
        value = int.from_bytes(raw, "big")
    else:
        value = int(component)
        if value < 0:
            raise ValueError(f"stream path components must be >= 0, got {value}")
    if value == 0:
        return [0]
    out = []
    while value:
        out.append(value & _MASK)
        value >>= 64
    return out


def _unit01(w: np.ndarray) -> np.ndarray:
    return (w >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _unit_pos(w: np.ndarray) -> np.ndarray:
    return ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _words(bases, start: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        i1 = np.uint64((start + 1) & _MASK) + np.arange(count, dtype=np.uint64)
        z = np.asarray(bases, dtype=np.uint64)[..., None] + i1 * np.uint64(_WEYL)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
    return z


def _gaussians(bases, count: int, start: int) -> np.ndarray:
    pairs = (count + 1) // 2
    w = _words(bases, start, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(_unit_pos(w[..., 0::2])))
    theta = 2.0 * math.pi * _unit01(w[..., 1::2])
    out = np.empty(w.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :count]


def _complex_gaussians(bases, rows: int, cols: int, first: int = 0) -> np.ndarray:
    """Rows first..first+rows-1 of the row-major complex Gaussian matrix
    with cols columns."""
    g = _gaussians(bases, 2 * rows * cols, 2 * first * cols)
    z = (g[..., 0::2] + 1j * g[..., 1::2]) / math.sqrt(2.0)
    return z.reshape(*np.shape(bases), rows, cols)


def derive_stream(seed: int, *path) -> int:
    state = _mix(seed & _MASK)
    for component in path:
        for c in _chunks(component):
            state = _mix(state ^ _mix((c + _WEYL) & _MASK))
    return state


class CounterRng:
    """An immutable counter-based stream.

    Instances never hold consumption state: every method addresses explicit
    counters, and independent draws should live on sub-streams created with
    sub().  Conventional counter layouts used by the methods are documented
    per method.
    """

    def __init__(self, seed: int, *path):
        self.seed = seed & _MASK
        self.path = path
        self._base = derive_stream(seed, *path)

    def sub(self, *path) -> "CounterRng":
        return CounterRng(self.seed, *(self.path + path))

    def word(self, i: int) -> int:
        return _mix((self._base + (i + 1) * _WEYL) & _MASK)

    def words(self, start: int, count: int) -> np.ndarray:
        """word(start), ..., word(start+count-1) as one uint64 array."""
        return _words(self._base, start, count)

    def floats01(self, start: int, count: int) -> np.ndarray:
        """count floats in [0,1) from counters start..start+count-1."""
        return _unit01(self.words(start, count))

    def floats_pos(self, start: int, count: int) -> np.ndarray:
        """count floats in (0,1], safe as log arguments."""
        return _unit_pos(self.words(start, count))

    def gaussians(self, count: int, start: int = 0) -> np.ndarray:
        """count standard normals, consuming counters start..start+2*ceil(count/2)-1."""
        return _gaussians(self._base, count, start)

    def complex_gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Entries (g + i g')/sqrt(2) drawn row-major from counter 0."""
        return _complex_gaussians(self._base, rows, cols)

    def unit_vector(self, d: int) -> np.ndarray:
        z = self.complex_gaussian_matrix(d, 1)[:, 0]
        return z / np.linalg.norm(z)

    def haar_basis(self, d: int) -> np.ndarray:
        """A (d, d) unitary whose columns are the basis vectors: the blocked
        modified Gram-Schmidt of haar_bases on this one stream, with the same
        bits, so unique and replayable whatever the BLAS thread count."""
        return haar_bases([self], d)[0]

    def index(self, i: int, n: int) -> int:
        """A choice in range(n) from counter i."""
        if n <= 0:
            raise ValueError(f"index needs a positive range, got {n}")
        return min(int(self.floats01(i, 1)[0] * n), n - 1)


# haar_bases draws the rows of its Gaussian matrices, and updates the
# columns after each panel, in groups of at most this many complex entries
# over the whole stack (at least one row, at least one tile)
_DRAW_ENTRIES = 1 << 14

# OpenBLAS runs a zgemm on one thread when m * n * k is small enough, and
# every gemm slice of haar_bases stays at or under this size.  A (32 x 324)
# @ (324 x 16) slice (165,888) printed other bits under two BLAS threads; a
# (16 x 324) @ (324 x 16) slice (82,944) did not.
_GEMM_SLICE = 65_536


def _gemm_tiles(d: int) -> tuple[int, int]:
    """(tile height, panel width) of haar_bases at dimension d: powers of two
    with tile <= panel <= 16 and tile * d * panel <= _GEMM_SLICE, which holds
    up to d = 65,536.  Both stay >= 2 up to d = 16,384: numpy sends a
    product with a side of 1 to gemv, which OpenBLAS threads at another
    size."""
    panel = 16
    while panel > 1 and 2 * panel * d > _GEMM_SLICE:
        panel //= 2
    tile = panel
    while tile > 1 and tile * panel * d > _GEMM_SLICE:
        tile //= 2
    return tile, panel


def haar_bases(streams, d: int) -> np.ndarray:
    """(len(streams), d, d) stack of each stream's Haar basis, columns the
    basis vectors: blocked right-looking modified Gram-Schmidt with positive
    real normalizers, on the whole stack at once.  Inside a panel of
    columns, each normalized column leaves the panel's later ones through an
    einsum; then the panel leaves every later column through two stacked
    matmuls, cut into tiles so that every gemm slice has m * n * k <=
    _GEMM_SLICE and runs on one BLAS thread, a group of tiles of at most
    _DRAW_ENTRIES entries at a time.  The Gaussian rows are drawn in groups
    of the same size, so no temporary grows with the stack past a group; a
    stack of at most _DRAW_ENTRIES entries is one draw and one pass per
    panel.  The norms have np.linalg.norm's bits, and each basis has the
    bits it has alone, whatever the BLAS thread count or the group sizes.
    At d <= 16 there is one panel and no matmul."""
    tile, panel = _gemm_tiles(d)
    bases = [s._base for s in streams]
    # Gaussian rows go into q's columns _DRAW_ENTRIES at a time (one draw for
    # a stack of at most _DRAW_ENTRIES entries), so a large basis never holds
    # its whole draw next to q.  The first rows are drawn before q exists, so
    # that q can reuse their freed temporaries: allocated first, q added about
    # 0.17 MB to the peak RSS of `bounds --n 3 --k 3` (Linux, glibc malloc),
    # and the loop below ran 20-30% slower at d = 8..16.
    step = max(1, _DRAW_ENTRIES // max(1, len(bases) * d))
    a = _complex_gaussians(bases, min(step, d), d)
    # q[b, j] is column j of basis b; rows from d on are zero padding, so
    # that the columns after each panel split into whole tiles
    q = np.zeros((len(bases), d + (-d) % tile if d > panel else d, d), dtype=np.complex128)
    q[:, :d, :step] = a.transpose(0, 2, 1)
    del a
    for first in range(step, d, step):
        rows = min(step, d - first)
        q[:, :d, first:first + rows] = _complex_gaussians(
            bases, rows, d, first).transpose(0, 2, 1)
    # the later columns leave each panel `group` rows at a time: every tile
    # is one gemm slice, so the grouping does not move a bit
    group = tile * max(1, _DRAW_ENTRIES // max(1, len(q) * tile * d))
    for start in range(0, d, panel):
        stop = min(start + panel, d)
        for i in range(start, stop):
            c = q[:, i]
            nrm = np.sqrt(np.vecdot(c.real, c.real) + np.vecdot(c.imag, c.imag))
            if not nrm.min() > 1e-12:
                raise RepresentationDefectError(
                    f"gaussian matrix was numerically singular at column {i} of {d}")
            c /= nrm[:, None]
            rest = q[:, i + 1:stop]
            h = np.einsum("bji,bi->bj", rest, c.conj())
            # order "C": under numpy's default "K" this product ran 5x slower (B = 4)
            rest -= np.multiply(h[:, :, None], c[:, None], order="C")
        if stop < d:
            p = q[:, None, start:stop]
            ph = p.conj().transpose(0, 1, 3, 2)
            for lo in range(stop, q.shape[1], group):
                trail = q[:, lo:lo + group].reshape(len(q), -1, tile, d)
                trail -= (trail @ ph) @ p
    return q[:, :d].transpose(0, 2, 1)
