import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab.cli import main
from cosetlab.errors import RepresentationDefectError
from cosetlab import rng
from cosetlab.rng import CounterRng, _gemm_tiles, derive_stream, haar_bases

SRC = Path(__file__).resolve().parent.parent / "src"

STREAMS = [(0,), (7, "bounds", 3), (42, "basis", 9), (2**64 + 5, "trial", 2**70)]


def _doc_word(base, i):
    # word(i) exactly as the module docstring writes it, in Python ints.
    z = (base + (i + 1) * 0x9E3779B97F4A7C15) % 2**64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) % 2**64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) % 2**64
    z ^= z >> 31
    return z


def test_frozen_words():
    # Golden values: pin the documented mixing algorithm against edits.
    r = CounterRng(0)
    assert r.word(0) == 0xE220A8397B1DCDAF
    assert r.word(1) == 0x6E789E6AA1B965F4
    assert CounterRng(7, "bounds", 3).word(0) == 0x38D0CB76CA9A3B31


@pytest.mark.parametrize("path", STREAMS)
@pytest.mark.parametrize("start", [0, 17, 2**40])
def test_words_match_the_documented_word_formula(path, start):
    r = CounterRng(*path)
    base = derive_stream(*path)
    for count in (0, 1, 4097):
        w = r.words(start, count)
        assert w.dtype == np.uint64 and w.shape == (count,)
        assert w.tolist() == [_doc_word(base, start + i) for i in range(count)]
        assert w.tolist() == [r.word(start + i) for i in range(count)]


@pytest.mark.parametrize("path", STREAMS[:3])
@pytest.mark.parametrize("start", [0, 5])
def test_gaussians_match_the_documented_polar_form(path, start):
    r = CounterRng(*path)
    for count in (1, 7, 8, 2 * 27**2):
        pairs = (count + 1) // 2
        u = np.array([((r.word(start + 2 * j) >> 11) + 1) * 2.0**-53 for j in range(pairs)])
        v = np.array([(r.word(start + 2 * j + 1) >> 11) * 2.0**-53 for j in range(pairs)])
        radius = np.sqrt(-2.0 * np.log(u))
        theta = 2.0 * math.pi * v
        expected = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        assert np.array_equal(r.gaussians(count, start), expected.ravel()[:count])


def test_counter_access_is_pure():
    r = CounterRng(123, "x")
    a = r.word(5)
    _ = r.words(0, 10)
    assert r.word(5) == a
    assert CounterRng(123, "x").word(5) == a


def test_float_ranges():
    r = CounterRng(9)
    f = r.floats01(0, 1000)
    assert np.all(f >= 0.0) and np.all(f < 1.0)
    g = r.floats_pos(0, 1000)
    assert np.all(g > 0.0) and np.all(g <= 1.0)


def test_gaussian_moments_are_sane():
    g = CounterRng(2024).gaussians(20000)
    assert abs(g.mean()) < 0.03
    assert abs(g.std() - 1.0) < 0.03


def test_gaussians_respect_requested_count():
    r = CounterRng(5)
    assert len(r.gaussians(7)) == 7
    assert np.allclose(r.gaussians(7), r.gaussians(8)[:7])


def test_haar_basis_unitary_and_reproducible():
    for d in (1, 2, 5, 9):
        q1 = CounterRng(42, "basis", d).haar_basis(d)
        q2 = CounterRng(42, "basis", d).haar_basis(d)
        assert np.array_equal(q1, q2)
        assert np.max(np.abs(q1.conj().T @ q1 - np.eye(d))) < 1e-12


def test_haar_frozen_entry():
    q = CounterRng(42).haar_basis(3)
    assert abs(q[0, 0] - (0.27872477497107134 + 0.44143680864557516j)) < 1e-15


def _haar_basis_column_loop(rng, d):
    """Modified Gram-Schmidt written out one column slice at a time."""
    a = rng.complex_gaussian_matrix(d, d)
    q = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        v = a[:, j].copy()
        for i in range(j):
            v -= np.vdot(q[:, i], v) * q[:, i]
        nrm = np.linalg.norm(v)
        assert nrm > 1e-12
        q[:, j] = v / nrm
    return q


def _haar_basis_blocked(rng, d):
    """A literal copy of haar_basis on one stream, one tile at a time, to pin
    its bits against edits."""
    tile, panel = _gemm_tiles(d)
    q = np.zeros((d + (-d) % tile if d > panel else d, d), dtype=np.complex128)
    q[:d] = rng.complex_gaussian_matrix(d, d).T
    for start in range(0, d, panel):
        stop = min(start + panel, d)
        for i in range(start, stop):
            q[i] /= np.linalg.norm(q[i])
            h = np.einsum("ji,i->j", q[i + 1:stop], q[i].conj())
            q[i + 1:stop] -= np.multiply.outer(h, q[i])
        if stop < d:
            for row in range(stop, len(q), tile):
                t = q[row:row + tile]
                t -= (t @ q[start:stop].conj().T) @ q[start:stop]
    return q[:d].T


@pytest.mark.parametrize("d", [*range(1, 70), 128, 216, 324])
def test_haar_basis_has_the_bits_of_the_column_loop(d):
    # Inside a panel the blocked loop makes the column loop's projections,
    # summed in another order; a later column leaves a whole panel at once,
    # its inner products all taken before any is removed.  So the two agree
    # to rounding (1.9e-13 at most over these cases, at d = 56), and the
    # bits are pinned against the literal blocked copy.
    for stream in range(3):
        rng = CounterRng(stream, "haar-bits", d)
        q = rng.haar_basis(d)
        assert q.shape == (d, d) and q.dtype == np.complex128
        assert np.max(np.abs(q - _haar_basis_column_loop(rng, d))) < 1e-12
        assert np.array_equal(q, _haar_basis_blocked(rng, d))


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.integers(1, 48), seed=st.integers(0, 2**64 - 1),
       path=st.lists(st.one_of(st.integers(0, 2**70), st.text("abcxyz", max_size=9)),
                     max_size=3))
def test_haar_basis_is_the_gram_schmidt_factor_of_its_gaussian_matrix(d, seed, path):
    rng = CounterRng(seed, *path)
    a = rng.complex_gaussian_matrix(d, d)
    q = rng.haar_basis(d)
    assert np.max(np.abs(q.conj().T @ q - np.eye(d))) < 1e-12
    r = q.conj().T @ a
    assert np.max(np.abs(np.tril(r, -1))) < 1e-12
    assert np.all(r.diagonal().real > 0)
    assert np.max(np.abs(r.diagonal().imag)) < 1e-12
    assert np.max(np.abs(q - _haar_basis_column_loop(rng, d))) < 1e-12


def _rank_deficient(monkeypatch, streams=None):
    """Make the Gaussian generator's matrices singular: in every drawn chunk
    of rows, the last column is the sum of the others (zero when d = 1), for
    the given streams or all."""
    gaussian = rng._complex_gaussians
    picked = None if streams is None else {s._base for s in streams}

    def deficient(bases, rows, cols, first=0):
        a = gaussian(bases, rows, cols, first)
        for b in np.ndindex(np.shape(bases)):
            if picked is None or int(np.asarray(bases, dtype=np.uint64)[b]) in picked:
                a[b][:, -1] = a[b][:, :-1].sum(axis=1)
        return a

    monkeypatch.setattr(rng, "_complex_gaussians", deficient)


def test_a_singular_gaussian_matrix_is_a_typed_error(monkeypatch, capsys):
    _rank_deficient(monkeypatch)
    for d in (1, 2, 5, 40):
        with pytest.raises(RepresentationDefectError, match="numerically singular"):
            CounterRng(3).haar_basis(d)
    assert main(["bounds", "--n", "2", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gaussian matrix was numerically singular")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("d", [1, 2, 5, 40])
def test_a_singular_matrix_in_a_batch_is_the_same_typed_error(monkeypatch, d):
    streams = [CounterRng(s, "batch") for s in range(3)]
    _rank_deficient(monkeypatch, streams[1:2])
    with pytest.raises(RepresentationDefectError) as alone:
        streams[1].haar_basis(d)
    with pytest.raises(RepresentationDefectError) as batched:
        haar_bases(streams, d)
    assert str(batched.value) == str(alone.value) == (
        f"gaussian matrix was numerically singular at column {d - 1} of {d}")


@pytest.mark.parametrize("d", [*range(1, 70), 128, 216])
def test_haar_bases_have_the_bits_of_one_basis_at_a_time(d):
    mixed = [CounterRng(0), CounterRng(7, "bounds", d), CounterRng(2**64 + 5, "x", 2**70)]
    mixed += [CounterRng(s, "bases", d, s % 3) for s in range(14)]
    for streams in (mixed[:1], mixed[:3], mixed):
        got = haar_bases(streams, d)
        assert got.shape == (len(streams), d, d) and got.dtype == np.complex128
        assert np.array_equal(got, np.stack([s.haar_basis(d) for s in streams]))
        assert np.array_equal(got, np.stack([_haar_basis_blocked(s, d) for s in streams]))


@pytest.mark.parametrize("d", [1, 2, 5, 16, 17, 40, 64, 128, 129, 216, 324])
def test_haar_bases_do_not_depend_on_the_draws_chunks(monkeypatch, d):
    # one draw and one trailing pass for the whole stack; one row per draw
    # and one tile per trailing group; 7 rows per draw (a ragged last chunk
    # unless 7 divides d); and 3 tiles per trailing group (ragged at most d)
    tile = _gemm_tiles(d)[0]
    for streams in ([CounterRng(4, "chunks", d)], [CounterRng(s, "chunks") for s in range(3)]):
        runs = []
        for entries in (1 << 40, 1, 7 * len(streams) * d + 3, 3 * len(streams) * tile * d + 5):
            monkeypatch.setattr(rng, "_DRAW_ENTRIES", entries)
            runs.append(haar_bases(streams, d))
        assert all(np.array_equal(runs[0], run) for run in runs[1:])


def test_a_small_stack_is_one_draw_and_a_large_basis_is_chunked(monkeypatch):
    draws = []
    gaussian = rng._complex_gaussians

    def counting(bases, rows, cols, first=0):
        draws.append((len(bases), rows, first))
        return gaussian(bases, rows, cols, first)

    monkeypatch.setattr(rng, "_complex_gaussians", counting)
    haar_bases([CounterRng(s) for s in range(4)], 64)  # 4 * 64^2 = 16,384 entries
    assert draws == [(4, 64, 0)]
    draws.clear()
    haar_bases([CounterRng(0)], 324)  # 50 rows of 324 entries per draw
    assert draws == [(1, 50, first) for first in range(0, 300, 50)] + [(1, 24, 300)]


_THREAD_PROBE = """
import hashlib, sys
from cosetlab.cli import main
from cosetlab.rng import CounterRng, haar_bases
for d in (64, 128, 216, 324):
    q = CounterRng(5, "threads", d).haar_basis(d)
    print(d, hashlib.sha256(q.tobytes()).hexdigest())
q = haar_bases([CounterRng(s, "threads", 324) for s in range(3)], 324)
print("batch", hashlib.sha256(q.tobytes()).hexdigest())
if main(["bounds", "--n", "3", "--k", "3", "--trials", "1", "--seed", "0"]):
    sys.exit(1)
sys.exit(main(["bounds", "--n", "4", "--k", "2", "--trials", "10", "--seed", "2"]))
"""


def test_haar_bits_do_not_depend_on_the_blas_thread_count():
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("\n") > 3
    assert outs[0] == outs[1]


def test_every_gemm_slice_of_a_haar_basis_fits_one_blas_thread():
    # 5,832 = 18^3 is wreath:4 at k = 3, above the default tensor cap 4,096
    for d in [*range(1, 4097), 5832]:
        tile, panel = _gemm_tiles(d)
        assert tile * d * panel <= 65_536
        assert 2 <= tile <= panel <= 16 and panel % tile == 0


def test_unit_vector():
    v = CounterRng(3).unit_vector(7)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_substreams_differ():
    base = CounterRng(11)
    s1 = base.sub("trial", 0)
    s2 = base.sub("trial", 1)
    assert s1.word(0) != s2.word(0)
    assert s1.word(0) == CounterRng(11, "trial", 0).word(0)


def test_derive_stream_handles_strings_and_ints():
    a = derive_stream(1, "alpha", 3)
    b = derive_stream(1, "alpha", 4)
    c = derive_stream(2, "alpha", 3)
    assert len({a, b, c}) == 3


def test_index_bounds():
    r = CounterRng(77)
    picks = [r.index(i, 5) for i in range(200)]
    assert set(picks) <= set(range(5))
    assert len(set(picks)) == 5
    with pytest.raises(ValueError, match="positive range"):
        r.index(0, 0)
