import math

import numpy as np
import pytest

from cosetlab.rng import CounterRng, derive_stream

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


@pytest.mark.parametrize("d", [*range(1, 70), 128, 324])
def test_haar_basis_has_the_bits_of_the_column_loop(d):
    for stream in range(3):
        rng = CounterRng(stream, "haar-bits", d)
        assert np.array_equal(rng.haar_basis(d), _haar_basis_column_loop(rng, d))


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
