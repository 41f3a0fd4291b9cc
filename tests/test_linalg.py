import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modswap.linalg import (
    HERMITIAN_TOL,
    as_matrix,
    exact_evolution,
    haar_unitary,
    hermitian_from_upper,
    hermitize,
    nuclear_norm,
    random_low_rank,
    random_low_rank_rect,
    require_hermitian,
    trace_norms,
)

from dense_refs import random_density, random_hermitian


def test_require_hermitian_checks_shape_first():
    with pytest.raises(ValueError, match=r"matrix is not square \(6x4\)"):
        require_hermitian(np.zeros((6, 4), dtype=complex))


def test_require_hermitian_returns_hermitized_input_and_is_idempotent():
    # the exactly Hermitian matrix of A's upper triangle, not (A + A†)/2
    rng = np.random.default_rng(7)
    noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = random_hermitian(5, rng) + 1e-14 * noise  # inside HERMITIAN_TOL
    gated = require_hermitian(a)
    assert np.array_equal(gated, hermitian_from_upper(a))
    assert np.array_equal(np.triu(gated, 1), np.triu(a, 1))
    assert np.array_equal(gated.diagonal(), a.diagonal().real)
    assert np.array_equal(gated, gated.conj().T)
    assert not np.array_equal(gated, a) and not np.array_equal(gated, hermitize(a))
    assert np.array_equal(require_hermitian(gated), gated)


def test_hermitian_from_upper_never_reads_the_lower_triangle():
    a = np.array([[1 + 2j, 2 - 1j, 3j], [np.nan, -4.0, 5.0], [np.inf, np.nan, 6 - 1j]])
    h = hermitian_from_upper(a)
    want = np.array([[1, 2 - 1j, 3j], [2 + 1j, -4, 5], [-3j, 5, 6]])
    assert np.array_equal(h, want) and h.flags.c_contiguous
    assert np.isnan(a[1, 0])  # the input is not written


@pytest.mark.parametrize("gate", [require_hermitian, nuclear_norm])
def test_hermitian_tolerance_edge(gate):
    # max |A - A†| <= HERMITIAN_TOL * max(1, max |A_jk|), here max |A_jk| = 4
    a = np.array([[4.0, 1.0], [1.0, -2.0]], dtype=complex)
    a[1, 0] += 0.9 * 4 * HERMITIAN_TOL
    gate(a)
    a[1, 0] += 0.2 * 4 * HERMITIAN_TOL
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        gate(a)


def test_as_matrix_accepts_fortran_and_strided_input():
    h = random_hermitian(4, np.random.default_rng(2))
    wide = np.zeros((4, 8), dtype=complex)
    wide[:, ::2] = h
    for view in (np.asfortranarray(h), wide[:, ::2]):
        assert np.array_equal(require_hermitian(view), h)
        view[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN or infinity"):
            require_hermitian(view)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1-d", "3-d"])
def test_as_matrix_rejects_other_than_two_dimensions(shape):
    with pytest.raises(ValueError, match=rf"^expected a 2-d array, got ndim={len(shape)}$"):
        as_matrix(np.ones(shape))


@pytest.mark.parametrize("gate", [as_matrix, require_hermitian, nuclear_norm])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrix_is_refused(gate, shape):
    with pytest.raises(ValueError, match=rf"^empty matrix \({shape[0]}x{shape[1]}\)$"):
        gate(np.zeros(shape, dtype=complex))


def test_exact_evolution_rejects_state_of_wrong_shape():
    with pytest.raises(ValueError, match=r"^state dim \(2, 2\) != matrix dim \(3, 3\)$"):
        exact_evolution(np.eye(3), 0.1, np.eye(2) / 2)


def test_exact_evolution_zero_matrix():
    sigma = random_density(3, np.random.default_rng(1))
    out = exact_evolution(np.zeros((3, 3)), 1.3, sigma)
    np.testing.assert_allclose(out, sigma, atol=1e-14)


def test_exact_evolution_commuting_diagonal():
    a = np.diag([3.0, -1.0, 0.5]).astype(complex)
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    out = exact_evolution(a, 0.7, sigma)
    np.testing.assert_allclose(out, sigma, atol=1e-14)


def test_exact_evolution_bit_flip():
    # N=2, A = [[0,N],[N,0]]: exp(-i X t) at t=pi/2 maps |0><0| to |1><1|
    a = np.array([[0, 2], [2, 0]], dtype=complex)
    sigma = np.array([[1, 0], [0, 0]], dtype=complex)
    out = exact_evolution(a, np.pi / 2, sigma)
    np.testing.assert_allclose(out, np.array([[0, 0], [0, 1]]), atol=1e-10)


def test_exact_evolution_preserves_trace_and_spectrum():
    rng = np.random.default_rng(9)
    a = random_hermitian(5, rng)
    sigma = random_density(5, rng)
    out = exact_evolution(a, 2.1, sigma)
    np.testing.assert_allclose(np.trace(out), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(hermitize(out)),
        np.linalg.eigvalsh(sigma),
        atol=1e-10,
    )


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(2)
    u = haar_unitary(8, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


def test_random_low_rank_rank_and_scale():
    rng = np.random.default_rng(7)
    a = random_low_rank(8, 2, rng)
    w = np.abs(np.linalg.eigvalsh(a))
    w.sort()
    assert np.all(w[-2:] >= 4.0)          # magnitudes in [0.5, 1]*N = [4, 8]
    assert np.all(w[-2:] <= 8.0)
    assert np.all(w[:-2] <= 1e-10)
    assert np.max(np.abs(a - a.conj().T)) <= 1e-12


def test_random_low_rank_full_rank():
    rng = np.random.default_rng(8)
    a = random_low_rank(4, 4, rng)
    w = np.abs(np.linalg.eigvalsh(a))
    assert np.all(w >= 2.0) and np.all(w <= 4.0)


def test_random_low_rank_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_low_rank(4, 5, np.random.default_rng(0))


@pytest.mark.parametrize("spare", [0, -1])
def test_haar_unitary_refuses_a_size_past_the_byte_budget_before_any_draw(monkeypatch, spare):
    # a budget of exactly 16 n^2 bytes draws; one byte less is refused, and the
    # generator is left untouched
    monkeypatch.setattr(importlib.import_module("modswap.linalg"), "MAX_BYTES",
                        16 * 5 * 5 + spare)
    rng = np.random.default_rng(3)
    if spare == 0:
        assert haar_unitary(5, rng).shape == (5, 5)
        return
    with pytest.raises(ValueError, match=r"^a 5 x 5 Haar unitary needs 400 bytes "
                                         r"\(> 399\); reduce n$"):
        haar_unitary(5, rng)
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


def test_random_low_rank_max_element_statistic():
    # typical element grows like sqrt(r); the median of the max element
    # over 100 draws should sit within a loose constant of that.
    rng = np.random.default_rng(123)
    r = 2
    maxes = [np.max(np.abs(random_low_rank(64, r, rng))) for _ in range(100)]
    med = float(np.median(maxes))
    assert 0.5 * np.sqrt(r) <= med <= 8.0 * np.sqrt(r)


def test_random_low_rank_rect_shapes_and_rank():
    rng = np.random.default_rng(3)
    a = random_low_rank_rect(4, 6, 2, rng)
    assert a.shape == (4, 6)
    s = np.linalg.svd(a, compute_uv=False)
    assert np.sum(s > 1e-10) == 2
    assert np.all(s[:2] >= 0.5 * 10 / 2 - 1e-12)


@pytest.mark.parametrize("r", [0, 5])
def test_random_low_rank_rect_rejects_bad_rank(r):
    with pytest.raises(ValueError, match=rf"^rank r={r} must satisfy 1 <= r <= min\(4, 6\)$"):
        random_low_rank_rect(4, 6, r, np.random.default_rng(0))


def test_nuclear_norm_rejects_non_hermitian_and_non_square():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    with pytest.raises(ValueError, match=r"matrix is not square \(3x5\)"):
        nuclear_norm(a)
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        nuclear_norm(a[:, :3])


def _hermitian_of_kind(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "random":
        return random_hermitian(n, rng)
    if kind == "nearly":  # within nuclear_norm's gate, read from its upper triangle
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return random_hermitian(n, rng) + 1e-13 * noise
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n)).astype(complex)
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    # degenerate: a few distinct eigenvalues, each repeated, in a Haar basis
    u = haar_unitary(n, rng)
    lam = rng.choice(rng.standard_normal(2), size=n)
    return hermitize((u * lam) @ u.conj().T)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 32), size=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["random", "nearly", "diagonal", "zero", "degenerate"]),
                      min_size=1, max_size=5))
def test_trace_norms_on_a_stack_equal_per_matrix_nuclear_norm(n, size, seed, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([_hermitian_of_kind(kinds[i % len(kinds)], n, rng) for i in range(size)])
    got = trace_norms(stack)
    assert got.shape == (size,)
    assert got.tolist() == [nuclear_norm(m) for m in stack]
    # the norm of the matrix the upper triangle defines, with no copy made of it
    assert got.tolist() == [
        np.sum(np.abs(np.linalg.eigvalsh(hermitian_from_upper(m), UPLO="U"))) for m in stack]
