import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qchan.matcore import (
    Q_LARGE,
    hermitian_eigenvalues,
    identity_permutation,
    kron,
    q_norm,
    random_permutation,
    reorder,
    reshuffle,
    reshuffle_permutation,
    singular_values,
)


def _ginibre(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_reshuffle_matches_index_definition():
    # R[(k,m),(l,n)] = M[(k,l),(m,n)], checked entry by entry with loops
    rng = np.random.default_rng(7)
    for n in (2, 3):
        m = _ginibre(rng, n * n)
        r = reshuffle(m)
        for k in range(n):
            for l in range(n):
                for mm in range(n):
                    for nn in range(n):
                        assert r[k * n + mm, l * n + nn] == m[k * n + l, mm * n + nn]


def test_reshuffle_is_an_involution():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        m = _ginibre(rng, n * n)
        assert np.array_equal(reshuffle(reshuffle(m)), m)


def test_reshuffle_preserves_hilbert_schmidt_norm():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = _ginibre(rng, 9)
        assert abs(np.linalg.norm(m) - np.linalg.norm(reshuffle(m))) < 1e-12


def test_reshuffle_rejects_bad_shapes():
    with pytest.raises(ValueError):
        reshuffle(np.zeros((3, 3)))  # side not a perfect square
    with pytest.raises(ValueError):
        reshuffle(np.zeros((4, 2)))


def test_reshuffle_permutation_agrees_with_reshuffle():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        m = _ginibre(rng, n * n)
        perm = reshuffle_permutation(n)
        assert np.array_equal(reorder(m, perm), reshuffle(m))


def test_reorder_conserves_entries_exactly():
    rng = np.random.default_rng(11)
    m = _ginibre(rng, 5)
    perm = random_permutation(25, rng)
    y = reorder(m, perm)
    original = sorted(m.ravel(), key=lambda z: (z.real, z.imag))
    moved = sorted(y.ravel(), key=lambda z: (z.real, z.imag))
    assert original == moved  # bit-exact, no arithmetic happened


def test_reorder_identity_and_composition():
    rng = np.random.default_rng(12)
    m = _ginibre(rng, 4)
    assert np.array_equal(reorder(m, identity_permutation(16)), m)


def test_reorder_rejects_non_permutation():
    m = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        reorder(m, np.array([0, 0, 1, 2]))
    with pytest.raises(ValueError):
        reorder(m, np.array([0, 1, 2]))


def test_reorder_and_reshuffle_act_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(14)
    m = np.array([_ginibre(rng, 9) for _ in range(5)])
    perm = np.array([random_permutation(81, rng) for _ in range(5)])
    assert np.array_equal(reorder(m, perm), [reorder(a, p) for a, p in zip(m, perm)])
    assert np.array_equal(reshuffle(m), [reshuffle(a) for a in m])


def test_reorder_checks_every_permutation_of_a_stack():
    m = np.zeros((3, 2, 2), dtype=complex)
    perm = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 1, 2, 3]])
    assert reorder(m, perm).shape == m.shape
    for bad in ([0, 1, 1, 3], [0, 1, 2, 4], [-1, 1, 2, 3]):
        perm[1] = bad
        with pytest.raises(ValueError, match="not a bijection"):
            reorder(m, perm)
    with pytest.raises(ValueError, match="one per matrix"):
        reorder(m, perm[:2])
    with pytest.raises(ValueError, match="acting on the matrix's 4 entries"):
        reorder(m, perm[:, :3])


def test_kron_of_stacks_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(15)
    a, b = (np.array([_ginibre(rng, 3, 2) for _ in range(4)]) for _ in range(2))
    assert np.array_equal(kron(a, b.swapaxes(1, 2)), [np.kron(x, y.T) for x, y in zip(a, b)])


@pytest.mark.parametrize("size", range(4, 10))
def test_stacked_svd_gives_the_bits_of_the_one_matrix_call(size):
    # the verify lemma suite takes one SVD per size group and prints the same
    # digits as one SVD per matrix, which rests on this
    rng = np.random.default_rng(size)
    m = np.array([_ginibre(rng, size) for _ in range(50)])
    stacked = np.linalg.svd(m, compute_uv=False)
    assert np.array_equal(stacked, [np.linalg.svd(a, compute_uv=False) for a in m])
    assert np.array_equal(stacked, [singular_values(a) for a in m])


def test_singular_values_descending_and_consistent():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = _ginibre(rng, 6)
        s = singular_values(m)
        assert np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-12)


def test_hermitian_eigenvalues_checks_input():
    rng = np.random.default_rng(14)
    h = _ginibre(rng, 4)
    h = h + h.conj().T
    w = hermitian_eigenvalues(h)
    assert np.all(np.diff(w) <= 0)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(h), atol=1e-12)
    with pytest.raises(ValueError):
        hermitian_eigenvalues(_ginibre(rng, 4))


def test_q_norm_classical_values():
    m = np.diag([3.0, 4.0]).astype(complex)
    assert abs(q_norm(m, 1) - 7.0) < 1e-12
    assert abs(q_norm(m, 2) - 5.0) < 1e-12
    assert abs(q_norm(m, math.inf) - 4.0) < 1e-12
    with pytest.raises(ValueError):
        q_norm(m, 0.5)


def test_q_norm_of_an_empty_matrix_is_zero():
    for shape in ((0, 0), (0, 3), (3, 0)):
        for q in (1, 2, 20, math.inf):
            assert q_norm(np.zeros(shape), q) == 0.0, (shape, q)


def test_q_norm_interpolation_inequality():
    # |x|_q <= |x|_1^(1/q) |x|_inf^((q-1)/q) on random matrices
    rng = np.random.default_rng(15)
    for i in range(200):
        size = int(rng.integers(2, 8))
        m = _ginibre(rng, size)
        for q in (1.5, 2.0, 4.0, 16.0):
            bound = q_norm(m, 1) ** (1 / q) * q_norm(m, math.inf) ** ((q - 1) / q)
            assert q_norm(m, q) <= bound + 1e-10, (i, q)


def test_q_norm_large_orders_stay_finite():
    # the direct sum 10**400 overflowed to inf
    m = np.diag([10.0, 1.0])
    for q in (100.0, 300.0, 400.0, 1e6):
        assert abs(q_norm(m, q) - 10.0) <= 1e-12, q
    assert q_norm(np.zeros((3, 3)), 300.0) == 0.0
    # 1e200**2 overflowed and 1e-200**2 underflowed to 0 at ordinary orders
    with localcontext() as ctx:
        ctx.prec = 40
        for x in (1e200, 1e-200):
            for q in (1.5, 2.0, 16.0, 300.0):
                exact = Decimal(2) ** (1 / Decimal(q)) * Decimal(x)
                value = q_norm(np.diag([x, x]), q)
                assert abs(Decimal(value) - exact) <= Decimal("1e-15") * exact, (x, q)
    # at and below Q_LARGE the direct sum keeps its bits
    s = singular_values(m)
    assert q_norm(m, Q_LARGE) == float(np.sum(s**Q_LARGE) ** (1.0 / Q_LARGE))


def test_q_norm_monotone_in_order():
    rng = np.random.default_rng(16)
    m = _ginibre(rng, 5)
    values = [q_norm(m, q) for q in (1, 1.5, 2, 3, 8, math.inf)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
