import numpy as np
import pytest

from qchan.channels import (
    Channel,
    ValidationError,
    choi_to_kraus,
    from_choi,
    from_environment,
    from_isometry,
    from_kraus,
    from_superoperator,
    remix_kraus,
)
from qchan.entropy import povm_entropy, renyi, spectrum_probabilities
from qchan.zoo import haar_isometry, haar_unitary, random_cptp, random_density, rng_substream

# identity channel on one qubit: superoperator is 1_4, Choi is the
# (unnormalized) maximally entangled projector
G = np.eye(4, dtype=complex)
C = np.array(
    [
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ],
    dtype=complex,
)


def test_identity_superop_and_choi():
    ch = from_superoperator(G)
    assert ch.dim == 2
    assert np.array_equal(ch.superop, G)
    assert np.array_equal(ch.choi, C)
    assert ch.cp and ch.tp and ch.unital
    np.testing.assert_allclose(ch.choi_eigenvalues, [2, 0, 0, 0], atol=1e-12)


def test_from_choi_inverts_reshuffle():
    ch = from_choi(C)
    assert np.array_equal(ch.superop, G)


def test_kraus_roundtrip_random_channels():
    for i in range(40):
        ch = random_cptp(2, 4 if i % 2 else 2, rng_substream(31, i))
        rebuilt = from_kraus(ch.kraus)
        assert np.linalg.norm(rebuilt.superop - ch.superop) < 1e-10
        assert np.linalg.norm(rebuilt.choi - ch.choi) < 1e-10


def test_kraus_gives_each_caller_its_own_list():
    ch = from_superoperator(np.diag([1.0, 0.5, 0.5, 1.0]).astype(complex))
    first = [a.copy() for a in ch.kraus]
    ch.kraus.clear()
    ch.kraus[0][0, 0] = 7.0
    again = ch.kraus
    assert len(again) == len(first)
    assert all(np.array_equal(a, b) for a, b in zip(again, first))


def test_choi_to_kraus_weights_are_choi_eigenvalues():
    ch = random_cptp(3, 3, rng_substream(32, 0))
    ops = choi_to_kraus(ch.choi)
    weights = sorted((np.vdot(a, a).real for a in ops), reverse=True)
    nonzero = [w for w in ch.choi_eigenvalues if w > 1e-12]
    np.testing.assert_allclose(weights, nonzero, atol=1e-10)


def test_transpose_map_is_not_cp():
    # the transpose map is positive but not completely positive
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    with pytest.raises(ValidationError):
        from_superoperator(swap)
    ch = from_superoperator(swap, permissive=True)
    assert ch.tp and not ch.cp
    assert ch.choi_eigenvalues[-1] < -0.4


def test_scaled_identity_is_not_tp():
    with pytest.raises(ValidationError):
        from_superoperator(1.5 * np.eye(4, dtype=complex))
    ch = from_superoperator(1.5 * np.eye(4, dtype=complex), permissive=True)
    assert not ch.tp


def test_kraus_validation_catches_completeness_failure():
    a0 = np.diag([1.0, 0.5]).astype(complex)
    with pytest.raises(ValidationError):
        from_kraus([a0])


def test_from_environment_always_cptp():
    for i in range(30):
        rng = rng_substream(33, i)
        dim = int(rng.integers(2, 5))
        env = int(rng.integers(1, dim * dim + 1))
        u = haar_unitary(dim * env, rng)
        ch = from_environment(u, dim, env)
        assert ch.cp and ch.tp
        assert ch.dim == dim


def test_from_environment_needs_unitary():
    with pytest.raises(ValidationError):
        from_environment(np.ones((4, 4), dtype=complex), 2, 2)


def test_from_environment_delegates_to_its_isometry_columns():
    for dim, env in ((2, 1), (2, 3), (3, 4)):
        u = haar_unitary(dim * env, rng_substream(40, dim * 10 + env))
        full = from_environment(u, dim, env).superop
        assert np.array_equal(full, from_isometry(u[:, ::env], dim, env).superop)


def test_from_isometry_rejects_planted_violations():
    v = haar_isometry(8, 2, rng_substream(41, 0))
    assert from_isometry(v, 2, 4).tp
    # a 1e-6 rescaling is far outside the 1e-10 isometry tolerance
    with pytest.raises(ValidationError, match="not an isometry"):
        from_isometry(v * (1.0 + 1e-6), 2, 4)
    # normalized but overlapping columns
    skew = v.copy()
    skew[:, 1] = (v[:, 0] + v[:, 1]) / np.sqrt(2.0)
    with pytest.raises(ValidationError, match="not an isometry"):
        from_isometry(skew, 2, 4)
    for shape_error in (v[:6], v.T, np.ones((8, 3), dtype=complex)):
        with pytest.raises(ValueError) as info:
            from_isometry(shape_error, 2, 4)
        assert not isinstance(info.value, ValidationError)


def test_environment_dim_one_gives_unitary_conjugation():
    rng = rng_substream(34, 0)
    u = haar_unitary(3, rng)
    ch = from_environment(u, 3, 1)
    rho = random_density(3, rng)
    np.testing.assert_allclose(ch.apply(rho), u @ rho @ u.conj().T, atol=1e-12)


def test_swap_environment_resets_to_first_basis_state():
    # U = SWAP traces the input straight into the environment
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    ch = from_environment(swap, 2, 2)
    rho = random_density(2, rng_substream(35, 0))
    out = ch.apply(rho)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_remix_kraus_preserves_the_channel():
    ch = random_cptp(2, 4, rng_substream(36, 0))
    ops = ch.kraus
    v = haar_unitary(len(ops), rng_substream(36, 1))
    remixed = remix_kraus(ops, v)
    assert np.linalg.norm(from_kraus(remixed).superop - ch.superop) < 1e-10
    # a taller isometry works too and changes the number of operators
    tall = haar_unitary(len(ops) + 2, rng_substream(36, 2))[:, : len(ops)]
    remixed = remix_kraus(ops, tall)
    assert len(remixed) == len(ops) + 2
    assert np.linalg.norm(from_kraus(remixed).superop - ch.superop) < 1e-10


def test_remix_kraus_rejects_non_isometry():
    ch = random_cptp(2, 2, rng_substream(36, 3))
    with pytest.raises(ValidationError):
        remix_kraus(ch.kraus, np.ones((2, len(ch.kraus)), dtype=complex))


def _canonical_kraus_sets():
    """Canonical Kraus sets of random channels at N = 2 to 8, 1 to N^2 operators."""
    for n in range(2, 9):
        for j, env in enumerate((1, 2, n, n * n)):
            yield choi_to_kraus(random_cptp(n, env, rng_substream(34, 10 * n + j)).choi)


def test_from_kraus_is_the_isometry_formula_bit_for_bit():
    for ops in _canonical_kraus_sets():
        n, k = ops[0].shape[0], len(ops)
        v = np.empty((n * k, n), dtype=complex)
        for i, a in enumerate(ops):
            v[i::k] = a  # V[a*k + i, a'] = A_i[a, a']
        superop = from_kraus(ops).superop
        assert np.array_equal(superop, from_isometry(v, n, k).superop)
        # the dynamical matrix D = X X^dag, X's columns the vec(A_i), reshuffled
        x = np.stack([a.reshape(-1) for a in ops], axis=1)
        gram = (x @ x.conj().T).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        assert np.array_equal(superop, gram)
        kron_sum = sum(np.kron(a, a.conj()) for a in ops)
        np.testing.assert_allclose(superop, kron_sum, rtol=0.0, atol=1e-15)


def test_kraus_readers_keep_the_bits_of_the_operator_stack():
    for j, ops in enumerate(_canonical_kraus_sets()):
        n, k = ops[0].shape[0], len(ops)
        stack = np.array(ops)
        weights = np.einsum("ikl,ikl->i", stack, stack.conj()).real / n
        for q in (1.0, 2.0, np.inf):
            assert povm_entropy(ops, q) == renyi(spectrum_probabilities(weights), q)
        w = haar_isometry(k + 1, k, rng_substream(35, j))
        assert np.array_equal(remix_kraus(ops, w), np.einsum("ji,ikl->jkl", w, stack))


def test_choi_marginals():
    for i in range(20):
        ch = random_cptp(2, 4, rng_substream(37, i))
        omega = ch.choi.reshape(2, 2, 2, 2) / 2.0
        # tracing the first factor leaves the maximally mixed state
        first = np.einsum("klkn->ln", omega)
        np.testing.assert_allclose(first, np.eye(2) / 2.0, atol=1e-9)
        # tracing the second factor gives the image of the maximally mixed state
        second = np.einsum("klml->km", omega)
        np.testing.assert_allclose(second, ch.output_state, atol=1e-9)


def test_apply_validates_input_state():
    ch = random_cptp(2, 2, rng_substream(38, 0))
    with pytest.raises(ValidationError):
        ch.apply(np.diag([2.0, 0.0]))  # trace 2
    with pytest.raises(ValidationError):
        ch.apply(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_flags_and_scalar_properties():
    ch = random_cptp(2, 4, rng_substream(39, 0))
    assert ch.sigma1 >= 1.0 - 1e-12
    assert ch.lambda_phi >= ch.sigma1 - 1e-12
    assert 0.0 < ch.tau1 <= 1.0 + 1e-12
    assert abs(sum(ch.choi_eigenvalues) - ch.dim) < 1e-9
    assert ch.d1 == pytest.approx(max(ch.choi_eigenvalues))


def test_superop_must_be_square_of_square():
    with pytest.raises(ValueError):
        from_superoperator(np.eye(9, dtype=complex), dim=2)
    with pytest.raises(ValueError):
        Channel(np.eye(6, dtype=complex))


def test_arrays_are_read_only():
    ch = from_superoperator(G)
    with pytest.raises(ValueError):
        ch.superop[0, 0] = 5.0
    with pytest.raises(ValueError):
        ch.choi[0, 0] = 5.0
