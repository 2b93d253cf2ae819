import math

import numpy as np
import pytest
from scipy.stats import chisquare

from qchan.channels import ValidationError, from_environment
from qchan.entropy import map_entropy, receiver_entropy
from qchan.matcore import reshuffle
from qchan.zoo import (
    coarse_graining,
    complete_contraction,
    depolarizing,
    depolarizing_curve_point,
    haar_isometries,
    haar_isometry,
    haar_unitary,
    identity_channel,
    interval_channel,
    interval_channel_general,
    maximally_depolarizing,
    pauli_channel,
    random_bistochastic,
    random_cptp,
    random_density,
    random_interval_channel,
    random_pauli_channel,
    random_pure_state,
    random_reshuffle_invariant,
    reshuffle_invariant,
    rng_stream,
    rng_substream,
    rng_substreams,
    spontaneous_emission,
)

LN2 = math.log(2.0)


def test_identity_channel_extreme_point():
    for n in (2, 3, 5):
        ch = identity_channel(n)
        assert np.array_equal(ch.superop, np.eye(n * n, dtype=complex))
        assert abs(ch.sigma1 - 1.0) < 1e-12
        assert abs(ch.lambda_phi - n * n) < 1e-10
        assert map_entropy(ch, 1.0) == 0.0
        assert abs(receiver_entropy(ch, 1.0) - 2.0 * math.log(n)) < 1e-12
    with pytest.raises(ValueError):
        identity_channel(1)


def test_maximally_depolarizing_extreme_point():
    for n in (2, 4):
        ch = maximally_depolarizing(n)
        s = ch.singular_values
        assert abs(s[0] - 1.0) < 1e-12 and abs(s[1:]).max() < 1e-12
        assert abs(map_entropy(ch, 1.0) - 2.0 * math.log(n)) < 1e-12
        assert receiver_entropy(ch, 1.0) == 0.0


def test_depolarizing_frozen_spectra():
    # alpha = 1/3 on a qubit: superoperator singular values (1, 1/3, 1/3, 1/3)
    # and, coincidentally, the same numbers as Choi eigenvalues.
    ch = depolarizing(2, 1.0 / 3.0)
    expect = np.array([1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(ch.singular_values, expect, atol=1e-12)
    assert np.allclose(ch.choi_eigenvalues, expect, atol=1e-12)
    assert abs(ch.lambda_phi - 2.0) < 1e-12
    assert abs(ch.d1 - 1.0) < 1e-12

    ch = depolarizing(3, 0.7)
    sv = np.full(9, 0.7)
    sv[0] = 1.0
    assert np.allclose(ch.singular_values, sv, atol=1e-12)
    eig = np.full(9, 0.3 / 3.0)
    eig[0] = 0.7 * 3.0 + 0.3 / 3.0
    assert np.allclose(ch.choi_eigenvalues, eig, atol=1e-12)


def test_depolarizing_rejects_bad_mixing():
    for bad in (-0.1, 1.2, math.inf):
        with pytest.raises(ValueError):
            depolarizing(2, bad)


def test_coarse_graining_matrix_and_action():
    assert np.array_equal(
        coarse_graining(2).superop, np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    )
    keep = np.zeros(9)
    keep[[0, 4, 8]] = 1.0
    assert np.array_equal(coarse_graining(3).superop, np.diag(keep).astype(complex))

    rng = rng_stream(41)
    rho = random_density(3, rng)
    out = coarse_graining(3).apply(rho)
    assert np.allclose(out, np.diag(np.diag(rho)), atol=1e-14)


def test_complete_contraction_choi_and_action():
    rng = rng_stream(42)
    xi = random_density(3, rng)
    ch = complete_contraction(xi)
    assert np.allclose(ch.choi, np.kron(xi, np.eye(3)), atol=1e-12)
    for _ in range(5):
        assert np.allclose(ch.apply(random_density(3, rng)), xi, atol=1e-12)
    with pytest.raises(ValidationError):
        complete_contraction(np.diag([1.0, 1.0]))  # trace 2


def test_spontaneous_emission_values():
    ch = spontaneous_emission()
    assert abs(ch.sigma1 - math.sqrt(2.0)) < 1e-12
    assert abs(ch.lambda_phi - math.sqrt(2.0)) < 1e-12
    assert abs(ch.tau1 - 1.0) < 1e-12
    assert abs(ch.d1 - 1.0) < 1e-12
    assert abs(map_entropy(ch, 1.0) - LN2) < 1e-12
    assert receiver_entropy(ch, 1.0) == 0.0
    out = ch.apply(np.eye(2, dtype=complex) / 2.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)


def test_pauli_identity_weights_is_identity():
    ch = pauli_channel((1.0, 0.0, 0.0, 0.0))
    assert np.allclose(ch.superop, np.eye(4), atol=1e-14)


def test_pauli_uniform_weights_is_full_depolarizing():
    twirl = pauli_channel((0.25, 0.25, 0.25, 0.25))
    assert np.allclose(twirl.superop, depolarizing(2, 0.0).superop, atol=1e-12)


def test_pauli_random_weights_unital():
    for i in range(20):
        ch = random_pauli_channel(rng_substream(43, i))
        assert ch.cp and ch.tp and ch.unital
        assert abs(ch.sigma1 - 1.0) < 1e-12


def test_pauli_rejects_bad_weights():
    with pytest.raises(ValueError):
        pauli_channel((0.5, 0.5, 0.1, -0.1))
    with pytest.raises(ValueError):
        pauli_channel((0.3, 0.3, 0.3, 0.3))


def test_interval_superop_columns_are_endpoint_states():
    ch = interval_channel(0.3, 0.8, 0.5, 1.7)
    s = ch.superop
    assert abs(s[:, 1]).max() == 0.0
    assert abs(s[:, 2]).max() == 0.0
    for col, weight in ((0, 0.3), (3, 0.8)):
        rho = s[:, col].reshape(2, 2)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.allclose(rho @ rho, rho, atol=1e-14)  # pure endpoint
        assert abs(rho[0, 0] - weight) < 1e-14
    assert ch.stack.interval


def test_interval_degenerate_endpoints_is_coarse_graining():
    ch = interval_channel(1.0, 0.0)
    assert np.array_equal(ch.superop, coarse_graining(2).superop)


def test_interval_map_entropy_is_ln2_for_pure_endpoints():
    for i in range(30):
        ch = random_interval_channel(rng_substream(44, i))
        for q in (1.0, 2.0, 3.5):
            assert abs(map_entropy(ch, q) - LN2) < 1e-12


def test_interval_mixed_endpoints_keep_the_interval_flag():
    rng = rng_stream(45)
    ch = interval_channel_general(random_density(2, rng), random_density(2, rng))
    assert ch.stack.interval
    assert ch.cp and ch.tp


def test_reshuffle_invariant_corner_cases():
    assert np.allclose(
        reshuffle_invariant((0.0, 0.0, 1.0)).superop,
        coarse_graining(2).superop,
        atol=1e-15,
    )
    third = 1.0 / 3.0
    assert np.allclose(
        reshuffle_invariant((third, third, third)).superop,
        depolarizing(2, third).superop,
        atol=1e-12,
    )


def test_reshuffle_invariant_superop_equals_choi():
    for i in range(25):
        ch = random_reshuffle_invariant(rng_substream(46, i))
        assert np.linalg.norm(ch.choi - ch.superop) < 1e-10
        assert np.linalg.norm(reshuffle(ch.superop) - ch.superop) < 1e-10


def test_reshuffle_invariant_rejections():
    with pytest.raises(ValueError):
        reshuffle_invariant((0.5, 0.5, 0.5))
    with pytest.raises(ValidationError):
        reshuffle_invariant((0.9, -0.4, 0.5))  # sums to 1 but one Choi eigenvalue < 0
    with pytest.raises(ValueError):
        reshuffle_invariant((0.2, 0.3, 0.5), u=np.ones((2, 2)))
    with pytest.raises(ValueError):
        reshuffle_invariant((0.2, 0.3, 0.5), u=np.eye(3))


def test_reshuffle_of_kron_sandwich():
    # R(kron(A, B) Y kron(C, D)) = kron(A, C^T) R(Y) kron(B^T, D)
    for i in range(200):
        rng = rng_substream(47, i)
        n = int(rng.integers(2, 4))
        a, b, c, d = (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(4)
        )
        y = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        lhs = reshuffle(np.kron(a, b) @ y @ np.kron(c, d))
        rhs = np.kron(a, c.T) @ reshuffle(y) @ np.kron(b.T, d)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_haar_unitary_is_unitary_and_reproducible():
    for n in (2, 3, 5):
        u = haar_unitary(n, rng_stream(48))
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12
    assert np.array_equal(haar_unitary(4, rng_stream(48)), haar_unitary(4, rng_stream(48)))
    assert not np.allclose(haar_unitary(4, rng_stream(48)), haar_unitary(4, rng_stream(49)))


def test_haar_unitary_eigenphases_are_uniform():
    # the marginal eigenphase distribution of a Haar unitary is flat
    rng = rng_stream(50)
    phases = np.concatenate(
        [np.angle(np.linalg.eigvals(haar_unitary(2, rng))) for _ in range(5000)]
    )
    counts, _ = np.histogram(phases, bins=20, range=(-math.pi, math.pi))
    assert chisquare(counts).pvalue > 1e-3


def test_haar_unitary_draws_are_unchanged_by_the_isometry_routine():
    def seed_haar_unitary(n, rng):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    for n in (1, 2, 5, 16):
        expected = seed_haar_unitary(n, rng_stream(56))
        assert haar_isometry(n, n, rng_stream(56)).tobytes() == expected.tobytes()
        assert haar_unitary(n, rng_stream(56)).tobytes() == expected.tobytes()
    v = haar_isometry(12, 3, rng_stream(56))
    assert v.shape == (12, 3)
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-12
    with pytest.raises(ValueError):
        haar_isometry(3, 4, rng_stream(56))


def test_haar_isometries_draw_each_ginibre_block_real_part_first():
    # The two-call Ginibre draw, written out: a batched routine that drew the
    # parts in another order, or interleaved generators, would differ here.
    def two_call_isometry(rows, cols, rng):
        g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    for rows, cols in ((2, 2), (4, 2), (8, 2), (9, 3)):
        got = haar_isometries(rows, cols, rng_substreams(59, range(5)))
        for i, rng in enumerate(rng_substreams(59, range(5))):
            assert got[i].tobytes() == two_call_isometry(rows, cols, rng).tobytes(), (rows, i)


@pytest.mark.parametrize("dim,env", [(2, 2), (2, 4), (3, 9)])
def test_random_cptp_isometry_matches_full_unitary_sampler(dim, env):
    # Reference: the Haar unitary on system x environment that the isometry
    # sampler replaces.  Both must induce the same channel measure, seen
    # through the mean sorted Choi spectrum and the mean Choi-state purity.
    n = 2000

    def moments(sample, seed):
        rngs = rng_substreams(seed, range(n))
        spectra = np.array([sample(rng).choi_eigenvalues for rng in rngs]) / dim
        purity = (spectra**2).sum(axis=1)
        return np.column_stack([spectra, purity])

    ref = moments(lambda rng: from_environment(haar_unitary(dim * env, rng), dim, env), 57)
    new = moments(lambda rng: random_cptp(dim, env, rng), 58)
    err = np.sqrt(ref.var(axis=0, ddof=1) / n + new.var(axis=0, ddof=1) / n)
    diff = np.abs(ref.mean(axis=0) - new.mean(axis=0))
    assert np.all(diff <= 4.0 * err + 1e-12), (diff, err)


def test_random_density_mean_purity():
    # Hilbert-Schmidt measure on qubits has mean purity 4/5
    rng = rng_stream(51)
    total = 0.0
    for _ in range(10000):
        rho = random_density(2, rng)
        total += float(np.trace(rho @ rho).real)
    assert abs(total / 10000 - 0.8) < 0.02


def test_random_pure_state_is_rank_one():
    rng = rng_stream(52)
    for n in (2, 3, 6):
        rho = random_pure_state(n, rng)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_random_cptp_trivial_environment_is_unitary():
    rng = rng_stream(53)
    ch = random_cptp(3, 1, rng)
    s = ch.superop
    assert np.linalg.norm(s.conj().T @ s - np.eye(9)) < 1e-10
    assert map_entropy(ch, 1.0) <= 1e-12
    assert abs(ch.choi_eigenvalues[0] - 3.0) < 1e-9
    assert abs(ch.choi_eigenvalues[1:]).max() < 1e-9


def test_random_cptp_large_environment_full_rank():
    ch = random_cptp(2, 4, rng_stream(54))
    assert ch.cp and ch.tp
    assert ch.choi_eigenvalues.min() > 1e-6


def test_random_bistochastic_unital_with_unit_norm():
    for i in range(20):
        ch = random_bistochastic(2 + i % 3, i % 4 + 1, rng_substream(55, i))
        assert ch.unital and ch.tp
        assert abs(ch.sigma1 - 1.0) < 1e-10
    with pytest.raises(ValueError):
        random_bistochastic(2, 0, rng_stream(55))


def test_rng_substreams_are_independent_and_reproducible():
    a = rng_substream(5, 0).standard_normal(8)
    b = rng_substream(5, 1).standard_normal(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, rng_substream(5, 0).standard_normal(8))
    assert np.array_equal(rng_stream(5).standard_normal(8), rng_stream(5).standard_normal(8))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, -3])
def test_rng_substreams_equal_numpy_seed_sequence_streams(seed):
    # Seeds and indices of one and two uint32 words, and verify's offsets;
    # a negative seed folds into [0, 2^64) as in rng_stream.  This is the
    # test that sees a change to numpy's SeedSequence hash.
    indices = [0, 1, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 10_000, 20_000, 30_000, 30_099]
    for i, rng in zip(indices, rng_substreams(seed, indices)):
        ref = np.random.default_rng(np.random.SeedSequence((seed % 2**64, i)))
        raw = rng.bit_generator.random_raw(3)
        assert np.array_equal(raw, ref.bit_generator.random_raw(3)), (seed, i)
        assert rng.standard_normal(2).tobytes() == ref.standard_normal(2).tobytes()
        assert np.array_equal(rng_substream(seed, i).bit_generator.random_raw(3), raw)


def test_rng_substreams_reject_indices_outside_64_bits():
    for bad in ([-1], [0, 2**64]):
        with pytest.raises(ValueError, match="substream indices"):
            rng_substreams(0, bad)
        with pytest.raises(ValueError, match=rf"got {bad[-1]}\.\.{bad[-1]}$"):
            rng_substream(0, bad[-1])
    assert rng_substreams(3, []) == []


def test_depolarizing_curve_matches_channel_entropies():
    for alpha in np.linspace(0.0, 1.0, 21):
        s_map, s_rec = depolarizing_curve_point(alpha)
        ch = depolarizing(2, alpha)
        assert abs(s_map - map_entropy(ch, 1.0)) < 1e-12
        assert abs(s_rec - receiver_entropy(ch, 1.0)) < 1e-12


def test_depolarizing_curve_endpoints():
    s_map, s_rec = depolarizing_curve_point(0.0)
    assert abs(s_map - 2.0 * LN2) < 1e-15
    assert s_rec == 0.0 and math.copysign(1.0, s_rec) == 1.0
    s_map, s_rec = depolarizing_curve_point(1.0)
    assert s_map == 0.0 and math.copysign(1.0, s_map) == 1.0
    assert abs(s_rec - 2.0 * LN2) < 1e-15
    with pytest.raises(ValueError):
        depolarizing_curve_point(1.5)
