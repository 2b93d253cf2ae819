"""Named channel families, random ensembles, and exact reference curves.

Random sampling goes through ``numpy.random.Generator`` streams only; see
:func:`rng_stream` and :func:`rng_substreams` for the seeding conventions that
make scans reproducible independently of chunk size.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .channels import Channel, ChannelStack, check_state, isometry_superops
from .channels import _check_isometry, _stinespring_superops
from .entropy import check_probabilities
from .matcore import PAULI, as_complex_matrix, kron

_SEED_MASK = (1 << 64) - 1


def rng_stream(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; equal seeds give bit-identical draws."""
    return np.random.default_rng(np.random.SeedSequence(int(seed) & _SEED_MASK))


_MASK32 = 0xFFFFFFFF


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult^k mod 2^32`` for ``k < count``, as uint32."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its 4-word
# pool.  Its k-th hashmix call xors with entry k of a chain and multiplies by
# entry k + 1: calls 0-3 hash the entropy words into the pool, calls 4-15 mix
# each word into the other three, and a second chain reads out 8 words.
_MIX_CHAIN = _hash_chain(0x43B0D7E5, 0x931E8875, 17)
_OUT_CHAIN = _hash_chain(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# The (xor, multiplier) columns of mixing step ``src``: one chain entry per
# other word, in order, and xor 0, multiplier 1 in row ``src``, which the
# step puts back.
_MIX_STEPS = [
    (
        np.insert(_MIX_CHAIN[4 + 3 * src : 7 + 3 * src], src, 0)[:, None],
        np.insert(_MIX_CHAIN[5 + 3 * src : 8 + 3 * src], src, 1)[:, None],
    )
    for src in range(4)
]


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's hashmix of ``words``; uint32 arrays wrap mod 2^32 as its C code does."""
    v = (words ^ xor) * mul
    return v ^ (v >> 16)


@functools.cache
def _substream_seed():
    """The seed class :func:`rng_substreams` hands to ``PCG64``, defined on
    first use so that ``import qchan`` does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class SubstreamSeed(ISeedSequence):
        """``SeedSequence(entropy).generate_state(4, np.uint64)``, precomputed:
        the one request ``PCG64`` makes of its seed."""

        def __init__(self, entropy: tuple[int, int], state: np.ndarray):
            self.entropy, self._state = entropy, state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a substream seed holds 4 uint64 words only")
            return self._state

    return SubstreamSeed


def rng_substreams(seed: int, indices) -> list[np.random.Generator]:
    """``[rng_substream(seed, i) for i in indices]`` from one vectorized hash.

    Stream ``i`` is ``default_rng(SeedSequence((seed, i)))`` bit for bit: the
    pool of numpy's seed hash and its ``generate_state(4, uint64)`` are
    computed for every index at once, and each ``PCG64`` gets its row.
    Indices lie in ``[0, 2^64)``.
    """
    seed = int(seed) & _SEED_MASK
    indices = _substream_indices(indices)
    idx = np.array(indices, dtype=np.uint64)
    # The entropy words: the seed's (one word below 2^32), then the index's.
    # numpy pads the pool with hashes of 0, as zero words here do.
    words = np.zeros((4, len(idx)), dtype=np.uint32)
    first = 2 if seed >> 32 else 1
    words[0], words[1] = seed & _MASK32, seed >> 32
    words[first], words[first + 1] = idx & _MASK32, idx >> 32
    pool = _hashmix(words, _MIX_CHAIN[:4, None], _MIX_CHAIN[1:5, None])
    for src, (xor, mul) in enumerate(_MIX_STEPS):
        mixed = _MIX_L * pool - _MIX_R * _hashmix(pool[src], xor, mul)
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    out = _hashmix(np.tile(pool, (2, 1)), _OUT_CHAIN[:-1, None], _OUT_CHAIN[1:, None])
    out = out.astype(np.uint64)
    states = np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)  # little-endian word pairs
    make_seed = _substream_seed()
    return [
        np.random.Generator(np.random.PCG64(make_seed((seed, i), state)))
        for i, state in zip(indices, states)
    ]


def _substream_indices(indices) -> list[int]:
    indices = [int(i) for i in indices]
    if indices and not 0 <= min(indices) <= max(indices) <= _SEED_MASK:
        low, high = min(indices), max(indices)
        raise ValueError(f"substream indices must lie in [0, 2^64), got {low}..{high}")
    return indices


def rng_substream(seed: int, index: int) -> np.random.Generator:
    """Independent per-index stream: sample ``index`` always sees the same
    draws, whatever the chunk it is sampled in and the order of the samples.

    It is stream ``index`` of :func:`rng_substreams`, seeded by numpy's own
    ``SeedSequence((seed, index))``: for one index that is cheaper than the
    vectorized hash, which makes the same numpy calls for any batch size.
    """
    (index,) = _substream_indices([index])
    return np.random.default_rng(np.random.SeedSequence((int(seed) & _SEED_MASK, index)))


# ---------------------------------------------------------------------------
# fixed families


def identity_channel(dim: int) -> Channel:
    """The identity map; its superoperator is the N^2 identity matrix."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return Channel(np.eye(dim * dim, dtype=complex), dim, label=f"identity(N={dim})")


def depolarizing(dim: int, alpha: float) -> Channel:
    """Mixture ``alpha * id + (1 - alpha) * (full contraction to 1/N)``.

    The Choi spectrum is ``alpha + (1 - alpha)/N^2`` once and
    ``(1 - alpha)/N^2`` with multiplicity ``N^2 - 1``; the superoperator
    singular values are ``1`` once and ``alpha`` with multiplicity
    ``N^2 - 1``.
    """
    return _single(depolarizing_stack(dim, [alpha]))


def depolarizing_stack(dim: int, alphas):
    """Channels ``depolarizing(dim, alphas[i])`` as one stack; returns ``(stack, labels)``."""
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {alpha}")
    eye_vec = np.eye(dim, dtype=complex).reshape(-1)
    contraction = np.outer(eye_vec / dim, eye_vec)
    mix = np.array(alphas)[:, None, None]
    superops = mix * np.eye(dim * dim, dtype=complex) + (1.0 - mix) * contraction
    return ChannelStack(superops, dim), [f"depolarizing(N={dim},alpha={a:g})" for a in alphas]


def coarse_graining(dim: int) -> Channel:
    """Projection onto the diagonal: ``rho -> diag(rho)``."""
    d = dim * dim
    keep = np.zeros(d)
    keep[np.arange(dim) * dim + np.arange(dim)] = 1.0
    return Channel(np.diag(keep).astype(complex), dim, label=f"coarse_graining(N={dim})")


def complete_contraction(xi) -> Channel:
    """Constant map ``rho -> xi`` onto a fixed output state."""
    xi = check_state(xi)
    n = xi.shape[0]
    eye_vec = np.eye(n, dtype=complex).reshape(-1)
    superop = np.outer(xi.reshape(-1), eye_vec)
    return Channel(superop, n, label=f"complete_contraction(N={n})")


def spontaneous_emission(dim: int = 2) -> Channel:
    """Decay of everything into the first basis state, ``rho -> |0><0|``."""
    xi = np.zeros((dim, dim), dtype=complex)
    xi[0, 0] = 1.0
    return complete_contraction(xi).stack.channel(label=f"spontaneous_emission(N={dim})")


def maximally_depolarizing(dim: int) -> Channel:
    """Full contraction to the maximally mixed state, ``rho -> 1/N``."""
    return depolarizing(dim, 0.0).stack.channel(label=f"maximally_depolarizing(N={dim})")


def pauli_channel(p) -> Channel:
    """Qubit mixture of Pauli conjugations with weights ``p = (p0, p1, p2, p3)``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"need four weights, got shape {p.shape}")
    check_probabilities(p)
    return _single(_pauli_stack(p[None]))


def interval_channel(alpha: float, beta: float, phi1: float = 0.0, phi2: float = 0.0) -> Channel:
    """Qubit map onto the segment between two pure states.

    The first and last superoperator columns are the vectorized endpoint
    states with Bloch angles set by ``(alpha, phi1)`` and ``(beta, phi2)``;
    the middle columns vanish, so every input lands on the line segment
    between the endpoints.  The map entropy is exactly ``ln 2``.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    params = np.array([[alpha, beta, phi1, phi2]], dtype=float)
    return _single(_pure_interval_stack(params))


def interval_channel_general(rho1, rho2, *, label=None) -> Channel:
    """Interval map with arbitrary (possibly mixed) endpoint states."""
    stack = _interval_stack(check_state(rho1, 2)[None], check_state(rho2, 2)[None])
    return stack.channel(label=label or "interval(general)")


def _pure_interval_states(weight: np.ndarray, phase: np.ndarray) -> np.ndarray:
    off = np.sqrt(weight * (1.0 - weight))
    states = np.empty((len(weight), 2, 2), dtype=complex)
    states[:, 0, 0] = weight
    states[:, 0, 1] = off * np.exp(1j * phase)
    states[:, 1, 0] = off * np.exp(-1j * phase)
    states[:, 1, 1] = 1.0 - weight
    return states


def _interval_stack(rho1: np.ndarray, rho2: np.ndarray, index=None) -> ChannelStack:
    """Interval maps from ``(B, 2, 2)`` endpoint states: the first and last
    superoperator columns are ``vec(rho1[i])`` and ``vec(rho2[i])``."""
    superops = np.zeros((len(rho1), 4, 4), dtype=complex)
    superops[:, :, 0] = rho1.reshape(-1, 4)
    superops[:, :, 3] = rho2.reshape(-1, 4)
    return ChannelStack(superops, 2, index=index, interval=True)


def _pure_interval_stack(params: np.ndarray, index=None):
    """Pure-endpoint interval maps, one ``(alpha, beta, phi1, phi2)`` row each."""
    alpha, beta, phi1, phi2 = params.T
    rho1, rho2 = _pure_interval_states(alpha, phi1), _pure_interval_states(beta, phi2)
    labels = [f"interval(a={a:g},b={b:g},phi1={p1:g},phi2={p2:g})" for a, b, p1, p2 in params]
    return _interval_stack(rho1, rho2, index), labels


def reshuffle_invariant(eta, u=None) -> Channel:
    """Qubit channel whose superoperator equals its own Choi matrix.

    ``eta = (eta1, eta2, eta3)`` must sum to 1; the base matrix is diagonal
    plus one symmetric off-diagonal pair and has eigenvalues
    ``{1, eta1, eta2, eta3}``.  Conjugating by ``kron(U, conj(U))`` for any
    unitary ``U`` preserves both the channel property and the fixed-point
    property under reshuffling.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (3,):
        raise ValueError(f"need three weights, got shape {eta.shape}")
    if abs(eta.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {eta.sum():.15f}")
    if u is not None:
        u = as_complex_matrix(u)
        if u.shape != (2, 2):
            raise ValueError(f"conjugating unitary must be 2x2, got {u.shape}")
        _check_isometry(u, "conjugating matrix")
        u = u[None]
    return _single(_reshuffle_invariant_stack(eta[None], u))


def _reshuffle_invariant_stack(eta: np.ndarray, u=None, index=None):
    """Reshuffle-invariant maps with weights ``eta[i]``, conjugated by
    ``kron(u[i], conj(u[i]))`` when ``u`` is given."""
    e1, e2, e3 = eta.T
    # Eigenvalues {1, eta3} on the outer 2x2 block and {eta1, eta2} on the
    # inner one; with sum(eta) = 1 the matrix is its own reshuffle.
    base = np.zeros((len(eta), 4, 4), dtype=complex)
    base[:, 0, 0] = base[:, 3, 3] = (1.0 + e3) / 2.0
    base[:, 0, 3] = base[:, 3, 0] = (1.0 - e3) / 2.0
    base[:, 1, 1] = base[:, 2, 2] = (e1 + e2) / 2.0
    base[:, 1, 2] = base[:, 2, 1] = (e1 - e2) / 2.0
    labels = [f"reshuffle_invariant(eta=({a:g},{b:g},{c:g}))" for a, b, c in eta]
    if u is not None:
        # One 2-D product per map: a batched matmul rounds differently.
        base = np.array([w @ m @ w.conj().T for w, m in zip(kron(u, u.conj()), base)])
        labels = [label + "*U" for label in labels]
    return ChannelStack(base, 2, index=index), labels


# ---------------------------------------------------------------------------
# random ensembles


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed ``rows x cols`` isometry via phase-fixed reduced QR
    of a Ginibre block (Mezzadri, math-ph/0609050).

    Its columns are distributed like any ``cols`` columns of a Haar unitary,
    at the cost of a ``rows x cols`` QR instead of a ``rows x rows`` one.
    """
    return haar_isometries(rows, cols, [rng])[0]


def haar_isometries(rows: int, cols: int, rngs) -> np.ndarray:
    """One :func:`haar_isometry` per generator, from one batched QR.

    Each generator makes the same draws as in :func:`haar_isometry`, so
    entry ``i`` of the ``(B, rows, cols)`` result equals
    ``haar_isometry(rows, cols, rngs[i])`` bit for bit.
    """
    if not 1 <= cols <= rows:
        raise ValueError(f"need 1 <= cols <= rows for an isometry, got {rows}x{cols}")
    # One draw per generator; its halves are the real and imaginary parts.
    z = np.array([rng.standard_normal((2, rows, cols)) for rng in rngs])
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed ``n x n`` unitary, the square case of :func:`haar_isometry`."""
    return haar_isometry(n, n, rng)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt-distributed density matrix ``G G^dag / tr``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random pure state."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _single(sampled, label=None) -> Channel:
    """The channel of a one-row ``(stack, labels)`` sample."""
    stack, labels = sampled
    return stack.channel(label=label or labels[0])


def random_cptp(dim: int, env_dim: int, rng: np.random.Generator, *, label=None) -> Channel:
    """Random channel from a Haar Stinespring isometry into system x environment.

    The channel only sees the ``N`` columns of a system x environment
    unitary that act on the environment's first basis state, so drawing that
    ``N*d x N`` isometry directly gives the same channel measure as
    :func:`from_environment` on a Haar unitary (Bruzda et al., arXiv:0804.2361).
    """
    return _single(random_cptp_stack(dim, [env_dim], [rng]), label)


def random_cptp_stack(dim: int, env_dims, rngs, *, index=None):
    """Channels ``random_cptp(dim, env_dims[i], rngs[i])`` as one stack.

    Returns ``(stack, labels)``.  Each environment dimension gets one
    batched QR and one batched isometry check, and the whole stack is
    validated once.  Errors name channel ``index[i]`` (by default ``i``).
    """
    env_dims = [int(e) for e in env_dims]
    index = range(len(env_dims)) if index is None else index
    superops = np.empty((len(env_dims), dim * dim, dim * dim), dtype=complex)
    for env in sorted(set(env_dims)):
        rows = [i for i, e in enumerate(env_dims) if e == env]
        v = haar_isometries(dim * env, dim, [rngs[i] for i in rows])
        superops[rows] = isometry_superops(v, dim, env, index=[index[i] for i in rows])
    stack = ChannelStack(superops, dim, index=index)
    return stack, [f"random_cptp(N={dim},d={env})" for env in env_dims]


def random_bistochastic(dim: int, k: int, rng: np.random.Generator, *, label=None) -> Channel:
    """Random mixture of ``k`` Haar unitary conjugations (unital and TP)."""
    return _single(random_bistochastic_stack(dim, [k], [rng]), label)


def random_bistochastic_stack(dim: int, ks, rngs, *, index=None):
    """Channels ``random_bistochastic(dim, ks[i], rngs[i])`` as one stack.

    Returns ``(stack, labels)``.  Each generator draws its Dirichlet
    weights, then its ``ks[i]`` unitaries; every unitary comes from one
    batched QR.  Errors name channel ``index[i]`` (by default ``i``).
    """
    ks = list(ks)
    if any(k < 1 for k in ks):
        raise ValueError("need at least one unitary in the mixture")
    weights = [rng.dirichlet(np.ones(k)) for rng, k in zip(rngs, ks)]
    unitaries = haar_isometries(dim, dim, [rng for rng, k in zip(rngs, ks) for _ in range(k)])
    first = np.cumsum([0] + ks[:-1])
    superops = np.zeros((len(ks), dim * dim, dim * dim), dtype=complex)
    # Terms are added one index at a time, in the order the sum is written.
    for t in range(max(ks, default=0)):
        rows = [i for i, k in enumerate(ks) if k > t]
        w, u = np.array([weights[i][t] for i in rows])[:, None, None], unitaries[first[rows] + t]
        superops[rows] += w * kron(u, u.conj())
    stack = ChannelStack(superops, dim, index=index)
    return stack, [f"random_bistochastic(N={dim},k={k})" for k in ks]


def random_pauli_channel(rng: np.random.Generator) -> Channel:
    """Pauli channel with Dirichlet-uniform weights."""
    return _single(random_pauli_stack([rng]))


def random_pauli_stack(rngs, *, index=None):
    """Channels ``random_pauli_channel(rngs[i])`` as one stack; returns ``(stack, labels)``."""
    return _pauli_stack(np.array([rng.dirichlet(np.ones(4)) for rng in rngs]), index)


def _pauli_stack(p: np.ndarray, index=None):
    """Pauli channels with weights ``p[i]``, from the Kraus operators
    ``sqrt(p[i, t]) * PAULI[t]`` stacked into their isometry."""
    blocks = np.sqrt(np.maximum(p, 0.0))[:, None, :, None] * np.array(PAULI).swapaxes(0, 1)
    superops = _stinespring_superops(blocks.reshape(len(p), 8, 2), 2, 4)
    labels = ["pauli(" + ",".join(f"{w:g}" for w in row) + ")" for row in p]
    return ChannelStack(superops, 2, index=index), labels


def random_interval_channel(rng: np.random.Generator) -> Channel:
    """Random interval map with pure endpoint states."""
    return _single(random_interval_stack([rng]))


def random_interval_stack(rngs, *, index=None):
    """Channels ``random_interval_channel(rngs[i])`` (pure endpoints) as one
    stack; returns ``(stack, labels)``."""
    params = [
        [rng.uniform(), rng.uniform(), rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 2.0 * np.pi)]
        for rng in rngs
    ]
    return _pure_interval_stack(np.array(params), index)


def random_reshuffle_invariant(rng: np.random.Generator) -> Channel:
    """Reshuffle-invariant channel with Dirichlet weights and a Haar frame."""
    return _single(random_reshuffle_invariant_stack([rng]))


def random_reshuffle_invariant_stack(rngs, *, index=None):
    """Channels ``random_reshuffle_invariant(rngs[i])`` as one stack, with
    every frame from one batched QR; returns ``(stack, labels)``."""
    eta = np.array([rng.dirichlet(np.ones(3)) for rng in rngs])
    return _reshuffle_invariant_stack(eta, haar_isometries(2, 2, rngs), index)


# ---------------------------------------------------------------------------
# exact curves


def _xlnx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def depolarizing_curve_point(alpha: float) -> tuple[float, float]:
    """Exact ``(map entropy, receiver entropy)`` of the qubit depolarizing
    channel at ``q = 1``.

    The map entropy is the Shannon entropy of the Choi spectrum
    ``((1 + 3a)/4, (1 - a)/4 x3)``; the receiver entropy follows from the
    singular values ``(1, a, a, a)`` with trace norm ``1 + 3a``.
    """
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {a}")
    s_map = -_xlnx((1.0 + 3.0 * a) / 4.0) - 3.0 * _xlnx((1.0 - a) / 4.0)
    lam = 1.0 + 3.0 * a
    s_rec = math.log(lam) - 3.0 * _xlnx(a) / lam
    return (s_map + 0.0, s_rec + 0.0)  # +0.0 folds -0.0 into 0.0
