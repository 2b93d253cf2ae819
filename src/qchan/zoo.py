"""Named channel families, random ensembles, and exact reference curves.

Random sampling goes through ``numpy.random.Generator`` streams only; see
:func:`rng_stream` and :func:`rng_substream` for the seeding conventions that
make scans reproducible independently of scheduling.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import (
    Channel,
    ChannelStack,
    check_state,
    from_isometry,
    from_kraus,
    isometry_superops,
)
from .matcore import as_complex_matrix

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_SEED_MASK = (1 << 64) - 1


def rng_stream(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; equal seeds give bit-identical draws."""
    return np.random.default_rng(np.random.SeedSequence(int(seed) & _SEED_MASK))


def rng_substream(seed: int, index: int) -> np.random.Generator:
    """Independent per-index stream, so parallel scans are schedule-free.

    Worker ``index`` always sees the same stream no matter how many threads
    run or in which order the samples are processed.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed) & _SEED_MASK, int(index))))


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
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {alpha}")
    d = dim * dim
    eye_vec = np.eye(dim, dtype=complex).reshape(-1)
    contraction = np.outer(eye_vec / dim, eye_vec)
    superop = alpha * np.eye(d, dtype=complex) + (1.0 - alpha) * contraction
    return Channel(superop, dim, label=f"depolarizing(N={dim},alpha={alpha:g})")


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
    ch = complete_contraction(xi)
    return Channel(ch.superop, dim, label=f"spontaneous_emission(N={dim})")


def maximally_depolarizing(dim: int) -> Channel:
    """Full contraction to the maximally mixed state, ``rho -> 1/N``."""
    return Channel(
        depolarizing(dim, 0.0).superop, dim, label=f"maximally_depolarizing(N={dim})"
    )


def pauli_channel(p) -> Channel:
    """Qubit mixture of Pauli conjugations with weights ``p = (p0, p1, p2, p3)``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,) or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"need four non-negative weights summing to 1, got {p}")
    ops = [np.sqrt(max(w, 0.0)) * s for w, s in zip(p, PAULI) if w > 0.0]
    label = "pauli(" + ",".join(f"{w:g}" for w in p) + ")"
    return from_kraus(ops, label=label)


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
    rho1 = _pure_interval_state(alpha, phi1)
    rho2 = _pure_interval_state(beta, phi2)
    return _interval_from_states(
        rho1, rho2, label=f"interval(a={alpha:g},b={beta:g},phi1={phi1:g},phi2={phi2:g})"
    )


def interval_channel_general(rho1, rho2, *, label=None) -> Channel:
    """Interval map with arbitrary (possibly mixed) endpoint states."""
    rho1 = check_state(rho1, 2)
    rho2 = check_state(rho2, 2)
    return _interval_from_states(rho1, rho2, label=label or "interval(general)")


def _pure_interval_state(weight: float, phase: float) -> np.ndarray:
    off = math.sqrt(weight * (1.0 - weight))
    return np.array(
        [
            [weight, off * np.exp(1j * phase)],
            [off * np.exp(-1j * phase), 1.0 - weight],
        ],
        dtype=complex,
    )


def _interval_from_states(rho1: np.ndarray, rho2: np.ndarray, *, label: str) -> Channel:
    superop = np.zeros((4, 4), dtype=complex)
    superop[:, 0] = rho1.reshape(-1)
    superop[:, 3] = rho2.reshape(-1)
    return Channel(superop, 2, label=label, meta={"interval": True})


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
    e1, e2, e3 = (float(x) for x in eta)
    # Eigenvalues {1, eta3} on the outer 2x2 block and {eta1, eta2} on the
    # inner one; with sum(eta) = 1 the matrix is its own reshuffle.
    base = np.array(
        [
            [(1.0 + e3) / 2.0, 0.0, 0.0, (1.0 - e3) / 2.0],
            [0.0, (e1 + e2) / 2.0, (e1 - e2) / 2.0, 0.0],
            [0.0, (e1 - e2) / 2.0, (e1 + e2) / 2.0, 0.0],
            [(1.0 - e3) / 2.0, 0.0, 0.0, (1.0 + e3) / 2.0],
        ],
        dtype=complex,
    )
    label = f"reshuffle_invariant(eta=({e1:g},{e2:g},{e3:g}))"
    if u is not None:
        u = as_complex_matrix(u)
        if u.shape != (2, 2):
            raise ValueError(f"conjugating unitary must be 2x2, got {u.shape}")
        dev = np.linalg.norm(u.conj().T @ u - np.eye(2))
        if dev > 1e-10:
            raise ValueError(f"conjugating matrix is not unitary: deviation {dev:.3e}")
        w = np.kron(u, u.conj())
        base = w @ base @ w.conj().T
        label += "*U"
    return Channel(base, 2, label=label)


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
    g = np.array(
        [
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            for rng in rngs
        ]
    )
    q, r = np.linalg.qr(g)
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


def random_cptp(dim: int, env_dim: int, rng: np.random.Generator, *, label=None) -> Channel:
    """Random channel from a Haar Stinespring isometry into system x environment.

    The channel only sees the ``N`` columns of a system x environment
    unitary that act on the environment's first basis state, so drawing that
    ``N*d x N`` isometry directly gives the same channel measure as
    :func:`from_environment` on a Haar unitary (Bruzda et al., arXiv:0804.2361).
    """
    v = haar_isometry(dim * env_dim, dim, rng)
    return from_isometry(v, dim, env_dim, label=label or _cptp_label(dim, env_dim))


def random_cptp_stack(dim: int, env_dims, rngs, *, index=None):
    """Channels ``random_cptp(dim, env_dims[i], rngs[i])`` as one stack.

    Returns ``(stack, labels)``.  Each environment dimension gets one
    batched QR and one batched isometry check, and the whole stack is
    validated once; every entry equals the :func:`random_cptp` channel of
    the same generator bit for bit.  Errors name channel ``index[i]`` (by
    default ``i``).
    """
    env_dims = [int(e) for e in env_dims]
    index = range(len(env_dims)) if index is None else index
    d = dim * dim
    superops = np.empty((len(env_dims), d, d), dtype=complex)
    for env in sorted(set(env_dims)):
        rows = [i for i, e in enumerate(env_dims) if e == env]
        v = haar_isometries(dim * env, dim, [rngs[i] for i in rows])
        superops[rows] = isometry_superops(v, dim, env, index=[index[i] for i in rows])
    stack = ChannelStack(superops, dim, index=index)
    return stack, [_cptp_label(dim, env) for env in env_dims]


def _cptp_label(dim: int, env_dim: int) -> str:
    return f"random_cptp(N={dim},d={env_dim})"


def random_bistochastic(dim: int, k: int, rng: np.random.Generator, *, label=None) -> Channel:
    """Random mixture of ``k`` Haar unitary conjugations (unital and TP)."""
    if k < 1:
        raise ValueError("need at least one unitary in the mixture")
    weights = rng.dirichlet(np.ones(k))
    d = dim * dim
    superop = np.zeros((d, d), dtype=complex)
    for w in weights:
        u = haar_unitary(dim, rng)
        superop += w * np.kron(u, u.conj())
    return Channel(superop, dim, label=label or f"random_bistochastic(N={dim},k={k})")


def random_pauli_channel(rng: np.random.Generator) -> Channel:
    """Pauli channel with Dirichlet-uniform weights."""
    return pauli_channel(rng.dirichlet(np.ones(4)))


def random_interval_channel(rng: np.random.Generator, *, pure: bool = True) -> Channel:
    """Random interval map; ``pure=False`` draws mixed endpoint states."""
    if pure:
        return interval_channel(
            rng.uniform(), rng.uniform(), rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 2.0 * np.pi)
        )
    return interval_channel_general(
        random_density(2, rng), random_density(2, rng), label="interval(random mixed)"
    )


def random_reshuffle_invariant(rng: np.random.Generator) -> Channel:
    """Reshuffle-invariant channel with Dirichlet weights and a Haar frame."""
    return reshuffle_invariant(rng.dirichlet(np.ones(3)), haar_unitary(2, rng))


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
