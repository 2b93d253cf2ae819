"""Rényi and von Neumann entropies of spectra and of quantum channels.

All entropies are returned in nats.  The two central quantities for a channel
``Phi`` on an N-level system are

* the map entropy — the Rényi entropy of the rescaled Choi spectrum
  ``lambda(D)/N``, i.e. of the bipartite state ``omega = D/N``; and
* the receiver entropy — the Rényi entropy of the normalized singular values
  ``sigma/Lambda`` of the superoperator matrix.

Both vectors have N^2 entries, so each entropy lies in ``[0, 2 ln N]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import SPECTRUM_ZERO_RTOL, hermitian_eigenvalues
from .channels import Channel, ValidationError, _check_kraus, check_state
from .zoo import PAULI

# |q - 1| below this window routes to the Shannon limit of the Rényi formula.
Q_ONE_WINDOW = 1e-6


def check_probabilities(p) -> np.ndarray:
    """Validate a probability vector and return it with tiny negatives clipped."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a non-empty 1-D weight vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("weights contain non-finite entries")
    if p.min() < -1e-12 or p.max() > 1.0 + 1e-12:
        raise ValueError(f"weights outside [0, 1]: min {p.min():.3e}, max {p.max():.6f}")
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"weights sum to {total:.12f}, expected 1 within 1e-10")
    return np.clip(p, 0.0, None)


def renyi(p, q) -> float:
    """Rényi entropy ``S_q(p) = ln(sum_i p_i^q) / (1 - q)`` in nats.

    ``q = 1`` (or anything within ``Q_ONE_WINDOW`` of it) gives the Shannon
    entropy, ``q = 0`` the logarithm of the support size, and ``math.inf``
    the min-entropy ``-ln max_i p_i``.  Zero weights never reach a logarithm.
    """
    p = check_probabilities(p)
    q = float(q)
    if math.isnan(q) or q < 0:
        raise ValueError(f"Rényi order must be >= 0, got {q}")
    if math.isinf(q):
        value = -np.log(p.max())
    elif abs(q - 1.0) < Q_ONE_WINDOW:
        nz = p[p > 0.0]
        value = -np.sum(nz * np.log(nz))
    elif q == 0.0:
        value = np.log(np.count_nonzero(p > 0.0))
    else:
        value = np.log(np.sum(p[p > 0.0] ** q)) / (1.0 - q)
    return float(value) + 0.0  # +0.0 folds -0.0 into 0.0


def spectrum_probabilities(values, negative_tol: float = 0.0) -> np.ndarray:
    """Turn a spectrum into a probability vector.

    Entries below ``-negative_tol`` raise; negatives within the tolerance are
    clamped to zero, values below ``SPECTRUM_ZERO_RTOL`` times the largest
    are treated as exact zeros, and the remainder is renormalized.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-D spectrum, got shape {v.shape}")
    low = v.min()
    if low < -negative_tol:
        raise ValidationError(
            f"spectrum entry {low:.3e} below the allowed negativity -{negative_tol:.3e}"
        )
    v = np.clip(v, 0.0, None)
    top = v.max()
    if top <= 0.0:
        raise ValueError("spectrum has no positive weight")
    v = np.where(v < SPECTRUM_ZERO_RTOL * top, 0.0, v)
    return v / v.sum()


def map_entropy(ch: Channel, q) -> float:
    """Rényi entropy of the channel's rescaled Choi spectrum ``lambda(D)/N``."""
    if ch.choi_eigenvalues is None:
        raise ValidationError("channel has a non-Hermitian Choi matrix; map entropy undefined")
    probs = spectrum_probabilities(ch.choi_eigenvalues, negative_tol=ch.choi_psd_tol)
    return renyi(probs, q)


def receiver_entropy(ch: Channel, q) -> float:
    """Rényi entropy of the normalized superoperator singular values."""
    probs = spectrum_probabilities(ch.singular_values)
    return renyi(probs, q)


def povm_entropy(ops, q) -> float:
    """Rényi entropy of the weights ``tr(A_i^dag A_i)/N`` of a Kraus set.

    Different unravelings of one channel give different weight vectors; the
    canonical (Choi eigenbasis) unraveling reproduces the map entropy.
    """
    stack, n = _check_kraus(ops)
    kappa = np.einsum("ikl,ikl->i", stack, stack.conj()).real
    return renyi(spectrum_probabilities(kappa / n), q)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def exchange_entropy(ch: Channel, rho) -> float:
    """Von Neumann entropy of ``(Phi x id)`` applied to a purification of ``rho``.

    The purification of ``rho`` on two copies of the system is
    ``(sqrt(rho) x 1) sum_i |ii>``, whose vectorized form is ``vec(sqrt(rho))``.
    For ``rho = 1/N`` this reduces to the map entropy at ``q = 1``.
    """
    rho = check_state(rho, ch.dim)
    n = ch.dim
    root = _psd_sqrt(rho)
    s4 = ch.superop.reshape(n, n, n, n)
    joint = np.einsum("klmn,mb,nd->kbld", s4, root, root.conj()).reshape(n * n, n * n)
    eigs = hermitian_eigenvalues(joint, herm_tol=1e-8)
    scale = float(np.linalg.norm(joint))
    return renyi(spectrum_probabilities(eigs, negative_tol=1e-9 * max(scale, 1.0)), 1.0)


def output_entropy(ch: Channel, q) -> float:
    """Rényi entropy of ``Phi(1/N)``, the image of the maximally mixed state."""
    scale = float(np.linalg.norm(ch.output_state))
    probs = spectrum_probabilities(
        ch.output_eigenvalues, negative_tol=1e-9 * max(scale, 1.0)
    )
    return renyi(probs, q)


def bloch_ellipsoid(ch: Channel) -> tuple[float, float, float]:
    """Semiaxes of the Bloch-ball image of a unital qubit channel, ascending.

    In the Hermitian basis ``{1, sigma_x, sigma_y, sigma_z}/sqrt(2)`` a unital
    trace-preserving qubit map is block diagonal ``[[1, 0], [0, M]]``; the
    returned triple holds the singular values of the real 3x3 block ``M``.
    A unitary gives ``(1, 1, 1)``, projection onto the diagonal gives
    ``(0, 0, 1)``, and uniform contraction by ``alpha`` gives
    ``(alpha, alpha, alpha)``.
    """
    if ch.dim != 2:
        raise ValueError(f"Bloch ellipsoid is defined for qubit channels, got dim {ch.dim}")
    if not ch.unital:
        raise ValueError("Bloch ellipsoid requires a unital channel")
    t = np.empty((3, 3), dtype=complex)
    for j in range(3):
        image = (ch.superop @ PAULI[j + 1].reshape(-1)).reshape(2, 2)
        for i in range(3):
            t[i, j] = 0.5 * np.trace(PAULI[i + 1] @ image)
    if np.abs(t.imag).max() > 1e-9:
        raise ValidationError(
            f"Pauli transfer block has imaginary part {np.abs(t.imag).max():.3e}"
        )
    axes = np.sort(np.linalg.svd(t.real, compute_uv=False))
    return (float(axes[0]), float(axes[1]), float(axes[2]))


@dataclass(frozen=True)
class EntropyPoint:
    """One sampled point of the (map entropy, receiver entropy) plane."""

    q: float
    s_map: float
    s_rec: float
    channel_label: str
    extras: dict = field(default_factory=dict)


def entropy_point(ch: Channel, q) -> EntropyPoint:
    """Evaluate both channel entropies plus the standard scalar diagnostics."""
    extras = {
        "s_output": output_entropy(ch, q),
        "sigma1": ch.sigma1,
        "tau1": ch.tau1,
        "d1": ch.d1,
        "lambda_phi": ch.lambda_phi,
    }
    return EntropyPoint(
        q=float(q),
        s_map=map_entropy(ch, q),
        s_rec=receiver_entropy(ch, q),
        channel_label=ch.label or "channel",
        extras=extras,
    )
