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

from .matcore import (
    PAULI,
    Q_LARGE,
    SPECTRUM_ZERO_RTOL,
    first_failure,
    hermitian_eigenvalues,
    renyi_order,
)
from .channels import Channel, ChannelStack, ValidationError, _check_kraus, check_state

# |q - 1| below this window routes to the Shannon limit of the Rényi formula
# and its first-order term in q - 1.
Q_ONE_WINDOW = 1e-6


def _rows(p: np.ndarray, what: str) -> np.ndarray:
    """View a vector or a stack of vectors as 2-D, rejecting other shapes."""
    if p.ndim not in (1, 2) or p.shape[-1] == 0:
        raise ValueError(
            f"expected a non-empty 1-D {what} or a stack of them, got shape {p.shape}"
        )
    return p.reshape(-1, p.shape[-1])


def _row_name(p: np.ndarray, i: int) -> str:
    return f"row {i}: " if p.ndim == 2 else ""


def check_probabilities(p) -> np.ndarray:
    """Validate a probability vector, or each row of a 2-D stack of them,
    and return it with tiny negatives clipped."""
    p = np.asarray(p, dtype=float)
    rows = _rows(p, "weight vector")
    if not np.isfinite(p).all():
        raise ValueError("weights contain non-finite entries")
    low, high = rows.min(axis=-1), rows.max(axis=-1)
    i = first_failure((low >= -1e-12) & (high <= 1.0 + 1e-12))
    if i is not None:
        raise ValueError(
            f"{_row_name(p, i)}weights outside [0, 1]: min {low[i]:.3e}, max {high[i]:.6f}"
        )
    total = rows.sum(axis=-1)
    i = first_failure(np.abs(total - 1.0) <= 1e-10)
    if i is not None:
        raise ValueError(
            f"{_row_name(p, i)}weights sum to {total[i]:.12f}, expected 1 within 1e-10"
        )
    return np.maximum(p, 0.0)


def renyi(p, q):
    """Rényi entropy ``S_q(p) = ln(sum_i p_i^q) / (1 - q)`` in nats.

    ``q = 1`` gives the Shannon entropy ``H``, and within ``Q_ONE_WINDOW`` of
    it ``H - (q-1)/2 Var_p(ln p)``, whose error is O((q-1)^2).  ``q = 0``
    gives the logarithm of the support size, and ``math.inf`` the min-entropy
    ``-ln max_i p_i``.  Zero weights never reach a logarithm.
    A 1-D ``p`` gives a float; a 2-D stack gives one entropy per row.
    """
    p = check_probabilities(p)
    value = _renyi(p, renyi_order(q))
    return float(value) if p.ndim == 1 else value


def _renyi(p: np.ndarray, q: float):
    # p holds validated probability vectors along its last axis.
    if math.isinf(q):
        value = -np.log(p.max(axis=-1))
    elif abs(q - 1.0) < Q_ONE_WINDOW:
        logp = np.log(np.where(p > 0.0, p, 1.0))
        h = -np.sum(p * logp, axis=-1, keepdims=True)
        value = h[..., 0]
        if q != 1.0:
            value = value - (q - 1.0) / 2.0 * np.sum(p * (logp + h) ** 2, axis=-1)
    elif q == 0.0:
        value = np.log(np.count_nonzero(p > 0.0, axis=-1))
    elif q > Q_LARGE:
        top = p.max(axis=-1, keepdims=True)
        value = (q * np.log(top[..., 0]) + np.log(np.sum((p / top) ** q, axis=-1))) / (1.0 - q)
    else:
        value = np.log(np.sum(p**q, axis=-1)) / (1.0 - q)
    return value + 0.0  # +0.0 folds -0.0 into 0.0


def spectrum_probabilities(values, negative_tol=0.0) -> np.ndarray:
    """Turn a spectrum, or each row of a 2-D stack of spectra, into a
    probability vector.

    Non-finite entries and entries below ``-negative_tol`` (a scalar or one
    value per row) raise; negatives within the tolerance are clamped to
    zero, values below ``SPECTRUM_ZERO_RTOL`` times the largest are treated
    as exact zeros, and the remainder is renormalized.
    """
    v = np.asarray(values, dtype=float)
    rows = _rows(v, "spectrum")
    i = first_failure(np.isfinite(rows).all(axis=-1))
    if i is not None:
        raise ValidationError(f"{_row_name(v, i)}spectrum contains non-finite entries")
    tol = np.asarray(negative_tol, dtype=float)
    low = rows.min(axis=-1)
    i = first_failure(low >= -tol)
    if i is not None:
        raise ValidationError(
            f"{_row_name(v, i)}spectrum entry {low[i]:.3e} below the allowed "
            f"negativity -{tol.flat[i if tol.size > 1 else 0]:.3e}"
        )
    v = np.maximum(v, 0.0)
    top = v.max(axis=-1, keepdims=True)
    if (top <= 0.0).any():
        raise ValueError("spectrum has no positive weight")
    v = np.where(v < SPECTRUM_ZERO_RTOL * top, 0.0, v)
    return v / v.sum(axis=-1, keepdims=True)


def probabilities(stack: ChannelStack, kind: str) -> np.ndarray:
    """One validated probability vector per channel of a stack, cached on it.

    ``kind`` names the spectrum: ``"map"`` is the rescaled Choi spectrum
    ``lambda(D)/N``, ``"receiver"`` the superoperator singular values over
    ``L``, and ``"output"`` the spectrum of ``Phi(1/N)``.  Each is formed
    and validated once per stack, on first use, by
    :func:`spectrum_probabilities`, whose output is non-negative and
    normalized by construction; a spectrum that cannot be formed (the map
    spectrum of a non-Hermitian Choi matrix) only fails what reads it.
    """
    p = stack.entropy_cache.get(kind)
    if p is None:
        if kind == "map":
            if not stack.hermitian.all():
                raise ValidationError(
                    "channel has a non-Hermitian Choi matrix; map entropy undefined"
                )
            p = spectrum_probabilities(stack.choi_eigenvalues, negative_tol=stack.choi_psd_tol)
        elif kind == "receiver":
            p = spectrum_probabilities(stack.singular_values)
        elif kind == "output":
            scale = np.linalg.norm(stack.output_state, axis=(-2, -1))
            p = spectrum_probabilities(
                stack.output_eigenvalues, negative_tol=1e-9 * np.maximum(scale, 1.0)
            )
        else:
            raise ValueError(f"unknown spectrum {kind!r}")
        p.setflags(write=False)
        stack.entropy_cache[kind] = p
    return p


def entropies(stack: ChannelStack, kind: str, q) -> np.ndarray:
    """Rényi entropies of :func:`probabilities`, one per channel, cached per order."""
    key = (kind, renyi_order(q))
    value = stack.entropy_cache.get(key)
    if value is None:
        value = _renyi(probabilities(stack, kind), key[1])
        value.setflags(write=False)
        stack.entropy_cache[key] = value
    return value


def map_entropy(ch: Channel, q) -> float:
    """Rényi entropy of the channel's rescaled Choi spectrum ``lambda(D)/N``."""
    return float(entropies(ch.stack, "map", q)[0])


def receiver_entropy(ch: Channel, q) -> float:
    """Rényi entropy of the normalized superoperator singular values."""
    return float(entropies(ch.stack, "receiver", q)[0])


def povm_entropy(ops, q) -> float:
    """Rényi entropy of the weights ``tr(A_i^dag A_i)/N`` of a Kraus set.

    Different unravelings of one channel give different weight vectors; the
    canonical (Choi eigenbasis) unraveling reproduces the map entropy.
    """
    v, n, k = _check_kraus(ops)
    stack = np.ascontiguousarray(v.reshape(n, k, n).swapaxes(0, 1))
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
    return float(entropies(ch.stack, "output", q)[0])


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


# Spectral scalars of a channel, each a property of Channel and ChannelStack.
DIAGNOSTICS = ("sigma1", "tau1", "d1", "lambda_phi")

# Scalar diagnostics carried by an EntropyPoint, in order.
POINT_EXTRAS = ("s_output",) + DIAGNOSTICS


def entropy_columns(stack: ChannelStack, q) -> dict[str, np.ndarray]:
    """Both channel entropies and the standard diagnostics, one array each
    with an entry per channel of the stack."""
    return {
        "s_map": entropies(stack, "map", q),
        "s_rec": entropies(stack, "receiver", q),
        "s_output": entropies(stack, "output", q),
        **{key: getattr(stack, key) for key in DIAGNOSTICS},
    }


def entropy_point(ch: Channel, q) -> EntropyPoint:
    """Evaluate both channel entropies plus the standard scalar diagnostics."""
    cols = entropy_columns(ch.stack, q)
    return EntropyPoint(
        q=float(q),
        s_map=float(cols["s_map"][0]),
        s_rec=float(cols["s_rec"][0]),
        channel_label=ch.label or "channel",
        extras={key: float(cols[key][0]) for key in POINT_EXTRAS},
    )
