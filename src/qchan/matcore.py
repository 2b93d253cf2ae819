"""Dense complex-matrix primitives: entry reorderings, spectra, Schatten q-norms.

Everything in this module is a pure function on immutable inputs; matrices are
plain ``numpy`` arrays in row-major layout and composite indices over an
``n * n`` grid are always ``(a, b) -> a * n + b``, zero-based.
"""

from __future__ import annotations

import math

import numpy as np

# Relative Hermiticity tolerance: separates modeling errors from roundoff.
HERM_TOL = 1e-10
# Spectrum entries below this fraction of the largest one are treated as exact
# zeros by the entropy layer (kept in the vector, never fed to a logarithm).
SPECTRUM_ZERO_RTOL = 1e-12

# The identity and the three Pauli matrices, in the order 1, X, Y, Z.
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def as_complex_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce ``m`` to a 2-D complex array, or with ``stack`` to a 3-D stack
    of matrices, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2 + stack:
        what = "a stack of matrices" if stack else "a matrix"
        raise ValueError(f"expected {what}, got an array of shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix contains non-finite entries")
    return out


def _square_side(m: np.ndarray, block: int | None) -> int:
    """Side ``n`` of an ``n^2 x n^2`` matrix, or of each in a stack (the last
    two axes): ``block``, which must be a positive integer (``2.0`` passes,
    ``2.7`` and ``0`` do not), or the integer square root when ``block`` is
    ``None``.  Anything else raises ``ValueError``."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.shape[-1]
    side = math.isqrt(rows) if block is None else int(block)
    if block is not None and side != block:
        raise ValueError(f"block size must be an integer, got {block!r}")
    if side < 1:
        raise ValueError(f"block size must be positive, got {side}")
    if side * side != rows:
        raise ValueError(f"matrix size {rows} is not the square of block size {side}")
    return side


def reshuffle(m, block: int | None = None) -> np.ndarray:
    """Exchange the inner index pair of an ``n^2 x n^2`` matrix.

    With composite indices, ``out[(k, m), (l, n)] = in[(k, l), (m, n)]``.
    This is the involution that maps a channel's superoperator matrix onto
    its dynamical (Choi) matrix and back.  ``block`` fixes the block size n;
    by default it is inferred from the matrix size.  A ``(B, n^2, n^2)``
    stack is reshuffled matrix by matrix.
    """
    m = as_complex_matrix(m, stack=np.ndim(m) == 3)
    n = _square_side(m, block)
    return m.reshape(-1, n, n, n, n).transpose(0, 1, 3, 2, 4).reshape(m.shape)


def reshuffle_permutation(block: int) -> np.ndarray:
    """Entry permutation that realizes :func:`reshuffle` on an ``n^2 x n^2`` matrix.

    Returns ``perm`` such that ``reorder(m, perm) == reshuffle(m)``.
    """
    if block < 1:
        raise ValueError("block size must be positive")
    d = block * block
    idx = np.arange(d * d).reshape(block, block, block, block)
    return idx.transpose(0, 2, 1, 3).reshape(-1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a[i], b[i])`` for two stacks of matrices, formed as
    :func:`numpy.kron` forms it, by one broadcast multiply."""
    shape = (len(a), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(shape)


def identity_permutation(size: int) -> np.ndarray:
    """The permutation leaving every entry in place."""
    return np.arange(size)


def random_permutation(size: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random permutation of ``size`` entry indices."""
    return rng.permutation(size)


def reorder(m, perm) -> np.ndarray:
    """Permute matrix entries: ``out.flat[j] = m.flat[perm[j]]`` (row-major).

    ``perm`` must be a bijection on ``0 .. m.size - 1``; the multiset of
    entries, and hence the Hilbert-Schmidt norm, is preserved exactly.  A
    ``(B, r, c)`` stack takes a ``(B, r * c)`` array, one bijection per matrix.
    """
    m = as_complex_matrix(m, stack=np.ndim(m) == 3)
    perm = np.asarray(perm)
    if perm.ndim != m.ndim - 1 or perm.shape[:-1] != m.shape[:-2]:
        raise ValueError("permutation must be a 1-D integer array, one per matrix")
    size = m.shape[-2] * m.shape[-1]
    if not np.issubdtype(perm.dtype, np.integer) or perm.shape[-1] != size:
        raise ValueError(f"permutation must be integers acting on the matrix's {size} entries")
    if not (np.sort(perm, axis=-1) == np.arange(size)).all():
        raise ValueError("permutation is not a bijection on the entry indices")
    return np.take_along_axis(m.reshape(perm.shape), perm, axis=-1).reshape(m.shape)


def singular_values(m) -> np.ndarray:
    """Singular values of ``m``, sorted descending (non-negative reals)."""
    m = as_complex_matrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK hiccup
        raise np.linalg.LinAlgError(
            f"singular value decomposition failed for a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc


def hermitian_part(h, herm_tol: float = HERM_TOL):
    """Check and symmetrize a stack of square matrices (the last two axes).

    Returns ``(sym, ok, dev, scale)``: the Hermitian parts ``(h + h^dag)/2``,
    whether ``|h - h^dag|_2 <= herm_tol * |h|_2`` holds, and those two
    Frobenius norms, each with one entry per matrix.  What a failed check
    means is left to the caller.
    """
    h = np.asarray(h)
    adj = h.swapaxes(-1, -2).conj()
    dev = np.linalg.norm(h - adj, axis=(-2, -1))
    scale = np.linalg.norm(h, axis=(-2, -1))
    ok = dev <= herm_tol * np.maximum(scale, 1e-300)
    return (h + adj) / 2.0, ok, dev, scale


def first_failure(ok) -> int | None:
    """Flat index of the first ``False`` in a boolean array, or ``None``."""
    ok = np.asarray(ok)
    if ok.all():
        return None
    return int(np.flatnonzero(~ok)[0])


def hermitian_eigenvalues(h, herm_tol: float = HERM_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of a stack of them, sorted
    descending along the last axis.

    Every matrix must satisfy ``|h - h^dag|_2 <= herm_tol * |h|_2``; it is
    then symmetrized as ``(h + h^dag)/2`` before the decomposition, so the
    result is exactly real (possibly negative).  A failing stack entry is
    named by its index.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got an array of shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix contains non-finite entries")
    sym, ok, dev, scale = hermitian_part(h, herm_tol)
    i = first_failure(ok)
    if i is not None:
        where = f"stack entry {i}: " if h.ndim > 2 else ""
        dev, scale = dev.flat[i], scale.flat[i]
        raise ValueError(
            f"{where}matrix is not Hermitian: |h - h^dag|_2 = {dev:.3e} "
            f"exceeds {herm_tol:.1e} * |h|_2 = {herm_tol * scale:.3e}"
        )
    return np.ascontiguousarray(np.linalg.eigvalsh(sym)[..., ::-1])


# Above this order the Rényi sums and Schatten norms are factored by their
# largest term, so no power underflows or overflows; at and below it the
# direct sums keep their bits.  Unfactored, p_max^q underflows near q = 170
# for 64 equal weights, and 10^q overflows near q = 308.
Q_LARGE = 16.0


def renyi_order(q, minimum: float = 0.0) -> float:
    """Validate a Rényi order: ``q >= minimum``, ``math.inf`` allowed.

    Entropies take any ``q >= 0``; the trade-off bounds and Schatten norms
    need ``q >= 1``.
    """
    q = float(q)
    if math.isnan(q) or q < minimum:
        raise ValueError(f"Rényi order must be >= {minimum:g}, got {q}")
    return q


def q_norm(m, q) -> float:
    """Schatten q-norm ``(sum_i x_i^q)^(1/q)`` over the singular values of ``m``.

    ``q`` ranges over ``[1, inf]``; ``math.inf`` is the explicit enumerated
    value selecting the largest singular value, and ``q = 1`` gives the trace
    norm.  The function is non-increasing in ``q``.  Above ``Q_LARGE``, or
    when the largest singular value lies outside ``[2^-60, 2^60]`` (where
    its ``q``-th power could leave the normal floats at ``q <= Q_LARGE``),
    the sum is factored by it.
    """
    q = renyi_order(q, minimum=1.0)
    s = singular_values(m)
    if math.isinf(q):
        return float(s[0])
    if q == 1.0:
        return float(s.sum())
    if s[0] > 0.0 and (q > Q_LARGE or not 2.0**-60 <= s[0] <= 2.0**60):
        return float(s[0] * np.sum((s / s[0]) ** q) ** (1.0 / q))
    return float(np.sum(s**q) ** (1.0 / q))
