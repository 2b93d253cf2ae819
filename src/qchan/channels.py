"""Quantum channels on N-level systems in Kraus, superoperator, and Choi form.

Conventions used throughout: density matrices are vectorized row-major
(``vec(rho) = rho.ravel()``), so a Kraus set ``{A_i}`` has superoperator
``sum_i kron(A_i, conj(A_i))`` acting as ``vec(rho') = S @ vec(rho)``, and the
dynamical (Choi) matrix is the reshuffled superoperator,
``D = reshuffle(S) = sum_i vec(A_i) vec(A_i)^dag``.  The associated
bipartite state is ``omega = D / N``; its partial trace over the first
factor is ``1/N`` for trace-preserving maps and over the second factor is
the image of the maximally mixed state.
"""

from __future__ import annotations

import functools

import numpy as np

from .matcore import (
    HERM_TOL,
    SPECTRUM_ZERO_RTOL,
    _square_side,
    as_complex_matrix,
    first_failure,
    hermitian_part,
    reshuffle,
)

# ChannelStack's trace-preservation and unitality tolerance: Choi marginal,
# Choi trace and Phi(1/N).
TP_TOL = 1e-9
# Complete positivity: Choi eigenvalues above -PSD_RTOL * |D|_2 count as >= 0.
PSD_RTOL = 1e-9
# The one Gram rule, |V^dag V - 1|_2, for isometries, unitaries and Kraus sets.
UNITARY_TOL = 1e-10
# Density-matrix checks: |tr(rho) - 1| and eigenvalue negativity allowance.
STATE_TOL = 1e-9


class ValidationError(ValueError):
    """A matrix fails the physical-consistency checks for its intended role."""


def check_state(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, PSD) and return it."""
    rho = as_complex_matrix(rho)
    n = rho.shape[0]
    if rho.shape[0] != rho.shape[1] or (dim is not None and n != dim):
        raise ValidationError(
            f"expected a {dim or rho.shape[0]}x{dim or rho.shape[0]} state, got {rho.shape}"
        )
    sym, ok, dev, _ = hermitian_part(rho)
    if not ok:
        raise ValidationError(f"state is not Hermitian: |rho - rho^dag|_2 = {dev:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > STATE_TOL:
        raise ValidationError(f"state trace is {tr:.12g}, expected 1 within {STATE_TOL:.1e}")
    low = float(np.linalg.eigvalsh(sym)[0])
    if low < -STATE_TOL:
        raise ValidationError(f"state has a negative eigenvalue {low:.3e}")
    return rho


def _channel_name(i: int, index, size: int) -> str:
    """Message prefix naming entry ``i`` of a stack; empty for a lone channel."""
    if index is None:
        return f"channel {i}: " if size > 1 else ""
    return f"channel {index[i]}: "


class ChannelStack:
    """B linear maps on N x N density matrices, held as stacked arrays and
    validated together.

    ``superop`` is a ``(B, N^2, N^2)`` stack of superoperators, and ``dim``
    is N (``None`` infers it from the matrix size).  Construction
    forms the Choi matrices, checks that they are Hermitian, takes their
    eigenvalues with one batched ``eigvalsh``, and sets the CP, TP, unital and
    interval flags and ``Phi(1/N)`` for every map at once.  Once the CP/TP checks
    pass it takes ``singular_values``, those of each superoperator, and
    ``output_eigenvalues``, those of each ``Phi(1/N)``, with one batched call
    each; both are descending, of shapes ``(B, N^2)`` and ``(B, N)``.  A
    :class:`Channel` is the ``B = 1`` case.

    Each spectrum is taken at the cost of its structure.  The singular values
    of a map whose Choi matrix passed the Hermiticity check come from a real
    ``svd`` of its transfer matrix in a Hermitian basis (:func:`real_transfer`);
    only a permissive map with a non-Hermitian Choi matrix takes the complex
    ``svd``.  ``kraus_vectors`` holds ``(rows, X)`` pairs for maps built from
    checked Stinespring isometries: ``X[j]`` is the ``N^2 x d`` matrix of Kraus
    vectors of map ``rows[j]``, whose Choi matrix is ``X X^dag``.  When
    ``d < N^2`` such a map takes its Choi eigenvalues from the ``d x d`` Gram
    ``X^dag X``, which has the same nonzero eigenvalues, padded with exact
    zeros; every other map takes the full ``eigvalsh``.  The Hermiticity, CP
    and TP checks run on every map's Choi matrix either way.

    With ``require_cptp`` (the default) the first map that fails the CP or TP
    check raises :class:`ValidationError`; for ``B > 1`` the message names it
    as channel ``index[i]`` (by default its position ``i``).  Arrays are
    read-only after construction; ``entropy_cache`` holds the normalized
    spectra and Rényi entropies that :mod:`qchan.entropy` derives from them.
    ``interval`` marks the N = 2 maps whose superoperator columns 1 and 2 (the
    images of ``|0><1|`` and ``|1><0|``) are exactly zero: segment images.
    """

    # Arrays set at validation time, one entry per map; shared by channel().
    _VALIDATED = (
        "superop",
        "choi",
        "hermitian",
        "choi_eigenvalues",
        "choi_psd_tol",
        "cp",
        "tp",
        "unital",
        "interval",
        "output_state",
        "singular_values",
        "output_eigenvalues",
    )
    __slots__ = _VALIDATED + ("dim", "entropy_cache")

    def __init__(
        self, superop, dim: int | None, *, require_cptp=True, index=None, kraus_vectors=()
    ):
        superop = as_complex_matrix(np.array(superop, dtype=complex), stack=True)
        n = _square_side(superop, dim)
        b = superop.shape[0]
        choi = reshuffle(superop, n)
        sym, hermitian, herm_dev, choi_scale = hermitian_part(choi)
        psd_tol = PSD_RTOL * choi_scale
        eigenvalues = _choi_eigenvalues(sym, kraus_vectors)
        cp = hermitian & (eigenvalues[:, -1] >= -psd_tol)

        mixed = np.eye(n, dtype=complex) / n
        marginal = np.einsum("bklkn->bln", choi.reshape(b, n, n, n, n)) / n
        marginal_dev = np.linalg.norm(marginal - mixed, axis=(-2, -1))
        trace_dev = np.abs(choi.trace(axis1=-2, axis2=-1) - n)
        tp = (marginal_dev <= TP_TOL) & (trace_dev <= TP_TOL)

        image = superop @ mixed.reshape(-1)
        unital = np.linalg.norm(image - mixed.reshape(-1), axis=-1) <= TP_TOL
        out = image.reshape(b, n, n)
        out = (out + out.swapaxes(-1, -2).conj()) / 2.0

        i = first_failure(cp & tp) if require_cptp else None
        if i is not None:
            where = _channel_name(i, index, b)
            if not hermitian[i]:
                raise ValidationError(
                    f"{where}Choi matrix is not Hermitian: |D - D^dag|_2 = {herm_dev[i]:.3e} "
                    f"(tolerance {HERM_TOL:.1e} * |D|_2 = {HERM_TOL * choi_scale[i]:.3e})"
                )
            parts = []
            if not cp[i]:
                parts.append(
                    f"CP fails: smallest Choi eigenvalue {eigenvalues[i, -1]:.3e} "
                    f"< -{psd_tol[i]:.3e}"
                )
            if not tp[i]:
                parts.append(
                    f"TP fails: |tr_A omega - 1/N|_2 = {marginal_dev[i]:.3e}, "
                    f"|tr D - N| = {trace_dev[i]:.3e} (tolerance {TP_TOL:.1e})"
                )
            raise ValidationError(where + "; ".join(parts))

        self.dim = n
        self.interval = (n == 2) & ~superop[:, :, 1:3].any(axis=(1, 2))
        self.superop = superop
        self.choi = choi
        self.hermitian = hermitian
        self.choi_eigenvalues = eigenvalues
        self.choi_psd_tol = psd_tol
        self.cp = cp
        self.tp = tp
        self.unital = unital
        self.output_state = out
        self.singular_values = _singular_values(superop, hermitian, n)
        # out is stored as (X + X^dag)/2, which is exactly Hermitian.
        self.output_eigenvalues = np.ascontiguousarray(np.linalg.eigvalsh(out)[:, ::-1])
        self._freeze()

    def _freeze(self) -> None:
        for name in self._VALIDATED:
            getattr(self, name).setflags(write=False)
        self.entropy_cache = {}

    def channel(self, i: int = 0, *, label=None) -> "Channel":
        """A :class:`Channel` over map ``i``, which is not validated again.

        It shares this stack's validated arrays and spectra, and computes
        its own entropies on first access.
        """
        i = range(len(self))[i]
        row = ChannelStack.__new__(ChannelStack)
        row.dim = self.dim
        for name in self._VALIDATED:
            setattr(row, name, getattr(self, name)[i : i + 1])
        row._freeze()
        ch = Channel.__new__(Channel)
        ch._set(row, label)
        return ch

    def __len__(self) -> int:
        return self.superop.shape[0]

    @property
    def sigma1(self) -> np.ndarray:
        """Largest singular value of each superoperator."""
        return self.singular_values[:, 0]

    @property
    def lambda_phi(self) -> np.ndarray:
        """Trace norm of each superoperator (sum of its singular values)."""
        return self.singular_values.sum(axis=-1)

    @property
    def d1(self) -> np.ndarray:
        """Largest eigenvalue of each Choi matrix."""
        if not self.hermitian.all():
            raise ValidationError("Choi matrix is not Hermitian; no eigenvalue data")
        return self.choi_eigenvalues[:, 0]

    @property
    def tau1(self) -> np.ndarray:
        """Largest eigenvalue of each ``Phi(1/N)``."""
        return self.output_eigenvalues[:, 0]


def _choi_eigenvalues(sym: np.ndarray, kraus_vectors) -> np.ndarray:
    """Descending eigenvalues of each Hermitian ``sym[i]``; the maps of a
    ``(rows, X)`` pair with ``d < N^2`` Kraus vectors take them from ``X^dag X``
    (see :class:`ChannelStack`)."""
    size = sym.shape[-1]
    ascending = np.zeros(sym.shape[:2])
    full = np.ones(len(sym), dtype=bool)
    for rows, x in kraus_vectors:
        if x.shape[-1] < size:
            gram = x.conj().swapaxes(-1, -2) @ x
            ascending[rows, size - x.shape[-1] :] = np.linalg.eigvalsh(gram)
            full[rows] = False
    if full.any():
        ascending[full] = np.linalg.eigvalsh(sym[full])
    # a rank-deficient Gram can put roundoff below its padded zeros
    return np.ascontiguousarray(np.sort(ascending, axis=-1)[:, ::-1])


_SQRT_HALF = np.sqrt(0.5)


@functools.cache
def _hermitian_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major positions of the ``E_aa``, and of the ``E_ab`` and ``E_ba``
    with ``a < b``, in an ``N x N`` matrix."""
    a, b = np.triu_indices(n, 1)
    return np.arange(n) * (n + 1), a * n + b, b * n + a


def real_transfer(superop, dim: int) -> np.ndarray:
    """``Re(U^dag S U)`` for each superoperator ``S`` of a ``(B, N^2, N^2)`` stack.

    ``U`` has the orthonormal Hermitian basis ``E_aa``, ``(E_ab + E_ba)/sqrt 2``
    and ``i (E_ab - E_ba)/sqrt 2`` (``a < b``) as its columns, in that order,
    so ``U^dag S U`` has the singular values of ``S``.  It is real when the map
    preserves Hermiticity (its Choi matrix is Hermitian), and its real part is
    the transfer matrix of the map whose Choi matrix is ``(D + D^dag)/2``.
    ``U`` is applied by index arithmetic: a gather, an add and a scale per
    side, ``O(N^4)`` per map.
    """
    diag, upper, lower = _hermitian_basis(dim)
    s = np.asarray(superop)
    su, sl = s[..., upper], s[..., lower]
    cols = [s[..., diag], (su + sl) * _SQRT_HALF, (su - sl) * (1j * _SQRT_HALF)]
    cols = np.concatenate(cols, axis=-1)
    cu, cl = cols[..., upper, :], cols[..., lower, :]
    rows = [cols[..., diag, :].real, (cu.real + cl.real) * _SQRT_HALF]
    rows.append((cu.imag - cl.imag) * _SQRT_HALF)
    return np.concatenate(rows, axis=-2)


def _singular_values(superop: np.ndarray, hermitian: np.ndarray, dim: int) -> np.ndarray:
    """Descending singular values of each superoperator: a real ``svd`` of
    :func:`real_transfer` where ``hermitian`` holds, the complex one elsewhere."""
    if hermitian.all():
        return np.linalg.svd(real_transfer(superop, dim), compute_uv=False)
    values = np.empty(superop.shape[:2])
    values[hermitian] = np.linalg.svd(real_transfer(superop[hermitian], dim), compute_uv=False)
    values[~hermitian] = np.linalg.svd(superop[~hermitian], compute_uv=False)
    return values


def _stack_entry(name: str, cast=lambda value: value, doc: str | None = None) -> property:
    """A :class:`Channel` property: ``cast`` of entry 0 of its stack's ``name``."""
    return property(lambda ch: cast(getattr(ch.stack, name)[0]), doc=doc)


class Channel:
    """A linear map on N x N density matrices, stored as its N^2 x N^2 superoperator.

    The channel keeps its data in a one-map :class:`ChannelStack`, so a
    single channel and a batch go through the same validation and spectra.
    The Choi matrix and its eigenvalues (which drive the CP/TP validation),
    the singular values and the eigenvalues of the image of the maximally
    mixed state are computed at construction; the canonical Kraus set is
    derived afresh on each access.  Instances are immutable after
    ``__init__``: the stored arrays are marked read-only.

    Parameters
    ----------
    superop : array_like
        N^2 x N^2 matrix acting on row-major vectorized density matrices.
    dim : int, optional
        System dimension N; inferred from the matrix size when omitted.
    require_cptp : bool
        When True (default) a channel failing the CP or TP check raises
        :class:`ValidationError`.  When False the flags record the outcome
        and the object is still built, which is how non-physical maps are
        represented for negative controls.
    label : str, optional
        Free-form name used in reports and CSV rows.
    """

    __slots__ = ("stack", "label")

    def __init__(self, superop, dim=None, *, require_cptp=True, label=None):
        superop = as_complex_matrix(superop)
        self._set(ChannelStack(superop[None], dim, require_cptp=require_cptp), label)

    def _set(self, stack: ChannelStack, label) -> None:
        self.stack = stack
        self.label = label

    # -- data: each property reads this channel's entry of its stack -----

    @property
    def dim(self) -> int:
        return self.stack.dim

    superop = _stack_entry("superop")
    choi = _stack_entry("choi", doc="Dynamical matrix ``D = reshuffle(superop)``.")

    @property
    def choi_eigenvalues(self) -> np.ndarray | None:
        """Choi eigenvalues, descending; ``None`` when ``D`` is not Hermitian."""
        return self.stack.choi_eigenvalues[0] if self.stack.hermitian[0] else None

    choi_psd_tol = _stack_entry(
        "choi_psd_tol", float, "Negativity allowed in a Choi eigenvalue, ``PSD_RTOL * |D|_2``."
    )
    cp, tp, unital, interval = (
        _stack_entry(name, bool) for name in ("cp", "tp", "unital", "interval")
    )
    singular_values = _stack_entry(
        "singular_values", doc="Singular values of the superoperator, descending."
    )
    sigma1 = _stack_entry("sigma1", float, "Largest singular value of the superoperator.")
    lambda_phi = _stack_entry(
        "lambda_phi", float, "Trace norm of the superoperator (sum of its singular values)."
    )
    d1 = _stack_entry("d1", float, "Largest eigenvalue of the Choi matrix.")
    output_state = _stack_entry(
        "output_state", doc="Image of the maximally mixed state, ``Phi(1/N)``."
    )
    output_eigenvalues = _stack_entry(
        "output_eigenvalues", doc="Eigenvalues of ``Phi(1/N)``, descending."
    )
    tau1 = _stack_entry("tau1", float, "Largest eigenvalue of ``Phi(1/N)``.")

    @property
    def kraus(self) -> list[np.ndarray]:
        """Canonical Kraus set from the Choi eigendecomposition, a new list each time."""
        return choi_to_kraus(self.choi, dim=self.dim)

    # -- actions ----------------------------------------------------------

    def apply(self, rho) -> np.ndarray:
        """Apply the channel to a density matrix and return the output state."""
        rho = check_state(rho, self.dim)
        return (self.superop @ rho.reshape(-1)).reshape(self.dim, self.dim)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.label or "channel"
        return f"<Channel {name!r} dim={self.dim} cp={self.cp} tp={self.tp} unital={self.unital}>"


def _check_kraus(ops) -> tuple[np.ndarray, int, int]:
    """Stack a Kraus set into its isometry ``V`` (the layout of
    :func:`isometry_superops`) and check ``V^dag V = sum_i A_i^dag A_i = 1``;
    returns ``(V, N, k)``."""
    mats = [as_complex_matrix(a) for a in ops]
    if not mats:
        raise ValidationError("a Kraus set must contain at least one operator")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValidationError(
                f"Kraus operators must share one square shape; got {a.shape} after {(n, n)}"
            )
    v = np.stack(mats, axis=1).reshape(n * len(mats), n)
    _check_isometry(v, "stacked Kraus set")
    return v, n, len(mats)


def from_kraus(ops, *, label=None) -> Channel:
    """Build a channel from Kraus operators ``{A_i}`` through their stacked
    isometry; the superoperator is ``sum_i kron(A_i, conj(A_i))``."""
    v, n, k = _check_kraus(ops)
    return _isometry_channel(v, n, k, label)


def from_superoperator(m, dim=None, *, permissive=False, label=None) -> Channel:
    """Build a channel from its superoperator matrix.

    With ``permissive=True`` the CP/TP checks are recorded in the flags
    instead of raised, which lets tests represent arbitrary linear maps.
    """
    return Channel(m, dim, require_cptp=not permissive, label=label)


def from_choi(d, dim=None, *, permissive=False, label=None) -> Channel:
    """Build a channel from its dynamical (Choi) matrix ``D = N * omega``."""
    return Channel(reshuffle(d, dim), dim, require_cptp=not permissive, label=label)


def choi_to_kraus(choi, dim: int | None = None) -> list[np.ndarray]:
    """Canonical Kraus set of a CP map from its Choi eigendecomposition.

    Eigenvalues below ``SPECTRUM_ZERO_RTOL`` times the largest, which the
    map entropy counts as zeros, are dropped, so the returned list has
    between 1 and N^2 operators ordered by decreasing weight ``tr A_i^dag A_i``.
    """
    choi = as_complex_matrix(choi)
    n = _square_side(choi, dim)
    sym, ok, dev, scale = hermitian_part(choi)
    if not ok:
        raise ValidationError(f"Choi matrix is not Hermitian: |D - D^dag|_2 = {dev:.3e}")
    w, v = np.linalg.eigh(sym)
    if w[0] < -PSD_RTOL * scale:
        raise ValidationError(
            f"Choi matrix is not positive semidefinite: eigenvalue {w[0]:.3e} "
            f"below -{PSD_RTOL * scale:.3e}"
        )
    cutoff = SPECTRUM_ZERO_RTOL * w[-1]
    ops = []
    for i in range(w.size - 1, -1, -1):
        if w[i] > cutoff:
            ops.append(np.sqrt(w[i]) * v[:, i].reshape(n, n))
    if not ops:
        raise ValidationError("Choi matrix has no eigenvalue above the rank cutoff")
    return ops


def from_environment(u, dim: int, env_dim: int, *, label=None) -> Channel:
    """Channel from a unitary on system x environment with the environment
    prepared in the first basis state and traced out afterwards.

    ``u`` must be an ``N*d x N*d`` unitary; only its columns ``a' * d`` act
    on that state, and :func:`from_isometry` builds the channel from them.
    """
    u = as_complex_matrix(u)
    if u.shape != (dim * env_dim, dim * env_dim):
        raise ValueError(
            f"expected a {dim * env_dim}x{dim * env_dim} unitary, got {u.shape}"
        )
    _check_isometry(u, "matrix")
    return from_isometry(u[:, ::env_dim], dim, env_dim, label=label)


def from_isometry(v, dim: int, env_dim: int, *, label=None) -> Channel:
    """Channel from a Stinespring isometry ``V`` from the system into
    system x environment, with the environment traced out afterwards.

    ``v`` must be an ``N*d x N`` isometry (``V^dag V = 1_N``) laid out as
    in :func:`isometry_superops`.
    """
    v = as_complex_matrix(v)
    if v.shape != (dim * env_dim, dim):
        raise ValueError(f"expected a {dim * env_dim}x{dim} isometry, got {v.shape}")
    _check_isometry(v, "matrix")
    return _isometry_channel(v, dim, env_dim, label)


def _isometry_channel(v: np.ndarray, dim: int, env_dim: int, label) -> Channel:
    """The channel of one checked Stinespring isometry ``V``, whose Choi
    spectrum comes from its Kraus vectors (see :class:`ChannelStack`)."""
    superop, x = _stinespring(v[None], dim, env_dim)
    return ChannelStack(superop, dim, kraus_vectors=[([0], x)]).channel(label=label)


def _check_isometry(v: np.ndarray, what: str, *, index=None) -> None:
    """Raise :class:`ValidationError` unless ``|V^dag V - 1|_2 <= UNITARY_TOL``
    holds for the matrix ``v``, or for each matrix of a ``(B, m, k)`` stack,
    where the first failure is named as channel ``index[i]`` (by default
    ``i``) when ``B > 1``.  ``what`` names the matrix in the message."""
    gram = v.swapaxes(-1, -2).conj() @ v
    dev = np.linalg.norm(gram - np.eye(v.shape[-1]), axis=(-2, -1))
    i = first_failure(dev <= UNITARY_TOL)
    if i is not None:
        where = _channel_name(i, index, len(v)) if v.ndim == 3 else ""
        raise ValidationError(
            f"{where}{what} is not an isometry: |V^dag V - 1|_2 = {dev.flat[i]:.3e} "
            f"(tolerance {UNITARY_TOL:.1e})"
        )


def isometry_superops(v, dim: int, env_dim: int, *, index=None) -> np.ndarray:
    """Superoperators of a ``(B, N*d, N)`` stack of Stinespring isometries.

    Row ``a*d + i`` of ``V`` is row ``a`` of the Kraus operator ``A_i``,
    ``V[a*d + i, a'] = A_i[a, a']``, so ``V^dag V = sum_i A_i^dag A_i``.
    With ``X[(a, a'), i] = V[a*d + i, a']``, the ``N^2 x d`` matrix whose
    columns are the ``vec(A_i)``, the dynamical matrix is the Gram product
    ``D = X X^dag``, one batched matmul, and its :func:`reshuffle` is the
    superoperator ``sum_i kron(A_i, conj(A_i))``.  Each ``V`` must satisfy
    ``|V^dag V - 1_N|_2 <= UNITARY_TOL``, a stricter test than the channel's
    own trace-preservation check; for ``B > 1`` the first failure is named as
    channel ``index[i]`` (by default ``i``).
    """
    v = np.asarray(v, dtype=complex)
    _check_isometry(v, "matrix", index=index)
    return _stinespring(v, dim, env_dim)[0]


def _stinespring(v: np.ndarray, dim: int, env_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`isometry_superops` without the isometry check, and the
    ``(B, N^2, d)`` Kraus vectors ``X`` it forms them from."""
    x = v.reshape(len(v), dim, env_dim, dim).swapaxes(2, 3).reshape(len(v), -1, env_dim)
    return reshuffle(x @ x.conj().swapaxes(1, 2), dim), x


def remix_kraus(ops, v) -> list[np.ndarray]:
    """Mix a Kraus set by an isometry: ``A'_j = sum_i V[j, i] A_i``.

    ``V`` must satisfy ``V^dag V = 1`` on the original index, which leaves the
    channel itself (its superoperator) unchanged while reshuffling how it is
    unraveled into operators.
    """
    stacked, n, k = _check_kraus(ops)
    v = as_complex_matrix(v)
    if v.shape[1] != k:
        raise ValidationError(f"remix matrix must have {k} columns, got shape {v.shape}")
    _check_isometry(v, "remix matrix")
    return list(np.einsum("ji,kil->jkl", v, stacked.reshape(n, k, n)))
