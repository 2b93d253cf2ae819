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

import numpy as np

from .matcore import HERM_TOL, as_complex_matrix, hermitian_eigenvalues, reshuffle

# Trace-preservation tolerance on |sum A^dag A - 1|_2 and on Choi marginals.
TP_TOL = 1e-9
# Complete positivity: Choi eigenvalues above -PSD_RTOL * |D|_2 count as >= 0.
PSD_RTOL = 1e-9
# Choi eigenvalues below KRAUS_RTOL * lambda_max are dropped by choi_to_kraus.
KRAUS_RTOL = 1e-12
# Unitarity / isometry tolerance on |V^dag V - 1|_2.
UNITARY_TOL = 1e-10
# Density-matrix checks: |tr(rho) - 1| and eigenvalue negativity allowance.
STATE_TOL = 1e-9


class ValidationError(ValueError):
    """A matrix fails the physical-consistency checks for its intended role."""


def _vec(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape(n, n)


def _trace_first(m4: np.ndarray) -> np.ndarray:
    # m4 has axes (a_row, b_row, a_col, b_col); trace out the first factor.
    return np.einsum("klkn->ln", m4)


def _trace_second(m4: np.ndarray) -> np.ndarray:
    return np.einsum("klml->km", m4)


def check_state(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, PSD) and return it."""
    rho = as_complex_matrix(rho)
    n = rho.shape[0]
    if rho.shape[0] != rho.shape[1] or (dim is not None and n != dim):
        raise ValidationError(
            f"expected a {dim or rho.shape[0]}x{dim or rho.shape[0]} state, got {rho.shape}"
        )
    dev = np.linalg.norm(rho - rho.conj().T)
    if dev > HERM_TOL * max(np.linalg.norm(rho), 1e-300):
        raise ValidationError(f"state is not Hermitian: |rho - rho^dag|_2 = {dev:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > STATE_TOL:
        raise ValidationError(f"state trace is {tr:.12g}, expected 1 within {STATE_TOL:.1e}")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if low < -STATE_TOL:
        raise ValidationError(f"state has a negative eigenvalue {low:.3e}")
    return rho


class Channel:
    """A linear map on N x N density matrices, stored as its N^2 x N^2 superoperator.

    The Choi matrix and its eigenvalues are computed at construction (they
    drive the CP/TP validation); singular values, the canonical Kraus set,
    and the image of the maximally mixed state are derived on first access
    and cached.  Instances are immutable after ``__init__`` — the stored
    arrays are marked read-only — so sharing a channel between threads that
    only read from it is safe.

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
    meta : dict, optional
        Extra structured facts about the construction (e.g. family
        parameters).  Stored as-is.
    """

    __slots__ = (
        "dim",
        "superop",
        "choi",
        "choi_eigenvalues",
        "choi_psd_tol",
        "cp",
        "tp",
        "unital",
        "label",
        "meta",
        "_singular_values",
        "_kraus",
        "_output_state",
        "_output_eigenvalues",
    )

    def __init__(self, superop, dim=None, *, require_cptp=True, label=None, meta=None):
        superop = as_complex_matrix(superop)
        rows, cols = superop.shape
        if rows != cols:
            raise ValueError(f"superoperator must be square, got {rows}x{cols}")
        n = int(round(rows**0.5)) if dim is None else int(dim)
        if n * n != rows:
            raise ValueError(f"superoperator size {rows} is not a square of the dimension")
        self.dim = n
        self.superop = superop.copy()
        self.choi = reshuffle(self.superop, n)

        herm_dev = np.linalg.norm(self.choi - self.choi.conj().T)
        choi_scale = np.linalg.norm(self.choi)
        self.choi_psd_tol = PSD_RTOL * choi_scale
        if herm_dev > HERM_TOL * max(choi_scale, 1e-300):
            if require_cptp:
                raise ValidationError(
                    f"Choi matrix is not Hermitian: |D - D^dag|_2 = {herm_dev:.3e} "
                    f"(tolerance {HERM_TOL:.1e} * |D|_2 = {HERM_TOL * choi_scale:.3e})"
                )
            self.choi_eigenvalues = None
            self.cp = False
        else:
            sym = (self.choi + self.choi.conj().T) / 2.0
            self.choi_eigenvalues = np.linalg.eigvalsh(sym)[::-1]
            self.choi_eigenvalues.setflags(write=False)
            self.cp = bool(self.choi_eigenvalues[-1] >= -self.choi_psd_tol)

        choi4 = self.choi.reshape(n, n, n, n)
        marginal_dev = np.linalg.norm(_trace_first(choi4) / n - np.eye(n) / n)
        trace_dev = abs(self.choi.trace() - n)
        self.tp = bool(marginal_dev <= TP_TOL and trace_dev <= TP_TOL)

        mixed = _vec(np.eye(n, dtype=complex) / n)
        self.unital = bool(np.linalg.norm(self.superop @ mixed - mixed) <= TP_TOL)

        if require_cptp and not (self.cp and self.tp):
            parts = []
            if not self.cp:
                low = self.choi_eigenvalues[-1] if self.choi_eigenvalues is not None else None
                parts.append(
                    f"CP fails: smallest Choi eigenvalue {low:.3e} < -{self.choi_psd_tol:.3e}"
                )
            if not self.tp:
                parts.append(
                    f"TP fails: |tr_A omega - 1/N|_2 = {marginal_dev:.3e}, "
                    f"|tr D - N| = {trace_dev:.3e} (tolerance {TP_TOL:.1e})"
                )
            raise ValidationError("; ".join(parts))

        self.label = label
        self.meta = dict(meta) if meta else {}
        self.superop.setflags(write=False)
        self.choi.setflags(write=False)
        self._singular_values = None
        self._kraus = None
        self._output_state = None
        self._output_eigenvalues = None

    # -- derived data ---------------------------------------------------

    @property
    def singular_values(self) -> np.ndarray:
        """Singular values of the superoperator, descending."""
        if self._singular_values is None:
            s = np.linalg.svd(self.superop, compute_uv=False)
            s.setflags(write=False)
            self._singular_values = s
        return self._singular_values

    @property
    def sigma1(self) -> float:
        """Largest singular value of the superoperator."""
        return float(self.singular_values[0])

    @property
    def lambda_phi(self) -> float:
        """Trace norm of the superoperator (sum of its singular values)."""
        return float(self.singular_values.sum())

    @property
    def d1(self) -> float:
        """Largest eigenvalue of the Choi matrix."""
        if self.choi_eigenvalues is None:
            raise ValidationError("Choi matrix is not Hermitian; no eigenvalue data")
        return float(self.choi_eigenvalues[0])

    @property
    def kraus(self) -> list[np.ndarray]:
        """Canonical Kraus set from the Choi eigendecomposition (cached)."""
        if self._kraus is None:
            self._kraus = choi_to_kraus(self.choi, dim=self.dim)
        return self._kraus

    @property
    def output_state(self) -> np.ndarray:
        """Image of the maximally mixed state, ``Phi(1/N)``."""
        if self._output_state is None:
            n = self.dim
            out = _unvec(self.superop @ _vec(np.eye(n, dtype=complex) / n), n)
            out = (out + out.conj().T) / 2.0
            out.setflags(write=False)
            self._output_state = out
        return self._output_state

    @property
    def output_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``Phi(1/N)``, descending."""
        if self._output_eigenvalues is None:
            w = hermitian_eigenvalues(self.output_state, herm_tol=1e-8)
            w.setflags(write=False)
            self._output_eigenvalues = w
        return self._output_eigenvalues

    @property
    def tau1(self) -> float:
        """Largest eigenvalue of ``Phi(1/N)``."""
        return float(self.output_eigenvalues[0])

    # -- actions ----------------------------------------------------------

    def apply(self, rho) -> np.ndarray:
        """Apply the channel to a density matrix and return the output state."""
        rho = check_state(rho, self.dim)
        return _unvec(self.superop @ _vec(rho), self.dim)

    def output_of_maximally_mixed(self) -> np.ndarray:
        """Return ``Phi(1/N)``; its largest eigenvalue is :attr:`tau1`."""
        return self.output_state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.label or "channel"
        return f"<Channel {name!r} dim={self.dim} cp={self.cp} tp={self.tp} unital={self.unital}>"


def _check_kraus(ops) -> tuple[np.ndarray, int]:
    """Stack and validate a Kraus set; returns ``(array (k, N, N), N)``."""
    mats = [as_complex_matrix(a) for a in ops]
    if not mats:
        raise ValidationError("a Kraus set must contain at least one operator")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValidationError(
                f"Kraus operators must share one square shape; got {a.shape} after {(n, n)}"
            )
    stack = np.array(mats)
    resolution = np.einsum("ikl,ikm->lm", stack.conj(), stack)
    dev = np.linalg.norm(resolution - np.eye(n))
    if dev > TP_TOL:
        raise ValidationError(
            f"Kraus set is not trace preserving: |sum A^dag A - 1|_2 = {dev:.3e} "
            f"(tolerance {TP_TOL:.1e})"
        )
    return stack, n


def from_kraus(ops, *, label=None, meta=None) -> Channel:
    """Build a channel from Kraus operators ``{A_i}``.

    The superoperator is ``sum_i kron(A_i, conj(A_i))``; its reshuffle equals
    ``sum_i vec(A_i) vec(A_i)^dag`` entry by entry, so the stored Choi matrix
    is automatically consistent with the Kraus data.
    """
    stack, n = _check_kraus(ops)
    d = n * n
    superop = np.einsum("ikm,iln->klmn", stack, stack.conj()).reshape(d, d)
    return Channel(superop, n, label=label, meta=meta)


def from_superoperator(m, dim=None, *, permissive=False, label=None, meta=None) -> Channel:
    """Build a channel from its superoperator matrix.

    With ``permissive=True`` the CP/TP checks are recorded in the flags
    instead of raised, which lets tests represent arbitrary linear maps.
    """
    return Channel(m, dim, require_cptp=not permissive, label=label, meta=meta)


def from_choi(d, dim=None, *, permissive=False, label=None, meta=None) -> Channel:
    """Build a channel from its dynamical (Choi) matrix ``D = N * omega``."""
    d = as_complex_matrix(d)
    n = int(round(d.shape[0] ** 0.5)) if dim is None else int(dim)
    return Channel(reshuffle(d, n), n, require_cptp=not permissive, label=label, meta=meta)


def choi_to_kraus(choi, dim: int | None = None) -> list[np.ndarray]:
    """Canonical Kraus set of a CP map from its Choi eigendecomposition.

    Eigenvalues below ``KRAUS_RTOL`` times the largest are dropped, so the
    returned list has between 1 and N^2 operators ordered by decreasing
    weight ``tr A_i^dag A_i``.
    """
    choi = as_complex_matrix(choi)
    n = int(round(choi.shape[0] ** 0.5)) if dim is None else int(dim)
    if n * n != choi.shape[0] or choi.shape[0] != choi.shape[1]:
        raise ValueError(f"Choi matrix of shape {choi.shape} does not match dimension {n}")
    scale = np.linalg.norm(choi)
    dev = np.linalg.norm(choi - choi.conj().T)
    if dev > HERM_TOL * max(scale, 1e-300):
        raise ValidationError(f"Choi matrix is not Hermitian: |D - D^dag|_2 = {dev:.3e}")
    w, v = np.linalg.eigh((choi + choi.conj().T) / 2.0)
    if w[0] < -PSD_RTOL * scale:
        raise ValidationError(
            f"Choi matrix is not positive semidefinite: eigenvalue {w[0]:.3e} "
            f"below -{PSD_RTOL * scale:.3e}"
        )
    cutoff = KRAUS_RTOL * w[-1]
    ops = []
    for i in range(w.size - 1, -1, -1):
        if w[i] > cutoff:
            ops.append(np.sqrt(w[i]) * v[:, i].reshape(n, n))
    if not ops:
        raise ValidationError("Choi matrix has no eigenvalue above the rank cutoff")
    return ops


def from_environment(u, dim: int, env_dim: int, *, label=None, meta=None) -> Channel:
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
    dev = np.linalg.norm(u.conj().T @ u - np.eye(dim * env_dim))
    if dev > UNITARY_TOL:
        raise ValidationError(
            f"matrix is not unitary: |U^dag U - 1|_2 = {dev:.3e} (tolerance {UNITARY_TOL:.1e})"
        )
    return from_isometry(u[:, ::env_dim], dim, env_dim, label=label, meta=meta)


def from_isometry(v, dim: int, env_dim: int, *, label=None, meta=None) -> Channel:
    """Channel from a Stinespring isometry ``V`` from the system into
    system x environment, with the environment traced out afterwards.

    ``v`` must be an ``N*d x N`` isometry (``V^dag V = 1_N``); the Kraus
    operators are the blocks ``(A_i)[a, a'] = v[a*d + i, a']`` for
    ``i = 0 .. d-1``.
    """
    v = as_complex_matrix(v)
    if v.shape != (dim * env_dim, dim):
        raise ValueError(f"expected a {dim * env_dim}x{dim} isometry, got {v.shape}")
    dev = np.linalg.norm(v.conj().T @ v - np.eye(dim))
    if dev > UNITARY_TOL:
        raise ValidationError(
            f"matrix is not an isometry: |V^dag V - 1|_2 = {dev:.3e} (tolerance {UNITARY_TOL:.1e})"
        )
    ops = np.transpose(v.reshape(dim, env_dim, dim), (1, 0, 2))
    return from_kraus(ops, label=label, meta=meta)


def remix_kraus(ops, v) -> list[np.ndarray]:
    """Mix a Kraus set by an isometry: ``A'_j = sum_i V[j, i] A_i``.

    ``V`` must satisfy ``V^dag V = 1`` on the original index, which leaves the
    channel itself (its superoperator) unchanged while reshuffling how it is
    unraveled into operators.
    """
    stack, _ = _check_kraus(ops)
    v = as_complex_matrix(v)
    if v.ndim != 2 or v.shape[1] != stack.shape[0]:
        raise ValidationError(
            f"remix matrix must have {stack.shape[0]} columns, got shape {v.shape}"
        )
    dev = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]))
    if dev > UNITARY_TOL:
        raise ValidationError(
            f"remix matrix is not an isometry: |V^dag V - 1|_2 = {dev:.3e}"
        )
    return list(np.einsum("ji,ikl->jkl", v, stack))
