"""Entanglement analysis of the rescaled Choi state ``omega = D/N``.

A channel is entanglement breaking exactly when ``omega`` is separable.
This module provides the realignment test, the partial-transpose test, the
three entropic criteria that separability forces, and a region classifier
for the entropy plane:

* region ``A``: at least one entropic criterion violated — ``omega`` is
  certifiably entangled, the channel is not entanglement breaking (a
  criterion that raised, and so has a nan slack, certifies nothing);
* region ``B``: no certificate either way;
* region ``C`` (``N = 2`` only): partial transpose is positive, which for a
  two-qubit state is equivalent to separability;
* ``indeterminate``: ``N >= 3`` with positive partial transpose, where the
  test is only necessary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    CHECK_TOL,
    TABLE,
    BoundRecord,
    json_safe,
    table_columns,
    table_records,
)
from .channels import Channel, ChannelStack
from .matcore import _square_side, renyi_order

PPT_RTOL = 1e-9
REALIGNMENT_TOL = 1e-9

# Smallest N at which the lazy PPT path first tries the Cholesky certificate
# of :func:`npt_certified`.  Per undecided random_cptp row (2-core x86, one
# BLAS thread) the Cholesky loop against the batched eigvalsh took 7.9 against
# 8.1 us at N = 3, 9.6 against 28 us at N = 4 and 62 against 350 us at N = 8;
# at N = 2 the 4 x 4 eigvalsh is cheaper than the loop.
CHOLESKY_MIN_DIM = 4

# Table rows of the entropic separability criteria, in report order.
CRITERIA = tuple(b for b in TABLE if b.separable)


def partial_transpose(m, block=None) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite matrix, or of each
    matrix in a stack (the last two axes).

    For ``m`` acting on C^n (x) C^n with entries ``m[(k,l),(m,n)]`` the
    result has entries ``m[(k,n),(m,l)]``.
    """
    m = np.asarray(m, dtype=complex)
    n = _square_side(m, block)
    d = n * n
    lead = m.shape[:-2]
    blocks = m.reshape(lead + (n, n, n, n))
    axes = tuple(range(len(lead)))
    k = len(lead)
    return blocks.transpose(axes + (k, k + 3, k + 2, k + 1)).reshape(lead + (d, d))


def _omega_pt(stack: ChannelStack, rows) -> np.ndarray:
    """Hermitian part of each partially transposed ``omega`` of ``rows``."""
    if not stack.hermitian[rows].all():
        raise ValueError("partial-transpose test needs a Hermitian Choi matrix")
    # Partial transposition permutes entries and commutes with the adjoint,
    # so |PT(D) - PT(D)^dag|_2 = |D - D^dag|_2 and the Hermiticity checked at
    # construction carries over; only the roundoff is symmetrized away.
    pt = partial_transpose(stack.choi[rows] / stack.dim, block=stack.dim)
    return (pt + pt.swapaxes(-1, -2).conj()) / 2.0


def _ppt_spectrum(pt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ppt_stack's rule on the output of _omega_pt
    eigs = np.linalg.eigvalsh(pt)
    min_eig = eigs[:, 0]
    scale = np.maximum(np.maximum(np.abs(eigs[:, -1]), np.abs(min_eig)), 1e-300)
    return min_eig, min_eig >= -PPT_RTOL * scale


def ppt_stack(stack: ChannelStack, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of each partially transposed ``omega`` and
    whether it is nonnegative up to ``PPT_RTOL`` times the spectral scale;
    ``rows`` (an index array or slice) selects the maps to test."""
    return _ppt_spectrum(_omega_pt(stack, rows))


def npt_certified(pt: np.ndarray) -> np.ndarray:
    """Whether each Hermitian ``pt[i]`` is certainly not PPT by the rule of
    :func:`ppt_stack`, from one Cholesky factorization per matrix.

    ``pt + c 1`` with ``c = 2 PPT_RTOL |pt|_F`` is factored.  If the smallest
    eigenvalue passes the rule, ``lambda_min >= -PPT_RTOL |pt|_2`` with
    ``|pt|_2 <= |pt|_F``, so the shifted matrix has every eigenvalue at least
    ``PPT_RTOL |pt|_F``, some 10^5 times the factorization's roundoff of about
    ``n eps |pt|_2``, and the factorization succeeds.  A failure therefore
    certifies ``lambda_min < -PPT_RTOL |pt|_2``.  A success decides nothing:
    such a matrix needs its spectrum.
    """
    shift = 2.0 * PPT_RTOL * np.maximum(np.linalg.norm(pt, axis=(-2, -1)), 1e-300)
    shifted = pt + shift[:, None, None] * np.eye(pt.shape[-1])
    npt = np.zeros(len(pt), dtype=bool)
    for i, m in enumerate(shifted):  # a stacked cholesky fails as a whole
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            npt[i] = True
    return npt


def _lazy_ppt(stack: ChannelStack, rows: np.ndarray) -> np.ndarray:
    """PPT flags of ``rows``, as :func:`ppt_stack` gives them; from
    ``CHOLESKY_MIN_DIM`` on, rows that :func:`npt_certified` settles skip the
    eigenvalues."""
    pt = _omega_pt(stack, rows)
    if stack.dim < CHOLESKY_MIN_DIM:
        return _ppt_spectrum(pt)[1]
    ppt = np.zeros(len(rows), dtype=bool)
    open_rows = ~npt_certified(pt)
    if open_rows.any():
        ppt[open_rows] = _ppt_spectrum(pt[open_rows])[1]
    return ppt


def ppt_test(ch: Channel) -> tuple[float, bool]:
    """Smallest eigenvalue of the partially transposed ``omega`` and whether
    it is nonnegative (up to a relative tolerance).

    For ``N = 2`` positivity is equivalent to separability of ``omega``;
    for larger dimensions it is only a necessary condition.
    """
    min_eig, ppt = ppt_stack(ch.stack)
    return float(min_eig[0]), bool(ppt[0])


def realignment_stack(stack: ChannelStack) -> tuple[np.ndarray, np.ndarray]:
    """Trace norm of each reshuffled ``omega``, i.e. ``L/N``, and its margin
    ``1 + REALIGNMENT_TOL - L/N`` to the realignment threshold.

    Separability of ``omega`` forces the value to be at most 1, so a
    negative margin certifies entanglement.  The converse fails: values at
    or below 1 prove nothing.
    """
    value = stack.lambda_phi / stack.dim
    return value, 1.0 + REALIGNMENT_TOL - value


def realignment_test(ch: Channel) -> tuple[float, bool]:
    """:func:`realignment_stack` of one channel: ``L/N`` and whether its
    margin certifies entanglement."""
    value, margin = realignment_stack(ch.stack)
    return float(value[0]), bool(margin[0] < 0.0)


def separable_criteria(ch: Channel, q) -> list[BoundRecord]:
    """Three inequalities every entanglement-breaking channel satisfies.

    They follow from inserting ``L <= N`` (the realignment consequence of a
    separable ``omega``) into the entropy bounds, so violating any one of
    them certifies entanglement.  Requires ``q >= 1``; a criterion that
    raises gives its ``<id>_error`` record, as :func:`bounds.record` does.
    """
    q = renyi_order(q, minimum=1.0)
    return table_records(CRITERIA, table_columns(ch.stack, q, CRITERIA))


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Everything the separability tests say about one channel."""

    realignment_value: float
    realignment_pass: bool
    ppt_min_eigenvalue: float
    ppt_pass: bool
    region: str
    criteria: tuple[BoundRecord, ...]

    def to_dict(self) -> dict:
        return json_safe(asdict(self))


def verdict_columns(stack: ChannelStack, q, ppt=None):
    """``(criteria, regions)`` of a stack at Rényi order ``q >= 1``: the
    :func:`bounds.table_columns` of :data:`CRITERIA` and the region rule of the
    module docstring.

    PPT decides the region only of a map that no criterion puts in region
    A, so the partial transpose is taken of those maps alone, unless
    ``ppt``, the :func:`ppt_stack` flags of every map, is given.  From
    ``N = CHOLESKY_MIN_DIM`` on, a map that :func:`npt_certified` settles
    takes no eigenvalues; the flags, and so the regions, are those of
    :func:`ppt_stack` either way.
    """
    renyi_order(q, minimum=1.0)
    criteria = table_columns(stack, q, CRITERIA)
    violated = (criteria[2] < -CHECK_TOL).any(axis=1)
    if ppt is None:
        ppt = np.zeros(len(stack), dtype=bool)
        undecided = np.flatnonzero(~violated)
        if undecided.size:
            ppt[undecided] = _lazy_ppt(stack, undecided)
    certified = "C" if stack.dim == 2 else "indeterminate"
    return criteria, np.where(violated, "A", np.where(ppt, certified, "B"))


def classify_regions(stack: ChannelStack, q) -> np.ndarray:
    """Entropy-plane region (see the module docstring) of every channel of
    a stack at Rényi order ``q``."""
    return verdict_columns(stack, q)[1]


def classify_region(ch: Channel, q, ppt=None) -> SeparabilityVerdict:
    """Entropy-plane region of the channel at Rényi order ``q``; see
    :func:`classify_regions`.  ``ppt``, the channel's :func:`ppt_stack`
    pair, saves taking it again when several orders are classified."""
    renyi_order(q, minimum=1.0)
    min_eig, ppt = ppt_stack(ch.stack) if ppt is None else ppt
    criteria, regions = verdict_columns(ch.stack, q, ppt)
    value, certified = realignment_test(ch)
    return SeparabilityVerdict(
        realignment_value=value,
        realignment_pass=not certified,
        ppt_min_eigenvalue=float(min_eig[0]),
        ppt_pass=bool(ppt[0]),
        region=str(regions[0]),
        criteria=tuple(table_records(CRITERIA, criteria)),
    )
