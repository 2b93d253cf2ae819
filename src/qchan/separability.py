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


def ppt_stack(stack: ChannelStack) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of each partially transposed ``omega`` and
    whether it is nonnegative up to ``PPT_RTOL`` times the spectral scale."""
    if not stack.hermitian.all():
        raise ValueError("partial-transpose test needs a Hermitian Choi matrix")
    # Partial transposition permutes entries and commutes with the adjoint,
    # so |PT(D) - PT(D)^dag|_2 = |D - D^dag|_2 and the Hermiticity checked at
    # construction carries over; only the roundoff is symmetrized away.
    pt = partial_transpose(stack.choi / stack.dim, block=stack.dim)
    eigs = np.linalg.eigvalsh((pt + pt.swapaxes(-1, -2).conj()) / 2.0)
    min_eig = eigs[:, 0]
    scale = np.maximum(np.maximum(np.abs(eigs[:, -1]), np.abs(min_eig)), 1e-300)
    return min_eig, min_eig >= -PPT_RTOL * scale


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


def verdict_columns(stack: ChannelStack, q):
    """``(criteria, min_eig, ppt, regions)`` of a stack at Rényi order ``q >= 1``:
    the :func:`bounds.table_columns` of :data:`CRITERIA`, :func:`ppt_stack`,
    and the region rule of the module docstring.
    """
    renyi_order(q, minimum=1.0)
    criteria = table_columns(stack, q, CRITERIA)
    violated = (criteria[2] < -CHECK_TOL).any(axis=1)
    min_eig, ppt = ppt_stack(stack)
    certified = "C" if stack.dim == 2 else "indeterminate"
    regions = np.where(violated, "A", np.where(ppt, certified, "B"))
    return criteria, min_eig, ppt, regions


def classify_regions(stack: ChannelStack, q) -> np.ndarray:
    """Entropy-plane region (see the module docstring) of every channel of
    a stack at Rényi order ``q``."""
    return verdict_columns(stack, q)[3]


def classify_region(ch: Channel, q) -> SeparabilityVerdict:
    """Entropy-plane region of the channel at Rényi order ``q``; see
    :func:`classify_regions`."""
    criteria, min_eig, ppt, regions = verdict_columns(ch.stack, q)
    value, certified = realignment_test(ch)
    return SeparabilityVerdict(
        realignment_value=value,
        realignment_pass=not certified,
        ppt_min_eigenvalue=float(min_eig[0]),
        ppt_pass=bool(ppt[0]),
        region=str(regions[0]),
        criteria=tuple(table_records(CRITERIA, criteria)),
    )
