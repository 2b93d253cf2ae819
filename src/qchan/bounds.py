"""Entropic trade-off bounds between the map and receiver entropies.

Every check produces a :class:`BoundRecord` with a signed slack: positive
slack means the inequality holds with room to spare, slack ``>= -CHECK_TOL``
counts as satisfied.  :func:`evaluate_all` collects every bound applicable to
a channel at a given Rényi order into a :class:`BoundReport`; :func:`record`
evaluates one row of :data:`TABLE` by id.

The single-letter symbols used in the formula strings are ``N`` (system
dimension), ``L`` (trace norm of the superoperator), ``s1`` (its largest
singular value), ``d1`` (largest Choi eigenvalue), and ``t1`` (largest
eigenvalue of ``Phi(1/N)``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .channels import TP_TOL, Channel, ChannelStack, ValidationError
from .entropy import DIAGNOSTICS, Q_ONE_WINDOW, _renyi, entropies, spectrum_probabilities
from .matcore import as_complex_matrix, first_failure, renyi_order, reorder
from .zoo import rng_stream

# Bound satisfaction margin: slack >= -CHECK_TOL counts as satisfied.
CHECK_TOL = 1e-8


def q_ratio(q) -> float:
    """``q/(q-1)`` with the limits ``inf`` at ``q = 1`` and 1 at ``q = inf``."""
    q = renyi_order(q, minimum=1.0)
    if math.isinf(q):
        return 1.0
    if q == 1.0:
        return math.inf
    return q / (q - 1.0)


def f_min(q) -> float:
    """``min(q/(q-1), 2)`` with the limits 2 at ``q = 1`` and 1 at ``q = inf``."""
    return min(q_ratio(q), 2.0)


def f_max(q) -> float:
    """``max(q/(q-1), 2)``; diverges at ``q = 1``, where upper bounds drop out."""
    return max(q_ratio(q), 2.0)


def g_min(q) -> float:
    """``min(q/(2(q-1)), 2(q-1)/q)``: 0 at ``q = 1``, 1 at ``q = 2``, 1/2 at ``inf``."""
    r = q_ratio(q)
    return min(r / 2.0, 2.0 / r)


@dataclass(frozen=True)
class BoundRecord:
    """One evaluated inequality (or equality) with its signed slack."""

    id: str
    lhs: float
    rhs: float
    relation: str  # "<=", ">=" or "=="
    slack: float
    satisfied: bool
    citation: str


def _slack(lhs, rhs, relation: str):
    if relation == "<=":
        slack = rhs - lhs
    elif relation == ">=":
        slack = lhs - rhs
    elif relation == "==":
        slack = -np.abs(lhs - rhs)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return slack + 0.0  # +0.0 folds -0.0 into 0.0


def _record(rid: str, lhs, rhs, relation: str, citation: str, slack=None) -> BoundRecord:
    slack = _slack(lhs, rhs, relation) if slack is None else slack
    return BoundRecord(
        id=rid,
        lhs=float(lhs) + 0.0,
        rhs=float(rhs) + 0.0,
        relation=relation,
        slack=float(slack) + 0.0,
        satisfied=bool(slack >= -CHECK_TOL),
        citation=citation,
    )


# ---------------------------------------------------------------------------
# largest singular value


# The sigma1 search draws and evaluates the probes of as many rows at once
# as fit in this many bytes of probe array (and at least one row).  Its
# temporaries are a few times that size; at 64 KiB they stay in cache, and
# verify's sigma1 oracle ran faster than with 32 or 256 KiB.
PROBE_BLOCK_BYTES = 1 << 16


def _warm_starts(s: np.ndarray, n: int) -> np.ndarray:
    """Per row of the ``(B, N^2, N^2)`` stack ``s``: the ratio
    ``|S vec|_2 / |vec|_2`` of the better of the two normalized positive
    parts of its dominant right-singular vector, ``-inf`` if neither has a
    trace above 1e-12."""
    _, _, vh = np.linalg.svd(s)
    top = vh[:, 0].conj().reshape(-1, n, n)
    adj = top.conj().swapaxes(1, 2)
    best = np.full(len(s), -math.inf)
    for m in (top + adj, 1j * (top - adj)):
        w, v = np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2.0)
        absm = (v * np.abs(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        tr = np.trace(absm, axis1=1, axis2=2).real
        ok = tr > 1e-12
        vec = (absm / np.where(ok, tr, 1.0)[:, None, None]).reshape(len(s), n * n)
        image = (s @ vec[..., None])[..., 0]
        # one 1-D norm per row: a norm along an axis adds up in another order
        for r in np.flatnonzero(ok):
            best[r] = max(best[r], float(np.linalg.norm(image[r]) / np.linalg.norm(vec[r])))
    return best


def sigma1_search(stack: ChannelStack, budget: int, seeds) -> np.ndarray:
    """Lower estimates of each ``sigma1`` of ``stack``, by maximizing
    ``|Phi(rho)|_2 / |rho|_2`` over density matrices.

    Every evaluated candidate is a valid state, so no estimate exceeds the
    true value (up to roundoff).  Each is the larger of two estimates.  The
    deterministic warm start is the normalized positive part of the dominant
    right-singular vector.  On a completely positive map it is exact: then
    ``Phi^dag Phi`` is completely positive as well, and by the Perron-Frobenius
    theorem for positive maps (Evans and Hoegh-Krohn 1978) its top eigenvalue
    ``sigma1^2`` has a positive semidefinite eigenvector.  The ``budget``
    Hilbert-Schmidt-random states ``G G^dag`` of channel ``i``, drawn from
    ``rng_stream(seeds[i])``, are the check that does not depend on the SVD.
    Each row's estimate has the same bits in any stack.
    """
    if budget < 1:
        raise ValueError("sample budget must be positive")
    seeds = [int(seed) for seed in seeds]
    if len(seeds) != len(stack):
        raise ValueError(f"expected {len(stack)} seeds, one per channel, got {len(seeds)}")
    n, s = stack.dim, stack.superop
    best = _warm_starts(s, n)
    rows = max(1, PROBE_BLOCK_BYTES // (16 * n * n * budget))
    for a in range(0, len(stack), rows):
        block, sb = seeds[a : a + rows], s[a : a + rows]
        # Row i draws Re G, then Im G, budget (N, N) blocks each.  With the
        # probe axis last, G G^dag is three real products over its inner
        # index, the Re and Im parts of the probes are the rows of one real
        # (2 N^2, budget) matrix, and the real form of S maps it in one product.
        z = np.empty((len(block), 2, budget, n, n))
        for out, seed in zip(z, block):
            rng_stream(seed).standard_normal(out=out)
        x, y = np.ascontiguousarray(z.transpose(1, 0, 3, 4, 2))
        gram = "kacp,kbcp->kabp"
        vecs = np.empty((len(block), 2, n, n, budget))
        np.einsum(gram, x, x, out=vecs[:, 0])
        vecs[:, 0] += np.einsum(gram, y, y)
        cross = np.einsum(gram, y, x)
        np.subtract(cross, cross.swapaxes(1, 2), out=vecs[:, 1])
        vecs = vecs.reshape(len(block), 2 * n * n, budget)
        image = np.block([[sb.real, -sb.imag], [sb.imag, sb.real]]) @ vecs
        image *= image
        vecs *= vecs
        ratio2 = np.sum(image, axis=1) / np.sum(vecs, axis=1)
        best[a : a + rows] = np.maximum(best[a : a + rows], np.sqrt(ratio2.max(axis=1)))
    return best


def sigma1_variational(ch: Channel, budget: int = 2000, seed: int = 0) -> float:
    """:func:`sigma1_search` of one channel, its probes drawn from ``rng_stream(seed)``."""
    return float(sigma1_search(ch.stack, budget, [seed])[0])


# ---------------------------------------------------------------------------
# the two spectrum lemmas


def _from_one(q: float) -> bool:
    # the paper states its bounds for q >= 1; F_min and G_min need it
    return q >= 1.0


def _above_one(q: float) -> bool:
    # q/(q-1) and F_max are finite
    return q > 1.0


@dataclass(frozen=True)
class Lemma:
    """One spectrum lemma for a matrix X with trace norm ``Lx`` and largest
    singular value ``x1``, and an entry reordering Y of X with trace norm
    ``Ly``: ``S_q(X)`` (``S_q(Y)`` when ``on_y``) ``relation rhs(Lx, x1, Ly, q)``
    at every order where ``applies(q)``.
    """

    id: str
    relation: str
    applies: Callable[[float], bool]
    on_y: bool
    rhs: Callable
    citation: str


# The two lemmas as four rows, two on X and two on Y.  The channel bounds
# apply them to the superoperator and its reshuffle, the Choi matrix (trace
# norm N, largest singular value d1), in both orders.
LEMMA_ROWS = (
    Lemma("spectral_entropy_lower", ">=", _from_one, False,
          lambda lx, x1, ly, q: np.log(lx / x1), "ln(L/x1) <= S_q(X)"),
    Lemma("spectral_entropy_upper", "<=", _above_one, False,
          lambda lx, x1, ly, q: q_ratio(q) * np.log(lx / x1), "S_q(X) <= q/(q-1) ln(L/x1)"),
    Lemma("reordered_entropy_lower", ">=", _from_one, True,
          lambda lx, x1, ly, q: f_min(q) * np.log(ly / np.sqrt(x1 * lx)),
          "F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y)"),
    Lemma("reordered_entropy_upper", "<=", _above_one, True,
          lambda lx, x1, ly, q: f_max(q) * np.log(ly / x1), "S_q(Y) <= F_max ln(Ly/x1)"),
)


def lemma_spectra(m, perm=None):
    """``(sx, y, sy)``: the singular values of a ``(B, r, c)`` stack ``m``
    and, given ``(B, r * c)`` entry bijections, of ``y = reorder(m, perm)``
    (else ``None``), each from one batched SVD and sorted descending."""
    m = as_complex_matrix(m, stack=True)
    y = None if perm is None else reorder(m, perm)
    sx, sy = (None if a is None else np.linalg.svd(a, compute_uv=False) for a in (m, y))
    return sx, y, sy


def _lemma_rows(q: float, reordered: bool) -> list[Lemma]:
    # the rows that lemma_columns evaluates at a checked order q
    return [row for row in LEMMA_ROWS if row.applies(q) and (reordered or not row.on_y)]


def lemma_columns(sx, sy, q):
    """``(lhs, rhs, slack)``, each ``(B, k)``, of the rows of
    :data:`LEMMA_ROWS` that apply at order ``q``, in that order, from
    :func:`lemma_spectra`: ``k = 4`` with ``sy`` and 2 without it, halved at
    ``q = 1``, where the upper bounds drop out."""
    q = renyi_order(q, minimum=1.0)
    rows = _lemma_rows(q, sy is not None)
    lam_x, x1 = sx.sum(axis=-1), sx[:, 0]
    if not (lam_x > 0.0).all():
        raise ValueError("matrix must have at least one nonzero singular value")
    lam_y = None if sy is None else sy.sum(axis=-1)
    s_x = _renyi(spectrum_probabilities(sx), q)
    s_y = None if sy is None else _renyi(spectrum_probabilities(sy), q)
    lhs = [s_y if row.on_y else s_x for row in rows]
    rhs = [row.rhs(lam_x, x1, lam_y, q) for row in rows]
    slack = [_slack(a, b, row.relation) for a, b, row in zip(lhs, rhs, rows)]
    return tuple(np.column_stack(part) for part in (lhs, rhs, slack))


def _lemma_records(x, perm, q, on_y: bool) -> list[BoundRecord]:
    # the B = 1 case of lemma_spectra and lemma_columns, its rows on X or on Y
    perm = None if perm is None else np.asarray(perm)[None]
    sx, _, sy = lemma_spectra(as_complex_matrix(x)[None], perm)
    lhs, rhs, slack = lemma_columns(sx, sy, q)
    return [
        _record(row.id, lhs[0, j], rhs[0, j], row.relation, row.citation, slack[0, j])
        for j, row in enumerate(_lemma_rows(float(q), sy is not None))
        if row.on_y == on_y
    ]


def spectral_entropy_bounds(x, q) -> list[BoundRecord]:
    """Records of the :data:`LEMMA_ROWS` on ``X = x``, which bound ``S_q(x)``
    by its trace norm and largest singular value; at ``q = 1`` the lower one."""
    return _lemma_records(x, None, q, False)


def reordered_entropy_bounds(x, perm, q) -> list[BoundRecord]:
    """Records of the :data:`LEMMA_ROWS` on ``Y = reorder(x, perm)``, which
    bound ``S_q(Y)`` by the spectrum of ``x``; at ``q = 1`` the lower one."""
    return _lemma_records(x, perm, q, True)


# ---------------------------------------------------------------------------
# the channel bound table


def receiver_upper_value(lam, n_dim: int, q):
    """Largest ``S_q`` compatible with trace norm ``lam`` of an N^2 x N^2
    superoperator whose largest singular value is at least 1.

    The singular values majorize ``(1, (lam-1)/(N^2-1) x (N^2-1))``; Schur
    concavity turns the Rényi entropy of that vector, normalized by ``lam``,
    into an upper bound.  It is evaluated by :func:`entropy.renyi`'s rule,
    limits, Shannon window and large orders included.  ``lam`` may be a
    float (giving a float) or an array (giving one value per entry).
    """
    q = renyi_order(q)
    lam_in = np.asarray(lam, dtype=float)
    i = first_failure(np.isfinite(lam_in))
    if i is not None:
        raise ValidationError(f"trace norm {lam_in.flat[i]} is not finite")
    i = first_failure(lam_in >= 1.0 - TP_TOL)
    if i is not None:
        raise ValidationError(
            f"trace norm {lam_in.flat[i]:.12g} below 1; "
            "not a trace-preserving channel's superoperator"
        )
    lam = np.maximum(lam_in, 1.0)[..., None]
    rest = n_dim * n_dim - 1  # 0 at N = 1, where the share is repeated 0 times
    share = (lam - 1.0) / max(rest, 1)
    weights = np.concatenate([np.ones_like(lam), np.repeat(share, rest, -1)], -1)
    value = _renyi(weights / lam, q)
    return float(value) if lam_in.ndim == 0 else value


def _any_order(q: float) -> bool:
    return True


def _near_one(q: float) -> bool:
    # the Shannon window of the Rényi formula
    return abs(q - 1.0) < Q_ONE_WINDOW


@dataclass(frozen=True)
class Bound:
    """One row of the bound table: ``lhs relation rhs`` for each channel of a
    stack at Rényi order ``q``.

    ``applies(q)`` says whether the row is defined at order ``q``; ``lhs`` and
    ``rhs`` map ``(stack, q)`` to one value per channel (or a constant).
    ``separable`` marks the criteria that every entanglement-breaking channel
    satisfies, which feed the region classifier rather than the bound report;
    ``interval`` the rows that hold on interval maps only.
    """

    id: str
    relation: str
    applies: Callable[[float], bool]
    lhs: Callable[[ChannelStack, float], np.ndarray]
    rhs: Callable[[ChannelStack, float], np.ndarray]
    citation: str
    separable: bool = False
    interval: bool = False


def _s_map(s: ChannelStack, q) -> np.ndarray:
    return entropies(s, "map", q)


def _s_rec(s: ChannelStack, q) -> np.ndarray:
    return entropies(s, "receiver", q)


def _s_out(s: ChannelStack, q) -> np.ndarray:
    return entropies(s, "output", q)


# A channel's two sides for the lemmas, as (S_q(X), S_q(Y), (Lx, x1, Ly)):
# X is the superoperator and Y its reshuffle, the Choi matrix, or the other
# way round.
_SUPEROP = (_s_rec, _s_map, lambda s: (s.lambda_phi, s.sigma1, s.dim))
_CHOI = (_s_map, _s_rec, lambda s: (s.dim, s.d1, s.lambda_phi))


def _applied(rid: str, lemma_id: str, side, citation: str) -> Bound:
    """The table row ``rid``: the lemma ``lemma_id`` applied to ``side``."""
    lemma = next(row for row in LEMMA_ROWS if row.id == lemma_id)
    s_x, s_y, norms = side
    return Bound(
        rid, lemma.relation, lemma.applies, s_y if lemma.on_y else s_x,
        lambda s, q: lemma.rhs(*norms(s), q), citation,
    )


TABLE: tuple[Bound, ...] = (
    _applied("receiver_self_lower", "spectral_entropy_lower", _SUPEROP,
             "ln(L/s1) <= S_q_rec"),
    _applied("map_self_lower", "spectral_entropy_lower", _CHOI,
             "ln(N/d1) <= S_q_map"),
    _applied("receiver_cross_lower", "reordered_entropy_lower", _CHOI,
             "F_min ln(L/sqrt(N d1)) <= S_q_rec"),
    _applied("map_cross_lower", "reordered_entropy_lower", _SUPEROP,
             "F_min ln(N/sqrt(s1 L)) <= S_q_map"),
    _applied("receiver_self_upper", "spectral_entropy_upper", _SUPEROP,
             "S_q_rec <= q/(q-1) ln(L/s1)"),
    _applied("map_self_upper", "spectral_entropy_upper", _CHOI,
             "S_q_map <= q/(q-1) ln(N/d1)"),
    _applied("receiver_cross_upper", "reordered_entropy_upper", _CHOI,
             "S_q_rec <= F_max ln(L/d1)"),
    _applied("map_cross_upper", "reordered_entropy_upper", _SUPEROP,
             "S_q_map <= F_max ln(N/s1)"),
    # bistochastic channels have t1 = 1/N, which forces s1 = 1
    Bound(
        "sigma1_vs_tau1", "<=", _from_one,
        lambda s, q: s.sigma1,
        lambda s, q: np.sqrt(s.dim * s.tau1),
        "s1 <= sqrt(N t1) <= sqrt(N)",
    ),
    # t1 = 1/N for bistochastic channels turns the bound into F_min ln N
    Bound(
        "entropy_sum_lower", ">=", _from_one,
        lambda s, q: _s_map(s, q) + _s_rec(s, q),
        lambda s, q: 0.5 * f_min(q) * np.log(s.dim / s.tau1),
        "S_q_map + S_q_rec >= (F_min/2) ln(N/t1)",
    ),
    Bound(
        "receiver_majorization_upper", "<=", _any_order, _s_rec,
        lambda s, q: receiver_upper_value(s.lambda_phi, s.dim, q),
        "S_q_rec <= S_q((1, (L-1)/(N^2-1) ...)/L)",
    ),
    # the superoperator and its reshuffle have equal Hilbert-Schmidt norms
    Bound(
        "collision_identity", "==", _from_one,
        lambda s, q: _s_map(s, 2.0),
        lambda s, q: _s_rec(s, 2.0) + 2.0 * np.log(s.dim) - 2.0 * np.log(s.lambda_phi),
        "S_2_map == S_2_rec + 2 ln(N/L)",
    ),
    # tight on the mixture 1/(N+1) identity + N/(N+1) full depolarizing
    Bound(
        "collision_sum_upper", "<=", _from_one,
        lambda s, q: _s_map(s, 2.0) + _s_rec(s, 2.0),
        lambda s, q: 2.0 * np.log(s.dim * (s.dim + 1) / 2.0),
        "S_2_map + S_2_rec <= 2 ln(N(N+1)/2)",
    ),
    Bound(
        "map_from_receiver_lower", ">=", _from_one, _s_map,
        lambda s, q: f_min(q) * np.log(s.dim / s.lambda_phi) + g_min(q) * _s_rec(s, q),
        "S_q_map >= F_min ln(N/L) + G_min S_q_rec",
    ),
    Bound(
        "interval_receiver_upper", "<=", _from_one,
        lambda s, q: _s_rec(s, 1.0),
        lambda s, q: np.log(s.dim),
        "S_rec <= ln N (segment image)",
        interval=True,
    ),
    Bound(
        "interval_map_lower", ">=", _from_one,
        lambda s, q: _s_map(s, 1.0),
        lambda s, q: np.log(s.dim),
        "S_map >= ln N (block Choi structure)",
        interval=True,
    ),
    Bound(
        "map_output_lower", ">=", _near_one, _s_map,
        lambda s, q: np.log(s.dim) - _s_out(s, q),
        "ln N - S(Phi(1/N)) <= S_map",
    ),
    # constant channels rho -> xi saturate it
    Bound(
        "map_output_upper", "<=", _any_order, _s_map,
        lambda s, q: np.log(s.dim) + _s_out(s, q),
        "S_q_map <= ln N + S_q(Phi(1/N))",
    ),
    Bound(
        "map_rank_lower", ">=", _any_order, _s_map,
        lambda s, q: np.log(s.dim) - _s_out(s, 0.0),
        "S_q_map >= ln N - ln rank(Phi(1/N))",
    ),
    Bound(
        "separable_map_lower", ">=", _from_one, _s_map,
        lambda s, q: 0.25 * f_min(q) * np.log(s.dim),
        "separable => S_q_map >= (F_min/4) ln N",
        separable=True,
    ),
    Bound(
        "separable_receiver_upper", "<=", _from_one, _s_rec,
        lambda s, q: receiver_upper_value(float(s.dim), s.dim, q),
        "separable => S_q_rec <= S_q((1, 1/(N+1) ...)/N)",
        separable=True,
    ),
    Bound(
        "separable_ratio", ">=", _from_one, _s_map,
        lambda s, q: g_min(q) * _s_rec(s, q),
        "separable => S_q_map >= G_min S_q_rec",
        separable=True,
    ),
)


def applicable_bounds(q, interval: bool = False) -> list[Bound]:
    """Table rows of the bound report at order ``q``, interval rows with ``interval``, by id."""
    q = renyi_order(q, minimum=1.0)
    rows = [b for b in TABLE if not b.separable and b.applies(q) and b.interval <= interval]
    return sorted(rows, key=lambda b: b.id)


def applicable_bound_ids(q, include_interval: bool = False) -> list[str]:
    """Sorted record ids that :func:`evaluate_all` emits for a valid channel."""
    return [b.id for b in applicable_bounds(q, include_interval)]


def bound_columns(stack: ChannelStack, q, bound: Bound):
    """``(lhs, rhs, slack)`` of one table row, one entry per channel."""
    zero = np.zeros(len(stack))  # adding it broadcasts constants and folds -0.0
    lhs = bound.lhs(stack, q) + zero
    rhs = bound.rhs(stack, q) + zero
    return lhs, rhs, _slack(lhs, rhs, bound.relation)


def table_columns(stack: ChannelStack, q, table):
    """``(lhs, rhs, slack, errors)`` of every row of ``table``: ``(B, len(table))``
    arrays with one row per channel and one column per bound.

    A bound that raises on the stack is evaluated again one channel at a
    time, on ``stack.channel(i).stack``.  Where it still raises, ``lhs``,
    ``rhs`` and ``slack`` are nan and ``errors[i, j]`` holds the exception;
    every other entry of ``errors`` is ``None``.  This is the one place that
    catches a bound's exception.
    """
    lhs, rhs, slack = (np.full((len(stack), len(table)), math.nan) for _ in range(3))
    errors = np.full(lhs.shape, None, dtype=object)
    for j, bound in enumerate(table):
        try:
            lhs[:, j], rhs[:, j], slack[:, j] = bound_columns(stack, q, bound)
        except Exception:  # noqa: BLE001 - evaluated again one channel at a time
            for i in range(len(stack)):
                row = stack.channel(i).stack
                try:
                    lhs[[i], j], rhs[[i], j], slack[[i], j] = bound_columns(row, q, bound)
                except Exception as exc:  # noqa: BLE001 - handed back, never silently lost
                    errors[i, j] = exc
    return lhs, rhs, slack, errors


def table_records(table, columns, i: int = 0) -> list[BoundRecord]:
    """Records of channel ``i`` from ``columns = table_columns(stack, q, table)``,
    in table order.  A row that raised there gives an ``<id>_error`` record
    with nan values and ``Type: message`` as its citation."""
    lhs, rhs, slack, errors = (part[i] for part in columns)
    records = []
    for j, b in enumerate(table):
        rid, citation = b.id, b.citation
        if errors[j] is not None:  # then lhs, rhs and slack are nan
            rid, citation = f"{b.id}_error", f"{type(errors[j]).__name__}: {errors[j]}"
        records.append(_record(rid, lhs[j], rhs[j], b.relation, citation, slack[j]))
    return records


def record(ch: Channel, bound_id: str, q) -> BoundRecord:
    """Record of the table row ``bound_id`` for ``ch`` at Rényi order ``q``.

    A row that raises gives its ``<id>_error`` record.  Raises ``KeyError``
    for an unknown id and ``ValueError`` when the row does not apply to ``ch``
    at ``q``; the interval rows apply only to an interval map (``ch.interval``).
    """
    q = renyi_order(q)
    bound = {b.id: b for b in TABLE}[bound_id]
    if not bound.applies(q) or bound.interval > ch.interval:
        raise ValueError(f"bound {bound_id} does not apply at q = {q}")
    return table_records([bound], table_columns(ch.stack, q, [bound]))[0]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one channel at one Rényi order."""

    channel_label: str
    q: float
    records: tuple[BoundRecord, ...]
    aggregates: dict

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)

    def record(self, rid: str) -> BoundRecord:
        for r in self.records:
            if r.id == rid:
                return r
        raise KeyError(f"no record with id {rid!r}")

    def to_dict(self) -> dict:
        return json_safe(asdict(self))

    def csv_rows(self) -> list[tuple]:
        """One row per record: label, q, id, lhs, rhs, slack, satisfied."""
        return [
            (self.channel_label, self.q, r.id, r.lhs, r.rhs, r.slack, r.satisfied)
            for r in self.records
        ]


def json_safe(x):
    """JSON-safe copy of a nested value: numpy scalars become Python ones,
    tuples become lists, and non-finite floats become strings."""
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isfinite(x):
            return x
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return x


def evaluate_all(ch: Channel, q) -> BoundReport:
    """Run every applicable bound for ``ch`` at order ``q``.

    Individual failures (e.g. undefined quantities on a permissively built
    map) become ``<id>_error`` records, and failing aggregates
    ``<key>_error`` messages, instead of aborting the report.
    The interval-specific checks run only on an interval map (``ch.interval``).
    Records are sorted by id.
    """
    q = renyi_order(q, minimum=1.0)
    table = applicable_bounds(q, ch.interval)
    records = sorted(table_records(table, table_columns(ch.stack, q, table)), key=lambda r: r.id)

    aggregates = {"f_min": f_min(q), "f_max": f_max(q), "g_min": g_min(q)}
    for key in DIAGNOSTICS:
        try:
            aggregates[key] = getattr(ch, key)
        except Exception as exc:  # noqa: BLE001 - reported like a failing record
            aggregates[f"{key}_error"] = f"{type(exc).__name__}: {exc}"
    return BoundReport(
        channel_label=ch.label or "channel",
        q=q,
        records=tuple(records),
        aggregates=aggregates,
    )
