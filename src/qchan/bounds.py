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

from .channels import Channel, ChannelStack, ValidationError
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
# the two spectrum lemmas
#
# For a matrix X with trace norm Lx and largest singular value x1, and an
# entry reordering Y of X with trace norm Ly, every Rényi order q >= 1 gives
#   ln(Lx/x1) <= S_q(X) <= q/(q-1) ln(Lx/x1)
#   F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y) <= F_max ln(Ly/x1).
# The channel bounds apply them to the superoperator and its reshuffle, the
# Choi matrix (trace norm N, largest singular value d1).


def _spectral_lower(lam, x1, q):
    return np.log(lam / x1)


def _spectral_upper(lam, x1, q):
    return q_ratio(q) * np.log(lam / x1)


def _reordered_lower(lam_y, x1, lam_x, q):
    return f_min(q) * np.log(lam_y / np.sqrt(x1 * lam_x))


def _reordered_upper(lam_y, x1, q):
    return f_max(q) * np.log(lam_y / x1)


# ---------------------------------------------------------------------------
# largest singular value


def sigma1_variational(ch: Channel, budget: int = 2000, seed: int = 0) -> float:
    """Lower estimate of ``sigma1`` by maximizing ``|Phi(rho)|_2 / |rho|_2``
    over density matrices.

    Every evaluated candidate is a valid state, so the result never exceeds
    the true value (up to roundoff).  It is the larger of two estimates.  The
    deterministic warm start is the normalized positive part of the dominant
    right-singular vector.  On a completely positive map it is exact: then
    ``Phi^dag Phi`` is completely positive as well, and by the Perron-Frobenius
    theorem for positive maps (Evans and Hoegh-Krohn 1978) its top eigenvalue
    ``sigma1^2`` has a positive semidefinite eigenvector.  The ``budget``
    Hilbert-Schmidt-random states, evaluated in one matrix product, are the
    check that does not depend on the SVD.
    """
    if budget < 1:
        raise ValueError("sample budget must be positive")
    n = ch.dim
    s = ch.superop
    rng = rng_stream(seed)

    # Warm start: Hermitian positive part of the dominant input direction.
    _, _, vh = np.linalg.svd(s)
    top = vh[0].conj().reshape(n, n)
    best = -math.inf
    for m in (top + top.conj().T, 1j * (top - top.conj().T)):
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        absm = (v * np.abs(w)) @ v.conj().T
        tr = absm.trace().real
        if tr > 1e-12:
            vec = (absm / tr).reshape(-1)
            best = max(best, float(np.linalg.norm(s @ vec) / np.linalg.norm(vec)))

    g = rng.standard_normal((budget, n, n)) + 1j * rng.standard_normal((budget, n, n))
    vecs = (g @ g.conj().transpose(0, 2, 1)).reshape(budget, n * n)
    ratios = np.linalg.norm(vecs @ s.T, axis=1) / np.linalg.norm(vecs, axis=1)
    return max(best, float(ratios.max()))


# ---------------------------------------------------------------------------
# matrix-level spectrum bounds

# The lemmas as rows (id, relation, citation), two on X and two on Y.
LEMMA_ROWS = (
    ("spectral_entropy_lower", ">=", "ln(L/x1) <= S_q(X)"),
    ("spectral_entropy_upper", "<=", "S_q(X) <= q/(q-1) ln(L/x1)"),
    ("reordered_entropy_lower", ">=", "F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y)"),
    ("reordered_entropy_upper", "<=", "S_q(Y) <= F_max ln(Ly/x1)"),
)


def lemma_spectra(m, perm=None):
    """``(sx, y, sy)``: the singular values of a ``(B, r, c)`` stack ``m``
    and, given ``(B, r * c)`` entry bijections, of ``y = reorder(m, perm)``
    (else ``None``), each from one batched SVD and sorted descending."""
    m = as_complex_matrix(m, stack=True)
    y = None if perm is None else reorder(m, perm)
    sx, sy = (None if a is None else np.linalg.svd(a, compute_uv=False) for a in (m, y))
    return sx, y, sy


def lemma_columns(sx, sy, q):
    """``(lhs, rhs, slack)``, each ``(B, k)``, of the first ``k`` rows of
    :data:`LEMMA_ROWS` at order ``q``, from :func:`lemma_spectra`.  With
    ``sy``, ``k = 4`` and ``q`` must exceed 1; without it ``k = 2``, or 1 at
    ``q = 1``, where the upper bound drops out."""
    if sy is not None and not float(q) > 1.0:
        raise ValueError(f"reordered-spectrum bounds require q > 1, got {float(q)}")
    q = renyi_order(q, minimum=1.0)
    lam_x, x1 = sx.sum(axis=-1), sx[:, 0]
    if not (lam_x > 0.0).all():
        raise ValueError("matrix must have at least one nonzero singular value")
    sq = _renyi(spectrum_probabilities(sx), q)
    rows = [(sq, _spectral_lower(lam_x, x1, q))]
    if q > 1.0:
        rows.append((sq, _spectral_upper(lam_x, x1, q)))
    if sy is not None:
        lam_y, sq_y = sy.sum(axis=-1), _renyi(spectrum_probabilities(sy), q)
        rows.append((sq_y, _reordered_lower(lam_y, x1, lam_x, q)))
        rows.append((sq_y, _reordered_upper(lam_y, x1, q)))
    slack = [_slack(lhs, rhs, rel) for (lhs, rhs), (_, rel, _) in zip(rows, LEMMA_ROWS)]
    return (*(np.column_stack(part) for part in zip(*rows)), np.column_stack(slack))


def _lemma_records(x, perm, q) -> list[BoundRecord]:
    # the B = 1 case of lemma_spectra and lemma_columns
    perm = None if perm is None else np.asarray(perm)[None]
    lhs, rhs, slack = lemma_columns(*lemma_spectra(as_complex_matrix(x)[None], perm)[::2], q)
    return [
        _record(rid, lhs[0, j], rhs[0, j], rel, citation, slack[0, j])
        for j, (rid, rel, citation) in enumerate(LEMMA_ROWS[: lhs.shape[1]])
    ]


def spectral_entropy_bounds(x, q) -> list[BoundRecord]:
    """Bound ``S_q`` of a matrix spectrum by its extreme singular values.

    With ``L`` the trace norm and ``x1`` the largest singular value of ``x``,
    ``ln(L/x1) <= S_q(x) <= q/(q-1) ln(L/x1)``.  At ``q = 1`` only the lower
    bound applies; ``q < 1`` is out of range.
    """
    return _lemma_records(x, None, q)


def reordered_entropy_bounds(x, perm, q) -> list[BoundRecord]:
    """Bound ``S_q`` of an entry-reordered matrix by the original's spectrum.

    For ``Y = reorder(X, perm)`` with trace norms ``Ly`` and ``Lx`` and
    largest singular value ``x1`` of ``X``:
    ``F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y) <= F_max ln(Ly/x1)``.
    Requires ``q > 1`` (``inf`` allowed).
    """
    return _lemma_records(x, perm, q)[2:]


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
    i = first_failure(lam_in >= 1.0 - 1e-9)
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


def _any_order(q: float, interval: bool) -> bool:
    return True


def _from_one(q: float, interval: bool) -> bool:
    # the paper states its bounds for q >= 1; F_min and G_min need it
    return q >= 1.0


def _above_one(q: float, interval: bool) -> bool:
    # q/(q-1) and F_max are finite
    return q > 1.0


def _near_one(q: float, interval: bool) -> bool:
    # the Shannon window of the Rényi formula
    return abs(q - 1.0) < Q_ONE_WINDOW


def _interval(q: float, interval: bool) -> bool:
    return interval and q >= 1.0


@dataclass(frozen=True)
class Bound:
    """One row of the bound table: ``lhs relation rhs`` for each channel of a
    stack at Rényi order ``q``.

    ``applies(q, interval)`` says whether the row is defined at order ``q``
    for a stack of interval maps (or of any maps); ``lhs`` and ``rhs`` map
    ``(stack, q)`` to one value per channel (or a constant).
    ``separable`` marks the criteria that every entanglement-breaking
    channel satisfies, which feed the region classifier rather than the
    bound report.
    """

    id: str
    relation: str
    applies: Callable[[float, bool], bool]
    lhs: Callable[[ChannelStack, float], np.ndarray]
    rhs: Callable[[ChannelStack, float], np.ndarray]
    citation: str
    separable: bool = False


def _s_map(s: ChannelStack, q) -> np.ndarray:
    return entropies(s, "map", q)


def _s_rec(s: ChannelStack, q) -> np.ndarray:
    return entropies(s, "receiver", q)


def _s_out(s: ChannelStack, q) -> np.ndarray:
    return entropies(s, "output", q)


TABLE: tuple[Bound, ...] = (
    Bound(
        "receiver_self_lower", ">=", _from_one, _s_rec,
        lambda s, q: _spectral_lower(s.lambda_phi, s.sigma1, q),
        "ln(L/s1) <= S_q_rec",
    ),
    Bound(
        "map_self_lower", ">=", _from_one, _s_map,
        lambda s, q: _spectral_lower(s.dim, s.d1, q),
        "ln(N/d1) <= S_q_map",
    ),
    Bound(
        "receiver_cross_lower", ">=", _from_one, _s_rec,
        lambda s, q: _reordered_lower(s.lambda_phi, s.d1, s.dim, q),
        "F_min ln(L/sqrt(N d1)) <= S_q_rec",
    ),
    Bound(
        "map_cross_lower", ">=", _from_one, _s_map,
        lambda s, q: _reordered_lower(s.dim, s.sigma1, s.lambda_phi, q),
        "F_min ln(N/sqrt(s1 L)) <= S_q_map",
    ),
    Bound(
        "receiver_self_upper", "<=", _above_one, _s_rec,
        lambda s, q: _spectral_upper(s.lambda_phi, s.sigma1, q),
        "S_q_rec <= q/(q-1) ln(L/s1)",
    ),
    Bound(
        "map_self_upper", "<=", _above_one, _s_map,
        lambda s, q: _spectral_upper(s.dim, s.d1, q),
        "S_q_map <= q/(q-1) ln(N/d1)",
    ),
    Bound(
        "receiver_cross_upper", "<=", _above_one, _s_rec,
        lambda s, q: _reordered_upper(s.lambda_phi, s.d1, q),
        "S_q_rec <= F_max ln(L/d1)",
    ),
    Bound(
        "map_cross_upper", "<=", _above_one, _s_map,
        lambda s, q: _reordered_upper(s.dim, s.sigma1, q),
        "S_q_map <= F_max ln(N/s1)",
    ),
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
        "interval_receiver_upper", "<=", _interval,
        lambda s, q: _s_rec(s, 1.0),
        lambda s, q: np.log(s.dim),
        "S_rec <= ln N (segment image)",
    ),
    Bound(
        "interval_map_lower", ">=", _interval,
        lambda s, q: _s_map(s, 1.0),
        lambda s, q: np.log(s.dim),
        "S_map >= ln N (block Choi structure)",
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
    """Table rows of the bound report at order ``q``, sorted by id."""
    q = renyi_order(q, minimum=1.0)
    rows = [b for b in TABLE if not b.separable and b.applies(q, interval)]
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
    for an unknown id and ``ValueError`` when the row does not apply at ``q``.
    """
    q = renyi_order(q)
    bound = {b.id: b for b in TABLE}[bound_id]
    if not bound.applies(q, True):
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
    The interval-specific checks run only when the channel was constructed
    as an interval map.  Records are sorted by id.
    """
    q = renyi_order(q, minimum=1.0)
    table = applicable_bounds(q, bool(ch.meta.get("interval")))
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
