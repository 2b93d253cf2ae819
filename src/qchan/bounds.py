"""Entropic trade-off bounds between the map and receiver entropies.

Every check produces a :class:`BoundRecord` with a signed slack: positive
slack means the inequality holds with room to spare, slack ``>= -CHECK_TOL``
counts as satisfied.  :func:`evaluate_all` collects every bound applicable to
a channel at a given Rényi order into a :class:`BoundReport`.

The single-letter symbols used in the formula strings are ``N`` (system
dimension), ``L`` (trace norm of the superoperator), ``s1`` (its largest
singular value), ``d1`` (largest Choi eigenvalue), and ``t1`` (largest
eigenvalue of ``Phi(1/N)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, ChannelStack, ValidationError
from .entropy import Q_ONE_WINDOW, entropies, renyi, renyi_order, spectrum_probabilities
from .matcore import first_failure, reorder, singular_values
from .zoo import random_density, random_pure_state, rng_stream

# Bound satisfaction margin: slack >= -CHECK_TOL counts as satisfied.
CHECK_TOL = 1e-8


def q_ratio(q) -> float:
    """``q/(q-1)`` with the limits ``inf`` at ``q = 1`` and 1 at ``q = inf``."""
    q = _check_order(q)
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


def _check_order(q) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise ValueError(f"bound coefficients require q >= 1, got {q}")
    return q


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
    the true value (up to roundoff).  The search combines a deterministic
    warm start (the positive part of the dominant right-singular vector),
    ``budget`` Hilbert-Schmidt-random samples evaluated in one matrix
    product, and 200 refinement steps that mix the incumbent with a random
    state, solving each one-dimensional mixing problem exactly (the ratio of
    two quadratics along a segment has closed-form critical points).
    """
    if budget < 1:
        raise ValueError("sample budget must be positive")
    n = ch.dim
    s = ch.superop
    rng = rng_stream(seed)

    def ratio(vec: np.ndarray) -> float:
        return float(np.linalg.norm(s @ vec) / np.linalg.norm(vec))

    # Warm start: Hermitian positive part of the dominant input direction.
    _, _, vh = np.linalg.svd(s)
    top = vh[0].conj().reshape(n, n)
    best_vec = None
    best = -math.inf
    for m in (top + top.conj().T, 1j * (top - top.conj().T)):
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        absm = (v * np.abs(w)) @ v.conj().T
        tr = absm.trace().real
        if tr > 1e-12:
            vec = (absm / tr).reshape(-1)
            r = ratio(vec)
            if r > best:
                best, best_vec = r, vec

    g = rng.standard_normal((budget, n, n)) + 1j * rng.standard_normal((budget, n, n))
    rhos = g @ g.conj().transpose(0, 2, 1)
    vecs = rhos.reshape(budget, n * n)
    nums = np.linalg.norm(vecs @ s.T, axis=1)
    dens = np.linalg.norm(vecs, axis=1)
    ratios = nums / dens
    i = int(np.argmax(ratios))
    if ratios[i] > best:
        best = float(ratios[i])
        best_vec = (rhos[i] / rhos[i].trace()).reshape(-1)

    for step in range(200):
        if step % 2 == 0:
            pert = random_density(n, rng)
        else:
            pert = random_pure_state(n, rng)
        u = best_vec
        w = pert.reshape(-1) - u
        a, b = s @ u, s @ w
        n2, n1, n0 = (
            float(np.vdot(b, b).real),
            2.0 * float(np.vdot(b, a).real),
            float(np.vdot(a, a).real),
        )
        d2, d1_, d0 = (
            float(np.vdot(w, w).real),
            2.0 * float(np.vdot(w, u).real),
            float(np.vdot(u, u).real),
        )
        # critical points of (n2 t^2 + n1 t + n0)/(d2 t^2 + d1 t + d0)
        coeffs = np.array(
            [n2 * d1_ - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1_]
        )
        candidates = [1.0]
        if abs(coeffs[0]) > 0.0 or abs(coeffs[1]) > 0.0:
            for root in np.roots(coeffs):
                if abs(root.imag) < 1e-12 and 0.0 < root.real < 1.0:
                    candidates.append(float(root.real))
        for t in candidates:
            den = d2 * t * t + d1_ * t + d0
            if den <= 0.0:
                continue
            r = math.sqrt(max((n2 * t * t + n1 * t + n0) / den, 0.0))
            if r > best:
                best = r
                best_vec = u + t * w
    return best


# ---------------------------------------------------------------------------
# matrix-level spectrum bounds


def spectral_entropy_bounds(x, q) -> list[BoundRecord]:
    """Bound ``S_q`` of a matrix spectrum by its extreme singular values.

    With ``L`` the trace norm and ``x1`` the largest singular value of ``x``,
    ``ln(L/x1) <= S_q(x) <= q/(q-1) ln(L/x1)``.  At ``q = 1`` only the lower
    bound applies; ``q < 1`` is out of range.
    """
    q = _check_order(q)
    s = singular_values(x)
    lam = float(s.sum())
    if lam <= 0.0:
        raise ValueError("matrix must have at least one nonzero singular value")
    x1 = float(s[0])
    sq = renyi(spectrum_probabilities(s), q)
    records = [
        _record(
            "spectral_entropy_lower", sq, _spectral_lower(lam, x1, q), ">=",
            "ln(L/x1) <= S_q(X)",
        )
    ]
    if q > 1.0:
        records.append(
            _record(
                "spectral_entropy_upper", sq, _spectral_upper(lam, x1, q), "<=",
                "S_q(X) <= q/(q-1) ln(L/x1)",
            )
        )
    return records


def reordered_entropy_bounds(x, perm, q) -> list[BoundRecord]:
    """Bound ``S_q`` of an entry-reordered matrix by the original's spectrum.

    For ``Y = reorder(X, perm)`` with trace norms ``Ly`` and ``Lx`` and
    largest singular value ``x1`` of ``X``:
    ``F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y) <= F_max ln(Ly/x1)``.
    Requires ``q > 1`` (``inf`` allowed).
    """
    q = float(q)
    if math.isnan(q) or q <= 1.0:
        raise ValueError(f"reordered-spectrum bounds require q > 1, got {q}")
    sx = singular_values(x)
    y = reorder(x, perm)
    sy = singular_values(y)
    lam_x, x1 = float(sx.sum()), float(sx[0])
    lam_y = float(sy.sum())
    if lam_x <= 0.0:
        raise ValueError("matrix must have at least one nonzero singular value")
    sq = renyi(spectrum_probabilities(sy), q)
    return [
        _record(
            "reordered_entropy_lower", sq, _reordered_lower(lam_y, x1, lam_x, q), ">=",
            "F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y)",
        ),
        _record(
            "reordered_entropy_upper", sq, _reordered_upper(lam_y, x1, q), "<=",
            "S_q(Y) <= F_max ln(Ly/x1)",
        ),
    ]


# ---------------------------------------------------------------------------
# the channel bound table


def receiver_upper_value(lam, n_dim: int, q):
    """Largest ``S_q`` compatible with trace norm ``lam`` of an N^2 x N^2
    superoperator whose largest singular value is at least 1.

    The singular values majorize ``(1, (lam-1)/(N^2-1) x (N^2-1))``, whose
    normalized Rényi entropy this function evaluates; Schur concavity turns
    that into an upper bound.  The ``q = 1`` and ``q = inf`` limits are
    handled in closed form.  ``lam`` may be a float (giving a float) or an
    array (giving one value per entry).
    """
    q = renyi_order(q)
    lam_in = np.asarray(lam, dtype=float)
    i = first_failure(lam_in >= 1.0 - 1e-9)
    if i is not None:
        raise ValidationError(
            f"trace norm {lam_in.flat[i]:.12g} below 1; "
            "not a trace-preserving channel's superoperator"
        )
    lam = np.maximum(lam_in, 1.0)
    rest = n_dim * n_dim - 1
    if math.isinf(q):
        value = np.log(lam)
    elif abs(q - 1.0) < Q_ONE_WINDOW:
        t = lam - 1.0
        spread = (t / lam) * np.log(rest / np.where(t < 1e-300, 1.0, t))
        value = np.where(t < 1e-300, 0.0, spread) + np.log(lam)
    else:
        inner = lam ** (-q) + (lam - 1.0) ** q / (lam**q * float(rest) ** (q - 1.0))
        value = np.log(inner) / (1.0 - q)
    return float(value) if lam_in.ndim == 0 else value


def _always(q: float, interval: bool) -> bool:
    return True


def _above_one(q: float, interval: bool) -> bool:
    # q/(q-1) and F_max are finite
    return q > 1.0


def _near_one(q: float, interval: bool) -> bool:
    # the Shannon window of the Rényi formula
    return abs(q - 1.0) < Q_ONE_WINDOW


def _interval(q: float, interval: bool) -> bool:
    return interval


@dataclass(frozen=True)
class Bound:
    """One row of the bound table: ``lhs relation rhs`` for each channel of a
    stack at Rényi order ``q``.

    ``applies(q, interval)`` says whether the row is part of the report at
    order ``q`` for a stack of interval maps (or not); ``lhs`` and ``rhs``
    map ``(stack, q)`` to one value per channel (or a constant).
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


def _output_rank(s: ChannelStack) -> np.ndarray:
    # eigenvalues of Phi(1/N) above 1e-9 |Phi(1/N)|_2
    cutoff = 1e-9 * np.maximum(np.linalg.norm(s.output_state, axis=(-2, -1)), 1e-300)
    return np.count_nonzero(s.output_eigenvalues > cutoff[:, None], axis=-1)


TABLE: tuple[Bound, ...] = (
    Bound(
        "receiver_self_lower", ">=", _always, _s_rec,
        lambda s, q: _spectral_lower(s.lambda_phi, s.sigma1, q),
        "ln(L/s1) <= S_q_rec",
    ),
    Bound(
        "map_self_lower", ">=", _always, _s_map,
        lambda s, q: _spectral_lower(s.dim, s.d1, q),
        "ln(N/d1) <= S_q_map",
    ),
    Bound(
        "receiver_cross_lower", ">=", _always, _s_rec,
        lambda s, q: _reordered_lower(s.lambda_phi, s.d1, s.dim, q),
        "F_min ln(L/sqrt(N d1)) <= S_q_rec",
    ),
    Bound(
        "map_cross_lower", ">=", _always, _s_map,
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
    Bound(
        "sigma1_vs_tau1", "<=", _always,
        lambda s, q: s.sigma1,
        lambda s, q: np.sqrt(s.dim * s.tau1),
        "s1 <= sqrt(N t1) <= sqrt(N)",
    ),
    Bound(
        "entropy_sum_lower", ">=", _always,
        lambda s, q: _s_map(s, q) + _s_rec(s, q),
        lambda s, q: 0.5 * f_min(q) * np.log(s.dim / s.tau1),
        "S_q_map + S_q_rec >= (F_min/2) ln(N/t1)",
    ),
    Bound(
        "receiver_majorization_upper", "<=", _always, _s_rec,
        lambda s, q: receiver_upper_value(s.lambda_phi, s.dim, q),
        "S_q_rec <= S_q((1, (L-1)/(N^2-1) ...)/L)",
    ),
    Bound(
        "collision_identity", "==", _always,
        lambda s, q: _s_map(s, 2.0),
        lambda s, q: _s_rec(s, 2.0) + 2.0 * np.log(s.dim) - 2.0 * np.log(s.lambda_phi),
        "S_2_map == S_2_rec + 2 ln(N/L)",
    ),
    Bound(
        "collision_sum_upper", "<=", _always,
        lambda s, q: _s_map(s, 2.0) + _s_rec(s, 2.0),
        lambda s, q: 2.0 * np.log(s.dim * (s.dim + 1) / 2.0),
        "S_2_map + S_2_rec <= 2 ln(N(N+1)/2)",
    ),
    Bound(
        "map_from_receiver_lower", ">=", _always, _s_map,
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
    Bound(
        "map_output_upper", "<=", _always, _s_map,
        lambda s, q: np.log(s.dim) + _s_out(s, q),
        "S_q_map <= ln N + S_q(Phi(1/N))",
    ),
    Bound(
        "map_rank_lower", ">=", _always, _s_map,
        lambda s, q: np.log(s.dim) - np.log(np.maximum(_output_rank(s), 1)),
        "S_q_map >= ln N - ln rank(Phi(1/N))",
    ),
    Bound(
        "separable_map_lower", ">=", _always, _s_map,
        lambda s, q: 0.25 * f_min(q) * np.log(s.dim),
        "separable => S_q_map >= (F_min/4) ln N",
        separable=True,
    ),
    Bound(
        "separable_receiver_upper", "<=", _always, _s_rec,
        lambda s, q: receiver_upper_value(float(s.dim), s.dim, q),
        "separable => S_q_rec <= S_q((1, 1/(N+1) ...)/N)",
        separable=True,
    ),
    Bound(
        "separable_ratio", ">=", _always, _s_map,
        lambda s, q: g_min(q) * _s_rec(s, q),
        "separable => S_q_map >= G_min S_q_rec",
        separable=True,
    ),
)


def applicable_bounds(q, interval: bool = False) -> list[Bound]:
    """Table rows of the bound report at order ``q``, sorted by id."""
    q = _check_order(q)
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


def column_record(bound: Bound, columns, i: int = 0) -> BoundRecord:
    """Record of channel ``i`` from the :func:`bound_columns` of ``bound``."""
    lhs, rhs, slack = columns
    return _record(bound.id, lhs[i], rhs[i], bound.relation, bound.citation, slack[i])


def table_records(ch: Channel, q, ids) -> list[BoundRecord]:
    """Records of the named table rows that apply at ``q``, in the order given."""
    by_id = {b.id: b for b in TABLE}
    rows = [by_id[rid] for rid in ids]
    return [column_record(b, bound_columns(ch.stack, q, b)) for b in rows if b.applies(q, True)]


# ---------------------------------------------------------------------------
# channel-level bounds, by name


def channel_entropy_bounds(ch: Channel, q) -> list[BoundRecord]:
    """Individual ranges for the receiver and map entropies of a channel.

    Four bound pairs: each entropy is bounded by its own matrix's extreme
    singular values (``_self``) and, because the superoperator and the Choi
    matrix are entry reorderings of each other, by the partner matrix's
    extremes (``_cross``).  Upper bounds drop out at ``q = 1`` where their
    coefficients diverge.
    """
    return table_records(
        ch,
        _check_order(q),
        (
            "receiver_self_lower",
            "map_self_lower",
            "receiver_cross_lower",
            "map_cross_lower",
            "receiver_self_upper",
            "map_self_upper",
            "receiver_cross_upper",
            "map_cross_upper",
        ),
    )


def sigma1_bound(ch: Channel) -> BoundRecord:
    """``sigma1 <= sqrt(N tau1)``; for bistochastic channels this forces 1."""
    return table_records(ch, 1.0, ("sigma1_vs_tau1",))[0]


def entropy_sum_lower(ch: Channel, q) -> BoundRecord:
    """Trade-off ``S_q_map + S_q_rec >= (F_min/2) ln(N/tau1)``.

    For bistochastic channels ``tau1 = 1/N`` makes the right side
    ``F_min ln N``; in general ``tau1 <= 1`` gives at least
    ``(F_min/2) ln N``, so the largest output eigenvalue interpolates
    between the two regimes.
    """
    return table_records(ch, _check_order(q), ("entropy_sum_lower",))[0]


def receiver_entropy_upper(ch: Channel, q) -> BoundRecord:
    """``S_q_rec`` cannot exceed the majorization bound set by ``L`` alone."""
    return table_records(ch, renyi_order(q), ("receiver_majorization_upper",))[0]


def collision_identity(ch: Channel) -> BoundRecord:
    """Exact identity at ``q = 2``: ``S_2_map = S_2_rec + 2 ln N - 2 ln L``.

    It follows from the equality of Hilbert-Schmidt norms of the
    superoperator and its reshuffle.
    """
    return table_records(ch, 2.0, ("collision_identity",))[0]


def collision_sum_upper(ch: Channel) -> BoundRecord:
    """``S_2_map + S_2_rec <= 2 ln(N(N+1)/2)``, tight on the mixture
    ``1/(N+1) id + N/(N+1) full-depolarizing``."""
    return table_records(ch, 2.0, ("collision_sum_upper",))[0]


def map_entropy_lower(ch: Channel, q) -> BoundRecord:
    """``S_q_map >= F_min ln(N/L) + G_min S_q_rec`` for ``q in [1, inf]``."""
    return table_records(ch, _check_order(q), ("map_from_receiver_lower",))[0]


def interval_bounds(ch: Channel) -> list[BoundRecord]:
    """For channels mapping the state set onto a segment:
    ``S_rec <= ln N <= S_map`` at ``q = 1``."""
    return table_records(ch, 1.0, ("interval_receiver_upper", "interval_map_lower"))


def output_entropy_sandwich(ch: Channel, q) -> list[BoundRecord]:
    """Estimate ``S_q_map`` from the image of the maximally mixed state.

    ``S_q_map <= ln N + S_q(Phi(1/N))`` for any order; at ``q = 1``
    additionally ``S_map >= ln N - S(Phi(1/N))``, and for any order
    ``S_q_map >= ln N - ln rank(Phi(1/N))``.  Constant channels
    ``rho -> xi`` saturate the upper branch.
    """
    return table_records(
        ch, renyi_order(q), ("map_output_lower", "map_output_upper", "map_rank_lower")
    )


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
        return {
            "channel_label": self.channel_label,
            "q": json_safe(self.q),
            "aggregates": json_safe(self.aggregates),
            "records": [record_dict(r) for r in self.records],
        }

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


def record_dict(r: BoundRecord) -> dict:
    """JSON-safe dict form of a single record."""
    return {
        "id": r.id,
        "lhs": json_safe(r.lhs),
        "rhs": json_safe(r.rhs),
        "relation": r.relation,
        "slack": json_safe(r.slack),
        "satisfied": r.satisfied,
        "citation": r.citation,
    }


def evaluate_all(ch: Channel, q) -> BoundReport:
    """Run every applicable bound for ``ch`` at order ``q``.

    Individual failures (e.g. undefined quantities on a permissively built
    map) become ``<id>_error`` records instead of aborting the report.
    The interval-specific checks run only when the channel was constructed
    as an interval map.  Records are sorted by id.
    """
    q = _check_order(q)
    records: list[BoundRecord] = []
    for bound in applicable_bounds(q, bool(ch.meta.get("interval"))):
        try:
            records.append(column_record(bound, bound_columns(ch.stack, q, bound)))
        except Exception as exc:  # noqa: BLE001 - reported, never silently lost
            records.append(
                BoundRecord(
                    id=f"{bound.id}_error",
                    lhs=math.nan,
                    rhs=math.nan,
                    relation=bound.relation,
                    slack=math.nan,
                    satisfied=False,
                    citation=f"{type(exc).__name__}: {exc}",
                )
            )
    records.sort(key=lambda r: r.id)

    aggregates = {"f_min": f_min(q), "f_max": f_max(q), "g_min": g_min(q)}
    for key in ("sigma1", "tau1", "d1", "lambda_phi"):
        try:
            aggregates[key] = getattr(ch, key)
        except Exception:  # noqa: BLE001
            aggregates[key] = math.nan
    return BoundReport(
        channel_label=ch.label or "channel",
        q=q,
        records=tuple(records),
        aggregates=aggregates,
    )
