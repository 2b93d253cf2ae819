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

import numpy as np

from .channels import Channel, ValidationError
from .entropy import map_entropy, output_entropy, receiver_entropy, renyi, spectrum_probabilities
from .matcore import reorder, singular_values
from .zoo import random_density, random_pure_state, rng_stream

# Bound satisfaction margin: slack >= -CHECK_TOL counts as satisfied.
CHECK_TOL = 1e-8


def f_min(q) -> float:
    """``min(q/(q-1), 2)`` with the limits 2 at ``q = 1`` and 1 at ``q = inf``."""
    q = _check_order(q)
    if math.isinf(q):
        return 1.0
    if q == 1.0:
        return 2.0
    return min(q / (q - 1.0), 2.0)


def f_max(q) -> float:
    """``max(q/(q-1), 2)``; diverges at ``q = 1``, where upper bounds drop out."""
    q = _check_order(q)
    if math.isinf(q):
        return 2.0
    if q == 1.0:
        return math.inf
    return max(q / (q - 1.0), 2.0)


def g_min(q) -> float:
    """``min(q/(2(q-1)), 2(q-1)/q)``: 0 at ``q = 1``, 1 at ``q = 2``, 1/2 at ``inf``."""
    q = _check_order(q)
    if math.isinf(q):
        return 0.5
    if q == 1.0:
        return 0.0
    return min(q / (2.0 * (q - 1.0)), 2.0 * (q - 1.0) / q)


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


def _record(rid: str, lhs: float, rhs: float, relation: str, citation: str) -> BoundRecord:
    if relation == "<=":
        slack = rhs - lhs
    elif relation == ">=":
        slack = lhs - rhs
    elif relation == "==":
        slack = -abs(lhs - rhs)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return BoundRecord(
        id=rid,
        lhs=float(lhs) + 0.0,  # +0.0 folds -0.0 into 0.0
        rhs=float(rhs) + 0.0,
        relation=relation,
        slack=float(slack) + 0.0,
        satisfied=bool(slack >= -CHECK_TOL),
        citation=citation,
    )


# ---------------------------------------------------------------------------
# largest singular value


def sigma1(ch: Channel) -> float:
    """Largest singular value of the superoperator matrix."""
    return ch.sigma1


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
    base = math.log(lam / x1)
    records = [
        _record("spectral_entropy_lower", sq, base, ">=", "ln(L/x1) <= S_q(X)")
    ]
    coeff = 1.0 if math.isinf(q) else q / (q - 1.0) if q > 1.0 else math.inf
    if math.isfinite(coeff):
        records.append(
            _record(
                "spectral_entropy_upper", sq, coeff * base, "<=", "S_q(X) <= q/(q-1) ln(L/x1)"
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
    lower = f_min(q) * math.log(lam_y / math.sqrt(x1 * lam_x))
    upper = f_max(q) * math.log(lam_y / x1)
    return [
        _record(
            "reordered_entropy_lower", sq, lower, ">=",
            "F_min ln(Ly/sqrt(x1 Lx)) <= S_q(Y)",
        ),
        _record(
            "reordered_entropy_upper", sq, upper, "<=", "S_q(Y) <= F_max ln(Ly/x1)"
        ),
    ]


# ---------------------------------------------------------------------------
# channel-level bounds


def channel_entropy_bounds(ch: Channel, q) -> list[BoundRecord]:
    """Individual ranges for the receiver and map entropies of a channel.

    Four bound pairs: each entropy is bounded by its own matrix's extreme
    singular values (``_self``) and, because the superoperator and the Choi
    matrix are entry reorderings of each other, by the partner matrix's
    extremes (``_cross``).  Upper bounds drop out at ``q = 1`` where their
    coefficients diverge.
    """
    q = _check_order(q)
    n = ch.dim
    lam, s1, d1 = ch.lambda_phi, ch.sigma1, ch.d1
    s_rec = receiver_entropy(ch, q)
    s_map = map_entropy(ch, q)
    fmin, fmax = f_min(q), f_max(q)
    self_coeff = 1.0 if math.isinf(q) else (q / (q - 1.0) if q > 1.0 else math.inf)

    records = [
        _record(
            "receiver_self_lower", s_rec, math.log(lam / s1), ">=",
            "ln(L/s1) <= S_q_rec",
        ),
        _record(
            "map_self_lower", s_map, math.log(n / d1), ">=", "ln(N/d1) <= S_q_map"
        ),
        _record(
            "receiver_cross_lower", s_rec,
            fmin * math.log(lam / math.sqrt(n * d1)), ">=",
            "F_min ln(L/sqrt(N d1)) <= S_q_rec",
        ),
        _record(
            "map_cross_lower", s_map,
            fmin * math.log(n / math.sqrt(s1 * lam)), ">=",
            "F_min ln(N/sqrt(s1 L)) <= S_q_map",
        ),
    ]
    if math.isfinite(self_coeff):
        records.append(
            _record(
                "receiver_self_upper", s_rec, self_coeff * math.log(lam / s1), "<=",
                "S_q_rec <= q/(q-1) ln(L/s1)",
            )
        )
        records.append(
            _record(
                "map_self_upper", s_map, self_coeff * math.log(n / d1), "<=",
                "S_q_map <= q/(q-1) ln(N/d1)",
            )
        )
    if math.isfinite(fmax):
        records.append(
            _record(
                "receiver_cross_upper", s_rec, fmax * math.log(lam / d1), "<=",
                "S_q_rec <= F_max ln(L/d1)",
            )
        )
        records.append(
            _record(
                "map_cross_upper", s_map, fmax * math.log(n / s1), "<=",
                "S_q_map <= F_max ln(N/s1)",
            )
        )
    return records


def sigma1_bound(ch: Channel) -> BoundRecord:
    """``sigma1 <= sqrt(N tau1)``; for bistochastic channels this forces 1."""
    return _record(
        "sigma1_vs_tau1", ch.sigma1, math.sqrt(ch.dim * ch.tau1), "<=",
        "s1 <= sqrt(N t1) <= sqrt(N)",
    )


def entropy_sum_lower(ch: Channel, q) -> BoundRecord:
    """Trade-off ``S_q_map + S_q_rec >= (F_min/2) ln(N/tau1)``.

    For bistochastic channels ``tau1 = 1/N`` makes the right side
    ``F_min ln N``; in general ``tau1 <= 1`` gives at least
    ``(F_min/2) ln N``, so the largest output eigenvalue interpolates
    between the two regimes.
    """
    q = _check_order(q)
    total = map_entropy(ch, q) + receiver_entropy(ch, q)
    bound = 0.5 * f_min(q) * math.log(ch.dim / ch.tau1)
    return _record(
        "entropy_sum_lower", total, bound, ">=",
        "S_q_map + S_q_rec >= (F_min/2) ln(N/t1)",
    )


def receiver_upper_value(lam: float, n_dim: int, q) -> float:
    """Largest ``S_q`` compatible with trace norm ``lam`` of an N^2 x N^2
    superoperator whose largest singular value is at least 1.

    The singular values majorize ``(1, (lam-1)/(N^2-1) x (N^2-1))``, whose
    normalized Rényi entropy this function evaluates; Schur concavity turns
    that into an upper bound.  The ``q = 1`` and ``q = inf`` limits are
    handled in closed form.
    """
    q = float(q)
    if math.isnan(q) or q < 0.0:
        raise ValueError(f"Rényi order must be >= 0, got {q}")
    if lam < 1.0 - 1e-9:
        raise ValidationError(
            f"trace norm {lam:.12g} below 1; not a trace-preserving channel's superoperator"
        )
    lam = max(float(lam), 1.0)
    rest = n_dim * n_dim - 1
    if math.isinf(q):
        return math.log(lam)
    if abs(q - 1.0) < 1e-6:
        t = lam - 1.0
        if t < 1e-300:
            return math.log(lam)
        return (t / lam) * math.log(rest / t) + math.log(lam)
    inner = lam ** (-q) + (lam - 1.0) ** q / (lam**q * rest ** (q - 1.0))
    return math.log(inner) / (1.0 - q)


def receiver_entropy_upper(ch: Channel, q) -> BoundRecord:
    """``S_q_rec`` cannot exceed the majorization bound set by ``L`` alone."""
    bound = receiver_upper_value(ch.lambda_phi, ch.dim, q)
    return _record(
        "receiver_majorization_upper", receiver_entropy(ch, q), bound, "<=",
        "S_q_rec <= S_q((1, (L-1)/(N^2-1) ...)/L)",
    )


def collision_identity(ch: Channel) -> BoundRecord:
    """Exact identity at ``q = 2``: ``S_2_map = S_2_rec + 2 ln N - 2 ln L``.

    It follows from the equality of Hilbert-Schmidt norms of the
    superoperator and its reshuffle.
    """
    lhs = map_entropy(ch, 2.0)
    rhs = receiver_entropy(ch, 2.0) + 2.0 * math.log(ch.dim) - 2.0 * math.log(ch.lambda_phi)
    return _record(
        "collision_identity", lhs, rhs, "==", "S_2_map == S_2_rec + 2 ln(N/L)"
    )


def collision_sum_upper(ch: Channel) -> BoundRecord:
    """``S_2_map + S_2_rec <= 2 ln(N(N+1)/2)``, tight on the mixture
    ``1/(N+1) id + N/(N+1) full-depolarizing``."""
    total = map_entropy(ch, 2.0) + receiver_entropy(ch, 2.0)
    bound = 2.0 * math.log(ch.dim * (ch.dim + 1) / 2.0)
    return _record(
        "collision_sum_upper", total, bound, "<=",
        "S_2_map + S_2_rec <= 2 ln(N(N+1)/2)",
    )


def map_entropy_lower(ch: Channel, q) -> BoundRecord:
    """``S_q_map >= F_min ln(N/L) + G_min S_q_rec`` for ``q in [1, inf]``."""
    q = _check_order(q)
    bound = f_min(q) * math.log(ch.dim / ch.lambda_phi) + g_min(q) * receiver_entropy(ch, q)
    return _record(
        "map_from_receiver_lower", map_entropy(ch, q), bound, ">=",
        "S_q_map >= F_min ln(N/L) + G_min S_q_rec",
    )


def interval_bounds(ch: Channel) -> list[BoundRecord]:
    """For channels mapping the state set onto a segment:
    ``S_rec <= ln N <= S_map`` at ``q = 1``."""
    log_n = math.log(ch.dim)
    return [
        _record(
            "interval_receiver_upper", receiver_entropy(ch, 1.0), log_n, "<=",
            "S_rec <= ln N (segment image)",
        ),
        _record(
            "interval_map_lower", map_entropy(ch, 1.0), log_n, ">=",
            "S_map >= ln N (block Choi structure)",
        ),
    ]


def output_entropy_sandwich(ch: Channel, q) -> list[BoundRecord]:
    """Estimate ``S_q_map`` from the image of the maximally mixed state.

    ``S_q_map <= ln N + S_q(Phi(1/N))`` for any order; at ``q = 1``
    additionally ``S_map >= ln N - S(Phi(1/N))``, and for any order
    ``S_q_map >= ln N - ln rank(Phi(1/N))``.  Constant channels
    ``rho -> xi`` saturate the upper branch.
    """
    q = float(q)
    if math.isnan(q) or q < 0.0:
        raise ValueError(f"Rényi order must be >= 0, got {q}")
    log_n = math.log(ch.dim)
    s_map = map_entropy(ch, q)
    s_out = output_entropy(ch, q)
    records = []
    if abs(q - 1.0) < 1e-6:
        records.append(
            _record(
                "map_output_lower", s_map, log_n - s_out, ">=",
                "ln N - S(Phi(1/N)) <= S_map",
            )
        )
    records.append(
        _record(
            "map_output_upper", s_map, log_n + s_out, "<=",
            "S_q_map <= ln N + S_q(Phi(1/N))",
        )
    )
    cutoff = 1e-9 * max(float(np.linalg.norm(ch.output_state)), 1e-300)
    rank = int(np.count_nonzero(ch.output_eigenvalues > cutoff))
    records.append(
        _record(
            "map_rank_lower", s_map, log_n - math.log(max(rank, 1)), ">=",
            "S_q_map >= ln N - ln rank(Phi(1/N))",
        )
    )
    return records


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
            "q": _json_number(self.q),
            "aggregates": {k: _json_number(v) for k, v in self.aggregates.items()},
            "records": [record_dict(r) for r in self.records],
        }

    def csv_rows(self) -> list[tuple]:
        """One row per record: label, q, id, lhs, rhs, slack, satisfied."""
        return [
            (self.channel_label, self.q, r.id, r.lhs, r.rhs, r.slack, r.satisfied)
            for r in self.records
        ]


def _json_number(x):
    """JSON-safe scalar: non-finite floats become strings."""
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return x


def record_dict(r: BoundRecord) -> dict:
    """JSON-safe dict form of a single record."""
    return {
        "id": r.id,
        "lhs": _json_number(r.lhs),
        "rhs": _json_number(r.rhs),
        "relation": r.relation,
        "slack": _json_number(r.slack),
        "satisfied": r.satisfied,
        "citation": r.citation,
    }


def applicable_bound_ids(q, include_interval: bool = False) -> list[str]:
    """Sorted record ids that :func:`evaluate_all` emits for a valid channel."""
    q = _check_order(q)
    ids = [
        "collision_identity",
        "collision_sum_upper",
        "entropy_sum_lower",
        "map_cross_lower",
        "map_from_receiver_lower",
        "map_output_upper",
        "map_rank_lower",
        "map_self_lower",
        "receiver_cross_lower",
        "receiver_majorization_upper",
        "receiver_self_lower",
        "sigma1_vs_tau1",
    ]
    if q > 1.0:
        ids += ["map_cross_upper", "map_self_upper", "receiver_cross_upper", "receiver_self_upper"]
    else:
        ids.append("map_output_lower")
    if include_interval:
        ids += ["interval_map_lower", "interval_receiver_upper"]
    return sorted(ids)


def evaluate_all(ch: Channel, q) -> BoundReport:
    """Run every applicable bound for ``ch`` at order ``q``.

    Individual failures (e.g. undefined quantities on a permissively built
    map) become per-record error entries instead of aborting the report.
    The interval-specific checks run only when the channel was constructed
    as an interval map.  Records are sorted by id.
    """
    q = _check_order(q)
    builders = [
        lambda: channel_entropy_bounds(ch, q),
        lambda: [sigma1_bound(ch)],
        lambda: [entropy_sum_lower(ch, q)],
        lambda: [receiver_entropy_upper(ch, q)],
        lambda: [collision_identity(ch)],
        lambda: [collision_sum_upper(ch)],
        lambda: [map_entropy_lower(ch, q)],
        lambda: output_entropy_sandwich(ch, q),
    ]
    names = [
        "channel_entropy_bounds",
        "sigma1_bound",
        "entropy_sum_lower",
        "receiver_entropy_upper",
        "collision_identity",
        "collision_sum_upper",
        "map_entropy_lower",
        "output_entropy_sandwich",
    ]
    if ch.meta.get("interval"):
        builders.append(lambda: interval_bounds(ch))
        names.append("interval_bounds")

    records: list[BoundRecord] = []
    for name, build in zip(names, builders):
        try:
            records.extend(build())
        except Exception as exc:  # noqa: BLE001 - reported, never silently lost
            records.append(
                BoundRecord(
                    id=f"{name}_error",
                    lhs=math.nan,
                    rhs=math.nan,
                    relation="<=",
                    slack=math.nan,
                    satisfied=False,
                    citation=f"{type(exc).__name__}: {exc}",
                )
            )
    records.sort(key=lambda r: r.id)

    aggregates = {"f_min": f_min(q), "f_max": f_max(q), "g_min": g_min(q)}
    for key, getter in (
        ("sigma1", lambda: ch.sigma1),
        ("tau1", lambda: ch.tau1),
        ("d1", lambda: ch.d1),
        ("lambda_phi", lambda: ch.lambda_phi),
    ):
        try:
            aggregates[key] = float(getter())
        except Exception:  # noqa: BLE001
            aggregates[key] = math.nan
    return BoundReport(
        channel_label=ch.label or "channel",
        q=q,
        records=tuple(records),
        aggregates=aggregates,
    )
