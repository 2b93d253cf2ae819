"""Command-line interface.

Four subcommands:

* ``analyze`` — full report (entropies, bounds, separability) for one
  channel described by a JSON file;
* ``scan`` — entropy-plane dataset over a sampled ensemble, CSV or JSON;
* ``curve`` — closed-form / parametric boundary curves on the plane;
* ``verify`` — randomized self-checks of the library's inequalities.

Determinism contract: identical command line plus seed produces
byte-identical output files.  ``scan`` works through its rows in chunks
whose size follows from ``SCAN_CHUNK_BYTES``; every row draws from its own
substream and every batched kernel treats each channel on its own, so the
bytes depend only on the arguments, never on the chunk size.  Exit codes:
0 success, 1 property violation, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys

import numpy as np

from . import bounds, entropy, separability, zoo
from .bounds import json_safe
from .channels import Channel, ValidationError, from_choi, from_kraus, from_superoperator

FAMILY_NAMES = (
    "identity",
    "depolarizing",
    "coarse_graining",
    "complete_contraction",
    "spontaneous_emission",
    "interval",
    "pauli",
    "reshuffle_invariant",
    "random_cptp",
    "random_bistochastic",
)

ENSEMBLES = (
    "random_cptp",
    "random_bistochastic",
    "random_pauli",
    "random_interval",
    "random_reshuffle_invariant",
    "depolarizing",
)

CURVES = ("ab", "interval_cd", "diagonal_Rinv")

# Smallest and largest system dimension N accepted by family specs and scan.
DIM_LIMITS = (2, 8)

# Byte budget of one stacked (B, N^2, N^2) complex array in a scan chunk;
# it sets the rows per chunk, so memory stays flat as N grows.
SCAN_CHUNK_BYTES = 1 << 16

SCAN_BASE_COLUMNS = (
    "label",
    "seed_index",
    "q",
    "s_map",
    "s_rec",
    "s_output",
    "sigma1",
    "tau1",
    "d1",
    "lambda_phi",
    "region",
)


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_q(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    try:
        q = float(t)
    except ValueError:
        raise ValueError(f"cannot parse Rényi order {text!r}") from None
    if math.isnan(q) or q < 0.0:
        raise ValueError(f"Rényi order must be >= 0 or 'inf', got {text!r}")
    return q


def _parse_q_list(text: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty q list")
    return [_parse_q(s) for s in items]


def _parse_entry(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        re_part, im_part = entry
        if isinstance(re_part, (int, float)) and isinstance(im_part, (int, float)):
            return complex(re_part, im_part)
    raise ValueError(f"{where}: matrix entries must be numbers or [re, im] pairs, got {entry!r}")


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{where}: expected a non-empty list of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError(f"{where}: rows must be non-empty and equally long")
    return np.array(
        [[_parse_entry(e, where) for e in row] for row in rows], dtype=complex
    )


def _number(value, field: str, integer: bool = False):
    """A spec's JSON number as a float, or as an int when ``integer``
    (integral floats such as ``2.0`` pass); ``ValueError`` names ``field``."""
    kind = "an integer" if integer else "a number"
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok and integer and not isinstance(value, numbers.Integral):
        ok = float(value).is_integer()
    if not ok:
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _param(params: dict, key: str, family: str, default=None, *, integer=False, many=False):
    """Family parameter ``key`` read by :func:`_number`, or a list of such
    numbers with ``many``; it is required unless it has a default."""
    if key not in params and default is None:
        raise ValueError(f"family {family!r}: missing parameter {key!r}")
    value = params.get(key, default)
    field = f"family {family!r}: parameter {key!r}"
    if not many:
        return _number(value, field, integer)
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of numbers, got {value!r}")
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(value)]


def _build_family(name: str, params: dict, dim: int) -> Channel:
    if name == "identity":
        return zoo.identity_channel(dim)
    if name == "depolarizing":
        return zoo.depolarizing(dim, _param(params, "alpha", name))
    if name == "coarse_graining":
        return zoo.coarse_graining(dim)
    if name == "complete_contraction":
        if "xi" in params:
            xi = _parse_matrix(params["xi"], "family complete_contraction, field xi")
        else:
            xi = np.eye(dim, dtype=complex) / dim
        return zoo.complete_contraction(xi)
    if name == "spontaneous_emission":
        return zoo.spontaneous_emission(dim)
    if name == "interval":
        return zoo.interval_channel(
            _param(params, "alpha", name),
            _param(params, "beta", name),
            _param(params, "phi1", name, 0.0),
            _param(params, "phi2", name, 0.0),
        )
    if name == "pauli":
        return zoo.pauli_channel(_param(params, "p", name, many=True))
    if name == "reshuffle_invariant":
        eta = _param(params, "eta", name, many=True)
        u = None
        if "u" in params:
            u = _parse_matrix(params["u"], "family reshuffle_invariant, field u")
        return zoo.reshuffle_invariant(eta, u)
    if name in ("random_cptp", "random_bistochastic"):
        seed, index = (_param(params, key, name, 0, integer=True) for key in ("seed", "index"))
        rng = zoo.rng_substream(seed, index)
        if name == "random_cptp":
            env_dim = _param(params, "env_dim", name, dim * dim, integer=True)
            return zoo.random_cptp(dim, env_dim, rng)
        return zoo.random_bistochastic(dim, _param(params, "k", name, 2, integer=True), rng)
    raise ValueError(f"unknown family {name!r}; valid names: {', '.join(FAMILY_NAMES)}")


def load_channel_spec(doc) -> Channel:
    """Build a channel from a parsed JSON document.

    Schema: ``{"dim": N, "form": "kraus"|"superoperator"|"choi"|"family",
    "matrices": [...], "family": {"name": ..., "params": {...}}}``.
    Complex entries are ``[re, im]`` pairs, matrices row-major.  The built
    channel's dimension must equal a declared ``dim`` and lie in
    ``DIM_LIMITS``.
    """
    if not isinstance(doc, dict):
        raise ValueError("channel spec must be a JSON object")
    form = doc.get("form")
    if form == "family":
        fam = doc.get("family")
        if not isinstance(fam, dict) or "name" not in fam:
            raise ValueError('family form needs a "family" object with a "name"')
        dim = _check_dim(_number(doc.get("dim", 2), "dim", integer=True), "dim")
        params = fam.get("params", {})
        if not isinstance(params, dict):
            raise ValueError('"params" must be an object')
        ch = _build_family(str(fam["name"]), params, dim)
        declared = dim if "dim" in doc else None
    elif form in ("kraus", "superoperator", "choi"):
        mats = doc.get("matrices")
        if not isinstance(mats, list) or not mats:
            raise ValueError(f'form {form!r} needs a non-empty "matrices" list')
        parsed = [_parse_matrix(m, f"matrices[{i}]") for i, m in enumerate(mats)]
        declared = _number(doc["dim"], "dim", integer=True) if "dim" in doc else None
        if form == "kraus":
            ch = from_kraus(parsed)
        else:
            if len(parsed) > 1:
                raise ValueError(f"form {form!r} takes exactly one matrix, got {len(parsed)}")
            maker = from_superoperator if form == "superoperator" else from_choi
            ch = maker(parsed[0], dim=declared)
    else:
        raise ValueError(
            f'unknown form {form!r}; expected "kraus", "superoperator", "choi" or "family"'
        )
    if declared is not None and ch.dim != declared:
        raise ValueError(f"declared dim {declared} but the channel has dim {ch.dim}")
    _check_dim(ch.dim, "dim")
    return ch


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    """Stable text form for CSV cells (floats as ``.17g``, so ``nan``,
    ``inf`` and ``-inf`` spell themselves)."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _fmt_column(values: list) -> list[str]:
    """:func:`_fmt` of every cell of a column of Python values."""
    if values and type(values[0]) is float:
        return [f"{x:.17g}" for x in values]
    return [_fmt(x) for x in values]


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _check_dim(dim: int, name: str) -> int:
    low, high = DIM_LIMITS
    if not low <= dim <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {dim}")
    return dim


def _gnuplot_script(csv_path: str, xcol: int, ycol: int, xlabel: str, ylabel: str) -> str:
    return (
        "set datafile separator comma\n"
        "set key off\n"
        f"set xlabel '{xlabel}'\n"
        f"set ylabel '{ylabel}'\n"
        f"plot '{csv_path}' using {xcol}:{ycol} every ::1 with points pt 7 ps 0.3\n"
    )


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.spec}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    ch = load_channel_spec(doc)
    q_list = _parse_q_list(args.q)

    report: dict = {
        "label": ch.label or "channel",
        "dim": ch.dim,
        "cp": ch.cp,
        "tp": ch.tp,
        "unital": ch.unital,
        "sigma1": ch.sigma1,
        "tau1": ch.tau1,
        "d1": ch.d1,
        "lambda_phi": ch.lambda_phi,
        "bloch_ellipsoid": None,
        "entropies": [],
        "bounds": [],
        "separability": [],
    }
    if ch.dim == 2 and ch.unital:
        report["bloch_ellipsoid"] = list(entropy.bloch_ellipsoid(ch))
    for q in q_list:
        ep = entropy.entropy_point(ch, q)
        report["entropies"].append(
            {"q": q, "s_map": ep.s_map, "s_rec": ep.s_rec, "s_output": ep.extras["s_output"]}
        )
        if q >= 1.0:
            report["bounds"].append(bounds.evaluate_all(ch, q).to_dict())
            verdict = separability.classify_region(ch, q).to_dict()
            verdict["q"] = q
            report["separability"].append(verdict)
    text = json.dumps(json_safe(report), indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# scan


def _chunk_rows(dim: int) -> int:
    """Rows per scan chunk: as many ``N^2 x N^2`` complex matrices as fit
    in ``SCAN_CHUNK_BYTES``, and at least one."""
    return max(1, SCAN_CHUNK_BYTES // (16 * dim**4))


def _sample_chunk(ensemble: str, dim: int, seed: int, indices: range, n: int):
    """Validated stack and labels of the scan rows ``indices``; every row of
    an ensemble that draws gets its own substream."""
    if ensemble == "depolarizing":
        return zoo.depolarizing_stack(dim, [i / (n - 1) if n > 1 else 0.0 for i in indices])
    rngs = [zoo.rng_substream(seed, i) for i in indices]
    if ensemble == "random_cptp":
        envs = [dim if i % 2 == 0 else dim * dim for i in indices]
        return zoo.random_cptp_stack(dim, envs, rngs, index=indices)
    if ensemble == "random_bistochastic":
        ks = [i % 4 + 1 for i in indices]
        return zoo.random_bistochastic_stack(dim, ks, rngs, index=indices)
    if dim != 2:
        raise ValueError(f"ensemble {ensemble!r} is defined for dim=2 only")
    return getattr(zoo, f"{ensemble}_stack")(rngs, index=indices)


def _scan_chunk(ensemble: str, dim: int, seed: int, indices: range, n: int, q: float, table):
    """Columns of the scan rows ``indices``: base columns, then one slack
    column per bound of ``table``, each with one entry per row."""
    stack, labels = _sample_chunk(ensemble, dim, seed, indices, n)
    point = entropy.entropy_columns(stack, q)
    columns = [[label.replace(",", ";") for label in labels], list(indices), [q] * len(indices)]
    columns += [point[name] for name in SCAN_BASE_COLUMNS[3:-1]]
    columns.append(separability.classify_regions(stack, q))
    for bound in table:
        try:
            slack = bounds.bound_columns(stack, q, bound)[2]
        except Exception as exc:  # noqa: BLE001 - any failure ends the scan, never a nan cell
            raise ValidationError(
                f"bound {bound.id} failed on seed_index {indices[0]}..{indices[-1]}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        bad = np.flatnonzero(~np.isfinite(slack))
        if bad.size:
            raise ValidationError(
                f"bound {bound.id} is not finite at seed_index {indices[bad[0]]} "
                f"(slack {slack[bad[0]]})"
            )
        columns.append(slack)
    return columns


def _scan_columns(ensemble: str, dim: int, seed: int, n: int, q: float, table) -> list[list]:
    """Every scan column over all ``n`` rows, as lists of Python values."""
    step = _chunk_rows(dim)
    columns: list[list] = [[] for _ in range(len(SCAN_BASE_COLUMNS) + len(table))]
    for start in range(0, n, step):
        indices = range(start, min(n, start + step))
        for column, part in zip(columns, _scan_chunk(ensemble, dim, seed, indices, n, q, table)):
            column.extend(part.tolist() if isinstance(part, np.ndarray) else part)
    return columns


def cmd_scan(args) -> int:
    if args.mode not in ("entropy_plane", "output_plane"):
        raise ValueError(f"unknown mode {args.mode!r}")
    if args.ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {args.ensemble!r}; valid: {', '.join(ENSEMBLES)}")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    _check_dim(args.dim, "--dim")
    q = _parse_q(args.q)
    if q < 1.0:
        raise ValueError("scan requires q >= 1 (bound columns are undefined below)")
    table = bounds.applicable_bounds(q, interval=(args.ensemble == "random_interval"))
    columns = list(SCAN_BASE_COLUMNS) + [f"slack_{b.id}" for b in table]
    values = _scan_columns(args.ensemble, args.dim, args.seed, args.n, q, table)

    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(map(",".join, zip(*map(_fmt_column, values))))
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "mode": args.mode,
            "ensemble": args.ensemble,
            "dim": args.dim,
            "n": args.n,
            "q": q,
            "seed": args.seed,
            "columns": columns,
            "rows": [list(row) for row in zip(*values)],
        }
        _write_text(args.out, json.dumps(json_safe(doc), indent=2, sort_keys=True) + "\n")
    if args.gnuplot:
        if args.mode == "output_plane":
            script = _gnuplot_script(args.out, 6, 4, "S_q(Phi(1/N))", "S_q^map")
        else:
            script = _gnuplot_script(args.out, 4, 5, "S_q^map", "S_q^rec")
        _write_text(args.gnuplot, script)
    return 0


# ---------------------------------------------------------------------------
# curve


def _curve_point(name: str, t: float) -> tuple[float, float]:
    if name == "ab":
        return zoo.depolarizing_curve_point(t)
    if name == "interval_cd":
        ch = zoo.interval_channel(1.0, t, 0.0, 0.0)
    elif name == "diagonal_Rinv":
        ch = zoo.reshuffle_invariant((t / 3.0, t / 3.0, 1.0 - 2.0 * t / 3.0))
    else:
        raise ValueError(f"unknown curve {name!r}; valid: {', '.join(CURVES)}")
    return entropy.map_entropy(ch, 1.0), entropy.receiver_entropy(ch, 1.0)


def cmd_curve(args) -> int:
    if args.name not in CURVES:
        raise ValueError(f"unknown curve {args.name!r}; valid: {', '.join(CURVES)}")
    if args.grid < 2:
        raise ValueError("--grid must be >= 2")
    lines = ["param,s_map,s_rec"]
    for i in range(args.grid):
        t = i / (args.grid - 1)
        s_map, s_rec = _curve_point(args.name, t)
        lines.append(f"{_fmt(t)},{_fmt(s_map)},{_fmt(s_rec)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.gnuplot:
        _write_text(args.gnuplot, _gnuplot_script(args.out, 2, 3, "S^map", "S^rec"))
    return 0


# ---------------------------------------------------------------------------
# verify


class _CheckResult:
    __slots__ = ("name", "checks", "worst_slack", "failures")

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.worst_slack = math.inf
        self.failures: list[str] = []

    def add(self, slack: float, reproducer: str, tol: float = 0.0) -> None:
        self.checks += 1
        if slack < self.worst_slack or math.isnan(slack):
            self.worst_slack = slack
        if not slack >= -tol:  # a nan slack fails too
            self.failures.append(reproducer)

    @property
    def failed(self) -> bool:
        # A check that ran no instance has shown nothing, so it fails.
        return not self.checks or bool(self.failures)

    def line(self) -> str:
        status = "FAIL" if self.failed else "PASS"
        worst = "inf" if math.isinf(self.worst_slack) else format(self.worst_slack, ".6e")
        text = f"{status} {self.name} checks={self.checks} worst_slack={worst}"
        if self.failed:
            text += f" reproducer={self.failures[0] if self.failures else 'no_instance'}"
        return text


def _mixed_qubit_channel(seed: int, index: int) -> Channel:
    rng = zoo.rng_substream(seed, index)
    kind = index % 4
    if kind == 0:
        return zoo.random_cptp(2, 2, rng)
    if kind == 1:
        return zoo.random_cptp(2, 4, rng)
    if kind == 2:
        return zoo.random_pauli_channel(rng)
    return zoo.random_bistochastic(2, index % 3 + 1, rng)


def _verify_bounds(n: int, seed: int) -> list[_CheckResult]:
    suite = _CheckResult("bounds.report_all_orders")
    floor = _CheckResult("bounds.bistochastic_floor")
    oracle = _CheckResult("bounds.sigma1_oracle_one_sided")
    for i in range(n):
        ch = _mixed_qubit_channel(seed, i)
        for q in (1.0, 1.5, 2.0, math.inf):
            report = bounds.evaluate_all(ch, q)
            for r in report.records:
                suite.add(r.slack, f"seed={seed},index={i},q={q},id={r.id}", bounds.CHECK_TOL)
    for i in range(n):
        rng = zoo.rng_substream(seed, 10_000 + i)
        ch = zoo.random_bistochastic(2, i % 4 + 1, rng)
        floor.add(1e-9 - abs(ch.sigma1 - 1.0), f"seed={seed},index={i},sigma1={ch.sigma1:.12g}")
        for q in (1.0, 2.0):
            total = entropy.map_entropy(ch, q) + entropy.receiver_entropy(ch, q)
            floor.add(
                total - bounds.f_min(q) * math.log(2.0),
                f"seed={seed},index={i},q={q},sum={total:.12g}",
                bounds.CHECK_TOL,
            )
    for i in range(min(n, 50)):
        ch = _mixed_qubit_channel(seed + 1, i)
        est = bounds.sigma1_variational(ch, budget=500, seed=seed + i)
        oracle.add(ch.sigma1 + 1e-9 - est, f"seed={seed},index={i},est={est:.12g}")
    return [suite, floor, oracle]


def _verify_lemmas(n: int, seed: int) -> list[_CheckResult]:
    from .matcore import q_norm, random_permutation, reorder

    interp = _CheckResult("lemmas.norm_interpolation")
    spectral = _CheckResult("lemmas.spectrum_vs_extremes")
    reordered = _CheckResult("lemmas.reordered_spectrum")
    invariance = _CheckResult("lemmas.reorder_norm_invariance")
    for i in range(n):
        rng = zoo.rng_substream(seed, i)
        size = int(rng.integers(4, 10))
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        perm = random_permutation(size * size, rng)
        y = reorder(m, perm)
        dev = abs(np.linalg.norm(m) - np.linalg.norm(y))
        invariance.add(1e-12 - dev, f"seed={seed},index={i},dev={dev:.3e}")
        for q in (1.5, 2.0, 4.0):
            lhs = q_norm(m, q)
            rhs = q_norm(m, 1.0) ** (1.0 / q) * q_norm(m, math.inf) ** ((q - 1.0) / q)
            interp.add(rhs - lhs, f"seed={seed},index={i},q={q}", 1e-10)
            for r in bounds.spectral_entropy_bounds(m, q):
                spectral.add(r.slack, f"seed={seed},index={i},q={q},id={r.id}", 1e-10)
            for r in bounds.reordered_entropy_bounds(m, perm, q):
                reordered.add(r.slack, f"seed={seed},index={i},q={q},id={r.id}", 1e-10)
    return [interp, spectral, reordered, invariance]


def _verify_separability(n: int, seed: int) -> list[_CheckResult]:
    soundness = _CheckResult("separability.ppt_implies_criteria")
    realign = _CheckResult("separability.ppt_implies_realignment")
    examples = _CheckResult("separability.region_examples")
    for i in range(n):
        ch = _mixed_qubit_channel(seed, i)
        _, ppt = separability.ppt_test(ch)
        if not ppt:
            continue
        value, _ = separability.realignment_test(ch)
        realign.add(
            1.0 + separability.REALIGNMENT_TOL - value, f"seed={seed},index={i},value={value:.12g}"
        )
        for q in (1.5, 2.0):
            for r in separability.separable_criteria(ch, q):
                soundness.add(r.slack, f"seed={seed},index={i},q={q},id={r.id}", bounds.CHECK_TOL)
    expected = [
        (zoo.identity_channel(2), "A"),
        (zoo.maximally_depolarizing(2), "C"),
        (zoo.coarse_graining(2), "C"),
        (zoo.depolarizing(2, 1.0 / 3.0), "C"),
    ]
    for ch, want in expected:
        got = separability.classify_region(ch, 2.0).region
        examples.add(
            0.0 if got == want else -1.0, f"label={ch.label},expected={want},got={got}"
        )
    return [soundness, realign, examples]


def _verify_zoo(n: int, seed: int) -> list[_CheckResult]:
    from .matcore import reshuffle

    conj = _CheckResult("zoo.reshuffle_conjugation_rule")
    rinv = _CheckResult("zoo.reshuffle_invariant_family")
    twirl = _CheckResult("zoo.pauli_uniform_is_depolarizing")
    curve = _CheckResult("zoo.depolarizing_curve_consistency")
    valid = _CheckResult("zoo.families_pass_validation")
    for i in range(n):
        rng = zoo.rng_substream(seed, i)
        sub = int(rng.integers(2, 4))
        xs = [
            rng.standard_normal((sub, sub)) + 1j * rng.standard_normal((sub, sub))
            for _ in range(4)
        ]
        y = rng.standard_normal((sub * sub, sub * sub)) + 1j * rng.standard_normal(
            (sub * sub, sub * sub)
        )
        lhs = reshuffle(np.kron(xs[0], xs[1]) @ y @ np.kron(xs[2], xs[3]))
        rhs = np.kron(xs[0], xs[2].T) @ reshuffle(y) @ np.kron(xs[1].T, xs[3])
        dev = float(np.linalg.norm(lhs - rhs))
        conj.add(1e-12 - dev, f"seed={seed},index={i},dev={dev:.3e}")
    for i in range(n):
        rng = zoo.rng_substream(seed, 20_000 + i)
        ch = zoo.random_reshuffle_invariant(rng)
        dev = float(np.linalg.norm(ch.choi - ch.superop))
        rinv.add(1e-10 - dev, f"seed={seed},index={i},dev={dev:.3e}")
        ent_dev = abs(entropy.map_entropy(ch, 2.0) - entropy.receiver_entropy(ch, 2.0))
        rinv.add(1e-10 - ent_dev, f"seed={seed},index={i},entropy_dev={ent_dev:.3e}")
    dev = float(
        np.linalg.norm(
            zoo.pauli_channel([0.25, 0.25, 0.25, 0.25]).superop - zoo.depolarizing(2, 0.0).superop
        )
    )
    twirl.add(1e-12 - dev, f"dev={dev:.3e}")
    for i in range(101):
        alpha = i / 100.0
        s_map, s_rec = zoo.depolarizing_curve_point(alpha)
        ch = zoo.depolarizing(2, alpha)
        curve.add(
            1e-10 - abs(s_map - entropy.map_entropy(ch, 1.0)), f"alpha={alpha:.2f},side=map"
        )
        curve.add(
            1e-10 - abs(s_rec - entropy.receiver_entropy(ch, 1.0)), f"alpha={alpha:.2f},side=rec"
        )
    for i in range(min(n, 100)):
        rng = zoo.rng_substream(seed, 30_000 + i)
        for sample in (zoo.random_interval_channel, zoo.random_pauli_channel):
            # a sampled channel passed validation; a failed one raised
            try:
                valid.add(0.0, f"seed={seed},index={i},label={sample(rng).label}")
            except ValidationError as exc:
                valid.add(-1.0, f"seed={seed},index={i},error={exc}")
    return [conj, rinv, twirl, curve, valid]


def cmd_verify(args) -> int:
    suites = {
        "bounds": _verify_bounds,
        "lemmas": _verify_lemmas,
        "separability": _verify_separability,
        "zoo": _verify_zoo,
    }
    if args.suite != "all" and args.suite not in suites:
        raise ValueError(f"unknown suite {args.suite!r}; valid: all, {', '.join(suites)}")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    selected = list(suites) if args.suite == "all" else [args.suite]
    results: list[_CheckResult] = []
    for name in selected:
        results.extend(suites[name](args.n, args.seed))
    if args.inject_invalid:
        bad = from_superoperator(
            1.5 * np.eye(4, dtype=complex), permissive=True, label="invalid(1.5*id)"
        )
        control = _CheckResult("verify.negative_control")
        report = bounds.evaluate_all(bad, 2.0)
        for r in report.records:
            control.add(r.slack, f"injected,id={r.id}", bounds.CHECK_TOL)
        results.append(control)
    for res in results:
        print(res.line())
    failed = sum(1 for r in results if r.failed)
    print(
        f"verify: {len(results) - failed} passed, {failed} failed "
        f"(suite={args.suite}, n={args.n}, seed={args.seed})"
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Quantum channels on the entropy plane: analyze, scan, curve, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one channel from a JSON spec")
    p.add_argument("--spec", required=True, help="path to a ChannelSpec JSON file")
    p.add_argument("--q", default="1,2", help="comma-separated Rényi orders (e.g. 1,2,inf)")
    p.add_argument("--out", default="-", help="output path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="entropy-plane dataset over a sampled ensemble")
    p.add_argument("--mode", default="entropy_plane", help="entropy_plane or output_plane")
    p.add_argument("--ensemble", default="random_cptp", help=", ".join(ENSEMBLES))
    p.add_argument("--n", type=int, default=1000, help="number of sampled channels")
    p.add_argument(
        "--dim", type=int, default=2, help="system dimension N in [%d, %d]" % DIM_LIMITS
    )
    p.add_argument("--q", default="1", help="Rényi order (single value, >= 1 or inf)")
    p.add_argument("--seed", type=int, default=0, help="base seed; per-index substreams")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("curve", help="parametric boundary curves on the plane")
    p.add_argument("--name", required=True, help=", ".join(CURVES))
    p.add_argument("--grid", type=int, default=101, help="number of grid points (>= 2)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="randomized self-checks of the library's claims")
    p.add_argument("--suite", default="all", help="all, bounds, lemmas, separability, zoo")
    p.add_argument("--n", type=int, default=200, help="random instances per check")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--inject-invalid",
        action="store_true",
        help="append a deliberately invalid channel; its violations must be caught (exit 1)",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
