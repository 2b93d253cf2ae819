"""Command-line interface.

Four subcommands:

* ``analyze`` — full report (entropies, bounds, separability) for one
  channel described by a JSON file;
* ``scan`` — entropy-plane dataset over a sampled ensemble, CSV or JSON;
* ``curve`` — closed-form / parametric boundary curves on the plane;
* ``verify`` — randomized self-checks of the library's inequalities.

Determinism contract: identical command line plus seed produces
byte-identical output files.  ``scan`` works through its rows in chunks
whose size follows from ``SCAN_CHUNK_BYTES`` (256 KiB: 4 rows at N = 8,
1024 at N = 2); every row draws from its own substream and every batched
kernel treats each channel on its own, so the bytes depend only on the
arguments, never on the chunk size.  Exit codes: 0 success, 1 property
violation, 2 input error.

Every matrix the CLI handles is at most 64 x 64 (N <= 8), where handing a
LAPACK call to a second OpenBLAS thread costs more than the call: under load
the first threaded call of a scan waited 20-31 ms for a core, against about
25 ms for the whole N = 8 scan.  So :func:`main` runs each call on one BLAS
thread and restores the caller's count afterwards (:func:`_one_blas_thread`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import numbers
import sys

import numpy as np

from . import bounds, entropy, separability, zoo
from .bounds import json_safe
from .channels import Channel, ChannelStack, ValidationError
from .channels import from_choi, from_kraus, from_superoperator
from .matcore import kron, random_permutation, renyi_order, reshuffle

ENSEMBLES = (
    "random_cptp",
    "random_bistochastic",
    "random_pauli",
    "random_interval",
    "random_reshuffle_invariant",
    "depolarizing",
)

CURVES = ("ab", "interval_cd", "diagonal_Rinv")

# Smallest and largest system dimension N accepted by family specs and scan,
# and of the sizes k (random_bistochastic) and env_dim (random_cptp).
DIM_LIMITS = (2, 8)
SIZE_LIMITS = (1, 1024)

# Byte budget of one stacked (B, N^2, N^2) complex array in a scan chunk;
# it sets the rows per chunk, so memory stays flat as N grows.  256 KiB holds
# 4 rows at N = 8, which share one bound table, spectra and validation pass;
# 512 KiB was 2% faster there for 1 MB more peak RSS (2-core x86).
SCAN_CHUNK_BYTES = 1 << 18

SCAN_BASE_COLUMNS = ("label", "seed_index", "q", "s_map", "s_rec", *entropy.POINT_EXTRAS, "region")

# Scan modes: the (column, axis label) of x and y in the gnuplot script.
SCAN_MODES = {
    "entropy_plane": (("s_map", "S_q^map"), ("s_rec", "S_q^rec")),
    "output_plane": (("s_output", "S_q(Phi(1/N))"), ("s_map", "S_q^map")),
}


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
    return renyi_order(q)


def _parse_q_list(text: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty q list")
    return [_parse_q(s) for s in items]


def _parse_entry(entry, where: str) -> complex:
    field = f"{where}: matrix entry (number or [re, im] pair)"
    parts = entry if isinstance(entry, (list, tuple)) and len(entry) == 2 else [entry]
    return complex(*(_number(x, field) for x in parts))


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
    """A spec's finite JSON number as a float, or as an int when ``integer``
    (integral floats such as ``2.0`` pass); ``ValueError`` names ``field``."""
    kind = "an integer" if integer else "a finite number"
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok and not (integer and isinstance(value, numbers.Integral)):
        ok = float(value).is_integer() if integer else abs(value) <= sys.float_info.max
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


def _sampled_family(name: str, params: dict, dim: int) -> Channel:
    """One ``zoo.<name>`` draw, from substream ``(seed, index)`` of the params."""
    seed, index = (_param(params, key, name, 0, integer=True) for key in ("seed", "index"))
    key, default = ("env_dim", dim * dim) if name == "random_cptp" else ("k", 2)
    size = _param(params, key, name, default, integer=True)
    _check_range(size, f"family {name!r}: parameter {key!r}", SIZE_LIMITS)
    return getattr(zoo, name)(dim, size, zoo.rng_substream(seed, index))


def _field_matrix(params: dict, name: str, key: str, default=None):
    """Matrix field ``key`` of a family spec, or ``default`` when it is absent."""
    if key not in params:
        return default
    return _parse_matrix(params[key], f"family {name}, field {key}")


# Family spec name -> builder(name, params, dim); zoo is read at call time.
FAMILIES = {
    "identity": lambda name, params, dim: zoo.identity_channel(dim),
    "depolarizing": lambda name, params, dim: zoo.depolarizing(dim, _param(params, "alpha", name)),
    "coarse_graining": lambda name, params, dim: zoo.coarse_graining(dim),
    "complete_contraction": lambda name, params, dim: zoo.complete_contraction(
        _field_matrix(params, name, "xi", np.eye(dim, dtype=complex) / dim)
    ),
    "spontaneous_emission": lambda name, params, dim: zoo.spontaneous_emission(dim),
    "interval": lambda name, params, dim: zoo.interval_channel(
        _param(params, "alpha", name),
        _param(params, "beta", name),
        _param(params, "phi1", name, 0.0),
        _param(params, "phi2", name, 0.0),
    ),
    "pauli": lambda name, params, dim: zoo.pauli_channel(_param(params, "p", name, many=True)),
    "reshuffle_invariant": lambda name, params, dim: zoo.reshuffle_invariant(
        _param(params, "eta", name, many=True), _field_matrix(params, name, "u")
    ),
    "random_cptp": _sampled_family,
    "random_bistochastic": _sampled_family,
}


def load_channel_spec(doc) -> Channel:
    """Build a channel from a parsed JSON document.

    Schema: ``{"dim": N, "form": "kraus"|"superoperator"|"choi"|"family",
    "matrices": [...], "family": {"name": ..., "params": {...}}}``.
    Complex entries are ``[re, im]`` pairs, matrices row-major.  The built
    channel's dimension must equal a declared ``dim`` and lie in
    ``DIM_LIMITS``; entries whose arithmetic overflows raise ``ValueError``.
    """
    with np.errstate(over="raise", invalid="raise"):
        try:
            ch = _spec_channel(doc)
        except FloatingPointError as exc:
            raise ValueError(f"channel spec is out of floating-point range: {exc}") from None
    _check_range(ch.dim, "dim")
    return ch


def _spec_channel(doc) -> Channel:
    # load_channel_spec before its range and overflow checks
    if not isinstance(doc, dict):
        raise ValueError("channel spec must be a JSON object")
    form = doc.get("form")
    if form == "family":
        fam = doc.get("family")
        if not isinstance(fam, dict) or "name" not in fam:
            raise ValueError('family form needs a "family" object with a "name"')
        dim = _check_range(_number(doc.get("dim", 2), "dim", integer=True), "dim")
        params = fam.get("params", {})
        if not isinstance(params, dict):
            raise ValueError('"params" must be an object')
        name = str(fam["name"])
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}; valid names: {', '.join(FAMILIES)}")
        ch = FAMILIES[name](name, params, dim)
        declared = dim if "dim" in doc else None
    elif form in ("kraus", "superoperator", "choi"):
        mats = doc.get("matrices")
        if not isinstance(mats, list) or not mats:
            raise ValueError(f'form {form!r} needs a non-empty "matrices" list')
        # the channel costs N^6 to build, so N is checked before building
        if form == "kraus":
            _check_range(len(mats), "number of Kraus operators", SIZE_LIMITS)
        for m in mats:
            if isinstance(m, list) and m:
                _check_range(len(m) if form == "kraus" else math.isqrt(len(m)), "dim")
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


def _csv_rows(columns: list[list]) -> list[str]:
    """CSV lines of the rows of ``columns`` (lists of Python values), every
    cell spelled as :func:`_fmt` spells it.

    Each row takes one ``%`` format: ``%.17g`` for a column of floats (which
    ``%`` spells as :func:`format` does) and ``%s`` for any other column,
    whose cells :func:`_fmt` spells beforehand.
    """
    floats = [bool(values) and type(values[0]) is float for values in columns]
    row_fmt = ",".join("%.17g" if f else "%s" for f in floats)
    cells = [values if f else list(map(_fmt, values)) for f, values in zip(floats, columns)]
    return [row_fmt % row for row in zip(*cells)]


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _check_range(value: int, name: str, limits=DIM_LIMITS) -> int:
    low, high = limits
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


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
        **{key: getattr(ch, key) for key in entropy.DIAGNOSTICS},
        "bloch_ellipsoid": None,
        "entropies": [],
        "bounds": [],
        "separability": [],
    }
    if ch.dim == 2 and ch.unital:
        report["bloch_ellipsoid"] = list(entropy.bloch_ellipsoid(ch))
    ppt = None  # the PPT spectrum does not depend on q: taken once
    for q in q_list:
        ep = entropy.entropy_point(ch, q)
        report["entropies"].append(
            {"q": q, "s_map": ep.s_map, "s_rec": ep.s_rec, "s_output": ep.extras["s_output"]}
        )
        if q >= 1.0:
            report["bounds"].append(bounds.evaluate_all(ch, q).to_dict())
            if ppt is None:
                ppt = separability.ppt_stack(ch.stack)
            verdict = separability.classify_region(ch, q, ppt).to_dict()
            report["separability"].append({**verdict, "q": q})
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
    """Validated stack and labels of the scan (or verify) rows ``indices``;
    every row of an ensemble that draws gets its own substream."""
    if ensemble == "depolarizing":
        return zoo.depolarizing_stack(dim, [i / (n - 1) if n > 1 else 0.0 for i in indices])
    rngs = zoo.rng_substreams(seed, indices)
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
    parts = bounds.table_columns(stack, q, table)
    criteria, regions = separability.verdict_columns(stack, q)
    # Any failure ends the scan, never a nan cell or a region read off one.
    # The message names the first bad bound in table order (the bounds, then
    # the criteria), at its lowest row.
    for checked, (_, _, slack, errors) in ((table, parts), (separability.CRITERIA, criteria)):
        for j, bound in enumerate(checked):
            bad = np.flatnonzero(~np.isfinite(slack[:, j]))
            if bad.size:
                r, exc = bad[0], errors[bad[0], j]
                if exc is None:
                    why = f"is not finite at seed_index {indices[r]} (slack {slack[r, j]})"
                else:
                    why = f"failed on seed_index {indices[r]}: {type(exc).__name__}: {exc}"
                raise ValidationError(f"bound {bound.id} {why}")
    columns.append(regions)
    return columns + list(parts[2].T)


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
    if args.mode not in SCAN_MODES:
        raise ValueError(f"unknown mode {args.mode!r}")
    if args.ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {args.ensemble!r}; valid: {', '.join(ENSEMBLES)}")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    _check_range(args.dim, "--dim")
    q = _parse_q(args.q)
    if q < 1.0:
        raise ValueError("scan requires q >= 1 (bound columns are undefined below)")
    table = bounds.applicable_bounds(q, interval=(args.ensemble == "random_interval"))
    columns = list(SCAN_BASE_COLUMNS) + [f"slack_{b.id}" for b in table]
    values = _scan_columns(args.ensemble, args.dim, args.seed, args.n, q, table)

    if args.format == "csv":
        _write_text(args.out, "\n".join([",".join(columns), *_csv_rows(values)]) + "\n")
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
        (x, xlabel), (y, ylabel) = SCAN_MODES[args.mode]
        xcol, ycol = (SCAN_BASE_COLUMNS.index(name) + 1 for name in (x, y))
        _write_text(args.gnuplot, _gnuplot_script(args.out, xcol, ycol, xlabel, ylabel))
    return 0


# ---------------------------------------------------------------------------
# curve


def _curve_point(name: str, t: float) -> tuple[float, float]:
    if name == "ab":
        return zoo.depolarizing_curve_point(t)
    if name == "interval_cd":
        ch = zoo.interval_channel(1.0, t, 0.0, 0.0)
    else:  # diagonal_Rinv
        ch = zoo.reshuffle_invariant((t / 3.0, t / 3.0, 1.0 - 2.0 * t / 3.0))
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


def _check(name: str, slacks, reproducer, tol=0.0) -> str:
    """Verify line of check ``name``, given an array of slacks, one per instance.

    An instance passes when its slack is at least ``-tol`` (``tol``
    broadcasts against ``slacks``), so a nan slack fails and makes the worst
    slack nan.  ``reproducer(*index)`` names the instance ``slacks[index]``;
    it is called once, for the first failing instance in C order.  A check
    that ran no instance has shown nothing, so it fails.
    """
    slacks = np.asarray(slacks, dtype=float)
    if not slacks.size:
        return f"FAIL {name} checks=0 worst_slack=inf reproducer=no_instance"
    bad = np.flatnonzero(~(slacks >= -np.asarray(tol)))
    worst = f"checks={slacks.size} worst_slack={slacks.min():.6e}"
    if not bad.size:
        return f"PASS {name} {worst}"
    return f"FAIL {name} {worst} reproducer={reproducer(*np.unravel_index(bad[0], slacks.shape))}"


def _mixed_qubit_stacks(seed: int, n: int) -> list[tuple[ChannelStack, list[int]]]:
    """Qubit channels ``0..n-1`` as ``(stack, indices)`` groups, one per sampler.

    Channel ``i`` draws from ``rng_substream(seed, i)``.  By ``i % 4`` it is
    a random CPTP map with a 2-level (0) or 4-level (1) environment, a
    random Pauli channel (2), or a mixture of ``i % 3 + 1`` Haar unitary
    conjugations (3).  Empty groups are left out.
    """
    groups = []
    for kinds in ((0, 1), (2,), (3,)):
        idx = [i for i in range(n) if i % 4 in kinds]
        if not idx:
            continue
        rngs = zoo.rng_substreams(seed, idx)
        if kinds == (0, 1):
            envs = [2 if i % 4 == 0 else 4 for i in idx]
            stack, _ = zoo.random_cptp_stack(2, envs, rngs, index=idx)
        elif kinds == (2,):
            stack, _ = zoo.random_pauli_stack(rngs, index=idx)
        else:
            ks = [i % 3 + 1 for i in idx]
            stack, _ = zoo.random_bistochastic_stack(2, ks, rngs, index=idx)
        groups.append((stack, idx))
    return groups


def _verify_bounds(n: int, seed: int, qubits) -> list[str]:
    # One column per (q, bound id) of the report at each order, so the flat
    # order of the (channel, column) slacks is (index, q, id).
    tables = [(q, bounds.applicable_bounds(q)) for q in (1.0, 1.5, 2.0, math.inf)]
    columns = [(q, b.id) for q, table in tables for b in table]
    slack = np.empty((n, len(columns)))
    errors = np.empty(slack.shape, dtype=object)
    for stack, idx in qubits():
        parts = [bounds.table_columns(stack, q, table) for q, table in tables]
        slack[idx] = np.hstack([part[2] for part in parts])
        errors[idx] = np.hstack([part[3] for part in parts])

    def report_case(i: int, j: int) -> str:
        q, rid = columns[j]
        suffix = "" if errors[i, j] is None else "_error"
        return f"seed={seed},index={i},q={q},id={rid}{suffix}"

    lines = [_check("bounds.report_all_orders", slack, report_case, bounds.CHECK_TOL)]

    stack, _ = _sample_chunk("random_bistochastic", 2, seed, range(10_000, 10_000 + n), n)
    sums = [
        entropy.entropies(stack, "map", q) + entropy.entropies(stack, "receiver", q)
        for q in (1.0, 2.0)
    ]
    floor_slack = [1e-9 - np.abs(stack.sigma1 - 1.0)]
    floor_slack += [total - bounds.f_min(q) * math.log(2.0) for q, total in zip((1.0, 2.0), sums)]

    def floor_case(i: int, c: int) -> str:
        if c == 0:
            return f"seed={seed},index={i},sigma1={stack.sigma1[i]:.12g}"
        return f"seed={seed},index={i},q={(1.0, 2.0)[c - 1]},sum={sums[c - 1][i]:.12g}"

    tols = [0.0, bounds.CHECK_TOL, bounds.CHECK_TOL]
    lines.append(
        _check("bounds.bistochastic_floor", np.column_stack(floor_slack), floor_case, tols)
    )

    m = min(n, 50)
    est, oracle_slack = np.empty(m), np.empty(m)
    for stack, idx in _mixed_qubit_stacks(seed + 1, m):
        est[idx] = bounds.sigma1_search(stack, 500, [seed + i for i in idx])
        oracle_slack[idx] = stack.sigma1 + 1e-9 - est[idx]
    lines.append(
        _check(
            "bounds.sigma1_oracle_one_sided",
            oracle_slack,
            lambda k: f"seed={seed},index={k},est={est[k]:.12g}",
        )
    )
    return lines


def _verify_lemmas(n: int, seed: int, qubits) -> list[str]:
    orders = (1.5, 2.0, 4.0)
    draws = []  # (m, perm) of matrix i, from its own substream
    for rng in zoo.rng_substreams(seed, range(n)):
        size = int(rng.integers(4, 10))
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        draws.append((m, random_permutation(size * size, rng)))
    interp, dev = np.empty((n, len(orders))), np.empty(n)
    slack = np.empty((n, len(orders), len(bounds.LEMMA_ROWS)))  # (index, q, row)
    for size in sorted({len(m) for m, _ in draws}):  # one stack per matrix size
        idx = [i for i, (m, _) in enumerate(draws) if len(m) == size]
        m, perm = (np.array([draws[i][k] for i in idx]) for k in (0, 1))
        sx, y, sy = bounds.lemma_spectra(m, perm)
        # one norm per matrix: a stacked norm adds up the entries in another order
        dev[idx] = [abs(np.linalg.norm(a) - np.linalg.norm(b)) for a, b in zip(m, y)]
        extremes = list(zip(sx.sum(axis=-1).tolist(), sx[:, 0].tolist()))  # trace, spectral
        for a, q in enumerate(orders):
            # Schatten norms from sx; the outer powers act on Python floats, as
            # in q_norm, since an array ** rounds differently
            sums = np.sum(sx**q, axis=-1).tolist()
            interp[idx, a] = [
                t ** (1.0 / q) * x1 ** ((q - 1.0) / q) - p ** (1.0 / q)
                for (t, x1), p in zip(extremes, sums)
            ]
            slack[idx, a] = bounds.lemma_columns(sx, sy, q)[2]

    def interp_case(i: int, a: int) -> str:
        return f"seed={seed},index={i},q={orders[a]}"

    def lemma_check(name: str, on_y: bool) -> str:
        # every order exceeds 1, so lemma_columns gives every row of LEMMA_ROWS
        cols = [j for j, row in enumerate(bounds.LEMMA_ROWS) if row.on_y == on_y]
        ids = [bounds.LEMMA_ROWS[j].id for j in cols]

        def case(i: int, a: int, j: int) -> str:
            return f"seed={seed},index={i},q={orders[a]},id={ids[j]}"

        return _check(name, slack[..., cols], case, 1e-10)

    return [
        _check("lemmas.norm_interpolation", interp, interp_case, 1e-10),
        lemma_check("lemmas.spectrum_vs_extremes", on_y=False),
        lemma_check("lemmas.reordered_spectrum", on_y=True),
        _check(
            "lemmas.reorder_norm_invariance",
            1e-12 - dev,
            lambda k: f"seed={seed},index={k},dev={dev[k]:.3e}",
        ),
    ]


def _verify_separability(n: int, seed: int, qubits) -> list[str]:
    orders = (1.5, 2.0)
    ppt, value, margin = np.zeros(n, dtype=bool), np.empty(n), np.empty(n)
    criteria = np.empty((n, len(orders), len(separability.CRITERIA)))
    errors = np.empty(criteria.shape, dtype=object)
    for stack, idx in qubits():
        value[idx], margin[idx] = separability.realignment_stack(stack)
        ppt[idx] = separability.ppt_stack(stack)[1]
        for a, q in enumerate(orders):
            parts = bounds.table_columns(stack, q, separability.CRITERIA)
            criteria[idx, a], errors[idx, a] = parts[2:]
    # Separable (PPT) qubit channels must pass realignment and the criteria.
    rows = np.flatnonzero(ppt)

    def criteria_case(r: int, a: int, b: int) -> str:
        q, rid = orders[a], separability.CRITERIA[b].id
        suffix = "" if errors[rows[r], a, b] is None else "_error"
        return f"seed={seed},index={rows[r]},q={q},id={rid}{suffix}"

    cases = [
        (ch.label, want, separability.classify_region(ch, 2.0).region)
        for ch, want in (
            (zoo.identity_channel(2), "A"),
            (zoo.maximally_depolarizing(2), "C"),
            (zoo.coarse_graining(2), "C"),
            (zoo.depolarizing(2, 1.0 / 3.0), "C"),
        )
    ]
    return [
        _check(
            "separability.ppt_implies_criteria", criteria[rows], criteria_case, bounds.CHECK_TOL
        ),
        _check(
            "separability.ppt_implies_realignment",
            margin[rows],
            lambda k: f"seed={seed},index={rows[k]},value={value[rows[k]]:.12g}",
        ),
        _check(
            "separability.region_examples",
            [0.0 if got == want else -1.0 for _, want, got in cases],
            lambda k: "label={},expected={},got={}".format(*cases[k]),
        ),
    ]


def _verify_zoo(n: int, seed: int, qubits) -> list[str]:
    draws = []  # factors x0..x3 and matrix y of instance i, from its own substream
    for rng in zoo.rng_substreams(seed, range(n)):
        sub = int(rng.integers(2, 4))
        shapes = [(sub, sub)] * 4 + [(sub * sub, sub * sub)]
        draws.append([rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes])
    devs = np.empty(n)
    for sub in sorted({len(d[0]) for d in draws}):  # one stack per factor size
        idx = [i for i, d in enumerate(draws) if len(d[0]) == sub]
        x0, x1, x2, x3, y = (np.array([draws[i][k] for i in idx]) for k in range(5))
        lhs = reshuffle(kron(x0, x1) @ y @ kron(x2, x3))
        rhs = kron(x0, x2.swapaxes(1, 2)) @ reshuffle(y) @ kron(x1.swapaxes(1, 2), x3)
        devs[idx] = [np.linalg.norm(d) for d in lhs - rhs]  # one norm per matrix
    lines = [
        _check(
            "zoo.reshuffle_conjugation_rule",
            1e-12 - devs,
            lambda k: f"seed={seed},index={k},dev={devs[k]:.3e}",
        )
    ]

    stack, _ = _sample_chunk("random_reshuffle_invariant", 2, seed, range(20_000, 20_000 + n), n)
    # one matrix at a time, so the norm adds up its entries as for one channel
    dev = np.array([np.linalg.norm(stack.choi[r] - stack.superop[r]) for r in range(n)])
    s_map, s_rec = (entropy.entropies(stack, kind, 2.0) for kind in ("map", "receiver"))
    ent_dev = np.abs(s_map - s_rec)
    lines.append(
        _check(
            "zoo.reshuffle_invariant_family",
            1e-10 - np.column_stack([dev, ent_dev]),
            lambda i, c: f"seed={seed},index={i},"
            + (f"dev={dev[i]:.3e}" if c == 0 else f"entropy_dev={ent_dev[i]:.3e}"),
        )
    )

    twirl_dev = float(
        np.linalg.norm(
            zoo.pauli_channel([0.25, 0.25, 0.25, 0.25]).superop - zoo.depolarizing(2, 0.0).superop
        )
    )
    lines.append(
        _check(
            "zoo.pauli_uniform_is_depolarizing",
            [1e-12 - twirl_dev],
            lambda k: f"dev={twirl_dev:.3e}",
        )
    )

    alphas = [i / 100.0 for i in range(101)]
    stack, _ = zoo.depolarizing_stack(2, alphas)
    exact = np.array([zoo.depolarizing_curve_point(alpha) for alpha in alphas])
    got = np.column_stack(
        [entropy.entropies(stack, "map", 1.0), entropy.entropies(stack, "receiver", 1.0)]
    )
    lines.append(
        _check(
            "zoo.depolarizing_curve_consistency",
            1e-10 - np.abs(exact - got),
            lambda i, c: f"alpha={alphas[i]:.2f},side={('map', 'rec')[c]}",
        )
    )

    # Each substream draws its interval map, then its Pauli channel; when a
    # stack fails validation, fresh substreams redraw one sample at a time.
    m = min(n, 100)
    errors = [None] * (2 * m)  # None for a sample that passed validation
    rngs = zoo.rng_substreams(seed, range(30_000, 30_000 + m))
    try:
        zoo.random_interval_stack(rngs)
        zoo.random_pauli_stack(rngs)
    except ValidationError:
        for i, rng in enumerate(zoo.rng_substreams(seed, range(30_000, 30_000 + m))):
            for j, sample in enumerate((zoo.random_interval_channel, zoo.random_pauli_channel)):
                try:
                    sample(rng)
                except ValidationError as exc:
                    errors[2 * i + j] = f"seed={seed},index={i},error={exc}"
    lines.append(
        _check(
            "zoo.families_pass_validation",
            [0.0 if e is None else -1.0 for e in errors],
            errors.__getitem__,
        )
    )
    return lines


# Each suite takes (n, seed, qubits); qubits() returns the run's
# _mixed_qubit_stacks(seed, n), built on the first call of the run.
SUITES = {
    "bounds": _verify_bounds,
    "lemmas": _verify_lemmas,
    "separability": _verify_separability,
    "zoo": _verify_zoo,
}


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; valid: all, {', '.join(SUITES)}")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    qubits = functools.cache(functools.partial(_mixed_qubit_stacks, args.seed, args.n))
    lines = [line for name in selected for line in SUITES[name](args.n, args.seed, qubits)]
    if args.inject_invalid:
        bad = from_superoperator(
            1.5 * np.eye(4, dtype=complex), permissive=True, label="invalid(1.5*id)"
        )
        records = bounds.evaluate_all(bad, 2.0).records
        lines.append(
            _check(
                "verify.negative_control",
                [r.slack for r in records],
                lambda k: f"injected,id={records[k].id}",
                bounds.CHECK_TOL,
            )
        )
    print("\n".join(lines))
    failed = sum(line.startswith("FAIL") for line in lines)
    print(
        f"verify: {len(lines) - failed} passed, {failed} failed "
        f"(suite={args.suite}, n={args.n}, seed={args.seed})"
    )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: one error: line, exit 2
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--mode", default="entropy_plane", help=" or ".join(SCAN_MODES))
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
    p.add_argument("--suite", default="all", help=", ".join(("all", *SUITES)))
    p.add_argument("--n", type=int, default=200, help="random instances per check")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--inject-invalid",
        action="store_true",
        help="append a deliberately invalid channel; its violations must be caught (exit 1)",
    )
    p.set_defaults(func=cmd_verify)
    return parser


# (get, set) symbol names of the thread count, for each OpenBLAS build name.
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix, suffix in (
        ("scipy_openblas", "64_"),
        ("scipy_openblas", ""),
        ("openblas", "64_"),
        ("openblas", ""),
    )
)


@functools.cache
def _openblas() -> tuple:
    """``(get, set)`` thread-count functions of every OpenBLAS this process
    has loaded, found by its shared-library name in ``/proc/self/maps``;
    empty where there is none or no such file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore each library's
    count; without a loaded OpenBLAS, change nothing.  The count is
    process-wide, so calls of :func:`main` in several threads of one process
    share it."""
    libs = _openblas()
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(libs, saved):
            set_(count)


def main(argv=None) -> int:
    with _one_blas_thread():
        try:
            args = _build_parser().parse_args(argv)
            return args.func(args)
        except (ValidationError, ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
